"""Randomized cross-validation panels: closed forms vs the matrix engine,
and the Fock-basis oracle vs the engine on a fixed small-parameter set."""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import formulas
from .channels import BEAMSPLIT, CATALOG, COMBINED, PHASE, SQUEEZE1_MODE1, \
    TWOMODE_SQUEEZE, combined_channel, mix_channel, phase_channel, squeeze_channel, \
    twomode_squeeze_channel
from .fock import ladder_state, state_qfi
from .probes import OneModeProbeParams, TwoModeProbeParams, one_mode_probe_on_two
from .qfi import qfi_unitary

ORACLE_TOL = 1e-9
FOCK_TOL = 1e-3


@dataclass
class CheckResult:
    name: str
    max_rel_dev: float
    tol: float
    passed: bool
    detail: str = ""


def _rel(closed: float, engine: float) -> float:
    return abs(closed - engine) / max(1.0, abs(engine))


def _draw_lambda(rng) -> float:
    # mix exactly-pure draws with thermal ones, staying clear of the
    # degeneracy threshold so both paths use the same branch
    return 1.0 if rng.random() < 0.3 else float(rng.uniform(1.0 + 1e-6, 4.0))


def _draw_one(rng) -> OneModeProbeParams:
    return OneModeProbeParams(
        lambda1=_draw_lambda(rng), r=float(rng.uniform(-1.5, 1.5)),
        theta=float(rng.uniform(-np.pi, np.pi)), d_mag=float(rng.uniform(0, 2)),
        phi_d=float(rng.uniform(-np.pi, np.pi)))


def _draw_two(rng, theta=None, psi=None) -> TwoModeProbeParams:
    return TwoModeProbeParams(
        lambda1=_draw_lambda(rng), lambda2=_draw_lambda(rng),
        r1=float(rng.uniform(-1.5, 1.5)), r2=float(rng.uniform(-1.5, 1.5)),
        theta=float(rng.uniform(-np.pi, np.pi)) if theta is None else theta,
        psi=float(rng.uniform(-np.pi, np.pi)) if psi is None else psi,
        phi1=float(rng.uniform(-np.pi, np.pi)), phi2=float(rng.uniform(-np.pi, np.pi)),
        d1_mag=float(rng.uniform(0, 2)), d2_mag=float(rng.uniform(0, 2)),
        phi_d1=float(rng.uniform(-np.pi, np.pi)), phi_d2=float(rng.uniform(-np.pi, np.pi)))


# Each channel parameter's oracle-panel draw range.
_PARAM_RANGES = {"omega_p": (-2, 2), "omega_s": (-2, 2), "chi": (-np.pi, np.pi)}
_SEPARABLE, _BALANCED = {"theta": 0.0, "psi": 0.0}, {"theta": np.pi / 4}


class ClosedForm(NamedTuple):
    """``formulas.<formula>(probe, *args)`` is the QFI of a ``family`` probe,
    with the angles in ``fixed`` held, under the channel of kind ``kind``
    built from ``args``, the values of the parameters ``channels.CATALOG``
    names for that kind, in its order."""

    formula: str
    kind: str
    family: str = "two-mode"
    fixed: dict = {}

    def value(self, probe, *args) -> float:
        # looked up at call time, so a wrapped module attribute is the one called
        return getattr(formulas, self.formula)(probe, *args)

    def draw(self, rng):
        """(closed_form_value, probe_params, channel), drawing the probe first
        and then the kind's parameters in catalog order."""
        p = _draw_one(rng) if self.family == "one-mode" else _draw_two(rng, **self.fixed)
        constructor, names = CATALOG[self.kind]
        args = [rng.uniform(*_PARAM_RANGES[name]) for name in names]
        return self.value(p, *args), p, constructor(*args)


# The paper's closed forms (eqs. 19-21, 28, 30, 36, 38 and appendix C), read
# by the oracle panel and by ``gaussqfi closed-form``.
CLOSED_FORMS = {
    "eq19": ClosedForm("qfi_one_mode_combined", COMBINED, "one-mode"),
    "eq20": ClosedForm("qfi_phase", PHASE, "one-mode"),
    "eq21": ClosedForm("qfi_squeeze1", SQUEEZE1_MODE1, "one-mode"),
    "eq28": ClosedForm("qfi_twomode_squeeze_separable", TWOMODE_SQUEEZE, fixed=_SEPARABLE),
    "eq30": ClosedForm("qfi_twomode_squeeze_bs", TWOMODE_SQUEEZE, fixed=_BALANCED),
    "eq36": ClosedForm("qfi_mix_separable", BEAMSPLIT, fixed=_SEPARABLE),
    "eq38": ClosedForm("qfi_mix_bs", BEAMSPLIT, fixed=_BALANCED),
    "appC-st": ClosedForm("qfi_twomode_squeeze_full", TWOMODE_SQUEEZE),
    "appC-mix": ClosedForm("qfi_mix_full", BEAMSPLIT),
}


def _oracle_families(rng):
    """(name, draw) pairs, one per CLOSED_FORMS row, returning
    (closed_form_value, probe_params, channel)."""
    return [(label, row.draw) for label, row in CLOSED_FORMS.items()]


def oracle_panel(seed: int = 20240, draws: int = 200) -> list:
    """Closed-form vs engine agreement over random parameter draws."""
    rng = np.random.default_rng(seed)
    results = []
    for name, family in _oracle_families(rng):
        worst = 0.0
        for _ in range(draws):
            closed, params, channel = family(rng)
            engine = qfi_unitary(params.to_probe_state(), channel).total
            worst = max(worst, _rel(closed, engine))
        results.append(CheckResult(f"oracle/{name}", worst, ORACLE_TOL,
                                   worst < ORACLE_TOL, f"{draws} draws"))
    return results


def fock_panel_cases():
    """The fixed 12-case small-parameter panel."""
    return [
        ("coherent+phase", OneModeProbeParams(d_mag=1.0, phi_d=0.4), phase_channel()),
        ("squeezed-vacuum+phase", OneModeProbeParams(r=0.5), phase_channel()),
        ("squeezed-thermal+phase",
         OneModeProbeParams(lambda1=2.0, r=0.5, theta=0.3), phase_channel()),
        ("displaced-thermal+phase",
         OneModeProbeParams(lambda1=2.0, d_mag=1.0), phase_channel()),
        ("general+squeeze",
         OneModeProbeParams(lambda1=1.2, r=0.3, theta=0.4, d_mag=0.5, phi_d=0.3),
         squeeze_channel(0.0)),
        ("coherent+squeeze-chi", OneModeProbeParams(d_mag=1.0), squeeze_channel(0.7)),
        ("general+combined",
         OneModeProbeParams(lambda1=1.4, r=0.4, theta=0.2, d_mag=0.6, phi_d=0.5),
         combined_channel(1.0, 0.5, 0.3)),
        ("squeezed-vacuum+combined", OneModeProbeParams(r=0.5), combined_channel(0.6, 1.0)),
        ("universal+mix",
         TwoModeProbeParams(r1=0.3, r2=0.3, theta=np.pi / 4, psi=np.pi / 4,
                            phi_d2=-np.pi / 2), mix_channel()),
        ("two-mode+mix",
         TwoModeProbeParams(lambda1=1.2, r1=0.3, r2=0.2, phi1=0.3, phi2=0.1,
                            d2_mag=0.4, phi_d2=0.2), mix_channel(0.5)),
        ("separable+two-mode-squeeze",
         TwoModeProbeParams(r1=0.3, r2=0.3, phi1=np.pi / 4, phi2=np.pi / 4,
                            d1_mag=0.4, phi_d1=np.pi / 4), twomode_squeeze_channel()),
        ("one-mode-probe+two-mode-squeeze",
         one_mode_probe_on_two(1.3, 0.3, d1_mag=0.6), twomode_squeeze_channel(0.4)),
    ]


def fock_panel() -> list:
    """Fock-oracle vs engine agreement on the fixed panel.  Each case's
    state is built once per cutoff-ladder step and the passing one is
    reused for the QFI."""
    results = []
    for name, params, channel in fock_panel_cases():
        rho = ladder_state(params)
        oracle = state_qfi(rho, channel)
        engine = qfi_unitary(params.to_probe_state(), channel).total
        rel = _rel(oracle, engine)
        results.append(CheckResult(f"fock/{name}", rel, FOCK_TOL, rel < FOCK_TOL,
                                   f"cutoff={rho.cutoff}"))
    return results


def run_panels(panel: str = "all", seed: int = 20240, draws: int = 200) -> list:
    if panel not in ("all", "oracle", "fock"):
        raise ValueError(f"unknown panel {panel!r}")
    results = []
    if panel in ("all", "oracle"):
        results.extend(oracle_panel(seed=seed, draws=draws))
    if panel in ("all", "fock"):
        results.extend(fock_panel())
    return results


def format_report(results: list) -> str:
    lines = []
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status}  {r.name:<{width}}  max_rel_dev={r.max_rel_dev:.3e}  "
                     f"tol={r.tol:.0e}  {r.detail}")
    worst = max(results, key=lambda r: r.max_rel_dev / r.tol)
    lines.append(f"worst: {worst.name} at {worst.max_rel_dev:.3e} (tol {worst.tol:.0e})")
    return "\n".join(lines)
