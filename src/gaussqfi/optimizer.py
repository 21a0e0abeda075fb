"""Energy-constrained probe optimization and scaling-exponent fits.

The search runs a derivative-free adaptive Nelder-Mead simplex from many
starts.  All starts advance in lockstep: each iteration decodes the
candidate points of every active start as one (B, dim) batch and
evaluates them with one ``qfi.qfi_kernel`` call, while every start takes
exactly the steps scipy's adaptive Nelder-Mead would take on its own.
Energy feasibility is exact by construction: the per-mode displacement
and thermal fractions live in a logistic-squashed simplex and the
squeezing parameter absorbs whatever energy remains, so every iterate
satisfies the budget.  Warm starts at the analytically known optima make
the regression against the closed-form limits deterministic.
"""
from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .channels import (
    BEAMSPLIT,
    COMBINED,
    PHASE,
    SQUEEZE1_MODE1,
    TWOMODE_SQUEEZE,
    ChannelSpec,
)
from .errors import DegenerateBudgetError, InvalidInputError
from .probes import OneModeProbeParams, TwoModeProbeParams
from .qfi import qfi_kernel, qfi_unitary

log = logging.getLogger(__name__)

ONE_MODE = "one-mode"
TWO_MODE = "two-mode-restricted"

_PARAMS = {ONE_MODE: OneModeProbeParams, TWO_MODE: TwoModeProbeParams}

# logistic(-SATURATION) ~ 9e-14: numerically "all energy into squeezing"
SATURATION = 30.0


@dataclass(frozen=True)
class EnergyBudget:
    """Mean-energy budget with per-mode displacement/thermal fractions.

    ``splits[k] = (f_d, f_th)`` are fractions of mode k's energy share;
    squeezing receives the remainder through the mean-energy relation.
    """

    n_total: float
    splits: tuple = ((0.0, 0.0),)
    mode_fractions: tuple = None

    def __post_init__(self):
        # NaN passes every range check below, since nan < 0 is false
        if not math.isfinite(self.n_total):
            raise InvalidInputError(f"n_total must be finite, got {self.n_total}")
        if self.n_total < 0:
            raise InvalidInputError("n_total must be >= 0")
        splits = tuple((float(fd), float(ft)) for fd, ft in self.splits)
        if not all(map(math.isfinite, itertools.chain(*splits))):
            raise InvalidInputError(f"splits must be finite, got {splits}")
        for fd, ft in splits:
            if fd < 0 or ft < 0 or fd + ft > 1.0 + 1e-12:
                raise InvalidInputError(f"infeasible split (f_d={fd}, f_th={ft})")
        fractions = self.mode_fractions
        if fractions is None:
            fractions = tuple(1.0 / len(splits) for _ in splits)
        fractions = tuple(float(g) for g in fractions)
        if not all(map(math.isfinite, fractions)):
            raise InvalidInputError(f"mode_fractions must be finite, got {fractions}")
        if len(fractions) != len(splits) or abs(sum(fractions) - 1.0) > 1e-9 \
                or min(fractions) < 0:
            raise InvalidInputError("mode_fractions must be a distribution over modes")
        object.__setattr__(self, "splits", splits)
        object.__setattr__(self, "mode_fractions", fractions)


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 32
    max_iter: int = 2000
    seed: int = 0
    tol: float = 1e-10

    @classmethod
    def from_dict(cls, data: dict) -> "OptimizerConfig":
        return cls(restarts=int(data.get("restarts", 32)),
                   max_iter=int(data.get("max_iter", 2000)),
                   seed=int(data.get("seed", 0)),
                   tol=float(data.get("tol", 1e-10)))


@dataclass
class OptimizationResult:
    best_params: dict
    best_qfi: float
    trace: list = field(default_factory=list)
    restarts: int = 0
    converged: bool = False


# ---------------------------------------------------------------------------
# Batched objective: decode a (B, dim) batch of search vectors into Williamson
# data and evaluate it with one qfi_kernel call

def _logistic(x: np.ndarray) -> np.ndarray:
    """``1 / (1 + exp(-x))``, written so that ``exp`` never overflows."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def _logit(p: float) -> float:
    p = min(max(p, 1e-12), 1 - 1e-12)
    return float(np.log(p / (1 - p)))


def _energy_fractions(x: np.ndarray, family: str, constraint: str):
    """Energy coordinates of search vectors ``x`` (B, dim).

    Returns ``(f_d, f_th, g)``, each (B, modes): the displacement and
    thermal fractions of each mode's energy, and each mode's share of the
    budget.  Squeezing takes the rest of a mode's share.
    """
    b = x.shape[0]
    if family == ONE_MODE:
        modes, offset = 1, 2
        g = np.ones((b, 1))
    else:
        modes, offset = 2, 7
        g1 = _logistic(x[:, 6])
        g = np.stack([g1, 1.0 - g1], axis=1)
    if constraint == "coherent-only":
        return np.ones((b, modes)), np.zeros((b, modes)), g
    if constraint == "squeezing-only":
        return np.zeros((b, modes)), np.zeros((b, modes)), g
    u = _logistic(x[:, offset:offset + 2 * modes])
    f_d = u[:, 0::2]
    return f_d, (1.0 - f_d) * u[:, 1::2], g


def _columns(x: np.ndarray, family: str, n_total: float, constraint: str):
    """Search vectors ``x`` (B, dim) as the family's parameter fields, one
    (B,) column per field in field order, and the ``_energy_fractions``
    they came from.  Squeezing takes the rest of each mode's energy."""
    f_d, f_th, g = _energy_fractions(x, family, constraint)
    n_k = g * n_total
    n_d, n_th = f_d * n_k, f_th * n_k
    lams = 1.0 + 2.0 * n_th
    r = np.arcsinh(np.sqrt(np.maximum(n_k - n_d - n_th, 0.0) / lams))
    d_mag = np.sqrt(n_d)
    if family == ONE_MODE:
        columns = (lams[:, 0], r[:, 0], x[:, 0], d_mag[:, 0], x[:, 1])
    else:
        columns = (lams[:, 0], lams[:, 1], r[:, 0], r[:, 1], *x[:, :4].T,
                   d_mag[:, 0], d_mag[:, 1], x[:, 4], x[:, 5])
    return columns, (f_d, f_th, g)


def _objective(x, family, n_total, constraint, ikw, gamma) -> np.ndarray:
    """Negative QFI of every decoded row of ``x`` (B, dim); ``+inf`` where
    it is not finite.  Every row is computed alone, so its value does not
    depend on the rest of the batch."""
    columns, _ = _columns(x, family, n_total, constraint)
    s0, lams, d_tilde = _PARAMS[family].arrays(*columns)
    value = -sum(qfi_kernel(s0, lams, d_tilde, ikw, gamma))
    return np.where(np.isfinite(value), value, np.inf)


def _decode(x: np.ndarray, family: str, n_total: float, constraint: str):
    """Map one unconstrained search vector to feasible probe parameters
    and the energy budget they spend."""
    columns, fractions = _columns(np.asarray(x, dtype=float)[None], family,
                                  n_total, constraint)
    f_d, f_th, g = (a[0] for a in fractions)
    params = _PARAMS[family](*(float(c[0]) for c in columns))
    return params, EnergyBudget(n_total, tuple(zip(f_d, f_th)), tuple(g))


def _warm_starts(channel: ChannelSpec, family: str, constraint: str):
    """Deterministic seeds at the analytically optimal probe angles."""
    chi = channel.chi
    starts = []
    lo = -SATURATION

    def one(theta, phi_d):
        if constraint:
            return np.array([theta, phi_d], dtype=float)
        return np.array([theta, phi_d, lo, lo], dtype=float)

    def two(theta, psi, phi1, phi2, pd1, pd2):
        base = [theta, psi, phi1, phi2, pd1, pd2, 0.0]
        if not constraint:
            base += [lo, lo, lo, lo]
        return np.array(base, dtype=float)

    if family == ONE_MODE:
        if channel.kind == PHASE:
            starts.append(one(0.0, np.pi / 2))
        elif channel.kind == SQUEEZE1_MODE1:
            starts.append(one(np.pi / 4 - chi / 2, np.pi / 4 + chi / 2))
        elif channel.kind == COMBINED:
            starts.append(one(-chi / 2 - np.pi / 4, chi / 2 - np.pi / 4))
        starts.append(one(0.0, 0.0))
    else:
        if channel.kind == TWOMODE_SQUEEZE:
            a = np.pi / 4 - chi / 2
            b = np.pi / 4 + chi / 2
            starts.append(two(0.0, 0.0, a, a, b, b))
            starts.append(two(np.pi / 4, 0.0, a, a, b, b))
        elif channel.kind == BEAMSPLIT:
            starts.append(two(0.0, 0.0, np.pi / 4 - chi / 2, -np.pi / 4 + chi / 2,
                              np.pi / 4 + chi / 2, -np.pi / 4 - chi / 2))
            starts.append(two(np.pi / 4, np.pi / 4, 0.0, 0.0, 0.0, -np.pi / 2))
        starts.append(two(0.0, 0.0, 0.0, 0.0, 0.0, 0.0))
    return starts


def _halton(index: int, base: int) -> float:
    result, f = 0.0, 1.0
    while index > 0:
        f /= base
        result += f * (index % base)
        index //= base
    return result


_HALTON_BASES = (2, 3, 5, 7, 11, 13)
_SPLIT_LATTICE = ((0.0, 0.0), (0.5, 0.0), (0.0, 0.5), (0.3, 0.3))


def _start_points(channel, family, constraint, config):
    starts = _warm_starts(channel, family, constraint)
    n_angles = 2 if family == ONE_MODE else 6
    i = 0
    while len(starts) < config.restarts:
        idx = config.seed * 1000 + i + 1
        angles = [2 * np.pi * (_halton(idx, _HALTON_BASES[j % 6]) - 0.5)
                  for j in range(n_angles)]
        x = list(angles)
        if family == TWO_MODE:
            x.append(_logit(0.25 + 0.5 * _halton(idx, 17)))
        if not constraint:
            fd, ft = _SPLIT_LATTICE[i % len(_SPLIT_LATTICE)]
            us = [_logit(fd) if fd else -SATURATION,
                  _logit(ft) if ft else -SATURATION]
            x += us * (1 if family == ONE_MODE else 2)
        starts.append(np.array(x, dtype=float))
        i += 1
    return starts[:config.restarts]


@dataclass
class LockstepResult:
    """Outcome of ``minimize``, one row per restart."""

    x: np.ndarray          # (B, dim) best vertex of each final simplex
    fun: np.ndarray        # (B,) objective value there
    converged: np.ndarray  # (B,) met the xatol/fatol test within max_iter
    nfev: int              # points evaluated, speculative candidates included

    @property
    def success(self) -> bool:
        return bool(self.converged.all())


def _sorted(sim: np.ndarray, fsim: np.ndarray):
    order = np.argsort(fsim, axis=1)
    rows = np.arange(len(fsim))[:, None]
    return sim[rows, order], fsim[rows, order]


def minimize(fun, x0: np.ndarray, max_iter: int, xatol: float,
             fatol: float) -> LockstepResult:
    """Adaptive Nelder-Mead run from every row of ``x0`` (B, dim) in lockstep.

    Each row takes the steps of ``scipy.optimize.minimize(fun, x0[b],
    method="Nelder-Mead", options={"adaptive": True, "maxiter": max_iter,
    "xatol": xatol, "fatol": fatol})``: the same initial simplex,
    coefficients (Gao & Han, Comput. Optim. Appl. 51, 2012), step order,
    stop test and vertex ordering.  ``fun`` maps points (M, dim) to values
    (M,) and must compute each row alone.  Every iteration evaluates the
    reflection, expansion and both contraction points of every active
    restart in one call, and the shrunken simplices in a second.
    """
    x0 = np.asarray(x0, dtype=float)
    b, n = x0.shape
    dim = float(n)
    rho, chi = 1, 1 + 2 / dim
    psi, sigma = 0.75 - 1 / (2 * dim), 1 - 1 / dim

    sim = np.repeat(x0[:, None, :], n + 1, axis=1)
    k = np.arange(n)
    sim[:, k + 1, k] = np.where(x0 != 0, (1 + 0.05) * x0, 0.00025)
    fsim = fun(sim.reshape(-1, n)).reshape(b, n + 1)
    nfev = fsim.size
    # scipy sorts twice here; an unstable argsort may reorder ties again
    sim, fsim = _sorted(*_sorted(sim, fsim))

    active = np.ones(b, dtype=bool)
    converged = np.zeros(b, dtype=bool)
    iterations = 1
    while iterations < max_iter:
        rows = np.flatnonzero(active)
        s, f = sim[rows], fsim[rows]
        with np.errstate(invalid="ignore"):  # inf - inf where starts failed
            done = ((np.max(np.abs(s[:, 1:] - s[:, :1]), axis=(1, 2)) <= xatol)
                    & (np.max(np.abs(f[:, :1] - f[:, 1:]), axis=1) <= fatol))
        converged[rows[done]] = True
        active[rows[done]] = False
        rows, s, f = rows[~done], s[~done], f[~done]
        if not rows.size:
            break

        xbar = np.add.reduce(s[:, :-1], 1) / n
        worst = s[:, -1]
        cand = np.stack([(1 + rho) * xbar - rho * worst,
                         (1 + rho * chi) * xbar - rho * chi * worst,
                         (1 + psi * rho) * xbar - psi * rho * worst,
                         (1 - psi) * xbar + psi * worst], axis=1)
        fc = fun(cand.reshape(-1, n)).reshape(-1, 4)
        nfev += fc.size
        fr, fe, foc, fic = fc.T
        expand = fr < f[:, 0]
        contract = ~expand & ~(fr < f[:, -2])
        outside = fr < f[:, -1]
        pick = np.where(expand & (fe < fr), 1, 0)
        pick[contract & outside] = 2
        pick[contract & ~outside] = 3
        accept = ~contract | np.where(outside, foc <= fr, fic < f[:, -1])
        keep = np.flatnonzero(accept)
        s[keep, -1] = cand[keep, pick[keep]]
        f[keep, -1] = fc[keep, pick[keep]]
        shrink = np.flatnonzero(~accept)
        if shrink.size:
            best = s[shrink, :1]
            s[shrink, 1:] = best + sigma * (s[shrink, 1:] - best)
            f[shrink, 1:] = fun(s[shrink, 1:].reshape(-1, n)).reshape(-1, n)
            nfev += shrink.size * n
        iterations += 1
        sim[rows], fsim[rows] = _sorted(s, f)
    return LockstepResult(sim[:, 0], np.min(fsim, axis=1), converged, int(nfev))


def optimize_probe(channel: ChannelSpec, family: str, budget: EnergyBudget,
                   config: OptimizerConfig = OptimizerConfig(),
                   constraint: str = None) -> OptimizationResult:
    """Maximize the channel QFI over a probe family at fixed mean energy.

    All restarts run in lockstep through one ``minimize`` call, each
    iteration evaluating every restart's candidates in one batched
    ``qfi_kernel`` call.  A restart's result does not depend on the others.

    Args:
        channel: one-parameter channel to estimate.
        family: "one-mode" or "two-mode-restricted".
        budget: energy budget; only ``n_total`` is binding, the split is
            part of the search space (unless constrained).
        config: restart count, iteration cap, seed, simplex tolerance.
        constraint: None, "coherent-only" (all energy displaced) or
            "squeezing-only".
    """
    if family not in (ONE_MODE, TWO_MODE):
        raise InvalidInputError(f"unknown probe family {family!r}")
    if constraint not in (None, "coherent-only", "squeezing-only"):
        raise InvalidInputError(f"unknown constraint {constraint!r}")
    expected_modes = 1 if family == ONE_MODE else 2
    if channel.modes != expected_modes:
        raise InvalidInputError(
            f"family {family} needs a {expected_modes}-mode channel")
    if budget.n_total <= 0:
        raise DegenerateBudgetError("optimization needs n_total > 0")

    ikw = channel.generator.ikw()
    gamma = channel.generator.gamma

    def objective(x):
        return _objective(x, family, budget.n_total, constraint, ikw, gamma)

    starts = np.array(_start_points(channel, family, constraint, config))
    values = -objective(starts)
    xs = starts.copy()
    converged = np.zeros(len(starts), dtype=bool)
    ok = np.isfinite(values)
    if ok.any():
        res = minimize(objective, starts[ok], config.max_iter, config.tol, config.tol)
        values[ok], xs[ok], converged[ok] = -res.fun, res.x, res.converged
    aborted = ~np.isfinite(values)
    for idx in np.flatnonzero(aborted):
        log.warning("optimizer start %d aborted (non-finite objective)", idx)
    if aborted.all():
        raise InvalidInputError("all optimizer starts aborted")
    trace = [(int(idx), float(values[idx])) for idx in np.flatnonzero(~aborted)]

    best = int(np.argmax(values))
    value = float(values[best])
    params, bud = _decode(xs[best], family, budget.n_total, constraint)
    engine_value = qfi_unitary(params.to_probe_state(), channel).total
    if abs(engine_value - value) > 1e-9 * max(1.0, abs(value)):
        raise InvalidInputError(
            f"search objective ({value:.12g}) and engine ({engine_value:.12g}) "
            "disagree on the optimum")
    best_params = {"family": family, "probe": params, "splits": bud.splits,
                   "mode_fractions": bud.mode_fractions}
    return OptimizationResult(best_params=best_params, best_qfi=value,
                              trace=trace, restarts=int((~aborted).sum()),
                              converged=bool(converged[best]))


# ---------------------------------------------------------------------------
# Scaling-exponent classification

FAMILY_OPTIMAL = "optimal-squeezing"
FAMILY_COHERENT = "coherent-only"
FAMILY_ONE_MODE_PROBE = "one-mode-probe"
SCALING_FAMILIES = (FAMILY_OPTIMAL, FAMILY_COHERENT, FAMILY_ONE_MODE_PROBE)


@dataclass(frozen=True)
class ScalingFit:
    exponent: float
    prefactor: float
    n_grid: tuple
    qfi_values: tuple


def _strategy_probe(channel: ChannelSpec, family: str, n: float):
    chi = channel.chi
    if channel.modes == 1:
        if family == FAMILY_COHERENT:
            angles = {"phase": (0.0, np.pi / 2)}.get(channel.kind, (0.0, 0.0))
            return OneModeProbeParams(d_mag=np.sqrt(n), theta=angles[0],
                                      phi_d=angles[1])
        r = float(np.arcsinh(np.sqrt(n)))
        if channel.kind == PHASE:
            return OneModeProbeParams(r=r, theta=0.0)
        if channel.kind == SQUEEZE1_MODE1:
            return OneModeProbeParams(r=r, theta=np.pi / 4 - chi / 2)
        if channel.kind == COMBINED:
            return OneModeProbeParams(r=r, theta=-chi / 2 - np.pi / 4)
        raise InvalidInputError(f"no optimal-squeezing strategy for {channel.kind!r}")
    if family == FAMILY_ONE_MODE_PROBE:
        return TwoModeProbeParams(r1=float(np.arcsinh(np.sqrt(n))))
    if family == FAMILY_COHERENT:
        return TwoModeProbeParams(d1_mag=np.sqrt(n / 2), d2_mag=np.sqrt(n / 2))
    r = float(np.arcsinh(np.sqrt(n / 2)))
    if channel.kind == TWOMODE_SQUEEZE:
        a = np.pi / 4 - chi / 2
        b = np.pi / 4 + chi / 2
        return TwoModeProbeParams(r1=r, r2=r, phi1=a, phi2=a, phi_d1=b, phi_d2=b)
    if channel.kind == BEAMSPLIT:
        return TwoModeProbeParams(r1=r, r2=r, phi1=np.pi / 4 - chi / 2,
                                  phi2=-np.pi / 4 + chi / 2)
    raise InvalidInputError(f"no optimal-squeezing strategy for {channel.kind!r}")


def scaling_exponent(channel: ChannelSpec, family: str, n_grid) -> ScalingFit:
    """Fit ``log H`` vs ``log n`` on the tail half of an energy grid.

    An exponent near 2 flags Heisenberg scaling, near 1 shot-noise
    scaling.  The fit window is the largest half of the grid so additive
    constants in the closed forms do not bias the slope.
    """
    if family not in SCALING_FAMILIES:
        raise InvalidInputError(f"unknown scaling family {family!r}; "
                                f"known: {list(SCALING_FAMILIES)}")
    grid = sorted(float(n) for n in n_grid)
    if len(grid) < 4:
        raise InvalidInputError("n_grid needs at least 4 points")
    if grid[0] <= 0 or grid[-1] / grid[0] < 10.0:
        raise InvalidInputError("n_grid must be positive and span >= one decade")
    values = []
    for n in grid:
        params = _strategy_probe(channel, family, n)
        values.append(qfi_unitary(params.to_probe_state(), channel).total)
    values = np.asarray(values)
    if np.any(values <= 0):
        raise InvalidInputError("family yields non-positive QFI on the grid")
    tail = len(grid) // 2
    logn = np.log(np.asarray(grid)[tail:])
    logh = np.log(values[tail:])
    slope, intercept = np.polyfit(logn, logh, 1)
    return ScalingFit(float(slope), float(np.exp(intercept)),
                      tuple(grid), tuple(float(v) for v in values))


def conjecture_probe(channel: ChannelSpec, n_grid, restarts: int = 32,
                     seed: int = 0) -> list:
    """Numeric evidence on where optimal probes put their energy.

    For each budget the unconstrained optimum is located and its
    displacement/thermal fractions recorded; entries are flagged when a
    fraction exceeds 1e-3, which would be evidence against squeezing
    exclusivity.  This gathers evidence only; it proves nothing.
    """
    family = ONE_MODE if channel.modes == 1 else TWO_MODE
    config = OptimizerConfig(restarts=restarts, seed=seed)
    report = []
    for n in n_grid:
        splits_shape = ((0.0, 0.0),) if family == ONE_MODE else ((0.0, 0.0), (0.0, 0.0))
        result = optimize_probe(channel, family, EnergyBudget(float(n), splits_shape),
                                config)
        splits = result.best_params["splits"]
        fractions = result.best_params["mode_fractions"]
        # fractions of the *total* budget; a mode whose energy share is zero
        # carries no information in its per-mode split
        f_d = sum(g * fd for g, (fd, _) in zip(fractions, splits))
        f_th = sum(g * ft for g, (_, ft) in zip(fractions, splits))
        flagged = f_d > 1e-3 or f_th > 1e-3
        report.append({"n": float(n), "best_qfi": result.best_qfi,
                       "splits": splits, "mode_fractions": fractions,
                       "f_d": f_d, "f_th": f_th, "flagged": flagged})
    return report
