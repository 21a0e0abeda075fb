import dataclasses

import numpy as np
import pytest

import gaussqfi as gq
from gaussqfi.errors import InvalidInputError
from gaussqfi.probes import FAMILIES, probe_params_from_dict, probe_params_to_dict
from reference_matrices import mix_matrix, phase_matrix, squeeze_matrix


def _paper_energy(*modes):
    # the mean-energy relation |d|^2 + (lambda - 1)/2 + lambda sinh^2 r,
    # summed over the (lambda, r, |d|) of each mode
    return sum(d ** 2 + (lam - 1.0) / 2.0 + lam * np.sinh(r) ** 2
               for lam, r, d in modes)


def test_one_mode_energy_matches_state(rng):
    for _ in range(50):
        p = gq.OneModeProbeParams(
            lambda1=rng.uniform(1, 4), r=rng.uniform(-1.5, 1.5),
            theta=rng.uniform(-np.pi, np.pi), d_mag=rng.uniform(0, 2),
            phi_d=rng.uniform(-np.pi, np.pi))
        n_paper = _paper_energy((p.lambda1, p.r, p.d_mag))
        assert abs(n_paper - p.mean_photon()) < 1e-10 * max(1.0, n_paper)


def test_two_mode_energy_matches_state(rng):
    for _ in range(50):
        p = gq.TwoModeProbeParams(
            lambda1=rng.uniform(1, 4), lambda2=rng.uniform(1, 4),
            r1=rng.uniform(-1.5, 1.5), r2=rng.uniform(-1.5, 1.5),
            theta=rng.uniform(-np.pi, np.pi), psi=rng.uniform(-np.pi, np.pi),
            phi1=rng.uniform(-np.pi, np.pi), phi2=rng.uniform(-np.pi, np.pi),
            d1_mag=rng.uniform(0, 2), d2_mag=rng.uniform(0, 2),
            phi_d1=rng.uniform(-np.pi, np.pi), phi_d2=rng.uniform(-np.pi, np.pi))
        n_paper = _paper_energy((p.lambda1, p.r1, p.d1_mag), (p.lambda2, p.r2, p.d2_mag))
        assert abs(n_paper - p.mean_photon()) < 1e-10 * max(1.0, n_paper)


@pytest.mark.parametrize("cls", [gq.OneModeProbeParams, gq.TwoModeProbeParams])
def test_family_description_partitions_fields(cls):
    # ANGLES and the ENERGY names are the dataclass fields, each once, with
    # ANGLES in field order; the JSON kind maps back to the class
    names = [f.name for f in dataclasses.fields(cls)]
    energy = [name for mode in cls.ENERGY for name in mode]
    assert sorted(energy + list(cls.ANGLES)) == sorted(names)
    assert list(cls.ANGLES) == [n for n in names if n in cls.ANGLES]
    assert all(lam.startswith("lambda") and r.startswith("r") and d.endswith("mag")
               for lam, r, d in cls.ENERGY)
    assert FAMILIES[cls.kind] is cls
    assert "kind" not in cls.__dataclass_fields__


def _chain(p):
    # the family's defining operator product, one validated factor at a time
    if isinstance(p, gq.OneModeProbeParams):
        return (phase_matrix(p.theta) @ squeeze_matrix(p.r)).matrix
    return (phase_matrix(p.phi1, 0, 2) @ phase_matrix(p.phi2, 1, 2)
            @ mix_matrix(p.theta)
            @ phase_matrix(p.psi, 0, 2) @ phase_matrix(-p.psi, 1, 2)
            @ squeeze_matrix(p.r1, 0.0, 0, 2) @ squeeze_matrix(p.r2, 0.0, 1, 2)).matrix


@pytest.mark.parametrize("cls", [gq.OneModeProbeParams, gq.TwoModeProbeParams])
def test_williamson_factor_matches_operator_chain(rng, cls):
    # pins the operator order of the batched builder against the product
    # R(theta) S(r), or R_1 R_2 B(theta) R_as(psi) S_1 S_2
    for _ in range(200):
        fields = {}
        for name in cls.__dataclass_fields__:
            if name.startswith("lambda"):
                lo, hi = 1.0, 4.0
            elif name.startswith("r"):
                lo, hi = -1.5, 1.5
            elif name.endswith("mag"):
                lo, hi = 0.0, 2.0
            else:
                lo, hi = -np.pi, np.pi
            fields[name] = rng.uniform(lo, hi)
        p = cls(**fields)
        got = p.to_probe_state().williamson.s.matrix
        assert np.max(np.abs(got - _chain(p))) < 1e-12


def test_one_mode_probe_on_two_structure():
    p = gq.one_mode_probe_on_two(1.5, 0.3, d1_mag=0.8)
    assert p.lambda2 == 1.0 and p.r2 == 0.0 and p.d2_mag == 0.0
    state = p.to_probe_state().to_state()
    # second mode stays vacuum
    assert abs(state.cov_x[1, 1] - 1.0) < 1e-12
    assert abs(state.d_tilde[1]) == 0.0


def test_params_reject_unphysical():
    with pytest.raises(InvalidInputError):
        gq.OneModeProbeParams(lambda1=0.5)
    with pytest.raises(InvalidInputError):
        gq.OneModeProbeParams(d_mag=-1.0)
    with pytest.raises(InvalidInputError):
        gq.TwoModeProbeParams(lambda2=0.0)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("cls, field", [
    (gq.OneModeProbeParams, "lambda1"), (gq.OneModeProbeParams, "theta"),
    (gq.OneModeProbeParams, "d_mag"), (gq.TwoModeProbeParams, "lambda2"),
    (gq.TwoModeProbeParams, "psi"), (gq.TwoModeProbeParams, "phi_d2")])
def test_params_reject_non_finite(cls, field, value):
    with pytest.raises(InvalidInputError, match=field):
        cls(**{field: value})


def test_params_dict_round_trip():
    p1 = gq.OneModeProbeParams(lambda1=1.5, r=0.3, theta=0.1, d_mag=0.7, phi_d=-0.2)
    p2 = gq.TwoModeProbeParams(lambda1=1.2, r1=0.4, theta=0.6, d2_mag=0.3)
    for p in (p1, p2):
        assert probe_params_from_dict(probe_params_to_dict(p)) == p
