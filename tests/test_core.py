import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gaussqfi as gq
from gaussqfi._util import _complex_form
from gaussqfi.core import STRUCTURE_ATOL, exceeds_structure_tol
from gaussqfi.errors import GaussQfiError, InvalidDimensionError, InvalidInputError, \
    NumericalInstabilityError, StructureError
from gaussqfi.qfi import PMatrix
from conftest import random_covariance, random_state, random_symplectic


def test_k_matrix_one_mode():
    assert np.array_equal(gq.k_matrix(1), np.diag([1.0, -1.0]))


def test_k_matrix_two_modes():
    assert np.array_equal(gq.k_matrix(2), np.diag([1.0, 1.0, -1.0, -1.0]))


def test_k_matrix_squares_to_identity():
    k = gq.k_matrix(3)
    assert np.array_equal(k @ k, np.eye(6))


def test_k_matrix_zero_modes_rejected():
    with pytest.raises(InvalidDimensionError):
        gq.k_matrix(0)


def test_vacuum_is_valid():
    assert gq.validate_state(gq.GaussianState.vacuum(1)) == []
    assert gq.validate_state(gq.GaussianState.vacuum(3)) == []


def test_below_vacuum_covariance_flagged():
    report = gq.validate_moments(np.zeros(2), 0.5 * np.eye(2))
    assert any("physicality" in item for item in report)


def test_conjugate_pair_violation_flagged():
    report = gq.validate_moments(np.array([1.0, 2.0]), np.eye(2))
    assert any("conjugate-pair" in item for item in report)


def test_dimension_mismatch_raises():
    with pytest.raises(InvalidDimensionError):
        gq.validate_moments(np.zeros(4), np.eye(2))
    with pytest.raises(InvalidDimensionError):
        gq.validate_moments(np.zeros(3), np.eye(3))


def test_constructor_rejects_non_hermitian_block():
    x = np.array([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(StructureError):
        gq.GaussianState(np.zeros(2), x, np.zeros((2, 2)))


def test_constructor_accepts_large_squeezed_covariance():
    # at r = 12 the covariance entries reach about 1e10, and the Williamson
    # product leaves a Hermitian residue far above a fixed 1e-8
    probe = gq.OneModeProbeParams(r=12.0, theta=0.3).to_probe_state()
    sigma = probe.williamson.covariance
    assert np.max(np.abs(sigma - sigma.conj().T)) > STRUCTURE_ATOL
    state = probe.to_state()
    assert np.max(np.abs(state.covariance - sigma)) <= STRUCTURE_ATOL * np.max(np.abs(sigma))


def test_structure_gate_scales_above_one():
    small, large = np.eye(2), np.array([-4e6j])
    assert exceeds_structure_tol(1.5 * STRUCTURE_ATOL, small, 1e-3 * np.ones(3))
    assert not exceeds_structure_tol(STRUCTURE_ATOL, small)
    assert not exceeds_structure_tol(3.9e6 * STRUCTURE_ATOL, small, large)
    assert exceeds_structure_tol(4.1e6 * STRUCTURE_ATOL, small, large)
    assert not exceeds_structure_tol(float("nan"), large)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("field", ["d_tilde", "cov_x", "cov_y"])
def test_constructor_rejects_non_finite(field, bad):
    parts = {"d_tilde": np.zeros(2, dtype=complex), "cov_x": np.eye(2, dtype=complex),
             "cov_y": np.zeros((2, 2), dtype=complex)}
    parts[field].flat[0] = bad
    with pytest.raises(InvalidInputError, match="finite"):
        gq.GaussianState(**parts)


def test_state_arrays_are_frozen():
    state = gq.GaussianState.vacuum(1)
    with pytest.raises(ValueError):
        state.cov_x[0, 0] = 5.0


def test_complex_to_real_vacuum():
    d_re, sigma_re = gq.complex_to_real(gq.GaussianState.vacuum(2))
    assert np.allclose(d_re, 0.0)
    assert np.allclose(sigma_re, np.eye(4))


def test_squeezing_real_form_matches_diagonal():
    # real form of S(r, chi=0) is diag(e^-r, e^r)
    from gaussqfi.channels import squeeze_matrix

    for r in (0.3, -0.88, 1.4):
        s_re = gq.complex_to_real_matrix(squeeze_matrix(r).matrix)
        assert np.allclose(s_re, np.diag([np.exp(-r), np.exp(r)]), atol=1e-12)


def test_real_to_complex_identity_gives_vacuum():
    state = gq.real_to_complex(np.zeros(2), np.eye(2))
    assert gq.validate_state(state) == []
    assert np.allclose(state.covariance, np.eye(2))


def test_beam_splitter_real_form_round_trip():
    from gaussqfi.channels import mix_matrix

    rng = np.random.default_rng(5)
    for _ in range(20):
        theta, chi = rng.uniform(-np.pi, np.pi, 2)
        b = mix_matrix(theta, chi).matrix
        assert np.allclose(gq.real_to_complex_matrix(gq.complex_to_real_matrix(b)), b,
                           atol=1e-12)


def test_round_trip_random_states(rng):
    for _ in range(100):
        n = int(rng.integers(1, 4))
        state = random_state(rng, n)
        d_re, sigma_re = gq.complex_to_real(state)
        back = gq.real_to_complex(d_re, sigma_re)
        assert np.max(np.abs(back.displacement - state.displacement)) < 1e-12
        assert np.max(np.abs(back.covariance - state.covariance)) < 1e-12


def test_random_real_psd_above_vacuum_is_valid(rng):
    for _ in range(25):
        n = int(rng.integers(1, 4))
        m = rng.normal(size=(2 * n, 2 * n))
        sigma_re = m @ m.T + np.eye(2 * n)
        state = gq.real_to_complex(rng.normal(size=2 * n), sigma_re)
        assert gq.validate_state(state) == []


def test_real_to_complex_rejects_asymmetric():
    with pytest.raises(StructureError):
        gq.real_to_complex(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_mean_photon_vacuum():
    assert gq.mean_photon_number(gq.GaussianState.vacuum(2)) == 0.0


def test_mean_photon_coherent():
    p = gq.OneModeProbeParams(d_mag=1.0)
    assert abs(gq.mean_photon_number(p.to_probe_state().to_state()) - 1.0) < 1e-12


def test_mean_photon_squeezed():
    p = gq.OneModeProbeParams(r=float(np.arcsinh(1.0)))
    assert abs(gq.mean_photon_number(p.to_probe_state().to_state()) - 1.0) < 1e-12


@given(st.floats(min_value=1.0, max_value=50.0))
@settings(max_examples=40, deadline=None)
def test_mean_photon_thermal(lam):
    state = gq.GaussianState.thermal([lam])
    assert abs(gq.mean_photon_number(state) - (lam - 1.0) / 2.0) < 1e-10


def test_mean_photon_invariant_under_passive(rng):
    from gaussqfi.channels import mix_matrix, phase_matrix

    for _ in range(25):
        n = 2
        state = random_state(rng, n)
        s = (phase_matrix(rng.uniform(-np.pi, np.pi), 0, 2)
             @ mix_matrix(rng.uniform(-np.pi, np.pi), rng.uniform(-np.pi, np.pi))).matrix
        sigma = s @ state.covariance @ s.conj().T
        d = s @ state.displacement
        after = gq.GaussianState.from_moments(d, sigma)
        assert abs(gq.mean_photon_number(after) - gq.mean_photon_number(state)) < 1e-10


def test_symplectic_eigenvalues_sorted(rng):
    sigma, lams = random_covariance(rng, 3)
    got = gq.symplectic_eigenvalues(sigma)
    assert np.allclose(got, np.sort(lams)[::-1], atol=1e-9)


@pytest.mark.parametrize("r", [3.8, 3.9, 7.0, 9.0, 10.0])
def test_squeezed_probe_verdicts_agree(r):
    # validate_state, symplectic_eigenvalues and williamson read one spectrum:
    # all accept r = 3.8, and past the conditioning limit (r about 3.84) all
    # refuse the covariance as unresolvable, not as unphysical
    state = gq.OneModeProbeParams(r=r, theta=0.3).to_probe_state().to_state()
    report = gq.validate_state(state)
    if r < 3.84:
        assert report == []
        assert gq.williamson(state.covariance).eigenvalues[0] == pytest.approx(1.0)
        assert gq.symplectic_eigenvalues(state.covariance)[0] == pytest.approx(1.0)
        return
    assert len(report) == 1 and "cannot resolve" in report[0]
    for entry in (gq.williamson, gq.symplectic_eigenvalues):
        with pytest.raises(NumericalInstabilityError, match="cannot resolve"):
            entry(state.covariance)


@pytest.mark.parametrize("sigma", [-np.eye(2), -np.eye(4), np.zeros((2, 2))])
def test_non_positive_covariance_is_one_report_line(sigma):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = gq.validate_moments(np.zeros(sigma.shape[0]), sigma)
    assert len(report) == 1 and "positive-definite" in report[0]


def test_symplectic_eigenvalues_refuse_negated_vacuum():
    # K sigma of -I has the positive eigenvalue 1 too; the spectrum is
    # defined only for a positive-definite sigma
    with pytest.raises(InvalidInputError, match="positive-definite"):
        gq.symplectic_eigenvalues(-np.eye(2))


@given(st.integers(min_value=1, max_value=3),
       st.sampled_from(["physical", "scaled", "negated", "perturbed"]),
       st.floats(min_value=0.3, max_value=1.2), st.floats(min_value=-12.0, max_value=-6.0),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=200, deadline=None)
def test_validate_moments_agrees_with_from_state(n, kind, scale, log_size, seed):
    # the public check passes exactly the raw moments that probe
    # construction accepts
    rng = np.random.default_rng(seed)
    sigma, _ = random_covariance(rng, n)
    if kind == "scaled":
        sigma = scale * sigma
    elif kind == "negated":
        sigma = -sigma
    elif kind == "perturbed":
        e = _random_block(rng, 2 * n) * 10.0 ** log_size
        sigma = sigma + e + e.conj().T
    d = np.zeros(2 * n)
    try:
        gq.ProbeState.from_state(gq.GaussianState.from_moments(d, sigma))
        accepted = True
    except GaussQfiError:
        accepted = False
    assert (gq.validate_moments(d, sigma) == []) == accepted


def test_json_round_trip(rng):
    for n in (1, 2):
        state = random_state(rng, n)
        back = gq.state_from_json(gq.state_to_json(state))
        assert np.allclose(back.displacement, state.displacement, atol=1e-15)
        assert np.allclose(back.covariance, state.covariance, atol=1e-15)


def test_json_schema_fields():
    data = gq.state_to_dict(gq.GaussianState.vacuum(2))
    assert set(data) == {"modes", "d_tilde", "sigma_X", "sigma_Y"}
    assert data["modes"] == 2
    assert len(data["sigma_X"]) == 4
    text = json.dumps(data)
    assert gq.validate_state(gq.state_from_json(text)) == []


def test_state_from_dict_rejects_bad_pairs():
    with pytest.raises(StructureError):
        gq.state_from_dict({"modes": 1, "d_tilde": [[0, 0]], "sigma_X": [[1, 0], [0, 0]]})


def _random_block(rng, n):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def _np_block(a, b):
    return np.block([[a, b], [b.conj(), a.conj()]])


@given(st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_complex_form_views_match_np_block(n, seed):
    # the preallocated assembler writes exactly what np.block stacks
    rng = np.random.default_rng(seed)
    s = random_symplectic(rng, n)
    x, y = _random_block(rng, n), _random_block(rng, n)
    w = gq.GeneratorW(x + x.conj().T, y + y.T)
    state = random_state(rng, n)
    p = PMatrix(_random_block(rng, n), _random_block(rng, n))
    for view, a, b in ((s.matrix, s.alpha, s.beta), (w.matrix, w.x_block, w.y_block),
                       (state.covariance, state.cov_x, state.cov_y),
                       (p.matrix, p.r_block, p.q_block)):
        assert view.dtype == complex
        assert np.array_equal(view, _np_block(a, b))


def _np_block_residual(sigma, n):
    # reference: the block-conjugation residual as np.block assembles it
    block = np.block([[sigma[n:, n:].conj(), sigma[n:, :n].conj()],
                      [sigma[:n, n:].conj(), sigma[:n, :n].conj()]])
    return np.max(np.abs(sigma - block))


def test_block_conjugation_residual_text_is_pinned():
    sigma = np.eye(4, dtype=complex)
    sigma[0, 0] = 1.5
    sigma[1, 3], sigma[3, 1] = 0.25 + 0.125j, 0.25 - 0.125j
    assert gq.validate_moments(np.zeros(4), sigma) == [
        "covariance lacks (X, Y) block-conjugation structure (residual 5.00e-01)",
        "physicality violated: smallest symplectic eigenvalue 0.960143218484 < 1"]


@given(st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_block_conjugation_residual_text_unchanged(n, seed):
    rng = np.random.default_rng(seed)
    sigma = random_state(rng, n).covariance
    # a Hermitian perturbation that breaks the (X, Y) block pattern
    e = _random_block(rng, 2 * n) * 10.0 ** rng.uniform(-12, 0)
    sigma = sigma + e + e.conj().T
    res = _np_block_residual(sigma, n)
    assert np.max(np.abs(sigma - _complex_form(sigma[:n, :n], sigma[:n, n:]))) == res
    text = f"covariance lacks (X, Y) block-conjugation structure (residual {res:.2e})"
    report = gq.validate_moments(np.zeros(2 * n), sigma)
    lines = [line for line in report if "block-conjugation" in line]
    tol = STRUCTURE_ATOL * max(1.0, np.max(np.abs(sigma)))
    assert lines == ([text] if res > tol else [])
