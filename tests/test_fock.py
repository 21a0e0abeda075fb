import numpy as np
import pytest
import scipy.linalg
from scipy.special import factorial

import gaussqfi as gq
from gaussqfi.errors import CutoffTooSmallError, InvalidInputError
from gaussqfi.fock import NEGATIVITY_TOL, SUPPORT_TOL, _beamsplit_op, _check_positive, \
    build_fock_state, channel_generator_fock, choose_cutoff, fock_qfi, ladder, state_qfi


def test_ladder_matrix():
    a = ladder(4)
    assert a[0, 1] == 1.0 and abs(a[1, 2] - np.sqrt(2)) < 1e-15
    assert np.allclose(a.conj().T @ a, np.diag([0, 1, 2, 3]))


def test_vacuum_density():
    rho = build_fock_state(gq.OneModeProbeParams(), 8)
    expected = np.zeros((8, 8))
    expected[0, 0] = 1.0
    assert np.allclose(rho.matrix, expected, atol=1e-15)


def test_coherent_poisson_weights():
    rho = build_fock_state(gq.OneModeProbeParams(d_mag=1.0), 30)
    ks = np.arange(30)
    poisson = np.exp(-1.0) / factorial(ks)
    assert np.max(np.abs(np.diag(rho.matrix).real - poisson)) < 1e-10


def test_thermal_geometric_weights():
    rho = build_fock_state(gq.OneModeProbeParams(lambda1=2.0), 40)
    n_th = 0.5
    ks = np.arange(40)
    geometric = n_th ** ks / (1 + n_th) ** (ks + 1)
    assert np.max(np.abs(np.diag(rho.matrix).real - geometric)) < 1e-10


def test_cutoff_too_small_raises():
    with pytest.raises(CutoffTooSmallError):
        build_fock_state(gq.OneModeProbeParams(d_mag=2.0), 8)


def test_cutoff_minimum_enforced():
    with pytest.raises(InvalidInputError):
        build_fock_state(gq.OneModeProbeParams(), 4)


def test_choose_cutoff_grows_with_state():
    small = choose_cutoff(gq.OneModeProbeParams(d_mag=0.3))
    large = choose_cutoff(gq.OneModeProbeParams(d_mag=1.5))
    assert large > small


def test_fock_qfi_coherent_phase():
    h = fock_qfi(gq.OneModeProbeParams(d_mag=1.0), gq.phase_channel(), cutoff=30)
    assert abs(h - 4.0) < 1e-3


def test_fock_qfi_squeezed_vacuum_phase():
    h = fock_qfi(gq.OneModeProbeParams(r=0.5), gq.phase_channel(), cutoff=40)
    assert abs(h - 2 * np.sinh(1.0) ** 2) < 1e-3


def test_fock_qfi_universal_probe_mix():
    p = gq.TwoModeProbeParams(r1=0.3, r2=0.3, theta=np.pi / 4, psi=np.pi / 4,
                              phi_d2=-np.pi / 2)
    h = fock_qfi(p, gq.mix_channel(), cutoff=20)
    assert abs(h - 4 * np.sinh(0.6) ** 2) < 1e-3 * max(1.0, 4 * np.sinh(0.6) ** 2)


def test_fock_qfi_mode_mismatch():
    with pytest.raises(InvalidInputError):
        fock_qfi(gq.OneModeProbeParams(), gq.mix_channel())
    with pytest.raises(InvalidInputError):
        choose_cutoff(gq.OneModeProbeParams(), gq.mix_channel())


def test_exact_derivative_matches_central_difference():
    # the oracle differentiates the channel exactly, drho = G rho - rho G;
    # a central difference through expm(+-h G) must agree to O(h^2)
    h = 1e-4
    cases = [
        (gq.OneModeProbeParams(lambda1=1.4, r=0.4, theta=0.2, d_mag=0.6, phi_d=0.5),
         gq.combined_channel(1.0, 0.5, 0.3), 32),
        (gq.OneModeProbeParams(lambda1=2.0, d_mag=1.0), gq.phase_channel(), 32),
        (gq.TwoModeProbeParams(lambda1=1.2, r1=0.3, r2=0.2, phi1=0.3, d2_mag=0.4),
         gq.mix_channel(0.5), 20),
    ]
    for p, ch, cutoff in cases:
        rho = build_fock_state(p, cutoff).matrix
        gen = channel_generator_fock(ch, cutoff)
        u = scipy.linalg.expm(h * gen)
        central = (u @ rho @ u.conj().T - u.conj().T @ rho @ u) / (2.0 * h)
        exact = gen @ rho - rho @ gen
        assert np.linalg.norm(exact - central) <= 1e-6 * np.linalg.norm(exact)

        probs, vecs = np.linalg.eigh(rho)
        mixed = vecs.conj().T @ central @ vecs
        denom = probs[:, None] + probs[None, :]
        mask = denom > SUPPORT_TOL
        h_central = 2.0 * np.sum(np.abs(mixed[mask]) ** 2 / denom[mask])
        h_exact = fock_qfi(p, ch, cutoff=cutoff)
        assert abs(h_exact - h_central) <= 1e-6 * h_exact


PANEL_CUTOFFS = [16, 32, 64, 32, 32, 16, 32, 32, 20, 20, 20, 40]


def _full_spectrum_qfi(rho, gen):
    """The SLD sum over every eigenpair of rho with ``p_j + p_k >
    SUPPORT_TOL``.  Each such pair has an index with ``p > SUPPORT_TOL /
    2``, so only those rows of ``V^dag G V`` are formed.  The MRRR driver
    computes the full 1600 x 1600 spectrum three times faster than divide
    and conquer."""
    probs, vecs = scipy.linalg.eigh(rho, driver="evr")
    rows = probs > SUPPORT_TOL / 2
    g = vecs[:, rows].conj().T @ gen @ vecs
    denom = probs[rows, None] + probs[None, :]
    weight = np.where(denom > SUPPORT_TOL,
                      (probs[None, :] - probs[rows, None]) ** 2 / np.maximum(denom, SUPPORT_TOL),
                      0.0)
    terms = np.abs(g) ** 2 * weight
    # ordered pairs (j, k) with j in rows, plus their mirrors (k, j) with k
    # outside rows; |g_kj| = |g_jk| as G is anti-Hermitian
    return 2.0 * (np.sum(terms) + np.sum(terms[:, ~rows]))


def test_state_qfi_matches_full_spectrum():
    # state_qfi computes only the support's eigenvectors and closes the
    # sum by completeness; the full spectrum must give the same value
    from gaussqfi.validate import fock_panel_cases

    for (name, p, ch), cutoff in zip(fock_panel_cases(), PANEL_CUTOFFS):
        rho = build_fock_state(p, cutoff)
        reference = _full_spectrum_qfi(rho.matrix, channel_generator_fock(ch, cutoff))
        assert abs(state_qfi(rho, ch) - reference) <= 1e-9 * reference, name


def _hermitian_with_spectrum(rng, eigs):
    z = rng.normal(size=(len(eigs),) * 2) + 1j * rng.normal(size=(len(eigs),) * 2)
    q, _ = np.linalg.qr(z)
    mat = (q * np.asarray(eigs)[None, :]) @ q.conj().T
    return (mat + mat.conj().T) / 2.0


def test_positivity_test_threshold(rng):
    eigs = [0.4, 0.3, 0.2, 0.1, 1e-3, 0.0]
    bad = _hermitian_with_spectrum(rng, eigs + [-2.0 * NEGATIVITY_TOL])
    with pytest.raises(CutoffTooSmallError, match="-2.00e-10"):
        _check_positive(bad, 12)
    _check_positive(_hermitian_with_spectrum(rng, eigs + [-0.5 * NEGATIVITY_TOL]), 12)


@pytest.mark.parametrize("cutoff", [10, 20])
def test_beamsplit_blocks_match_full_exponential(cutoff):
    theta, chi = 0.7, 0.4
    a1dag_a2 = np.kron(ladder(cutoff).conj().T, ladder(cutoff))
    gen = theta * (np.exp(1j * chi) * a1dag_a2 - np.exp(-1j * chi) * a1dag_a2.conj().T)
    op = _beamsplit_op(theta, chi, cutoff)
    assert np.max(np.abs(op - scipy.linalg.expm(gen))) < 1e-12
    assert np.max(np.abs(op @ op.conj().T - np.eye(cutoff ** 2))) < 1e-12


def test_fock_panel_cutoffs():
    # the leak rule on the built state alone picks these cutoffs
    from gaussqfi.validate import fock_panel_cases

    cutoffs = [choose_cutoff(p, ch) for _, p, ch in fock_panel_cases()]
    assert cutoffs == [16, 32, 64, 32, 32, 16, 32, 32, 20, 20, 20, 40]


def test_cutoff_monotone_improvement():
    # doubling the cutoff never worsens the agreement (one-mode panel
    # cases; the two-mode ladder tops out at its 40-per-mode cap)
    from gaussqfi.validate import fock_panel_cases

    for name, p, ch in fock_panel_cases():
        if not isinstance(p, gq.OneModeProbeParams):
            continue
        cutoff = choose_cutoff(p, ch)
        if 2 * cutoff > 128:
            continue
        engine = gq.qfi_unitary(p.to_probe_state(), ch).total
        dev_lo = abs(fock_qfi(p, ch, cutoff=cutoff) - engine)
        dev_hi = abs(fock_qfi(p, ch, cutoff=2 * cutoff) - engine)
        assert dev_hi <= dev_lo + 1e-6, name
