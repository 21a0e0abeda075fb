import re
from functools import partial, reduce

import numpy as np
import pytest
import scipy.linalg
from scipy.special import factorial

import gaussqfi as gq
from gaussqfi import fock
from gaussqfi.channels import CATALOG
from gaussqfi.errors import CutoffTooSmallError, InvalidInputError
from gaussqfi.fock import SUPPORT_TOL, _apply_local, _beamsplit, _displace, _shift, _squeeze, \
    _thermal_diag, apply_generator, build_fock_state, choose_cutoff, fock_qfi, ladder_state, \
    state_qfi
from gaussqfi.validate import FOCK_TOL, fock_panel, fock_panel_cases


def _dense(rho):
    """The density matrix ``B B^dag`` of a built state."""
    return rho.factor @ rho.factor.conj().T


def ladder(cutoff):
    """Annihilation operator on a cutoff-level Fock space, as a dense matrix."""
    return np.diag(np.sqrt(np.arange(1.0, cutoff)), 1).astype(complex)


def _dense_generator(channel, cutoff):
    """The dense truncated generator

    ``G = (i/2) sum_kl [X_kl a_k^dag a_l + X_kl^* a_k a_l^dag
    + Y_kl a_k^dag a_l^dag + Y_kl^* a_k a_l] + sum_k (g_k a_k^dag - g_k^* a_k)``

    from the generator's ``x_block``, ``y_block`` and ``gamma_tilde`` (g),
    each term a Kronecker product of per-mode products of the dense
    ladder matrix, so it is built apart from ``apply_generator``."""
    w, n = channel.generator, channel.modes
    a = ladder(cutoff)
    adag = a.conj().T

    def term(coef, *factors):
        """``coef`` times the (mode, matrix) factors, leftmost applied last."""
        per_mode = [np.eye(cutoff)] * n
        for mode, op in factors:
            per_mode[mode] = per_mode[mode] @ op
        return coef * reduce(np.kron, per_mode)

    gen = np.zeros((cutoff ** n,) * 2, dtype=complex)
    for k in range(n):
        gen += term(w.gamma_tilde[k], (k, adag)) - term(np.conj(w.gamma_tilde[k]), (k, a))
        for l in range(n):
            x, y = w.x_block[k, l], w.y_block[k, l]
            gen += term(0.5j * x, (k, adag), (l, a)) + term(0.5j * np.conj(x), (k, a), (l, adag))
            gen += term(0.5j * y, (k, adag), (l, adag)) + term(0.5j * np.conj(y), (k, a), (l, a))
    return gen


@pytest.mark.parametrize("modes, mode", [(1, 0), (2, 0), (2, 1)])
@pytest.mark.parametrize("cutoff", [5, 8])
def test_shift_matches_dense_ladder(modes, mode, cutoff):
    # the shift acts on axis -2 of a stacked (c^k, c, m) block, which
    # _apply_local forms for mode k of the row index (a zero argument is
    # the identity on its mode)
    vecs = np.random.default_rng(cutoff).normal(size=(cutoff ** modes, 3)) + 0j
    a = ladder(cutoff)
    args = [1 if m == mode else 0 for m in range(modes)]
    for raising, op in ((False, a), (True, a.conj().T)):
        dense = reduce(np.kron, [op if m == mode else np.eye(cutoff) for m in range(modes)])
        local = _apply_local(lambda _, block: _shift(raising, block), args, cutoff, vecs)
        assert np.max(np.abs(local - dense @ vecs)) < 1e-14
        block = vecs.reshape(cutoff ** mode, cutoff, -1)
        assert np.array_equal(_shift(raising, block).reshape(vecs.shape), local)


def _custom(seed, modes):
    """A random custom channel with a drive."""
    rng = np.random.default_rng(seed)

    def draw(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    x, y = draw(modes, modes), draw(modes, modes)
    return gq.custom_channel(gq.GeneratorW(x + x.conj().T, y + y.T, draw(modes)))


_PARAM_VALUES = {"chi": 0.4, "omega_p": 0.7, "omega_s": -0.5}
_CATALOG_CHANNELS = {kind: make(*(_PARAM_VALUES[name] for name in names))
                     for kind, (make, names) in CATALOG.items()}
_GENERATOR_CASES = [
    pytest.param(ch, cutoff, id=f"{kind}-{cutoff}") for kind, ch in _CATALOG_CHANNELS.items()
    for cutoff in ((8, 9) if ch.modes == 1 else (6,))
] + [pytest.param(_custom(seed, modes), cutoff, id=f"custom{modes}-{seed}-{cutoff}")
     for seed, modes, cutoff in ((1, 1, 8), (1, 1, 9), (2, 1, 8), (2, 1, 9), (3, 2, 6), (4, 2, 6),
                                 (5, 3, 4))]


@pytest.mark.parametrize("channel, cutoff", _GENERATOR_CASES)
def test_apply_generator_matches_dense_reference(channel, cutoff):
    gen = apply_generator(channel, cutoff, np.eye(cutoff ** channel.modes))
    assert np.max(np.abs(gen - _dense_generator(channel, cutoff))) < 1e-12
    # every truncated term pairs with its adjoint, so G stays anti-Hermitian
    assert np.max(np.abs(gen + gen.conj().T)) < 1e-12


def test_vacuum_density():
    rho = build_fock_state(gq.OneModeProbeParams(), 8)
    expected = np.zeros((8, 8))
    expected[0, 0] = 1.0
    assert np.allclose(_dense(rho), expected, atol=1e-15)


def test_coherent_poisson_weights():
    rho = build_fock_state(gq.OneModeProbeParams(d_mag=1.0), 30)
    ks = np.arange(30)
    poisson = np.exp(-1.0) / factorial(ks)
    assert np.max(np.abs(np.diag(_dense(rho)).real - poisson)) < 1e-10


def test_thermal_geometric_weights():
    rho = build_fock_state(gq.OneModeProbeParams(lambda1=2.0), 40)
    n_th = 0.5
    ks = np.arange(40)
    geometric = n_th ** ks / (1 + n_th) ** (ks + 1)
    assert np.max(np.abs(np.diag(_dense(rho)).real - geometric)) < 1e-10


def test_thermal_weights_finite_at_large_cutoff():
    # n_th ** k and (1 + n_th) ** (k + 1) both overflow here, and their
    # quotient inf / inf would be a NaN weight
    with np.errstate(all="raise"):
        p = _thermal_diag(10.0, 512)
    assert np.isfinite(p).all()
    assert abs(p.sum() - 1.0) < 1e-12


def test_cutoff_too_small_raises():
    with pytest.raises(CutoffTooSmallError):
        build_fock_state(gq.OneModeProbeParams(d_mag=2.0), 8)


def test_cutoff_minimum_enforced():
    with pytest.raises(InvalidInputError):
        build_fock_state(gq.OneModeProbeParams(), 4)


@pytest.mark.parametrize("params", [gq.OneModeProbeParams(lambda1=1.4),
                                    gq.TwoModeProbeParams(lambda1=1.4, lambda2=1.2)])
def test_identity_factors_skipped(params, monkeypatch):
    # r = 0, gamma = 0 and every angle 0 are identities and are not
    # applied: the factor keeps its thermal start exactly
    def refuse(*_):
        raise AssertionError("an identity factor was applied")

    monkeypatch.setattr(fock, "_expm_tridiag", refuse)
    monkeypatch.setattr(fock, "_rotation_phases", refuse)
    lams = [params.lambda1] if isinstance(params, gq.OneModeProbeParams) \
        else [params.lambda1, params.lambda2]
    weights = reduce(np.kron, [_thermal_diag(lam, 16) for lam in lams])
    kept = np.flatnonzero(weights > SUPPORT_TOL / 2)
    start = np.zeros((weights.size, kept.size), dtype=complex)
    start[kept, np.arange(kept.size)] = np.sqrt(weights[kept])
    assert np.array_equal(build_fock_state(params, 16).factor, start)


@pytest.mark.parametrize("params", [gq.OneModeProbeParams(lambda1=30.0, theta=0.4),
                                    gq.TwoModeProbeParams(lambda1=30.0, psi=0.3, phi2=1.0)])
def test_thermal_start_leak_checked(params):
    # with no step that moves population, the thermal start alone is
    # held to the leak rule
    with pytest.raises(CutoffTooSmallError, match="after thermal truncation"):
        build_fock_state(params, 16)


@pytest.mark.parametrize("cutoff", [16, np.int64(16), 16.0])
def test_integral_cutoff_accepted(cutoff):
    p = gq.OneModeProbeParams(d_mag=0.3)
    rho = build_fock_state(p, cutoff)
    assert rho.cutoff == 16 and type(rho.cutoff) is int
    assert fock_qfi(p, gq.phase_channel(), cutoff=cutoff) == \
        fock_qfi(p, gq.phase_channel(), cutoff=16)


@pytest.mark.parametrize("cutoff", [16.5, "16", True])
def test_non_integral_cutoff_refused(cutoff):
    p = gq.OneModeProbeParams(d_mag=0.3)
    for build in (partial(build_fock_state, p),
                  partial(fock_qfi, p, gq.phase_channel())):
        with pytest.raises(InvalidInputError, match=re.escape(repr(cutoff))):
            build(cutoff)


@pytest.mark.parametrize("cutoff", [8, 9, 64])
@pytest.mark.parametrize("r", [0.7, -0.9])
def test_squeeze_matches_dense_exponential(cutoff, r):
    # the squeezer is applied as two tridiagonal parity blocks
    a = ladder(cutoff)
    adag = a.conj().T
    op = _squeeze(r, np.eye(cutoff))
    assert np.max(np.abs(op - scipy.linalg.expm(-(r / 2) * (adag @ adag - a @ a)))) < 1e-12
    assert np.max(np.abs(op @ op.conj().T - np.eye(cutoff))) < 1e-12


@pytest.mark.parametrize("cutoff", [8, 9, 64])
def test_displacement_matches_dense_exponential(cutoff):
    # two magnitudes share one cached eigenbasis at a cutoff; a gamma on
    # the negative real axis has phase pi
    a = ladder(cutoff)
    for gamma in (0.8 * np.exp(0.6j), 1.7 * np.exp(0.6j), -1.3 + 0j):
        op = _displace(gamma, np.eye(cutoff))
        dense = scipy.linalg.expm(gamma * a.conj().T - np.conj(gamma) * a)
        assert np.max(np.abs(op - dense)) < 1e-12, gamma
        assert np.max(np.abs(op @ op.conj().T - np.eye(cutoff))) < 1e-12, gamma


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
        rho = _dense(build_fock_state(p, cutoff))
        gen = _dense_generator(ch, cutoff)
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
    # state_qfi reads the support's eigenvectors off the factor's columns
    # and closes the sum by completeness; the full spectrum of B B^dag
    # must give the same value
    for (name, p, ch), cutoff in zip(fock_panel_cases(), PANEL_CUTOFFS):
        rho = build_fock_state(p, cutoff)
        reference = _full_spectrum_qfi(_dense(rho), _dense_generator(ch, cutoff))
        assert abs(state_qfi(rho, ch) - reference) <= 1e-9 * reference, name


def _kept_thermal_weights(p, cutoff):
    """The thermal diagonal's weights above ``SUPPORT_TOL / 2``, in Fock
    order: the factor's columns start as their square roots."""
    lams = [p.lambda1] if isinstance(p, gq.OneModeProbeParams) else [p.lambda1, p.lambda2]
    weights = np.ones(1)
    ks = np.arange(cutoff)
    for lam in lams:
        n_th = (lam - 1.0) / 2.0
        weights = np.kron(weights, n_th ** ks / (1.0 + n_th) ** (ks + 1))
    return weights[weights > SUPPORT_TOL / 2]


def test_factor_columns_keep_thermal_weights():
    # every build step is a truncated unitary acting on B from the left,
    # so B^dag B stays the diagonal of kept weights; state_qfi reads the
    # support spectrum off the columns on that ground
    for (name, p, _), cutoff in zip(fock_panel_cases(), PANEL_CUTOFFS):
        b = build_fock_state(p, cutoff).factor
        gram = b.conj().T @ b
        assert np.max(np.abs(gram - np.diag(_kept_thermal_weights(p, cutoff)))) < 1e-12, name


@pytest.mark.parametrize("cutoff", [10, 20])
def test_beamsplit_blocks_match_full_exponential(cutoff):
    # a negative theta scales each block's cached eigenvalues by a
    # negative number, which reverses their order
    chi = 0.4
    a1dag_a2 = np.kron(ladder(cutoff).conj().T, ladder(cutoff))
    for theta in (0.7, -0.7):
        gen = theta * (np.exp(1j * chi) * a1dag_a2 - np.exp(-1j * chi) * a1dag_a2.conj().T)
        op = _beamsplit(theta, chi, cutoff, np.eye(cutoff ** 2))
        assert np.max(np.abs(op - scipy.linalg.expm(gen))) < 1e-12, theta
        assert np.max(np.abs(op @ op.conj().T - np.eye(cutoff ** 2))) < 1e-12, theta


def _eigenbasis_keys(cutoff, modes):
    """Every block shape a build at this cutoff decomposes (the beam
    splitter's totals only for two modes)."""
    keys = [("squeeze", cutoff, 0), ("squeeze", cutoff, 1), ("displace", cutoff, 0)]
    if modes == 2:
        keys += [("beamsplit", cutoff, total) for total in range(1, 2 * cutoff - 2)]
    return keys


_REUSE_CASES = [
    pytest.param(gq.OneModeProbeParams(r=0.4, d_mag=0.5),
                 gq.OneModeProbeParams(lambda1=1.3, r=-0.6, theta=0.2, d_mag=0.9, phi_d=1.0),
                 64, id="one-mode"),
    pytest.param(gq.TwoModeProbeParams(r1=0.3, r2=0.2, theta=np.pi / 4, d1_mag=0.4),
                 gq.TwoModeProbeParams(lambda1=1.2, r1=-0.2, r2=0.1, theta=-0.5, psi=0.3,
                                       phi1=0.2, d2_mag=0.3, phi_d2=0.4),
                 20, id="two-mode-beamsplit"),
]


@pytest.mark.parametrize("first, second, cutoff", _REUSE_CASES)
def test_builds_reuse_cached_eigenbases(first, second, cutoff, monkeypatch):
    # each unit eigenbasis is decomposed once per shape: a second probe at
    # the same cutoff, with other squeezing, displacement and beam-splitter
    # scalars (some negative), calls no dstevd
    fock._unit_eigenbasis.cache_clear()
    calls = []
    real = fock.dstevd
    monkeypatch.setattr(fock, "dstevd", lambda *args: calls.append(1) or real(*args))
    build_fock_state(first, cutoff)
    keys = _eigenbasis_keys(cutoff, len(first.ENERGY))
    assert len(calls) == len(keys) == fock._unit_eigenbasis.cache_info().currsize

    def refuse(*_):
        raise AssertionError("dstevd called for a cached block shape")

    monkeypatch.setattr(fock, "dstevd", refuse)
    build_fock_state(second, cutoff)
    assert fock._unit_eigenbasis.cache_info().currsize == len(keys)
    # every cached array is read-only: a caller cannot corrupt a later build
    for key in keys:
        for arr in fock._unit_eigenbasis(*key):
            assert not arr.flags.writeable, key
            with pytest.raises(ValueError):
                arr[0] = 0.0


def _former_expm_tridiag(basis, scale, alpha, mat):
    """``_expm_tridiag`` with its phase column formed afresh from
    ``np.arange`` on every call, as before the column was cached."""
    w, v = basis[:2]
    d = np.exp(1j * (alpha - np.pi / 2) * np.arange(w.size))[:, None]
    inner = (v.T @ (d.conj() * mat).view(float)).view(complex)
    return d * (v @ (np.exp(1j * scale * w)[:, None] * inner).view(float)).view(complex)


@pytest.mark.parametrize("cutoff", [16, 512])
@pytest.mark.parametrize("kind, index", [("displace", 0), ("squeeze", 1)])
def test_cached_phase_column_gives_same_bits(cutoff, kind, index):
    # the alpha = 0 column is kept with the eigenbasis and a nonzero alpha
    # forms its column from the kept level index; neither moves a bit
    basis = fock._unit_eigenbasis(kind, cutoff, index)
    rng = np.random.default_rng(cutoff)
    mat = rng.normal(size=(basis[0].size, 3)) + 1j * rng.normal(size=(basis[0].size, 3))
    for scale, alpha in ((0.7, 0.0), (-0.45, 0.0), (0.7, 0.6), (1.3, -2.5)):
        assert np.array_equal(fock._expm_tridiag(basis, scale, alpha, mat),
                              _former_expm_tridiag(basis, scale, alpha, mat)), (scale, alpha)


def _former_leak(probs, cutoff, modes):
    """The leak as the larger of ``1 - sum`` and the former edge mass, each
    with its own sum."""
    interior = probs.reshape((cutoff,) * modes)[(slice(cutoff - 2),) * modes]
    return max(1.0 - float(np.sum(probs)), float(np.sum(probs) - np.sum(interior)))


@pytest.mark.parametrize("modes, cutoff", [(1, 16), (1, 64), (2, 10), (2, 20)])
def test_leak_matches_former_pair(modes, cutoff):
    # one sum serves both terms; on geometric populations that leave mass
    # at the edge, and on ones that lose trace, the leak keeps its bits
    rng = np.random.default_rng(modes * 100 + cutoff)
    levels = np.arange(cutoff)
    for _ in range(50):
        per_mode = [rng.uniform(0.05, 0.9) ** levels for _ in range(modes)]
        probs = reduce(np.multiply.outer, per_mode).ravel() * rng.uniform(0.9, 1.0, cutoff ** modes)
        probs *= rng.uniform(1.0 - 1e-6, 1.0) / probs.sum()
        assert fock._leak(probs, cutoff, modes) == _former_leak(probs, cutoff, modes)


def test_ladder_roots_read_only():
    # the shift reads sqrt(n + 1) from a column kept once per cutoff
    vecs = np.ones((12, 2), dtype=complex)
    _shift(True, vecs)
    root = fock._ladder_roots(12)
    assert np.array_equal(root, np.sqrt(np.arange(1.0, 12))[:, None])
    assert not root.flags.writeable
    with pytest.raises(ValueError):
        root[0] = 0.0


# Bytes kept by the eigenbasis cache after one ladder pass over the Fock
# panel: 56 bases of 704 levels in all; eigenpairs, level index and phase
# column take 122,144 B (105,248 B when only the eigenpairs were kept).
PANEL_CACHE_BYTES = 122_144


def test_panel_cache_footprint(monkeypatch):
    fock._unit_eigenbasis.cache_clear()
    real = fock._unit_eigenbasis
    keys = set()
    monkeypatch.setattr(fock, "_unit_eigenbasis", lambda *key: keys.add(key) or real(*key))
    for _, p, _ in fock_panel_cases():
        ladder_state(p)
    assert len(keys) == real.cache_info().currsize
    assert sum(arr.nbytes for key in keys for arr in real(*key)) <= PANEL_CACHE_BYTES


@pytest.mark.parametrize("params, cutoff", [
    (gq.OneModeProbeParams(lambda1=1.5, r=-0.5, theta=0.3, d_mag=0.7, phi_d=2.0), 64),
    (gq.TwoModeProbeParams(lambda1=1.2, r1=0.3, r2=-0.2, theta=-np.pi / 5, psi=0.2,
                           d1_mag=0.3, phi_d1=-1.0), 20),
])
def test_cold_and_warm_builds_identical(params, cutoff):
    # the eigenbases a build decomposes and the cached ones it reads are
    # the same arrays, so the factor does not depend on the cache's state
    fock._unit_eigenbasis.cache_clear()
    cold = build_fock_state(params, cutoff).factor
    decomposed = fock._unit_eigenbasis.cache_info().misses
    warm = build_fock_state(params, cutoff).factor
    assert fock._unit_eigenbasis.cache_info().misses == decomposed
    assert np.array_equal(cold, warm)


def test_fock_panel_cutoffs():
    # the leak rule on the built state alone picks these cutoffs
    cutoffs = [choose_cutoff(p, ch) for _, p, ch in fock_panel_cases()]
    assert cutoffs == [16, 32, 64, 32, 32, 16, 32, 32, 20, 20, 20, 40]


def test_cutoff_monotone_improvement():
    # doubling the cutoff never worsens the agreement (one-mode panel
    # cases)
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


@pytest.mark.parametrize("lam, cutoff", [(5.0, 256), (10.0, 512)])
def test_thermal_one_mode_probe_reaches_large_cutoff(lam, cutoff):
    # the temperature panel's thermal probes need the top of the one-mode
    # ladder
    p = gq.OneModeProbeParams(lambda1=lam, r=-0.88, d_mag=1.0)
    rho = ladder_state(p)
    assert rho.cutoff == cutoff
    engine = gq.qfi_unitary(p.to_probe_state(), gq.phase_channel()).total
    assert abs(state_qfi(rho, gq.phase_channel()) - engine) < FOCK_TOL * engine


def test_one_mode_ladder_stops_at_512():
    p = gq.OneModeProbeParams(lambda1=30.0, r=-0.88, d_mag=1.0)
    with pytest.raises(CutoffTooSmallError, match="up to 512"):
        ladder_state(p)


def test_fock_panel_runs_without_dense_expm(monkeypatch):
    # every exponential of the oracle is a tridiagonal eigendecomposition;
    # a dense expm creeping back in fails here
    def refuse(*_):
        raise AssertionError("dense expm called by the Fock oracle")

    monkeypatch.setattr(scipy.linalg, "expm", refuse)
    results = fock_panel()
    assert len(results) == len(fock_panel_cases())
    assert all(r.passed for r in results), [r.name for r in results if not r.passed]


@pytest.mark.parametrize("channel", [gq.mix_channel(), gq.twomode_squeeze_channel()])
def test_thermal_two_mode_probe_reaches_cutoff_80(channel):
    # a thermal, squeezed, beam-split two-mode probe leaks past every
    # cutoff up to 40 and passes the leak rule at 80
    p = gq.TwoModeProbeParams(lambda1=3.0, r1=0.3, r2=0.2, theta=np.pi / 4)
    assert choose_cutoff(p, channel) == 80
    engine = gq.qfi_unitary(p.to_probe_state(), channel).total
    assert abs(fock_qfi(p, channel) - engine) < FOCK_TOL * engine
