import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gaussqfi as gq
from gaussqfi.errors import InvalidInputError, NumericalInstabilityError, StructureError
from gaussqfi import formulas
from gaussqfi.qfi import _mode_factors, qfi_kernel
from gaussqfi.symplectic import GeneratorW, SymplecticMatrix, WilliamsonForm
from gaussqfi.validate import _oracle_families
from conftest import layout_blocks, random_state, random_symplectic, random_unitary


def random_probe(rng, n, pure=False):
    s = random_symplectic(rng, n)
    lams = np.ones(n) if pure else rng.uniform(1.0, 3.0, n)
    d = rng.normal(size=n) + 1j * rng.normal(size=n)
    return gq.ProbeState(WilliamsonForm(s, lams), d)


def random_channel(rng, n):
    if n == 1:
        return gq.combined_channel(rng.uniform(-2, 2), rng.uniform(-2, 2),
                                   rng.uniform(-np.pi, np.pi))
    return [gq.mix_channel(rng.uniform(-np.pi, np.pi)),
            gq.twomode_squeeze_channel(rng.uniform(-np.pi, np.pi))][int(rng.integers(0, 2))]


# --- p_matrix -------------------------------------------------------------

def test_p_matrix_identity_probe_phase():
    probe = gq.ProbeState(WilliamsonForm(SymplecticMatrix.identity(1), np.ones(1)))
    pm = gq.p_matrix(probe, gq.phase_channel())
    assert np.allclose(pm.r_block, [[-1j]], atol=1e-15)
    assert np.allclose(pm.q_block, 0.0, atol=1e-15)


def test_p_matrix_identity_probe_squeeze():
    probe = gq.ProbeState(WilliamsonForm(SymplecticMatrix.identity(1), np.ones(1)))
    pm = gq.p_matrix(probe, gq.squeeze_channel(0.0))
    assert np.allclose(pm.r_block, 0.0, atol=1e-15)
    assert abs(abs(pm.q_block[0, 0]) - 1.0) < 1e-15


def test_p_matrix_lie_algebra_residual(rng):
    for _ in range(30):
        n = int(rng.integers(1, 3))
        probe = random_probe(rng, n)
        pm = gq.p_matrix(probe, random_channel(rng, n))
        assert pm.algebra_residual() < 1e-10


def test_p_matrix_mode_mismatch():
    probe = gq.ProbeState(WilliamsonForm(SymplecticMatrix.identity(1), np.ones(1)))
    with pytest.raises(InvalidInputError):
        gq.p_matrix(probe, gq.mix_channel())


# --- qfi_unitary ----------------------------------------------------------

@pytest.mark.parametrize("lam", [1.0, 1.5, 2.0, 3.0, 5.0, 10.0])
def test_fig2_values(lam):
    # one-mode phase estimation: a squeezed probe's QFI rises with the
    # thermal eigenvalue (15.907 -> 31.499 over this grid), while a
    # displaced probe's falls as 4 / lambda
    phase = gq.phase_channel()
    squeezed = gq.qfi_unitary(gq.OneModeProbeParams(lambda1=lam, r=-0.88).to_probe_state(),
                              phase).total
    displaced = gq.qfi_unitary(gq.OneModeProbeParams(lambda1=lam, d_mag=1.0).to_probe_state(),
                               phase).total
    assert abs(squeezed - 4 * lam**2 / (1 + lam**2) * np.sinh(1.76) ** 2) < 1e-12
    assert abs(displaced - 4.0 / lam) < 1e-12


def test_breakdown_structure(rng):
    for _ in range(20):
        n = int(rng.integers(1, 3))
        b = gq.qfi_unitary(random_probe(rng, n), random_channel(rng, n))
        assert b.eigen_term == 0.0
        assert b.total == b.r_term + b.q_term + b.eigen_term + b.disp_term
        assert b.total >= 0.0
        assert min(b.r_term, b.q_term, b.disp_term) >= 0.0


def test_epsilon_independence(rng):
    # pre-evolving the probe through the channel leaves the QFI unchanged
    for _ in range(25):
        n = int(rng.integers(1, 3))
        probe = random_probe(rng, n)
        channel = random_channel(rng, n)
        h0 = gq.qfi_unitary(probe, channel).total
        eps0 = rng.uniform(-1.2, 1.2)
        s_eps = gq.channel_symplectic(channel, eps0)
        evolved = gq.ProbeState(
            WilliamsonForm(s_eps @ probe.williamson.s, probe.williamson.eigenvalues),
            (s_eps.matrix @ probe.displacement)[:n])
        h1 = gq.qfi_unitary(evolved, channel).total
        assert abs(h1 - h0) < 1e-9 * max(1.0, abs(h0))


def test_epsilon_independence_with_linear_part(rng):
    # same property for a channel with gamma != 0: the probe displacement
    # picks up the shift b(eps0)
    for _ in range(10):
        x = rng.normal(size=(1, 1)) * 0.5
        y = (rng.normal(size=(1, 1)) + 1j * rng.normal(size=(1, 1))) * 0.5
        g = rng.normal(size=1) + 1j * rng.normal(size=1)
        w = GeneratorW(x + x.conj().T, y + y.T, g)
        channel = gq.custom_channel(w)
        probe = random_probe(rng, 1)
        h0 = gq.qfi_unitary(probe, channel).total
        eps0 = rng.uniform(-1.0, 1.0)
        s_eps = gq.channel_symplectic(channel, eps0)
        d_new = s_eps.matrix @ probe.displacement + gq.channel_shift(channel, eps0)
        evolved = gq.ProbeState(
            WilliamsonForm(s_eps @ probe.williamson.s, probe.williamson.eigenvalues),
            d_new[:1])
        h1 = gq.qfi_unitary(evolved, channel).total
        assert abs(h1 - h0) < 1e-9 * max(1.0, abs(h0))


def test_gauge_independence_at_degeneracy(rng):
    # equal eigenvalues leave a unitary gauge freedom in the Williamson
    # factor that must not move the QFI
    for _ in range(20):
        lam = float(rng.uniform(1.0, 3.0))
        s = random_symplectic(rng, 2)
        d = rng.normal(size=2) + 1j * rng.normal(size=2)
        probe = gq.ProbeState(WilliamsonForm(s, np.array([lam, lam])), d)
        channel = random_channel(rng, 2)
        h0 = gq.qfi_unitary(probe, channel).total
        u = random_unitary(rng, 2)
        gauge = SymplecticMatrix(u, np.zeros((2, 2), dtype=complex))
        probe2 = gq.ProbeState(WilliamsonForm(s @ gauge, np.array([lam, lam])), d)
        h1 = gq.qfi_unitary(probe2, channel).total
        assert abs(h1 - h0) < 1e-9 * max(1.0, abs(h0))


def test_probe_from_state_round_trip(rng):
    from conftest import random_state

    for _ in range(10):
        n = int(rng.integers(1, 3))
        state = random_state(rng, n)
        probe = gq.ProbeState.from_state(state)
        back = probe.to_state()
        assert np.max(np.abs(back.covariance - state.covariance)) < 1e-9
        assert np.max(np.abs(back.displacement - state.displacement)) < 1e-12


@pytest.mark.parametrize("lam,accepted", [(0.5, False), (1.0 - 1e-8, False),
                                          (1.0 - 1e-10, True)])
def test_from_state_eigenvalue_floor(lam, accepted):
    # williamson plus the ProbeState floor are the physicality test of raw
    # moments: a thermal state just below 1 is refused, one within
    # PHYSICALITY_TOL of it is not
    state = gq.GaussianState.thermal([lam])
    if accepted:
        assert gq.ProbeState.from_state(state).williamson.eigenvalues[0] == pytest.approx(lam)
    else:
        with pytest.raises(InvalidInputError, match=">= 1"):
            gq.ProbeState.from_state(state)


def test_from_state_matches_parametric_probe_on_oracle_families(rng):
    # raw moments -> williamson gives the QFI of the parametric route for
    # every oracle family; every other two-mode draw is pure-degenerate
    # (lambda1 = lambda2 = 1), where the Williamson factor has a unitary
    # gauge freedom that williamson does not fix
    for name, family in _oracle_families(rng):
        for k in range(50):
            _, params, channel = family(rng)
            if isinstance(params, gq.TwoModeProbeParams) and k % 2:
                params = dataclasses.replace(params, lambda1=1.0, lambda2=1.0)
            want = gq.qfi_unitary(params.to_probe_state(), channel).total
            probe = gq.ProbeState.from_state(params.to_probe_state().to_state())
            got = gq.qfi_unitary(probe, channel).total
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), (name, params)


def test_probe_rejects_unphysical_eigenvalues():
    with pytest.raises(InvalidInputError,
                       match=r"^probe symplectic eigenvalues must be >= 1, smallest is 0\.5$"):
        gq.ProbeState(WilliamsonForm(SymplecticMatrix.identity(1), np.array([0.5])))


def test_containers_copy_the_callers_arrays():
    # the caller's arrays stay writable, the containers' copies read-only
    lams, d, gamma = np.array([1.5, 2.0]), np.array([0.3, 0.1j]), np.array([0.2j, 0.0j])
    probe = gq.ProbeState(WilliamsonForm(SymplecticMatrix.identity(2), lams), d)
    generator = GeneratorW(np.eye(2), np.zeros((2, 2)), gamma)
    lams[0], d[0], gamma[0] = 2.0, 1.0, 1.0
    kept = (probe.williamson.eigenvalues, probe.d_tilde, generator.gamma_tilde)
    assert [a[0] for a in kept] == [1.5, 0.3, 0.2j]
    for a in kept:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


def _overflowing_probe():
    # every term is finite, but their sum overflows
    return (gq.TwoModeProbeParams(lambda1=2.0, theta=0.4, r1=355.0).to_probe_state(),
            gq.twomode_squeeze_channel())


# each refusal on the probe path (raw moments -> williamson -> ProbeState ->
# qfi_unitary, or parameters -> SymplecticMatrix) keeps its type and its text
@pytest.mark.parametrize("build, error, text", [
    (lambda: gq.williamson(np.array([[2.0, 1.0], [0.0, 2.0]], dtype=complex)),
     InvalidInputError, "covariance must be Hermitian"),
    (lambda: gq.williamson(np.diag([1e12, 1e-12]).astype(complex)),
     NumericalInstabilityError,
     "covariance condition number 1.00e+24 cannot resolve symplectic eigenvalues to 1e-09"),
    (lambda: SymplecticMatrix(2.0 * np.eye(1), np.zeros((1, 1))),
     StructureError, "blocks violate the symplectic condition (residual 3.00e+00)"),
    (lambda: SymplecticMatrix(np.array([[np.inf]]), np.zeros((1, 1))),
     StructureError, "blocks must be finite, with squares that do not overflow"),
    (lambda: gq.ProbeState.from_state(gq.GaussianState([0.0], [[0.5]], [[0.0]])),
     InvalidInputError, "probe symplectic eigenvalues must be >= 1, smallest is 0.5"),
], ids=["hermitian", "conditioning", "symplectic", "finite-blocks",
        "eigenvalue-floor"])
def test_probe_path_refusal_text(build, error, text):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == text


def test_qfi_at_huge_eigenvalues_matches_moderate():
    # (lambda_i + lambda_j)^2 overflows from about 6.7e153 and lambda_i
    # lambda_j from about 1.3e154; the scaled factors form neither
    def h(lam):
        probe = gq.OneModeProbeParams(lambda1=lam, r=-0.88).to_probe_state()
        return gq.qfi_unitary(probe, gq.phase_channel()).total

    want = h(1e10)
    assert abs(want - 31.814027899017443) <= 1e-12 * want
    for lam in (1e154, 1e200, 1e300):
        assert abs(h(lam) - want) <= 1e-12 * want


@given(st.lists(st.floats(min_value=1.0, max_value=1e300), min_size=1, max_size=3))
@settings(max_examples=100, deadline=None)
def test_mode_factors_match_temperature_factors(lams):
    # temperature_factors reads a pair's factors off _mode_factors of that
    # pair alone: they do not depend on the other eigenvalues in the batch
    # (== does not tell the sign of a zero); the eigenvalue product may
    # overflow to inf, not pure
    with np.errstate(over="ignore"):
        f_minus, f_plus = _mode_factors(np.array(lams))
    for i, lam_i in enumerate(lams):
        for j, lam_j in enumerate(lams):
            _, plus, minus, _ = gq.temperature_factors(lam_i, lam_j)
            assert (f_minus[i, j], f_plus[i, j]) == (minus, plus)


def test_non_finite_qfi_text_names_the_terms():
    probe, channel = _overflowing_probe()
    terms = map(float, qfi_kernel(probe.williamson.s.matrix, probe.williamson.eigenvalues,
                                  probe.d_tilde, channel.generator.ikw(),
                                  channel.generator.gamma))
    text = "QFI is not finite: r_term={}, q_term={}, disp_term={}".format(*terms)
    with pytest.raises(NumericalInstabilityError) as info:
        gq.qfi_unitary(probe, channel)
    assert str(info.value) == text


# --- temperature factors ---------------------------------------------------

def test_factor_pure_limits():
    f1, f2, f3, f4 = gq.temperature_factors(1.0, 1.0)
    assert (f1, f2, f3, f4) == (0.5, 2.0, 0.0, 1.0)


def test_factor_one_pure_mode():
    _, f2, f3, _ = gq.temperature_factors(3.0, 1.0)
    assert abs(f3 - 2.0) < 1e-14
    assert abs(f2 - 4.0) < 1e-14


def test_factor_large_ratio_approximation():
    lam_i, lam_j = 100.0, 2.0
    _, f2, f3, _ = gq.temperature_factors(lam_i, lam_j)
    n_i, n_j = (lam_i - 1) / 2, (lam_j - 1) / 2
    approx = 2 * n_i / (2 * n_j + 1)
    assert abs(f2 - approx) / approx < 0.05
    assert abs(f3 - approx) / approx < 0.05


def test_factor_rejects_unphysical():
    # infinity passes the >= 1 floor but gives NaN factors
    for lams in ((0.9, 1.0), (np.nan, 1.0), (1.0, np.nan), (np.inf, 1.0), (1.0, np.inf)):
        with pytest.raises(InvalidInputError):
            gq.temperature_factors(*lams)


def test_factors_at_large_eigenvalues():
    # squares and products of the eigenvalues overflow; the factors do not
    big = np.finfo(float).max
    assert gq.temperature_factors(1e200, 1.0) == (1.0, 1e200, 1e200, 1e-200)
    assert gq.temperature_factors(1.0, 1e200)[:3] == (0.5, 1e200, 1e200)
    assert gq.temperature_factors(1e300, 1e300) == (1.0, 4.0, 0.0, 1e-300)
    assert gq.temperature_factors(big, 1.0)[1:3] == (big, big)
    assert gq.temperature_factors(big, big)[1:3] == (4.0, 0.0)


@given(st.floats(min_value=1.0, max_value=1e3))
@settings(max_examples=60, deadline=None)
def test_factor_monotonicity(lam):
    f1, _, _, f4 = gq.temperature_factors(lam, 1.0)
    f1_up, _, _, f4_up = gq.temperature_factors(lam * 1.01, 1.0)
    assert 0.5 <= f1 < 1.0
    assert 0.0 < f4 <= 1.0
    assert f1_up > f1
    assert f4_up < f4


# --- qfi_kernel against the closed forms ----------------------------------

_lam = st.one_of(st.just(1.0), st.floats(min_value=1.0 + 1e-6, max_value=4.0))
_sq = st.floats(min_value=-1.5, max_value=1.5)
_ang = st.floats(min_value=-np.pi, max_value=np.pi)
_mag = st.floats(min_value=0.0, max_value=2.0)


@given(st.sampled_from(["combined", "twomode-squeeze", "mix"]),
       st.tuples(_lam, _lam, _sq, _sq, _ang, _ang, _ang, _ang, _mag, _mag, _ang, _ang),
       st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), _ang))
@settings(max_examples=40, deadline=None)
def test_kernel_matches_closed_forms(family, p, c):
    l1, l2, r1, r2, theta, psi, phi1, phi2, m1, m2, pd1, pd2 = p
    omega_p, omega_s, chi = c
    if family == "combined":
        params = gq.OneModeProbeParams(lambda1=l1, r=r1, theta=theta, d_mag=m1, phi_d=pd1)
        channel = gq.combined_channel(omega_p, omega_s, chi)
        closed = formulas.qfi_one_mode_combined(params, omega_p, omega_s, chi)
    else:
        params = gq.TwoModeProbeParams(l1, l2, r1, r2, theta, psi, phi1, phi2,
                                       m1, m2, pd1, pd2)
        if family == "mix":
            channel = gq.mix_channel(chi)
            closed = formulas.qfi_mix_full(params, chi)
        else:
            channel = gq.twomode_squeeze_channel(chi)
            closed = formulas.qfi_twomode_squeeze_full(params, chi)
    probe = params.to_probe_state()
    # a trailing batch axis of two copies: both columns carry the same value
    terms = qfi_kernel(np.stack([probe.williamson.s.matrix] * 2, axis=-1),
                       np.stack([probe.williamson.eigenvalues] * 2, axis=-1),
                       np.stack([probe.d_tilde] * 2, axis=-1),
                       channel.generator.ikw(), channel.generator.gamma)
    total = sum(terms)
    assert total.shape == (2,)
    assert abs(total[0] - closed) <= 1e-9 * max(1.0, abs(closed))
    assert total[0] == total[1]


# --- the half-P kernel against the full-P route ---------------------------

def _random_generator(rng, n):
    """A random quadratic generator with a nonzero linear part."""
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    y = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    g = rng.normal(size=n) + 1j * rng.normal(size=n)
    return GeneratorW(x + x.conj().T, y + y.T, g)


_CORES = ("mixed", "one-pure", "pure")


def _core(rng, n, core):
    """Symplectic eigenvalues drawn from U(1, 3), with one mode ("one-pure")
    or every mode ("pure") exactly 1."""
    lams = rng.uniform(1.0, 3.0, n)
    if core == "pure":
        lams[:] = 1.0
    elif core == "one-pure":
        lams[int(rng.integers(0, n))] = 1.0
    return lams


@given(st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.sampled_from(_CORES))
@settings(max_examples=60, deadline=None)
def test_half_p_kernel_matches_full_p_route(n, seed, core):
    # S0 from williamson, not from a family, and a channel with gamma != 0:
    # the kernel reads only the top rows of P and of u; the reference forms
    # all of P and solves sigma for the displacement term.  williamson of
    # raw moments returns a pure mode's eigenvalue only to 1 +- 2e-14, so a
    # core with pure modes enters as exact Williamson data
    rng = np.random.default_rng(seed)
    if core == "mixed":
        probe = gq.ProbeState.from_state(random_state(rng, n))
    else:
        probe = gq.ProbeState(WilliamsonForm(random_symplectic(rng, n), _core(rng, n, core)),
                              rng.normal(size=n) + 1j * rng.normal(size=n))
    channel = gq.custom_channel(_random_generator(rng, n))
    ikw, gamma = channel.generator.ikw(), channel.generator.gamma
    lams = probe.williamson.eigenvalues
    pm = gq.p_matrix(probe, channel)
    factors = np.array([[gq.temperature_factors(li, lj) for lj in lams] for li in lams])
    v = ikw @ probe.displacement + gamma
    expected = (np.sum(factors[..., 2] * np.abs(pm.r_block) ** 2),
                np.sum(factors[..., 1] * np.abs(pm.q_block) ** 2),
                2.0 * np.real(v.conj() @ np.linalg.solve(probe.williamson.covariance, v)))
    got = qfi_kernel(probe.williamson.s.matrix, lams, probe.d_tilde, ikw, gamma)
    for term, ref in zip(got, expected):
        assert abs(term - ref) <= 1e-12 * max(1.0, abs(ref))


# --- the engine against the generator variance, with no shared code -------

@given(st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.sampled_from(_CORES))
@settings(max_examples=60, deadline=None)
def test_qfi_against_generator_variance(n, seed, core):
    # for a pure probe H = 4 Var(G), which in the complex form reads
    # 1/2 tr(W s W s) - 1/2 tr(W K W K) + 2 u^dag s u with u = W d - iK gamma,
    # from the raw moments (s, d) and the generator (W, gamma) alone; for a
    # mixed probe the same value bounds H from above
    rng = np.random.default_rng(seed)
    lams = _core(rng, n, core)
    s = random_symplectic(rng, n).matrix
    sigma = (s * np.concatenate([lams, lams])[None, :]) @ s.conj().T
    state = gq.GaussianState(rng.normal(size=n) + 1j * rng.normal(size=n),
                             sigma[:n, :n], sigma[:n, n:])
    w = _random_generator(rng, n)
    h = gq.qfi_unitary(gq.ProbeState.from_state(state), gq.custom_channel(w)).total
    wm, k = w.matrix, np.diag(np.concatenate([np.ones(n), -np.ones(n)]))
    u = wm @ state.displacement - 1j * k @ w.gamma
    bound = np.real(0.5 * np.trace(wm @ sigma @ wm @ sigma) - 0.5 * np.trace(wm @ k @ wm @ k)
                    + 2.0 * u.conj() @ sigma @ u)
    if np.all(lams == 1.0):
        assert abs(h - bound) <= 1e-10 * max(1.0, bound)
    else:
        assert h <= bound * (1.0 + 1e-10)


def _batch_of_seven(rng, source):
    """Kernel inputs ``(s0, lams, d_tilde)`` for seven probes, batch trailing."""
    if source == "general":
        n = int(rng.integers(1, 4))
        probes = [gq.ProbeState.from_state(random_state(rng, n)) for _ in range(7)]
        return (np.stack([p.williamson.s.matrix for p in probes], axis=-1),
                np.stack([p.williamson.eigenvalues for p in probes], axis=-1),
                np.stack([p.d_tilde for p in probes], axis=-1))
    cls = gq.OneModeProbeParams if source == "one-mode" else gq.TwoModeProbeParams
    return cls.arrays(*layout_blocks(cls, {name: rng.uniform(*_field_range(name), 7)
                                           for name in cls.__dataclass_fields__}))


def _field_range(name):
    if name.startswith("lambda"):
        return 1.0, 4.0
    if name.startswith("r"):
        return -1.5, 1.5
    if name.endswith("mag"):
        return 0.0, 2.0
    return -np.pi, np.pi


@pytest.mark.parametrize("source", ["one-mode", "two-mode", "general"])
def test_kernel_columns_independent_of_batch(rng, source):
    # every column of a batched call equals the call on that probe alone,
    # bit for bit, with or without a batch axis: the optimizer's restarts
    # rely on it
    for _ in range(10):
        s0, lams, d_tilde = _batch_of_seven(rng, source)
        w = _random_generator(rng, lams.shape[0])
        together = qfi_kernel(s0, lams, d_tilde, w.ikw(), w.gamma)
        for b in range(7):
            one = qfi_kernel(np.ascontiguousarray(s0[..., b:b + 1]), lams[:, b:b + 1].copy(),
                             d_tilde[:, b:b + 1].copy(), w.ikw(), w.gamma)
            bare = qfi_kernel(s0[..., b].copy(), lams[:, b].copy(), d_tilde[:, b].copy(),
                              w.ikw(), w.gamma)
            for t, o, u in zip(together, one, bare):
                assert t[b] == o[0] == u


def _generator_columns(rng, n, batch):
    """``batch`` generators on ``n`` modes: a custom one with a nonzero
    drive (gamma) in every third column, catalog ones (up to two modes) in
    the others."""
    out = []
    for b in range(batch):
        if b % 3 == 0 or n > 2:
            out.append(_random_generator(rng, n))
        else:
            out.append(random_channel(rng, n).generator)
    assert any(np.any(w.gamma) for w in out)
    return out


@pytest.mark.parametrize("source", ["one-mode", "two-mode", "general"])
def test_kernel_per_column_generators_match_single_calls(rng, source):
    # a generator per batch column, as a channel sweep passes them, gives
    # each column the numbers of its own single call, bit for bit
    for _ in range(5):
        s0, lams, d_tilde = _batch_of_seven(rng, source)
        gens = _generator_columns(rng, lams.shape[0], 7)
        ikw = np.stack([w.ikw() for w in gens], axis=-1)
        gamma = np.stack([w.gamma for w in gens], axis=-1)
        together = qfi_kernel(s0, lams, d_tilde, ikw, gamma)
        # one probe on a trailing axis of length 1, against every generator
        spread = qfi_kernel(s0[..., :1], lams[:, :1], d_tilde[:, :1], ikw, gamma)
        for b, w in enumerate(gens):
            one = qfi_kernel(s0[..., b:b + 1], lams[:, b:b + 1], d_tilde[:, b:b + 1],
                             w.ikw(), w.gamma)
            first = qfi_kernel(s0[..., :1], lams[:, :1], d_tilde[:, :1], w.ikw(), w.gamma)
            for t, o, sp, f in zip(together, one, spread, first):
                assert t[b] == o[0]
                assert sp[b] == f[0]


def test_overflowing_total_raises():
    probe, channel = _overflowing_probe()
    r_term, q_term, disp_term = qfi_kernel(
        probe.williamson.s.matrix, probe.williamson.eigenvalues, probe.d_tilde,
        channel.generator.ikw(), channel.generator.gamma)
    assert np.isfinite([r_term, q_term, disp_term]).all()
    with pytest.raises(NumericalInstabilityError, match="QFI is not finite"):
        gq.qfi_unitary(probe, channel)


# --- continuity across the pure-pure switch in _mode_factors ---------------

# lambda1 lambda2 - 1 crosses DEGENERACY_TOL = 1e-9 inside this sweep
_DELTAS = (1e-12, 1e-10, 5e-10, 1e-9, 2e-9, 1e-8, 1e-7, 1e-6)


@given(st.sampled_from(["twomode-squeeze", "mix"]),
       st.tuples(_sq, _sq, _ang, _ang, _ang, _ang, _mag, _mag, _ang, _ang), _ang)
@settings(max_examples=200, deadline=None)
def test_qfi_continuous_across_degeneracy_switch(family, p, chi):
    # below the switch the R term of the pure pair is set to zero, its limit;
    # above it the factor (l1 - l2)^2 / (l1 l2 - 1) is about delta
    channel = (gq.mix_channel(chi) if family == "mix"
               else gq.twomode_squeeze_channel(chi))

    def h(delta):
        params = gq.TwoModeProbeParams(1.0, 1.0 + delta, *p)
        return gq.qfi_unitary(params.to_probe_state(), channel).total

    h0 = h(0.0)
    for delta in _DELTAS:
        assert abs(h(delta) - h0) <= 10 * delta * max(1.0, h0)


# --- invariance under passive transforms that commute with the generator ---

@given(st.sampled_from(["phase", "mix", "twomode-squeeze"]),
       st.tuples(_lam, _lam, _sq, _sq, _ang, _ang, _ang, _ang, _mag, _mag, _ang, _ang),
       _ang, _ang)
@settings(max_examples=200, deadline=None)
def test_qfi_invariant_under_commuting_passive_transform(family, p, a, chi):
    # a passive unitary u that commutes with the channel's generator maps
    # the probe (S0, d) to (blkdiag(u, conj u) S0, u d) without changing
    # the information it carries about the channel parameter
    l1, l2, r1, r2, theta, psi, phi1, phi2, m1, m2, pd1, pd2 = p
    if family == "phase":
        params = gq.OneModeProbeParams(lambda1=l1, r=r1, theta=theta, d_mag=m1, phi_d=pd1)
        channel, u = gq.phase_channel(), np.array([[np.exp(1j * a)]])
    else:
        params = gq.TwoModeProbeParams(l1, l2, r1, r2, theta, psi, phi1, phi2,
                                       m1, m2, pd1, pd2)
        if family == "mix":
            channel, u = gq.mix_channel(chi), np.exp(1j * a) * np.eye(2)
        else:
            channel, u = gq.twomode_squeeze_channel(chi), np.diag(np.exp([-1j * a, 1j * a]))
    probe = params.to_probe_state()
    s0 = probe.williamson.s
    moved = gq.ProbeState(
        WilliamsonForm(SymplecticMatrix(u @ s0.alpha, u @ s0.beta), probe.williamson.eigenvalues),
        u @ probe.d_tilde)
    h0 = gq.qfi_unitary(probe, channel).total
    h1 = gq.qfi_unitary(moved, channel).total
    assert abs(h1 - h0) <= 1e-9 * max(1.0, abs(h0))
