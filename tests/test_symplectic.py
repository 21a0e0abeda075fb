import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gaussqfi as gq
from gaussqfi.errors import (
    InvalidDimensionError,
    InvalidInputError,
    NumericalInstabilityError,
    StructureError,
)
from gaussqfi.core import STRUCTURE_ATOL, k_signs
from gaussqfi.symplectic import RECONSTRUCTION_FAIL_RTOL, SymplecticMatrix, symplectic_check
from conftest import random_covariance, random_symplectic, random_unitary


def random_generator(rng, n, gamma=False, norm=1.0):
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    y = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    g = rng.normal(size=n) + 1j * rng.normal(size=n) if gamma else None
    w = gq.GeneratorW(x + x.conj().T, y + y.T, g)
    return w.scaled(norm / max(1.0, float(np.linalg.norm(w.matrix, 2))))


def test_generator_rejects_non_square_x_block():
    with pytest.raises(InvalidDimensionError, match="x_block"):
        gq.GeneratorW(np.zeros((2, 3)), np.zeros((2, 2)))


@pytest.mark.parametrize("bad", [np.nan, -np.inf])
@pytest.mark.parametrize("field", ["x_block", "y_block", "gamma_tilde"])
def test_generator_rejects_non_finite(field, bad):
    parts = {"x_block": np.eye(2, dtype=complex), "y_block": np.zeros((2, 2), dtype=complex),
             "gamma_tilde": np.zeros(2, dtype=complex)}
    parts[field].flat[0] = bad
    with pytest.raises(InvalidInputError, match="finite"):
        gq.GeneratorW(**parts)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("field", ["alpha", "beta"])
def test_symplectic_matrix_rejects_non_finite(field, bad):
    parts = {"alpha": np.eye(2, dtype=complex), "beta": np.zeros((2, 2), dtype=complex)}
    parts[field].flat[0] = bad
    with pytest.raises(StructureError, match="finite"):
        SymplecticMatrix(**parts)


def test_symplectic_matrix_rejects_overflowing_squares():
    # squeezing by r = 400 is symplectic, but its defining products overflow
    ch, sh = np.cosh(400.0), np.sinh(400.0)
    with pytest.raises(StructureError, match="overflow"):
        SymplecticMatrix(np.array([[ch]]), np.array([[-sh]]))


def _accepted(alpha, beta) -> bool:
    try:
        SymplecticMatrix(alpha, beta)
    except StructureError:
        return False
    return True


@pytest.mark.parametrize("n", [1, 2, 3])
def test_batch_check_matches_symplectic_matrix(rng, n):
    # one symplectic_check on a batch gives each matrix the verdict that
    # SymplecticMatrix gives it alone
    blocks = []
    for _ in range(3):
        s0 = gq.bloch_messiah(random_unitary(rng, n), rng.uniform(-2, 2, n),
                              random_unitary(rng, n))
        blocks.append((s0[:n, :n], s0[:n, n:]))
    a, b = blocks[0]
    gate = STRUCTURE_ATOL * max(1.0, np.max(np.abs(a)) ** 2 + np.max(np.abs(b)) ** 2)
    # alpha -> (1 + t) alpha moves alpha alpha^dag by about 2 t alpha alpha^dag
    t = gate / (2.0 * np.max(np.abs(a @ a.conj().T)))
    blocks += [((1.0 + 0.9 * t) * a, b), ((1.0 + 1.1 * t) * a, b)]
    for bad in (np.nan, np.inf):
        a_bad = a.copy()
        a_bad[0, 0] = bad
        blocks.append((a_bad, b))
    # at r = 400 the squares overflow; at 355.5 only their sum does
    for r in (400.0, 355.5):
        huge_a, huge_b = np.eye(n, dtype=complex), np.zeros((n, n), dtype=complex)
        huge_a[0, 0], huge_b[0, 0] = np.cosh(r), -np.sinh(r)
        blocks.append((huge_a, huge_b))
    alone = [_accepted(a, b) for a, b in blocks]
    assert alone == [True] * 4 + [False] * 5
    res, ok = symplectic_check(np.array([a for a, _ in blocks]), np.array([b for _, b in blocks]))
    assert ok.tolist() == alone
    assert np.isnan(res[5:]).all()


@pytest.mark.parametrize("gamma", [False, True])
def test_exp_overflow_raises(gamma):
    w = gq.GeneratorW(np.zeros((1, 1)), np.array([[1000j]]),
                      np.array([1.0]) if gamma else None)
    with pytest.raises(NumericalInstabilityError, match="overflow"):
        (gq.displacement_shift if gamma else gq.exp_generator)(w)


def test_exp_zero_generator_is_identity():
    w = gq.GeneratorW(np.zeros((2, 2)), np.zeros((2, 2)))
    assert np.allclose(gq.exp_generator(w).matrix, np.eye(4))


def test_exp_phase_generator():
    for theta in (0.3, -1.2, np.pi / 2):
        w = gq.GeneratorW(np.array([[-theta]]), np.zeros((1, 1)))
        s = gq.exp_generator(w)
        assert np.allclose(s.matrix, np.diag([np.exp(-1j * theta), np.exp(1j * theta)]),
                           atol=1e-12)


def test_exp_squeeze_generator():
    for r, chi in ((0.7, 0.0), (-0.4, 1.1), (1.3, -2.0)):
        w = gq.GeneratorW(np.zeros((1, 1)), np.array([[1j * r * np.exp(1j * chi)]]))
        s = gq.exp_generator(w)
        assert abs(s.alpha[0, 0] - np.cosh(r)) < 1e-12
        assert abs(s.beta[0, 0] + np.exp(1j * chi) * np.sinh(r)) < 1e-12


def test_exp_paths_cross_check(rng):
    for _ in range(50):
        n = int(rng.integers(1, 4))
        s = gq.exp_generator(random_generator(rng, n))
        assert gq.symplectic_residual(s) < 1e-11


def test_group_law(rng):
    for _ in range(30):
        n = int(rng.integers(1, 3))
        w = random_generator(rng, n)
        s, t = rng.uniform(-1, 1, 2)
        lhs = gq.exp_generator(w.scaled(s + t)).matrix
        rhs = gq.exp_generator(w.scaled(s)).matrix @ gq.exp_generator(w.scaled(t)).matrix
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * max(1.0, np.max(np.abs(lhs)))


def test_generator_finite_difference(rng):
    # dS/deps at eps equals S(eps) (iKW) to O(h^2)
    h = 1e-5
    for _ in range(20):
        n = int(rng.integers(1, 3))
        w = random_generator(rng, n)
        w = w.scaled(0.5 / max(1.0, np.linalg.norm(w.matrix)))
        eps = rng.uniform(-1, 1)
        sp = gq.exp_generator(w.scaled(eps + h)).matrix
        sm = gq.exp_generator(w.scaled(eps - h)).matrix
        lhs = (sp - sm) / (2 * h)
        rhs = gq.exp_generator(w.scaled(eps)).matrix @ w.ikw()
        assert np.max(np.abs(lhs - rhs)) < 1e-8 * max(1.0, np.max(np.abs(rhs)))


def test_shift_zero_quadratic_returns_gamma():
    g = np.array([0.4 + 0.2j])
    w = gq.GeneratorW(np.zeros((1, 1)), np.zeros((1, 1)), g)
    assert np.allclose(gq.displacement_shift(w), w.gamma, atol=1e-15)


def test_shift_zero_gamma_returns_zero(rng):
    w = random_generator(rng, 2)
    assert np.array_equal(gq.displacement_shift(w), np.zeros(4, dtype=complex))


def test_shift_matches_quadrature(rng):
    # 30-node Gauss-Legendre rule for integral_0^1 expm(t iKW) gamma dt
    import scipy.linalg

    nodes, weights = np.polynomial.legendre.leggauss(30)
    ts, ws = (nodes + 1) / 2, weights / 2
    for _ in range(50):
        n = int(rng.integers(1, 3))
        w = random_generator(rng, n, gamma=True)
        a = w.ikw()
        quad = sum(wt * scipy.linalg.expm(t * a) @ w.gamma for t, wt in zip(ts, ws))
        b = gq.displacement_shift(w)
        assert np.max(np.abs(b - quad)) < 1e-13 * max(1.0, np.max(np.abs(quad)))


def test_shift_nearly_singular_generator():
    # iKW = diag(i, i 1e-9, -i, -i 1e-9): b_k = expm1(a_k) / a_k gamma_k exactly
    w = gq.GeneratorW(np.diag([1.0, 1e-9]), np.zeros((2, 2)),
                      np.array([0.3 - 0.1j, 0.7 + 0.2j]))
    a = np.diag(w.ikw())
    want = np.expm1(a) / a * w.gamma
    b = gq.displacement_shift(w)
    assert np.max(np.abs(b - want)) < 1e-13 * np.max(np.abs(want))


def test_shift_nilpotent_generator():
    # omega_p = omega_s: (iKW)^2 = 0, so b = gamma + iKW gamma / 2
    w = gq.combined_channel(0.8, 0.8, 0.4).generator
    w = gq.GeneratorW(w.x_block, w.y_block, np.array([0.5 - 0.3j]))
    a = w.ikw()
    assert np.max(np.abs(a @ a)) < 1e-15
    want = w.gamma + a @ w.gamma / 2
    b = gq.displacement_shift(w)
    assert np.max(np.abs(b - want)) < 1e-13 * np.max(np.abs(want))


def test_symplectic_inverse_and_compose(rng):
    for _ in range(20):
        n = int(rng.integers(1, 4))
        s = random_symplectic(rng, n)
        prod = s @ s.inverse()
        assert np.allclose(prod.matrix, np.eye(2 * n), atol=1e-11)


def test_from_matrix_rejects_bad_structure():
    m = np.eye(4, dtype=complex)
    m[2, 0] = 0.5
    with pytest.raises(StructureError):
        gq.SymplecticMatrix.from_matrix(m)


def test_williamson_already_diagonal():
    form = gq.williamson(np.diag([2.0, 2.0]).astype(complex))
    assert np.allclose(form.s.matrix, np.eye(2), atol=1e-12)
    assert np.allclose(form.eigenvalues, [2.0])


def test_williamson_squeezed_thermal():
    from reference_matrices import squeeze_matrix

    s = squeeze_matrix(0.5).matrix
    sigma = (s * np.array([2.0, 2.0])[None, :]) @ s.conj().T
    form = gq.williamson(sigma)
    assert np.allclose(form.eigenvalues, [2.0], atol=1e-12)
    assert np.max(np.abs(form.covariance - sigma)) < 1e-10


def test_williamson_matches_k_sigma_spectrum(rng):
    for _ in range(100):
        n = int(rng.integers(1, 4))
        sigma, _ = random_covariance(rng, n)
        form = gq.williamson(sigma)
        spec = np.linalg.eigvals(np.diag(k_signs(n)) @ sigma).real
        assert np.allclose(np.sort(spec), np.sort(np.concatenate([form.eigenvalues,
                                                                  -form.eigenvalues])),
                           atol=1e-9)
        assert np.max(np.abs(form.covariance - sigma)) \
            < 1e-10 * max(1.0, np.max(np.abs(sigma)))
        assert gq.symplectic_residual(form.s) < 1e-10


def test_williamson_pure_degenerate(rng):
    # all eigenvalues 1: maximally degenerate gauge
    for _ in range(20):
        n = int(rng.integers(1, 4))
        s = random_symplectic(rng, n)
        sigma = s.matrix @ s.matrix.conj().T
        form = gq.williamson(sigma)
        assert np.allclose(form.eigenvalues, np.ones(n), atol=1e-9)
        assert np.max(np.abs(form.covariance - sigma)) \
            < 1e-10 * max(1.0, np.max(np.abs(sigma)))


def test_williamson_deterministic(rng):
    sigma, _ = random_covariance(rng, 2)
    a = gq.williamson(sigma)
    b = gq.williamson(sigma.copy())
    assert np.array_equal(a.s.matrix, b.s.matrix)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)


def test_williamson_rejects_non_pd():
    with pytest.raises(InvalidInputError,
                       match=r"^covariance must be positive-definite \(min eigenvalue -1\.000e\+00\)$"):
        gq.williamson(np.diag([1.0, -1.0]).astype(complex))


def test_williamson_refuses_unresolvable_conditioning():
    # eps * cond(sigma) bounds the spectrum's rounding error; past the
    # eigenvalue floor's tolerance (pure one-mode r near 3.84) it refuses
    from reference_matrices import squeeze_matrix

    for r, ok in ((3.8, True), (3.9, False), (9.0, False)):
        s = squeeze_matrix(r).matrix
        sigma = s @ s.conj().T
        if ok:
            assert abs(gq.williamson(sigma).eigenvalues[0] - 1.0) < 1e-9
        else:
            with pytest.raises(NumericalInstabilityError, match="condition number"):
                gq.williamson(sigma)


def test_bloch_messiah_identity():
    s0 = gq.bloch_messiah(np.eye(2), np.zeros(2), np.eye(2))
    assert np.array_equal(s0, np.eye(4))


def test_bloch_messiah_one_mode_squeezing_sign():
    s = SymplecticMatrix.from_matrix(gq.bloch_messiah(np.eye(1), np.array([0.7]), np.eye(1)))
    assert abs(s.beta[0, 0] + np.sinh(0.7)) < 1e-14


def test_bloch_messiah_symplectic(rng):
    for _ in range(100):
        n = int(rng.integers(1, 4))
        s0 = gq.bloch_messiah(random_unitary(rng, n), rng.uniform(-2, 2, n),
                              random_unitary(rng, n))
        assert gq.symplectic_residual(SymplecticMatrix.from_matrix(s0)) < 1e-12


def test_bloch_messiah_non_unitary_refused():
    with pytest.raises(StructureError):
        SymplecticMatrix.from_matrix(gq.bloch_messiah(2.0 * np.eye(2), np.zeros(2), np.eye(2)))


@pytest.mark.parametrize("with_v", [False, True])
def test_bloch_messiah_batch_matches_columns_bit_for_bit(rng, with_v):
    n, batch = 3, 7
    u = np.stack([random_unitary(rng, n) for _ in range(batch)], axis=-1)
    v = np.stack([random_unitary(rng, n) for _ in range(batch)], axis=-1) if with_v else None
    r = rng.uniform(-2, 2, (n, batch))
    u[..., 0], r[:, 0] = np.eye(n), [0.0, -0.0, 0.5]  # signed zeros
    block = gq.bloch_messiah(u, r, v)
    assert block.shape == (2 * n, 2 * n, batch)
    for j in range(batch):
        col = gq.bloch_messiah(u[..., j:j + 1], r[:, j:j + 1],
                               None if v is None else v[..., j:j + 1])
        assert block[..., j:j + 1].tobytes() == col.tobytes()


def test_williamson_eigenvalues_of_composition(rng):
    # williamson . compose is the identity on eigenvalues
    for _ in range(20):
        n = int(rng.integers(1, 4))
        s = random_symplectic(rng, n)
        lams = np.sort(rng.uniform(1.0, 3.0, n))[::-1]
        sigma = (s.matrix * np.concatenate([lams, lams])[None, :]) @ s.matrix.conj().T
        got = gq.williamson(sigma).eigenvalues
        assert np.allclose(got, lams, atol=1e-10)


@given(st.integers(min_value=2, max_value=3), st.booleans(),
       st.floats(min_value=-9.0, max_value=-6.0), st.floats(min_value=-9.0, max_value=-6.0),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_williamson_near_degenerate_round_trip(n, near_one, log_gap, log_offset, seed):
    # two symplectic eigenvalues 1e-9 to 1e-6 apart, either near 1 (within
    # 1e-9 to 1e-6 of the pure boundary) or in the thermal bulk
    rng = np.random.default_rng(seed)
    lams = rng.uniform(1.0, 4.0, n)
    lams[0] = 1.0 + 10.0 ** log_offset if near_one else rng.uniform(1.5, 4.0)
    lams[1] = lams[0] + 10.0 ** log_gap
    s = random_symplectic(rng, n).matrix
    sigma = (s * np.concatenate([lams, lams])[None, :]) @ s.conj().T
    form = gq.williamson(sigma)
    assert np.max(np.abs(form.covariance - sigma)) \
        <= RECONSTRUCTION_FAIL_RTOL * max(1.0, np.max(np.abs(sigma)))
    assert np.all(np.diff(form.eigenvalues) <= 0.0)
    assert np.allclose(form.eigenvalues, np.sort(lams)[::-1], rtol=0.0, atol=1e-10)
    SymplecticMatrix(form.s.alpha, form.s.beta)
    assert gq.symplectic_residual(form.s) < 1e-10
