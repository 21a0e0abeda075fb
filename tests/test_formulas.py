import numpy as np
import pytest

import gaussqfi as gq
from gaussqfi import formulas
from gaussqfi.errors import InvalidInputError, NumericalInstabilityError
from gaussqfi.validate import _draw_one, _draw_two


def engine(params, channel):
    return gq.qfi_unitary(params.to_probe_state(), channel).total


# --- quick closed-form vs engine sweeps (full 1000-draw runs are in the
# acceptance suite)

def test_eq19_matches_engine(rng):
    for _ in range(100):
        p = _draw_one(rng)
        wp, ws, chi = rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-np.pi, np.pi)
        h = formulas.qfi_one_mode_combined(p, wp, ws, chi)
        assert abs(h - engine(p, gq.combined_channel(wp, ws, chi))) < 1e-9 * max(1, h)


def test_eq19_reduces_to_eq20(rng):
    for _ in range(50):
        p = _draw_one(rng)
        assert abs(formulas.qfi_one_mode_combined(p, 1.0, 0.0, 0.0)
                   - formulas.qfi_phase(p)) < 1e-12


def test_eq20_max_over_angle(rng):
    # the maximum over theta sits at |sin(theta + phi_d)| = 1
    for _ in range(10):
        p = _draw_one(rng)
        best = formulas.qfi_phase(gq.OneModeProbeParams(
            lambda1=p.lambda1, r=p.r, theta=np.pi / 2 - p.phi_d,
            d_mag=p.d_mag, phi_d=p.phi_d))
        grid = [formulas.qfi_phase(gq.OneModeProbeParams(
            lambda1=p.lambda1, r=p.r, theta=t, d_mag=p.d_mag, phi_d=p.phi_d))
            for t in np.linspace(-np.pi, np.pi, 721)]
        if p.r >= 0:
            assert best >= max(grid) - 1e-9
        else:
            assert min(grid) >= best - 1e-9 or max(grid) <= max(
                best, formulas.qfi_phase(gq.OneModeProbeParams(
                    lambda1=p.lambda1, r=p.r, theta=-p.phi_d, d_mag=p.d_mag,
                    phi_d=p.phi_d))) + 1e-9


def test_eq21_max_over_angles():
    # |sin(2 theta + chi)| = 1 and |cos(theta - phi_d + chi)| = 1
    lam, r, d, chi = 1.3, 0.8, 1.1, 0.4
    theta = np.pi / 4 - chi / 2
    phi_d = np.pi / 4 + chi / 2
    best = formulas.qfi_squeeze1(gq.OneModeProbeParams(
        lambda1=lam, r=r, theta=theta, d_mag=d, phi_d=phi_d), chi)
    grid = np.linspace(-np.pi, np.pi, 181)
    values = [formulas.qfi_squeeze1(gq.OneModeProbeParams(
        lambda1=lam, r=r, theta=t, d_mag=d, phi_d=pd), chi)
        for t in grid for pd in grid]
    assert best >= max(values) - 1e-8


def test_combined_max_at_stated_angles(rng):
    for _ in range(25):
        lam = rng.uniform(1, 3)
        r = rng.uniform(0, 1.2)
        d = rng.uniform(0, 2)
        ws, wp = rng.uniform(0, 2, 2)
        chi = rng.uniform(-np.pi, np.pi)
        p = gq.OneModeProbeParams(lambda1=lam, r=r, theta=-chi / 2 - np.pi / 4,
                                  d_mag=d, phi_d=chi / 2 - np.pi / 4)
        got = formulas.qfi_one_mode_combined(p, wp, ws, chi)
        expect = formulas.combined_max(lam, r, d, wp, ws)
        assert abs(got - expect) < 1e-9 * max(1.0, expect)


def test_combined_energy_limits():
    for n in (0.5, 1.0, 2.0, 5.0):
        for wp, ws in ((1.0, 0.0), (0.0, 1.0), (0.7, 1.3)):
            r = float(np.arcsinh(np.sqrt(n)))
            all_squeeze = formulas.combined_max(1.0, r, 0.0, wp, ws)
            assert abs(all_squeeze - formulas.combined_heisenberg(n, wp, ws)) \
                < 1e-9 * max(1.0, all_squeeze)
            coherent = formulas.combined_max(1.0, 0.0, np.sqrt(n), wp, ws)
            assert abs(coherent - formulas.combined_shotnoise(n, wp, ws)) \
                < 1e-9 * max(1.0, coherent)


def test_phase_heisenberg_values():
    # squeezed vacuum with n = 1
    p = gq.OneModeProbeParams(r=float(np.arcsinh(1.0)))
    assert abs(formulas.qfi_phase(p) - 16.0) < 1e-10
    p = gq.OneModeProbeParams(r=-0.88)
    assert abs(formulas.qfi_phase(p) - 2 * np.sinh(1.76) ** 2) < 1e-12


def test_squeeze_heisenberg_value():
    # optimally rotated squeezed vacuum with n = 1: 2 (2n+1)^2 = 18
    p = gq.OneModeProbeParams(r=float(np.arcsinh(1.0)), theta=np.pi / 4)
    assert abs(formulas.qfi_squeeze1(p, 0.0) - 18.0) < 1e-10


def test_eq28_max_at_stated_angles(rng):
    for _ in range(20):
        chi = rng.uniform(-np.pi, np.pi)
        a = np.pi / 4 - chi / 2
        b = np.pi / 4 + chi / 2
        p = gq.TwoModeProbeParams(
            lambda1=rng.uniform(1, 3), lambda2=rng.uniform(1, 3),
            r1=rng.uniform(0, 1.2), r2=rng.uniform(0, 1.2),
            phi1=a, phi2=a, d1_mag=rng.uniform(0, 1.5), d2_mag=rng.uniform(0, 1.5),
            phi_d1=b, phi_d2=b)
        got = formulas.qfi_twomode_squeeze_separable(p, chi)
        expect = formulas.twomode_squeeze_separable_max(
            p.lambda1, p.lambda2, p.r1, p.r2, p.d1_mag, p.d2_mag)
        assert abs(got - expect) < 1e-9 * max(1.0, expect)
        # grid over the free phases never beats the stated optimum
        for _ in range(50):
            q = gq.TwoModeProbeParams(
                lambda1=p.lambda1, lambda2=p.lambda2, r1=p.r1, r2=p.r2,
                phi1=rng.uniform(-np.pi, np.pi), phi2=rng.uniform(-np.pi, np.pi),
                d1_mag=p.d1_mag, d2_mag=p.d2_mag,
                phi_d1=rng.uniform(-np.pi, np.pi), phi_d2=rng.uniform(-np.pi, np.pi))
            assert formulas.qfi_twomode_squeeze_separable(q, chi) <= expect + 1e-9


def test_full_expressions_reduce_to_slices(rng):
    for _ in range(50):
        chi = rng.uniform(-np.pi, np.pi)
        p0 = _draw_two(rng, theta=0.0, psi=0.0)
        assert abs(formulas.qfi_twomode_squeeze_full(p0, chi)
                   - formulas.qfi_twomode_squeeze_separable(p0, chi)) < 1e-10
        assert abs(formulas.qfi_mix_full(p0, chi)
                   - formulas.qfi_mix_separable(p0, chi)) < 1e-10
        p4 = _draw_two(rng, theta=np.pi / 4)
        assert abs(formulas.qfi_twomode_squeeze_full(p4, chi)
                   - formulas.qfi_twomode_squeeze_bs(p4, chi)) < 1e-10
        assert abs(formulas.qfi_mix_full(p4, chi)
                   - formulas.qfi_mix_bs(p4, chi)) < 1e-10


def test_full_expressions_match_engine(rng):
    for _ in range(100):
        chi = rng.uniform(-np.pi, np.pi)
        p = _draw_two(rng)
        h = formulas.qfi_twomode_squeeze_full(p, chi)
        assert abs(h - engine(p, gq.twomode_squeeze_channel(chi))) < 1e-9 * max(1, h)
        h = formulas.qfi_mix_full(p, chi)
        assert abs(h - engine(p, gq.mix_channel(chi))) < 1e-9 * max(1, h)


def test_separable_heisenberg_st():
    # lambda = 1, equal squeezing, n = 2 gives 4 (n+1)^2 = 36
    r = float(np.arcsinh(1.0))
    got = formulas.twomode_squeeze_separable_max(1.0, 1.0, r, r, 0.0, 0.0)
    assert abs(got - 36.0) < 1e-10
    assert abs(got - 4 * np.cosh(2 * r) ** 2) < 1e-10


def test_mix_heisenberg():
    r = float(np.arcsinh(1.0))
    got = formulas.mix_separable_max(1.0, 1.0, r, r, 0.0, 0.0)
    assert abs(got - 32.0) < 1e-10
    assert abs(got - 4 * np.sinh(2 * r) ** 2) < 1e-10


def test_bs_max_opposite_branch(rng):
    # r1 <= 0 <= r2 branch: optimal angles phi_chi = 0,
    # psi = phi_1chi = phi_2chi = pi/4
    for _ in range(20):
        chi = rng.uniform(-np.pi, np.pi)
        l1, l2 = rng.uniform(1, 3, 2)
        r1 = -rng.uniform(0, 1.2)
        r2 = rng.uniform(0, 1.2)
        d1, d2 = rng.uniform(0, 1.5, 2)
        phi1 = rng.uniform(-np.pi, np.pi)
        phi2 = -phi1 - chi            # phi_chi = 0
        pd2 = phi1 + chi - np.pi / 4  # phi_1chi = pi/4
        pd1 = phi2 + chi - np.pi / 4  # phi_2chi = pi/4
        p = gq.TwoModeProbeParams(lambda1=l1, lambda2=l2, r1=r1, r2=r2,
                                  theta=np.pi / 4, psi=np.pi / 4, phi1=phi1,
                                  phi2=phi2, d1_mag=d1, d2_mag=d2,
                                  phi_d1=pd1, phi_d2=pd2)
        got = formulas.qfi_twomode_squeeze_bs(p, chi)
        want = formulas.twomode_squeeze_bs_max_opposite(l1, l2, r1, r2, d1, d2)
        assert abs(got - want) < 1e-9 * max(1.0, want)


def test_bs_advantage_identity(rng):
    for _ in range(100):
        r1, r2 = rng.uniform(-1.2, 1.2, 2)
        d1, d2 = rng.uniform(0, 2, 2)
        direct = formulas.bs_advantage(r1, r2, d1, d2)
        via_max = (formulas.twomode_squeeze_bs_max(1.0, 1.0, r1, r2, d1, d2)
                   - formulas.twomode_squeeze_separable_max(1.0, 1.0, r1, r2, d1, d2))
        assert abs(direct - via_max) < 1e-10 * max(1.0, abs(direct))


def test_bs_advantage_vanishes_at_equal_squeezing(rng):
    for _ in range(20):
        r = rng.uniform(-1.2, 1.2)
        d1, d2 = rng.uniform(0, 2, 2)
        assert abs(formulas.bs_advantage(r, r, d1, d2)) < 1e-12


def test_one_mode_probe_on_two_mode_channels(rng):
    assert formulas.qfi_onemode_probe_on_twomode("two-mode-squeeze", 1.0, 0.0) == 4.0
    assert formulas.qfi_onemode_probe_on_twomode("beamsplit", 1.0, 0.0) == 0.0
    r = float(np.arcsinh(1.0))
    assert abs(formulas.qfi_onemode_probe_on_twomode("beamsplit", 1.0, r) - 4.0) < 1e-10
    # equals 4(n+1) resp. 4n for any energy split, and matches the engine
    for _ in range(25):
        lam = rng.uniform(1, 3)
        r1 = rng.uniform(-1.2, 1.2)
        d1 = rng.uniform(0, 1.5)
        p = gq.TwoModeProbeParams(lambda1=lam, r1=r1, phi1=rng.uniform(-np.pi, np.pi),
                                  d1_mag=d1, phi_d1=rng.uniform(-np.pi, np.pi))
        n = p.mean_photon()
        h_st = formulas.qfi_onemode_probe_on_twomode("two-mode-squeeze", lam, r1, d1)
        h_mix = formulas.qfi_onemode_probe_on_twomode("beamsplit", lam, r1, d1)
        assert abs(h_st - 4 * (n + 1)) < 1e-9 * max(1, h_st)
        assert abs(h_mix - 4 * n) < 1e-9 * max(1, h_mix)
        chi = rng.uniform(-np.pi, np.pi)
        assert abs(h_st - engine(p, gq.twomode_squeeze_channel(chi))) < 1e-9 * max(1, h_st)
        assert abs(h_mix - engine(p, gq.mix_channel(chi))) < 1e-9 * max(1, h_mix)


def test_universal_probe_values():
    r = float(np.arcsinh(1.0))  # n = 2 across both modes
    assert abs(formulas.universal_mix_probe_qfi(r) - 32.0) < 1e-10
    assert abs(formulas.universal_mix_probe_qfi(0.0, 1.0, 0.0) - 4.0) < 1e-12


def test_universal_probe_large_inputs():
    # a value past float64's range is refused; a representable one is
    # returned, also where (d1^2 + d2^2) cosh 2r + 2 d1 d2 sinh 2r would be
    # inf - inf (d1_mag^2 alone overflows at 1e160)
    for args in ((400.0,), (-400.0,), (1.0, 1e200, 0.0), (-800.0, 1.0, 1.0)):
        with pytest.raises(NumericalInstabilityError, match="overflows"):
            formulas.universal_mix_probe_qfi(*args)
    want = 2.0 * (2e160 * np.exp(-100.0)) ** 2 + 4.0 * np.sinh(200.0) ** 2
    got = formulas.universal_mix_probe_qfi(-100.0, 1e160, 1e160)
    assert abs(got - want) <= 1e-14 * want
    assert formulas.universal_mix_probe_qfi(100.0) == 4.0 * np.sinh(200.0) ** 2


def test_universal_probe_chi_independence(rng):
    for _ in range(100):
        r = rng.uniform(-1.2, 1.2)
        d1, d2 = rng.uniform(0, 1.5, 2)
        chi = rng.uniform(-np.pi, np.pi)
        phi1, phi2, pd1 = rng.uniform(-np.pi, np.pi, 3)
        pd2 = -np.pi / 2 - phi1 - phi2 - pd1
        p = gq.TwoModeProbeParams(r1=r, r2=r, theta=np.pi / 4, psi=np.pi / 4,
                                  phi1=phi1, phi2=phi2, d1_mag=d1, d2_mag=d2,
                                  phi_d1=pd1, phi_d2=pd2)
        want = formulas.universal_mix_probe_qfi(r, d1, d2)
        assert abs(formulas.qfi_mix_full(p, chi) - want) < 1e-10 * max(1.0, want)


def test_limit_table_values():
    table = formulas.limit_table()
    assert table["phase"].heisenberg(1.0) == 16.0
    assert table["phase"].shotnoise(1.0) == 4.0
    assert table["two-mode-squeeze"].heisenberg(2.0) == 36.0
    assert table["two-mode-squeeze"].shotnoise(2.0) == 12.0
    assert table["beamsplit"].heisenberg(0.0) == 0.0
    assert table["beamsplit"].shotnoise(0.0) == 0.0


def test_limit_consistency_with_closed_forms():
    table = formulas.limit_table()
    for n in (0.5, 1.0, 2.0, 5.0, 10.0):
        r1 = float(np.arcsinh(np.sqrt(n)))
        r2 = float(np.arcsinh(np.sqrt(n / 2)))
        checks = [
            (table["phase"].heisenberg(n),
             formulas.qfi_phase(gq.OneModeProbeParams(r=r1))),
            (table["squeeze1-mode1"].heisenberg(n),
             formulas.qfi_squeeze1(gq.OneModeProbeParams(r=r1, theta=np.pi / 4), 0.0)),
            (table["beamsplit"].heisenberg(n),
             formulas.mix_separable_max(1.0, 1.0, r2, r2, 0.0, 0.0)),
            (table["two-mode-squeeze"].heisenberg(n),
             formulas.twomode_squeeze_separable_max(1.0, 1.0, r2, r2, 0.0, 0.0)),
        ]
        for want, got in checks:
            assert abs(want - got) < 1e-9 * max(1.0, want)


def test_optimal_temperature_no_root_without_displacement():
    for lam in np.linspace(1.0, 50.0, 20):
        assert formulas.optimal_temperature_residual("phase", lam, 1.0, 0.0) > 0.0
    assert formulas.optimal_temperature("phase", 1.0, 0.0) == []


def test_optimal_temperature_roots(rng):
    roots = formulas.optimal_temperature("phase", 1.0, 1.0)
    assert roots
    for lam_star in roots:
        assert abs(formulas.optimal_temperature_residual(
            "phase", lam_star, 1.0, 1.0)) < 1e-10
    # grid oracle classifies: the QFI-maximizing lambda is one of the
    # crossings (or the lambda = 1 boundary)
    def h(lam):
        return formulas.qfi_phase(gq.OneModeProbeParams(
            lambda1=lam, r=1.0, theta=np.pi / 2, d_mag=1.0, phi_d=0.0))
    grid = np.linspace(1.0, 20.0, 4001)
    values = [h(lam) for lam in grid]
    best = grid[int(np.argmax(values))]
    step = grid[1] - grid[0]
    assert any(abs(best - lam_star) < step + 1e-9 for lam_star in roots) \
        or abs(best - 1.0) < step


def test_optimal_temperature_squeeze_channel():
    for lam_star in formulas.optimal_temperature("squeeze1-mode1", 0.8, 1.2):
        assert abs(formulas.optimal_temperature_residual(
            "squeeze1-mode1", lam_star, 0.8, 1.2)) < 1e-10


def test_optimal_temperature_residual_large_inputs():
    # the right side decays as e^{-2|r|} and the left as 1 / lambda1, so
    # large inputs give finite residuals; one past float64's range is refused
    assert formulas.optimal_temperature_residual("phase", 2.0, 400.0, 1.0) == 8.0 / 25.0
    assert formulas.optimal_temperature_residual("squeeze1-mode1", 2.0, -400.0, 1.0) \
        == 8.0 / 25.0
    assert formulas.optimal_temperature_residual("phase", 1e200, 400.0, 0.0) == 1e-200
    right = 1.0 / (2.0 * np.sinh(2.0) ** 2) * np.exp(2.0)
    got = formulas.optimal_temperature_residual("phase", 1e200, 1.0, 1.0)
    assert abs(got + right) <= 1e-14 * right
    for args in (("phase", 2.0, 1e-300, 1.0), ("squeeze1-mode1", 2.0, 1.0, 1e200)):
        with pytest.raises(NumericalInstabilityError, match="overflows"):
            formulas.optimal_temperature_residual(*args)


def test_phase_residual_requires_nonzero_r():
    with pytest.raises(InvalidInputError):
        formulas.optimal_temperature_residual("phase", 2.0, 0.0, 1.0)


@pytest.mark.parametrize("call", [
    lambda: formulas.qfi_onemode_probe_on_twomode("beamsplit", np.nan, 0.3),
    lambda: formulas.optimal_temperature_residual("phase", np.nan, 0.3, 1.0),
    lambda: formulas.universal_mix_probe_qfi(0.3, np.nan, 0.0),
    lambda: formulas.universal_mix_probe_qfi(0.3, 0.0, np.nan),
    lambda: formulas.optimal_temperature("phase", 0.3, 1.0, lam_max=np.nan),
    lambda: formulas.optimal_temperature("phase", np.nan, 1.0),
    lambda: formulas.optimal_temperature_residual("phase", 2.0, np.nan, 1.0),
    lambda: formulas.universal_mix_probe_qfi(np.nan),
])
def test_range_checks_reject_nan(call):
    # nan < floor is false, so each check is written to fail on NaN
    with pytest.raises(InvalidInputError):
        call()


@pytest.mark.parametrize("call", [
    lambda: formulas.optimal_temperature("phase", 1.0, 1.0, lam_max=np.inf),
    lambda: formulas.optimal_temperature_residual("phase", 2.0, 0.3, np.inf),
    lambda: formulas.optimal_temperature_residual("phase", np.inf, 0.3, 1.0),
    lambda: formulas.universal_mix_probe_qfi(np.inf),
    lambda: formulas.universal_mix_probe_qfi(0.3, np.inf, 0.0),
])
def test_range_checks_reject_infinity(call):
    # infinity passes a floor check, so each range has a finite ceiling too
    with pytest.raises(InvalidInputError, match="finite"):
        call()


@pytest.mark.parametrize("call", [
    lambda: formulas.qfi_onemode_probe_on_twomode("mix", 1.0, 0.3),
    lambda: formulas.qfi_onemode_probe_on_twomode("st", 1.0, 0.3),
    lambda: formulas.optimal_temperature_residual("squeeze1", 2.0, 0.3, 1.0),
])
def test_channel_kinds_are_catalog_names(call):
    with pytest.raises(InvalidInputError, match="unknown"):
        call()
