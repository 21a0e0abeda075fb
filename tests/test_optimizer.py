import itertools

import numpy as np
import pytest

import gaussqfi as gq
from gaussqfi import formulas, optimizer
from gaussqfi.errors import DegenerateBudgetError, InvalidInputError, \
    NumericalInstabilityError
from gaussqfi.optimizer import (
    FAMILY_COHERENT,
    FAMILY_ONE_MODE_PROBE,
    FAMILY_OPTIMAL,
    MAX_RESTARTS,
    ONE_MODE,
    TWO_MODE,
    EnergyBudget,
    OptimizerConfig,
    _decode,
    _gradient,
    _objective,
    _offset_points,
    _start_points,
    minimize,
    optimize_probe,
    scaling_exponent,
)
from gaussqfi.qfi import qfi_kernel
from conftest import layout_blocks

QUICK = OptimizerConfig(restarts=6, seed=11)


def test_budget_rejects_infeasible():
    with pytest.raises(InvalidInputError):
        EnergyBudget(1.0, ((0.7, 0.5),))
    with pytest.raises(InvalidInputError):
        EnergyBudget(-1.0)


@pytest.mark.parametrize("kwargs", [
    {"n_total": float("nan")},
    {"n_total": float("inf")},
    {"n_total": 1.0, "splits": ((float("nan"), 0.0),)},
    {"n_total": 1.0, "splits": ((0.0, float("nan")),)},
])
def test_budget_rejects_non_finite(kwargs):
    with pytest.raises(InvalidInputError):
        EnergyBudget(**kwargs)


def test_batched_objective_matches_engine(rng):
    # the optimizer's batched objective is the public engine's value of the
    # probe _decode reports, bit for bit, row by row: at angles of +-pi, -0,
    # 3 pi and 1e3, and at energy coordinates 0 and +-pi/2 (fractions 0 and 1)
    for fam, channel in ((ONE_MODE, gq.combined_channel(0.7, 1.2, 0.4)),
                         (TWO_MODE, gq.mix_channel(0.3)),
                         (TWO_MODE, gq.twomode_squeeze_channel(0.9))):
        dim = 4 if fam == ONE_MODE else 11
        na = len(optimizer._PARAMS[fam].ANGLES)
        n_total = float(rng.uniform(0.2, 4.0))
        xs = rng.normal(size=(40, dim)) * 2.0
        xs[:16, :na] = rng.choice(_SPECIAL_ANGLES, size=(16, na))
        xs[8:24, na:] = rng.choice(_ENERGY_ENDS, size=(16, dim - na))
        fast = _objective(xs, fam, n_total, None, channel.generator.ikw(),
                          channel.generator.gamma)
        for x, value in zip(xs, fast):
            params, _, _ = _decode(x, fam, n_total, None)
            slow = gq.qfi_unitary(params.to_probe_state(), channel).total
            assert value.hex() == (-slow).hex()
            # every candidate the search can visit is exactly on budget,
            # counted on the state it builds
            got = gq.mean_photon_number(params.to_probe_state().to_state())
            assert abs(got - n_total) < 1e-8


def _reference_arrays(family, f):
    """``arrays`` of the field columns ``f`` (name -> (B,)), written out with
    ``np.exp`` phases and ``np.array``/``np.stack`` assembly of ``S_0``."""
    if family == ONE_MODE:
        u = np.exp(-1j * f["theta"])[None, None]
        r, lams = f["r"][None], f["lambda1"][None]
        d_tilde = (f["d_mag"] * np.exp(1j * f["phi_d"]))[None]
    else:
        ct, st = np.cos(f["theta"]), np.sin(f["theta"])
        e1, e2 = np.exp(-1j * f["phi1"]), np.exp(-1j * f["phi2"])
        ep, em = np.exp(-1j * f["psi"]), np.exp(1j * f["psi"])
        u = np.array([[e1 * ct * ep, e1 * st * em],
                      [-e2 * st * ep, e2 * ct * em]])
        r, lams = np.stack([f["r1"], f["r2"]]), np.stack([f["lambda1"], f["lambda2"]])
        d_tilde = np.stack([f["d1_mag"] * np.exp(1j * f["phi_d1"]),
                            f["d2_mag"] * np.exp(1j * f["phi_d2"])])
    top, right = u * np.cosh(r)[None], -u * np.sinh(r)[None]
    s0 = np.concatenate([np.concatenate([top, right], axis=1),
                         np.concatenate([right.conj(), top.conj()], axis=1)])
    return s0, lams, d_tilde


def _reference_decode(x, family, n_total, constraint):
    """Field columns and energy fractions of search vectors ``x`` (B, dim),
    decoded one column at a time, with ``np.mod`` angles."""
    cls = optimizer._PARAMS[family]
    b, na, modes = len(x), len(cls.ANGLES), len(cls.ENERGY)
    if modes == 1:
        g = np.ones((b, 1))
    else:
        g1 = np.sin(x[:, na]) ** 2
        g = np.stack([g1, 1.0 - g1], axis=1)
    if constraint == "coherent-only":
        f_d, f_th = np.ones((b, modes)), np.zeros((b, modes))
    elif constraint == "squeezing-only":
        f_d, f_th = np.zeros((b, modes)), np.zeros((b, modes))
    else:
        u = np.sin(x[:, na + modes - 1:na + 3 * modes - 1]) ** 2
        f_d = u[:, 0::2]
        f_th = (1.0 - f_d) * u[:, 1::2]
    n_k = g * n_total
    n_d, n_th = f_d * n_k, f_th * n_k
    lams = 1.0 + 2.0 * n_th
    r = np.arcsinh(np.sqrt(np.maximum(n_k - n_d - n_th, 0.0) / lams))
    d_mag = np.sqrt(n_d)
    fields = dict(zip(cls.ANGLES, (np.mod(x[:, :na] + np.pi, 2 * np.pi) - np.pi).T))
    for k, names in enumerate(cls.ENERGY):
        fields.update(zip(names, (lams[:, k], r[:, k], d_mag[:, k])))
    return fields, (f_d, f_th, g)


_SPECIAL_ANGLES = np.array([np.pi, -np.pi, -0.0, 0.0, 3 * np.pi, -7 * np.pi, 1e3, -250.0])
# energy coordinates at the ends of [0, 1]: sin^2 is 0 at 0 and 1 at +-pi/2
_ENERGY_ENDS = np.array([0.0, -0.0, np.pi / 2, -np.pi / 2])


def _assert_same_bits(got, want):
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("family,channel", [
    (ONE_MODE, gq.combined_channel(0.7, 1.2, 0.4)),
    (TWO_MODE, gq.twomode_squeeze_channel(0.9)),
])
@pytest.mark.parametrize("constraint", [None, "coherent-only", "squeezing-only"])
def test_block_decode_matches_column_decode_bit_for_bit(rng, family, channel, constraint):
    # the decode of a whole batch as one block gives the bits of a column
    # by column decode, for angles far outside [-pi, pi), at +-pi and at -0,
    # and for energy coordinates at the ends of [0, 1] and many periods out
    cls = optimizer._PARAMS[family]
    na, modes = len(cls.ANGLES), len(cls.ENERGY)
    dim = na + modes - 1 + (0 if constraint else 2 * modes)
    x = rng.normal(size=(64, dim)) * 3.0
    x[:32, :na] = rng.choice(_SPECIAL_ANGLES, size=(32, na))
    x[32:48, :na] *= 40.0
    x[48:56, na:] = rng.choice(_ENERGY_ENDS, size=(8, dim - na))
    x[56:, na:] *= 300.0
    n_total = 1.3
    fields, fractions = _reference_decode(x, family, n_total, constraint)
    want = _reference_arrays(family, fields)
    columns, got_fractions = optimizer._columns(x, family, n_total, constraint)
    _assert_same_bits(cls.arrays(*columns), want)
    _assert_same_bits(got_fractions, [f.T for f in fractions])
    ikw, gamma = channel.generator.ikw(), channel.generator.gamma
    value = -sum(qfi_kernel(*want, ikw, gamma))
    value = np.where(np.isfinite(value), value, np.inf)
    assert np.all(_objective(x, family, n_total, constraint, ikw, gamma) == value)
    for b in range(0, len(x), 7):
        assert _objective(x[b:b + 1], family, n_total, constraint, ikw, gamma)[0] == value[b]


@pytest.mark.parametrize("family", [ONE_MODE, TWO_MODE])
def test_arrays_match_np_exp_bit_for_bit(rng, family):
    # unwrapped field values, as probe_arrays passes them, at B = 1 and in a batch
    cls = optimizer._PARAMS[family]
    fields = {}
    for name in cls.__dataclass_fields__:
        if name in cls.ANGLES:
            fields[name] = np.concatenate([rng.choice(_SPECIAL_ANGLES, 24),
                                           rng.uniform(-60.0, 60.0, 24)])
        else:
            fields[name] = rng.uniform(1.0 if name.startswith("lambda") else -1.5, 2.0, 48)
    want = _reference_arrays(family, fields)
    blocks = layout_blocks(cls, fields)
    _assert_same_bits(cls.arrays(*blocks), want)
    for b in range(0, 48, 5):
        one = cls.arrays(*(block[:, b:b + 1] for block in blocks))
        _assert_same_bits(one, (w[..., b:b + 1] for w in want))


_SEARCH_CASES = [(gq.combined_channel(0.7, 1.2, 0.4), ONE_MODE, 1.0, None),
             (gq.squeeze_channel(0.6), ONE_MODE, 2.0, "coherent-only"),
             # a coherent probe's phase QFI is 4 n at every angle: all ties
             (gq.phase_channel(), ONE_MODE, 1.0, "coherent-only"),
             (gq.mix_channel(0.3), TWO_MODE, 1.0, "coherent-only"),
             (gq.twomode_squeeze_channel(0.9), TWO_MODE, 1.5, None)]


def _search_objective(channel, family, n_total, constraint):
    ikw, gamma = channel.generator.ikw(), channel.generator.gamma
    return lambda x: _objective(x, family, n_total, constraint, ikw, gamma)


def _scalar_start_points(family, constraint, config):
    """The start points one restart and one coordinate at a time: the
    Halton radical inverse as a digit loop and the ``sin^2`` coordinate
    ``asin(sqrt(p))`` of a float share ``p``."""
    def halton(index, base):
        result, f = 0.0, 1.0
        while index > 0:
            f /= base
            result += f * (index % base)
            index //= base
        return result

    def coordinate(p):
        return float(np.arcsin(np.sqrt(p)))

    bases = (2, 3, 5, 7, 11, 13)
    lattice = ((0.0, 0.0), (0.5, 0.0), (0.0, 0.5), (0.3, 0.3))
    cls = optimizer._PARAMS[family]
    starts = []
    for i in range(config.restarts):
        idx = config.seed * 1000 + i + 1
        x = [2 * np.pi * (halton(idx, bases[j % len(bases)]) - 0.5)
             for j in range(len(cls.ANGLES))]
        x += [coordinate(0.25 + 0.5 * halton(idx, 17))] * (len(cls.ENERGY) - 1)
        if not constraint:
            fd, ft = lattice[i % len(lattice)]
            x += [coordinate(fd), coordinate(ft)] * len(cls.ENERGY)
        starts.append(x)
    return np.array(starts)


@pytest.mark.parametrize("family", [ONE_MODE, TWO_MODE])
@pytest.mark.parametrize("constraint", [None, "coherent-only", "squeezing-only"])
@pytest.mark.parametrize("restarts", [1, 32, 1024])
def test_start_points_match_scalar_loop_bit_for_bit(family, constraint, restarts):
    # the Halton points of all restarts are computed as arrays at once;
    # seeds whose indices pass int64 are covered too
    for seed in (0, 7, 123, 99999, 20260810, 10 ** 17):
        config = OptimizerConfig(restarts=restarts, seed=seed)
        fast = _start_points(family, constraint, config)
        slow = _scalar_start_points(family, constraint, config)
        assert fast.shape == slow.shape and fast.flags.c_contiguous
        assert fast.tobytes() == slow.tobytes()


@pytest.mark.parametrize("dim", [2, 11])
def test_minimize_spd_quadratics(rng, dim):
    # random positive-definite quadratics, each run from a batch of 8
    # starts: every row reaches the known minimizer
    for _ in range(6):
        a = rng.normal(size=(dim, dim))
        hess = a @ a.T + 0.5 * np.eye(dim)
        centre = rng.normal(size=dim)

        def fun(x):
            dx = x - centre
            return 0.5 * np.sum((dx @ hess) * dx, axis=1)

        res = minimize(fun, centre + 3.0 * rng.normal(size=(8, dim)))
        assert res.success
        assert np.max(np.abs(res.x - centre)) < 1e-6


@pytest.mark.parametrize("channel,family,n_total,constraint", _SEARCH_CASES)
def test_minimize_converges_on_search_objectives(channel, family, n_total, constraint):
    fun = _search_objective(channel, family, n_total, constraint)
    starts = _start_points(family, constraint, OptimizerConfig(restarts=8, seed=5))
    res = minimize(fun, starts)
    assert isinstance(res.nfev, int) and isinstance(res.success, bool)
    assert res.success
    assert np.all(res.fun <= fun(starts))


@pytest.mark.parametrize("channel,family,n_total,constraint",
                         [_SEARCH_CASES[0], _SEARCH_CASES[4]],
                         ids=["one-mode-combined", "two-mode-squeeze"])
def test_restart_independent_of_batch(channel, family, n_total, constraint):
    # a start's result does not depend on the batch it runs in
    fun = _search_objective(channel, family, n_total, constraint)
    starts = _start_points(family, constraint, OptimizerConfig(restarts=4, seed=3))
    # with central differences throughout and with optimize_probe's
    # forward differences on the angles
    for forward in (0, len(optimizer._PARAMS[family].ANGLES)):
        together = minimize(fun, starts, forward)
        for b, x0 in enumerate(starts):
            alone = minimize(fun, x0[None], forward)
            assert alone.fun[0] == together.fun[b]
            assert np.array_equal(alone.x[0], together.x[b])
            assert alone.converged[0] == together.converged[b]


def _gradients(fun, x, forward):
    """The gradients ``minimize`` takes at the rows of ``x``."""
    return _gradient(fun(_offset_points(x, forward)), fun(x), forward)


_GRADIENT_CASES = [
    pytest.param(gq.combined_channel(0.7, 1.2, 0.4), ONE_MODE, id="one-mode-combined"),
    pytest.param(gq.twomode_squeeze_channel(0.9), TWO_MODE, id="two-mode-squeeze"),
    pytest.param(gq.mix_channel(0.3), TWO_MODE, id="two-mode-mix")]


@pytest.mark.parametrize("channel,family", _GRADIENT_CASES)
def test_forward_differences_match_central_ones(rng, channel, family):
    # at random batched points the angles' forward differences (step h)
    # match central ones to h/2 |f''| + 2 delta/h + delta/_DIFF_STEP:
    # truncation, with f'' from a second difference at step 1e-3, plus the
    # rounding of both schemes, delta = 16 eps |f| bounding the objective's
    # own error; every other coordinate keeps its central difference bit
    # for bit
    na = len(optimizer._PARAMS[family].ANGLES)
    fun = _search_objective(channel, family, 2.0, None)
    dim = _start_points(family, None, QUICK).shape[1]
    x = rng.uniform(-np.pi, np.pi, (32, dim))
    mixed, central = _gradients(fun, x, na), _gradients(fun, x, 0)
    assert np.array_equal(mixed[:, na:], central[:, na:])
    step, f = 1e-3, fun(x)[:, None]
    up, down = (fun((x[:, None, :] + sign * step * np.eye(dim)[:na]).reshape(-1, dim))
                .reshape(len(x), na) for sign in (1, -1))
    curvature = np.abs(up - 2 * f + down) / step ** 2
    h, delta = optimizer._FORWARD_STEP, 16 * np.finfo(float).eps * np.abs(f)
    bound = h / 2 * curvature + 2 * delta / h + delta / optimizer._DIFF_STEP
    assert np.all(np.abs(mixed[:, :na] - central[:, :na]) <= bound)


@pytest.mark.parametrize("channel,family", _GRADIENT_CASES)
def test_central_differences_vanish_where_sin2_is_stationary(rng, channel, family):
    # share and energy coordinates at exactly 0 (fractions 0 and 1) get a
    # gradient of exactly 0.0, so the descent never moves them off their
    # exact endpoints
    na = len(optimizer._PARAMS[family].ANGLES)
    fun = _search_objective(channel, family, 2.0, None)
    x = np.zeros((32, _start_points(family, None, QUICK).shape[1]))
    x[:, :na] = rng.uniform(-np.pi, np.pi, (32, na))
    g = _gradients(fun, x, na)
    assert np.all(np.isfinite(g[:, :na])) and np.any(g[:, :na] != 0.0)
    assert np.all(g[:, na:] == 0.0)


@pytest.mark.parametrize("seed", range(5))
def test_free_solves_reach_targets_without_warm_starts(seed):
    # criterion 2's unconstrained cases at n = 1 from Halton starts alone:
    # the one-mode limit-table maxima and the two-mode concentrated-squeezing
    # values 2 sinh^2(2 r) and 2 cosh^2(2 r) + 2 at sinh^2 r = 1
    config = OptimizerConfig(restarts=8, seed=seed)
    r = np.arcsinh(1.0)
    for channel, family, target in (
            (gq.phase_channel(), ONE_MODE, 16.0),
            (gq.squeeze_channel(0.0), ONE_MODE, 18.0),
            (gq.mix_channel(), TWO_MODE, 2 * np.sinh(2 * r) ** 2),
            (gq.twomode_squeeze_channel(), TWO_MODE, 2 * np.cosh(2 * r) ** 2 + 2)):
        splits = ((0.0, 0.0),) * (1 if family == ONE_MODE else 2)
        result = optimize_probe(channel, family, EnergyBudget(1.0, splits), config)
        assert result.best_qfi >= target * (1.0 - 1e-12)
        assert result.converged


_LIMITS = formulas.limit_table()
# criterion 2's channels, each with the family that searches it
_CRITERION_2 = {"phase": (gq.phase_channel(), ONE_MODE),
                "squeeze1-mode1": (gq.squeeze_channel(0.0), ONE_MODE),
                "beamsplit": (gq.mix_channel(), TWO_MODE),
                "two-mode-squeeze": (gq.twomode_squeeze_channel(), TWO_MODE)}


def _free_target(kind, n):
    """The one-mode family maxima, and for two modes the concentrated
    squeezing values 2 sinh^2(2 r) and 2 cosh^2(2 r) + 2 at sinh^2 r = n."""
    if _CRITERION_2[kind][1] == ONE_MODE:
        return _LIMITS[kind].heisenberg(n)
    r = np.arcsinh(np.sqrt(n))
    return 2 * np.sinh(2 * r) ** 2 if kind == "beamsplit" else 2 * np.cosh(2 * r) ** 2 + 2


def _solve(kind, n, config, constraint=None):
    channel, family = _CRITERION_2[kind]
    split = ((1.0 if constraint else 0.0, 0.0),) * channel.modes
    return optimize_probe(channel, family, EnergyBudget(n, split), config,
                          constraint=constraint)


def test_criterion_2_free_solves_reach_targets_to_rounding(monkeypatch):
    # the optima put all energy into squeezing, at sin^2 coordinates that
    # the descent reaches exactly: every restart converges and the best
    # value is the target to rounding
    runs = []

    def recorded(fun, x0, forward=0):
        runs.append(minimize(fun, x0, forward))
        return runs[-1]

    monkeypatch.setattr(optimizer, "minimize", recorded)
    config = OptimizerConfig(restarts=32, seed=20260810)
    for kind in _CRITERION_2:
        for n in (1.0, 2.0):
            result = _solve(kind, n, config)
            target = _free_target(kind, n)
            assert abs(result.best_qfi - target) <= 1e-13 * target, (kind, n)
            assert runs[-1].success, (kind, n)
            if kind == "phase" and n == 2.0:
                assert result.best_params["splits"][0][0] == 0.0


@pytest.mark.parametrize("kind,n,constraint,nfev,calls", [
    ("two-mode-squeeze", 1.0, None, 12096, 40),
    ("phase", 2.0, None, 3129, 24),
    ("beamsplit", 1.0, "coherent-only", 704, 2),
    ("squeeze1-mode1", 2.0, "coherent-only", 512, 2)])
def test_criterion_2_solves_keep_their_work(monkeypatch, kind, n, constraint, nfev, calls):
    # points evaluated and objective calls of criterion 2's solves: a decode
    # change that moves the search path fails a count, not only the clock
    runs, batches = [], []

    def recorded(fun, x0, forward=0):
        def counted(x):
            batches.append(len(x))
            return fun(x)

        runs.append(minimize(counted, x0, forward))
        return runs[-1]

    monkeypatch.setattr(optimizer, "minimize", recorded)
    _solve(kind, n, OptimizerConfig(restarts=32, seed=20260810), constraint)
    assert (runs[0].nfev, sum(batches), len(batches)) == (nfev, nfev, calls)


@pytest.mark.slow
def test_sweep_misses_no_target():
    # 640 solves: seeds 0-9, 32 and 8 restarts, criterion 2's channels free
    # and coherent-only, n in {0.5, 1, 2, 5}
    worst = 0.0
    for seed in range(10):
        for restarts in (32, 8):
            config = OptimizerConfig(restarts=restarts, seed=seed)
            for kind, n, constraint in itertools.product(
                    _CRITERION_2, (0.5, 1.0, 2.0, 5.0), (None, "coherent-only")):
                result = _solve(kind, n, config, constraint)
                want = (_LIMITS[kind].shotnoise(n) if constraint
                        else _free_target(kind, n))
                gap = abs(result.best_qfi - want) / max(1.0, want)
                case = (seed, restarts, kind, n, constraint, gap)
                assert gap <= (1e-9 if constraint else 1e-4), case
                assert result.converged, case
                worst = max(worst, gap)
    assert worst <= 1e-12


def test_phase_channel_heisenberg():
    result = optimize_probe(gq.phase_channel(), ONE_MODE, EnergyBudget(1.0), QUICK)
    assert result.best_qfi >= 16.0 - 1e-6
    fd, ft = result.best_params["splits"][0]
    assert fd < 1e-3 and ft < 1e-3
    assert result.converged


def test_squeeze_channel_optimum_angles():
    chi = 0.6
    result = optimize_probe(gq.squeeze_channel(chi), ONE_MODE, EnergyBudget(1.0), QUICK)
    assert result.best_qfi >= 18.0 - 1e-6
    probe = result.best_params["probe"]
    assert abs(abs(np.sin(2 * probe.theta + chi)) - 1.0) < 1e-3


def test_determinism():
    cfg = OptimizerConfig(restarts=5, seed=42)
    a = optimize_probe(gq.phase_channel(), ONE_MODE, EnergyBudget(1.3), cfg)
    b = optimize_probe(gq.phase_channel(), ONE_MODE, EnergyBudget(1.3), cfg)
    assert a.best_qfi == b.best_qfi
    assert a.trace == b.trace
    assert a.best_params["probe"] == b.best_params["probe"]


@pytest.mark.parametrize("channel,family,target", [
    (gq.phase_channel(), ONE_MODE, 16.0),
    (gq.mix_channel(), TWO_MODE, 16.0),
    (gq.twomode_squeeze_channel(), TWO_MODE, 20.0)])
def test_squeezing_only_reaches_free_optimum(channel, family, target):
    # at n = 1 the free optima spend nothing on displacement or temperature,
    # so the squeezing-only search reaches them with every split (0, 0)
    splits = ((0.0, 0.0),) * channel.modes
    result = optimize_probe(channel, family, EnergyBudget(1.0, splits),
                            OptimizerConfig(restarts=8), constraint="squeezing-only")
    assert abs(result.best_qfi - target) <= 1e-9 * target
    assert result.best_params["splits"] == splits
    assert result.converged


@pytest.mark.parametrize("n_total", [1e154, 1e300])
def test_overflowing_start_fails_the_search(n_total):
    # squeezed starts overflow while thermal-heavy ones stay finite; their
    # finite best (about 7e15) would understate a maximum past float64's range
    with pytest.raises(NumericalInstabilityError, match=r"^\d+ of 6 optimizer starts aborted"):
        optimize_probe(gq.phase_channel(), ONE_MODE, EnergyBudget(n_total), QUICK)


def test_numerical_failures_raise_numerical_instability(monkeypatch):
    # every start aborted
    with monkeypatch.context() as m, np.errstate(invalid="ignore"):
        m.setattr(optimizer, "_objective", lambda x, *args: np.full(len(x), np.inf))
        with pytest.raises(NumericalInstabilityError, match="aborted"):
            optimize_probe(gq.phase_channel(), ONE_MODE, EnergyBudget(1.0), QUICK)
    # the engine disagrees with the search objective at the optimum
    breakdown = optimizer.qfi_unitary(gq.OneModeProbeParams().to_probe_state(),
                                      gq.phase_channel())
    monkeypatch.setattr(optimizer, "qfi_unitary", lambda *args: breakdown)
    with pytest.raises(NumericalInstabilityError, match="disagree"):
        optimize_probe(gq.phase_channel(), ONE_MODE, EnergyBudget(1.0), QUICK)


def test_restarts_bounded():
    assert OptimizerConfig(restarts=MAX_RESTARTS).restarts == MAX_RESTARTS
    for restarts in (0, MAX_RESTARTS + 1, 2.5):
        with pytest.raises(InvalidInputError, match="restarts"):
            OptimizerConfig(restarts=restarts)
    with pytest.raises(InvalidInputError, match="seed"):
        OptimizerConfig(seed=0.7)


@pytest.mark.parametrize("seed", [-1, -5, -1e30])
def test_negative_seed_refused(seed):
    # a negative seed gives Halton indices below 1, which all read 0: the
    # restarts would share their start points
    with pytest.raises(InvalidInputError, match="seed must be >= 0"):
        OptimizerConfig(seed=seed)
    with pytest.raises(InvalidInputError, match="seed must be >= 0"):
        OptimizerConfig.from_dict({"seed": seed})


def test_degenerate_budget():
    with pytest.raises(DegenerateBudgetError):
        optimize_probe(gq.phase_channel(), ONE_MODE, EnergyBudget(0.0), QUICK)


def test_trace_monotone_bound():
    result = optimize_probe(gq.squeeze_channel(0.0), ONE_MODE, EnergyBudget(1.0), QUICK)
    best_index = max(result.trace, key=lambda t: t[1])[0]
    for idx, value in result.trace:
        if idx >= best_index:
            assert result.best_qfi >= value - 1e-12


def test_psi_redundant_at_zero_mixing(rng):
    # at theta = 0 the asymmetric rotation only relabels the local phases
    # (phi1 -> phi1 + psi, phi2 -> phi2 - psi): any psi is reachable at
    # psi = 0, so the parameter adds nothing to the family there
    for channel in (gq.mix_channel(0.4), gq.twomode_squeeze_channel(0.7)):
        base = gq.TwoModeProbeParams(lambda1=1.3, lambda2=1.1, r1=0.5, r2=0.3,
                                     theta=0.0, psi=0.0, phi1=0.2, phi2=-0.4,
                                     d1_mag=0.6, d2_mag=0.4, phi_d1=0.1, phi_d2=0.9)
        h0 = gq.qfi_unitary(base.to_probe_state(), channel).total
        for _ in range(20):
            psi = float(rng.uniform(-np.pi, np.pi))
            shifted = gq.TwoModeProbeParams(
                lambda1=base.lambda1, lambda2=base.lambda2, r1=base.r1, r2=base.r2,
                theta=0.0, psi=psi, phi1=base.phi1 - psi, phi2=base.phi2 + psi,
                d1_mag=base.d1_mag, d2_mag=base.d2_mag,
                phi_d1=base.phi_d1, phi_d2=base.phi_d2)
            h1 = gq.qfi_unitary(shifted.to_probe_state(), channel).total
            assert abs(h1 - h0) < 1e-9 * max(1.0, abs(h0))


def test_psi_literal_invariance_undisplaced_st(rng):
    # for the two-mode squeezer with no displacement the invariance holds
    # pointwise: phi_chi = phi1 + phi2 + chi absorbs the +-psi shifts
    channel = gq.twomode_squeeze_channel(0.7)
    base = dict(lambda1=1.3, lambda2=1.1, r1=0.5, r2=0.3, theta=0.0,
                phi1=0.2, phi2=-0.4)
    h0 = gq.qfi_unitary(gq.TwoModeProbeParams(psi=0.0, **base).to_probe_state(),
                        channel).total
    for _ in range(20):
        psi = float(rng.uniform(-np.pi, np.pi))
        h1 = gq.qfi_unitary(gq.TwoModeProbeParams(psi=psi, **base).to_probe_state(),
                            channel).total
        assert abs(h1 - h0) < 1e-9 * max(1.0, abs(h0))


def test_scaling_exponents_basic():
    grid = [1, 2, 4, 8, 16, 32, 64]
    fit = scaling_exponent(gq.phase_channel(), FAMILY_OPTIMAL, grid)
    assert abs(fit.exponent - 2.0) <= 0.05
    fit = scaling_exponent(gq.phase_channel(), FAMILY_COHERENT, grid)
    assert abs(fit.exponent - 1.0) <= 0.05
    fit = scaling_exponent(gq.twomode_squeeze_channel(), FAMILY_ONE_MODE_PROBE, grid)
    assert abs(fit.exponent - 1.0) <= 0.05


def test_scaling_rejects_unknown_family():
    # a typo must not fall back to another strategy
    with pytest.raises(InvalidInputError, match="coherent"):
        scaling_exponent(gq.phase_channel(), "coherent", [1, 2, 4, 8, 16])


def test_scaling_grid_validation():
    with pytest.raises(InvalidInputError):
        scaling_exponent(gq.phase_channel(), FAMILY_OPTIMAL, [1, 2, 3])
    with pytest.raises(InvalidInputError):
        scaling_exponent(gq.phase_channel(), FAMILY_OPTIMAL, [1, 2, 4, 8])


@pytest.mark.parametrize("channel, n, restarts, seed, want", [
    (gq.phase_channel(), 0.5, 4, 5, 6.0),
    (gq.phase_channel(), 1.0, 4, 5, 16.0),
    (gq.mix_channel(), 2.0, 32, 9, 32.0),
], ids=["phase-n0.5", "phase-n1", "mix-n2"])
def test_unconstrained_optimum_puts_all_energy_in_squeezing(channel, n, restarts, seed,
                                                            want):
    # phase reaches 8 n (n + 1) and the mixer at least the equal-split
    # 4 n (n + 2), each with no displacement or thermal energy: the
    # fractions are of the whole budget, since a mode with no energy share
    # carries none, whatever its own split
    family = ONE_MODE if channel.modes == 1 else TWO_MODE
    result = optimize_probe(channel, family, EnergyBudget(n, ((0.0, 0.0),) * channel.modes),
                            OptimizerConfig(restarts=restarts, seed=seed))
    fractions = result.best_params["mode_fractions"]
    splits = result.best_params["splits"]
    assert sum(g * fd for g, (fd, _) in zip(fractions, splits)) < 1e-3
    assert sum(g * ft for g, (_, ft) in zip(fractions, splits)) < 1e-3
    assert result.best_qfi >= want - 1e-6


def test_scaling_matches_per_probe_engine():
    # one batched kernel call gives the per-probe engine values bit for bit
    from gaussqfi.optimizer import SCALING_FAMILIES, _strategy_probe
    from gaussqfi.qfi import qfi_unitary

    grid = [0.5, 1.0, 3.0, 10.0, 40.0, 200.0]
    chans = [gq.phase_channel(), gq.squeeze_channel(0.3),
             gq.squeeze_channel(0.3, mode=1, modes=2), gq.mix_channel(0.3),
             gq.twomode_squeeze_channel(0.3), gq.combined_channel(1.0, 0.5, 0.3)]
    assert sorted({c.kind for c in chans}) == sorted(gq.channels.CATALOG)
    accepted = 0
    for channel in chans:
        for family in SCALING_FAMILIES:
            try:
                probes = [_strategy_probe(channel, family, n) for n in grid]
            except InvalidInputError:
                with pytest.raises(InvalidInputError):
                    scaling_exponent(channel, family, grid)
                continue
            accepted += 1
            values = [qfi_unitary(p.to_probe_state(), channel).total for p in probes]
            fit = scaling_exponent(channel, family, grid)
            assert fit.qfi_values == tuple(values), (channel.kind, family)
            tail = len(grid) // 2
            slope, _ = np.polyfit(np.log(grid[tail:]), np.log(values[tail:]), 1)
            assert fit.exponent == float(slope)
    assert accepted == 14
