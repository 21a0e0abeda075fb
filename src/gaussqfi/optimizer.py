"""Energy-constrained probe optimization and scaling-exponent fits.

The search runs a quasi-Newton (BFGS) descent with an Armijo line search
from many starts in lockstep: each iteration evaluates 13 trial steps of
every active start in one batched ``qfi.qfi_kernel`` call and the
finite-difference gradients at the accepted points in a second, and a
start stops once a step gains almost nothing.  Every iterate is exactly on
the energy budget: the mode share and the per-mode displacement and
thermal fractions are ``sin^2`` of their coordinates (Box, Comput. J. 9,
67 (1966)), which reaches 0 and 1 at finite, stationary points, and
squeezing absorbs the rest.  Those coordinates take central differences,
which are exactly 0 at a coordinate of 0, so a fraction that starts at 0
stays exactly 0; the periodic angles have no such point and take one-sided
differences from the value already known at the point.  A batch of search
vectors is decoded as one transposed (dim, B) block, with its angles
wrapped into [-pi, pi) together, into the blocks of the family's layout
that its ``arrays`` turns into kernel inputs.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields

import numpy as np

from ._util import _is_integral, _only_keys
from .channels import (
    BEAMSPLIT,
    COMBINED,
    PHASE,
    SQUEEZE1_MODE1,
    TWOMODE_SQUEEZE,
    ChannelSpec,
)
from .errors import DegenerateBudgetError, InvalidInputError, NumericalInstabilityError
from .probes import OneModeProbeParams, TwoModeProbeParams, probe_arrays
from .qfi import finite_terms, qfi_kernel, qfi_unitary

ONE_MODE = "one-mode"
TWO_MODE = "two-mode-restricted"

_PARAMS = {ONE_MODE: OneModeProbeParams, TWO_MODE: TwoModeProbeParams}

# a two-mode search at this many restarts peaks at about 86 MB of RSS, 27 MB
# above the idle process; its largest objective call is the start call's
# 17,408 points (17 per restart: the start and 16 difference points)
MAX_RESTARTS = 1024


@dataclass(frozen=True)
class EnergyBudget:
    """Mean-energy budget ``n_total`` of a probe search.

    ``splits[k] = (f_d, f_th)``, fractions of mode k's energy share, are
    checked but not read: the search places every split itself.  The field
    stays because callers pass it positionally, ``EnergyBudget(n, splits)``.
    """

    n_total: float
    splits: tuple = ((0.0, 0.0),)

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
        object.__setattr__(self, "splits", splits)


@dataclass(frozen=True)
class OptimizerConfig:
    """Number of search starts, 1 to ``MAX_RESTARTS`` (1024), and the seed,
    at least 0, that places them."""

    restarts: int = 32
    seed: int = 0

    def __post_init__(self):
        # messages print values as given: 1e300, not its 301 digits
        for f in fields(self):
            value = getattr(self, f.name)
            if not _is_integral(value):
                raise InvalidInputError(
                    f"optimizer setting {f.name!r} must be an integer, got {value!r}")
        if not 1 <= self.restarts <= MAX_RESTARTS:
            raise InvalidInputError(
                f"restarts must be in [1, {MAX_RESTARTS}], got {self.restarts!r}")
        if self.seed < 0:
            raise InvalidInputError(f"seed must be >= 0, got {self.seed!r}")
        # integral floats such as 4.0 are kept as ints
        object.__setattr__(self, "restarts", int(self.restarts))
        object.__setattr__(self, "seed", int(self.seed))

    @classmethod
    def from_dict(cls, data: dict) -> "OptimizerConfig":
        return cls(**_only_keys(data, [f.name for f in fields(cls)], "optimizer"))


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

def _energy_fractions(xt: np.ndarray, family: str, constraint: str):
    """Energy coordinates of search vectors, one per column of ``xt``
    (dim, B).

    A search vector is the family's ``ANGLES``, a share coordinate for each
    mode after the first, then (unconstrained) each mode's displacement and
    thermal coordinates.  Each coordinate ``x`` stands for ``sin(x)^2``,
    which is exactly 0 at ``x = 0`` and exactly 1 at ``x = +-pi/2``.
    Returns ``(f_d, f_th, g)``, each (modes, B): the displacement and
    thermal fractions of each mode's energy, and each mode's share of the
    budget.  Squeezing takes the rest of a mode's share.  A non-finite
    coordinate gives NaN fractions, which ``_objective`` scores ``+inf``.
    """
    b, cls = xt.shape[1], _PARAMS[family]
    modes = len(cls.ENERGY)
    # the share and energy rows in one call
    u = np.sin(xt[len(cls.ANGLES):]) ** 2
    # every family has one or two modes: the second takes the rest
    g = np.ones((1, b)) if modes == 1 else np.array([u[0], 1.0 - u[0]])
    if constraint == "coherent-only":
        return np.ones((modes, b)), np.zeros((modes, b)), g
    if constraint == "squeezing-only":
        return np.zeros((modes, b)), np.zeros((modes, b)), g
    f_d = u[modes - 1::2]
    return f_d, (1.0 - f_d) * u[modes::2], g


def _columns(x: np.ndarray, family: str, n_total: float, constraint: str):
    """Search vectors ``x`` (B, dim) as the blocks of the family's layout
    that ``arrays`` takes, ``(angles, lams, r, d_mag)``, and the
    ``_energy_fractions`` they came from.  The batch is decoded as one
    transposed (dim, B) block: squeezing takes the rest of each mode's
    energy, and the angle rows are wrapped into [-pi, pi) together."""
    xt = np.ascontiguousarray(x.T)
    f_d, f_th, g = _energy_fractions(xt, family, constraint)
    n_k = g * n_total
    n_d, n_th = f_d * n_k, f_th * n_k
    lams = 1.0 + 2.0 * n_th
    r = np.arcsinh(np.sqrt(np.maximum(n_k - n_d - n_th, 0.0) / lams))
    # np.mod(a + pi, 2 pi) - pi, bit for bit, without np.mod's slower loop
    angles = np.fmod(xt[:len(_PARAMS[family].ANGLES)] + np.pi, 2 * np.pi)
    angles += np.where(angles < 0, 2 * np.pi, 0.0)
    angles -= np.pi
    return (angles, lams, r, np.sqrt(n_d)), (f_d, f_th, g)


def _objective(x, family, n_total, constraint, ikw, gamma) -> np.ndarray:
    """Negative QFI of every decoded row of ``x`` (B, dim); ``+inf`` where
    it is not finite.  Every row is computed alone, so its value does not
    depend on the rest of the batch."""
    blocks, _ = _columns(x, family, n_total, constraint)
    s0, lams, d_tilde = _PARAMS[family].arrays(*blocks)
    value = -sum(qfi_kernel(s0, lams, d_tilde, ikw, gamma))
    return np.where(np.isfinite(value), value, np.inf)


def _decode(x: np.ndarray, family: str, n_total: float, constraint: str):
    """Map one unconstrained search vector to feasible probe parameters,
    each mode's ``(f_d, f_th)`` split and each mode's share of the budget."""
    (angles, *energy), fractions = _columns(np.asarray(x, dtype=float)[None], family,
                                            n_total, constraint)
    cls = _PARAMS[family]
    fields = dict(zip(cls.ANGLES, angles[:, 0].tolist()))
    for names, values in zip(cls.ENERGY, zip(*(b[:, 0].tolist() for b in energy))):
        fields.update(zip(names, values))
    f_d, f_th, g = (a[:, 0].tolist() for a in fractions)
    return cls(**fields), tuple(zip(f_d, f_th)), tuple(g)


def _halton(index: np.ndarray, bases: list) -> np.ndarray:
    """Radical inverse of every index (at least 1) in every base, (bases, indices).

    Each base expands all digits of all indices at once, least significant
    first, and adds ``digit * base^-k`` in that order, ``base^-k`` by
    repeated division."""
    top, rows = int(index.max()), []
    for base in bases:
        powers = [1]
        while powers[-1] * base <= top:
            powers.append(powers[-1] * base)
        digits = index // np.array(powers)[:, None] % base
        f = np.divide.accumulate(np.array([1.0] + [base] * len(powers)))[1:]
        rows.append(np.add.accumulate(f[:, None] * digits)[-1])
    # indices past int64 are Python ints, and their sums Python floats
    return np.array(rows, dtype=float)


_HALTON_BASES = (2, 3, 5, 7, 11, 13)
_SPLIT_LATTICE = np.array([(0.0, 0.0), (0.5, 0.0), (0.0, 0.5), (0.3, 0.3)])


def _start_points(family: str, constraint: str, config: OptimizerConfig):
    """``config.restarts`` search vectors (restarts, dim) in the layout of
    ``_energy_fractions``: Halton angles and mode share, energy fractions
    from a fixed lattice, each fraction ``p`` at ``asin(sqrt(p))``."""
    cls = _PARAMS[family]
    angles = len(cls.ANGLES)
    first = config.seed * 1000 + 1
    # int64 where the indices fit, else exact Python ints
    idx = np.array(range(first, first + config.restarts))
    # one base per angle, then base 17 for a second mode's share
    h = _halton(idx, [_HALTON_BASES[j % len(_HALTON_BASES)] for j in range(angles)]
                + [17] * (len(cls.ENERGY) - 1))
    rows = [2 * np.pi * (h[:angles] - 0.5), np.arcsin(np.sqrt(0.25 + 0.5 * h[angles:]))]
    if not constraint:
        split = _SPLIT_LATTICE[np.arange(config.restarts) % len(_SPLIT_LATTICE)]
        rows += [np.arcsin(np.sqrt(split)).T] * len(cls.ENERGY)
    return np.ascontiguousarray(np.concatenate(rows).T)


# minimize: iteration cap, stop tolerance on a step's relative gain, central
# and forward difference steps (the forward one about sqrt(eps)), Armijo
# constant, trial steps (above 1 to stretch a step made too short; down to
# 2^-9 only: a restart that needs a shorter step stops there, and criterion
# 2's solves still reach every target, tests/test_optimizer.py)
MAX_ITER = 2000
TOL = 1e-10
_DIFF_STEP = 1e-6
_FORWARD_STEP = 1e-8
_ARMIJO = 1e-4
_TRIAL_STEPS = 2.0 ** np.arange(3, -10, -1)


@dataclass
class LockstepResult:
    """Outcome of ``minimize``, one row per restart."""

    x: np.ndarray          # (B, dim) final point of each restart
    fun: np.ndarray        # (B,) objective value there
    converged: np.ndarray  # (B,) stopped on the gain or line-search test
    nfev: int              # points evaluated

    @property
    def success(self) -> bool:
        return bool(self.converged.all())


def _gradient(ff: np.ndarray, f: np.ndarray, forward: int) -> np.ndarray:
    """Gradients (B, dim) from the values ``ff`` at the ``_offset_points``
    and ``f`` (B,) at the points themselves: forward differences on the
    first ``forward`` coordinates, central differences on the rest."""
    ff = ff.reshape(f.size, -1)
    n = (ff.shape[1] + forward) // 2
    return np.concatenate([(ff[:, :forward] - f[:, None]) / _FORWARD_STEP,
                           (ff[:, forward:n] - ff[:, n:]) / (2 * _DIFF_STEP)], axis=1)


def _offset_points(x: np.ndarray, forward: int) -> np.ndarray:
    """The ``2 dim - forward`` difference points of every row of ``x``
    (B, dim) in the order ``_gradient`` reads them: a forward step on each
    of the first ``forward`` coordinates, then a step up on each of the
    rest, then a step down on each of the rest."""
    eye = np.eye(x.shape[1])
    central = _DIFF_STEP * eye[forward:]
    offsets = np.concatenate([_FORWARD_STEP * eye[:forward], central, -central])
    return (x[:, None, :] + offsets).reshape(-1, x.shape[1])


def minimize(fun, x0: np.ndarray, forward: int = 0) -> LockstepResult:
    """BFGS descent (Nocedal & Wright, ch. 6) from every row of ``x0``
    (B, dim) in lockstep; ``fun`` maps points (M, dim) to values (M,),
    each row computed alone, so a restart's path does not depend on the
    batch.  Each iteration makes two calls: the ``_TRIAL_STEPS`` along
    each active restart's quasi-Newton direction (steepest descent where
    that does not descend), of which the lowest passing the Armijo test
    is taken, then the gradients there.  A gradient takes forward
    differences (step ``_FORWARD_STEP``) on the first ``forward``
    coordinates from the value at the point, which is the accepted
    trial's, each row being computed alone (N&W sec. 8.1), and central
    differences (step ``_DIFF_STEP``) on the rest: ``2 dim - forward``
    points.  The start values and gradients come from one call.  A
    restart converges when its step gains at most ``TOL * max(1, |f|)`` or
    no step passes; it stops unconverged on a non-finite gradient or at
    ``MAX_ITER``.
    """
    x = np.array(x0, dtype=float)
    b, n = x.shape
    eye = np.eye(n)
    fg = fun(np.concatenate([x, _offset_points(x, forward)]))
    f = fg[:b]
    g = _gradient(fg[b:], f, forward)
    nfev = fg.size
    hess = np.repeat(eye[None], b, axis=0)  # inverse Hessian estimates
    # which estimates are the identity, still to be scaled (N&W eq. 6.20)
    unscaled = np.ones(b, dtype=bool)
    active = np.isfinite(g).all(axis=1)
    converged = np.zeros(b, dtype=bool)
    for _ in range(MAX_ITER):
        rows = np.flatnonzero(active)
        if not rows.size:
            break
        gr = g[rows]
        p = -(hess[rows] @ gr[:, :, None])[:, :, 0]
        slope = np.sum(gr * p, axis=1)
        reset = ~(slope < 0)
        if reset.any():
            hess[rows[reset]], p[reset] = eye, -gr[reset]
            unscaled[rows[reset]] = True
            slope = np.sum(gr * p, axis=1)
        # trial[j, i] and ft[j, i]: step j along row i's direction
        trial = np.multiply.outer(_TRIAL_STEPS, p)
        trial += x[rows]
        ft = fun(trial.reshape(-1, n)).reshape(-1, len(rows))
        nfev += ft.size
        fr = f[rows]
        ft[~(ft <= fr + _ARMIJO * _TRIAL_STEPS[:, None] * slope)] = np.inf
        k = np.argmin(ft, axis=0)
        f_new = ft[k, np.arange(len(rows))]
        took = np.isfinite(f_new)
        done = ~took | (fr - f_new <= TOL * np.maximum(1.0, np.abs(f_new)))
        converged[rows[done]], active[rows[done]] = True, False
        x[rows[took]], f[rows[took]] = trial[k[took], took], f_new[took]
        go = ~done
        rows, s = rows[go], _TRIAL_STEPS[k[go], None] * p[go]
        if not rows.size:
            break
        # the value at the accepted point is the trial value already taken
        ff = fun(_offset_points(x[rows], forward))
        nfev += ff.size
        g_new = _gradient(ff, f[rows], forward)
        y, g[rows] = g_new - g[rows], g_new
        active[rows] = np.isfinite(g_new).all(axis=1)
        sy = np.sum(s * y, axis=1)
        # the curvature condition sy > 0 keeps every estimate positive definite
        keep = active[rows] & (sy > 0)
        rows, s, y, sy = rows[keep], s[keep], y[keep], sy[keep]
        h = hess[rows]
        first = unscaled[rows]
        if first.any():
            h[first] *= (sy / np.sum(y * y, axis=1))[first, None, None]
            unscaled[rows] = False
        v = eye - s[:, :, None] * y[:, None, :] / sy[:, None, None]
        hess[rows] = (v @ h @ np.swapaxes(v, 1, 2)
                      + s[:, :, None] * s[:, None, :] / sy[:, None, None])
    return LockstepResult(x, f, converged, int(nfev))


def optimize_probe(channel: ChannelSpec, family: str, budget: EnergyBudget,
                   config: OptimizerConfig = OptimizerConfig(),
                   constraint: str = None) -> OptimizationResult:
    """Maximize the channel QFI over a probe family at fixed mean energy.

    All restarts run in lockstep through one ``minimize`` call, whose
    objective evaluates each batch of points with one ``qfi_kernel``
    call; the family's angles take forward differences, the share and
    energy coordinates central ones.  A restart's result does not depend
    on the others; one whose start value is not finite aborts the search.
    ``minimize``'s stop test bounds the value reached, not the point: on
    ill-conditioned quadratics rows ended 1e-6 to 2.5e-4 from the
    minimizer.  A fraction whose coordinate starts at 0 stays exactly 0,
    as ``sin^2`` is stationary there and its central difference exactly 0,
    so BFGS never moves it; one that starts inside (0, 1) stops where the
    gain test stops it, up to 7e-7 from 0 in a scan of 120 free solves.
    The reported angles, and fractions inside (0, 1), carry the point
    error; ``best_qfi`` does not.

    Args:
        channel: one-parameter channel to estimate.
        family: "one-mode" or "two-mode-restricted".
        budget: energy budget; only ``n_total`` is read.  The search
            places the split itself (unless constrained), so ``splits``,
            kept for callers that pass it positionally, is not read.
        config: restart count and the seed of the start points.
        constraint: None, "coherent-only" (all energy displaced) or
            "squeezing-only".
    """
    if not isinstance(family, str) or family not in _PARAMS:
        raise InvalidInputError(f"unknown probe family {family!r}; known: {list(_PARAMS)}")
    if constraint not in (None, "coherent-only", "squeezing-only"):
        raise InvalidInputError(f"unknown constraint {constraint!r}")
    expected_modes = len(_PARAMS[family].ENERGY)
    if channel.modes != expected_modes:
        raise InvalidInputError(
            f"family {family} needs a {expected_modes}-mode channel")
    if budget.n_total <= 0:
        raise DegenerateBudgetError("optimization needs n_total > 0")

    ikw, gamma = channel.generator.ikw(), channel.generator.gamma

    def objective(x):
        return _objective(x, family, budget.n_total, constraint, ikw, gamma)

    # an overflowing start is reported once, in the error, not as numpy
    # warnings
    with np.errstate(over="ignore", invalid="ignore"):
        res = minimize(objective, _start_points(family, constraint, config),
                       forward=len(_PARAMS[family].ANGLES))
    values = -res.fun
    aborted = np.count_nonzero(~np.isfinite(values))
    if aborted:
        # a start whose QFI overflows sees the maximum past float64's range:
        # the finite best of the other starts would understate it
        raise NumericalInstabilityError(
            f"{aborted} of {values.size} optimizer starts aborted (QFI not finite)")
    trace = [(idx, float(value)) for idx, value in enumerate(values)]

    best = int(np.argmax(values))
    value = float(values[best])
    params, splits, shares = _decode(res.x[best], family, budget.n_total, constraint)
    engine_value = qfi_unitary(params.to_probe_state(), channel).total
    if abs(engine_value - value) > 1e-9 * max(1.0, abs(value)):
        raise NumericalInstabilityError(
            f"search objective ({value:.12g}) and engine ({engine_value:.12g}) "
            "disagree on the optimum")
    best_params = {"family": family, "probe": params, "splits": splits,
                   "mode_fractions": shares}
    return OptimizationResult(best_params=best_params, best_qfi=value,
                              trace=trace, restarts=values.size,
                              converged=bool(res.converged[best]))


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
    if family == FAMILY_ONE_MODE_PROBE and channel.modes != 2:
        raise InvalidInputError(f"family {family!r} needs a two-mode channel")
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
    constants in the closed forms do not bias the slope.  One batched
    kernel call evaluates the grid's probes (see ``qfi.finite_terms``).
    """
    if family not in SCALING_FAMILIES:
        raise InvalidInputError(f"unknown scaling family {family!r}; "
                                f"known: {list(SCALING_FAMILIES)}")
    grid = sorted(float(n) for n in n_grid)
    if len(grid) < 4:
        raise InvalidInputError("n_grid needs at least 4 points")
    if grid[0] <= 0 or grid[-1] / grid[0] < 10.0:
        raise InvalidInputError("n_grid must be positive and span >= one decade")
    probes = [_strategy_probe(channel, family, n) for n in grid]
    r_term, q_term, disp_term = finite_terms(*probe_arrays(probes), channel)
    values = r_term + q_term + disp_term
    if np.any(values <= 0):
        raise InvalidInputError("family yields non-positive QFI on the grid")
    tail = len(grid) // 2
    logn = np.log(np.asarray(grid)[tail:])
    logh = np.log(values[tail:])
    slope, intercept = np.polyfit(logn, logh, 1)
    return ScalingFit(float(slope), float(np.exp(intercept)),
                      tuple(grid), tuple(float(v) for v in values))
