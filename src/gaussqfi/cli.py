"""Command-line interface.

Every command but ``validate`` reads a single JSON config document
(``--config``, with a ``"schema": 1`` field), writes to stdout or
``--output``, and is deterministic given the config and seed; only
``optimize`` and ``validate`` take ``--seed``.  Numbers are printed with 15
significant digits; CSV uses ``,`` delimiters, ``.`` decimals and always
carries a header.

``sweep`` parses and checks each grid point on its own and evaluates all
of them with one batched ``qfi_kernel`` call, one column per point (one
call per ``SWEEP_CHUNK`` points on a longer grid).

Exit codes: 0 ok, 1 validation-panel failure, 2 config parse error (a
malformed, missing or unread field or an unknown name), 3 physics
validation error or a non-finite result, 4 degenerate optimizer input.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys

import numpy as np

from ._util import _finite_number, _only_keys
from .channels import CATALOG, channel_from_dict, channel_shift, channel_symplectic
from .core import complex_to_real, complex_to_real_matrix, l_matrix, state_from_dict
from .errors import DegenerateBudgetError, GaussQfiError, InvalidInputError, \
    NumericalInstabilityError
from .optimizer import ONE_MODE, TWO_MODE, EnergyBudget, OptimizerConfig, \
    optimize_probe, scaling_exponent
from .probes import FAMILIES, column_state, probe_arrays, probe_params_from_dict, \
    probe_params_to_dict
from .qfi import ProbeState, QfiBreakdown, kernel_terms, qfi_unitary
from . import formulas, validate

EXIT_OK = 0
EXIT_PANEL_FAILURE = 1
EXIT_PARSE = 2
EXIT_PHYSICS = 3
EXIT_DEGENERATE = 4


class ConfigError(Exception):
    """Config file is malformed (maps to exit code 2)."""


def _fmt(x: float) -> str:
    return f"{float(x):.15g}"


def _json_ready(obj):
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, (float, np.floating)):
        return float(_fmt(obj))
    if isinstance(obj, (int, np.integer, bool, str)) or obj is None:
        return obj
    raise ConfigError(f"cannot serialize {type(obj)!r}")


def _finite(compute) -> list:
    """``compute()``, a list of numbers, where an overflow or a value that is
    not finite is a ``NumericalInstabilityError`` (exit 3), not a warning or
    a traceback."""
    try:
        with np.errstate(all="ignore"):
            values = compute()
    except OverflowError as exc:
        # a Python float's ** raises where numpy's returns inf
        raise NumericalInstabilityError("result overflows a float") from exc
    if not all(map(math.isfinite, values)):
        raise NumericalInstabilityError("result is not finite")
    return values


def _dump_json(obj) -> str:
    try:
        return json.dumps(_json_ready(obj), indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        # NaN or infinity, e.g. from overflow, has no JSON form
        raise NumericalInstabilityError(f"result is not finite: {exc}") from exc


def _load_config(path: str, command: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    # true == 1 in Python, but no boolean is a number here
    if _finite_number(data.get("schema")) != 1:
        raise ConfigError("config must declare \"schema\": 1")
    return _only_keys(data, _KEYS[command] | {"schema"}, f"{command} config", ConfigError)


def _number(value, what: str) -> float:
    x = _finite_number(value)
    if x is None:
        raise ConfigError(f"{what} must be a finite number, got {value!r}")
    return x


def _require(config: dict, key: str):
    if key not in config:
        raise ConfigError(f"config is missing the {key!r} field")
    return config[key]


def _parse_channel(config: dict):
    raw = _require(config, "channel")
    if not isinstance(raw, dict):
        raise ConfigError("channel must be an object with a 'kind' field")
    try:
        return channel_from_dict(raw)
    except (GaussQfiError, TypeError, ValueError) as exc:
        # TypeError and ValueError: a custom_W block that is not a list
        raise ConfigError(f"bad channel: {exc}") from exc


def _parse_probe(config: dict):
    """Returns (ProbeState, params-or-None). Parse errors raise
    ConfigError; physics violations raise GaussQfiError (exit 3)."""
    raw = _require(config, "probe")
    if not isinstance(raw, dict) or not isinstance(raw.get("kind"), str):
        raise ConfigError("probe must be an object with a string 'kind' field")
    if raw["kind"] in FAMILIES:
        try:
            params = probe_params_from_dict(raw)
        except GaussQfiError as exc:
            raise ConfigError(f"bad probe: {exc}") from exc
        return params.to_probe_state(), params
    if raw["kind"] == "state":
        try:
            state = state_from_dict({k: v for k, v in raw.items() if k != "kind"})
        except GaussQfiError as exc:
            raise ConfigError(f"bad probe state: {exc}") from exc
        return ProbeState.from_state(state), None
    raise ConfigError(f"unknown probe kind {raw['kind']!r}")


# ---------------------------------------------------------------------------
# Commands

def cmd_qfi(config: dict, args) -> str:
    probe, _ = _parse_probe(config)
    channel = _parse_channel(config)
    if probe.modes != channel.modes:
        raise ConfigError("probe and channel mode counts differ")
    return _dump_json(qfi_unitary(probe, channel).to_dict())


def _param(config: dict, key: str) -> float:
    """A closed form's numeric parameter, 0 when absent."""
    return _number(config.get(key, 0.0), key)


def cmd_closed_form(config: dict, args) -> str:
    label = _require(config, "label")
    if label == "universal-mix":
        _only_keys(config, _MIX_KEYS, f"closed-form {label!r}", ConfigError)
        # a negative magnitude is a bad field, as in a parametric probe
        try:
            value = formulas.universal_mix_probe_qfi(
                _param(config, "r"), _param(config, "d1_mag"), _param(config, "d2_mag"))
        except InvalidInputError as exc:
            raise ConfigError(str(exc)) from exc
        return _dump_json({"label": label, "value": value})
    row = validate.CLOSED_FORMS.get(label) if isinstance(label, str) else None
    if row is None:
        raise ConfigError(f"unknown closed-form label {label!r}; "
                          f"known: {sorted(validate.CLOSED_FORMS)} and 'universal-mix'")
    # every label takes the three channel parameters, read or not
    _only_keys(config, _LABEL_KEYS, f"closed-form {label!r}", ConfigError)
    _, params = _parse_probe(config)
    if params is None:
        raise ConfigError("closed-form evaluation needs a parametric probe")
    if params.kind != row.family:
        raise ConfigError(f"label {label!r} needs a {row.family} probe")
    args = [_param(config, key) for key in CATALOG[row.kind][1]]
    [value] = _finite(lambda: [row.value(params, *args)])
    return _dump_json({"label": label, "value": value})


SWEEP_HEADER = "value,r_term,q_term,eigen_term,disp_term,total"
# grid points per batched kernel call: a point holds about 4 KB while its
# batch is built, so a chunk keeps a long grid's memory near a short one's
SWEEP_CHUNK = 1024


def _or_none(parse, *args):
    """``parse(*args)``, or None where the point prints an error row."""
    try:
        return parse(*args)
    except (GaussQfiError, ConfigError):
        return None


def _probes_at(config: dict, key: str, grid: list) -> list:
    """The probe at each grid value, or None where ``qfi`` refuses it.  A
    parametric family builds all its points with one ``arrays`` call."""
    raws = [{**config["probe"], key: value} for value in grid]
    if config["probe"]["kind"] == "state":
        return [_or_none(lambda raw: _parse_probe({"probe": raw})[0], raw) for raw in raws]
    params = [_or_none(probe_params_from_dict, raw) for raw in raws]
    built = [p for p in params if p is not None]
    arrays = probe_arrays(built) if built else None
    j = iter(range(len(built)))
    return [None if p is None else _or_none(column_state, *arrays, next(j)) for p in params]


def _sweep_rows(config: dict, root: str, key: str, grid: list) -> list:
    """One CSV row per grid value.  Each point is parsed and checked as
    ``qfi`` checks it, and a point that fails prints an error row; one
    ``qfi_kernel`` call evaluates the others, one batch column each, so
    every row is the number ``qfi`` prints for its point.  The side the
    grid does not vary is parsed once."""
    if root == "probe":
        probes = _probes_at(config, key, grid)
        channels = [_or_none(_parse_channel, config)] * len(grid)
    else:
        probes = [_or_none(lambda c: _parse_probe(c)[0], config)] * len(grid)
        channels = [_or_none(_parse_channel, {"channel": {**config["channel"], key: value}})
                    for value in grid]
    cols = [i for i, (p, c) in enumerate(zip(probes, channels))
            if p is not None and c is not None and p.modes == c.modes]
    rows = [f"{_fmt(value)},error,error,error,error,error" for value in grid]
    if not cols:
        return rows
    terms, finite = kernel_terms(*(np.stack(a, axis=-1) for a in zip(*(
        (probes[i].williamson.s.matrix, probes[i].williamson.eigenvalues,
         probes[i].d_tilde, channels[i].generator.ikw(), channels[i].generator.gamma)
        for i in cols))))
    for j, i in enumerate(cols):
        if finite[j]:
            b = QfiBreakdown(float(terms[0, j]), float(terms[1, j]), 0.0,
                             float(terms[2, j]))
            rows[i] = ",".join([_fmt(grid[i]), _fmt(b.r_term), _fmt(b.q_term),
                                _fmt(b.eigen_term), _fmt(b.disp_term), _fmt(b.total)])
    return rows


def cmd_sweep(config: dict, args) -> str:
    spec = _only_keys(_require(config, "sweep"), ("parameter", "grid"), "sweep", ConfigError)
    path = _require(spec, "parameter")
    grid = _require(spec, "grid")
    if not isinstance(grid, list) or not grid:
        raise ConfigError("sweep grid must be a non-empty list")
    grid = [_number(v, "sweep grid value") for v in grid]
    if not (isinstance(path, str) and path.startswith(("probe.", "channel."))):
        raise ConfigError("sweep parameter must start with 'probe.' or 'channel.'")
    root, _, key = path.partition(".")
    probe, channel = _require(config, "probe"), _require(config, "channel")
    swept = channel if root == "channel" else probe
    kind = swept.get("kind") if isinstance(swept, dict) else None
    kind = kind if isinstance(kind, str) else None
    # only a number field can be swept: a typo, or a field that holds a
    # string, list or object, would otherwise fail every row like a physics
    # error.  The number fields are the parameters a channel kind reads, a
    # family's fields and a state's mode count.
    if root == "channel":
        names = list(CATALOG.get(kind, (None, ()))[1])
    elif kind in FAMILIES:
        names = list(FAMILIES[kind].__dataclass_fields__)
    elif kind == "state":
        names = ["modes"]
    else:
        raise ConfigError(f"sweep parameter {path!r} needs a probe of kind "
                          f"'state' or {sorted(FAMILIES)}, got {kind!r}")
    if key not in names:
        raise ConfigError(f"sweep parameter {path!r} is not a number field of "
                          f"the {root}; number fields: {names}")
    rows = [row for start in range(0, len(grid), SWEEP_CHUNK)
            for row in _sweep_rows(config, root, key, grid[start:start + SWEEP_CHUNK])]
    return SWEEP_HEADER + "\n" + "\n".join(rows) + "\n"


def cmd_optimize(config: dict, args) -> str:
    channel = _parse_channel(config)
    family = config.get("family", ONE_MODE if channel.modes == 1 else TWO_MODE)
    budget_raw = _only_keys(_require(config, "budget"), ("n_total",), "budget", ConfigError)
    n_total = _number(budget_raw.get("n_total"), "budget n_total")
    try:
        opt_config = OptimizerConfig.from_dict(config.get("optimizer", {}))
        if args.seed is not None:
            opt_config = dataclasses.replace(opt_config, seed=args.seed)
    except GaussQfiError as exc:
        raise ConfigError(f"bad optimizer settings: {exc}") from exc
    # both reject only their inputs: the budget, the family, the constraint
    # and the family's mode count on this channel
    try:
        budget = EnergyBudget(n_total, ((0.0, 0.0),) * channel.modes)
        result = optimize_probe(channel, family, budget, opt_config,
                                constraint=config.get("constraint"))
    except InvalidInputError as exc:
        raise ConfigError(str(exc)) from exc
    payload = {
        "best_qfi": result.best_qfi,
        "best_params": {
            "family": result.best_params["family"],
            "probe": probe_params_to_dict(result.best_params["probe"]),
            "splits": [list(s) for s in result.best_params["splits"]],
            "mode_fractions": list(result.best_params["mode_fractions"]),
        },
        "restarts": result.restarts,
        "converged": result.converged,
        "trace": [[i, v] for i, v in result.trace],
    }
    return _dump_json(payload)


def cmd_scaling(config: dict, args) -> str:
    channel = _parse_channel(config)
    family = _require(config, "family")
    grid = _require(config, "n_grid")
    if not isinstance(grid, list):
        raise ConfigError("n_grid must be a list")
    # scaling_exponent rejects only its inputs: the family, the grid and
    # the family's probes on this channel
    try:
        fit = scaling_exponent(channel, family, [_number(v, "n_grid value") for v in grid])
    except InvalidInputError as exc:
        raise ConfigError(str(exc)) from exc
    return _dump_json({"exponent": fit.exponent, "prefactor": fit.prefactor,
                       "n_grid": list(fit.n_grid), "qfi_values": list(fit.qfi_values)})


ELLIPSE_HEADER = "name,row,col,value"


def _emit_matrix(rows: list, name: str, matrix: np.ndarray):
    for i in range(matrix.shape[0]):
        for j in range(matrix.shape[1]):
            rows.append(f"{name},{i},{j},{_fmt(matrix[i, j])}")


def cmd_ellipse(config: dict, args) -> str:
    probe, _ = _parse_probe(config)
    channel = _parse_channel(config)
    if probe.modes != channel.modes:
        raise ConfigError("probe and channel mode counts differ")
    eps = _number(config.get("epsilon", 0.0), "epsilon")
    d_re, sigma_re = complex_to_real(probe.to_state())
    s_re = complex_to_real_matrix(channel_symplectic(channel, eps).matrix)
    b = channel_shift(channel, eps)
    b_re = (l_matrix(channel.modes) @ b).real
    sigma_after = s_re @ sigma_re @ s_re.T
    d_after = s_re @ d_re + b_re
    rows = []
    _emit_matrix(rows, "sigma_re_before", sigma_re)
    _emit_matrix(rows, "sigma_re_after", sigma_after)
    _emit_matrix(rows, "d_re_before", d_re.reshape(-1, 1))
    _emit_matrix(rows, "d_re_after", d_after.reshape(-1, 1))
    if probe.modes == 2:
        for name, mat in (("before", sigma_re), ("after", sigma_after)):
            _emit_matrix(rows, f"xx_marginal_{name}", mat[:2, :2])
            _emit_matrix(rows, f"pp_marginal_{name}", mat[2:, 2:])
    return ELLIPSE_HEADER + "\n" + "\n".join(rows) + "\n"


LIMITS_HEADER = "channel,n,heisenberg,shotnoise"


def cmd_limits(config: dict, args) -> str:
    ns = [0.5, 1.0, 2.0, 5.0, 10.0]
    if config is not None:
        raw = config.get("n", ns)
        if not isinstance(raw, list) or not raw:
            raise ConfigError("'n' must be a non-empty list")
        # + 0.0 turns -0.0 into 0, which prints and computes without a sign
        ns = [_number(v, "'n' value") + 0.0 for v in raw]
        if min(ns) < 0:
            raise ConfigError(f"'n' values must be >= 0, got {min(ns):g}")
    tables = formulas.limit_table()
    values = iter(_finite(lambda: [f(n) for t in tables.values() for n in ns
                                   for f in (t.heisenberg, t.shotnoise)]))
    rows = [f"{kind},{_fmt(n)},{_fmt(next(values))},{_fmt(next(values))}"
            for kind in tables for n in ns]
    return LIMITS_HEADER + "\n" + "\n".join(rows) + "\n"


def cmd_validate(args) -> tuple:
    seed = 20240 if args.seed is None else args.seed
    try:
        results = validate.run_panels(panel=args.panel, seed=seed, draws=args.draws)
    except InvalidInputError as exc:
        raise ConfigError(str(exc)) from exc
    report = validate.format_report(results) + "\n"
    ok = all(r.passed for r in results)
    return report, EXIT_OK if ok else EXIT_PANEL_FAILURE


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaussqfi",
        description="Quantum Fisher information for Gaussian probes of "
                    "Gaussian unitary channels.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, helptext, config="required", seed=False):
        p = sub.add_parser(name, help=helptext)
        if config:
            p.add_argument("--config", help="path to the JSON config document",
                           required=config == "required")
        if seed:
            p.add_argument("--seed", type=int, default=None)
        p.add_argument("--output", default=None,
                       help="output path (default: stdout)")
        return p

    add("qfi", "QFI breakdown for a probe/channel configuration")
    add("closed-form", "evaluate a named closed-form expression")
    add("sweep", "QFI along a parameter grid (CSV)")
    add("optimize", "maximize QFI over a probe family at fixed energy", seed=True)
    add("scaling", "fit the QFI scaling exponent over an energy grid")
    add("ellipse", "real-form covariance data before/after the channel (CSV)")
    add("limits", "Heisenberg/shot-noise limit table (CSV)", config="optional")
    v = add("validate", "run the cross-validation panels", config=None, seed=True)
    v.add_argument("--panel", choices=validate.PANELS, default="all")
    v.add_argument("--draws", type=int, default=200)
    return parser


# one parser per process: built by the first request, not at import
_parser = functools.cache(build_parser)

_HANDLERS = {
    "qfi": cmd_qfi,
    "closed-form": cmd_closed_form,
    "sweep": cmd_sweep,
    "optimize": cmd_optimize,
    "scaling": cmd_scaling,
    "ellipse": cmd_ellipse,
    "limits": cmd_limits,
}
# the config keys each command reads; closed-form reads those of its label
_MIX_KEYS = {"schema", "label", "r", "d1_mag", "d2_mag"}
_LABEL_KEYS = {"schema", "label", "probe", "chi", "omega_p", "omega_s"}
_KEYS = {
    "qfi": {"probe", "channel"},
    "closed-form": _MIX_KEYS | _LABEL_KEYS,
    "sweep": {"probe", "channel", "sweep"},
    "optimize": {"channel", "family", "budget", "optimizer", "constraint"},
    "scaling": {"channel", "family", "n_grid"},
    "ellipse": {"probe", "channel", "epsilon"},
    "limits": {"n"},
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "validate":
            text, code = cmd_validate(args)
        else:
            config = _load_config(args.config, args.command) if args.config else None
            text = _HANDLERS[args.command](config, args)
            code = EXIT_OK
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DegenerateBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except GaussQfiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PHYSICS
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
            return EXIT_PARSE
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
