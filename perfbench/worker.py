"""One workload in one process: set up, print ``ready``, run the timed
phase, print one JSON result line.  Started by ``run.py``.

Untraced runs keep a yardstick (``yardstick.py``) sampling the host's
speed from the start, and report times scaled to its reference speed; the
raw figures go to the record line.  With ``--trace 1`` untraced and traced
passes alternate over the same ops (see ``traced_phase``), without the
yardstick, and the per-layer metrics come from the traced passes.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from collections import defaultdict
from contextlib import nullcontext

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CLI_COMMANDS = ("qfi", "closed-form", "sweep", "scaling", "ellipse", "limits")
# Untraced/traced alternation step of the traced pass.
CHUNK_S = 0.1


def tail_percentile(values):
    """Highest percentile (at most p90) with at least ten samples beyond it.

    Returns (value, percentile).  Below eleven samples no percentile
    qualifies, and the median is returned, stated as percentile 50.
    """
    ordered = sorted(values)
    n = len(ordered)
    rank = min(math.ceil(0.9 * n), n - 10)
    if rank < 1:
        return statistics.median(ordered), 50.0
    return ordered[rank - 1], 100.0 * rank / n


def machine_record():
    import numpy
    import scipy
    from run import THREAD_VARS

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "platform": platform.platform(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def _no_span(name):
    return nullcontext()


def run_op(wl, item, span=_no_span, yard=None):
    """One op and its check; returns (latency in s, Outcome).  Time spent
    in the yardstick's handler during the op is left out of the latency."""
    from workloads import Outcome

    error = None
    spent = yard.spent if yard else 0.0
    with span("bench.op"):
        t = time.perf_counter()
        try:
            value = wl.op(item)
        except Exception as exc:  # a raising op is a failed op
            error = exc
        latency = time.perf_counter() - t
    if yard:
        latency -= yard.spent - spent
    with span("bench.check"):
        if error is not None:
            return latency, Outcome(False, detail=f"{type(error).__name__}: {error}")
        try:
            return latency, wl.check(item, value)
        except Exception as exc:  # an unreadable output fails the op
            return latency, Outcome(False, detail=f"check: {exc!r}")


class Phase:
    """Ops of one timed phase: latency, item and outcome of each, plus the
    phase's wall and CPU seconds.

    A phase timed with the yardstick also holds each op's cycle (from the
    previous op's end to its own, checks and loop included) and the
    yardstick's scale over the op; without one, cycles are not kept and
    every scale is 1.
    """

    def __init__(self):
        self.latencies, self.outcomes = [], []
        self.cycles, self.scales = [], []
        self.wall = self.cpu = 0.0

    def extend(self, rows, elapsed):
        for item, latency, outcome, _ in rows:
            self.latencies.append(latency)
            self.outcomes.append((item, outcome))
            self.scales.append(1.0)
        self.wall += elapsed


def _pass(wl, first, tracer=None, count=None, chunk=math.inf, wall=0.0,
          seconds=0.0):
    """Ops in deck order from op ``first``, one client in a closed loop.

    Runs exactly ``count`` ops if given; otherwise stops after ``chunk``
    seconds, or at the first round boundary once ``wall`` plus the time
    spent here reaches ``seconds``.  Returns rows of (item, latency,
    outcome, end time) and the seconds spent.
    """
    deck, size = wl.deck, wl.round_size
    span = tracer.span if tracer is not None else _no_span
    rows = []
    start = time.perf_counter()
    k = first
    while True:
        item = deck[k % len(deck)]
        if tracer is not None:
            tracer.op = k
        latency, outcome = run_op(wl, item, span)
        elapsed = time.perf_counter() - start
        rows.append((item, latency, outcome, elapsed))
        k += 1
        if count is not None:
            if k - first == count:
                return rows, elapsed
        elif elapsed >= chunk or (k % size == 0 and wall + elapsed >= seconds):
            return rows, elapsed


def timed_phase(wl, seconds, yard=None):
    """Ops in deck order, one client in a closed loop, until the
    first round boundary after ``seconds``.

    With a yardstick the phase runs on the scaled clock: each op's cycle,
    less the handler's time, counts at the yardstick's scale over it so
    far.  After the phase, every op is given the scale around its span.
    """
    phase, deck, size = Phase(), wl.deck, wl.round_size
    spans, clock, k = [], 0.0, 0
    cpu0, spent0 = _cpu(), yard.spent if yard else 0.0
    start = prev = time.perf_counter()
    spent_prev = spent0
    while not (k and k % size == 0 and clock >= seconds):
        item = deck[k % len(deck)]
        t = time.perf_counter()
        latency, outcome = run_op(wl, item, yard=yard)
        end = time.perf_counter()
        phase.latencies.append(latency)
        phase.outcomes.append((item, outcome))
        spans.append((t, end))
        if yard:
            spent = yard.spent
            cycle = end - prev - (spent - spent_prev)
            spent_prev = spent
            phase.cycles.append(cycle)
            clock += cycle * yard.scale(prev, end)
        else:
            clock = end - start
        prev = end
        k += 1
    phase.wall = prev - start
    phase.cpu = _cpu() - cpu0
    if yard:
        phase.wall -= yard.spent - spent0
        phase.cpu -= yard.spent - spent0
        phase.scales = [yard.scale(a, b) for a, b in spans]
    else:
        phase.scales = [1.0] * k
    return phase


def traced_phase(wl, seconds, tracer):
    """Alternate untraced and traced passes over the same chunks of about
    CHUNK_S, swapping which goes first, so that drift in machine speed and
    warm caches favour neither.

    Returns the untraced phase, the traced wall seconds and the traced
    (item, outcome) pairs.
    """
    phase, traced, wall_traced = Phase(), [], 0.0
    k = turn = 0
    while not (k and k % wl.round_size == 0 and phase.wall >= seconds):
        traced_first = turn % 2 == 1
        with tracer.installed() if traced_first else nullcontext():
            rows, elapsed = _pass(wl, k, tracer if traced_first else None,
                                  chunk=CHUNK_S, wall=phase.wall, seconds=seconds)
        with nullcontext() if traced_first else tracer.installed():
            again, elapsed_again = _pass(wl, k, None if traced_first else tracer,
                                         count=len(rows))
        if traced_first:
            rows, again, elapsed, elapsed_again = again, rows, elapsed_again, elapsed
        phase.extend(rows, elapsed)
        traced += [(item, outcome) for item, _, outcome, _ in again]
        wall_traced += elapsed_again
        k += len(rows)
        turn += 1
    return phase, wall_traced, traced


def _cpu():
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        use = resource.getrusage(who)
        total += use.ru_utime + use.ru_stime
    return total


def summarize(outcomes):
    from workloads import KNOWN_DEFECTS

    failed = [(i, o) for i, o in outcomes if not o.ok]
    unexpected = [(i, o) for i, o in failed if not i.known_defect]
    return {
        "attempted": len(outcomes), "failed": len(failed),
        "correct": not unexpected,
        "known_defect_failures": len(failed) - len(unexpected),
        "worst_rel_dev": max((o.rel_dev for _, o in outcomes), default=0.0),
        "failures": sorted({f"{i.label}: {o.detail}"
                            + (f" [known defect: {KNOWN_DEFECTS[i.known_defect]}]"
                               if i.known_defect else "")
                            for i, o in failed}),
    }


def case_latencies(lat, phase):
    """Each op's latency replaced by the median of its label's latencies,
    so that a slowed repeat cannot move a percentile to another case."""
    by_label = defaultdict(list)
    for (item, _), latency in zip(phase.outcomes, lat):
        by_label[item.label].append(latency)
    mid = {label: statistics.median(v) for label, v in by_label.items()}
    return [mid[item.label] for item, _ in phase.outcomes]


def op_time_share(phase):
    """Share of summed op time per label prefix (the part before "/")."""
    total, share = sum(phase.latencies), defaultdict(float)
    for (item, _), latency in zip(phase.outcomes, phase.latencies):
        share[item.label.split("/")[0]] += latency / total
    return dict(sorted(share.items()))


def end_to_end(phase, wl, summary):
    """End-to-end metrics over the whole phase, in scaled time.

    Each op's latency and cycle are scaled by the yardstick around the op
    (``Phase.scales``); ``wall_s`` is the sum of scaled cycles and
    ``cpu_s`` is scaled by the phase's mean scale.  A workload with
    ``latency_by_case`` set takes each op's latency as its label's median.
    The raw figures are returned with the other record fields.
    """
    lat = [v * f for v, f in zip(phase.latencies, phase.scales)]
    if phase.cycles:
        wall = sum(c * f for c, f in zip(phase.cycles, phase.scales))
    else:
        wall = phase.wall
    mean_scale = wall / phase.wall
    by_case = getattr(wl, "latency_by_case", False)
    if by_case:
        lat = case_latencies(lat, phase)
    tail, pct = tail_percentile(lat)
    n = len(lat)
    metrics = {
        "wall_s": (wall, "s"),
        "ops_per_s": (n / wall, "1/s"),
        "op_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "op_p90_ms": (1e3 * tail, "ms"),
        "cpu_s": (phase.cpu * mean_scale, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "success_ratio": (1.0 - summary["failed"] / summary["attempted"], "ratio"),
    }
    raw = phase.latencies
    if by_case:
        raw = case_latencies(raw, phase)
    by_label = defaultdict(list)
    for (item, _), latency in zip(phase.outcomes, phase.latencies):
        by_label[item.label].append(latency)
    info = {"op_samples": n, "op_p90_percentile": pct,
            "latency_by_case": by_case, "mean_scale": mean_scale,
            "raw": {"wall_s": phase.wall, "ops_per_s": n / phase.wall,
                    "op_p50_ms": 1e3 * statistics.median(raw),
                    "op_p90_ms": 1e3 * tail_percentile(raw)[0],
                    "cpu_s": phase.cpu},
            "op_p50_ms_by_label": {k: 1e3 * statistics.median(v)
                                   for k, v in sorted(by_label.items())},
            "op_time_share": op_time_share(phase)}
    return metrics, info


def per_layer(tracer, wall_traced, phase, summary, wl):
    """Per-layer metrics from the traced spans; the Fock panel figures come
    from the untraced latencies of ``phase``."""
    from tracer import FUNCTIONS, LAYERS, layer_of, self_times

    spans = tracer.spans
    selfs = self_times(spans)
    n_ops = len(phase.latencies)
    metrics = {}

    def put(name, value, unit):
        metrics[name] = (value, unit)

    put("check.error_rate", summary["failed"] / summary["attempted"], "ratio")
    put("check.worst_rel_dev", summary["worst_rel_dev"], "ratio")
    put("check.known_defect_failures", summary["known_defect_failures"], "count")
    put("trace.overhead_ratio", wall_traced / phase.wall, "ratio")
    put("trace.self_sum_ratio", sum(selfs) / wall_traced, "ratio")

    layer_self = defaultdict(float)
    calls, busy, own = defaultdict(int), defaultdict(float), defaultdict(float)
    by_name, index = defaultdict(list), defaultdict(list)
    for i, (rec, self_s) in enumerate(zip(spans, selfs)):
        name = rec[0]
        layer_self[layer_of(name)] += self_s
        calls[name] += 1
        busy[name] += rec[2] - rec[1]
        own[name] += self_s
        by_name[name].append(rec)
        index[name].append(i)
    for layer in LAYERS:
        put(f"share.{layer}", layer_self[layer] / wall_traced, "ratio")
    for name in FUNCTIONS:
        put(f"{name}.calls", calls[name], "count")
        put(f"{name}.us_per_call", 1e6 * busy[name] / calls[name] if calls[name] else 0.0, "us")
        put(f"{name}.self_us_per_op", 1e6 * own[name] / n_ops, "us")

    solves = by_name["optimizer.optimize_probe"]
    runs = by_name["optimizer.minimize"]
    nfev = sum(r[5]["nfev"] for r in runs)
    put("optimizer.optimize_probe.s_per_call",
        busy["optimizer.optimize_probe"] / len(solves) if solves else 0.0, "s")
    put("optimizer.nm_runs", len(runs), "count")
    put("optimizer.nfev", nfev, "count")
    put("optimizer.us_per_eval", 1e6 * busy["optimizer.minimize"] / nfev if nfev else 0.0, "us")
    put("optimizer.nm_converged_ratio",
        sum(r[5]["success"] for r in runs) / len(runs) if runs else 0.0, "ratio")
    requested = sum(r[5]["requested"] for r in solves)
    put("optimizer.restarts_ok_ratio",
        sum(r[5]["restarts"] for r in solves) / requested if requested else 0.0, "ratio")

    ladders = by_name["fock.choose_cutoff"]
    ladder_idx = set(index["fock.choose_cutoff"])
    steps = sum(1 for r in by_name["fock.build_fock_state"] if r[3] in ladder_idx)
    put("fock.expm.calls", calls["fock.expm"], "count")
    put("fock.expm.s", busy["fock.expm"], "s")
    put("fock.cutoff_max", max((r[5]["cutoff"] for r in ladders), default=0), "levels")
    put("fock.ladder_steps_per_op", steps / len(ladders) if ladders else 0.0, "count")
    put("fock.dense_bytes_max",
        max(((r[5]["cutoff"] ** r[5]["modes"]) ** 2 * 16 for r in ladders), default=0),
        "bytes_computed")
    # panel seconds: the sum over distinct cases of each case's median time
    case_s = defaultdict(list)
    if getattr(wl, "latency_by_case", False):
        for (item, _), latency in zip(phase.outcomes, phase.latencies):
            case_s[item.label].append(latency)
    case_s = [statistics.median(v) for v in case_s.values()]
    put("fock.panel_s", sum(case_s), "s")
    put("fock.max_case_s", max(case_s, default=0.0), "s")

    cli_calls = [r for name, recs in by_name.items() if name.startswith("cli.main.")
                 for r in recs]
    for command in CLI_COMMANDS:
        name = f"cli.main.{command}"
        put(f"{name}.ms", 1e3 * busy[name] / calls[name] if calls[name] else 0.0, "ms")
    put("cli.self_ms", 1e3 * layer_self["cli"] / len(cli_calls) if cli_calls else 0.0, "ms")
    put("cli.exit_nonzero", sum(1 for r in cli_calls if not r[5] or r[5]["exit"]), "count")
    return metrics


def op_table(tracer, phase):
    """Per input label: op count, median untraced seconds and, from the
    traced spans, objective evaluations, Fock cutoff and ladder steps."""
    per_op = defaultdict(lambda: {"nfev": 0, "cutoff": 0, "ladder_steps": 0})
    ladders = set()
    for i, (name, _, _, parent, op, info) in enumerate(tracer.spans):
        if name == "optimizer.minimize":
            per_op[op]["nfev"] += info["nfev"]
        elif name == "fock.choose_cutoff":
            per_op[op]["cutoff"] = info["cutoff"]
            ladders.add(i)
        elif name == "fock.build_fock_state" and parent in ladders:
            per_op[op]["ladder_steps"] += 1
    rows = defaultdict(lambda: defaultdict(list))
    for k, ((item, _), latency) in enumerate(zip(phase.outcomes, phase.latencies)):
        row = rows[item.label]
        row["seconds"].append(latency)
        for key, value in per_op[k].items():
            row[key].append(value)
    return {label: {"ops": len(row["seconds"]),
                    **{key: statistics.median(v) for key, v in row.items()}}
            for label, row in sorted(rows.items())}


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", default=None, help="write traced spans here")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true",
                        help="smallest decks, for the benchmark's own tests")
    args = parser.parse_args(argv)

    import numpy as np
    from yardstick import Yardstick

    # the yardstick samples set-up too, so that run.py can scale set-up time
    yard = None if args.trace else Yardstick()
    if yard:
        yard.start()
    import gaussqfi
    import workloads

    src = os.path.join(ROOT, "src")
    if os.path.commonpath([os.path.abspath(gaussqfi.__file__), src]) != src:
        print(f"error: gaussqfi imported from {gaussqfi.__file__}, not {src}",
              file=sys.stderr)
        return 2
    os.makedirs(args.workdir, exist_ok=True)
    wl = workloads.make(args.workload)
    wl.setup(np.random.default_rng(args.seed), args.workdir, tiny=args.tiny)
    # set-up time is scaled by the yardstick's mean scale during set-up,
    # with the handler's own time taken out
    print("ready" if not yard else f"ready {yard.spent!r} {yard.scale()!r}", flush=True)
    if args.setup_only:
        if yard:
            yard.stop()
        return 0
    if yard and getattr(wl, "yardstick", "small") != "small":
        yard.stop()
        yard = Yardstick(wl.yardstick)
        yard.start()
    # one untimed op before the timed phase, so that lazy imports and
    # first-call costs fall outside both set-up and the timed phase
    run_op(wl, wl.warm)

    # the CLI reports expected config errors on stderr; keep them out of the log
    devnull = open(os.devnull, "w", encoding="utf-8")
    stderr, sys.stderr = sys.stderr, devnull
    try:
        info = {"settings": {"workload": args.workload, "seed": args.seed,
                             "seconds": args.seconds, "trace": args.trace,
                             "tiny": args.tiny},
                "machine": machine_record()}
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            phase, wall_traced, traced = traced_phase(wl, args.seconds, tracer)
            summary = summarize(phase.outcomes)
            summary["correct"] = summary["correct"] and summarize(traced)["correct"]
            metrics = per_layer(tracer, wall_traced, phase, summary, wl)
            info["by_label"] = op_table(tracer, phase)
            info["op_time_share"] = op_time_share(phase)
            info["spans"] = len(tracer.spans)
            if args.spans:
                tracer.write(args.spans)
        else:
            phase = timed_phase(wl, args.seconds, yard)
            summary = summarize(phase.outcomes)
            metrics, extra = end_to_end(phase, wl, summary)
            info.update(extra)
            if yard:
                yard.stop()
                info["yardstick"] = {"samples": len(yard.times),
                                     "kernel_ms_median": 1e3 * statistics.median(yard.times),
                                     "handler_s": yard.spent}
    finally:
        sys.stderr = stderr
        devnull.close()
    info["failures"] = summary.pop("failures")
    result = {**summary, "metrics": {k: {"value": float(v), "unit": u}
                                     for k, (v, u) in metrics.items()},
              "info": info}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
