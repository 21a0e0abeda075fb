"""Benchmark entry point.

    python3 perfbench/run.py --workload engine-bulk --seed 1 --seconds 8 --trace 0

Runs one workload (see BENCHMARK.json and perfbench/README.md) against
the library under ``src/`` of this checkout.  Set-up is measured from
process start until the inputs are ready, in ``SETUP_SAMPLES`` fresh
worker processes, and scaled by each worker's host-speed yardstick
(``yardstick.py``); the middle one goes on to the timed phase.  The last
line of standard output is the JSON result; the line before it records
the machine, the settings, the sample counts and the raw figures.  This
launcher uses the standard library only.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# the same list as workloads.WORKLOADS; this launcher imports no numpy
WORKLOADS = ("engine-bulk", "cli-requests", "probe-search", "fock-oracle")
SETUP_SAMPLES = 3
RUN_LIMIT_S = 170.0
# One BLAS thread, within the nproc cap: on a 2-vCPU host a second
# OpenBLAS thread made the same Fock case take anywhere from 20 ms to
# 900 ms between repeats, while one thread repeats within a few percent.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = BLAS_THREADS
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    # the same hashes, and so the same set and dict layouts, in every worker
    env["PYTHONHASHSEED"] = "0"
    return env


def _start(argv, deadline):
    """Start a worker; return (process, set-up seconds) once it is ready.

    An untraced worker's ready line gives the seconds its yardstick spent
    during set-up and the yardstick's mean scale: set-up seconds are
    returned less the first and times the second.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), *argv],
                            stdout=subprocess.PIPE, text=True, env=_env(), cwd=ROOT)
    line = proc.stdout.readline().split()
    setup = time.perf_counter() - t0
    if not line or line[0] != "ready":
        _stop(proc, deadline)
        raise RuntimeError(f"worker failed during set-up (exit {proc.returncode})")
    if len(line) == 3:
        setup = (setup - float(line[1])) * float(line[2])
    return proc, setup


def _stop(proc, deadline):
    try:
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker exceeded the run time limit")


def _setup_only(common, workdir, k, deadline):
    proc, setup = _start([*common, "--setup-only", "--workdir",
                          os.path.join(workdir, f"setup-{k}")], deadline)
    _stop(proc, deadline)
    return setup


def run(args, workdir):
    deadline = time.monotonic() + RUN_LIMIT_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    # set-up time is reported only by untraced runs; its samples are taken
    # before and after the timed phase, so that they span its duration
    extra = SETUP_SAMPLES - 1 if not args.trace else 0
    setups = [_setup_only(common, workdir, k, deadline) for k in range(extra // 2)]
    spans = os.path.join(HERE, "out", f"spans-{args.workload}-seed{args.seed}.jsonl")
    argv = [*common, "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--workdir", os.path.join(workdir, "main")]
    if args.trace:
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        argv += ["--spans", spans]
    if args.tiny:
        argv.append("--tiny")
    proc, setup = _start(argv, deadline)
    setups.append(setup)
    # the main worker prints exactly one more line: its result
    line = proc.stdout.readline()
    _stop(proc, deadline)
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"worker failed (exit {proc.returncode})")
    setups += [_setup_only(common, workdir, k, deadline)
               for k in range(extra // 2, extra)]
    result = json.loads(line)
    info = result.pop("info")
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        info["setup_samples_s"] = setups
    return result, info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest decks, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "gaussqfi", "__init__.py")):
        print(f"error: no gaussqfi sources under {ROOT}/src", file=sys.stderr)
        return 2
    workdir = os.path.join(HERE, ".work", f"run-{os.getpid()}")
    os.makedirs(workdir)
    try:
        result, info = run(args, workdir)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    keep = ("known_defect_failures", "worst_rel_dev")
    info.update({k: result.pop(k) for k in keep})
    print(json.dumps(info))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
