"""Tests of the benchmark itself, on the smallest decks (``tiny``)."""
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gaussqfi  # noqa: E402
import tracer  # noqa: E402
import yardstick  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _setup(name, tmp_path, seed=5):
    wl = workloads.make(name)
    wl.setup(np.random.default_rng(seed), str(tmp_path), tiny=True)
    return wl


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_run_reports_every_metric(name, tmp_path):
    wl = _setup(name, tmp_path)
    phase = worker.timed_phase(wl, 0.05)
    summary = worker.summarize(phase.outcomes)
    assert summary["correct"]
    metrics, _ = worker.end_to_end(phase, wl, summary)
    want = {m["name"] for m in SPEC["end_to_end"]} - {"setup_s"}
    assert set(metrics) == want
    assert all(value > 0 for value, _ in metrics.values())

    spans = tracer.Tracer()
    phase, wall_traced, traced = worker.traced_phase(wl, 0.05, spans)
    summary = worker.summarize(phase.outcomes)
    layer = worker.per_layer(spans, wall_traced, phase, summary, wl)
    assert set(layer) == {m["name"] for m in SPEC["per_layer"]}
    assert len(traced) == len(phase.outcomes)
    # the wrapped names are put back
    assert gaussqfi.qfi.qfi_unitary is gaussqfi.qfi_unitary
    assert gaussqfi.fock.scipy.linalg.expm.__module__.startswith("scipy")


def test_self_times_add_up_to_traced_wall(tmp_path):
    wl = _setup("engine-bulk", tmp_path)
    spans = tracer.Tracer()
    phase, wall_traced, _ = worker.traced_phase(wl, 0.2, spans)
    covered = sum(tracer.self_times(spans.spans)) / wall_traced
    assert 0.9 < covered <= 1.0


def _whole_deck(wl):
    phase = worker.Phase()
    phase.extend(*worker._pass(wl, 0, count=len(wl.deck)))
    return worker.summarize(phase.outcomes)


def test_wrong_reference_counts_as_failed(tmp_path):
    wl = _setup("engine-bulk", tmp_path)
    bad = wl.deck[1]
    bad.data["reference"] *= 1.01
    _, outcome = worker.run_op(wl, bad)
    assert not outcome.ok
    summary = _whole_deck(wl)
    assert summary["failed"] == 1 and not summary["correct"]


def test_cli_known_defect_is_failed_but_expected(tmp_path):
    wl = _setup("cli-requests", tmp_path)
    summary = _whole_deck(wl)
    assert summary["failed"] == summary["known_defect_failures"] == 1
    assert summary["correct"]
    wrong = next(i for i in wl.deck if i.data["command"] == "closed-form")
    wrong.data["values"] = [wrong.data["values"][0] + 1.0]
    assert not worker.run_op(wl, wrong)[1].ok


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_inputs(name, tmp_path):
    def inputs(seed, sub):
        path = tmp_path / sub
        path.mkdir()
        wl = _setup(name, path, seed)
        files = sorted(p.read_text() for p in path.iterdir())
        return [(i.label, repr({k: v for k, v in i.data.items()
                                if k not in ("argv", "output")}))
                for i in wl.deck], files

    first = inputs(7, "a")
    assert first == inputs(7, "b")
    assert first[0] != inputs(8, "c")[0]


def test_yardstick_scales_by_the_kernel_time_around_an_interval():
    yard = yardstick.Yardstick()
    ref = yard.ref
    yard.ends = [0.05 * k for k in range(1, 41)]
    yard.times = [2 * ref if end <= 1.0 else ref for end in yard.ends]
    assert yard.scale(0.3, 0.6) == pytest.approx(0.5)
    assert yard.scale(1.4, 1.7) == pytest.approx(1.0)
    # past the last sample: the nearest samples stand in
    assert yard.scale(5.0, 5.1) == pytest.approx(1.0)


def test_fock_oracle_is_scaled_by_the_dense_kernel():
    assert workloads.make("fock-oracle").yardstick == "dense"
    yard = yardstick.Yardstick("dense")
    assert (yard.kernel, yard.ref) == yardstick.KERNELS["dense"]
    yard._sampled()
    assert len(yard.times) == yardstick.NEAREST and yard.scale() > 0


def test_timed_phase_with_yardstick(tmp_path):
    wl = _setup("engine-bulk", tmp_path)
    yard = yardstick.Yardstick()
    yard.start()
    try:
        phase = worker.timed_phase(wl, 0.3, yard)
    finally:
        yard.stop()
    assert yard.times and len(phase.scales) == len(phase.cycles) == len(phase.latencies)
    assert all(f > 0 for f in phase.scales)
    metrics, info = worker.end_to_end(phase, wl, worker.summarize(phase.outcomes))
    # wall_s is the sum of scaled cycles; the handler's time is left out
    scaled = sum(c * f for c, f in zip(phase.cycles, phase.scales))
    assert metrics["wall_s"][0] == pytest.approx(scaled)
    assert info["raw"]["wall_s"] == pytest.approx(sum(phase.cycles))


def test_tail_percentile_keeps_ten_samples_beyond():
    assert worker.tail_percentile(list(range(1, 101))) == (90, 90.0)
    value, pct = worker.tail_percentile(list(range(1, 13)))
    assert (value, round(pct, 1)) == (2, 16.7)
    assert worker.tail_percentile([3.0, 1.0, 2.0]) == (2.0, 50.0)


def test_run_contract_and_missing_sources(tmp_path):
    cmd = [sys.executable, "perfbench/run.py", "--workload", "cli-requests",
           "--seed", "2", "--seconds", "0.1", "--trace", "0", "--tiny"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert result["correct"] and result["failed"] >= 1

    # a checkout holding only the benchmark fails without a result
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work", "out"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0 and out.stdout == ""
