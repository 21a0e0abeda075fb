"""Traced pass over every workload, written up as a Markdown report.

    python3 perfbench/report.py --seed 1 --seconds 8 [--out perfbench/out/report.md]

Runs ``run.py --trace 1`` once per workload and reports, for each, the
self time of every layer as a share of the traced wall time, the tracing
overhead, and the figures the ROADMAP baseline quotes.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from run import HERE, ROOT, WORKLOADS


def traced_run(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    info, result = (json.loads(line) for line in out.stdout.strip().splitlines()[-2:])
    return info, {k: v["value"] for k, v in result["metrics"].items()}, result


def render(runs, seed, seconds):
    machine = next(iter(runs.values()))[0]["machine"]
    lines = [f"# Traced pass, seed {seed}, {seconds} s per workload", "",
             "Machine: " + ", ".join(f"{k} {v}" for k, v in machine.items()), "",
             "## Self time by layer, share of traced wall time", "",
             "| layer | " + " | ".join(runs) + " |",
             "| --- |" + " ---: |" * len(runs)]
    layers = [k.split(".", 1)[1] for k in next(iter(runs.values()))[1]
              if k.startswith("share.")]
    for layer in layers:
        lines.append(f"| {layer} | " + " | ".join(
            f"{m[f'share.{layer}']:.3f}" for _, m, _ in runs.values()) + " |")
    for key in ("trace.self_sum_ratio", "trace.overhead_ratio"):
        lines.append(f"| *{key}* | " + " | ".join(
            f"{m[key]:.3f}" for _, m, _ in runs.values()) + " |")
    lines += ["", "## Checks", ""]
    for name, (info, m, result) in runs.items():
        lines.append(f"- {name}: {result['attempted']} ops, {result['failed']} failed "
                     f"({m['check.known_defect_failures']:.0f} known defect), worst "
                     f"relative deviation {m['check.worst_rel_dev']:.2e}")
    lines += ["", "## Share of untraced op time by label prefix", ""]
    for name, (info, _, _) in runs.items():
        lines.append(f"- {name}: " + ", ".join(
            f"{k} {v:.2f}" for k, v in info["op_time_share"].items()))
    lines += ["", "## ROADMAP baseline figures, measured again", ""]
    m = runs["engine-bulk"][1]
    lines += [f"- `qfi_unitary`: {m['qfi.qfi_unitary.us_per_call']:.0f} µs/call "
              f"(`p_matrix` {m['qfi.p_matrix.us_per_call']:.0f} µs of it)",
              f"- probe construction: `to_probe_state` "
              f"{m['probes.to_probe_state.us_per_call']:.0f} µs/call; raw moments "
              f"through `williamson` {m['symplectic.williamson.us_per_call']:.0f} µs "
              f"plus `validate_state` {m['core.validate_state.us_per_call']:.0f} µs"]
    info, m, _ = runs["probe-search"]
    lines.append(f"- optimizer: {m['optimizer.nfev']:.0f} objective evaluations "
                 f"in {m['optimizer.nm_runs']:.0f} Nelder-Mead runs, "
                 f"{m['optimizer.us_per_eval']:.1f} µs/eval")
    for label, row in info["by_label"].items():
        lines.append(f"  - {label}: {row['nfev']:.0f} evaluations, "
                     f"{row['seconds']:.2f} s")
    info, m, _ = runs["fock-oracle"]
    lines.append(f"- Fock panel: {m['fock.panel_s']:.2f} s (sum of per-case "
                 f"medians), slowest case {m['fock.max_case_s']:.2f} s")
    for label, row in info["by_label"].items():
        lines.append(f"  - {label}: cutoff {row['cutoff']:.0f}, "
                     f"{row['ladder_steps']:.0f} ladder steps, {row['seconds']:.4f} s")
    return "\n".join(lines) + "\n"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--out", default=os.path.join(HERE, "out", "report.md"))
    args = parser.parse_args(argv)
    runs = {w: traced_run(w, args.seed, args.seconds) for w in WORKLOADS}
    text = render(runs, args.seed, args.seconds)
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
