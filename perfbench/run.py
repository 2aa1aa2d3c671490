"""anderson2d benchmark: time to solution per workload, or a traced run.

Usage (from the repository root):

    python3 perfbench/run.py --workload saddle-spike32 --seed 1 --seconds 25 --trace 0

Runs workload iterations one after another, each in a fresh worker
process, and starts another only while it should end within ``--seconds``
(but runs at least two, so that a repeat can be compared). With
``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json: the
medians over the iterations of wall time, cold set-up time and peak RSS,
and the fraction of operations that passed. With ``--trace 1`` it spends
half the time on untraced iterations (at least one), then runs two traced
ones, and reports the per-layer metrics plus the tracing overhead. Either
way the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

An operation (one CLI pipeline or public library call) fails on an
exception, a non-zero exit code, a failed output check, or when a repeat
iteration writes artifacts that differ from the first iteration's. In a
traced run, the two traced iterations must also give identical work
counts. Exits 2, printing no result, when the program cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("saddle-spike32", "spectral-n96", "heat-n64", "choquard-n64",
                  "saddle-spike32-full")


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed operation)."""


def iteration(workload, seed, trace):
    """Run one worker; returns its result and how long it took to run."""
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(ROOT / ".bench_out" / workload)]
    if trace:
        cmd.append("--trace")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(
            f"worker exited with code {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1]), time.monotonic() - t0


def op_checksums(result, op):
    prefix = op + os.sep
    return {k: v for k, v in result["checksums"].items() if k.startswith(prefix)}


def count_failures(results, count_metrics):
    """(attempted, failed, reasons) over all iterations of one run."""
    first = results[0]
    attempted, reasons = 0, []
    for i, res in enumerate(results):
        for op in res["ops"]:
            attempted += 1
            if op in res["errors"]:
                reasons.append(f"iteration {i} {op}: {res['errors'][op]}")
            elif i > 0 and op not in first["errors"] and (
                    op_checksums(res, op) != op_checksums(first, op)):
                reasons.append(f"iteration {i} {op}: artifacts differ from iteration 0")
    traced = [r for r in results if r["layers"] is not None]
    for res in traced[1:]:
        diff = {k: (traced[0]["layers"][k], res["layers"][k])
                for k in count_metrics
                if traced[0]["layers"][k] != res["layers"][k]}
        if diff:
            reasons.extend(f"traced repeat {op}: work counts differ {diff}"
                           for op in res["ops"])
    return attempted, len(reasons), reasons


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "anderson2d" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"anderson2d sources or BENCHMARK.json not found under {ROOT}",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    count_metrics = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]

    t0 = time.monotonic()
    budget = args.seconds / 2 if args.trace else args.seconds
    # a traced run compares its two traced iterations with the untraced one
    least = 1 if args.trace else 2
    results, last = [], 0.0
    try:
        # start another iteration only if it should end within the budget
        while len(results) < least or time.monotonic() - t0 + last <= budget:
            result, last = iteration(args.workload, args.seed, trace=False)
            results.append(result)
        untraced = list(results)
        if args.trace:
            results += [iteration(args.workload, args.seed, trace=True)[0]
                        for _ in range(2)]
    except (BenchmarkError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1

    attempted, failed, reasons = count_failures(results, count_metrics)
    for reason in reasons:
        print(f"FAILED {reason}")
    for i, res in enumerate(results):
        kind = "traced" if res["layers"] is not None else "timed"
        print(f"iteration {i} ({kind}): wall {res['wall_s']:.4f} s, "
              f"cpu {res['cpu_s']:.4f} s, "
              f"setup {res['setup_s']:.4f} s, peak RSS {res['peak_rss_mb']:.1f} MiB")

    if args.trace:
        traced = [r["layers"] for r in results if r["layers"] is not None]
        metrics = {}
        for m in spec["per_layer"]:
            name = m["name"]
            if name == "tracing.overhead_s":
                value = (statistics.median(r["wall_s"] for r in results if r["layers"])
                         - statistics.median(r["wall_s"] for r in untraced))
            elif m["unit"] == "count":
                value = traced[0][name]
            else:
                value = statistics.median(t[name] for t in traced)
            metrics[name] = value
    else:
        metrics = {
            "wall_s": statistics.median(r["wall_s"] for r in results),
            "setup_s": statistics.median(r["setup_s"] for r in results),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
            "passed_frac": (attempted - failed) / attempted,
        }
        print(f"{'failed_frac':<36} {failed / attempted:>16.6g} ratio")
    for name, value in metrics.items():
        print(f"{name:<36} {value:>16.6g} {units[name]}")

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "iterations": len(results), "env": results[0]["env"],
              "metrics": metrics, "failures": reasons}
    out = ROOT / ".bench_out" / args.workload / f"result-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({"env": record["env"], "seed": args.seed}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
