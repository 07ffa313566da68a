"""Run one benchmark workload; the last line of stdout is the result as JSON.

    python3 perfbench/run.py --workload gq35-full --seed 0 --seconds 25 --trace 0

Run it from the root of a source checkout: srgpq is imported from ``src/``
and nowhere else.  The set-up (import plus input generation and checking) is
repeated before and after the timed operations and its median reported.
With ``--trace 0`` operations run one at a time until the next round would
end past ``--seconds``, and the end-to-end metrics are printed, times read
at the reference machine speed of ``perfbench.speed``.  With ``--trace 1``
a fixed number of rounds runs, each operation once untraced and once traced,
so call counts repeat exactly for a seed; the per-layer metrics are printed
and every span is written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Set-ups before and after the timed operations: machine speed drifts, so
# set-up times from both ends of the run enter their median.
SETUP_REPEATS = (4, 3)
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest listed percentile with ten samples beyond it.

    With fewer than twenty samples no percentile above the median has ten
    beyond it, and the median is returned as the tail.
    """
    ordered = sorted(latencies)
    for percentile in TAIL_PERCENTILES:
        rank = int(len(ordered) * percentile / 100)
        if len(ordered) - 1 - rank >= 10:
            return percentile, ordered[rank]
    return 50.0, statistics.median(ordered)


def measure(workload, seconds: float) -> list:
    """Run whole rounds until the next one would end past the time limit."""
    gc.collect()
    ops, rounds, index = [], [], 0
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for _ in range(workload.round_size):
            ops.append(workload.run(index))
            index += 1
        rounds.append(time.perf_counter() - round_start)
        if time.perf_counter() - start + statistics.median(rounds) > seconds:
            return ops


def end_to_end(ops: list, setup: list[tuple]) -> tuple[dict, list[str]]:
    """The end-to-end metrics, and summary lines with per-stage and raw latency figures.

    Run-to-run speed of the same code varies by tens of percent on a shared
    machine, in phases that last from seconds to minutes, so times are read
    at the reference speed (``perfbench.speed``): each step counts the
    median of its scaled times in the run, and set-up the median of its
    scaled set-ups.  The raw median and tail latency, the raw set-up median
    and the fastest raw time of each step are printed as well.
    """
    from perfbench import speed

    scaled: dict = {}
    fastest: dict = {}
    for op in ops:
        for _, key, timing in op.steps:
            scaled.setdefault(key, []).append(timing.at_reference)
            fastest[key] = min(timing.seconds, fastest.get(key, timing.seconds))
    typical = {key: statistics.median(values) for key, values in scaled.items()}
    stage_s: dict = {}
    best_s = 0.0
    for op in ops:
        for stage, key, _ in op.steps:
            stage_s[stage] = stage_s.get(stage, 0.0) + typical[key] / len(ops)
            best_s += fastest[key] / len(ops)
    latencies = [op.seconds for op in ops]
    percentile, tail_value = tail(latencies)
    metrics = {
        "setup_s": (statistics.median(timing.at_reference for timing in setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "op_ref_s": (sum(stage_s.values()), "s"),
    }
    notes = [f"raw latency: median {statistics.median(latencies):.6f} s, "
             f"p{percentile:g} {tail_value:.6f} s of {len(ops)} operations",
             f"raw set-up median {statistics.median(t.seconds for t in setup):.6f} s, "
             f"raw op_best_s {best_s:.6f} s (each step at its fastest)"]
    notes += [f"{stage}_s {seconds:.6f} s" for stage, seconds in stage_s.items()]
    return metrics, notes


def traced(workload, seed: int) -> tuple[list, dict, list[str]]:
    """Each of a fixed set of operations untraced, then traced; per-layer metrics from the spans."""
    from perfbench.tracing import Tracer

    count = workload.trace_rounds * workload.round_size
    gc.collect()
    plain, ops, tracer = [], [], Tracer()
    for index in range(count):  # alternate, so that drifts in machine speed cancel
        plain.append(workload.run(index))
        with tracer:
            tracer.op = index
            ops.append(workload.run(index))
    metrics = tracer.layer_metrics()
    overhead = sum(op.seconds for op in ops) / sum(op.seconds for op in plain)
    metrics["trace_overhead_ratio"] = (overhead, "ratio")
    out = ROOT / "perfbench" / "out"
    out.mkdir(exist_ok=True)
    path = out / f"trace-{workload.name}-seed{seed}.json.gz"
    tracer.write(path)
    notes = [f"{tracer.span_count} spans of {count} operations written to "
             f"{path.relative_to(ROOT)}"]
    return plain + ops, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import srgpq
    except ImportError as exc:
        print(f"error: srgpq is not importable from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if Path(srgpq.__file__).resolve().parent != ROOT / "src" / "srgpq":
        print(f"error: srgpq was imported from {srgpq.__file__}, not from src/", file=sys.stderr)
        return 2
    from perfbench import speed
    from perfbench.workloads import WORKLOADS, load_srgpq

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    setup = []

    def set_up():
        with speed.timed() as timing:
            workload = WORKLOADS[args.workload](args.seed, load_srgpq())
        setup.append(timing)
        return workload

    for _ in range(SETUP_REPEATS[0]):
        workload = set_up()
    if args.trace:
        ops, metrics, notes = traced(workload, args.seed)
    else:
        ops = measure(workload, args.seconds)
        for _ in range(SETUP_REPEATS[1]):
            set_up()
        metrics, notes = end_to_end(ops, setup)
    failed = [op for op in ops if op.problems]
    for op in failed[:5]:
        print("failed operation:\n  " + "\n  ".join(op.problems), file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(ops)} operations, {len(failed)} failed "
          f"(failed_ratio {len(failed) / len(ops):g})")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    for note in notes:
        print(f"  {note}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
