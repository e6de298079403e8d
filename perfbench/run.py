"""The repository benchmark: publish->delivery latency and throughput.

Run from the repository root::

    python3 perfbench/run.py --workload local_fanout --seed 1 --seconds 10 --trace 0

Workloads (sizes and predictions in ``perfbench/workloads.json``):
``local_fanout``, ``wire_sr_tps``, ``async_streams`` and ``durable_log``; see
``perfbench/workloads.py``.  ``--trace 0`` measures the end-to-end metrics;
``--trace 1`` runs the workload untraced for half of ``--seconds`` and then,
with timing wrappers installed on every layer, for the other half, and
reports the per-layer metrics.  Every metric is printed as ``name value
unit``; ``--trace 0`` also prints each end-to-end metric in unscaled wall
time as ``raw name value unit``.  The last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 1
when any delivery diverged from the reference model.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from statistics import median
from typing import Any, Dict, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import workloads  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402

#: Spans a traced run keeps in memory before it ends its timed phase early.
MAX_SPANS = 400_000


def fingerprint(seed: int) -> Dict[str, Any]:
    """Python, cores, platform, revision and seed of this run."""
    try:
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        ).stdout.strip()
    except OSError:
        revision = ""
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "revision": revision or "unknown (not a git checkout)",
        "seed": seed,
    }


def percentile(sorted_values: Any, fraction: float) -> Tuple[float, float]:
    """The ``fraction`` percentile, lowered until at least 10 samples lie beyond it.

    Returns ``(value, fraction actually used)``.
    """
    count = len(sorted_values)
    index = min(int(count * fraction), count - 11 if count > 11 else count - 1)
    return float(sorted_values[max(index, 0)]), (max(index, 0) + 1) / count


def end_to_end(series: workloads.Series) -> Dict[str, Tuple[float, str]]:
    """The end-to-end metrics of one untraced run at one time base (see
    :class:`workloads.Measured`).

    Throughput and median latency are medians over the timed rounds (each
    a few hundred publishes).  The p99 is the median of the p99s of windows
    of ``P99_WINDOW`` consecutive publishes, so one noisy second of the host
    cannot set it; a run with fewer samples pools them.
    """
    if series.window_p99_ns:
        p99 = median(series.window_p99_ns)
    else:
        p99, used = percentile(sorted(series.latencies_ns), 0.99)
        print(f"note: only {series.samples} latency samples; latency_p99_us is p{used * 100:.2f}")
    return {
        "setup_s": (median(series.setup_s), "s"),
        "deliveries_per_s": (median([rate for rate, _ in series.rounds]), "1/s"),
        "latency_p50_us": (median([p50 for _, p50 in series.rounds]) / 1e3, "us"),
        "latency_p99_us": (p99 / 1e3, "us"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "recovery_s": (median(series.recovery_s), "s"),
        "replay_per_s": (median(series.replay_per_s), "1/s"),
    }


def main(argv: Any = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One process, one thread: keep it on one core so the scheduler does
    # not move it between cores of different speed mid-round.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.workload == "durable_log":
        # The log belongs on tmpfs, where fsync returns at once, so that the
        # figures measure encoding, writing and scanning rather than the
        # host's shared disk.  The benchmark may write only inside its
        # checkout, which is on that disk, so fsync gets tmpfs behaviour
        # instead.  Calls are still counted and timed (storage.log.fsync_*).
        os.fsync = workloads.tmpfs_fsync
    with open(os.path.join(HERE, "workloads.json"), encoding="utf-8") as spec_file:
        spec = json.load(spec_file)[args.workload]
    run = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(ROOT, ".perfbench_tmp", "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    for key, value in fingerprint(args.seed).items():
        print(f"env {key}: {value}")
    try:
        if args.trace:
            untraced = run(args.seed, args.seconds / 2, spec["sizes"], NullTracer(), workdir)
            tracer = Tracer(MAX_SPANS)
            layers.install(tracer)
            try:
                measured = run(args.seed, args.seconds / 2, spec["sizes"], tracer, workdir)
            finally:
                tracer.uninstall()
            # Both rates scaled to the nominal host, so a speed change of the
            # host between the two halves does not read as tracing cost.
            traced_rate = median([rate for rate, _ in measured.scaled.rounds])
            untraced_rate = median([rate for rate, _ in untraced.scaled.rounds])
            metrics = layers.per_layer_metrics(tracer, traced_rate, untraced_rate)
            spans_path = os.path.join(
                ROOT, ".perfbench_out", "spans-%s-seed%d.jsonl" % (args.workload, args.seed)
            )
            tracer.write(spans_path)
            print(f"spans: {len(tracer)} over {tracer.request + 1} publishes -> {spans_path}")
            attempted = untraced.expected + measured.expected
            failed = untraced.errors + measured.errors
            notes = untraced.notes + measured.notes
        else:
            measured = run(args.seed, args.seconds, spec["sizes"], NullTracer(), workdir)
            metrics = end_to_end(measured.scaled)
            for name, (value, unit) in end_to_end(measured.raw).items():
                print(f"raw {name} {value:.6g} {unit} (wall clock, unscaled)")
            attempted, failed, notes = measured.expected, measured.errors, measured.notes
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for note in sorted(set(notes)):
        print(f"MISMATCH: {note}")
    predicted = spec.get("predicted", {}) if args.trace else {}
    for name, (value, unit) in metrics.items():
        line = f"{name} {value:.6g} {unit}"
        if name in predicted:
            low, high = predicted[name]
            verdict = "as predicted" if low <= value <= high else "OUTSIDE prediction"
            line += f"  ({verdict} [{low:g}, {high:g}])"
        print(line)
    print(f"error_rate {failed / max(attempted, 1):.6g} ratio")
    print(f"host slowness {median(measured.slowness):.4g} (1 = nominal)")
    print(
        f"samples latency={measured.raw.samples} rounds={len(measured.raw.rounds)} "
        f"setups={len(measured.raw.setup_s)} replays={len(measured.raw.replay_per_s)} "
        f"reconnects={len(measured.raw.recovery_s)}"
    )
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": max(attempted, 1),
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
