"""noonbell benchmark: drives ``noonbell.cli.main`` in-process over one workload.

    python3 bench/run.py --workload {search,grid-scan,phase-space} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a noonbell checkout; it imports the library from
``src/`` and writes its files under ``.bench_run/``.  The loop is closed: one
caller, one operation at a time, whole cycles of the workload's operations
until ``--seconds`` have passed (the last cycle may run over).  Every
operation's output is checked.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` measures the
per-layer metrics instead: isolated timings of each layer's public functions,
then alternating untraced and traced cycles; the traced ones attribute time
to layers, and the difference between the two is the tracing overhead.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic, perf_counter

SETUP_RUNS = 5
# Process start until the first operation can run: interpreter start plus the
# numpy, scipy and noonbell imports the CLI needs.
SETUP_PROBE = "import sys, time; sys.path.insert(0, 'src'); import noonbell.cli; print(time.monotonic())"
WORKDIR = Path(".bench_run")


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def measure_setup() -> list[float]:
    times = []
    for _ in range(SETUP_RUNS):
        t0 = monotonic()
        done = subprocess.run([sys.executable, "-c", SETUP_PROBE], capture_output=True,
                              text=True, check=True, timeout=120)
        times.append(float(done.stdout.split()[-1]) - t0)
    return times


class Tally:
    """Operation times and failures over a run."""

    def __init__(self):
        self.seconds: list[float] = []
        self.by_label: dict[str, list[float]] = {}
        self.failures: list[str] = []

    def cycle(self, workload) -> float:
        from workloads import run_op

        total = 0.0
        for op in workload.ops:
            seconds, failure = run_op(op, workload.cycle_seed)
            total += seconds
            self.seconds.append(seconds)
            self.by_label.setdefault(op.label, []).append(seconds)
            if failure is not None:
                self.failures.append(f"{op.label}: {failure}")
        return total


def end_to_end(workload, seconds: int, tally: Tally) -> dict:
    from workloads import tail

    setup = measure_setup()
    workload.warm_up()
    t0 = perf_counter()
    for index in itertools.count():
        workload.begin_cycle(index)
        tally.cycle(workload)
        if perf_counter() - t0 >= seconds:
            break
    elapsed = perf_counter() - t0
    tail_value, tail_pct = tail(tally.seconds)
    print(f"setup_s runs: {', '.join(f'{s:.4f}' for s in setup)}")
    print(f"op_s_tail is p{tail_pct:g} of {len(tally.seconds)} operations")
    return {
        "setup_s": (statistics.median(setup), "s"),
        "op_s_p50": (statistics.median(tally.seconds), "s"),
        "op_s_tail": (tail_value, "s"),
        "ops_per_s": (len(tally.seconds) / elapsed, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(workload, seconds: int, tally: Tally) -> dict:
    import layers
    from spans import Tracer, layer_metrics

    metrics = layers.measure(workload.seed)
    workload.warm_up()
    tracer = Tracer()
    untraced, traced = [], []
    t0 = perf_counter()
    for index in itertools.count():
        # Both cycles of a pair use the same seed: identical work, and the
        # traced payloads must match the untraced ones byte for byte.
        workload.begin_cycle(index)
        untraced.append(tally.cycle(workload))
        tracer.install()
        workload.tracer = tracer
        try:
            traced.append(tally.cycle(workload))
        finally:
            workload.tracer = None
            tracer.uninstall()
        if perf_counter() - t0 >= seconds:
            break
    tracer.write(workload.workdir / "trace.npz")
    print(f"traced cycles: {len(traced)}; absent trace targets: {', '.join(tracer.absent) or 'none'}")
    metrics.update(layer_metrics(tracer))
    base = statistics.median(untraced)
    overhead = statistics.median(traced) - base
    metrics["trace.untraced_cycle_s"] = (base, "s")
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_frac"] = (overhead / base, "ratio")
    return metrics


def main(argv=None) -> int:
    if not Path("src/noonbell/__init__.py").is_file():
        print("bench: run from the root of a noonbell checkout (no src/noonbell here)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path("src").resolve()))
    args = parse_args(argv)
    # Measure the CLI's own thread default, whatever the caller's shell set.
    os.environ.pop("NOONBELL_THREADS", None)

    import machine
    from workloads import WORKLOADS

    workdir = WORKDIR / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}")
    print("machine: " + json.dumps(machine.record(), sort_keys=True))

    tally = Tally()
    measure = per_layer if args.trace else end_to_end
    metrics = measure(workload, args.seconds, tally)

    for label, times in tally.by_label.items():
        print(f"  {label:<45} n={len(times):<3} median {statistics.median(times):.4f} s"
              f"  min {min(times):.4f}  max {max(times):.4f}")
    for failure in tally.failures:
        print(f"FAILED {failure}")
    attempted, failed = len(tally.seconds), len(tally.failures)
    print(f"{'fail_frac':<50} {failed / attempted:.6g} ratio")
    for name, (value, unit) in metrics.items():
        print(f"{name:<50} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
