"""Repository benchmark: campaign throughput and control-plane churn.

Run from the repository root::

    python3 perfbench/run.py --workload classify-sweep --seed 1 --seconds 10 --trace 0

Workloads: ``classify-sweep``, ``policy-grid``, ``serve-churn``,
``serve-failover`` (see README.md for why each was chosen). The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run
(spans are written to ``.perfbench-out/``). The exit code is 0 only when
every correctness check passed.
"""

from __future__ import annotations

import time

#: Process start as far as this program can see it; ``setup_s`` runs
#: from here to the first timed operation.
T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("classify-sweep", "policy-grid", "serve-churn", "serve-failover")
#: Set-ups per run (this process plus fresh child processes); setup_s is
#: their median.
SETUP_REPEATS = 3

#: End-to-end metrics: (name, unit). An "op" is one campaign cell or one
#: serve event.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_max_of_100", "ms"),
)
#: Ops per window for ``op_ms_max_of_100``.
TAIL_WINDOW = 100

#: Workload figure -> per-layer metric name it is reported under.
_FIGURE_METRICS = {
    "migrations_per_event": "serve.plane.migrations_per_event",
    "accept_ratio": "serve.plane.accept_ratio",
    "dicer_suci_gmean": "core.dicer.suci_gmean",
    "dicer_hp_slowdown_gmean": "core.dicer.hp_slowdown_gmean",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="set up, print {\"setup_s\": ...} and exit (setup sampling)",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def _child_setup_s(args) -> float:
    """Set up once more in a fresh process; returns its setup_s."""
    proc = subprocess.run(
        [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", "0",
            "--setup-only",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"setup child failed:\n{proc.stderr}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def max_of_windows(latencies, window: int = TAIL_WINDOW) -> float:
    """Median over windows of ``window`` consecutive ops of their slowest op.

    The typical 1-in-``window`` worst latency. Unlike a pooled p99 it does
    not hinge on a few disturbed windows: serve snapshots (with an fsync)
    are exactly 1 % of events, so a pooled p99 sits on the edge of that
    population and jumps with the disk.
    """
    worst = [
        max(latencies[i:i + window])
        for i in range(0, len(latencies) - window + 1, window)
    ]
    if worst:
        return statistics.median(worst)
    return max(latencies, default=0.0)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"error: no program source at {ROOT / 'src' / 'repro'}; run "
            "from a checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    import workloads

    work = workloads.WORKLOADS[args.workload](
        args.seed,
        args.seconds,
        ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}",
    )
    tracer = tracing.Tracer() if args.trace else None
    instrumentation = (
        tracing.Instrumentation(tracer) if tracer is not None else None
    )
    try:
        # A traced run also traces set-up (the serve admission searches).
        with (
            work.traced(instrumentation)
            if instrumentation is not None
            else contextlib.nullcontext()
        ):
            work.setup()
        setup_s = time.perf_counter() - T_START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        work.measure(instrumentation)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        problems = work.verify()
    finally:
        work.cleanup()
    setup_samples = [setup_s] + [
        _child_setup_s(args) for _ in range(SETUP_REPEATS - 1)
    ]

    rounds = work.rounds
    op = work.op
    end_to_end = {
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": peak_rss_mb,
        "ops_per_s": rounds.rate(rounds.untraced),
        "op_ms_p50": tracing.percentile(rounds.latencies, 50) * 1e3,
        "op_ms_max_of_100": max_of_windows(rounds.latencies) * 1e3,
    }
    n_rounds = len(rounds.untraced) + len(rounds.traced)
    print(
        f"{args.workload} seed={args.seed}: {work.attempted} {op}s in "
        f"{n_rounds} rounds, {work.failed} failed; set-up samples "
        + ", ".join(f"{s:.3f}" for s in setup_samples)
        + " s"
    )
    units = dict(END_TO_END)
    for name, value in end_to_end.items():
        alias = f"  ({work.aliases[name]})" if name in work.aliases else ""
        print(f"  {name} = {value:.6g} {units[name]}{alias}")
    print(
        f"  ({len(rounds.latencies)} {op} latencies; pooled p99 = "
        f"{tracing.percentile(rounds.latencies, 99) * 1e3:.6g} ms)"
    )
    for name, (value, unit) in work.figures.items():
        print(f"  figure {name} = {value:.6g} {unit}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")

    if tracer is None:
        metrics = {
            name: {"value": end_to_end[name], "unit": unit}
            for name, unit in END_TO_END
        }
    else:
        traced_rate = rounds.rate(rounds.traced)
        iterations, hits, misses = rounds.traced_solver
        extra = {
            "sim.solve.iterations": iterations,
            "sim.steady_cache.misses": misses,
            "sim.steady_cache.hit_rate": (
                hits / (hits + misses) if hits + misses else 0.0
            ),
            "trace.overhead_pct": (
                (end_to_end["ops_per_s"] / traced_rate - 1.0) * 100.0
                if traced_rate
                else 0.0
            ),
        }
        for figure, metric in _FIGURE_METRICS.items():
            if figure in work.figures:
                extra[metric] = work.figures[figure][0]
        values = tracing.layer_metrics(tracer, extra)
        spans_path = (
            ROOT / ".perfbench-out" / f"{args.workload}-seed{args.seed}-spans.npz"
        )
        tracer.write(spans_path)
        print(
            f"  traced {len(rounds.traced)} of {n_rounds} rounds: "
            f"{traced_rate:.6g} {op}s/s traced vs "
            f"{end_to_end['ops_per_s']:.6g} untraced; spans in {spans_path}"
        )
        metrics = {}
        for name, unit, _better in tracing.LAYER_METRICS:
            print(f"  {name} = {values[name]:.6g} {unit}")
            metrics[name] = {"value": values[name], "unit": unit}

    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": work.attempted,
                "failed": work.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
