#!/usr/bin/env python3
"""burnkit benchmark: one workload, timed or traced, all outputs checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a burnkit checkout; burnkit is imported from its
`src/`.  The inputs are built from the seed three times (set-up), then the
pool of ops runs in whole rounds until S seconds have passed.  Every op's
output is then checked independently (checker.py).  Stdout ends with one
JSON line: correct, attempted, failed and the metrics, the end-to-end ones
with --trace 0 and the per-layer ones with --trace 1.  The line before it
stamps the run (kernel, versions, cores, seed, ops).  With --trace 1 the
pool first runs untraced, then traced for another S seconds (the inputs
are built once more, traced, before the untraced rounds), and the spans
are written to perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Failure(NamedTuple):
    """The output of an op that raised; counts as failed."""

    reason: str


def run_rounds(wl, seconds: float, tracer=None):
    """Run whole rounds of the pool until `seconds` have passed.

    Returns the op latencies, the count of each distinct (op, output) in
    the order first seen, the seconds each round took and the seconds all
    of them took.  Only distinct outputs are kept, so memory does not grow
    with the rounds.
    """
    latencies = []
    outputs: dict = {}
    round_s = []
    start = perf_counter()
    while True:
        round_start = perf_counter()
        for i in range(wl.size):
            if tracer is not None:
                tracer.op = len(latencies)
            t0 = perf_counter()
            try:
                out = wl.run(i)
            except Exception as exc:  # a failed op is counted, not fatal
                out = Failure("".join(traceback.format_exception_only(exc)).strip())
            latencies.append(perf_counter() - t0)
            outputs[i, out] = outputs.get((i, out), 0) + 1
        round_s.append(perf_counter() - round_start)
        if perf_counter() - start >= seconds:
            break
    return latencies, outputs, round_s, perf_counter() - start


def check_all(wl, outputs) -> tuple[int, int]:
    """(failed ops, ops whose output was wrong), checking each distinct output once.

    The first failure is printed to stderr.
    """
    failed = wrong = 0
    for (i, out), count in outputs.items():
        if isinstance(out, Failure):
            reason = out.reason
        else:
            reason = wl.check(i, out)
            wrong += count * (reason is not None)
        if reason is not None:
            if not failed:
                print(f"op {i} failed {count} times: {reason}", file=sys.stderr)
            failed += count
    return failed, wrong


def end_to_end(wl, setup_s, latencies, outputs, round_s) -> dict:
    ms = sorted(1e3 * x for x in latencies)
    tail = statistics.quantiles(ms, n=100, method="inclusive")[wl.tail_pct - 1]
    first = [out for _, out in list(outputs)[: wl.size] if not isinstance(out, Failure)]
    return {
        "setup_s": (setup_s, "s"),
        # The median round, so that a slow spell of the host during one
        # round does not move the figure.
        "throughput_ops": (wl.size / statistics.median(round_s), "1/s"),
        "latency_p50_ms": (statistics.median(ms), "ms"),
        "latency_tail_ms": (tail, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "rounds_total": (sum(wl.rounds(out) for out in first), "rounds"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "burnkit" / "__init__.py").is_file():
        print(f"burnkit sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    t0 = perf_counter()
    import burnkit
    import burnkit.cli  # noqa: F401  (the package does not import its CLI)
    import_s = perf_counter() - t0
    if Path(burnkit.__file__).resolve().parent != ROOT / "src" / "burnkit":
        print(f"imported burnkit from {burnkit.__file__}, not this checkout", file=sys.stderr)
        return 2
    import numpy
    from burnkit import engine

    import tracing
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"unknown workload {args.workload!r}; one of {workloads.NAMES}", file=sys.stderr)
        return 2
    wl = workloads.make(args.workload, OUT / f"cli-{os.getpid()}")
    try:
        builds = []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            wl.build(args.seed)
            builds.append(perf_counter() - t0)
        setup_s = import_s + statistics.median(builds)
        if args.trace:
            tracer = tracing.Tracer()
            with tracer.installed():
                wl.build(args.seed)
            build_mark = len(tracer.spans)
        run_rounds(wl, 0)  # one untimed round, so that lazy set-up is done

        latencies, outputs, round_s, elapsed = run_rounds(wl, args.seconds)
        attempted = len(latencies)
        failed, wrong = check_all(wl, outputs)
        metrics = end_to_end(wl, setup_s, latencies, outputs, round_s)
        stamp = {
            "workload": args.workload,
            "seed": args.seed,
            "kernel": engine.KERNEL_NAME,
            "burnkit_pure": os.environ.get("BURNKIT_PURE", ""),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "rounds": len(round_s),
            "tail_percentile": wl.tail_pct,
            "timed": {"attempted": attempted, "failed": failed},
        }
        if args.trace:
            with tracer.installed():
                t_lat, t_out, t_round_s, t_elapsed = run_rounds(wl, args.seconds, tracer)
            t_rounds = len(t_round_s)
            t_failed, t_wrong = check_all(wl, t_out)
            attempted += len(t_lat)
            failed += t_failed
            wrong += t_wrong
            stamp["traced"] = {"attempted": len(t_lat), "failed": t_failed, "rounds": t_rounds}
            metrics = tracer.per_layer(build_mark, t_rounds)
            overhead = t_elapsed / len(t_lat) * len(latencies) / elapsed - 1
            metrics["trace.overhead_pct"] = (100 * overhead, "%")
            OUT.mkdir(exist_ok=True)
            tracer.write(OUT / f"trace-{args.workload}-{args.seed}.jsonl.gz", stamp)
    finally:
        if hasattr(wl, "close"):
            wl.close()
    print("stamp " + json.dumps(stamp))
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
