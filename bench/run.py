"""Benchmark of the flowgate detector, measured from the outside.

    python3 bench/run.py --workload retrain-kdd --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout and imports flowgate from its
``src`` directory. One process, one thread: BLAS and OpenMP are pinned to
one thread before numpy loads.

A run sets the workload up ``setup_repeats`` times, then repeats whole
rounds of its timed operations until ``--seconds`` have passed (at least
one round), then checks the last round's outputs. With ``--trace 0`` the
last line of standard output is the result with the end-to-end metrics;
with ``--trace 1`` the first half of the time runs untraced rounds, the
second half traced rounds, and the result carries the per-layer metrics
and the tracing overhead. Spans go to ``.bench_out/spans-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("retrain-kdd", "retrain-dense", "score-flows")


def import_program():
    """Put the checkout's src first on the path; fail if it is missing."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "flowgate", "__init__.py")):
        raise SystemExit(f"bench: no flowgate sources under {src}")
    sys.path.insert(0, src)
    import flowgate
    if not os.path.abspath(flowgate.__file__).startswith(src + os.sep):
        raise SystemExit(f"bench: flowgate imported from {flowgate.__file__}"
                         f", not from {src}")


def timed_rounds(workload, seconds, tracer=None):
    """Whole rounds until `seconds` have passed; returns per-round seconds,
    the number of rounds that raised, and the set of output digests.
    The digests are taken outside the timing and the trace."""
    times, failed, digests = [], 0, set()
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        try:
            workload.run_round()
        except Exception as exc:  # counted, reported, and the run goes on
            print(f"bench: round failed: {exc!r}", file=sys.stderr)
            failed += 1
            times.append(time.perf_counter() - t0)
            continue
        times.append(time.perf_counter() - t0)
        if tracer:
            tracer.recording = False
        digests.add(tuple(sorted(workload.artifacts().items())))
        if tracer:
            tracer.recording = True
    return times, failed, digests


def run(name, seed, seconds, trace, **sizes):
    """One benchmark run; returns the result object."""
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS, CheckFailed

    workdir = os.path.join(OUT, name)
    os.makedirs(workdir, exist_ok=True)
    workload = WORKLOADS[name](seed, workdir, **sizes)
    setups = []
    for _ in range(workload.setup_repeats):
        t0 = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - t0)

    if trace:
        plain, failed, digests = timed_rounds(workload, seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            times, traced_failed, traced_digests = timed_rounds(
                workload, seconds / 2, tracer)
        finally:
            tracer.uninstall()
        failed += traced_failed
        digests |= traced_digests
    else:
        times, failed, digests = timed_rounds(workload, seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    all_times = plain + times if trace else times
    rounds = len(all_times)

    correct, quality, info = True, {}, {}
    try:
        if failed < rounds:
            if len(digests) != 1:
                raise CheckFailed(f"rounds with the same inputs gave "
                                  f"{len(digests)} different outputs")
            quality, info = workload.check()
            info.update(next(iter(digests)))
    except CheckFailed as exc:
        print(f"bench: check failed: {exc}", file=sys.stderr)
        correct = False

    if trace:
        tracer.write(os.path.join(OUT, f"spans-{name}.json"))
        layers = layer_metrics(tracer.spans, len(times))
        base = statistics.median(plain)
        layers["trace.overhead_pct"] = (
            100.0 * (statistics.median(times) - base) / base, "%")
        layers["trace.spans"] = (len(tracer.spans) / len(times), "count")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "round_s": {"value": statistics.median(times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "accuracy": {"value": quality.get("accuracy", 0.0),
                         "unit": "ratio"},
        }
    summary = {"workload": name, "seed": seed, "rounds": rounds,
               "round_s": [round(t, 4) for t in all_times],
               "setup_s": [round(t, 4) for t in setups], **quality, **info}
    print("bench: " + json.dumps(summary))
    return {"correct": correct,
            "attempted": rounds * workload.ops_per_round,
            "failed": failed * workload.ops_per_round,
            "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"],
                        help="'all' runs each workload in its own process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return max(subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)]).returncode for name in WORKLOADS)
    import_program()
    result = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
