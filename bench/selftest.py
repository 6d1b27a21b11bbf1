"""Quick self-test of the benchmark harness at toy size (about ten seconds).

    python3 bench/selftest.py

Runs every workload once untraced and once traced on tiny inputs, checks
that each result carries exactly the metrics BENCHMARK.json names, and
that each workload's checks reject a deliberately wrong output.
"""

from __future__ import annotations

import json
import os
import sys
import time

import run

TOY = {
    "retrain-kdd": {"scale": 0.03, "n_bats": 4, "n_iterations": 2,
                    "probe": 200, "n_trees": 2},
    "retrain-dense": {"train": [150, 30, 250, 6, 24],
                      "test": [300, 60, 500, 12, 48],
                      "n_bats": 4, "n_iterations": 2, "probe": 100,
                      "n_trees": 2},
    "score-flows": {"scale": 0.02, "n_trees": 5, "loads": 1, "singles": 3,
                    "batch": 100},
}


def expect(condition, message):
    if not condition:
        raise SystemExit(f"selftest: FAILED: {message}")


def check_result(result, declared, name, trace):
    expect(result["correct"], f"{name} trace={trace}: outputs incorrect")
    expect(result["attempted"] >= 1 and result["failed"] == 0,
           f"{name} trace={trace}: attempted {result['attempted']}, "
           f"failed {result['failed']}")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    expect(got == declared, f"{name} trace={trace}: metrics {sorted(got)} "
                            f"differ from BENCHMARK.json {sorted(declared)}")
    for key, metric in result["metrics"].items():
        expect(isinstance(metric["value"], float),
               f"{name}: {key} is not a float")


def check_tracer():
    from tracing import Tracer

    tracer = Tracer()
    inner = tracer._wrap("inner", lambda: time.sleep(0.01), None)
    outer = tracer._wrap("outer", lambda: (inner(), inner()), None)
    outer()
    (o, o_start, o_end, o_parent, o_self, _), (i, _, _, i_parent, _, _) = \
        tracer.spans[0], tracer.spans[1]
    expect((o, o_parent, i, i_parent) == ("outer", -1, "inner", 0),
           "span names or parents wrong")
    children = sum(s[2] - s[1] for s in tracer.spans[1:])
    expect(abs(o_self - (o_end - o_start - children)) < 1e-9,
           "self time is not duration minus children")


def check_rejects_wrong_output(name, workload):
    from workloads import CheckFailed
    from flowgate import metrics

    if name == "retrain-kdd":
        path = workload.paths["report"]
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["accuracy"] += 1e-3
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    elif name == "retrain-dense":
        # a perfect classifier cannot exist: it beats the Bayes optimum
        workload.predictions = workload.test.y.copy()
        workload.report = metrics.evaluate(workload.test.y,
                                           workload.predictions)
    else:
        workload.batched = workload.batched.copy()
        workload.batched[0] = (workload.batched[0] + 1) % 5
    try:
        workload.check()
    except CheckFailed:
        return
    raise SystemExit(f"selftest: FAILED: {name} accepted a wrong output")


def main():
    run.import_program()
    from workloads import WORKLOADS

    with open(os.path.join(run.ROOT, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        spec = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
           == sorted(run.WORKLOADS),
           "BENCHMARK.json, run.py and workloads.py name different workloads")
    check_tracer()
    for name, sizes in TOY.items():
        for trace, declared in ((0, end_to_end), (1, per_layer)):
            start = time.perf_counter()
            result = run.run(name, seed=1, seconds=0, trace=trace, **sizes)
            check_result(result, declared, name, trace)
            print(f"selftest: {name} trace={trace} ok "
                  f"({time.perf_counter() - start:.1f} s)")
        workload = WORKLOADS[name](1, os.path.join(run.OUT, name), **sizes)
        workload.setup()
        workload.run_round()
        check_rejects_wrong_output(name, workload)
        print(f"selftest: {name} rejects a wrong output")
    print("selftest: all ok")


if __name__ == "__main__":
    sys.exit(main())
