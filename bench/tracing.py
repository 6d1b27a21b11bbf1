"""Span tracing around the public functions of flowgate, from outside.

``Tracer.install`` replaces each traced function with a wrapper wherever
it is bound: in its own module and in every flowgate module that
imported it under any name. The benchmark calls flowgate through module
attributes, so its calls are traced too. No program file is changed.
Each call records a span (name, start, end, parent) in memory;
``uninstall`` puts the originals back.

A span's self time is its duration minus the durations of its direct
children. Calls are nested and single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

from flowgate import balanced_kmeans, bat, cli, dataset, metrics, wrf


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


def _bat_lookups(args, kwargs, result):
    cfg = args[2]
    return {"lookups": cfg.n_bats * (cfg.n_iterations + 1)}


def _tree_rows(args, kwargs, result):
    return {"rows": len(args[1])}


def _forest_nodes(args, kwargs, result):
    return {"trees": result.n_trees,
            "nodes": sum(t.node_count() for t in result.trees)}


# (owner, attribute, span name, note on the call's result)
TRACED = [
    (dataset, "parse_kdd_csv", "dataset.parse_kdd_csv", None),
    (dataset, "encode", "dataset.encode", None),
    (dataset, "stratified_downsample", "dataset.stratified_downsample", None),
    (dataset, "save_dataset", "dataset.save_dataset", _file_bytes),
    (dataset, "load_dataset", "dataset.load_dataset", None),
    (bat, "run", "bat.run", _bat_lookups),
    (bat, "wrapper_fitness", "bat.wrapper_fitness", None),
    (balanced_kmeans, "cluster", "balanced_kmeans.cluster", None),
    (wrf, "train_tree", "wrf.train_tree", None),
    (wrf, "fit", "wrf.fit", _forest_nodes),
    (wrf.DecisionTree, "predict", "wrf.DecisionTree.predict", _tree_rows),
    (wrf, "predict_batch", "wrf.predict_batch", None),
    (wrf, "save_forest", "wrf.save_forest", _file_bytes),
    (wrf, "load_forest", "wrf.load_forest", None),
    (metrics, "evaluate", "metrics.evaluate", None),
    (cli, "cmd_pipeline", "cli.cmd_pipeline", None),
    (cli, "cmd_ingest", "cli.cmd_ingest", None),
    (cli, "cmd_select_features", "cli.cmd_select_features", None),
    (cli, "cmd_train", "cli.cmd_train", None),
    (cli, "cmd_evaluate", "cli.cmd_evaluate", None),
    (cli, "probe_split", "cli.probe_split", None),
]


class Tracer:
    """Records spans as [name, start, end, parent index, self seconds,
    notes]; parent is -1 for a root span."""

    def __init__(self):
        self.spans = []
        self._stack = []    # [span index, seconds covered by children]
        self._undo = []
        self.recording = True  # False lets calls through unrecorded

    def _wrap(self, name, fn, note):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else -1
            index = len(spans)
            span = [name, 0.0, 0.0, parent, 0.0, None]
            spans.append(span)
            frame = [index, 0.0]
            stack.append(frame)
            span[1] = start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = end = clock()
                stack.pop()
                span[4] = end - start - frame[1]
                if stack:
                    stack[-1][1] += end - start
            if note is not None:
                span[5] = note(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every traced function at each of its binding sites."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "flowgate" or n.startswith("flowgate.")]
        for owner, attr, name, note in TRACED:
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, note)
            for site in [owner] + [m for m in modules if m is not owner]:
                for key, value in list(vars(site).items()):
                    if value is original:
                        setattr(site, key, wrapper)
                        self._undo.append((site, key, original))

    def uninstall(self):
        for site, key, original in reversed(self._undo):
            setattr(site, key, original)
        self._undo.clear()

    def write(self, path):
        """Write the spans as JSON: one [name, start, end, parent, self,
        notes] list per span, times in seconds of time.perf_counter."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "self_s",
                                  "notes"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def layer_metrics(spans, n_rounds):
    """Per-layer metrics per traced round, from a list of spans."""
    total = {}
    self_total = {}
    count = {}
    under = {}      # (name, parent name) -> seconds
    notes = {}
    for name, start, end, parent, self_s, note in spans:
        dur = end - start
        total[name] = total.get(name, 0.0) + dur
        self_total[name] = self_total.get(name, 0.0) + self_s
        count[name] = count.get(name, 0) + 1
        pname = spans[parent][0] if parent >= 0 else None
        under[name, pname] = under.get((name, pname), 0.0) + dur
        for key, value in (note or {}).items():
            notes[name, key] = notes.get((name, key), 0) + value

    def t(name):
        return total.get(name, 0.0) / n_rounds

    def c(name):
        return count.get(name, 0) / n_rounds

    def n(name, key):
        return notes.get((name, key), 0) / n_rounds

    lookups = notes.get(("bat.run", "lookups"), 0)
    fitness_calls = count.get("bat.wrapper_fitness", 0)
    trees = notes.get(("wrf.fit", "trees"), 0)
    cli_self = sum(v for k, v in self_total.items() if k.startswith("cli."))
    return {
        "dataset.parse_s": (t("dataset.parse_kdd_csv"), "s"),
        "dataset.encode_s": (t("dataset.encode"), "s"),
        "dataset.save_s": (t("dataset.save_dataset"), "s"),
        "dataset.file_bytes": (n("dataset.save_dataset", "bytes"), "bytes"),
        "dataset.load_s": (t("dataset.load_dataset"), "s"),
        "dataset.load_calls": (c("dataset.load_dataset"), "count"),
        "bat.fitness_calls": (c("bat.wrapper_fitness"), "count"),
        "bat.memo_hit_ratio": (
            1.0 - fitness_calls / lookups if lookups else 0.0, "ratio"),
        "bat.fitness_s": (t("bat.wrapper_fitness"), "s"),
        "bat.self_s": (self_total.get("bat.run", 0.0) / n_rounds, "s"),
        "balanced_kmeans.cluster_calls": (c("balanced_kmeans.cluster"),
                                          "count"),
        "balanced_kmeans.cluster_s": (t("balanced_kmeans.cluster"), "s"),
        "wrf.probe_tree_s": (
            under.get(("wrf.train_tree", "bat.wrapper_fitness"), 0.0)
            / n_rounds, "s"),
        "wrf.forest_tree_s": (
            under.get(("wrf.train_tree", "wrf.fit"), 0.0) / n_rounds, "s"),
        "wrf.forest_tree_nodes": (
            notes.get(("wrf.fit", "nodes"), 0) / trees if trees else 0.0,
            "count"),
        "wrf.fit_self_s": (self_total.get("wrf.fit", 0.0) / n_rounds, "s"),
        "wrf.tree_predict_calls": (c("wrf.DecisionTree.predict"), "count"),
        "wrf.tree_predict_rows": (n("wrf.DecisionTree.predict", "rows"),
                                  "count"),
        "wrf.tree_predict_s": (t("wrf.DecisionTree.predict"), "s"),
        "wrf.predict_batch_s": (t("wrf.predict_batch"), "s"),
        "wrf.load_forest_s": (t("wrf.load_forest"), "s"),
        "wrf.save_forest_s": (t("wrf.save_forest"), "s"),
        "wrf.model_bytes": (n("wrf.save_forest", "bytes"), "bytes"),
        "metrics.evaluate_s": (t("metrics.evaluate"), "s"),
        "cli.self_s": (cli_self / n_rounds, "s"),
    }
