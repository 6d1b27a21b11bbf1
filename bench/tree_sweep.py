"""Weighted-forest accuracy against tree count on the retrain-kdd corpus.

    python3 bench/tree_sweep.py --seed 1 --trees 5,10,20,30,50

Ingests the retrain-kdd pools for the data seed as the pipeline does,
fits one weighted forest with all features and the default schedule, and
scores every prefix of it: trees are grown in sequence, so the first k
trees are the k-tree forest.
Prints, per k, the test accuracy, how many trees are single leaves and
the class the forest predicts most.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

import run


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trees", default="5,10,20,30,50")
    args = parser.parse_args(argv)
    counts = sorted(int(k) for k in args.trees.split(","))
    run.import_program()
    from flowgate import cli, wrf
    from workloads import PROGRAM_SEED, RetrainKdd

    workdir = os.path.join(run.OUT, "tree-sweep")
    os.makedirs(workdir, exist_ok=True)
    workload = RetrainKdd(args.seed, workdir)
    workload.setup()
    split = {name: cli.cmd_ingest(os.path.join(workdir, f"{name}_pool.csv"),
                                  workload.targets[name], PROGRAM_SEED + k,
                                  os.path.join(workdir, f"{name}.json"))
             for k, name in enumerate(("train", "test"))}
    mask = np.ones(split["train"].n_features, dtype=np.uint8)
    forest = wrf.fit(split["train"], mask,
                     wrf.ForestConfig(n_trees=counts[-1]), PROGRAM_SEED)
    names = ("Normal", "Probe", "DoS", "U2R", "R2L")
    print("trees  accuracy  single-leaf trees  most predicted")
    for k in counts:
        prefix = wrf.Forest(trees=forest.trees[:k],
                            accuracy_matrix=forest.accuracy_matrix[:, :k],
                            mask=mask, config=forest.config)
        preds = wrf.predict_batch(prefix, split["test"].X)
        leaves = sum(t.node_count() == 1 for t in prefix.trees)
        top = np.bincount(preds, minlength=5)
        print(f"{k:5d}  {np.mean(preds == split['test'].y):8.4f}  "
              f"{leaves:17d}  {names[int(top.argmax())]} "
              f"({top.max() / preds.size:.0%})")


if __name__ == "__main__":
    sys.exit(main())
