"""Two-stage network-flow intrusion detection.

Stage one selects flow features with a binary bat algorithm using swarm
division and differential mutation; stage two classifies flows with a
cost-sensitive, accuracy-weighted random forest.
"""

__version__ = "0.1.0"

from .dataset import (EncodedDataset, FlowClass, FlowRecord, encode,
                      map_attack_to_class, parse_kdd_csv,
                      stratified_downsample)
from .bat import BatConfig, BatResult, run as run_bat, wrapper_fitness
from .wrf import Forest, ForestConfig, TreeConfig, fit, predict_batch
from .metrics import MetricsReport, confusion, evaluate, report

__all__ = [
    "BatConfig", "BatResult", "EncodedDataset", "FlowClass", "FlowRecord",
    "Forest", "ForestConfig", "MetricsReport", "TreeConfig", "confusion",
    "encode", "evaluate", "fit", "map_attack_to_class", "parse_kdd_csv",
    "predict_batch", "report", "run_bat", "stratified_downsample",
]
