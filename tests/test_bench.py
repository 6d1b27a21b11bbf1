"""The benchmark harness runs against the program in this checkout."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_selftest_passes():
    # the toy-size run of every workload, with its checks and metric names
    script = os.path.join("bench", "selftest.py")
    proc = subprocess.run([sys.executable, script], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


def test_tree_sweep_prints_a_row_per_tree_count():
    # the sweep builds forests of its own: Forest(trees=...) and node_count
    script = os.path.join("bench", "tree_sweep.py")
    proc = subprocess.run([sys.executable, script, "--seed", "1", "--trees",
                           "1,2"], cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    header, *rows = proc.stdout.splitlines()
    assert header.split()[0] == "trees"
    assert [row.split()[0] for row in rows] == ["1", "2"], proc.stdout
