"""The benchmark's trace mode still finds every entry point it wraps.

``perfbench/child.py trace`` wraps public functions of the pipeline and the
solver by name and reads their arguments and results; a renamed function or
a changed signature breaks it without failing any other test.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from censorloc.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent
CHILD = REPO_ROOT / "perfbench" / "child.py"
XOR_CNF = "p cnf 2 2\n1 2 0\n-1 -2 0\n"


def _trace(tmp_path: Path, *args: str) -> dict[str, float]:
    trace_file = tmp_path / "trace.json"
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(CHILD), "trace", str(trace_file), *args],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(trace_file.read_text())


def _simulate(tmp_path: Path) -> Path:
    sim_dir = tmp_path / "sim"
    assert main([
        "simulate", "--seed", "3", "--n-ases", "16", "--n-vantage", "3", "--n-urls", "4",
        "--n-censors", "1", "--days", "3", "--out", str(sim_dir),
    ]) == 0
    return sim_dir


def test_trace_of_a_localize_run_counts_every_layer(tmp_path):
    sim_dir = _simulate(tmp_path)
    metrics = _trace(
        tmp_path, "cli", "localize",
        "--measurements", str(sim_dir / "measurements.jsonl"),
        "--pfx2as", str(sim_dir / "pfx2as.tsv"),
        "--out", str(tmp_path / "loc"),
    )
    for name in ("ingest.records_kept", "aspath.paths_kept", "tomography.instances"):
        assert metrics[name] > 0, name


def test_trace_of_a_dimacs_batch_counts_both_solver_paths(tmp_path):
    sim_dir = _simulate(tmp_path)
    cnf_dir = tmp_path / "cnf"
    assert main([
        "export-dimacs",
        "--measurements", str(sim_dir / "measurements.jsonl"),
        "--pfx2as", str(sim_dir / "pfx2as.tsv"),
        "--out", str(cnf_dir),
    ]) == 0
    paths = sorted(cnf_dir.iterdir())[:3]
    assert len(paths) == 3
    xor = tmp_path / "xor.cnf"
    xor.write_text(XOR_CNF)
    list_file = tmp_path / "list.txt"
    list_file.write_text("".join(f"{p}\n" for p in [*paths, xor]))
    result_file = tmp_path / "result.json"
    metrics = _trace(tmp_path, "batch", str(list_file), str(result_file))
    assert metrics["solver.restricted_instances"] == 3
    assert metrics["solver.general_instances"] == 1
    # every instance solved rather than recording an error
    assert all(isinstance(verdict, dict) for _, _, verdict in json.loads(result_file.read_text()))
