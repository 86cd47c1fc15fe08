"""The benchmark's trace mode still finds every entry point it wraps.

``perfbench/child.py trace`` wraps public functions of the pipeline and the
solver by name and reads their arguments and results; a renamed function or
a changed signature breaks it without failing any other test. The harness,
``perfbench/run.py``, also calls a few censorloc names while it sets up.
"""
from __future__ import annotations

import ast
import importlib
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


def test_tracer_installs_over_every_name_it_wraps():
    # install() reads each wrapped name with getattr; run it in a child, so
    # that the wrappers stay out of this process's modules
    code = "import child; child.install(child.Tracer())"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(REPO_ROOT / "src"), str(REPO_ROOT / "perfbench")])}
    proc = subprocess.run([sys.executable, "-c", code], cwd=REPO_ROOT, env=env,
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr


def test_every_censorloc_name_the_harness_reads_exists():
    # run.py imports censorloc modules inside its functions and reads names
    # on them; a name gone from src/ would stop a workload at set-up
    tree = ast.parse((REPO_ROOT / "perfbench" / "run.py").read_text())
    modules = {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "censorloc"
        for alias in node.names
    }
    reads = {
        (modules[node.value.id], node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }
    assert reads, "found no censorloc name read by perfbench/run.py"
    for module, name in sorted(reads):
        assert hasattr(importlib.import_module(f"censorloc.{module}"), name), \
            f"perfbench/run.py reads censorloc.{module}.{name}, which does not exist"
