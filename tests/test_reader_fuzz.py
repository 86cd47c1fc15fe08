"""Every input reader exits 0 or 2 on mutated bytes, never 1, and the line
readers account for every line.

Each test mutates one valid input file of a small simulated corpus and runs
the command that reads it through ``cli.main`` in-process: the prefix table
and the measurements (``localize``), the AS metadata (``leak``), a DIMACS
file (``solve-dimacs``), and ``censors.json`` and the ground truth
(``evaluate``), whose JSON also has single values replaced. Measurement
values are mutated in test_ingest.py, and what whole runs make of mutated
measurements is checked in test_whole_run.py.

The prefix table and the measurements are line by line, and a line ends at
LF only; so kept + skipped must equal the file's LF-separated lines,
however the bytes were mutated. The AS metadata is exempt: it is CSV, where a
quoted field may span lines. A DIMACS clause may span lines too; what a
DIMACS file means is checked against brute force in test_solver.py.
"""
from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from _helpers import JSON_VALUES, mutated_bytes, value_paths
from censorloc import pipeline
from censorloc.cli import main
from censorloc.ingest import parse_pfx2as
from censorloc.model import InputError

SIM_ARGS = [
    "simulate", "--seed", "5", "--n-ases", "10", "--n-vantage", "2", "--n-urls", "2",
    "--n-censors", "1", "--days", "3", "--path-pool-size", "2",
]
DIMACS = "c a comment\np cnf 5 4\n1 2 0\n-3 0\n2 -4 5 0\n4 0\n"
# per example: a run on these inputs takes well under a second
FUZZ = settings(
    max_examples=60, deadline=10_000, suppress_health_check=[HealthCheck.too_slow]
)

@st.composite
def _json_mutated(draw, data: bytes) -> bytes:
    """Valid JSON with one value replaced, which reaches the checks that
    byte mutations mostly stop short of."""
    obj = json.loads(data)
    path = draw(st.sampled_from(list(value_paths(obj))))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = draw(JSON_VALUES)
    return json.dumps(obj).encode()


@pytest.fixture(scope="module")
def corpus(tmp_path_factory) -> dict[str, bytes]:
    root = tmp_path_factory.mktemp("corpus")
    sim = root / "sim"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*SIM_ARGS, "--out", str(sim)]) == 0
        assert main(["localize", "--measurements", str(sim / "measurements.jsonl"),
                     "--pfx2as", str(sim / "pfx2as.tsv"), "--out", str(root / "loc")]) == 0
    files = {p.name: p.read_bytes() for p in sim.iterdir()}
    files["censors.json"] = (root / "loc" / "censors.json").read_bytes()
    files["cnf.cnf"] = DIMACS.encode()
    return files


def _exits_0_or_2(files: dict[str, bytes], argv: list[str], then=None) -> None:
    """Write ``files`` to a fresh directory, then run ``argv`` with each "{}"
    in it naming that directory; ``then(directory, exit code)`` may look at
    what the run read and wrote."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in files.items():
            Path(tmp, name).write_bytes(data)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([arg.format(tmp) for arg in argv])
        assert code in (0, 2), err.getvalue()
        assert "internal error" not in err.getvalue()
        if then is not None:
            then(Path(tmp), code)


def _lf_lines(data: bytes) -> int:
    """Lines that end at LF only; the last may lack its LF."""
    return len(data.removesuffix(b"\n").split(b"\n"))


def _corpus_argv(command: str, *extra: str) -> list[str]:
    return [command, "--measurements", "{}/measurements.jsonl", "--pfx2as", "{}/pfx2as.tsv",
            *extra, "--out", "{}/out"]

EVALUATE = ["evaluate", "--censors", "{}/censors.json", "--truth", "{}/ground_truth.json"]


@FUZZ
@given(data=st.data())
def test_pfx2as_mutations(corpus, data):
    table = data.draw(mutated_bytes(corpus["pfx2as.tsv"]))

    def every_line_counted(tmp: Path, code: int) -> None:
        try:
            _, report = parse_pfx2as(pipeline._read_text(tmp / "pfx2as.tsv", "prefix table"))
        except InputError:
            return  # not UTF-8, or no prefix left
        assert report.kept + report.skipped == _lf_lines(table)

    _exits_0_or_2({**corpus, "pfx2as.tsv": table}, _corpus_argv("localize"), every_line_counted)


@FUZZ
@given(data=st.data())
def test_measurements_mutations(corpus, data):
    lines = data.draw(mutated_bytes(corpus["measurements.jsonl"]))

    def every_line_counted(tmp: Path, code: int) -> None:
        if code == 0:
            summary = json.loads((tmp / "out" / "ingest_summary.json").read_bytes())
            assert summary["records_ok"] + summary["records_skipped"] == _lf_lines(lines)

    _exits_0_or_2({**corpus, "measurements.jsonl": lines}, _corpus_argv("localize"),
                  every_line_counted)


@FUZZ
@given(data=st.data())
def test_as_metadata_mutations(corpus, data):
    files = {**corpus, "as_metadata.csv": data.draw(mutated_bytes(corpus["as_metadata.csv"]))}
    _exits_0_or_2(files, _corpus_argv("leak", "--as-meta", "{}/as_metadata.csv"))


@FUZZ
@given(data=st.data())
def test_dimacs_mutations(corpus, data):
    files = {"cnf.cnf": data.draw(mutated_bytes(corpus["cnf.cnf"]))}
    _exits_0_or_2(files, ["solve-dimacs", "{}/cnf.cnf"])


@FUZZ
@given(data=st.data())
def test_censors_json_mutations(corpus, data):
    censors = corpus["censors.json"]
    mutated = data.draw(mutated_bytes(censors) | _json_mutated(censors))
    files = {**corpus, "censors.json": mutated}
    _exits_0_or_2(files, EVALUATE)


@FUZZ
@given(data=st.data())
def test_truth_mutations(corpus, data):
    truth = corpus["ground_truth.json"]
    mutated = data.draw(mutated_bytes(truth) | _json_mutated(truth))
    files = {**corpus, "ground_truth.json": mutated}
    _exits_0_or_2(files, EVALUATE)
