"""Every input reader exits 0 or 2 on mutated bytes, never 1.

Each test mutates one valid input file of a small simulated corpus and runs
the command that reads it through ``cli.main`` in-process: the prefix table
(``localize``), the AS metadata (``leak``), a DIMACS file (``solve-dimacs``),
and ``censors.json`` and the ground truth (``evaluate``), whose JSON also has
single values replaced. Measurements are mutated in test_ingest.py.
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

from censorloc.cli import main

SIM_ARGS = [
    "simulate", "--seed", "5", "--n-ases", "10", "--n-vantage", "2", "--n-urls", "2",
    "--n-censors", "1", "--days", "3", "--path-pool-size", "2",
]
DIMACS = "c a comment\np cnf 5 4\n1 2 0\n-3 0\n2 -4 5 0\n4 0\n"
# per example: a run on these inputs takes well under a second
FUZZ = settings(
    max_examples=60, deadline=10_000, suppress_health_check=[HealthCheck.too_slow]
)

# bytes that matter to some reader, besides arbitrary short runs
_TOKENS = st.sampled_from(
    [b"\t", b",", b"\n", b"\r", b" ", b"_", b"-", b".", b"0", b"9", b"{", b"}", b"[", b"]",
     b'"', b":", b"null", b"\xff", b"\xc3", b"p cnf", b"/"]
) | st.binary(min_size=1, max_size=3)


@st.composite
def _mutated(draw, data: bytes) -> bytes:
    out = bytearray(data)
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(out)))
        kind = draw(st.sampled_from(["replace", "insert", "delete", "repeat"]))
        if kind == "replace":
            chunk = draw(_TOKENS)
            out[pos : pos + len(chunk)] = chunk
        elif kind == "insert":
            out[pos:pos] = draw(_TOKENS)
        elif kind == "delete":
            del out[pos : pos + draw(st.integers(1, 16))]
        else:
            out[pos:pos] = out[pos : pos + draw(st.integers(1, 16))]
    return bytes(out)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=5,
)


def _value_paths(value, path=()):
    """The key path of every value below the top of a JSON value."""
    children = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in children:
        yield (*path, key)
        if isinstance(child, (dict, list)):
            yield from _value_paths(child, (*path, key))


@st.composite
def _json_mutated(draw, data: bytes) -> bytes:
    """Valid JSON with one value replaced, which reaches the checks that
    byte mutations mostly stop short of."""
    obj = json.loads(data)
    path = draw(st.sampled_from(list(_value_paths(obj))))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = draw(_JSON_VALUES)
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


def _exits_0_or_2(files: dict[str, bytes], argv: list[str]) -> None:
    """Write ``files`` to a fresh directory, then run ``argv`` with each "{}"
    in it naming that directory."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in files.items():
            Path(tmp, name).write_bytes(data)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([arg.format(tmp) for arg in argv])
    assert code in (0, 2), err.getvalue()
    assert "internal error" not in err.getvalue()


def _corpus_argv(command: str, *extra: str) -> list[str]:
    return [command, "--measurements", "{}/measurements.jsonl", "--pfx2as", "{}/pfx2as.tsv",
            *extra, "--out", "{}/out"]

EVALUATE = ["evaluate", "--censors", "{}/censors.json", "--truth", "{}/ground_truth.json"]


@FUZZ
@given(data=st.data())
def test_pfx2as_mutations(corpus, data):
    files = {**corpus, "pfx2as.tsv": data.draw(_mutated(corpus["pfx2as.tsv"]))}
    _exits_0_or_2(files, _corpus_argv("localize"))


@FUZZ
@given(data=st.data())
def test_as_metadata_mutations(corpus, data):
    files = {**corpus, "as_metadata.csv": data.draw(_mutated(corpus["as_metadata.csv"]))}
    _exits_0_or_2(files, _corpus_argv("leak", "--as-meta", "{}/as_metadata.csv"))


@FUZZ
@given(data=st.data())
def test_dimacs_mutations(corpus, data):
    files = {"cnf.cnf": data.draw(_mutated(corpus["cnf.cnf"]))}
    _exits_0_or_2(files, ["solve-dimacs", "{}/cnf.cnf"])


@FUZZ
@given(data=st.data())
def test_censors_json_mutations(corpus, data):
    censors = corpus["censors.json"]
    files = {**corpus, "censors.json": data.draw(_mutated(censors) | _json_mutated(censors))}
    _exits_0_or_2(files, EVALUATE)


@FUZZ
@given(data=st.data())
def test_truth_mutations(corpus, data):
    truth = corpus["ground_truth.json"]
    files = {**corpus, "ground_truth.json": data.draw(_mutated(truth) | _json_mutated(truth))}
    _exits_0_or_2(files, EVALUATE)
