"""Whole ``localize`` and ``leak`` runs against the plain reference in
_reference.py.

Each example simulates a small corpus, mutates some of its measurement lines,
runs the command through ``cli.main`` and asserts that every file under
``--out`` equals the reference's byte for byte, or that both refuse the
inputs. This is differential testing (McKeeman, "Differential Testing for
Software", Digital Technical Journal, 1998): the reference takes no shortcut
the program takes, so a fast path that changes a result shows here even
where each layer's own oracle agrees with it.
"""
from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import _reference
from _helpers import JSON_VALUES, NEAR_VALUES, equal_twins, mutated_bytes, value_paths
from censorloc.cli import main
from censorloc.pipeline import LOCALIZE_FILES

# what the first line's traceroutes become, before any array has been checked
_FIRST_TRACEROUTES = {
    "null": lambda array: None,
    "empty": lambda array: [],
    "short": lambda array: array[:2],
    "long": lambda array: [*array, array[0]],
    "object": lambda array: array[0],
}
# one scalar per record field that fails its check
_SCALAR_FAULTS = [
    ("record_id", ""), ("vantage_asn", 0), ("url", "no-scheme"), ("dst_ip", "9.9.9"),
    ("anomaly", "DNS"), ("detected", 1), ("timestamp", "2016-05-02"),
]


def _simulated(args: list[str]) -> tuple[list[dict], bytes, bytes] | None:
    """The measurement objects, the prefix table and the AS metadata that
    ``simulate args`` writes, or None where the simulator refuses the
    arguments."""
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            if main([*args, "--out", tmp]) != 0:
                return None
        lines = Path(tmp, "measurements.jsonl").read_text(encoding="utf-8").splitlines()
        return ([json.loads(line) for line in lines], Path(tmp, "pfx2as.tsv").read_bytes(),
                Path(tmp, "as_metadata.csv").read_bytes())


def _jsonl(objs: list[dict]) -> bytes:
    # written as simulate writes it, so that records of one probe share text
    return "".join(json.dumps(obj, sort_keys=True) + "\n" for obj in objs).encode()


def _fail_then_repeat(objs: list[dict], i: int, fault: tuple[str, object]) -> None:
    """Line ``i`` fails a scalar check before its traceroutes, and the next
    line repeats its traceroutes array."""
    objs[i][fault[0]] = fault[1]
    objs[i + 1]["traceroutes"] = objs[i]["traceroutes"]


def _assert_matches_reference(measurements: bytes, pfx2as: bytes, cap: int,
                              url_split: bool = True, as_meta: bytes | None = None) -> None:
    # localize, or leak when given AS metadata
    if as_meta is None:
        expected = _reference.localize(measurements, pfx2as, cap, url_split)
    else:
        expected = _reference.leak(measurements, pfx2as, as_meta, cap, url_split)
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "measurements.jsonl").write_bytes(measurements)
        Path(tmp, "pfx2as.tsv").write_bytes(pfx2as)
        command = ["localize"]
        if as_meta is not None:
            Path(tmp, "as_metadata.csv").write_bytes(as_meta)
            command = ["leak", "--as-meta", f"{tmp}/as_metadata.csv"]
        out = Path(tmp, "out")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([
                *command, "--measurements", f"{tmp}/measurements.jsonl",
                "--pfx2as", f"{tmp}/pfx2as.tsv", "--out", str(out), "--model-cap", str(cap),
                *([] if url_split else ["--no-url-split"]),
            ])
        assert code == (2 if expected is None else 0), err.getvalue()
        if expected is not None:
            names = LOCALIZE_FILES + (() if as_meta is None else ("leakage.json",))
            assert sorted(expected) == sorted(names)
            assert {p.name: p.read_bytes() for p in out.iterdir()} == expected


_FIXED = ["simulate", "--seed", "1", "--days", "2", "--n-ases", "8", "--n-vantage", "2",
          "--n-urls", "1"]


@pytest.mark.parametrize("first", sorted(_FIRST_TRACEROUTES))
def test_localize_matches_the_reference_after_a_bad_first_array(first):
    objs, pfx2as, _ = _simulated(_FIXED)
    objs[0]["traceroutes"] = _FIRST_TRACEROUTES[first](objs[0]["traceroutes"])
    _assert_matches_reference(_jsonl(objs), pfx2as, cap=5)


@pytest.mark.parametrize("fault", _SCALAR_FAULTS, ids=[key for key, _ in _SCALAR_FAULTS])
def test_localize_matches_the_reference_when_a_failed_line_repeats(fault):
    objs, pfx2as, _ = _simulated(_FIXED)
    objs[1]["traceroutes"] = [objs[1]["traceroutes"][0]] * 3  # an array no line had
    _fail_then_repeat(objs, 1, fault)
    _assert_matches_reference(_jsonl(objs), pfx2as, cap=5)


@pytest.mark.parametrize("at", [10, 19])
def test_localize_matches_the_reference_on_a_lowercase_separator(at):
    # strptime would read "t" and "z" as "T" and "Z"; both readers skip the line
    objs, pfx2as, _ = _simulated(_FIXED)
    stamp = objs[0]["timestamp"]
    objs[0]["timestamp"] = stamp[:at] + stamp[at].lower() + stamp[at + 1:]
    _assert_matches_reference(_jsonl(objs), pfx2as, cap=5)


@st.composite
def simulate_args(draw) -> list[str]:
    """The arguments of a small ``simulate`` run."""
    return [
        "simulate", "--seed", str(draw(st.integers(0, 2**16))),
        "--days", str(draw(st.integers(1, 4))),
        "--n-ases", str(draw(st.integers(8, 12))),
        "--n-vantage", str(draw(st.integers(1, 3))),
        "--n-urls", str(draw(st.integers(1, 2))),
        "--path-pool-size", str(draw(st.integers(1, 3))),
        "--churn-prob", str(draw(st.sampled_from([0.0, 0.3]))),
        "--noise-prob", str(draw(st.sampled_from([0.0, 0.1, 0.4]))),
        "--nonresponsive-prob", str(draw(st.sampled_from([0.0, 0.2]))),
    ]


@st.composite
def corpora(draw) -> tuple[bytes, bytes]:
    """A small simulated corpus: its measurement lines, mutated as drawn,
    and its prefix table."""
    simulated = _simulated(draw(simulate_args()))
    assume(simulated is not None)  # some draws ask for more paths than exist
    objs, pfx2as, _ = simulated
    first = draw(st.sampled_from([None, *_FIRST_TRACEROUTES]))
    if first is not None:
        objs[0]["traceroutes"] = _FIRST_TRACEROUTES[first](objs[0]["traceroutes"])
    for i in draw(st.lists(st.integers(0, len(objs) - 2), max_size=2)):
        _fail_then_repeat(objs, i, draw(st.sampled_from(_SCALAR_FAULTS)))
    # any value of a few lines replaced, often by one that nearly passes
    for i in draw(st.lists(st.integers(0, len(objs) - 1), max_size=3)):
        path = draw(st.sampled_from(list(value_paths(objs[i]))))
        parent = objs[i]
        for key in path[:-1]:
            parent = parent[key]
        twins = equal_twins(parent[path[-1]])
        values = NEAR_VALUES | JSON_VALUES
        parent[path[-1]] = draw(st.sampled_from(twins) | values if twins else values)
    data = _jsonl(objs)
    if draw(st.integers(0, 4)) == 0:
        data = draw(mutated_bytes(data))
    return data, pfx2as


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(corpus=corpora(), cap=st.integers(2, 6), url_split=st.booleans())
def test_localize_matches_the_reference(corpus, cap, url_split):
    _assert_matches_reference(*corpus, cap, url_split)


@st.composite
def leak_args(draw) -> list[str]:
    """The arguments of a small ``simulate`` run whose paths are long enough
    to put clean ASes before a censor."""
    return [
        "simulate", "--seed", str(draw(st.integers(0, 2**16))),
        "--days", str(draw(st.integers(1, 3))),
        "--n-ases", str(draw(st.integers(12, 20))),
        "--n-vantage", str(draw(st.integers(2, 4))),
        "--n-urls", str(draw(st.integers(1, 2))),
        "--n-censors", str(draw(st.integers(1, 2))),
        "--path-pool-size", str(draw(st.integers(1, 3))),
        "--churn-prob", str(draw(st.sampled_from([0.0, 0.3]))),
        "--noise-prob", str(draw(st.sampled_from([0.0, 0.1]))),
    ]


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(args=leak_args(), data=st.data(), cap=st.integers(2, 6), url_split=st.booleans())
def test_leak_matches_the_reference(args, data, cap, url_split):
    simulated = _simulated(args)
    assume(simulated is not None)
    objs, pfx2as, as_meta = simulated
    for i in data.draw(st.lists(st.integers(0, len(objs) - 2), max_size=2)):
        _fail_then_repeat(objs, i, data.draw(st.sampled_from(_SCALAR_FAULTS)))
    # drop some AS rows, keeping at least one, so that some pairs miss a country
    header, *rows = as_meta.decode().splitlines(keepends=True)
    kept = data.draw(st.lists(st.sampled_from(rows), min_size=1, unique=True))
    meta = "".join([header, *(row for row in rows if row in kept)]).encode()
    _assert_matches_reference(_jsonl(objs), pfx2as, cap, url_split, meta)


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(args=simulate_args())
def test_inferred_paths_match_the_ground_truth(args):
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assume(main([*args, "--out", f"{tmp}/sim"]) == 0)
            assert main(["localize", "--measurements", f"{tmp}/sim/measurements.jsonl",
                         "--pfx2as", f"{tmp}/sim/pfx2as.tsv", "--out", f"{tmp}/out",
                         "--debug-trace"]) == 0
        truth = json.loads(Path(tmp, "sim", "ground_truth.json").read_text())["paths"]
        traces = Path(tmp, "out", "inference_trace.jsonl").read_text().splitlines()
    results = {trace["record_id"]: trace["result"] for trace in map(json.loads, traces)}
    assert results.keys() == truth.keys()  # ingest keeps every simulated record
    inferred = {rid: result["path"] for rid, result in results.items() if "path" in result}
    assert inferred == {rid: truth[rid] for rid in inferred}
    if args[args.index("--nonresponsive-prob") + 1] == "0.0":
        # no traceroute has a gap, so none is eliminated
        assert len(inferred) == len(truth)
