"""IP-to-AS mapping and traceroute collapse, pinned by golden fixtures."""
from __future__ import annotations

import json
from ipaddress import IPv4Address, IPv4Network
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from _helpers import make_record, make_table, make_traceroute
from censorloc import aspath, pipeline
from censorloc.aspath import InferenceFailure, InferenceRule, map_ip

DATA = Path(__file__).parent / "data"

_FIXTURES = json.loads((DATA / "traceroute_cases.json").read_text())


def _fixture_table():
    return make_table(
        {p: tuple(o) if isinstance(o, list) else o for p, o in _FIXTURES["table"].items()}
    )


def _fixture_record(case: dict, index: int):
    routes = []
    for spec in case["traceroutes"]:
        if isinstance(spec, dict):
            routes.append(make_traceroute(*spec["hops"], completed=spec["completed"]))
        else:
            routes.append(make_traceroute(*spec))
    while len(routes) < 3:
        routes.append(routes[0])
    return make_record(
        record_id=f"case{index}",
        vantage_asn=_FIXTURES["vantage_asn"],
        dst_ip=case.get("dst_ip", _FIXTURES["default_dst_ip"]),
        traceroutes=tuple(routes),
    )


@pytest.mark.parametrize(
    "case", _FIXTURES["cases"], ids=[c["name"] for c in _FIXTURES["cases"]]
)
def test_golden_inference_cases(case):
    table = _fixture_table()
    record = _fixture_record(case, 0)
    outcome = aspath.infer_as_path(record, table)
    expect = case["expect"]
    if "path" in expect:
        assert isinstance(outcome, tuple), outcome
        assert list(outcome) == expect["path"]
    else:
        assert isinstance(outcome, InferenceFailure), outcome
        assert outcome.rule is InferenceRule(expect["rule"])
        assert outcome.detail == expect["detail"]


def test_golden_corpus_covers_every_rule():
    rules = {
        c["expect"]["rule"] for c in _FIXTURES["cases"] if "rule" in c["expect"]
    }
    assert rules == {r.value for r in InferenceRule}
    assert len(_FIXTURES["cases"]) >= 12


def test_accounting_identity_over_golden_corpus():
    table = _fixture_table()
    records = [_fixture_record(c, i) for i, c in enumerate(_FIXTURES["cases"])]
    pairs, failures = pipeline.infer_paths(records, table)
    assert len(pairs) + sum(failures.values()) == len(records)
    # failure counts by rule match the fixture expectations exactly
    expected: dict[str, int] = {r.value: 0 for r in InferenceRule}
    for case in _FIXTURES["cases"]:
        if "rule" in case["expect"]:
            expected[case["expect"]["rule"]] += 1
    assert {r.value: n for r, n in failures.items()} == expected


# ---------------------------------------------------------------------------
# map_ip

def test_map_ip_longest_prefix_and_kinds():
    table = _fixture_table()
    assert map_ip(table, "7.7.7.200") == frozenset({700})
    assert map_ip(table, "7.7.8.1") == frozenset({777})
    assert map_ip(table, "11.200.1.1") == frozenset({1100})
    # an ambiguous (multi-origin) address keeps every origin
    assert map_ip(table, "5.5.1.1") == frozenset({500, 501})
    assert map_ip(table, "66.66.0.1") == frozenset()


@pytest.mark.parametrize(
    "ip",
    ["10.1.2.3", "172.16.0.1", "172.31.255.255", "192.168.0.1", "127.0.0.1", "169.254.0.1"],
)
def test_map_ip_excludes_reserved_space(ip):
    # cover the reserved ranges with a /0-like umbrella to prove exclusion wins
    table = make_table({"0.0.0.0/0": 12345})
    assert map_ip(table, ip) == frozenset()


_RESERVED = [
    IPv4Network(net)
    for net in ("10.0.0.0/8", "172.16.0.0/12", "192.168.0.0/16", "127.0.0.0/8", "169.254.0.0/16")
]


def _near(net: IPv4Network) -> st.SearchStrategy[int]:
    """Addresses in and just around one reserved range."""
    first, last = int(net.network_address), int(net.broadcast_address)
    edge = st.integers(-2, 2)
    return st.one_of(
        st.integers(first, last), edge.map(lambda d: first + d), edge.map(lambda d: last + d)
    )


@given(st.one_of(st.integers(0, 2**32 - 1), *(_near(net) for net in _RESERVED)))
def test_map_ip_exclusion_agrees_with_ipaddress(value):
    addr = IPv4Address(value)
    table = make_table({"0.0.0.0/0": 12345})
    expected = frozenset() if any(addr in net for net in _RESERVED) else frozenset({12345})
    assert map_ip(table, str(addr)) == expected


def test_map_ip_rejects_garbage_addresses():
    table = _fixture_table()
    for _ in range(2):
        # the second call is answered from the table's memo
        assert map_ip(table, "not-an-ip") == frozenset()
        assert map_ip(table, "1.2.3.4.5") == frozenset()
        assert map_ip(table, "07.7.7.200") == frozenset()
    assert map_ip(table, "7.7.7.200") == frozenset({700})


def test_default_route_matches_when_nothing_longer_does():
    table = make_table({"0.0.0.0/0": 12345, "9.9.0.0/16": 900})
    assert map_ip(table, "8.8.8.8") == frozenset({12345})
    assert map_ip(table, "9.9.1.1") == frozenset({900})


# ---------------------------------------------------------------------------
# collapse details not expressible in the fixture format

def test_collapse_never_emits_consecutive_duplicates():
    table = _fixture_table()
    tr = make_traceroute("2.2.0.1", "2.2.0.2", "2.2.0.3", "9.9.0.1", "9.9.0.2")
    out = aspath.collapse_traceroute(tr, table, vantage_asn=100, dst_asn=900)
    assert isinstance(out, tuple)
    assert list(out) == [100, 200, 900]


def test_collapse_anchors_both_endpoints():
    # no hop belongs to the vantage or destination AS; endpoints still appear
    table = _fixture_table()
    tr = make_traceroute("2.2.0.1")
    out = aspath.collapse_traceroute(tr, table, vantage_asn=100, dst_asn=900)
    assert isinstance(out, tuple)
    assert out[0] == 100
    assert out[-1] == 900


def _two_pass_collapse(traceroute, table, vantage_asn, dst_asn):
    """The two-pass collapse that preceded the one-pass one, kept as an oracle.

    Every hop becomes a token, an ASN or a gap; gap runs are resolved against
    their neighbours with the endpoints in place, then repeats are collapsed.
    """
    if not traceroute.completed or not traceroute.hops:
        return InferenceFailure(InferenceRule.TRACEROUTE_ERROR, "traceroute incomplete or empty")
    tokens = []
    for hop in traceroute.hops:
        origins = map_ip(table, hop.addr) if hop.addr is not None else frozenset()
        tokens.append(next(iter(origins)) if len(origins) == 1 else None)
    if all(token is None for token in tokens):
        return InferenceFailure(InferenceRule.MAPPING_IMPOSSIBLE, "no traceroute hop maps to an AS")
    tokens = [vantage_asn, *tokens, dst_asn]
    resolved = []
    i = 0
    while i < len(tokens):
        if tokens[i] is not None:
            resolved.append(tokens[i])
            i += 1
            continue
        j = i
        while tokens[j] is None:
            j += 1
        if resolved[-1] != tokens[j]:
            return InferenceFailure(
                InferenceRule.UNRESOLVABLE_GAP, f"gap between AS{resolved[-1]} and AS{tokens[j]}"
            )
        i = j
    collapsed = [asn for k, asn in enumerate(resolved) if k == 0 or resolved[k - 1] != asn]
    return tuple(collapsed)


# mapped (several per AS), ambiguous, unrouted, reserved and non-responsive
_HOP_POOL = (
    "1.1.0.1", "2.2.0.1", "2.2.0.2", "3.3.0.1", "4.4.0.1", "7.7.7.1", "7.7.8.1", "9.9.0.1",
    "5.5.0.1", "66.66.0.1", "10.0.0.1", "192.168.1.1", "*",
)


@given(
    hops=st.lists(st.sampled_from(_HOP_POOL), max_size=8),
    # one traceroute in six never completed
    completed=st.integers(0, 5).map(bool),
    # each endpoint either also appears as a hop's AS or never does
    vantage_asn=st.sampled_from([100, 200, 300, 4242]),
    dst_asn=st.sampled_from([900, 300, 100, 5151]),
)
def test_collapse_matches_two_pass_reference(hops, completed, vantage_asn, dst_asn):
    table = _fixture_table()
    tr = make_traceroute(*hops, completed=completed)
    got = aspath.collapse_traceroute(tr, table, vantage_asn, dst_asn)
    assert got == _two_pass_collapse(tr, table, vantage_asn, dst_asn)
    if isinstance(got, tuple):
        # what every consumer of a path relies on: anchored at both ends, no AS
        # twice in a row
        assert got[0] == vantage_asn
        assert got[-1] == dst_asn
        assert all(a != b for a, b in zip(got, got[1:]))


def test_trace_inference_reports_every_hop():
    table = _fixture_table()
    record = make_record(
        traceroutes=(
            make_traceroute("2.2.0.1", "*", "5.5.0.1", "9.9.0.1"),
            make_traceroute("2.2.0.1", "9.9.0.1"),
            make_traceroute("2.2.0.1", "9.9.0.1"),
        )
    )
    dump = aspath.trace_inference(record, table)
    hops = dump["traceroutes"][0]["hops"]
    assert [h["mapping"] for h in hops] == ["mapped", "non_responsive", "ambiguous", "mapped"]
    assert dump["traceroutes"][1]["outcome"]["path"] == [100, 200, 900]


def test_each_distinct_traceroute_of_a_record_collapses_once(monkeypatch):
    calls = []
    collapse = aspath.collapse_traceroute
    monkeypatch.setattr(
        aspath, "collapse_traceroute", lambda *a: calls.append(a[0]) or collapse(*a)
    )
    table = _fixture_table()
    tr = make_traceroute("2.2.0.1", "9.9.0.1")
    assert aspath.infer_as_path(make_record(traceroutes=(tr, tr, tr)), table) == (100, 200, 900)
    assert calls == [tr]
    calls.clear()
    three = (
        make_traceroute("2.2.0.1", "9.9.0.1"),
        make_traceroute("2.2.0.1", "*", "2.2.0.3", "9.9.0.1"),
        make_traceroute("2.2.0.2", "9.9.0.1"),
    )
    dump = aspath.trace_inference(make_record(traceroutes=three), table)
    assert calls == list(three)
    assert [t["outcome"] for t in dump["traceroutes"]] == [{"path": [100, 200, 900]}] * 3


def test_inference_failure_is_not_a_tuple():
    """Consumers tell a path (a tuple) from a failure with isinstance."""
    failure = InferenceFailure(InferenceRule.TRACEROUTE_ERROR, "traceroute incomplete or empty")
    assert not isinstance(failure, tuple)
    assert failure == InferenceFailure(
        rule=InferenceRule.TRACEROUTE_ERROR, detail="traceroute incomplete or empty"
    )
    assert failure != InferenceFailure(InferenceRule.MAPPING_IMPOSSIBLE, failure.detail)
    assert failure != (InferenceRule.TRACEROUTE_ERROR, "traceroute incomplete or empty")
    assert len({failure, InferenceFailure(failure.rule, failure.detail)}) == 1
    tr = make_traceroute("2.2.0.1", completed=False)
    got = aspath.collapse_traceroute(tr, _fixture_table(), 100, 900)
    assert got == failure and not isinstance(got, tuple)
