"""Value-type invariants, and JSON round-trips of the types read back."""
from __future__ import annotations

import io
import json
from datetime import datetime, timezone

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import _reference
from _helpers import assert_canonical_cnf, make_record, make_traceroute, record_obj, ts
from censorloc.analysis import detect_leakage
from censorloc.ingest import parse_as_metadata, parse_measurements
from censorloc.model import (
    AnomalyType,
    BackboneStatus,
    BucketKey,
    CensorClass,
    CensorVerdict,
    LeakageEdge,
    SolutionStatus,
    TimeGranularity,
    Traceroute,
    format_timestamp,
    parse_timestamp,
    validate_asn,
)
from censorloc.solver import classify
from censorloc.tomography import build_clause, build_cnf


def test_anomaly_and_granularity_parse():
    assert AnomalyType.parse("dns") is AnomalyType.DNS
    assert TimeGranularity.parse("week") is TimeGranularity.WEEK
    with pytest.raises(ValueError, match="unknown anomaly type"):
        AnomalyType.parse("ddos")
    with pytest.raises(ValueError, match="unknown time granularity"):
        TimeGranularity.parse("hour")


def test_granularity_sort_order_is_fine_to_coarse():
    order = sorted(TimeGranularity, key=lambda g: g.sort_index)
    assert order == [
        TimeGranularity.DAY,
        TimeGranularity.WEEK,
        TimeGranularity.MONTH,
        TimeGranularity.YEAR,
    ]
    assert order == list(TimeGranularity)


def test_str_enum_members_compare_as_their_values():
    for enum in (AnomalyType, TimeGranularity, SolutionStatus, BackboneStatus, CensorClass):
        for a in enum:
            for b in enum:
                assert (a < b, a == b, a > b) == (a.value < b.value, a.value == b.value,
                                                  a.value > b.value)


# keys from small pools, so that pairs tie on some fields
_KEYS = st.builds(
    BucketKey,
    anomaly=st.sampled_from(AnomalyType),
    url=st.sampled_from(["", "http://a/", "http://b/", "http://\u00e9/"]),
    granularity=st.sampled_from(TimeGranularity),
    window_id=st.sampled_from(["2016", "2016-05", "2016-W18"]),
)


@given(_KEYS, _KEYS)
def test_bucket_key_sort_key_orders_as_by_value(a, b):
    def by_value(key):
        return (key.anomaly.value, key.url, list(TimeGranularity).index(key.granularity),
                key.window_id)

    assert (a.sort_key() < b.sort_key(), a.sort_key() == b.sort_key()) == (
        by_value(a) < by_value(b), by_value(a) == by_value(b))


def test_validate_asn_bounds():
    assert validate_asn(1) == 1
    assert validate_asn(2**32 - 1) == 2**32 - 1
    for bad in (0, -5, 2**32):
        with pytest.raises(ValueError, match="out of range"):
            validate_asn(bad)
    with pytest.raises(ValueError, match="must be an integer"):
        validate_asn(True)
    with pytest.raises(ValueError, match="must be an integer"):
        validate_asn("3356")


def test_timestamp_round_trip_and_utc_normalization():
    raw = "2016-05-02T12:34:56Z"
    parsed = parse_timestamp(raw)
    assert parsed.tzinfo is timezone.utc
    assert format_timestamp(parsed) == raw
    # strptime alone reads non-ASCII digits and unpadded fields
    for bad in ("2016-05-02 12:34:56", "٢٠١٦-05-02T12:00:00Z", "2016-5-2T1:2:3Z"):
        with pytest.raises(ValueError, match="not in"):
            parse_timestamp(bad)
    with pytest.raises(ValueError, match="must be a string"):
        parse_timestamp(1462192496)


def test_timestamps_before_year_1000_round_trip():
    # strftime("%Y") writes year 999 as "999", which the reader rejects
    for raw in ("0999-01-01T12:00:00Z", "0001-01-01T00:00:00Z", "0099-12-31T23:59:59Z"):
        parsed = parse_timestamp(raw)
        assert format_timestamp(parsed) == raw
        assert parse_timestamp(format_timestamp(parsed)) == parsed


# a space in place of each field's leading zero; strptime's %d takes " 2"
@pytest.mark.parametrize("raw", [
    " 016-05-02T12:00:00Z", "2016- 5-02T12:00:00Z", "2016-05- 2T12:00:00Z",
    "2016-05-02T 2:00:00Z", "2016-05-02T12: 0:00Z", "2016-05-02T12:00: 0Z",
])
def test_parse_timestamp_rejects_a_space_in_any_field(raw):
    with pytest.raises(ValueError, match="not in YYYY-MM-DDThh:mm:ssZ form"):
        parse_timestamp(raw)


def _timestamp_outcome(raw):
    try:
        return parse_timestamp(raw).replace(tzinfo=None)
    except ValueError as exc:
        return str(exc)


# one character of a valid stamp replaced, often by one strptime might take
@given(
    st.datetimes(min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31)),
    st.integers(0, 19),
    st.sampled_from([" ", "+", "-", "0", "1", "3", "9", ":", "T", "Z", "\u0662", "\uff11"])
    | st.characters(),
)
@example(datetime(2016, 5, 2), 8, " ")
def test_parse_timestamp_agrees_with_the_reference_form_check(naive, at, char):
    raw = naive.replace(microsecond=0).isoformat("T") + "Z"
    raw = raw[:at] + char + raw[at + 1:]
    assert _timestamp_outcome(raw) == _reference.timestamp_of(raw)


def _strptime_outcome(raw):
    # the reader as it was: an ASCII-digit form check, then strptime
    digits = raw[0:4] + raw[5:7] + raw[8:10] + raw[11:13] + raw[14:16] + raw[17:19]
    try:
        if len(raw) != 20 or not (raw.isascii() and digits.isdigit()):
            raise ValueError
        return datetime.strptime(raw, "%Y-%m-%dT%H:%M:%SZ")
    except ValueError:
        return f"timestamp not in YYYY-MM-DDThh:mm:ssZ form: {raw!r}"


# up to three characters of a valid stamp replaced, or the stamp cut short
@given(
    st.datetimes(min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31)),
    st.lists(st.tuples(st.integers(0, 19), st.sampled_from(
        [" ", "+", "-", "0", "1", "9", ":", "T", "Z", "t", "z", "٢"]) | st.characters()),
        max_size=3),
    st.integers(0, 21),
)
@example(datetime(2016, 5, 2, 12), [(10, "t")], 20)
@example(datetime(2016, 5, 2, 12), [(19, "z")], 20)
def test_parse_timestamp_agrees_with_strptime_but_for_case(naive, edits, length):
    raw = naive.replace(microsecond=0).isoformat("T") + "Z"
    for at, char in edits:
        raw = raw[:at] + char + raw[at + 1:]
    raw = raw[:length]
    expected = _strptime_outcome(raw)
    if raw[10:11] == "t" or raw[19:20] == "z":
        # strptime matches the format's literals case-insensitively
        expected = f"timestamp not in YYYY-MM-DDThh:mm:ssZ form: {raw!r}"
    assert _timestamp_outcome(raw) == expected


def _skip_reason(obj) -> str:
    """The one skip reason ingest gives a record object; ingest alone checks
    Hop, Traceroute and MeasurementRecord."""
    good = json.dumps(record_obj(make_record()))
    _, report = parse_measurements(io.StringIO(good + "\n" + json.dumps(obj) + "\n"))
    ((reason, count),) = report.skip_reasons.items()
    assert count == 1
    return reason


def _record_obj(**overrides) -> dict:
    obj = record_obj(make_record())
    obj.update(overrides)
    return obj


def _traceroutes_obj(completed: bool, hops: list) -> list:
    return [{"completed": completed, "hops": hops}] * 3


def test_hop_invariants():
    for ttl in (0, True):
        hops = [{"ttl": ttl, "addr": "*"}]
        assert _skip_reason(_record_obj(traceroutes=_traceroutes_obj(True, hops))) == (
            "invalid hop ttl"
        )
    # non-responsive hops serialize as "*"
    obj = record_obj(make_record(traceroutes=(make_traceroute("1.2.3.4", "*"),) * 3))
    assert obj["traceroutes"][0]["hops"] == [
        {"ttl": 1, "addr": "1.2.3.4"},
        {"ttl": 2, "addr": "*"},
    ]


def test_traceroute_invariants():
    assert _skip_reason(_record_obj(traceroutes=_traceroutes_obj(True, []))) == (
        "completed traceroute without hops"
    )
    repeated = [{"ttl": 2, "addr": "*"}, {"ttl": 2, "addr": "*"}]
    assert _skip_reason(_record_obj(traceroutes=_traceroutes_obj(False, repeated))) == (
        "hop ttls not strictly increasing"
    )
    # an incomplete, hopless probe is representable
    line = json.dumps(_record_obj(traceroutes=_traceroutes_obj(False, [])))
    (record,), _ = parse_measurements(io.StringIO(line + "\n"))
    assert record.traceroutes == (Traceroute(hops=(), completed=False),) * 3


def test_measurement_record_invariants():
    one_traceroute = _record_obj(traceroutes=_record_obj()["traceroutes"][:1])
    assert _skip_reason(one_traceroute) == "traceroute count != 3"
    assert _skip_reason(_record_obj(record_id="")) == "invalid record_id"
    assert _skip_reason(_record_obj(timestamp="2016-05-02T12:00:00")) == (
        "timestamp not in YYYY-MM-DDThh:mm:ssZ form: '2016-05-02T12:00:00'"
    )
    # timestamps come out timezone-aware, in UTC
    (record,), _ = parse_measurements(io.StringIO(json.dumps(_record_obj()) + "\n"))
    assert record.timestamp.tzinfo is timezone.utc


def test_measurement_record_round_trip():
    record = make_record(
        detected=True,
        traceroutes=(make_traceroute("2.2.0.1", "*", "9.9.0.1"),) * 3,
    )
    (parsed,), report = parse_measurements(io.StringIO(json.dumps(record_obj(record)) + "\n"))
    assert report.skipped == 0
    assert parsed == record


def test_clause_invariants_and_canonical_order():
    # a clause is built from an inferred path, which is non-empty and holds valid ASNs
    true_clause = build_clause((2, 1, 2), True)
    false_clause = build_clause((1,), False)
    assert true_clause.literal_asns == frozenset({1, 2})
    assert true_clause.canonical_key() == (0, (1, 2))
    assert true_clause.canonical_key() < false_clause.canonical_key()


def _bucket_key() -> BucketKey:
    return BucketKey(
        anomaly=AnomalyType.RESET,
        url="http://example.com/",
        granularity=TimeGranularity.WEEK,
        window_id="2016-W18",
    )


def test_cnf_instance_checks_variables_and_order():
    # build_cnf establishes what CnfInstance takes on trust
    entries = [
        ((30, 20), False, "c1", 2),
        ((20, 10), True, "t1", 1),
        ((10, 20), True, "t2", 1),
    ]
    inst = build_cnf(_bucket_key(), entries)
    assert_canonical_cnf(inst)
    assert inst.variables == (10, 20, 30)
    assert [(c.truth, sorted(c.literal_asns)) for c in inst.clauses] == [
        (True, [10, 20]),
        (False, [20, 30]),
    ]
    assert inst.source_paths == tuple(entries)


def test_censor_verdict_round_trip():
    verdict = CensorVerdict(
        asn=64500,
        censor_class=CensorClass.CENSOR,
        anomaly=AnomalyType.TTL,
        witnesses=(_bucket_key(),),
    )
    assert CensorVerdict.from_json_obj(verdict.to_json_obj()) == verdict


def test_leakage_edge_invariants():
    edge = LeakageEdge(
        censor_asn=200,
        victim_asn=100,
        censor_country="CN",
        victim_country="US",
        anomaly=AnomalyType.DNS,
        witness_key=_bucket_key(),
        witness_record_id="r9",
    )
    assert edge.crosses_border
    domestic = LeakageEdge(
        censor_asn=200,
        victim_asn=100,
        censor_country="CN",
        victim_country="CN",
        anomaly=AnomalyType.DNS,
        witness_key=_bucket_key(),
        witness_record_id="r9",
    )
    assert not domestic.crosses_border
    # detect_leakage builds every edge, and only from ASes strictly upstream of
    # the censor's first visit, so a path that revisits the censor yields no
    # self-leak
    inst = build_cnf(_bucket_key(), [
        ((100, 300, 200, 300, 900), True, "t1", 1),
        ((100, 200, 900), False, "c1", 1),
    ])
    registry, _ = parse_as_metadata("asn,country,name\n100,US,V\n300,CN,F\n")
    report = detect_leakage([(inst, classify(inst))], registry)
    assert [(e.censor_asn, e.victim_asn) for e in report.edges] == [(300, 100)]


# timestamps round-trip for arbitrary in-range instants
@given(
    st.datetimes(
        min_value=datetime(1990, 1, 1),
        max_value=datetime(2100, 1, 1),
    )
)
def test_timestamp_format_parse_round_trip(naive):
    instant = naive.replace(tzinfo=timezone.utc, microsecond=0)
    assert parse_timestamp(format_timestamp(instant)) == instant


def test_ts_helper_matches_parse_timestamp():
    assert ts("2016-05-02T12:00:00Z") == parse_timestamp("2016-05-02T12:00:00Z")
