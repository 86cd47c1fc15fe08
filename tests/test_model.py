"""Value-type invariants and JSON round-trips."""
from __future__ import annotations

import json
from datetime import datetime, timezone

import pytest
from hypothesis import given
from hypothesis import strategies as st

from _helpers import make_record, make_traceroute, ts
from censorloc.ingest import parse_measurements
from censorloc.model import (
    AnomalyType,
    AsPath,
    BackboneStatus,
    BucketKey,
    CensorClass,
    CensorVerdict,
    Clause,
    CnfInstance,
    Hop,
    LeakageEdge,
    SolutionStatus,
    SolutionSummary,
    TimeGranularity,
    Traceroute,
    format_timestamp,
    parse_timestamp,
    validate_asn,
)


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
    with pytest.raises(ValueError, match="not in"):
        parse_timestamp("2016-05-02 12:34:56")
    with pytest.raises(ValueError, match="must be a string"):
        parse_timestamp(1462192496)


def _skip_reason(obj) -> str:
    """The one skip reason ingest gives a record object; ingest alone checks
    Hop, Traceroute and MeasurementRecord."""
    good = json.dumps(make_record().to_json_obj())
    _, report = parse_measurements(good + "\n" + json.dumps(obj) + "\n")
    ((reason, count),) = report.skip_reasons.items()
    assert count == 1
    return reason


def _record_obj(**overrides) -> dict:
    obj = make_record().to_json_obj()
    obj.update(overrides)
    return obj


def _traceroutes_obj(completed: bool, hops: list) -> list:
    return [{"completed": completed, "hops": hops}] * 3


def test_hop_invariants():
    assert Hop(addr="1.2.3.4", ttl_index=1).responsive
    assert not Hop(addr=None, ttl_index=2).responsive
    for ttl in (0, True):
        hops = [{"ttl": ttl, "addr": "*"}]
        assert _skip_reason(_record_obj(traceroutes=_traceroutes_obj(True, hops))) == (
            "invalid hop ttl"
        )
    # non-responsive hops serialize as "*"
    assert Hop(addr=None, ttl_index=3).to_json_obj() == {"ttl": 3, "addr": "*"}


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
    (record,), _ = parse_measurements(line + "\n")
    assert record.traceroutes == (Traceroute(hops=(), completed=False),) * 3


def test_measurement_record_invariants():
    one_traceroute = _record_obj(traceroutes=_record_obj()["traceroutes"][:1])
    assert _skip_reason(one_traceroute) == "traceroute count != 3"
    assert _skip_reason(_record_obj(record_id="")) == "invalid record_id"
    assert _skip_reason(_record_obj(timestamp="2016-05-02T12:00:00")) == (
        "timestamp not in YYYY-MM-DDThh:mm:ssZ form: '2016-05-02T12:00:00'"
    )
    # timestamps come out timezone-aware, in UTC
    (record,), _ = parse_measurements(json.dumps(_record_obj()) + "\n")
    assert record.timestamp.tzinfo is timezone.utc


def test_measurement_record_round_trip():
    record = make_record(
        detected=True,
        traceroutes=(make_traceroute("2.2.0.1", "*", "9.9.0.1"),) * 3,
    )
    (parsed,), report = parse_measurements(json.dumps(record.to_json_obj()) + "\n")
    assert report.skipped == 0
    assert parsed == record


def test_as_path_invariants():
    path = AsPath(asns=(100, 200, 900))
    assert path.vantage_asn == 100
    assert path.dst_asn == 900
    with pytest.raises(ValueError, match="cannot be empty"):
        AsPath(asns=())
    with pytest.raises(ValueError, match="consecutive duplicate"):
        AsPath(asns=(100, 100, 900))
    # non-consecutive revisits are allowed
    assert AsPath(asns=(100, 900, 200, 900)).dst_asn == 900
    assert AsPath.from_json_obj(path.to_json_obj()) == path


def test_clause_invariants_and_canonical_order():
    with pytest.raises(ValueError, match="at least one literal"):
        Clause(literal_asns=frozenset(), truth=True)
    with pytest.raises(ValueError, match="must be a boolean"):
        Clause(literal_asns=frozenset({1}), truth=1)
    true_clause = Clause(literal_asns=frozenset({2, 1}), truth=True)
    false_clause = Clause(literal_asns=frozenset({1}), truth=False)
    assert true_clause.canonical_key() < false_clause.canonical_key()
    assert Clause.from_json_obj(true_clause.to_json_obj()) == true_clause


def _bucket_key() -> BucketKey:
    return BucketKey(
        anomaly=AnomalyType.RESET,
        url="http://example.com/",
        granularity=TimeGranularity.WEEK,
        window_id="2016-W18",
    )


def test_cnf_instance_checks_variables_and_order():
    key = _bucket_key()
    c1 = Clause(literal_asns=frozenset({10, 20}), truth=True)
    c2 = Clause(literal_asns=frozenset({20}), truth=False)
    good = CnfInstance(key=key, variables=(10, 20), clauses=(c1, c2), source_paths=())
    assert CnfInstance.from_json_obj(good.to_json_obj()) == good

    with pytest.raises(ValueError, match="sorted union"):
        CnfInstance(key=key, variables=(10,), clauses=(c1, c2), source_paths=())
    with pytest.raises(ValueError, match="canonical order"):
        CnfInstance(key=key, variables=(10, 20), clauses=(c2, c1), source_paths=())
    with pytest.raises(ValueError, match="duplicate clauses"):
        CnfInstance(key=key, variables=(10, 20), clauses=(c1, c1, c2), source_paths=())


def test_solution_summary_consistency_rules():
    key = _bucket_key()
    with pytest.raises(ValueError, match="unsat iff"):
        SolutionSummary(key=key, status=SolutionStatus.UNSAT, model_count_capped=2)
    with pytest.raises(ValueError, match="unique iff"):
        SolutionSummary(
            key=key,
            status=SolutionStatus.MULTIPLE,
            model_count_capped=1,
            backbone={1: BackboneStatus.FREE},
        )
    with pytest.raises(ValueError, match="empty backbone"):
        SolutionSummary(
            key=key,
            status=SolutionStatus.UNSAT,
            model_count_capped=0,
            backbone={1: BackboneStatus.FREE},
        )
    with pytest.raises(ValueError, match="backbone entry per variable"):
        SolutionSummary(key=key, status=SolutionStatus.MULTIPLE, model_count_capped=3)
    with pytest.raises(ValueError, match="forces every variable"):
        SolutionSummary(
            key=key,
            status=SolutionStatus.UNIQUE,
            model_count_capped=1,
            backbone={1: BackboneStatus.FREE},
        )

    summary = SolutionSummary(
        key=key,
        status=SolutionStatus.UNIQUE,
        model_count_capped=1,
        backbone={7: BackboneStatus.FORCED_TRUE, 3: BackboneStatus.FORCED_FALSE},
    )
    assert summary.forced_true_asns() == (7,)
    assert SolutionSummary.from_json_obj(summary.to_json_obj()) == summary


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
    assert LeakageEdge.from_json_obj(edge.to_json_obj()) == edge
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
    with pytest.raises(ValueError, match="leak onto itself"):
        LeakageEdge(
            censor_asn=200,
            victim_asn=200,
            censor_country="CN",
            victim_country="CN",
            anomaly=AnomalyType.DNS,
            witness_key=_bucket_key(),
            witness_record_id="r9",
        )


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
