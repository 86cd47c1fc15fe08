"""Input parsing: window naming, prefix table, AS metadata, measurement JSONL."""
from __future__ import annotations

import json
from datetime import datetime, timezone
from ipaddress import AddressValueError, IPv4Address

import pytest
from hypothesis import given
from hypothesis import strategies as st

from _helpers import make_record, make_traceroute, ts
from censorloc.ingest import (
    IngestError,
    ParseReport,
    ingest_summary_obj,
    parse_as_metadata,
    parse_ipv4,
    parse_measurements,
    parse_pfx2as,
    window_id,
)
from censorloc.model import TimeGranularity, parse_timestamp

G = TimeGranularity


# frozen window names, including the ISO-week year rollover
WINDOW_CASES = [
    ("2016-05-02T00:00:00Z", G.DAY, "2016-05-02"),
    ("2016-05-02T23:59:59Z", G.DAY, "2016-05-02"),
    ("2016-05-02T12:00:00Z", G.WEEK, "2016-W18"),
    ("2016-05-08T12:00:00Z", G.WEEK, "2016-W18"),
    ("2016-05-09T00:00:00Z", G.WEEK, "2016-W19"),
    ("2016-01-01T00:00:00Z", G.WEEK, "2015-W53"),
    ("2015-12-31T00:00:00Z", G.WEEK, "2015-W53"),
    ("2016-01-04T00:00:00Z", G.WEEK, "2016-W01"),
    ("2016-05-02T12:00:00Z", G.MONTH, "2016-05"),
    ("2016-12-31T23:59:59Z", G.MONTH, "2016-12"),
    ("2016-01-01T00:00:00Z", G.MONTH, "2016-01"),
    ("2016-01-01T00:00:00Z", G.YEAR, "2016"),
    ("2015-12-31T23:59:59Z", G.YEAR, "2015"),
]


@pytest.mark.parametrize("raw, granularity, expected", WINDOW_CASES)
def test_window_id_frozen_values(raw, granularity, expected):
    assert window_id(ts(raw), granularity) == expected


@given(
    st.datetimes(
        min_value=datetime(1995, 1, 1),
        max_value=datetime(2035, 1, 1),
    )
)
def test_windows_nest_day_within_month_within_year(naive):
    instant = naive.replace(tzinfo=timezone.utc)
    day = window_id(instant, G.DAY)
    month = window_id(instant, G.MONTH)
    year = window_id(instant, G.YEAR)
    assert day.startswith(month)
    assert month.startswith(year)


# ---------------------------------------------------------------------------
# IPv4 parser, with ipaddress as the reference

def _reference_ipv4(text: str) -> int | None:
    try:
        return int(IPv4Address(text))
    except (AddressValueError, ValueError):
        return None


# the characters int() or a loose parser would let through, plus the legal ones
_ADVERSARIAL = "0123456789. 0/+_²٣\n"


@given(
    st.one_of(
        st.text(alphabet=_ADVERSARIAL, max_size=20),
        st.lists(st.text(alphabet=_ADVERSARIAL, min_size=1, max_size=4), max_size=6).map(
            ".".join
        ),
        st.lists(st.integers(0, 300).map(str), min_size=3, max_size=5).map(".".join),
    )
)
def test_parse_ipv4_agrees_with_ipaddress(text):
    assert parse_ipv4(text) == _reference_ipv4(text)


@pytest.mark.parametrize(
    "text, expected",
    [
        ("0.0.0.0", 0),
        ("1.2.3.4", 0x01020304),
        ("255.255.255.255", 2**32 - 1),
        ("01.2.3.4", None),
        (" 1.2.3.4", None),
        ("1.2.3.4 ", None),
        ("1.2.3", None),
        ("1.2.3.4.5", None),
        ("1_0.0.0.1", None),
        ("+1.0.0.1", None),
        ("256.0.0.1", None),
        ("1.2.3.4/32", None),
        ("1.2.3.٣", None),
        ("", None),
    ],
)
def test_parse_ipv4_explicit_cases(text, expected):
    assert parse_ipv4(text) == expected
    assert _reference_ipv4(text) == expected


# ---------------------------------------------------------------------------
# prefix table

def test_parse_pfx2as_counts_and_lookup():
    text = (
        "9.9.0.0\t16\t900\n"
        "\n"
        "5.5.0.0\t16\t500_501\n"
        "6.6.0.0\t16\t600,601\n"
        "bogus line\n"
        "1.2.3.0\t40\t100\n"
        "999.1.1.1\t16\t100\n"
        "7.7.0.0\t16\t0\n"
    )
    table, report = parse_pfx2as(text)
    assert report.kept == 3
    assert report.skipped == 5
    assert report.skip_reasons == {
        "blank line": 1,
        "malformed line": 1,
        "invalid prefix length": 1,
        "invalid prefix address": 1,
        "invalid origin": 1,
    }
    assert len(table) == 3
    assert table.lookup("9.9.4.4") == frozenset({900})
    assert table.lookup("5.5.5.5") == frozenset({500, 501})
    assert table.lookup("6.6.6.6") == frozenset({600, 601})
    assert table.lookup("8.8.8.8") is None
    assert table.lookup("definitely-not-an-ip") is None


def test_parse_pfx2as_host_bits_are_masked():
    table, _ = parse_pfx2as("9.9.255.255\t16\t900\n")
    assert table.lookup("9.9.0.1") == frozenset({900})


def test_parse_pfx2as_later_duplicate_wins():
    table, report = parse_pfx2as("9.9.0.0\t16\t900\n9.9.0.0\t16\t901\n")
    assert table.lookup("9.9.0.1") == frozenset({901})
    assert report.warnings == {"duplicate prefix overridden": 1}


def test_parse_pfx2as_empty_is_fatal():
    with pytest.raises(IngestError, match="empty after parsing"):
        parse_pfx2as("junk\n")


# ---------------------------------------------------------------------------
# AS metadata

AS_META = "asn,country,name\n100,US,Example Backbone\n200,CN,Great Transit\n"


def test_parse_as_metadata():
    registry, report = parse_as_metadata(AS_META)
    assert report.kept == 2
    assert len(registry) == 2
    assert 100 in registry and 300 not in registry
    assert registry.country(100) == "US"
    assert registry.name(200) == "Great Transit"
    assert registry.country(300) is None


def test_parse_as_metadata_skips_bad_rows():
    text = (
        "asn,country,name\n"
        "100,US,Good\n"
        "abc,US,BadAsn\n"
        "0,US,RangeAsn\n"
        "200,usa,BadCountry\n"
        "300,DE\n"
        ",,\n"
    )
    registry, report = parse_as_metadata(text)
    assert report.kept == 1
    assert report.skipped == 5
    assert report.skip_reasons == {
        "invalid asn": 2,
        "country code not alpha-2": 1,
        "malformed row": 1,
        "blank line": 1,
    }
    assert len(registry) == 1


def test_parse_as_metadata_header_is_mandatory():
    with pytest.raises(IngestError, match="header must be"):
        parse_as_metadata("asn,cc,name\n100,US,X\n")
    with pytest.raises(IngestError, match="empty"):
        parse_as_metadata("")


# ---------------------------------------------------------------------------
# measurements

def _record_line(**overrides) -> str:
    obj = make_record().to_json_obj()
    obj.update(overrides)
    return json.dumps(obj)


def test_parse_measurements_round_trip():
    records, report = parse_measurements(_record_line() + "\n")
    assert report.kept == 1 and report.skipped == 0
    assert records[0] == make_record()


def _traceroutes(completed=True, hops=None) -> list:
    if hops is None:
        hops = [{"ttl": 1, "addr": "9.9.0.1"}]
    return [{"completed": completed, "hops": hops}] * 3


def test_parse_measurements_skip_accounting():
    lines = [
        _record_line(),
        "not json",
        json.dumps({"record_id": "x"}),
        _record_line(anomaly="ddos"),
        _record_line(vantage_asn=0),
        _record_line(detected="yes"),
        _record_line(timestamp="yesterday"),
        _record_line(url="no-scheme"),
        _record_line(dst_ip="999.1.1.1"),
        _record_line(traceroutes=[]),
        _record_line(surprise=1),
        "",
        _record_line(record_id=""),
        _record_line(traceroutes=_traceroutes(hops=[{"ttl": 0, "addr": "9.9.0.1"}])),
        _record_line(traceroutes=_traceroutes(hops=[{"ttl": True, "addr": "9.9.0.1"}])),
        _record_line(traceroutes=_traceroutes(hops=[{"ttl": 1, "addr": 7}])),
        _record_line(traceroutes=_traceroutes(completed="yes")),
        _record_line(traceroutes=_traceroutes(hops=[])),
        # record fields are checked before traceroutes, so the record_id wins
        _record_line(record_id="", traceroutes=_traceroutes(hops=[{"ttl": 0, "addr": 7}])),
    ]
    records, report = parse_measurements("\n".join(lines) + "\n")
    assert len(records) == 1
    assert report.kept == 1
    assert report.skipped == len(lines) - 1
    assert sum(report.skip_reasons.values()) == report.skipped
    assert report.skip_reasons["invalid json"] == 1
    assert report.skip_reasons["unknown anomaly type: 'ddos'"] == 1
    assert report.skip_reasons["traceroute count != 3"] == 1
    assert report.skip_reasons["unexpected key: surprise"] == 1
    assert report.skip_reasons["blank line"] == 1
    assert report.skip_reasons["invalid record_id"] == 2
    assert report.skip_reasons["invalid hop ttl"] == 2
    assert report.skip_reasons["invalid hop addr"] == 1
    assert report.skip_reasons["invalid traceroute completed flag"] == 1
    assert report.skip_reasons["completed traceroute without hops"] == 1


def test_parse_measurements_splits_only_at_newlines():
    # json.dumps leaves these unescaped with ensure_ascii=False; str.splitlines
    # would break the record apart at each of them
    obj = make_record(record_id="odd\u2028id", url="http://example.com/\x85\u2029").to_json_obj()
    odd = json.dumps(obj, ensure_ascii=False)
    cases = [
        (odd + "\n" + _record_line() + "\n", 0),
        (odd + "\r\n" + _record_line(), 0),
        (odd + "\r\n\r\n" + _record_line() + "\n\n", 2),
    ]
    for text, blank_lines in cases:
        records, report = parse_measurements(text)
        assert [r.record_id for r in records] == ["odd\u2028id", "r1"]
        assert records[0].url == "http://example.com/\x85\u2029"
        assert report.kept == 2 and report.skipped == blank_lines
        assert report.skip_reasons == ({"blank line": blank_lines} if blank_lines else {})


def test_parse_measurements_shares_equal_hops():
    tr = make_traceroute("9.9.0.1", "*", "9.9.0.2")
    line = _record_line(traceroutes=[tr.to_json_obj()] * 3)
    records, _ = parse_measurements(line + "\n" + line + "\n")
    hops = [hop for r in records for t in r.traceroutes for hop in t.hops]
    assert [h.addr for h in hops] == ["9.9.0.1", None, "9.9.0.2"] * 6
    assert len({id(h) for h in hops}) == 3


def test_parse_measurements_parses_each_distinct_timestamp_once():
    stamps = [
        "2016-05-02T12:00:00Z",
        "2016-13-02T12:00:00Z",
        ["2016-05-02T12:00:00Z"],
        "2016-05-03T12:00:00Z",
        "2016-05-02T12:00:00Z",
        "2016-13-02T12:00:00Z",
        ["2016-05-02T12:00:00Z"],
        "2016-05-03T12:00:00Z",
    ]
    text = "".join(
        _record_line(record_id=f"r{i}", timestamp=raw) + "\n" for i, raw in enumerate(stamps)
    )
    records, report = parse_measurements(text)

    # the report of parsing every stamp afresh
    expected = ParseReport()
    for raw in stamps:
        try:
            parse_timestamp(raw)
        except ValueError as exc:
            expected.skip(str(exc))
        else:
            expected.kept += 1
    assert report == expected
    assert report.skip_reasons == {
        "timestamp not in YYYY-MM-DDThh:mm:ssZ form: '2016-13-02T12:00:00Z'": 2,
        "timestamp must be a string, got ['2016-05-02T12:00:00Z']": 2,
    }
    assert [r.record_id for r in records] == ["r0", "r3", "r4", "r7"]
    assert [r.timestamp for r in records] == [parse_timestamp(stamps[i]) for i in (0, 3, 4, 7)]
    # records that share a stamp share one datetime
    assert records[0].timestamp is records[2].timestamp
    assert records[1].timestamp is records[3].timestamp
    assert records[0].timestamp is not records[1].timestamp


def test_parse_measurements_rejects_non_increasing_ttls():
    record = make_record().to_json_obj()
    for tr in record["traceroutes"]:
        tr["hops"] = [{"ttl": 2, "addr": "1.2.3.4"}, {"ttl": 2, "addr": "1.2.3.5"}]
    _, report = parse_measurements(_record_line() + "\n" + json.dumps(record))
    assert report.skip_reasons == {"hop ttls not strictly increasing": 1}


def test_parse_measurements_period_filter():
    inside = _record_line(record_id="in", timestamp="2016-05-02T12:00:00Z")
    outside = _record_line(record_id="out", timestamp="2017-01-01T00:00:00Z")
    records, report = parse_measurements(
        inside + "\n" + outside + "\n",
        period=(ts("2016-05-01T00:00:00Z"), ts("2016-05-31T23:59:59Z")),
    )
    assert [r.record_id for r in records] == ["in"]
    assert report.skip_reasons == {"timestamp outside analysis period": 1}


def test_parse_measurements_nothing_kept_is_fatal():
    with pytest.raises(IngestError, match="no measurement records parsed"):
        parse_measurements("not json\n")


def test_ingest_summary_shape():
    report = ParseReport()
    report.kept = 3
    report.skip("b reason")
    report.skip("a reason")
    report.skip("a reason")
    summary = ingest_summary_obj(report)
    assert summary == {
        "records_ok": 3,
        "records_skipped": 3,
        "skip_reasons": {"a reason": 2, "b reason": 1},
    }
    # keys are emitted sorted for stable output
    assert list(summary["skip_reasons"]) == ["a reason", "b reason"]
