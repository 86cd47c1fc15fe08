"""Input parsing: window naming, prefix table, AS metadata, measurement JSONL."""
from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from collections import Counter
from datetime import datetime, timezone
from ipaddress import AddressValueError, IPv4Address

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _helpers import (
    JSON_VALUES,
    NEAR_VALUES,
    equal_twins,
    make_record,
    make_traceroute,
    record_obj,
    ts,
    value_paths,
)
from censorloc import ingest
from censorloc.aspath import map_ip
from censorloc.cli import main
from censorloc.ingest import (
    IngestError,
    ParseReport,
    PrefixTable,
    ingest_summary_obj,
    parse_as_metadata,
    parse_ipv4,
    parse_measurements,
    parse_pfx2as,
    window_id,
)
from censorloc.model import AnomalyType, TimeGranularity, parse_timestamp

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


# the characters int() or a loose parser would let through, plus the legal
# ones and those a C string cannot carry (NUL, a lone surrogate)
_ADVERSARIAL = "0123456789. 0/+_²٣\n\x00\ud800x:\t０１"


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
        ("0x1.2.3.4", None),
        ("1.2.3.4\x00", None),
        ("1.2.3.\ud800", None),
        ("1.2.3.4\n", None),
        ("１.2.3.4", None),
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
        # int() reads these digits, but the format allows ASCII digits only
        "1.0.0.0\t²\t100\n"
        "1.0.0.0\t١٦\t100\n"
        "1.0.0.0\t16\t١٠٠\n"
        "1.0.0.0\t16\t100_²\n"
        # more digits than int() converts; leading zeros alone are fine
        f"1.0.0.0\t{'1' * 5_000}\t100\n"
        f"1.0.0.0\t16\t{'1' * 5_000}\n"
        "4.4.0.0\t0000016\t0000400\n"
    )
    table, report = parse_pfx2as(text)
    assert report.kept == 4
    assert report.skipped == 11
    assert report.skip_reasons == {
        "blank line": 1,
        "malformed line": 1,
        "invalid prefix length": 4,
        "invalid prefix address": 1,
        "invalid origin": 4,
    }
    assert map_ip(table, "4.4.4.4") == frozenset({400})
    assert map_ip(table, "9.9.4.4") == frozenset({900})
    assert map_ip(table, "5.5.5.5") == frozenset({500, 501})
    assert map_ip(table, "6.6.6.6") == frozenset({600, 601})
    for unmapped in ("8.8.8.8", "1.0.0.1", "definitely-not-an-ip"):
        assert map_ip(table, unmapped) == frozenset()


def test_parse_pfx2as_splits_only_at_newlines():
    # str.splitlines would break the first line at each of these, and count
    # three lines kept out of two
    for separator in ("\x85", "\x0b", "\x1c", "\u2028"):
        text = f"1.0.0.0\t8\t100{separator}2.0.0.0\t8\t200\n3.0.0.0\t8\t300\r\n"
        table, report = parse_pfx2as(text)
        assert (report.kept, report.skipped) == (1, 1)
        assert report.skip_reasons == {"malformed line": 1}
        assert map_ip(table, "3.0.0.1") == frozenset({300})
        assert map_ip(table, "2.0.0.1") == map_ip(table, "1.0.0.1") == frozenset()


def test_parse_pfx2as_host_bits_are_masked():
    table, _ = parse_pfx2as("9.9.255.255\t16\t900\n")
    assert map_ip(table, "9.9.0.1") == frozenset({900})


def test_parse_pfx2as_later_duplicate_wins():
    table, report = parse_pfx2as("9.9.0.0\t16\t900\n9.9.0.0\t16\t901\n")
    assert map_ip(table, "9.9.0.1") == frozenset({901})
    assert report.warnings == {"duplicate prefix overridden": 1}


def test_parse_pfx2as_empty_is_fatal():
    with pytest.raises(IngestError, match="empty after parsing"):
        parse_pfx2as("junk\n")


# ---------------------------------------------------------------------------
# AS metadata

AS_META = "asn,country,name\n100,US,Example Backbone\n200,CN,Great Transit\n"


def test_parse_as_metadata():
    countries, report = parse_as_metadata(AS_META)
    assert report.kept == 2
    assert countries.get(100) == "US"
    assert countries.get(200) == "CN"
    assert countries.get(300) is None


def test_parse_as_metadata_skips_bad_rows():
    text = (
        "asn,country,name\n"
        "100,US,Good\n"
        "abc,US,BadAsn\n"
        "0,US,RangeAsn\n"
        "200,usa,BadCountry\n"
        "300,DE\n"
        ",,\n"
        # int() reads these digits, but the format allows ASCII digits only
        "²,US,Superscript\n"
        "١٠٠,DE,ArabicIndic\n"
        # a field over the csv module's size limit; the next row still parses
        f"400,US,{'x' * 131_073}\n"
        "500,FR,AfterTheLongRow\n"
        # more digits than int() converts; leading zeros alone are fine
        f"{'1' * 5_000},US,HugeAsn\n"
        "0000600,JP,LeadingZeros\n"
    )
    countries, report = parse_as_metadata(text)
    assert report.kept == 3
    assert report.skipped == 9
    assert report.skip_reasons == {
        "invalid asn": 5,
        "country code not alpha-2": 1,
        "malformed row": 2,
        "blank line": 1,
    }
    assert report.warnings == {}
    assert countries.get(100) == "US"
    assert countries.get(200) is None
    assert countries.get(400) is None
    assert countries.get(500) == "FR"
    assert countries.get(600) == "JP"


def test_parse_as_metadata_header_is_mandatory():
    with pytest.raises(IngestError, match="header must be"):
        parse_as_metadata("asn,cc,name\n100,US,X\n")
    with pytest.raises(IngestError, match="empty"):
        parse_as_metadata("")
    with pytest.raises(IngestError, match="header is malformed"):
        parse_as_metadata(f"asn,country,{'x' * 131_073}\n100,US,X\n")


# ---------------------------------------------------------------------------
# measurements

def _record_line(**overrides) -> str:
    obj = record_obj(make_record())
    obj.update(overrides)
    return json.dumps(obj)


def test_parse_measurements_round_trip():
    records, report = parse_measurements(io.StringIO(_record_line() + "\n"))
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
        # nested deeper than the JSON decoder recurses
        "[" * 200_000 + "]" * 200_000,
        # an integer over the interpreter's digit limit
        '{"record_id": ' + "1" * 5000 + "}",
        json.dumps({"record_id": "x"}),
        _record_line(anomaly="ddos"),
        _record_line(vantage_asn=0),
        _record_line(detected="yes"),
        _record_line(timestamp="yesterday"),
        _record_line(timestamp="٢٠١٦-05-02T12:00:00Z"),
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
    records, report = parse_measurements(io.StringIO("\n".join(lines) + "\n"))
    assert len(records) == 1
    assert report.kept == 1
    assert report.skipped == len(lines) - 1
    assert sum(report.skip_reasons.values()) == report.skipped
    assert report.skip_reasons["invalid json"] == 3
    assert report.skip_reasons["unknown anomaly type: 'ddos'"] == 1
    assert report.skip_reasons[
        "timestamp not in YYYY-MM-DDThh:mm:ssZ form: '٢٠١٦-05-02T12:00:00Z'"
    ] == 1
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
    obj = record_obj(make_record(record_id="odd\u2028id", url="http://example.com/\x85\u2029"))
    odd = json.dumps(obj, ensure_ascii=False)
    cases = [
        (odd + "\n" + _record_line() + "\n", 0),
        (odd + "\r\n" + _record_line(), 0),
        (odd + "\r\n\r\n" + _record_line() + "\n\n", 2),
    ]
    for text, blank_lines in cases:
        records, report = parse_measurements(io.StringIO(text))
        assert [r.record_id for r in records] == ["odd\u2028id", "r1"]
        assert records[0].url == "http://example.com/\x85\u2029"
        assert report.kept == 2 and report.skipped == blank_lines
        assert report.skip_reasons == ({"blank line": blank_lines} if blank_lines else {})


def test_parse_measurements_shares_equal_hops():
    tr = make_traceroute("9.9.0.1", "*", "9.9.0.2")
    line = json.dumps(record_obj(make_record(traceroutes=(tr,) * 3)))
    records, _ = parse_measurements(io.StringIO(line + "\n" + line + "\n"))
    hops = [hop for r in records for t in r.traceroutes for hop in t.hops]
    assert [h.addr for h in hops] == ["9.9.0.1", None, "9.9.0.2"] * 6
    assert len({id(h) for h in hops}) == 3
    # equal traceroutes, and equal triples of them, are shared too
    first, second = records
    assert first.traceroutes == (tr,) * 3
    assert first.traceroutes is second.traceroutes
    assert all(t is first.traceroutes[0] for r in records for t in r.traceroutes)


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
    records, report = parse_measurements(io.StringIO(text))

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
    record = record_obj(make_record())
    for tr in record["traceroutes"]:
        tr["hops"] = [{"ttl": 2, "addr": "1.2.3.4"}, {"ttl": 2, "addr": "1.2.3.5"}]
    _, report = parse_measurements(io.StringIO(_record_line() + "\n" + json.dumps(record)))
    assert report.skip_reasons == {"hop ttls not strictly increasing": 1}


# a valid record whose traceroutes differ from every other line's, so that a
# parse ending with it is never fatal
_LAST_LINE = _record_line(
    record_id="last", traceroutes=_traceroutes(hops=[{"ttl": 1, "addr": "9.9.0.9"}])
)


def _outcome(line: str, after: tuple[str, ...] = ()):
    """The record ``line`` gives when parsed after the valid lines ``after``,
    or its skip reason."""
    text = "".join(f"{each}\n" for each in (*after, line, _LAST_LINE))
    records, report = parse_measurements(io.StringIO(text))
    assert [r.record_id for r in records[: len(after)]] == [
        json.loads(each)["record_id"] for each in after
    ]
    if report.skipped:
        (reason,) = report.skip_reasons
        return reason
    return records[len(after)]


def _mutated_line(change) -> str:
    obj = json.loads(_record_line())
    change(obj)
    return json.dumps(obj)


def test_parse_measurements_memo_keeps_types_apart():
    valid = _record_line()
    cases = [
        (lambda obj: obj["traceroutes"][1]["hops"][0].update(ttl=True), "invalid hop ttl"),
        (lambda obj: obj["traceroutes"][1]["hops"][0].update(ttl=1.0), "invalid hop ttl"),
        (lambda obj: obj["traceroutes"][2].update(completed=1),
         "invalid traceroute completed flag"),
    ]
    for change, reason in cases:
        line = _mutated_line(change)
        # equal to the valid line's traceroutes under ==, but not of equal types
        assert json.loads(line) == json.loads(valid)
        assert _outcome(line) == reason
        assert _outcome(line, after=(valid,)) == reason

    def reorder_hop_keys(obj):
        for tr in obj["traceroutes"]:
            tr["hops"] = [{"addr": h["addr"], "ttl": h["ttl"]} for h in tr["hops"]]

    line = _mutated_line(reorder_hop_keys)
    assert line != valid
    records, report = parse_measurements(io.StringIO(f"{valid}\n{line}\n"))
    assert report.kept == 2
    assert records[0] == records[1] == make_record()
    assert records[1].traceroutes is records[0].traceroutes


def test_parse_measurements_hop_checks_precede_ttl_order():
    def hops(third_addr):
        return [
            {"ttl": 2, "addr": "9.9.0.1"},
            {"ttl": 1, "addr": "9.9.0.2"},
            {"ttl": 3, "addr": third_addr},
        ]

    valid = _record_line()
    cases = [(7, "invalid hop addr"), ("9.9.0.3", "hop ttls not strictly increasing")]
    for third_addr, reason in cases:
        line = _record_line(traceroutes=_traceroutes(hops=hops(third_addr)))
        assert _outcome(line) == reason
        assert _outcome(line, after=(valid,)) == reason


def test_parse_measurements_record_too_deep_to_marshal():
    # nesting deeper than marshal (2,000) or the default recursion limit
    # takes; the checks must still name the fault, and no decoder's or
    # serializer's message ever becomes a skip reason
    deep = "[" * 2500 + "]" * 2500
    line = _record_line(traceroutes=_traceroutes(hops=["DEEP"])).replace('"DEEP"', deep)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 10_000))
    try:
        assert _outcome(line) == "invalid hop"
        assert _outcome(line, after=(_record_line(),)) == "invalid hop"
    finally:
        sys.setrecursionlimit(limit)


# The traceroutes array is decoded element by element and the rest of the
# line with the array replaced by NaN; each line below must give what
# json.loads and the record checks alone give, after a valid line whose
# traceroute text it may reuse.
_VALID = _record_line()
_FIELDS = [(json.dumps(k), json.dumps(v)) for k, v in json.loads(_VALID).items()
           if k != "traceroutes"]
_TRIPLE = json.dumps(json.loads(_VALID)["traceroutes"])
_OTHER = json.dumps(_traceroutes(hops=[{"ttl": 1, "addr": "9.9.0.7"}]))


def _raw_line(before=(), after=(), traceroutes=_TRIPLE) -> str:
    """A record line from (key text, value text) pairs around the usual ones."""
    pairs = [*before, *_FIELDS, ('"traceroutes"', traceroutes), *after]
    return "{" + ", ".join(f"{k}: {v}" for k, v in pairs) + "}"


def _plain_outcome(line: str):
    """What json.loads and the record checks alone make of ``line``: given no
    triple, ``_validate_record`` checks the traceroutes list itself."""
    try:
        obj = json.loads(line)
    except ValueError:
        return "invalid json"
    try:
        return ingest._validate_record(obj, ingest._Seen(PrefixTable(())))
    except ValueError as exc:
        return str(exc)


def _assert_plain(*lines: str) -> None:
    for line in lines:
        # given as a list, a line may hold a LF, which is JSON whitespace
        records, report = parse_measurements([f"{_VALID}\n", f"{line}\n", f"{_LAST_LINE}\n"])
        assert records[0] == make_record()
        if report.skipped:
            (reason,) = report.skip_reasons
            assert reason == _plain_outcome(line), line
        else:
            assert records[1] == _plain_outcome(line), line


def test_decoder_duplicate_traceroutes_keys():
    _assert_plain(
        _raw_line(before=[('"traceroutes"', "[]")]),
        _raw_line(before=[('"traceroutes"', _OTHER)]),
        _raw_line(after=[('"traceroutes"', "0")]),
    )
    assert _plain_outcome(_raw_line(before=[('"traceroutes"', _OTHER)])) == make_record()


def test_decoder_nan_elsewhere():
    _assert_plain(
        _raw_line(before=[('"detected"', "NaN")], after=[('"detected"', "NaN")]),
        _raw_line(after=[('"traceroutes"', "NaN")]),
        _raw_line(before=[('"url"', "NaN")]),
    )
    assert _plain_outcome(_raw_line(after=[('"traceroutes"', "NaN")])) == "invalid traceroutes"


def test_decoder_previous_text_elsewhere():
    _assert_plain(
        # as a string value, and under another key that a later one overrides
        _raw_line(before=[('"record_id"', json.dumps('x"traceroutes')),
                          ('"url"', json.dumps(f"http://x/{_TRIPLE}"))]),
        _raw_line(before=[('"traceroutes"', "0"), ('"url"', _TRIPLE)], traceroutes=_OTHER),
    )


def test_decoder_quoted_traceroutes_in_a_key():
    _assert_plain(
        _raw_line(before=[(json.dumps('x"traceroutes'), _OTHER)]),
        _raw_line(before=[('"url"', "{" + json.dumps('x"traceroutes') + f": {_OTHER}}}")]),
    )


def test_decoder_json_whitespace_only():
    element = _TRIPLE[1:-1].split(", {")[0]
    for ws in ("\t", "\r", "\n", " \t\r\n"):
        line = _raw_line(traceroutes=f"[{ws}{element}{ws},{ws}{element}{ws},{element}{ws}]")
        _assert_plain(line, line.replace(f"{ws}]", f"{ws}]{ws}, {ws}\"traceroutes\": 0"))
        assert _plain_outcome(line) == make_record()
    # a separator JSON does not allow is invalid however the array is read
    for ws in ("\x0c", "\x0b", "\xa0", "\u2028", "\x00"):
        _assert_plain(_raw_line(traceroutes=f"[{ws}{element}, {element}, {element}]"),
                      _raw_line(traceroutes=f"[{element}, {element}{ws}, {element}]"))


def test_decoder_trailing_comma():
    element = _TRIPLE[1:-1].split(", {")[0]
    _assert_plain(
        _raw_line(traceroutes=f"[{element}, {element}, {element},]"),
        _raw_line(traceroutes=f"[{element}, {element},]"),
        _raw_line(traceroutes=f"[{element}, {element}, {element}, ]"),
    )
    assert _plain_outcome(_raw_line(traceroutes=f"[{element}, {element},]")) == "invalid json"


def test_decoder_array_after_the_traceroutes():
    _assert_plain(
        _raw_line(after=[('"url"', "[1]")]),
        _raw_line(after=[('"url"', "[1]"), ('"url"', '"http://example.com/"')]),
    )


def test_decoder_element_near_the_recursion_limit(monkeypatch):
    # the walk decodes an element from fewer frames than json.loads(line)
    # does; where only the walk gets through, the line is still invalid json
    def deep(depth):
        line = _record_line(traceroutes=_traceroutes(hops=["DEEP"]))
        return line.replace('"DEEP"', "[" * depth + "]" * depth)

    def outcomes(depths):
        # every call from the same stack depth, so the limit falls alike
        return {d: (_outcome(deep(d)), _outcome(deep(d), after=(_VALID,))) for d in depths}

    monkeypatch.setattr(ingest, "_decode", lambda line, seen: None)
    low, high = 1, 2 * sys.getrecursionlimit()
    while low < high:  # the least depth json.loads(line) cannot decode
        mid = (low + high) // 2
        low, high = (low, mid) if outcomes([mid])[mid][0] == "invalid json" else (mid + 1, high)
    plain = outcomes(range(low - 12, low + 4))
    monkeypatch.undo()
    assert plain[low - 1] == ("invalid hop",) * 2 and plain[low] == ("invalid json",) * 2
    assert outcomes(plain) == plain


def test_decoder_walks_only_lines_after_a_repeat(monkeypatch):
    scans = []
    scan = ingest._scan
    monkeypatch.setattr(ingest, "_scan", lambda *a: scans.append(1) or scan(*a))
    distinct = [
        _record_line(traceroutes=[_traceroutes(hops=[{"ttl": 1, "addr": f"9.9.{i}.{k}"}])[0]
                                  for k in (1, 2, 3)])
        for i in range(40)
    ]
    lines = distinct + [_VALID] * 20
    records, _ = parse_measurements(io.StringIO("".join(f"{line}\n" for line in lines)))
    assert records == [_plain_outcome(line) for line in lines]
    # lines 1, 2, 16 and 32 are walked, three scans each; the repeated lines
    # are walked again from line 48, which scans one element and reuses it
    assert len(scans) == 13


def test_parse_measurements_checks_each_distinct_traceroute_once(monkeypatch):
    calls = []
    check = ingest._validate_traceroute
    monkeypatch.setattr(ingest, "_validate_traceroute", lambda *a: calls.append(1) or check(*a))
    # one check for three identical elements, none for the same text again
    records, _ = parse_measurements(io.StringIO(f"{_VALID}\n{_VALID}\n"))
    assert len(calls) == 1 and records[0] == records[1] == make_record()
    calls.clear()
    three = [json.loads(_OTHER)[0], json.loads(_TRIPLE)[0], _traceroutes(completed=False)[0]]
    parse_measurements(io.StringIO(_record_line(traceroutes=three)))
    assert len(calls) == 3


# A line whose traceroutes array has the text of the last decoded line's array
# gets that line's checked triple back, and its traceroutes are not checked
# again; each line must still give what json.loads and the checks alone give.
def _assert_each_plain(*lines: str) -> None:
    records, report = parse_measurements([f"{line}\n" for line in (*lines, _LAST_LINE)])
    outcomes = [_plain_outcome(line) for line in lines]
    assert records[:-1] == [each for each in outcomes if not isinstance(each, str)]
    assert report.skip_reasons == Counter(each for each in outcomes if isinstance(each, str))


def test_decoder_reuses_an_array_after_an_earlier_field_failed():
    other = json.loads(_OTHER)
    _assert_each_plain(
        _VALID,
        _record_line(record_id="r2", url="no-scheme"),
        _record_line(record_id="r3"),
        # an array first decoded on a line that fails before its traceroutes
        _record_line(record_id="r4", url="no-scheme", traceroutes=other),
        _record_line(record_id="r5", traceroutes=other),
    )


def test_decoder_reuses_an_array_whose_traceroute_failed():
    for bad in (_traceroutes(hops=[{"ttl": 0, "addr": "9.9.0.1"}]),
                [*json.loads(_TRIPLE)[:2], _traceroutes(completed=1)[0]]):
        _assert_each_plain(
            _VALID,
            _record_line(record_id="r2", traceroutes=bad),
            _record_line(record_id="r3", traceroutes=bad),
            _record_line(record_id="r4"),
        )


def test_decoder_reuses_an_array_json_loads_refused(monkeypatch):
    # near the recursion limit the walk decodes an array that json.loads
    # cannot; a json.loads that refuses this array's address stands in here
    loads = json.loads

    def refusing(text, *args, **kwargs):
        if "9.9.0.5" in text:
            raise RecursionError
        return loads(text, *args, **kwargs)

    monkeypatch.setattr(json, "loads", refusing)
    bad = _record_line(traceroutes=_traceroutes(hops=[{"ttl": 0, "addr": "9.9.0.5"}]))
    records, report = parse_measurements([f"{line}\n" for line in (_VALID, bad, bad, _LAST_LINE)])
    assert len(records) == 2 and report.skip_reasons == {"invalid json": 2}


def test_decoder_reuses_an_array_after_a_json_loads_line():
    # two NaNs in a line leave it to json.loads
    twin = json.dumps(json.loads(_mutated_line(
        lambda obj: obj["traceroutes"][2].update(completed=1)))["traceroutes"])
    _assert_each_plain(
        _VALID,
        _raw_line(before=[('"url"', "NaN")]),
        _record_line(record_id="r3"),
        # equal to the valid list under ==, but not of equal types
        _raw_line(before=[('"url"', "NaN")], traceroutes=twin),
        _record_line(record_id="r5"),
    )


def test_decoder_reuses_an_array_only_where_nan_stands_alone():
    other = json.loads(_OTHER)
    _assert_each_plain(
        _VALID,
        _raw_line(after=[('"traceroutes"', "0")]),
        _raw_line(after=[('"detected"', "NaN")]),
        _raw_line(before=[('"traceroutes"', _TRIPLE)], traceroutes=_OTHER),
        _record_line(record_id="r5"),
        # walked whole, but the line's traceroutes are another key's value
        _raw_line(traceroutes=_OTHER, after=[('"traceroutes"', "0")]),
        _record_line(record_id="r7", traceroutes=other),
    )


def test_decoder_repeated_array_is_neither_walked_nor_checked(monkeypatch):
    lines = [_record_line(record_id=f"r{i}") for i in range(10)]
    expected = [_plain_outcome(line) for line in lines]
    calls: Counter = Counter()

    def counted(name, call):
        return lambda *args: calls.update([name]) or call(*args)

    monkeypatch.setattr(ingest, "_scan", counted("scan", ingest._scan))
    monkeypatch.setattr(ingest, "_separator", counted("separator", ingest._separator))
    monkeypatch.setattr(ingest, "_validate_traceroute",
                        counted("check", ingest._validate_traceroute))
    records, _ = parse_measurements(io.StringIO("".join(f"{line}\n" for line in lines)))
    assert records == expected
    # the first line scans and checks one element text and reuses it twice;
    # the other nine reuse the whole array and its checked triple
    assert calls == {"scan": 1, "separator": 3, "check": 1}


def test_parse_measurements_null_traceroutes_before_any_valid_line():
    # no list has validated yet, so the skip for the last validated list
    # must not take a null for it
    null = _raw_line(traceroutes="null")
    assert _plain_outcome(null) == "invalid traceroutes"
    with pytest.raises(IngestError, match="no measurement records parsed"):
        parse_measurements(io.StringIO(f"{null}\n"))
    records, report = parse_measurements(io.StringIO(f"{null}\n{null}\n{_VALID}\n"))
    assert records == [make_record()]
    assert report.skip_reasons == {"invalid traceroutes": 2}


# The canonical layout simulate writes, json.dumps(obj, sort_keys=True), is
# read by two anchored patterns around the traceroutes array; each line below
# perturbs one field of such a line and must give what json.loads and the
# record checks alone give, after a canonical line with the same array or
# with none before it.
_CANONICAL = json.dumps(record_obj(make_record()), sort_keys=True)
_STRING_FIELDS = ["anomaly", "dst_ip", "record_id", "timestamp", "url"]
# escaped and control characters, DEL, non-ASCII, astral and quote
_IN_STRINGS = ['\\"', "\\\\", "\\/", "\\n", "\\u0041", "\\ud83d\\ude00", "\\", "\x00", "\t",
               "\x1f", "\x7f", "é", " ", "\U0001f600", '"']
_ASN_TEXTS = ["0", "01", "00", "0100", "-1", "1e3", "1.0", "4294967296", "4294967295", "1"]


@st.composite
def _perturbed_lines(draw) -> str:
    """A valid record in the canonical layout, with one field perturbed."""
    obj = {
        "anomaly": draw(st.sampled_from([anomaly.value for anomaly in AnomalyType])),
        "detected": draw(st.booleans()),
        "dst_ip": draw(st.sampled_from(["9.9.0.1", "10.0.0.1"])),
        "record_id": draw(st.sampled_from(["r1", "r\x7f", "\U0001f600"])
                          | st.text(min_size=1, max_size=3)),
        "timestamp": draw(st.sampled_from(["2016-05-02T12:00:00Z", "0999-12-31T23:59:59Z"])),
        "traceroutes": json.loads(draw(st.sampled_from([_TRIPLE, _OTHER]))),
        "url": draw(st.sampled_from(["http://example.com/", "https://é.x/\U0001f600"])),
        "vantage_asn": draw(st.integers(1, 2**32 - 1)),
    }
    line = json.dumps(obj, sort_keys=True, ensure_ascii=draw(st.booleans()))
    kind = draw(st.sampled_from(["escape", "insert", "asn", "detected", "whitespace",
                                 "duplicate", "trailing", "bom"]))
    if kind in ("escape", "insert"):
        key = draw(st.sampled_from(_STRING_FIELDS))
        at = line.index(f'"{key}": "') + len(key) + 5
        end = line.index('"', at)
        at = draw(st.integers(at, end))
        if kind == "insert":
            return line[:at] + draw(st.sampled_from(_IN_STRINGS)) + line[at:]
        if at == end:
            return line
        # one character as its escape, which decodes to the same string
        escape = json.dumps(line[at])[1:-1]
        escape = escape if escape.startswith("\\") else f"\\u{ord(line[at]):04x}"
        return line[:at] + escape + line[at + 1:]
    if kind == "asn":
        return line.replace(f'"vantage_asn": {obj["vantage_asn"]}',
                            f'"vantage_asn": {draw(st.sampled_from(_ASN_TEXTS))}')
    if kind == "detected":
        value = json.dumps(obj["detected"])
        return line.replace(f'"detected": {value}',
                            f'"detected": {draw(st.sampled_from([f"{value}ish", "1", "null"]))}')
    if kind == "whitespace":
        at = draw(st.integers(0, len(line)))
        return line[:at] + draw(st.sampled_from([" ", "\t", "\r", "\n", "\x0c"])) + line[at:]
    if kind == "duplicate":
        key = draw(st.sampled_from(sorted(obj)))
        value = draw(st.sampled_from([obj[key], "", "no-scheme", None, 7]))
        pair = f"{json.dumps(key)}: {json.dumps(value)}"
        return f"{{{pair}, {line[1:]}" if draw(st.booleans()) else f"{line[:-1]}, {pair}}}"
    if kind == "trailing":
        return line + draw(st.sampled_from(["x", " 1", "}", ",", " {}", "\x00", "\ufeff"]))
    return "\ufeff" + line


@settings(max_examples=300, deadline=None)
@given(line=_perturbed_lines())
@example(line=_CANONICAL)
@example(line=_CANONICAL.replace('"vantage_asn": 100', '"vantage_asn": 0100'))
@example(line=_CANONICAL + " x")
@example(line=_CANONICAL.replace('"r1"', '"r\\u0031"'))
def test_canonical_layout_reads_as_json_loads(line):
    expected = _plain_outcome(line)
    for before in ((), (_CANONICAL,)):
        records, report = parse_measurements([f"{each}\n" for each in (*before, line, _LAST_LINE)])
        assert records[: len(before)] == [make_record()] * len(before)
        if report.skipped:
            assert list(report.skip_reasons) == [expected], line
        else:
            assert records[len(before)] == expected, line


@pytest.mark.parametrize("anomalies", [[], ["--anomaly", "dns"]], ids=["shared", "unshared"])
def test_simulated_lines_take_the_canonical_layout_path(monkeypatch, tmp_path, anomalies):
    # a change to simulate's writer must not turn the pattern path off unseen
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["simulate", "--seed", "3", "--days", "2", "--n-ases", "10",
                     "--n-vantage", "2", "--n-urls", "2", "--noise-prob", "0.1",
                     "--nonresponsive-prob", "0.2", *anomalies, "--out", str(tmp_path)]) == 0
    text = (tmp_path / "measurements.jsonl").read_text(encoding="utf-8")
    table, _ = parse_pfx2as((tmp_path / "pfx2as.tsv").read_text(encoding="utf-8"))
    loads, decoded = [], json.loads
    monkeypatch.setattr(json, "loads", lambda *a, **kw: loads.append(a) or decoded(*a, **kw))
    records, report = parse_measurements(io.StringIO(text), table)
    monkeypatch.undo()
    assert loads == [] and report.skipped == 0
    seen = ingest._Seen(table)
    assert records == [ingest._validate_record(json.loads(line), seen)
                       for line in text.splitlines()]


# a record that survives path inference: its traceroutes, one with a
# non-responsive hop inside AS 200, all give the AS path 100 200 900
_FUZZ_BASE = record_obj(make_record(traceroutes=(
    make_traceroute("1.1.0.1", "2.2.0.1", "*", "2.2.0.2", "9.9.0.1"),
    make_traceroute("1.1.0.1", "2.2.0.1", "2.2.0.2", "9.9.0.1"),
    make_traceroute("1.1.0.1", "2.2.0.1", "*", "2.2.0.2", "9.9.0.1"),
)))
_FUZZ_PFX2AS = "1.1.0.0\t16\t100\n2.2.0.0\t16\t200\n9.9.0.0\t16\t900\n"


@settings(max_examples=100, deadline=None)
@given(path=st.sampled_from(list(value_paths(_FUZZ_BASE))), data=st.data())
def test_parse_measurements_memo_is_invisible(path, data):
    obj = json.loads(json.dumps(_FUZZ_BASE))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    values = NEAR_VALUES | JSON_VALUES
    twins = equal_twins(parent[path[-1]])
    parent[path[-1]] = data.draw(st.sampled_from(twins) | values if twins else values)
    valid, line = json.dumps(_FUZZ_BASE), json.dumps(obj)
    assert _outcome(line, after=(valid,)) == _outcome(line)

    with tempfile.TemporaryDirectory() as tmp:
        measurements = f"{tmp}/measurements.jsonl"
        with open(measurements, "w", encoding="utf-8") as f:
            f.write(f"{valid}\n{line}\n")
        with open(f"{tmp}/pfx2as.tsv", "w", encoding="utf-8") as f:
            f.write(_FUZZ_PFX2AS)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["localize", "--measurements", measurements,
                         "--pfx2as", f"{tmp}/pfx2as.tsv", "--out", f"{tmp}/out"])
    assert code in (0, 2), err.getvalue()
    assert "internal error" not in err.getvalue()


def test_parse_measurements_nothing_kept_is_fatal():
    with pytest.raises(IngestError, match="no measurement records parsed"):
        parse_measurements(io.StringIO("not json\n"))


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


def test_parse_reports_compare_by_value():
    def report(*reasons, kept=0, warn=None):
        r = ParseReport()
        r.kept = kept
        for reason in reasons:
            r.skip(reason)
        if warn:
            r.warn(warn)
        return r

    assert report("a", "b", kept=2) == report("a", "b", kept=2)
    assert report("a", kept=2) != report("a", kept=3)
    assert report("a") != report("b")
    assert report("a", warn="w") != report("a")
    assert ParseReport() != (0, 0, {}, {})
