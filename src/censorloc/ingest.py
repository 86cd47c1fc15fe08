"""Input parsing: measurement JSONL, prefix-to-AS table, AS metadata, windows.

Malformed entries are skipped and counted per reason; a parse is fatal only
when nothing usable remains. The accounting identity ``lines = kept + skipped``
holds for every parser here (CSV rows for the AS metadata, where a quoted
field may span lines). ``parse_measurements`` is the only reader of
measurement JSON: it makes every check on a record, hop by hop, and builds
the ``Hop``, ``Traceroute`` and ``MeasurementRecord`` named tuples, which
check nothing themselves. Equal hops, traceroutes and traceroute triples are
built once per parse and shared between records; ``_decode`` decodes and
checks each distinct traceroute text of a line and the line before once, and
hands back the last line's checked triple when the array text repeats. A
line in the canonical layout ``simulate`` writes (sorted keys, ``json.dumps``'s
default separators, strings without escapes) has its other fields read by
two anchored patterns, one up to the traceroutes array and one from its end
to the end of the line, and no ``json.loads`` runs; any other line is decoded
as before. Either way a skipped line gets the plain decoder's reason.
Addresses are parsed by libc's ``inet_pton`` and checked in the prefix
table's memo, which inference reuses.
"""
from __future__ import annotations

import csv
import io
import json
import re
from _socket import AF_INET, inet_pton
from datetime import date, datetime
from json.decoder import WHITESPACE
from typing import Any, Iterable

from .model import (
    TRACEROUTES_PER_RECORD,
    AnomalyType,
    Hop,
    InputError,
    MeasurementRecord,
    TimeGranularity,
    Traceroute,
    parse_timestamp,
    validate_asn,
)


class IngestError(InputError):
    """Raised when an input is unusable as a whole (not a per-line problem)."""


def window_id(day: date, granularity: TimeGranularity) -> str:
    """Name the time window a UTC date (or a UTC timestamp's date) falls into.

    Weeks are ISO-8601, so the window's year can differ from the calendar
    year near January 1st (2016-01-01 falls into "2015-W53").
    """
    if granularity is TimeGranularity.DAY:
        return f"{day.year:04d}-{day.month:02d}-{day.day:02d}"
    if granularity is TimeGranularity.WEEK:
        iso_year, iso_week, _ = day.isocalendar()
        return f"{iso_year:04d}-W{iso_week:02d}"
    if granularity is TimeGranularity.MONTH:
        return f"{day.year:04d}-{day.month:02d}"
    return f"{day.year:04d}"


class ParseReport:
    """Per-parser accounting: kept rows, skipped rows, and why."""

    def __init__(self) -> None:
        self.kept = 0
        self.skipped = 0
        self.skip_reasons: dict[str, int] = {}
        self.warnings: dict[str, int] = {}

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ParseReport) and vars(self) == vars(other)

    def skip(self, reason: str) -> None:
        self.skipped += 1
        self.skip_reasons[reason] = self.skip_reasons.get(reason, 0) + 1

    def warn(self, reason: str) -> None:
        self.warnings[reason] = self.warnings.get(reason, 0) + 1


# ---------------------------------------------------------------------------
# IPv4 addresses


def parse_ipv4(text: str) -> int | None:
    """Dotted-quad IPv4 address to its integer value, or None if malformed.

    Meant to accept exactly what ``ipaddress.IPv4Address`` accepts from a
    string: four octets of one to three ASCII digits, no leading zeros, each
    at most 255. The checks are the platform's ``inet_pton``, called through
    CPython's C module ``_socket`` (``socket`` costs several times as much to
    import). glibc's ``inet_pton`` makes exactly these checks; other libcs
    are unchecked, and ``test_parse_ipv4_agrees_with_ipaddress`` guards the
    equivalence wherever the tests run. It raises ``OSError`` on a malformed
    address, and ``ValueError`` where the string cannot become a C string: an
    embedded NUL, or a lone surrogate that UTF-8 cannot encode.
    """
    try:
        return int.from_bytes(inet_pton(AF_INET, text), "big")
    except (OSError, ValueError):
        return None


def prefix_mask(length: int) -> int:
    """Network mask of a /length IPv4 prefix as an integer."""
    return ~((1 << (32 - length)) - 1) & 0xFFFFFFFF


# ---------------------------------------------------------------------------
# prefix table


# RFC1918, loopback and link-local space never identify a transit AS
_EXCLUDED_PROBES = [
    (prefix_mask(length), {parse_ipv4(network): frozenset() for network in networks})
    for length, networks in ((8, ("10.0.0.0", "127.0.0.0")), (12, ("172.16.0.0",)),
                             (16, ("192.168.0.0", "169.254.0.0")))
]


class PrefixTable:
    """Longest-prefix-match table from IPv4 prefixes to origin AS sets.

    One probe per distinct prefix length present in the table, longest first,
    after the probes of reserved space; a lookup tries them in a plain loop
    and stops at the first hit. ``mappings`` memoises ``origins`` per address
    string for the table's lifetime, so ingest's address check and
    ``aspath.map_ip`` parse each distinct string once between them.
    """

    def __init__(self, entries: Iterable[tuple[int, int, frozenset[int]]]):
        by_len: dict[int, dict[int, frozenset[int]]] = {}
        for network, prefix_len, origins in entries:
            by_len.setdefault(prefix_len, {})[network] = origins
        self._probes = _EXCLUDED_PROBES + [
            (prefix_mask(length), by_len[length]) for length in sorted(by_len, reverse=True)
        ]
        self.mappings: dict[str, frozenset[int]] = {}

    def origins(self, ip: str) -> frozenset[int] | None:
        """Origin set of an address string's most specific prefix: empty for
        reserved, private or unrouted space, None for a non-IPv4 string."""
        origins = self.mappings.get(ip)
        if origins is None:
            addr = parse_ipv4(ip)
            if addr is None:
                return None
            for mask, nets in self._probes:
                origins = nets.get(addr & mask)
                if origins is not None:
                    break
            else:
                origins = frozenset()
            self.mappings[ip] = origins
        return origins


def _ascii_int(text: str) -> int | None:
    """The value of a run of ASCII digits, or None for anything else.

    ``int`` alone would also take ``_``, ``+``, whitespace and non-ASCII
    digits, and it raises on more digits than its limit (4,300 by default).
    Leading zeros are allowed: "0000032" is 32.
    """
    if not (text.isascii() and text.isdigit()):
        return None
    try:
        return int(text)
    except ValueError:
        return None


def _parse_origin_spec(spec: str) -> frozenset[int]:
    """Origin field forms: "100", multi-origin set "100_200", alternatives "100,200"."""
    origins: set[int] = set()
    for alt in spec.split(","):
        for part in alt.split("_"):
            origins.add(validate_asn(_ascii_int(part.strip()), "origin asn"))
    if not origins:
        raise ValueError(f"invalid origin: {spec!r}")
    return frozenset(origins)


def parse_pfx2as(text: str) -> tuple[PrefixTable, ParseReport]:
    """Parse tab-separated "prefix<TAB>length<TAB>origin" lines into a table.

    Later duplicate (prefix, length) lines override earlier ones; an empty
    resulting table is fatal.
    """
    report = ParseReport()
    table: dict[tuple[int, int], frozenset[int]] = {}
    # lines end at LF only: str.splitlines would also break a line at U+0085,
    # U+2028 and other separators; a CR before the LF is stripped with a field
    for line in text.removesuffix("\n").split("\n"):
        if not line.strip():
            report.skip("blank line")
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            report.skip("malformed line")
            continue
        prefix_raw, len_raw, origin_raw = fields
        prefix_len = _ascii_int(len_raw.strip())
        if prefix_len is None or prefix_len > 32:
            report.skip("invalid prefix length")
            continue
        addr = parse_ipv4(prefix_raw.strip())
        if addr is None:
            report.skip("invalid prefix address")
            continue
        try:
            origins = _parse_origin_spec(origin_raw.strip())
        except ValueError:
            report.skip("invalid origin")
            continue
        key = (addr & prefix_mask(prefix_len), prefix_len)
        if key in table:
            report.warn("duplicate prefix overridden")
        table[key] = origins
        report.kept += 1
    if not table:
        raise IngestError("prefix table is empty after parsing")
    entries = ((net, length, origins) for (net, length), origins in table.items())
    return PrefixTable(entries), report


# ---------------------------------------------------------------------------
# AS metadata

_COUNTRY_RE = re.compile(r"^[A-Z]{2}$")
_AS_META_HEADER = ["asn", "country", "name"]


def parse_as_metadata(text: str) -> tuple[dict[int, str], ParseReport]:
    """Parse "asn,country,name" CSV into ASN -> country. Missing header is
    fatal; bad rows skip."""
    report = ParseReport()
    # csv takes its text untranslated: a quoted field may hold a line end
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise IngestError("AS metadata file is empty") from None
    except csv.Error as exc:
        raise IngestError(f"AS metadata header is malformed: {exc}") from None
    if [h.strip() for h in header] != _AS_META_HEADER:
        raise IngestError(
            f"AS metadata header must be {','.join(_AS_META_HEADER)!r}, got {header!r}"
        )
    countries: dict[int, str] = {}
    while True:
        try:
            row = next(reader, None)
        except csv.Error:
            # a field over csv.field_size_limit(); the reader resumes at the next row
            report.skip("malformed row")
            continue
        if row is None:
            break
        if not row or all(not f.strip() for f in row):
            report.skip("blank line")
            continue
        if len(row) != 3:
            report.skip("malformed row")
            continue
        country = row[1].strip()
        try:
            asn = validate_asn(_ascii_int(row[0].strip()))
        except ValueError:
            report.skip("invalid asn")
            continue
        if not _COUNTRY_RE.match(country):
            report.skip("country code not alpha-2")
            continue
        if asn in countries:
            report.warn("duplicate asn overridden")
        countries[asn] = country
        report.kept += 1
    if not countries:
        raise IngestError("AS metadata is empty after parsing")
    return countries, report


# ---------------------------------------------------------------------------
# measurements

_RECORD_KEYS = {
    "record_id",
    "vantage_asn",
    "url",
    "dst_ip",
    "anomaly",
    "detected",
    "timestamp",
    "traceroutes",
}
_TRACEROUTE_KEYS = {"completed", "hops"}
_HOP_KEYS = {"ttl", "addr"}


class _Seen:
    """What one measurement parse has already validated: addresses in the
    prefix table's memo, every distinct (addr, ttl) hop as one shared ``Hop``,
    every distinct timestamp string as one shared ``datetime``, every distinct
    ``Traceroute`` and triple as one shared tuple, the last decoded line's
    traceroute element texts each with the ``Traceroute`` it checked to, that
    line's whole array text with its triple, and how many lines in a row have
    reused no element.

    Only validated values are interned: every ttl is then an ``int`` that is
    not a ``bool`` and every completed flag a ``bool``, so no two unequal
    inputs meet as equal keys the way ``True == 1 == 1.0`` would. No decoded
    JSON value is kept, so nothing is matched by identity.
    """

    def __init__(self, table: PrefixTable) -> None:
        self.table = table
        self.hops: dict[tuple[str, int], Hop] = {}
        self.stamps: dict[str, datetime] = {}
        self.probes: dict[tuple, tuple] = {}
        self.elements: list[tuple[str, Traceroute]] = []
        self.array = ""
        self.triple: tuple[Traceroute, ...] = ()
        self.idle = 0
        # compiled on first use, not at import; re caches them between parses
        self.head = re.compile(_HEAD).match
        self.tail = re.compile(_TAIL).match

    def timestamp(self, raw: Any) -> datetime:
        # a non-string raw is unhashable or not a stamp; parse_timestamp
        # names it in the error
        if not isinstance(raw, str):
            return parse_timestamp(raw)
        stamp = self.stamps.get(raw)
        if stamp is None:
            stamp = self.stamps[raw] = parse_timestamp(raw)
        return stamp


def _validate_traceroute(obj: Any, seen: _Seen) -> Traceroute:
    # exact type tests match isinstance on JSON values, and a bool is no int
    if type(obj) is not dict or obj.keys() != _TRACEROUTE_KEYS:
        raise ValueError("invalid traceroute")
    completed, raw_hops = obj["completed"], obj["hops"]
    if type(completed) is not bool:
        raise ValueError("invalid traceroute completed flag")
    if type(raw_hops) is not list:
        raise ValueError("invalid traceroute hops")
    hops = []
    last, increasing = 0, True
    for raw in raw_hops:
        if type(raw) is not dict or raw.keys() != _HOP_KEYS:
            raise ValueError("invalid hop")
        ttl, addr = raw["ttl"], raw["addr"]
        if type(ttl) is not int or ttl < 1:
            raise ValueError("invalid hop ttl")
        if type(addr) is not str:
            raise ValueError("invalid hop addr")
        hop = seen.hops.get((addr, ttl))
        if hop is None:
            if addr == "*":
                hop = Hop(None, ttl)
            elif seen.table.origins(addr) is not None:
                hop = Hop(addr, ttl)
            else:
                raise ValueError("invalid hop addr")
            seen.hops[addr, ttl] = hop
        hops.append(hop)
        # every hop's own checks come before the ordering check
        increasing = increasing and ttl > last
        last = ttl
    if not increasing:
        raise ValueError("hop ttls not strictly increasing")
    if completed and not hops:
        raise ValueError("completed traceroute without hops")
    traceroute = Traceroute(tuple(hops), completed)
    return seen.probes.setdefault(traceroute, traceroute)


def _validate_record(obj: Any, seen: _Seen,
                     triple: tuple[Traceroute, ...] | None = None) -> MeasurementRecord:
    """The record ``obj`` holds; ``triple`` is its traceroutes as ``_decode``
    already checked them, and without it ``_record`` checks the list."""
    if not isinstance(obj, dict):
        raise ValueError("not a json object")
    if obj.keys() != _RECORD_KEYS:
        missing = _RECORD_KEYS - obj.keys()
        if missing:
            raise ValueError(f"missing key: {sorted(missing)[0]}")
        raise ValueError(f"unexpected key: {sorted(obj.keys() - _RECORD_KEYS)[0]}")
    return _record(seen, obj["record_id"], obj["vantage_asn"], obj["url"], obj["dst_ip"],
                   obj["anomaly"], obj["detected"], obj["timestamp"],
                   obj["traceroutes"] if triple is None else triple)


def _record(seen: _Seen, record_id: Any, vantage_asn: Any, url: Any, dst_ip: Any,
            anomaly: Any, detected: Any, timestamp: Any, traceroutes: Any) -> MeasurementRecord:
    """The record of these field values, checked in this order. JSON decodes
    to no tuple, so a tuple ``traceroutes`` is a triple ``_decode`` checked,
    and any other value is a decoded list, checked here."""
    if not isinstance(record_id, str) or not record_id:
        raise ValueError("invalid record_id")
    validate_asn(vantage_asn, "vantage_asn")
    if not isinstance(url, str) or "://" not in url or url.startswith("://"):
        raise ValueError("invalid url")
    if not isinstance(dst_ip, str) or seen.table.origins(dst_ip) is None:
        raise ValueError("invalid dst_ip")
    if not isinstance(anomaly, str):
        raise ValueError("unknown anomaly type")
    anomaly = AnomalyType.parse(anomaly)
    if not isinstance(detected, bool):
        raise ValueError("invalid detected")
    timestamp = seen.timestamp(timestamp)
    if type(traceroutes) is not tuple:
        if not isinstance(traceroutes, list):
            raise ValueError("invalid traceroutes")
        if len(traceroutes) != TRACEROUTES_PER_RECORD:
            raise ValueError("traceroute count != 3")
        triple = tuple([_validate_traceroute(each, seen) for each in traceroutes])
        traceroutes = seen.probes.setdefault(triple, triple)
    return MeasurementRecord(record_id, vantage_asn, url, dst_ip, anomaly, detected, timestamp,
                             traceroutes)


_scan = json.JSONDecoder().scan_once
# after an array element: JSON whitespace, then the array's end or a comma
_separator = re.compile(r"[ \t\n\r]*(?:(\])|,[ \t\n\r]*)").match
# The layout simulate writes, json.dumps(record, sort_keys=True): the fields
# before the traceroutes array, and after it to the end of the line. A string
# without escapes or control characters decodes to the text between its
# quotes; an ASN is a JSON integer with no sign, fraction or leading zero.
_STRING = r'"([^"\\\x00-\x1f]*)"'
_HEAD = (rf'\{{"anomaly": {_STRING}, "detected": (true|false), "dst_ip": {_STRING}, '
         rf'"record_id": {_STRING}, "timestamp": {_STRING}, "traceroutes": (?=\[)')
_TAIL = rf', "url": {_STRING}, "vantage_asn": ([1-9][0-9]{{0,9}})\}}[ \t\n\r]*\Z'


def _decode(line: str, seen: _Seen) -> MeasurementRecord | None:
    """The record on ``line``, decoding and checking each distinct traceroute
    text once, or None where this shortcut does not apply or an element fails
    its checks; a ValueError names a field that failed its check.

    When the ``"traceroutes"`` array at ``start`` has the text of the last
    decoded line's array, that line's triple is handed back. Otherwise the
    array is walked with the C decoder's array grammar; an element text that
    begins with ``{`` and equals one decoded in this line or the last
    decoded line reuses that element's ``Traceroute``, and any other is
    decoded and checked.

    A line in the canonical layout, which ``seen.head`` matches up to the
    array and ``seen.tail`` from its end, has its other fields read from the
    two matches. They admit only text that ``json.loads`` decodes to the same
    values: each key once, strings it copies verbatim, ``true`` or ``false``,
    an integer it reads as ``int`` does, and after the closing brace nothing
    but JSON whitespace. On any other line the rest is decoded as ``short``, the
    line with the array replaced by ``NaN``, and kept only if ``NaN`` occurs
    there once, at ``start``, and is the top-level ``"traceroutes"`` value.
    That is sound: (i) only the ``NaN`` literal decodes to a float NaN, so
    the value that survives duplicate keys is the token at ``start``; (ii)
    ``line`` and ``short`` share the text before ``start``, so the decoder
    reaches it in the same state in both, and in ``line`` decodes there the
    array the walk parsed; (iii) text that begins with ``{`` or ``[`` is
    self-delimiting, so equal text decodes to an equal value of equal types
    in equal key order, which passes the same checks, and a whole array text
    walks as it walked before.
    """
    head = seen.head(line)
    start = head.end() if head else line.find("[", line.find('"traceroutes"'))
    if start < 0:
        return None
    try:
        if seen.array and line.startswith(seen.array, start):
            seen.idle = 0
            walked, triple = seen.elements, seen.triple
            idx = start + len(seen.array)
        else:
            walked = []
            idx = WHITESPACE.match(line, start + 1).end()
            while True:
                if len(walked) == TRACEROUTES_PER_RECORD or not line.startswith("{", idx):
                    return None
                for entry in walked + seen.elements:
                    if line.startswith(entry[0], idx):
                        seen.idle = 0
                        break
                else:
                    value, end = _scan(line, idx)
                    entry = (line[idx:end], _validate_traceroute(value, seen))
                walked.append(entry)
                separator = _separator(line, idx + len(entry[0]))
                if separator is None:
                    return None
                idx = separator.end()
                if separator.group(1):
                    break
            if len(walked) != TRACEROUTES_PER_RECORD:
                return None
            triple = tuple([entry[1] for entry in walked])
            triple = seen.probes.setdefault(triple, triple)
    except (ValueError, RecursionError, StopIteration):
        return None
    tail = seen.tail(line, idx) if head else None
    if tail is None:
        obj = _short(line, start, idx)
        if obj is None:
            return None
    seen.elements, seen.array, seen.triple = walked, line[start:idx], triple
    if tail is None:
        return _validate_record(obj, seen, triple)
    anomaly, detected, dst_ip, record_id, timestamp = head.groups()
    url, vantage_asn = tail.groups()
    return _record(seen, record_id, int(vantage_asn), url, dst_ip, anomaly,
                   detected == "true", timestamp, triple)


def _short(line: str, start: int, idx: int) -> dict | None:
    """``line`` decoded with its array at ``start:idx`` replaced by ``NaN``,
    or None unless that ``NaN`` is the one top-level ``"traceroutes"`` value."""
    short = line[:start] + "NaN" + line[idx:]
    if short.find("NaN") != start or short.find("NaN", start + 1) >= 0:
        return None
    try:
        obj = json.loads(short)
    except (ValueError, RecursionError):
        return None
    nan = obj.get("traceroutes") if type(obj) is dict else None
    return obj if type(nan) is float and nan != nan else None


def _parse_line(line: str, seen: _Seen) -> MeasurementRecord:
    """The record on one line; a ValueError names the skip reason."""
    if not line.strip():
        raise ValueError("blank line")
    # where nothing repeats the walk only costs: after two lines in a row that
    # reused nothing, every 16th line is walked until one reuses again
    seen.idle += 1
    if seen.idle < 3 or seen.idle % 16 == 0:
        try:
            record = _decode(line, seen)
        except ValueError:
            # a field failed its check: decoded whole below, the line gets the
            # plain decoder's reason (near the recursion limit the walk can
            # decode what json.loads cannot)
            record = None
        if record is not None:
            return record
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError):
        # bad JSON, an int over sys.get_int_max_str_digits(), or nesting too deep
        raise ValueError("invalid json") from None
    return _validate_record(obj, seen)


def parse_measurements(
    lines: Iterable[str], table: PrefixTable | None = None
) -> tuple[list[MeasurementRecord], ParseReport]:
    """Parse measurement JSONL; one object per line, schema-checked strictly.

    ``lines`` yields one line at a time, as a file opened with
    ``newline="\n"`` or an ``io.StringIO`` does: lines end at LF only, and
    a CR before it is JSON whitespace. So a record may hold U+2028 and the
    other characters ``str.splitlines`` would break at. Addresses are checked
    through ``table``'s memo, so path inference parses none again. Zero
    surviving records is fatal.
    """
    report = ParseReport()
    records: list[MeasurementRecord] = []
    seen = _Seen(PrefixTable(()) if table is None else table)
    for line in lines:
        try:
            records.append(_parse_line(line, seen))
        except ValueError as exc:
            report.skip(str(exc))
    report.kept = len(records)
    if not records:
        raise IngestError("no measurement records parsed")
    return records, report


def ingest_summary_obj(report: ParseReport) -> dict[str, Any]:
    """The JSON body written as ingest_summary.json."""
    return {
        "records_ok": report.kept,
        "records_skipped": report.skipped,
        "skip_reasons": dict(sorted(report.skip_reasons.items())),
    }
