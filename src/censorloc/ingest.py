"""Input parsing: measurement JSONL, prefix-to-AS table, AS metadata, windows.

Malformed entries are skipped and counted per reason; a parse is fatal only
when nothing usable remains. The accounting identity ``lines = kept + skipped``
holds for every parser here. ``parse_measurements`` is the only reader of
measurement JSON: it makes every check on a record, hop by hop, and builds
the ``Hop``, ``Traceroute`` and ``MeasurementRecord`` named tuples, which
check nothing themselves. Equal hops, traceroutes and traceroute triples are
built once per parse and shared between records. A record whose raw
traceroutes marshal to the same bytes as the last valid record's reuses its
triple unchecked: the records of one probe repeat its traceroutes.
"""
from __future__ import annotations

import csv
import io
import json
import marshal
import re
from dataclasses import dataclass, field
from datetime import date, datetime
from typing import Any, Iterable

from .model import (
    TRACEROUTES_PER_RECORD,
    AnomalyType,
    Hop,
    MeasurementRecord,
    TimeGranularity,
    Traceroute,
    parse_timestamp,
    validate_asn,
)


class IngestError(Exception):
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


@dataclass
class ParseReport:
    """Per-parser accounting: kept rows, skipped rows, and why."""

    kept: int = 0
    skipped: int = 0
    skip_reasons: dict[str, int] = field(default_factory=dict)
    warnings: dict[str, int] = field(default_factory=dict)

    def skip(self, reason: str) -> None:
        self.skipped += 1
        self.skip_reasons[reason] = self.skip_reasons.get(reason, 0) + 1

    def warn(self, reason: str) -> None:
        self.warnings[reason] = self.warnings.get(reason, 0) + 1


# ---------------------------------------------------------------------------
# IPv4 addresses


def parse_ipv4(text: str) -> int | None:
    """Dotted-quad IPv4 address to its integer value, or None if malformed.

    Accepts exactly what ``ipaddress.IPv4Address`` accepts from a string:
    four octets of one to three ASCII digits, no leading zeros, each at most
    255. ``int`` alone would also take ``_``, ``+``, whitespace and non-ASCII
    digits, so every octet is checked before it is converted.
    """
    parts = text.split(".")
    if len(parts) != 4:
        return None
    value = 0
    for part in parts:
        if not (part.isascii() and part.isdigit()) or len(part) > 3:
            return None
        if part[0] == "0" and len(part) > 1:
            return None
        octet = int(part)
        if octet > 255:
            return None
        value = value << 8 | octet
    return value


def prefix_mask(length: int) -> int:
    """Network mask of a /length IPv4 prefix as an integer."""
    return ~((1 << (32 - length)) - 1) & 0xFFFFFFFF


# ---------------------------------------------------------------------------
# prefix table


class PrefixTable:
    """Longest-prefix-match table from IPv4 prefixes to origin AS sets.

    One probe per distinct prefix length present in the table, longest first.
    ``mappings`` memoises the origin set ``aspath.map_ip`` finds per address
    string for the table's lifetime; the table never changes after
    construction.
    """

    def __init__(self, entries: Iterable[tuple[int, int, frozenset[int]]]):
        by_len: dict[int, dict[int, frozenset[int]]] = {}
        for network, prefix_len, origins in entries:
            by_len.setdefault(prefix_len, {})[network] = origins
        self._probes = [
            (prefix_mask(length), by_len[length]) for length in sorted(by_len, reverse=True)
        ]
        self.mappings: dict[str, frozenset[int]] = {}

    def lookup_int(self, addr: int) -> frozenset[int] | None:
        """Origin set of the most specific prefix covering a parsed address, or None."""
        for mask, networks in self._probes:
            origins = networks.get(addr & mask)
            if origins is not None:
                return origins
        return None


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
    for line in text.splitlines():
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
    reader = csv.reader(io.StringIO(text))
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


@dataclass
class _Seen:
    """What one measurement parse has already validated: address strings,
    every distinct (addr, ttl) hop as one shared ``Hop``, every distinct
    timestamp string as one shared ``datetime``, every distinct
    ``Traceroute`` and traceroute triple as one shared tuple, and the last
    valid record's raw traceroutes as ``marshal`` bytes with their triple.

    Only validated values are interned: every ttl is then an ``int`` that is
    not a ``bool`` and every completed flag a ``bool``, so no two unequal
    inputs meet as equal keys the way ``True == 1 == 1.0`` would. Nor do
    they as ``marshal`` keys: ``marshal.loads`` rebuilds exact types, so
    equal bytes are equal values of equal types in equal key order.
    """

    addrs: set[str] = field(default_factory=set)
    hops: dict[tuple[str, int], Hop] = field(default_factory=dict)
    stamps: dict[str, datetime] = field(default_factory=dict)
    probes: dict[tuple, tuple] = field(default_factory=dict)
    last_key: bytes | None = None
    last_triple: tuple[Traceroute, ...] = ()

    def valid_addr(self, addr: str) -> bool:
        if addr in self.addrs:
            return True
        if parse_ipv4(addr) is None:
            return False
        self.addrs.add(addr)
        return True

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
            elif seen.valid_addr(addr):
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


def _validate_record(obj: Any, seen: _Seen) -> MeasurementRecord:
    if not isinstance(obj, dict):
        raise ValueError("not a json object")
    if obj.keys() != _RECORD_KEYS:
        missing = _RECORD_KEYS - obj.keys()
        if missing:
            raise ValueError(f"missing key: {sorted(missing)[0]}")
        raise ValueError(f"unexpected key: {sorted(obj.keys() - _RECORD_KEYS)[0]}")
    if not isinstance(obj["record_id"], str) or not obj["record_id"]:
        raise ValueError("invalid record_id")
    validate_asn(obj["vantage_asn"], "vantage_asn")
    url = obj["url"]
    if not isinstance(url, str) or "://" not in url or url.startswith("://"):
        raise ValueError("invalid url")
    dst_ip = obj["dst_ip"]
    if not isinstance(dst_ip, str) or not seen.valid_addr(dst_ip):
        raise ValueError("invalid dst_ip")
    if not isinstance(obj["anomaly"], str):
        raise ValueError("unknown anomaly type")
    anomaly = AnomalyType.parse(obj["anomaly"])
    if not isinstance(obj["detected"], bool):
        raise ValueError("invalid detected")
    timestamp = seen.timestamp(obj["timestamp"])
    raw = obj["traceroutes"]
    if not isinstance(raw, list):
        raise ValueError("invalid traceroutes")
    if len(raw) != TRACEROUTES_PER_RECORD:
        raise ValueError("traceroute count != 3")
    try:
        key = marshal.dumps(raw)
    except ValueError:
        # nested too deeply to marshal: no key, so the checks name the fault
        key = None
    if key is not None and key == seen.last_key:
        traceroutes = seen.last_triple
    else:
        traceroutes = tuple(_validate_traceroute(t, seen) for t in raw)
        traceroutes = seen.probes.setdefault(traceroutes, traceroutes)
        seen.last_key, seen.last_triple = key, traceroutes
    return MeasurementRecord(
        record_id=obj["record_id"],
        vantage_asn=obj["vantage_asn"],
        url=url,
        dst_ip=dst_ip,
        anomaly=anomaly,
        detected=obj["detected"],
        timestamp=timestamp,
        traceroutes=traceroutes,
    )


def parse_measurements(lines: Iterable[str]) -> tuple[list[MeasurementRecord], ParseReport]:
    """Parse measurement JSONL; one object per line, schema-checked strictly.

    ``lines`` yields one line at a time, as a file opened with
    ``newline="\n"`` or an ``io.StringIO`` does: lines end at LF only, and
    a CR before it is JSON whitespace. So a record may hold U+2028 and the
    other characters ``str.splitlines`` would break at. Zero surviving
    records is fatal.
    """
    report = ParseReport()
    records: list[MeasurementRecord] = []
    seen = _Seen()
    for line in lines:
        if not line.strip():
            report.skip("blank line")
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError):
            # a JSONDecodeError, an integer over sys.get_int_max_str_digits(),
            # or nesting deeper than the decoder recurses
            report.skip("invalid json")
            continue
        try:
            record = _validate_record(obj, seen)
        except ValueError as exc:
            report.skip(str(exc))
            continue
        records.append(record)
        report.kept += 1
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
