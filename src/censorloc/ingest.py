"""Input parsing: measurement JSONL, prefix-to-AS table, AS metadata, windows.

Malformed entries are skipped and counted per reason; a parse is fatal only
when nothing usable remains. The accounting identity ``lines = kept + skipped``
holds for every parser here. ``parse_measurements`` is the only reader of
measurement JSON: it makes every check on a record, hop by hop, and builds
the ``Hop``, ``Traceroute`` and ``MeasurementRecord`` values, which check
nothing themselves.
"""
from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import TYPE_CHECKING, Any, Iterable

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

if TYPE_CHECKING:
    from .aspath import HopMapping


class IngestError(Exception):
    """Raised when an input is unusable as a whole (not a per-line problem)."""


def window_id(ts: datetime, granularity: TimeGranularity) -> str:
    """Name the time window a UTC timestamp falls into.

    Weeks are ISO-8601, so the window's year can differ from the calendar
    year near January 1st (2016-01-01 falls into "2015-W53").
    """
    ts = ts.astimezone(timezone.utc)
    if granularity is TimeGranularity.DAY:
        return f"{ts.year:04d}-{ts.month:02d}-{ts.day:02d}"
    if granularity is TimeGranularity.WEEK:
        iso_year, iso_week, _ = ts.isocalendar()
        return f"{iso_year:04d}-W{iso_week:02d}"
    if granularity is TimeGranularity.MONTH:
        return f"{ts.year:04d}-{ts.month:02d}"
    return f"{ts.year:04d}"


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
    ``mappings`` memoises ``aspath.map_ip`` per address string for the
    table's lifetime; the table never changes after construction.
    """

    def __init__(self, entries: Iterable[tuple[int, int, frozenset[int]]]):
        by_len: dict[int, dict[int, frozenset[int]]] = {}
        count = 0
        for network, prefix_len, origins in entries:
            by_len.setdefault(prefix_len, {})[network] = origins
            count += 1
        self._probes = [
            (prefix_mask(length), by_len[length]) for length in sorted(by_len, reverse=True)
        ]
        self._size = count
        self.mappings: dict[str, HopMapping] = {}

    def __len__(self) -> int:
        return self._size

    def lookup(self, ip: str) -> frozenset[int] | None:
        """Origin set of the most specific covering prefix, or None."""
        addr = parse_ipv4(ip)
        return None if addr is None else self.lookup_int(addr)

    def lookup_int(self, addr: int) -> frozenset[int] | None:
        """``lookup`` for an address already parsed by ``parse_ipv4``."""
        for mask, networks in self._probes:
            origins = networks.get(addr & mask)
            if origins is not None:
                return origins
        return None


def _parse_origin_spec(spec: str) -> frozenset[int]:
    """Origin field forms: "100", multi-origin set "100_200", alternatives "100,200"."""
    origins: set[int] = set()
    for alt in spec.split(","):
        for part in alt.split("_"):
            part = part.strip()
            if not part or not part.isdigit():
                raise ValueError(f"invalid origin: {spec!r}")
            origins.add(validate_asn(int(part), "origin asn"))
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
        if not len_raw.strip().isdigit():
            report.skip("invalid prefix length")
            continue
        prefix_len = int(len_raw)
        if prefix_len > 32:
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


@dataclass(frozen=True)
class AsInfo:
    asn: int
    country: str
    name: str


class AsRegistry:
    """ASN -> (country, organization name) lookups for the leakage analysis."""

    def __init__(self, infos: dict[int, AsInfo]):
        self._infos = infos

    def __len__(self) -> int:
        return len(self._infos)

    def __contains__(self, asn: int) -> bool:
        return asn in self._infos

    def country(self, asn: int) -> str | None:
        info = self._infos.get(asn)
        return info.country if info else None

    def name(self, asn: int) -> str | None:
        info = self._infos.get(asn)
        return info.name if info else None


def parse_as_metadata(text: str) -> tuple[AsRegistry, ParseReport]:
    """Parse "asn,country,name" CSV. Missing header is fatal; bad rows skip."""
    report = ParseReport()
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise IngestError("AS metadata file is empty") from None
    if [h.strip() for h in header] != _AS_META_HEADER:
        raise IngestError(
            f"AS metadata header must be {','.join(_AS_META_HEADER)!r}, got {header!r}"
        )
    infos: dict[int, AsInfo] = {}
    for row in reader:
        if not row or all(not f.strip() for f in row):
            report.skip("blank line")
            continue
        if len(row) != 3:
            report.skip("malformed row")
            continue
        asn_raw, country, name = row[0].strip(), row[1].strip(), row[2]
        if not asn_raw.isdigit():
            report.skip("invalid asn")
            continue
        asn = int(asn_raw)
        try:
            validate_asn(asn)
        except ValueError:
            report.skip("invalid asn")
            continue
        if not _COUNTRY_RE.match(country):
            report.skip("country code not alpha-2")
            continue
        if asn in infos:
            report.warn("duplicate asn overridden")
        infos[asn] = AsInfo(asn=asn, country=country, name=name)
        report.kept += 1
    if not infos:
        raise IngestError("AS metadata is empty after parsing")
    return AsRegistry(infos), report


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
    every distinct (addr, ttl) hop as one shared ``Hop``, and every distinct
    timestamp string as one shared ``datetime``."""

    addrs: set[str] = field(default_factory=set)
    hops: dict[tuple[str, int], Hop] = field(default_factory=dict)
    stamps: dict[str, datetime] = field(default_factory=dict)

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


def _validate_hop(obj: Any, seen: _Seen) -> Hop:
    if not isinstance(obj, dict) or obj.keys() != _HOP_KEYS:
        raise ValueError("invalid hop")
    ttl = obj["ttl"]
    if isinstance(ttl, bool) or not isinstance(ttl, int) or ttl < 1:
        raise ValueError("invalid hop ttl")
    addr = obj["addr"]
    if not isinstance(addr, str):
        raise ValueError("invalid hop addr")
    hop = seen.hops.get((addr, ttl))
    if hop is None:
        if addr == "*":
            hop = Hop(addr=None, ttl_index=ttl)
        elif seen.valid_addr(addr):
            hop = Hop(addr=addr, ttl_index=ttl)
        else:
            raise ValueError("invalid hop addr")
        seen.hops[addr, ttl] = hop
    return hop


def _validate_traceroute(obj: Any, seen: _Seen) -> Traceroute:
    if not isinstance(obj, dict) or obj.keys() != _TRACEROUTE_KEYS:
        raise ValueError("invalid traceroute")
    if not isinstance(obj["completed"], bool):
        raise ValueError("invalid traceroute completed flag")
    if not isinstance(obj["hops"], list):
        raise ValueError("invalid traceroute hops")
    hops = tuple(_validate_hop(h, seen) for h in obj["hops"])
    last = 0
    for hop in hops:
        if hop.ttl_index <= last:
            raise ValueError("hop ttls not strictly increasing")
        last = hop.ttl_index
    if obj["completed"] and not hops:
        raise ValueError("completed traceroute without hops")
    return Traceroute(hops=hops, completed=obj["completed"])


def _validate_record(obj: Any, seen: _Seen) -> MeasurementRecord:
    if not isinstance(obj, dict):
        raise ValueError("not a json object")
    missing = _RECORD_KEYS - set(obj)
    if missing:
        raise ValueError(f"missing key: {sorted(missing)[0]}")
    extra = set(obj) - _RECORD_KEYS
    if extra:
        raise ValueError(f"unexpected key: {sorted(extra)[0]}")
    if not isinstance(obj["record_id"], str) or not obj["record_id"]:
        raise ValueError("invalid record_id")
    validate_asn(obj["vantage_asn"], "vantage_asn")
    url = obj["url"]
    if not isinstance(url, str) or "://" not in url or url.startswith("://"):
        raise ValueError("invalid url")
    dst_ip = obj["dst_ip"]
    if not isinstance(dst_ip, str):
        raise ValueError("invalid dst_ip")
    if not seen.valid_addr(dst_ip):
        raise ValueError("invalid dst_ip")
    if not isinstance(obj["anomaly"], str):
        raise ValueError("unknown anomaly type")
    anomaly = AnomalyType.parse(obj["anomaly"])
    if not isinstance(obj["detected"], bool):
        raise ValueError("invalid detected")
    timestamp = seen.timestamp(obj["timestamp"])
    if not isinstance(obj["traceroutes"], list):
        raise ValueError("invalid traceroutes")
    if len(obj["traceroutes"]) != TRACEROUTES_PER_RECORD:
        raise ValueError("traceroute count != 3")
    traceroutes = tuple(_validate_traceroute(t, seen) for t in obj["traceroutes"])
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


def parse_measurements(
    text: str,
    period: tuple[datetime, datetime] | None = None,
) -> tuple[list[MeasurementRecord], ParseReport]:
    """Parse measurement JSONL; one object per line, schema-checked strictly.

    Lines end at LF only; a CR before it is JSON whitespace. So a record may
    hold U+2028 and the other characters ``str.splitlines`` would break at,
    and a final LF does not start another line. When ``period``
    is given, records timestamped outside [start, end] are counted as skips.
    Zero surviving records is fatal.
    """
    report = ParseReport()
    records: list[MeasurementRecord] = []
    seen = _Seen()
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    for line in lines:
        if not line.strip():
            report.skip("blank line")
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            report.skip("invalid json")
            continue
        try:
            record = _validate_record(obj, seen)
        except ValueError as exc:
            report.skip(str(exc))
            continue
        if period is not None and not (period[0] <= record.timestamp <= period[1]):
            report.skip("timestamp outside analysis period")
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
