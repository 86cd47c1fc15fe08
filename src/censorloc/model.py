"""Domain types shared by every stage of the censorship-localization pipeline.

All types here are immutable values: two instances with equal fields compare
equal, and each type with a ``from_json_obj`` round-trips losslessly through
``to_json_obj`` / ``from_json_obj``. ``Hop``, ``Traceroute`` and
``MeasurementRecord`` have neither a reader nor checks of their own:
``ingest.parse_measurements`` validates measurement JSON and builds them, and
their ``to_json_obj`` writes the form it reads.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timezone
from enum import Enum
from typing import Any

MIN_ASN = 1
MAX_ASN = 2**32 - 1

TIMESTAMP_FORMAT = "%Y-%m-%dT%H:%M:%SZ"

NON_RESPONSIVE = "*"


class AnomalyType(str, Enum):
    """Categories of end-to-end interference a measurement can report."""

    DNS = "dns"
    """Tampered or poisoned DNS answer."""

    SEQNO = "seqno"
    """TCP sequence-number discontinuity consistent with packet injection."""

    TTL = "ttl"
    """Unexpected IP TTL on a reply, indicating an on-path injector."""

    RESET = "reset"
    """Connection torn down by an injected TCP RST."""

    BLOCKPAGE = "blockpage"
    """HTTP response body replaced with a known block page."""

    @classmethod
    def parse(cls, token: str) -> "AnomalyType":
        try:
            return cls(token)
        except ValueError:
            raise ValueError(f"unknown anomaly type: {token!r}") from None


class TimeGranularity(str, Enum):
    """Window sizes used when splitting measurements into buckets."""

    DAY = "day"
    WEEK = "week"
    MONTH = "month"
    YEAR = "year"

    @classmethod
    def parse(cls, token: str) -> "TimeGranularity":
        try:
            return cls(token)
        except ValueError:
            raise ValueError(f"unknown time granularity: {token!r}") from None

    @property
    def sort_index(self) -> int:
        return _GRANULARITY_ORDER[self]


_GRANULARITY_ORDER = {
    TimeGranularity.DAY: 0,
    TimeGranularity.WEEK: 1,
    TimeGranularity.MONTH: 2,
    TimeGranularity.YEAR: 3,
}


def validate_asn(asn: Any, what: str = "asn") -> int:
    # bool passes isinstance(int) checks, so reject it explicitly
    if isinstance(asn, bool) or not isinstance(asn, int):
        raise ValueError(f"{what} must be an integer, got {asn!r}")
    if not MIN_ASN <= asn <= MAX_ASN:
        raise ValueError(f"{what} out of range [1, 2^32-1]: {asn}")
    return asn


def format_timestamp(ts: datetime) -> str:
    return ts.astimezone(timezone.utc).strftime(TIMESTAMP_FORMAT)


def parse_timestamp(raw: str) -> datetime:
    if not isinstance(raw, str):
        raise ValueError(f"timestamp must be a string, got {raw!r}")
    try:
        naive = datetime.strptime(raw, TIMESTAMP_FORMAT)
    except ValueError:
        raise ValueError(f"timestamp not in YYYY-MM-DDThh:mm:ssZ form: {raw!r}") from None
    return naive.replace(tzinfo=timezone.utc)


@dataclass(frozen=True)
class Hop:
    """One traceroute hop: an IPv4 address, or None when the probe timed out."""

    addr: str | None
    ttl_index: int

    @property
    def responsive(self) -> bool:
        return self.addr is not None

    def to_json_obj(self) -> dict[str, Any]:
        return {"ttl": self.ttl_index, "addr": self.addr if self.responsive else NON_RESPONSIVE}


@dataclass(frozen=True)
class Traceroute:
    """An IP-level forward path probe toward a measurement destination."""

    hops: tuple[Hop, ...]
    completed: bool

    def to_json_obj(self) -> dict[str, Any]:
        return {"completed": self.completed, "hops": [h.to_json_obj() for h in self.hops]}


TRACEROUTES_PER_RECORD = 3


@dataclass(frozen=True)
class MeasurementRecord:
    """A single end-to-end censorship test plus its three traceroutes."""

    record_id: str
    vantage_asn: int
    url: str
    dst_ip: str
    anomaly: AnomalyType
    detected: bool
    timestamp: datetime
    traceroutes: tuple[Traceroute, ...]

    def to_json_obj(self) -> dict[str, Any]:
        return {
            "record_id": self.record_id,
            "vantage_asn": self.vantage_asn,
            "url": self.url,
            "dst_ip": self.dst_ip,
            "anomaly": self.anomaly.value,
            "detected": self.detected,
            "timestamp": format_timestamp(self.timestamp),
            "traceroutes": [t.to_json_obj() for t in self.traceroutes],
        }


@dataclass(frozen=True)
class AsPath:
    """AS-level forward path from a vantage AS to a destination AS.

    Consecutive duplicates are forbidden; the first element is the vantage AS
    and the last is the destination AS.
    """

    asns: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.asns:
            raise ValueError("an AS path cannot be empty")
        prev = None
        for asn in self.asns:
            validate_asn(asn, "path element")
            if asn == prev:
                raise ValueError(f"consecutive duplicate AS {asn} in path")
            prev = asn

    @property
    def vantage_asn(self) -> int:
        return self.asns[0]

    @property
    def dst_asn(self) -> int:
        return self.asns[-1]

    def to_json_obj(self) -> list[int]:
        return list(self.asns)

    @classmethod
    def from_json_obj(cls, obj: list[int]) -> "AsPath":
        return cls(asns=tuple(obj))


@dataclass(frozen=True)
class BucketKey:
    """Identity of one tomography bucket: what was measured, when, how split."""

    anomaly: AnomalyType
    url: str
    granularity: TimeGranularity
    window_id: str

    def sort_key(self) -> tuple:
        return (self.anomaly.value, self.url, self.granularity.sort_index, self.window_id)

    def to_json_obj(self) -> dict[str, str]:
        return {
            "anomaly": self.anomaly.value,
            "url": self.url,
            "granularity": self.granularity.value,
            "window": self.window_id,
        }

    @classmethod
    def from_json_obj(cls, obj: dict[str, str]) -> "BucketKey":
        return cls(
            anomaly=AnomalyType.parse(obj["anomaly"]),
            url=obj["url"],
            granularity=TimeGranularity.parse(obj["granularity"]),
            window_id=obj["window"],
        )


@dataclass(frozen=True)
class Clause:
    """An AS-set observation: the ASes of one path and the verdict seen on it.

    Literals are a set; the path order lives in CnfInstance.source_paths.
    """

    literal_asns: frozenset[int]
    truth: bool

    def __post_init__(self) -> None:
        if not self.literal_asns:
            raise ValueError("a clause needs at least one literal")
        for asn in self.literal_asns:
            validate_asn(asn, "clause literal")
        if not isinstance(self.truth, bool):
            raise ValueError("clause truth must be a boolean")

    def canonical_key(self) -> tuple:
        # True clauses sort ahead of False ones, then by literal tuple
        return (0 if self.truth else 1, tuple(sorted(self.literal_asns)))

    def to_json_obj(self) -> dict[str, Any]:
        return {"asns": sorted(self.literal_asns), "truth": self.truth}

    @classmethod
    def from_json_obj(cls, obj: dict[str, Any]) -> "Clause":
        return cls(literal_asns=frozenset(obj["asns"]), truth=obj["truth"])


@dataclass(frozen=True)
class CnfInstance:
    """All clauses of one bucket, plus the source paths they came from.

    Variables are the union of clause literals, stored ascending; clauses are
    stored deduplicated in canonical order so downstream output is byte-stable.
    source_paths preserves per-entry path order and record identity, which the
    leakage analysis needs.
    """

    key: BucketKey
    variables: tuple[int, ...]
    clauses: tuple[Clause, ...]
    source_paths: tuple[tuple[AsPath, bool, str], ...]

    def __post_init__(self) -> None:
        union: set[int] = set()
        for clause in self.clauses:
            union |= clause.literal_asns
        if tuple(sorted(union)) != self.variables:
            raise ValueError("variables must be the sorted union of clause literals")
        keys = [c.canonical_key() for c in self.clauses]
        if keys != sorted(keys):
            raise ValueError("clauses must be in canonical order")
        if len(set(keys)) != len(keys):
            raise ValueError("duplicate clauses in instance")

    def to_json_obj(self) -> dict[str, Any]:
        return {
            "key": self.key.to_json_obj(),
            "variables": list(self.variables),
            "clauses": [c.to_json_obj() for c in self.clauses],
            "source_paths": [
                {"path": p.to_json_obj(), "truth": t, "record_id": r}
                for p, t, r in self.source_paths
            ],
        }

    @classmethod
    def from_json_obj(cls, obj: dict[str, Any]) -> "CnfInstance":
        return cls(
            key=BucketKey.from_json_obj(obj["key"]),
            variables=tuple(obj["variables"]),
            clauses=tuple(Clause.from_json_obj(c) for c in obj["clauses"]),
            source_paths=tuple(
                (AsPath.from_json_obj(s["path"]), s["truth"], s["record_id"])
                for s in obj["source_paths"]
            ),
        )


class SolutionStatus(str, Enum):
    """How many satisfying assignments a bucket's CNF admits."""

    UNSAT = "unsat"
    """No assignment satisfies the clauses (contradictory observations)."""

    UNIQUE = "unique"
    """Exactly one assignment: every variable's role is pinned."""

    MULTIPLE = "multiple"
    """Two or more assignments remain."""


class BackboneStatus(str, Enum):
    """Role of one variable across all satisfying assignments."""

    FORCED_TRUE = "forced_true"
    FORCED_FALSE = "forced_false"
    FREE = "free"


@dataclass(frozen=True)
class SolutionSummary:
    """Solver verdict for one bucket: status, capped count, and backbone."""

    key: BucketKey
    status: SolutionStatus
    model_count_capped: int
    backbone: dict[int, BackboneStatus] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.model_count_capped < 0:
            raise ValueError("model_count_capped cannot be negative")
        if (self.status is SolutionStatus.UNSAT) != (self.model_count_capped == 0):
            raise ValueError("status unsat iff capped model count is 0")
        if (self.status is SolutionStatus.UNIQUE) != (self.model_count_capped == 1):
            raise ValueError("status unique iff capped model count is 1")
        if self.status is SolutionStatus.UNSAT:
            if self.backbone:
                raise ValueError("unsat summaries carry an empty backbone")
        elif not self.backbone:
            raise ValueError("satisfiable summaries carry a backbone entry per variable")
        if self.status is SolutionStatus.UNIQUE:
            if any(s is BackboneStatus.FREE for s in self.backbone.values()):
                raise ValueError("a unique solution forces every variable")

    def forced_true_asns(self) -> tuple[int, ...]:
        return tuple(
            sorted(a for a, s in self.backbone.items() if s is BackboneStatus.FORCED_TRUE)
        )

    def to_json_obj(self) -> dict[str, Any]:
        return {
            "key": self.key.to_json_obj(),
            "status": self.status.value,
            "model_count_capped": self.model_count_capped,
            "backbone": {str(a): s.value for a, s in sorted(self.backbone.items())},
        }

    @classmethod
    def from_json_obj(cls, obj: dict[str, Any]) -> "SolutionSummary":
        return cls(
            key=BucketKey.from_json_obj(obj["key"]),
            status=SolutionStatus(obj["status"]),
            model_count_capped=obj["model_count_capped"],
            backbone={int(a): BackboneStatus(s) for a, s in obj["backbone"].items()},
        )


class CensorClass(str, Enum):
    """Final per-(AS, anomaly) judgement."""

    CENSOR = "censor"
    """Forced true in at least one uniquely solvable bucket."""

    POTENTIAL_CENSOR = "potential_censor"
    """Never pinned, but not ruled out in some ambiguous bucket."""

    NON_CENSOR = "non_censor"
    """Ruled out everywhere it was observed."""


@dataclass(frozen=True)
class CensorVerdict:
    """Classification of one AS for one anomaly, with its witness buckets."""

    asn: int
    censor_class: CensorClass
    anomaly: AnomalyType
    witnesses: tuple[BucketKey, ...]

    def __post_init__(self) -> None:
        validate_asn(self.asn)

    def to_json_obj(self) -> dict[str, Any]:
        return {
            "asn": self.asn,
            "anomaly": self.anomaly.value,
            "class": self.censor_class.value,
            "witnesses": [w.to_json_obj() for w in self.witnesses],
        }

    @classmethod
    def from_json_obj(cls, obj: dict[str, Any]) -> "CensorVerdict":
        return cls(
            asn=obj["asn"],
            censor_class=CensorClass(obj["class"]),
            anomaly=AnomalyType.parse(obj["anomaly"]),
            witnesses=tuple(BucketKey.from_json_obj(w) for w in obj["witnesses"]),
        )


@dataclass(frozen=True)
class LeakageEdge:
    """One (censor, victim) pair where filtering spilled beyond the censor.

    The victim sits strictly closer to the vantage point on a censored path,
    is provably not censoring itself, yet had its traffic answered by the
    censor downstream.
    """

    censor_asn: int
    victim_asn: int
    censor_country: str
    victim_country: str
    anomaly: AnomalyType
    witness_key: BucketKey
    witness_record_id: str

    def __post_init__(self) -> None:
        validate_asn(self.censor_asn, "censor_asn")
        validate_asn(self.victim_asn, "victim_asn")
        if self.victim_asn == self.censor_asn:
            raise ValueError("an AS cannot leak onto itself")

    @property
    def crosses_border(self) -> bool:
        return self.victim_country != self.censor_country

    def to_json_obj(self) -> dict[str, Any]:
        return {
            "censor_asn": self.censor_asn,
            "victim_asn": self.victim_asn,
            "censor_country": self.censor_country,
            "victim_country": self.victim_country,
            "anomaly": self.anomaly.value,
            "witness_key": self.witness_key.to_json_obj(),
            "witness_record_id": self.witness_record_id,
        }

    @classmethod
    def from_json_obj(cls, obj: dict[str, Any]) -> "LeakageEdge":
        return cls(
            censor_asn=obj["censor_asn"],
            victim_asn=obj["victim_asn"],
            censor_country=obj["censor_country"],
            victim_country=obj["victim_country"],
            anomaly=AnomalyType.parse(obj["anomaly"]),
            witness_key=BucketKey.from_json_obj(obj["witness_key"]),
            witness_record_id=obj["witness_record_id"],
        )
