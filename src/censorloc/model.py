"""Domain types shared by every stage of the censorship-localization pipeline.

The record types here are ``typing.NamedTuple``s: immutable, hashed and
compared in C, and cheap to define at import. Being tuples, they also equal
any tuple with equal fields, iterate over their fields and order with ``<``,
so a dict or set must not mix them with plain tuples. Each fact is checked
once, where it enters the program or where it is made, and no type
re-checks it on construction:

- ``BucketKey`` and ``CensorVerdict`` round-trip through ``to_json_obj`` /
  ``from_json_obj``, which is how ``evaluate`` reads a ``censors.json`` back;
  the readers check what arrives, ``CensorVerdict.from_json_obj`` the ASN.
- ``Hop``, ``Traceroute`` and ``MeasurementRecord`` are built only by
  ``ingest.parse_measurements``, which validates measurement JSON, vantage
  ASNs included, and interns equal hops and traceroutes so records share them.
- ``Clause``, ``CnfInstance`` and ``LeakageEdge`` come from
  ``tomography.build_instances`` and ``analysis.detect_leakage``.
- ``SolutionSummary`` comes from ``solver.classify``, whose status, capped
  count and backbone ``solver._solve`` fixes together.

Bad input of any kind raises ``InputError``, which the CLI turns into exit
code 2; ``ingest.IngestError`` and ``simulate.SimulationError`` extend it, so
no stage re-wraps a reader's or the simulator's error.
"""
from __future__ import annotations

from datetime import datetime, timezone
from enum import Enum
from typing import Any, NamedTuple

MIN_ASN = 1
MAX_ASN = 2**32 - 1
# the model-count bound of every solve, for the CLI's --model-cap default
DEFAULT_MODEL_CAP = 5


class InputError(Exception):
    """A problem with the run's inputs or output destination (exit code 2)."""


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
        # the value-to-member map Enum keeps: cls(token) would find the same
        # member through a Python-level __call__ and __new__ per token
        try:
            return cls._value2member_map_[token]
        except (KeyError, TypeError):
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


# fine to coarse, as declared
_GRANULARITY_ORDER = {g: i for i, g in enumerate(TimeGranularity)}
ALL_GRANULARITIES = tuple(TimeGranularity)


def validate_asn(asn: Any, what: str = "asn") -> int:
    # bool passes isinstance(int) checks, so reject it explicitly
    if isinstance(asn, bool) or not isinstance(asn, int):
        raise ValueError(f"{what} must be an integer, got {asn!r}")
    if not MIN_ASN <= asn <= MAX_ASN:
        raise ValueError(f"{what} out of range [1, 2^32-1]: {asn}")
    return asn


def format_timestamp(ts: datetime) -> str:
    # strftime("%Y") leaves years before 1000 unpadded; isoformat pads them
    return ts.astimezone(timezone.utc).replace(tzinfo=None).isoformat("T", "seconds") + "Z"


def parse_timestamp(raw: str) -> datetime:
    if not isinstance(raw, str):
        raise ValueError(f"timestamp must be a string, got {raw!r}")
    # ASCII digits in every field and each separator exactly as written:
    # strptime would take non-ASCII digits, unpadded fields, a space before a
    # one-digit day and a lowercase t or z
    digits = raw[0:4] + raw[5:7] + raw[8:10] + raw[11:13] + raw[14:16] + raw[17:19]
    if len(raw) == 20 and raw.isascii() and digits.isdigit() and \
            raw[4] + raw[7] + raw[10] + raw[13] + raw[16] + raw[19] == "--T::Z":
        try:
            return datetime(int(raw[0:4]), int(raw[5:7]), int(raw[8:10]), int(raw[11:13]),
                            int(raw[14:16]), int(raw[17:19]), tzinfo=timezone.utc)
        except ValueError:
            pass  # no such date or time
    raise ValueError(f"timestamp not in YYYY-MM-DDThh:mm:ssZ form: {raw!r}")


class Hop(NamedTuple):
    """One traceroute hop: an IPv4 address, or None when the probe timed out."""

    addr: str | None
    ttl_index: int


class Traceroute(NamedTuple):
    """An IP-level forward path probe toward a measurement destination."""

    hops: tuple[Hop, ...]
    completed: bool


TRACEROUTES_PER_RECORD = 3


class MeasurementRecord(NamedTuple):
    """A single end-to-end censorship test plus its three traceroutes."""

    record_id: str
    vantage_asn: int
    url: str
    dst_ip: str
    anomaly: AnomalyType
    detected: bool
    timestamp: datetime
    traceroutes: tuple[Traceroute, ...]


# An AS-level forward path, as aspath.collapse_traceroute makes it: the vantage
# AS first, the destination AS last, and no AS twice in a row.
AsPath = tuple[int, ...]


class BucketKey(NamedTuple):
    """Identity of one tomography bucket: what was measured, when, how split."""

    anomaly: AnomalyType
    url: str
    granularity: TimeGranularity
    window_id: str

    def sort_key(self) -> tuple:
        # a str enum member compares as its value, without the Python-level
        # .value property
        return (self.anomaly, self.url, _GRANULARITY_ORDER[self.granularity], self.window_id)

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


class Clause(NamedTuple):
    """An AS-set observation: the ASes of one path and the verdict seen on it.

    Literals are a set; the path order lives in CnfInstance.source_paths.
    """

    literal_asns: frozenset[int]
    truth: bool

    def canonical_key(self) -> tuple:
        # True clauses sort ahead of False ones, then by literal tuple
        return (0 if self.truth else 1, tuple(sorted(self.literal_asns)))


class CnfInstance(NamedTuple):
    """All clauses of one bucket, plus the source paths leak reads.

    Variables are the union of clause literals, stored ascending; clauses are
    stored deduplicated in canonical order so downstream output is byte-stable.
    source_paths is empty but where ``tomography.with_sources`` filled it: then
    each distinct (path, detected, first record_id, record count) of the
    bucket, in order of first record.
    """

    key: BucketKey
    variables: tuple[int, ...]
    clauses: tuple[Clause, ...]
    source_paths: tuple[tuple[AsPath, bool, str, int], ...]


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


class SolutionSummary(NamedTuple):
    """Solver verdict for one bucket: status, capped count, and backbone."""

    key: BucketKey
    status: SolutionStatus
    model_count_capped: int
    backbone: dict[int, BackboneStatus]


class CensorClass(str, Enum):
    """Final per-(AS, anomaly) judgement."""

    CENSOR = "censor"
    """Forced true in at least one uniquely solvable bucket."""

    POTENTIAL_CENSOR = "potential_censor"
    """Never pinned, but not ruled out in some ambiguous bucket."""

    NON_CENSOR = "non_censor"
    """Ruled out everywhere it was observed."""


class CensorVerdict(NamedTuple):
    """Classification of one AS for one anomaly, with its witness buckets."""

    asn: int
    censor_class: CensorClass
    anomaly: AnomalyType
    witnesses: tuple[BucketKey, ...]

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
            asn=validate_asn(obj["asn"]),
            censor_class=CensorClass(obj["class"]),
            anomaly=AnomalyType.parse(obj["anomaly"]),
            witnesses=tuple(BucketKey.from_json_obj(w) for w in obj["witnesses"]),
        )


class LeakageEdge(NamedTuple):
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
