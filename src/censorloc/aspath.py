"""Traceroute to AS-path inference.

IP hops are mapped through the prefix table, then collapsed to an AS-level
path anchored at the vantage AS and the destination AS. Records whose
traceroutes cannot be collapsed unambiguously are eliminated, each with a
specific rule, so downstream accounting can show exactly what was dropped.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Union

from .ingest import PrefixTable, parse_ipv4, prefix_mask
from .model import AsPath, Hop, MeasurementRecord, Traceroute

# Ranges that can never identify a transit AS: RFC1918, loopback, link-local,
# as (network, mask) integer pairs.
_EXCLUDED_RANGES = tuple(
    (parse_ipv4(network), prefix_mask(length))
    for network, length in (
        ("10.0.0.0", 8),
        ("172.16.0.0", 12),
        ("192.168.0.0", 16),
        ("127.0.0.0", 8),
        ("169.254.0.0", 16),
    )
)


class MappingKind(str, Enum):
    MAPPED = "mapped"
    AMBIGUOUS = "ambiguous"
    UNMAPPED = "unmapped"


@dataclass(frozen=True)
class HopMapping:
    """Result of mapping one IP to origin AS(es)."""

    kind: MappingKind
    origins: frozenset[int] = frozenset()

    @property
    def asn(self) -> int:
        if self.kind is not MappingKind.MAPPED:
            raise ValueError("only mapped hops carry a single ASN")
        return next(iter(self.origins))


_UNMAPPED = HopMapping(kind=MappingKind.UNMAPPED)


def map_ip(table: PrefixTable, ip: str) -> HopMapping:
    """Longest-prefix match one IP; reserved/private space never maps.

    Each distinct string is mapped once per table and then read from
    ``table.mappings``.
    """
    mapping = table.mappings.get(ip)
    if mapping is None:
        mapping = table.mappings[ip] = _map_uncached(table, ip)
    return mapping


def _map_uncached(table: PrefixTable, ip: str) -> HopMapping:
    addr = parse_ipv4(ip)
    if addr is None or any(addr & mask == network for network, mask in _EXCLUDED_RANGES):
        return _UNMAPPED
    origins = table.lookup_int(addr)
    if origins is None:
        return _UNMAPPED
    if len(origins) == 1:
        return HopMapping(kind=MappingKind.MAPPED, origins=origins)
    return HopMapping(kind=MappingKind.AMBIGUOUS, origins=origins)


class InferenceRule(str, Enum):
    """Why a record was eliminated from path inference."""

    MAPPING_IMPOSSIBLE = "mapping_impossible"
    """No hop (or the destination) could be mapped to an AS."""

    TRACEROUTE_ERROR = "traceroute_error"
    """The traceroute never completed or recorded no hops."""

    UNRESOLVABLE_GAP = "unresolvable_gap"
    """A non-responsive or ambiguous stretch sits between two different ASes."""

    MULTIPLE_AS_PATHS = "multiple_as_paths"
    """The record's traceroutes resolved to disagreeing AS paths."""


@dataclass(frozen=True)
class InferenceFailure:
    rule: InferenceRule
    detail: str

    def to_json_obj(self) -> dict[str, str]:
        return {"rule": self.rule.value, "detail": self.detail}


_GAP = None  # token marking a hop that cannot vote for any AS


def collapse_traceroute(
    traceroute: Traceroute,
    table: PrefixTable,
    vantage_asn: int,
    dst_asn: int,
) -> Union[AsPath, InferenceFailure]:
    """Collapse one IP traceroute to an AS path, or explain why it cannot be.

    Non-responsive and ambiguous (multi-origin) hops are gaps. A gap run
    flanked by the same AS on both sides is dropped; flanked by two different
    ASes it hides an unknown AS boundary and the traceroute is eliminated.
    The vantage and destination ASes are appended as virtual endpoints before
    gap resolution, so no gap run can touch either end of the sequence.
    """
    if not traceroute.completed or not traceroute.hops:
        return InferenceFailure(
            rule=InferenceRule.TRACEROUTE_ERROR,
            detail="traceroute incomplete or empty",
        )
    tokens: list[int | None] = []
    mapped_any = False
    for hop in traceroute.hops:
        if not hop.responsive:
            tokens.append(_GAP)
            continue
        mapping = map_ip(table, hop.addr)
        if mapping.kind is MappingKind.MAPPED:
            tokens.append(mapping.asn)
            mapped_any = True
        else:
            tokens.append(_GAP)
    if not mapped_any:
        return InferenceFailure(
            rule=InferenceRule.MAPPING_IMPOSSIBLE,
            detail="no traceroute hop maps to an AS",
        )
    tokens = [vantage_asn, *tokens, dst_asn]

    # resolve gap runs against their mapped neighbours
    resolved: list[int] = []
    i = 0
    while i < len(tokens):
        token = tokens[i]
        if token is not _GAP:
            resolved.append(token)
            i += 1
            continue
        j = i
        while tokens[j] is _GAP:
            j += 1
        left = resolved[-1]
        right = tokens[j]
        if left != right:
            return InferenceFailure(
                rule=InferenceRule.UNRESOLVABLE_GAP,
                detail=f"gap between AS{left} and AS{right}",
            )
        i = j

    collapsed: list[int] = []
    for asn in resolved:
        if not collapsed or collapsed[-1] != asn:
            collapsed.append(asn)
    return AsPath(asns=tuple(collapsed))


def _outcomes(
    record: MeasurementRecord, table: PrefixTable
) -> tuple[HopMapping, list[Union[AsPath, InferenceFailure]]]:
    # the destination mapping plus one collapse outcome per traceroute; an
    # unmapped destination fails every traceroute without collapsing it
    dst_mapping = map_ip(table, record.dst_ip)
    if dst_mapping.kind is not MappingKind.MAPPED:
        failure = InferenceFailure(
            rule=InferenceRule.MAPPING_IMPOSSIBLE,
            detail=f"destination {record.dst_ip} does not map to a single AS",
        )
        return dst_mapping, [failure] * len(record.traceroutes)
    dst_asn = dst_mapping.asn
    return dst_mapping, [
        collapse_traceroute(traceroute, table, record.vantage_asn, dst_asn)
        for traceroute in record.traceroutes
    ]


def _combine(
    outcomes: list[Union[AsPath, InferenceFailure]]
) -> Union[AsPath, InferenceFailure]:
    # successful collapses must agree; with none, the first failure stands
    paths = {o.asns for o in outcomes if not isinstance(o, InferenceFailure)}
    if not paths:
        return outcomes[0]
    if len(paths) > 1:
        rendered = "; ".join("-".join(str(a) for a in p) for p in sorted(paths))
        return InferenceFailure(
            rule=InferenceRule.MULTIPLE_AS_PATHS,
            detail=f"traceroutes disagree: {rendered}",
        )
    return AsPath(asns=paths.pop())


def infer_as_path(
    record: MeasurementRecord,
    table: PrefixTable,
) -> Union[AsPath, InferenceFailure]:
    """Infer one AS path for a record from its three traceroutes.

    The destination IP must map to a single AS to anchor the path. Successful
    collapses must all agree; two or more distinct paths eliminate the record,
    and if nothing collapses the first per-traceroute failure is reported.
    """
    return _combine(_outcomes(record, table)[1])


def _result_obj(outcome: Union[AsPath, InferenceFailure]) -> dict[str, Any]:
    if isinstance(outcome, InferenceFailure):
        return outcome.to_json_obj()
    return {"path": list(outcome.asns)}


def _hop_obj(hop: Hop, table: PrefixTable) -> dict[str, Any]:
    if not hop.responsive:
        return {"ttl": hop.ttl_index, "addr": "*", "mapping": "non_responsive"}
    mapping = map_ip(table, hop.addr)
    return {
        "ttl": hop.ttl_index,
        "addr": hop.addr,
        "mapping": mapping.kind.value,
        "origins": sorted(mapping.origins),
    }


def trace_inference(record: MeasurementRecord, table: PrefixTable) -> dict[str, Any]:
    """Debug dump of every mapping step for one record (behind --debug-trace).

    Built from the same per-traceroute outcomes as ``infer_as_path``.
    """
    dst_mapping, outcomes = _outcomes(record, table)
    return {
        "record_id": record.record_id,
        "dst_ip": record.dst_ip,
        "dst_mapping": {
            "kind": dst_mapping.kind.value,
            "origins": sorted(dst_mapping.origins),
        },
        "traceroutes": [
            {
                "completed": traceroute.completed,
                "hops": [_hop_obj(hop, table) for hop in traceroute.hops],
                "outcome": _result_obj(outcome),
            }
            for traceroute, outcome in zip(record.traceroutes, outcomes)
        ],
        "result": _result_obj(_combine(outcomes)),
    }
