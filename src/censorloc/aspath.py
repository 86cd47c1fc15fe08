"""Traceroute to AS-path inference.

Each IP hop is mapped through the prefix table to its origin set, a plain
``frozenset`` of ASNs, and each traceroute is collapsed in one pass to an
AS-level path anchored at the vantage AS and the destination AS. Records whose
traceroutes cannot be collapsed unambiguously are eliminated, each with a
specific rule, so downstream accounting can show exactly what was dropped.
"""
from __future__ import annotations

from enum import Enum
from typing import Any, Union

from .ingest import PrefixTable
from .model import AsPath, Hop, MeasurementRecord, Traceroute

def map_ip(table: PrefixTable, ip: str) -> frozenset[int]:
    """Origin set of one IP by longest-prefix match: one ASN when mapped,
    several when ambiguous, none when malformed, reserved/private or unrouted.

    Each distinct string is mapped once per table, by ``table.origins``.
    """
    return table.origins(ip) or frozenset()


def mapping_kind(origins: frozenset[int]) -> str:
    """The ``--debug-trace`` name of an origin set's size."""
    return "mapped" if len(origins) == 1 else "ambiguous" if origins else "unmapped"


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


class InferenceFailure:
    """Why no AS path came out; not a tuple, so never taken for an ``AsPath``."""

    __slots__ = ("rule", "detail")

    def __init__(self, rule: InferenceRule, detail: str) -> None:
        self.rule, self.detail = rule, detail

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InferenceFailure):
            return NotImplemented
        return (self.rule, self.detail) == (other.rule, other.detail)

    def __hash__(self) -> int:
        return hash((self.rule, self.detail))

    def to_json_obj(self) -> dict[str, str]:
        return {"rule": self.rule.value, "detail": self.detail}


def _gap_failure(left: int, right: int) -> InferenceFailure:
    return InferenceFailure(InferenceRule.UNRESOLVABLE_GAP, f"gap between AS{left} and AS{right}")


def collapse_traceroute(
    traceroute: Traceroute,
    table: PrefixTable,
    vantage_asn: int,
    dst_asn: int,
) -> Union[AsPath, InferenceFailure]:
    """Collapse one IP traceroute to an AS path in one pass, or explain why
    it cannot be.

    The path starts at the vantage AS. A non-responsive hop, or one whose
    origin set is not exactly one ASN, opens a gap. A mapped hop repeating
    the path's last AS closes the gap; a different AS behind an open gap
    hides an unknown AS boundary and eliminates the traceroute, otherwise
    it is appended. The destination AS closes the path like one more hop,
    once at least one hop has mapped.
    """
    if not traceroute.completed or not traceroute.hops:
        return InferenceFailure(InferenceRule.TRACEROUTE_ERROR, "traceroute incomplete or empty")
    path = [vantage_asn]
    gap = mapped_any = False
    for hop in traceroute.hops:
        origins = map_ip(table, hop.addr) if hop.addr is not None else frozenset()
        if len(origins) != 1:
            gap = True
            continue
        (asn,) = origins
        if asn != path[-1]:
            if gap:
                return _gap_failure(path[-1], asn)
            path.append(asn)
        gap = False
        mapped_any = True
    if not mapped_any:
        return InferenceFailure(InferenceRule.MAPPING_IMPOSSIBLE, "no traceroute hop maps to an AS")
    if dst_asn != path[-1]:
        if gap:
            return _gap_failure(path[-1], dst_asn)
        path.append(dst_asn)
    return tuple(path)


def _outcomes(
    record: MeasurementRecord, table: PrefixTable
) -> tuple[frozenset[int], list[Union[AsPath, InferenceFailure]]]:
    # the destination origin set plus one collapse outcome per traceroute; a
    # destination without exactly one origin fails every traceroute without
    # collapsing it
    dst_origins = map_ip(table, record.dst_ip)
    if len(dst_origins) != 1:
        failure = InferenceFailure(InferenceRule.MAPPING_IMPOSSIBLE,
                                   f"destination {record.dst_ip} does not map to a single AS")
        return dst_origins, [failure] * len(record.traceroutes)
    (dst_asn,) = dst_origins
    # each distinct traceroute collapses once: index finds an interned repeat
    outcomes = []
    for traceroute in record.traceroutes:
        first = record.traceroutes.index(traceroute)
        outcomes.append(outcomes[first] if first < len(outcomes) else
                        collapse_traceroute(traceroute, table, record.vantage_asn, dst_asn))
    return dst_origins, outcomes


def _combine(
    outcomes: list[Union[AsPath, InferenceFailure]]
) -> Union[AsPath, InferenceFailure]:
    # successful collapses must agree; with none, the first failure stands
    paths = {o for o in outcomes if not isinstance(o, InferenceFailure)}
    if not paths:
        return outcomes[0]
    if len(paths) > 1:
        rendered = "; ".join("-".join(str(a) for a in p) for p in sorted(paths))
        return InferenceFailure(InferenceRule.MULTIPLE_AS_PATHS,
                                f"traceroutes disagree: {rendered}")
    return paths.pop()


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
    return {"path": list(outcome)}


def _hop_obj(hop: Hop, table: PrefixTable) -> dict[str, Any]:
    if hop.addr is None:
        return {"ttl": hop.ttl_index, "addr": "*", "mapping": "non_responsive"}
    origins = map_ip(table, hop.addr)
    return {
        "ttl": hop.ttl_index,
        "addr": hop.addr,
        "mapping": mapping_kind(origins),
        "origins": sorted(origins),
    }


def trace_inference(record: MeasurementRecord, table: PrefixTable) -> dict[str, Any]:
    """Debug dump of every mapping step for one record (behind --debug-trace).

    Built from the same per-traceroute outcomes as ``infer_as_path``.
    """
    dst_origins, outcomes = _outcomes(record, table)
    return {
        "record_id": record.record_id,
        "dst_ip": record.dst_ip,
        "dst_mapping": {"kind": mapping_kind(dst_origins), "origins": sorted(dst_origins)},
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
