"""Downstream analyses over solved buckets.

Censor classification aggregates backbone roles across buckets per
(AS, anomaly); reduction stats quantify how much each ambiguous bucket still
narrowed the suspect set; leakage finds ASes upstream of a pinned censor that
provably do not censor yet had their traffic answered; churn quantifies
path instability and can be ablated away for comparison runs.
"""
from __future__ import annotations

from collections import Counter
from datetime import datetime
from functools import cache
from itertools import groupby
from typing import NamedTuple, Sequence

from .model import (
    AnomalyType,
    AsPath,
    BackboneStatus,
    BucketKey,
    CensorClass,
    CensorVerdict,
    CnfInstance,
    LeakageEdge,
    MeasurementRecord,
    SolutionStatus,
    SolutionSummary,
    TimeGranularity,
)
from .ingest import window_id
from .tomography import DaySets


def identify_censors(summaries: Sequence[SolutionSummary]) -> list[CensorVerdict]:
    """Classify every observed (AS, anomaly) pair.

    Censor: forced true in at least one uniquely solvable bucket.
    PotentialCensor: otherwise, not forced false in some ambiguous bucket.
    NonCensor: forced false everywhere it appears.
    The verdict lists every contributing bucket key as witness.
    """
    # witnesses are collected as ranks, so sort_key runs once per distinct key
    ranked = sorted({summary.key for summary in summaries}, key=BucketKey.sort_key)
    rank = {key: i for i, key in enumerate(ranked)}
    # equal bodies share one backbone, so each (anomaly, status, backbone) is
    # walked once for all of its buckets
    groups: dict[tuple, tuple[dict, list[int]]] = {}
    for summary in summaries:
        group = (summary.key.anomaly, summary.status, id(summary.backbone))
        groups.setdefault(group, (summary.backbone, []))[1].append(rank[summary.key])
    censor_wit: dict[tuple[int, AnomalyType], list[int]] = {}
    potential_wit: dict[tuple[int, AnomalyType], list[int]] = {}
    seen: dict[tuple[int, AnomalyType], list[int]] = {}
    for (anomaly, status, _), (backbone, ranks) in groups.items():
        for asn, role in backbone.items():
            pair = (asn, anomaly)
            seen.setdefault(pair, []).extend(ranks)
            if status is SolutionStatus.UNIQUE and role is BackboneStatus.FORCED_TRUE:
                censor_wit.setdefault(pair, []).extend(ranks)
            elif status is SolutionStatus.MULTIPLE and role is not BackboneStatus.FORCED_FALSE:
                potential_wit.setdefault(pair, []).extend(ranks)

    verdicts: list[CensorVerdict] = []
    # by anomaly name, then ASN: a str enum member compares as its value
    for pair in sorted(seen, key=lambda p: (p[1], p[0])):
        if pair in censor_wit:
            klass, ranks = CensorClass.CENSOR, censor_wit[pair]
        elif pair in potential_wit:
            klass, ranks = CensorClass.POTENTIAL_CENSOR, potential_wit[pair]
        else:
            klass, ranks = CensorClass.NON_CENSOR, seen[pair]
        witnesses = tuple(map(ranked.__getitem__, sorted(set(ranks))))
        verdicts.append(CensorVerdict(pair[0], klass, pair[1], witnesses))
    return verdicts


# ---------------------------------------------------------------------------
# reduction of the suspect set in ambiguous buckets


class ReductionStat(NamedTuple):
    """How far one ambiguous bucket narrowed its variables."""

    key: BucketKey
    n_vars: int
    n_forced_false: int

    @property
    def fraction_eliminated(self) -> float:
        return self.n_forced_false / self.n_vars


class ReductionReport(NamedTuple):
    stats: tuple[ReductionStat, ...]
    cdf: tuple[tuple[float, float], ...]
    """(fraction threshold, cumulative share of buckets) at 1% resolution."""
    mean_fraction: float | None
    """None (rendered "n/a") when there are no ambiguous buckets."""


def reduction_stats(summaries: Sequence[SolutionSummary]) -> ReductionReport:
    stats: list[ReductionStat] = []
    for summary in summaries:
        if summary.status is not SolutionStatus.MULTIPLE:
            continue
        n_vars = len(summary.backbone)
        n_ff = sum(
            1 for role in summary.backbone.values() if role is BackboneStatus.FORCED_FALSE
        )
        stats.append(ReductionStat(key=summary.key, n_vars=n_vars, n_forced_false=n_ff))
    stats.sort(key=lambda s: s.key.sort_key())
    cdf: list[tuple[float, float]] = []
    if stats:
        for i in range(101):
            # integer comparison keeps the threshold test exact
            below = sum(1 for s in stats if s.n_forced_false * 100 <= i * s.n_vars)
            cdf.append((i / 100, below / len(stats)))
        mean = sum(s.fraction_eliminated for s in stats) / len(stats)
    else:
        mean = None
    return ReductionReport(stats=tuple(stats), cdf=tuple(cdf), mean_fraction=mean)


# ---------------------------------------------------------------------------
# leakage


class CensorLeakSummary(NamedTuple):
    censor_asn: int
    censor_country: str
    leaks_as: int
    """Distinct victim ASNs upstream of this censor."""
    leaks_country: int
    """Distinct victim countries other than the censor's own."""


class LeakageReport(NamedTuple):
    edges: tuple[LeakageEdge, ...]
    per_censor: tuple[CensorLeakSummary, ...]
    skipped_missing_country: int


def pinning_keys(summaries: Sequence[SolutionSummary]) -> set[BucketKey]:
    """The buckets detect_leakage reads source paths from: unique, pinning some AS."""
    return {
        summary.key for summary in summaries if summary.status is SolutionStatus.UNIQUE
        and BackboneStatus.FORCED_TRUE in summary.backbone.values()
    }


def detect_leakage(
    solved: Sequence[tuple[CnfInstance, SolutionSummary]],
    countries: dict[int, str],
) -> LeakageReport:
    """Find cross-AS (and cross-border) censorship spill-over.

    Only uniquely solvable buckets testify. On each source path that crossed
    a forced-true censor, every AS strictly closer to the vantage point that
    the solution forces false is a victim: its traffic was answered by a
    censor it provably does not operate. A victim in another country is
    additionally a country-level leak. A (censor, victim) pair without a
    known country is skipped and tallied once per record of the path, however
    often the path repeats either AS. The paths are each testifying
    instance's source_paths (tomography.with_sources).
    """
    edges: dict[tuple[int, int, AnomalyType], LeakageEdge] = {}
    skipped = 0
    # backbone id -> its forced-true ASes. Equal bodies share one backbone,
    # and with it one set of distinct path AS sets, so the first bucket of a
    # backbone checks every clean path its later buckets hold
    pinned: dict[int, set[int]] = {}
    for instance, summary in sorted(solved, key=lambda t: t[0].key.sort_key()):
        if summary.status is not SolutionStatus.UNIQUE:
            continue
        backbone = summary.backbone
        censors = pinned.get(id(backbone))
        if censors is None:
            censors = pinned[id(backbone)] = {
                asn for asn, role in backbone.items() if role is BackboneStatus.FORCED_TRUE
            }
            # a pinned censor can never sit on a clean path
            assert all(censors.isdisjoint(path)
                       for path, truth, _, _ in instance.source_paths if not truth)
        if not censors:
            continue  # no path here crossed a censor
        for path, truth, record_id, count in instance.source_paths:
            if not truth:
                continue
            upstream: list[int] = []  # distinct forced-false ASes so far
            for asn in dict.fromkeys(path):  # each distinct AS, at its first occurrence
                role = backbone[asn]  # every path AS is a bucket variable
                if role is BackboneStatus.FORCED_FALSE:
                    upstream.append(asn)
                if role is not BackboneStatus.FORCED_TRUE:
                    continue
                censor_country = countries.get(asn)
                for victim in upstream:
                    victim_country = countries.get(victim)
                    if censor_country is None or victim_country is None:
                        skipped += count
                        continue
                    dedup_key = (asn, victim, instance.key.anomaly)
                    if dedup_key in edges:
                        continue
                    edges[dedup_key] = LeakageEdge(
                        censor_asn=asn,
                        victim_asn=victim,
                        censor_country=censor_country,
                        victim_country=victim_country,
                        anomaly=instance.key.anomaly,
                        witness_key=instance.key,
                        witness_record_id=record_id,
                    )

    edge_list = sorted(
        edges.values(), key=lambda e: (e.censor_asn, e.victim_asn, e.anomaly)
    )
    per_censor: list[CensorLeakSummary] = []
    # edge_list is sorted by censor, so each censor's edges are one run
    for censor, run in groupby(edge_list, key=lambda e: e.censor_asn):
        mine = list(run)
        per_censor.append(
            CensorLeakSummary(
                censor_asn=censor,
                censor_country=mine[0].censor_country,
                leaks_as=len({e.victim_asn for e in mine}),
                leaks_country=len({e.victim_country for e in mine if e.crosses_border}),
            )
        )
    return LeakageReport(
        edges=tuple(edge_list),
        per_censor=tuple(per_censor),
        skipped_missing_country=skipped,
    )


# ---------------------------------------------------------------------------
# churn


class ChurnCell(NamedTuple):
    vantage_asn: int
    dst_asn: int
    window_id: str
    n_measurements: int
    distinct_paths: int


HISTOGRAM_BUCKETS = ("1", "2", "3", "4", "5+")


class ChurnReport(NamedTuple):
    granularity: TimeGranularity
    cells: tuple[ChurnCell, ...]
    fraction_churning: float | None
    """Share of multi-measurement cells that saw >= 2 distinct paths; None
    (rendered "n/a") when no cell had two measurements."""
    histogram: dict[str, int]
    multi_measurement_cells: int
    churning_cells: int


def churn_stats(
    observations: Sequence[tuple[int, int, datetime, AsPath]],
    granularity: TimeGranularity,
) -> ChurnReport:
    """Distinct-path counts per (vantage, destination, window).

    A pair churns in a window when it shows >= 2 distinct full path
    sequences; the churn fraction is taken over cells with >= 2 measurements
    so single-shot pairs cannot dilute it.
    """
    name = cache(lambda day: window_id(day, granularity))  # once per distinct UTC date
    paths: dict[tuple[int, int, str], list[AsPath]] = {}
    for vantage, dst, ts, path in observations:
        paths.setdefault((vantage, dst, name(ts.date())), []).append(path)
    cells = tuple(ChurnCell(*key, len(seen), len(set(seen))) for key, seen in sorted(paths.items()))
    histogram = {b: 0 for b in HISTOGRAM_BUCKETS}
    for cell in cells:
        bucket = str(cell.distinct_paths) if cell.distinct_paths < 5 else "5+"
        histogram[bucket] += 1
    multi = sum(1 for c in cells if c.n_measurements >= 2)
    churning = sum(1 for c in cells if c.distinct_paths >= 2)
    fraction = churning / multi if multi else None
    return ChurnReport(
        granularity=granularity,
        cells=cells,
        fraction_churning=fraction,
        histogram=histogram,
        multi_measurement_cells=multi,
        churning_cells=churning,
    )


def ablate_churn(
    pairs: Sequence[tuple[MeasurementRecord, AsPath]],
) -> list[tuple[MeasurementRecord, AsPath]]:
    """Strip path churn: per (vantage AS, destination AS) pair keep only the
    measurements taken over its first inferred path, that of its least
    (timestamp, input position) record."""
    first: dict[tuple[int, int], tuple[datetime, int, AsPath]] = {}
    for position, (record, path) in enumerate(pairs):
        pair, mark = (record.vantage_asn, path[-1]), (record.timestamp, position, path)
        if first.setdefault(pair, mark) > mark:  # positions never tie
            first[pair] = mark
    return [(record, path) for record, path in pairs
            if path == first[record.vantage_asn, path[-1]][2]]


def ablate_days(days: DaySets, kept: Sequence[tuple[MeasurementRecord, AsPath]]) -> DaySets:
    """The day sets of ``kept``, what ablate_churn kept of the pairs whose day
    sets are ``days``. A path begins at its vantage AS and ends at its
    destination AS, so it is kept everywhere or nowhere."""
    paths = {path for _, path in kept}
    filtered = ((cell, {seen for seen in day if seen[0] in paths}) for cell, day in days.items())
    return {cell: day for cell, day in filtered if day}


# ---------------------------------------------------------------------------
# solution-share tables

# per-group counts of a solution table, the SolutionStatus values and then
# at_cap; each count also gets a share_ column
SOLUTION_COUNTS = ("unsat", "unique", "multiple", "at_cap")


def solution_rows_by_granularity(
    summaries: Sequence[SolutionSummary], cap: int
) -> list[dict]:
    return _solution_rows(summaries, cap, by_anomaly=False)


def solution_rows_by_anomaly(summaries: Sequence[SolutionSummary], cap: int) -> list[dict]:
    return _solution_rows(summaries, cap, by_anomaly=True)


def _solution_rows(
    summaries: Sequence[SolutionSummary], cap: int, by_anomaly: bool
) -> list[dict]:
    # grouped by enum member, so .value is read once per group and status
    groups: dict[AnomalyType | TimeGranularity, list[SolutionSummary]] = {}
    for summary in summaries:
        group = summary.key.anomaly if by_anomaly else summary.key.granularity
        groups.setdefault(group, []).append(summary)
    # str members sort as their values
    order = sorted(groups) if by_anomaly else sorted(groups, key=lambda g: g.sort_index)
    rows = []
    for group in order:
        members = groups[group]
        counts = dict.fromkeys(SOLUTION_COUNTS, 0)
        for status, n in Counter(summary.status for summary in members).items():
            counts[status.value] = n
        counts["at_cap"] = sum(summary.model_count_capped >= cap for summary in members)
        rows.append({
            ("anomaly" if by_anomaly else "granularity"): group.value,
            "cnf_count": len(members),
            **counts,
            **{f"share_{name}": n / len(members) for name, n in counts.items()},
        })
    return rows
