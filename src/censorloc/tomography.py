"""Compile (AS path, verdict) observations into per-bucket CNF instances.

The boolean model: one variable per AS, true meaning "this AS censors the
bucket's (anomaly, URL) in this window". A path that observed the anomaly
says at least one AS on it is responsible (one all-positive disjunction); a
clean path says no AS on it is (one negative unit clause per AS). Every CNF
clause this module emits is therefore either all-positive or a negative unit.
"""
from __future__ import annotations

import hashlib
from datetime import datetime
from operator import itemgetter
from typing import Iterable, Sequence

from .ingest import window_id
from .model import (
    AnomalyType,
    AsPath,
    BucketKey,
    Clause,
    CnfInstance,
    MeasurementRecord,
    TimeGranularity,
)

MERGED_URL = "*"
"""Bucket-key url value when URL splitting is disabled."""

# (path, detected, record_id) as flowing out of bucketing into CNF building
Entry = tuple[AsPath, bool, str]


def build_clause(path: AsPath, detected: bool) -> Clause:
    """One observation on one path becomes one clause over the path's ASes."""
    return Clause(literal_asns=frozenset(path.asns), truth=detected)


def bucket(
    pairs: Iterable[tuple[MeasurementRecord, AsPath]],
    granularity: TimeGranularity,
    url_split: bool = True,
) -> dict[BucketKey, list[Entry]]:
    """Group inferred paths by (anomaly, url, window); entries stay in
    timestamp order within each bucket (ties keep input order)."""
    windows: dict[datetime, str] = {}
    grouped: dict[tuple[AnomalyType, str, str], list[tuple[datetime, Entry]]] = {}
    for record, path in pairs:
        stamp = record.timestamp
        window = windows.get(stamp)
        if window is None:
            window = windows[stamp] = window_id(stamp, granularity)
        grouped.setdefault(
            (record.anomaly, record.url if url_split else MERGED_URL, window), []
        ).append((stamp, (path, record.detected, record.record_id)))
    out: dict[BucketKey, list[Entry]] = {}
    for (anomaly, url, window), rows in grouped.items():
        # rows arrive in input order and the sort is stable
        rows.sort(key=itemgetter(0))
        key = BucketKey(anomaly=anomaly, url=url, granularity=granularity, window_id=window)
        out[key] = list(map(itemgetter(1), rows))
    return out


class _ClauseMemo(dict):
    """One Clause, with its canonical key, per distinct (path, detected)."""

    def __missing__(self, key: tuple[AsPath, bool]) -> tuple[tuple, Clause]:
        clause = build_clause(*key)
        self[key] = entry = (clause.canonical_key(), clause)
        return entry


def build_cnf(
    key: BucketKey, entries: Sequence[Entry], memo: _ClauseMemo | None = None
) -> CnfInstance:
    """Build one bucket's CNF instance.

    Clauses are deduplicated per (literal set, truth); contradictory pairs
    (same set, both truths) are retained and left for the solver to expose as
    unsatisfiable. source_paths keeps every entry verbatim. ``memo`` shares
    clauses between the buckets of one run.
    """
    if not entries:
        raise ValueError("a bucket cannot be empty")
    if memo is None:
        memo = _ClauseMemo()
    seen = dict(memo[path, detected] for path, detected, _ in entries)
    clauses = tuple(seen[k] for k in sorted(seen))
    variables: set[int] = set()
    for clause in clauses:
        variables |= clause.literal_asns
    return CnfInstance(
        key=key,
        variables=tuple(sorted(variables)),
        clauses=clauses,
        source_paths=tuple(entries),
    )


def build_instances(
    pairs: Sequence[tuple[MeasurementRecord, AsPath]],
    granularities: Sequence[TimeGranularity],
    url_split: bool = True,
) -> list[CnfInstance]:
    """All CNF instances for a run, sorted by bucket key."""
    memo = _ClauseMemo()
    instances: list[CnfInstance] = []
    for granularity in granularities:
        for key, entries in bucket(pairs, granularity, url_split).items():
            instances.append(build_cnf(key, entries, memo))
    instances.sort(key=lambda inst: inst.key.sort_key())
    return instances


def to_cnf_clauses(instance: CnfInstance) -> list[tuple[int, ...]]:
    """Expand to solver clauses over signed ASNs.

    truth=True  -> one all-positive disjunction (x1 v ... v xk)
    truth=False -> k negative unit clauses (De Morgan on NOT(x1 v ... v xk))
    Unit clauses are deduplicated; positive disjunctions are already distinct.
    """
    positives: list[tuple[int, ...]] = []
    negative_units: set[int] = set()
    for clause in instance.clauses:
        if clause.truth:
            positives.append(tuple(sorted(clause.literal_asns)))
        else:
            negative_units.update(clause.literal_asns)
    return positives + [(-asn,) for asn in sorted(negative_units)]


def _variable_numbering(instance: CnfInstance) -> dict[int, int]:
    # DIMACS variables 1..n in ascending ASN order
    return {asn: i for i, asn in enumerate(instance.variables, start=1)}


def to_dimacs(instance: CnfInstance) -> str:
    """Render one instance in DIMACS CNF, with the AS map in comments."""
    numbering = _variable_numbering(instance)
    clauses = to_cnf_clauses(instance)
    lines = [f"p cnf {len(instance.variables)} {len(clauses)}"]
    for asn, i in numbering.items():
        lines.append(f"c var {i} = AS{asn} {instance.key.anomaly.value}")
    for clause in clauses:
        signed = " ".join(
            str(numbering[lit] if lit > 0 else -numbering[-lit]) for lit in clause
        )
        lines.append(f"{signed} 0")
    return "\n".join(lines) + "\n"


def url_hash(url: str) -> str:
    return hashlib.sha256(url.encode("utf-8")).hexdigest()[:12]


def dimacs_filename(key: BucketKey) -> str:
    return (
        f"{key.anomaly.value}_{url_hash(key.url)}_"
        f"{key.granularity.value}_{key.window_id}.cnf"
    )
