"""Compile (AS path, verdict) observations into per-bucket CNF instances.

The boolean model: one variable per AS, true meaning "this AS censors the
bucket's (anomaly, URL) in this window". A path that observed the anomaly
says at least one AS on it is responsible (one all-positive disjunction); a
clean path says no AS on it is (one negative unit clause per AS). Every CNF
clause this module emits is therefore either all-positive or a negative unit.
A bucket keeps each distinct (path, verdict) once, with its first record_id
and the number of records that made it, as CnfInstance.source_paths.
"""
from __future__ import annotations

from typing import Iterable, Sequence

from .ingest import window_id
from .model import (
    AsPath,
    BucketKey,
    Clause,
    CnfInstance,
    MeasurementRecord,
    TimeGranularity,
)
from .solver import to_cnf_clauses

MERGED_URL = "*"
"""Bucket-key url value when URL splitting is disabled."""

# (path, detected, first record_id, record count) of a bucket, into CNF building
Observation = tuple[AsPath, bool, str, int]


def build_clause(path: AsPath, detected: bool) -> Clause:
    """One observation on one path becomes one clause over the path's ASes."""
    return Clause(literal_asns=frozenset(path), truth=detected)


def fold_days(items: Iterable[tuple], granularities: Sequence[TimeGranularity]) -> dict:
    """Fold ``(group, UTC date, observation, first)`` items into
    ``{(group, granularity, window id): {observation: [first, count]}}``.

    Each (group, UTC day) keeps its distinct observations in order of first
    appearance. A window is a run of whole days, so merging its days in date
    order gives the order, firsts and counts of its items: items in time
    order give each observation the first item of its window.
    """
    days: dict[tuple, dict] = {}
    for group, utc_date, observation, first in items:
        day = days.get((group, utc_date))
        if day is None:
            day = days[group, utc_date] = {}
        seen = day.get(observation)
        if seen is None:
            day[observation] = [first, 1]
        else:
            seen[1] += 1
    windows: dict[tuple, dict] = {}
    named = {(d, g): window_id(d, g) for d in {day for _, day in days} for g in granularities}
    # a window's entries are shared with its days, so a merge replaces, never mutates
    for (group, utc_date), day in days.items():
        for granularity in granularities:
            key = (group, granularity, named[utc_date, granularity])
            window = windows.get(key)
            if window is None:
                windows[key] = dict(day)
                continue
            for observation, entry in day.items():
                seen = window.get(observation)
                window[observation] = entry if seen is None else [seen[0], seen[1] + entry[1]]
    return windows


def bucket(
    pairs: Iterable[tuple[MeasurementRecord, AsPath]],
    granularities: Sequence[TimeGranularity],
    url_split: bool = True,
) -> dict[BucketKey, list[Observation]]:
    """Group inferred paths by (anomaly, url, window) into distinct observations.

    The pairs are folded in timestamp order (ties keep input order), so each
    (path, detected) keeps the first record of its window.
    """
    items = (
        ((record.anomaly, record.url if url_split else MERGED_URL), record.timestamp.date(),
         (path, record.detected), record.record_id)
        for record, path in sorted(pairs, key=lambda pair: pair[0].timestamp)
    )
    return {
        BucketKey(*group, granularity, name): [(*seen, *entry) for seen, entry in window.items()]
        for (group, granularity, name), window in fold_days(items, granularities).items()
    }


class _ClauseMemo(dict):
    """One Clause, with its canonical key, per distinct (path, detected), and
    one (variables, clauses) pair per distinct frozenset of them: a run's
    windows and URLs bin the same paths again and again, and equal bodies
    share one clause tuple."""

    def __missing__(self, key: tuple[AsPath, bool] | frozenset) -> tuple[tuple, tuple]:
        if type(key) is frozenset:
            seen = dict(map(self.__getitem__, key))
            clauses = tuple(seen[k] for k in sorted(seen))
            variables = frozenset().union(*(clause.literal_asns for clause in clauses))
            entry = (tuple(sorted(variables)), clauses)
        else:
            clause = build_clause(*key)
            entry = (clause.canonical_key(), clause)
        self[key] = entry
        return entry


def build_cnf(
    key: BucketKey, observations: Sequence[Observation], memo: _ClauseMemo | None = None
) -> CnfInstance:
    """Build one bucket's CNF instance from its distinct observations.

    Clauses are deduplicated per (literal set, truth); contradictory pairs
    (same set, both truths) are retained and left for the solver to expose as
    unsatisfiable. source_paths keeps the observations as given. ``memo``
    shares clauses, and whole bodies, between the buckets of one run.
    """
    if not observations:
        raise ValueError("a bucket cannot be empty")
    if memo is None:
        memo = _ClauseMemo()
    body = frozenset([(path, detected) for path, detected, _, _ in observations])
    return CnfInstance(key, *memo[body], tuple(observations))


def build_instances(
    pairs: Sequence[tuple[MeasurementRecord, AsPath]],
    granularities: Sequence[TimeGranularity],
    url_split: bool = True,
) -> list[CnfInstance]:
    """All CNF instances for a run, sorted by bucket key."""
    memo = _ClauseMemo()
    instances = [
        build_cnf(key, observations, memo)
        for key, observations in bucket(pairs, granularities, url_split).items()
    ]
    instances.sort(key=lambda inst: inst.key.sort_key())
    return instances


def to_dimacs(instance: CnfInstance) -> str:
    """Render one instance in DIMACS CNF, with the AS map in comments."""
    # DIMACS variables 1..n in ascending ASN order
    numbering = {asn: i for i, asn in enumerate(instance.variables, start=1)}
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
    import hashlib  # only export-dimacs names files, so only it loads OpenSSL

    return hashlib.sha256(url.encode("utf-8")).hexdigest()[:12]


def dimacs_filename(key: BucketKey) -> str:
    return (
        f"{key.anomaly.value}_{url_hash(key.url)}_"
        f"{key.granularity.value}_{key.window_id}.cnf"
    )
