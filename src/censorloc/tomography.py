"""Compile (AS path, verdict) observations into per-bucket CNF instances.

The boolean model: one variable per AS, true meaning "this AS censors the
bucket's (anomaly, URL) in this window". A path that observed the anomaly
says at least one AS on it is responsible (one all-positive disjunction); a
clean path says no AS on it is (one negative unit clause per AS). Every CNF
clause this module emits is therefore either all-positive or a negative unit.

A bucket's CNF depends only on the distinct (path, verdict) observations of
its window, so the pairs are folded once, in any order, into a set per
(anomaly, URL or ``*``, UTC day), and a window's body is the union of its
days' sets. Only leak reads each observation's first record and record count:
``with_sources`` puts them in source_paths, which is empty everywhere else.
"""
from __future__ import annotations

from datetime import date
from functools import cache
from typing import Collection, Iterable, Sequence

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
from .solver import to_cnf_clauses

MERGED_URL = "*"
"""Bucket-key url value when URL splitting is disabled."""

# (path, detected): one distinct observation of a bucket
Observation = tuple[AsPath, bool]
# (anomaly, url or MERGED_URL, UTC date) -> the day's distinct observations
DaySets = dict[tuple[AnomalyType, str, date], set[Observation]]


def build_clause(path: AsPath, detected: bool) -> Clause:
    """One observation on one path becomes one clause over the path's ASes."""
    return Clause(literal_asns=frozenset(path), truth=detected)


def fold_days(pairs: Iterable[tuple[MeasurementRecord, AsPath]], url_split: bool = True) -> DaySets:
    """Each (anomaly, url, UTC day)'s distinct (path, detected)."""
    days: DaySets = {}
    for record, path in pairs:
        cell = (record.anomaly, record.url if url_split else MERGED_URL, record.timestamp.date())
        days.setdefault(cell, set()).add((path, record.detected))
    return days


def bucket(
    pairs: Iterable[tuple[MeasurementRecord, AsPath]] | DaySets,
    granularities: Sequence[TimeGranularity],
    url_split: bool = True,
) -> dict[BucketKey, frozenset[Observation]]:
    """Each (anomaly, url, window)'s distinct observations, the body its CNF
    is built from: a window is a run of whole days, so its body is the union
    of its days' sets. ``pairs`` may be given as their day sets instead.
    """
    days = pairs if isinstance(pairs, dict) else fold_days(pairs, url_split)
    named = {(d, g): window_id(d, g) for d in {cell[2] for cell in days} for g in granularities}
    windows: dict[BucketKey, list[set[Observation]]] = {}
    for (anomaly, url, utc_date), seen in days.items():
        for g in granularities:
            windows.setdefault(BucketKey(anomaly, url, g, named[utc_date, g]), []).append(seen)
    return {key: frozenset().union(*sets) for key, sets in windows.items()}


class _ClauseMemo(dict):
    """One Clause, with its canonical key, per distinct (path, detected), and
    one (variables, clauses) pair per distinct body: a run's windows and URLs
    bin the same paths again and again, and equal bodies share one clause
    tuple."""

    def __missing__(self, key: Observation | frozenset[Observation]) -> tuple[tuple, tuple]:
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


def build_instances(
    pairs: Iterable[tuple[MeasurementRecord, AsPath]] | DaySets,
    granularities: Sequence[TimeGranularity],
    url_split: bool = True,
) -> list[CnfInstance]:
    """All CNF instances for a run, sorted by bucket key, with empty
    source_paths. ``pairs`` may also be given as their day sets."""
    memo = _ClauseMemo()
    instances = [
        CnfInstance(key, *memo[body], ())
        for key, body in bucket(pairs, granularities, url_split).items()
    ]
    instances.sort(key=lambda inst: inst.key.sort_key())
    return instances


def with_sources(
    instances: Iterable[CnfInstance],
    pairs: Iterable[tuple[MeasurementRecord, AsPath]],
    wanted: Collection[BucketKey],
    url_split: bool = True,
) -> list[CnfInstance]:
    """``instances``, those in ``wanted`` with their source_paths: each
    distinct (path, detected) of the window once, with the record_id of its
    first record and its record count, in order of first record. A first is
    the least (timestamp, input position) among the window's records."""
    rows: dict[BucketKey, dict[Observation, list]] = {key: {} for key in wanted}
    groups: dict[tuple, set[TimeGranularity]] = {}  # (anomaly, url) -> wanted granularities
    for key in rows:
        groups.setdefault(key[:2], set()).add(key.granularity)
    name = cache(window_id)  # each (UTC date, granularity) is named once
    holding: dict[tuple, list[dict]] = {}  # day cell -> rows of the wanted windows holding it
    for position, (record, path) in enumerate(pairs):
        cell = (record.anomaly, record.url if url_split else MERGED_URL, record.timestamp.date())
        if cell not in holding:
            keys = [BucketKey(*cell[:2], g, name(cell[2], g)) for g in groups.get(cell[:2], ())]
            holding[cell] = [rows[key] for key in keys if key in rows]
        windows = holding[cell]
        if windows:
            first = (record.timestamp, position, record.record_id)  # positions never tie
            for window in windows:
                entry = window.setdefault((path, record.detected), [first, 0])
                entry[:] = min(entry[0], first), entry[1] + 1
    return [inst._replace(source_paths=tuple(
        (*seen, first[2], count)
        for seen, (first, count) in sorted(rows[inst.key].items(), key=lambda i: i[1][0])
    )) if inst.key in rows else inst for inst in instances]


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
