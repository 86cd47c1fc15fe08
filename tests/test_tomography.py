"""Observation-to-CNF compilation: bucketing, clause shapes, DIMACS output."""
from __future__ import annotations

import hashlib
import random
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import assert_canonical_cnf, build_cnf, make_record
from censorloc.ingest import window_id
from censorloc.model import (
    AnomalyType,
    BucketKey,
    Clause,
    CnfInstance,
    TimeGranularity,
    format_timestamp,
)
from censorloc.tomography import (
    MERGED_URL,
    bucket,
    build_clause,
    build_instances,
    dimacs_filename,
    to_cnf_clauses,
    to_dimacs,
    url_hash,
    with_sources,
)

G = TimeGranularity


def _key(**overrides) -> BucketKey:
    base = dict(
        anomaly=AnomalyType.DNS,
        url="http://example.com/",
        granularity=G.DAY,
        window_id="2016-05-02",
    )
    base.update(overrides)
    return BucketKey(**base)


def _sources(pairs, granularities, url_split=True) -> dict[BucketKey, list]:
    """Every bucket's source rows, as leak attribution reads them."""
    instances = build_instances(pairs, granularities, url_split)
    sourced = with_sources(instances, pairs, [inst.key for inst in instances], url_split)
    return {inst.key: list(inst.source_paths) for inst in sourced}


def test_build_clause_maps_verdict_to_truth():
    path = (100, 200, 900)
    detected = build_clause(path, True)
    assert detected == Clause(literal_asns=frozenset({100, 200, 900}), truth=True)
    clean = build_clause(path, False)
    assert clean.truth is False


def test_bucket_groups_by_anomaly_url_and_window():
    pairs = [
        (make_record(record_id="a", timestamp="2016-05-02T12:00:00Z"), (100, 900)),
        (make_record(record_id="b", timestamp="2016-05-03T12:00:00Z"), (100, 200, 900)),
        (
            make_record(record_id="c", timestamp="2016-05-02T13:00:00Z", url="http://other.net/"),
            (100, 900),
        ),
        (
            make_record(record_id="d", timestamp="2016-05-02T14:00:00Z", anomaly=AnomalyType.RESET),
            (100, 900),
        ),
    ]
    grouped = bucket(pairs, [G.DAY])
    assert len(grouped) == 4

    # same records merge at month granularity except along anomaly/url
    grouped_month = bucket(pairs, [G.MONTH])
    assert len(grouped_month) == 3
    key = _key(granularity=G.MONTH, window_id="2016-05")
    assert [record_id for _, _, record_id, _ in _sources(pairs, [G.MONTH])[key]] == ["a", "b"]
    # one call buckets every granularity it is given
    assert bucket(pairs, [G.DAY, G.MONTH]) == {**grouped, **grouped_month}


def test_bucket_orders_entries_by_timestamp_then_input_order():
    early = make_record(record_id="early", timestamp="2016-05-02T01:00:00Z")
    late = make_record(record_id="late", timestamp="2016-05-02T23:00:00Z")
    tied = make_record(record_id="tied", timestamp="2016-05-02T01:00:00Z")
    pairs = [(late, (100, 900)), (early, (200, 900)), (tied, (300, 900))]
    (entries,) = _sources(pairs, [G.DAY]).values()
    assert [record_id for _, _, record_id, _ in entries] == ["early", "tied", "late"]


def test_bucket_folds_repeats_into_first_record_and_count():
    def record(rid, stamp, detected=True):
        return make_record(record_id=rid, timestamp=stamp, detected=detected)

    hit, other = (100, 300, 900), (100, 200, 900)
    pairs = [
        (record("d2-late", "2016-05-03T20:00:00Z"), hit),
        (record("d2-early", "2016-05-03T08:00:00Z"), other),
        (record("d1", "2016-05-02T12:00:00Z"), hit),
        (record("d2-clean", "2016-05-03T09:00:00Z", detected=False), hit),
        (record("d1-tied", "2016-05-02T12:00:00Z"), hit),
    ]
    grouped = _sources(pairs, [G.DAY, G.WEEK])
    assert grouped[_key(window_id="2016-05-03")] == [
        (other, True, "d2-early", 1),
        (hit, False, "d2-clean", 1),
        (hit, True, "d2-late", 1),
    ]
    # the week merges its days in date order: a repeat keeps its first
    # record and adds its count
    assert grouped[_key(granularity=G.WEEK, window_id="2016-W18")] == [
        (hit, True, "d1", 3),
        (other, True, "d2-early", 1),
        (hit, False, "d2-clean", 1),
    ]


def test_bucket_url_split_off_merges_urls():
    pairs = [
        (make_record(record_id="a", url="http://one.com/"), (100, 900)),
        (make_record(record_id="b", url="http://two.com/"), (100, 900)),
    ]
    grouped = bucket(pairs, [G.DAY], url_split=False)
    assert len(grouped) == 1
    (key,) = grouped.keys()
    assert key.url == MERGED_URL


def test_build_cnf_dedups_but_keeps_contradictions():
    entries = [
        ((100, 200, 900), True, "r1", 2),
        ((200, 100, 900), True, "r2", 1),
        ((100, 200, 900), False, "r3", 1),
        ((100, 900), False, "r4", 1),
    ]
    inst = build_cnf(_key(), entries)
    assert inst.variables == (100, 200, 900)
    # duplicates collapse; the contradictory pair survives as two clauses
    # (canonical order: truths first, then lexicographic on sorted literals)
    assert inst.clauses == (
        Clause(literal_asns=frozenset({100, 200, 900}), truth=True),
        Clause(literal_asns=frozenset({100, 200, 900}), truth=False),
        Clause(literal_asns=frozenset({100, 900}), truth=False),
    )
    assert inst.source_paths == tuple(entries)


def test_build_cnf_refuses_empty_bucket():
    with pytest.raises(ValueError, match="cannot be empty"):
        build_cnf(_key(), [])


def test_to_cnf_clauses_expands_by_de_morgan():
    entries = [
        ((100, 200, 900), True, "r1", 1),
        ((100, 300, 900), False, "r2", 1),
    ]
    inst = build_cnf(_key(), entries)
    clauses = to_cnf_clauses(inst)
    # one all-positive disjunction, then one negative unit per clean-path AS
    assert clauses == [(100, 200, 900), (-100,), (-300,), (-900,)]


def test_to_cnf_clauses_dedups_negative_units_across_paths():
    entries = [
        ((100, 200, 900), False, "r1", 1),
        ((100, 300, 900), False, "r2", 1),
    ]
    inst = build_cnf(_key(), entries)
    assert to_cnf_clauses(inst) == [(-100,), (-200,), (-300,), (-900,)]


def test_build_instances_covers_each_granularity_and_sorts():
    pairs = [
        (make_record(record_id="a", timestamp="2016-05-02T12:00:00Z"), (100, 900)),
        (make_record(record_id="b", timestamp="2016-05-09T12:00:00Z"), (100, 900)),
    ]
    instances = build_instances(pairs, [G.DAY, G.WEEK, G.MONTH, G.YEAR])
    # two days, two ISO weeks, one month, one year
    by_granularity = {}
    for inst in instances:
        by_granularity.setdefault(inst.key.granularity, []).append(inst)
    assert len(by_granularity[G.DAY]) == 2
    assert len(by_granularity[G.WEEK]) == 2
    assert len(by_granularity[G.MONTH]) == 1
    assert len(by_granularity[G.YEAR]) == 1
    keys = [inst.key.sort_key() for inst in instances]
    assert keys == sorted(keys)


# ---------------------------------------------------------------------------
# DIMACS rendering

def test_to_dimacs_frozen_text():
    entries = [
        ((100, 200, 900), True, "r1", 1),
        ((100, 300, 900), False, "r2", 1),
    ]
    inst = build_cnf(_key(), entries)
    assert to_dimacs(inst) == (
        "p cnf 4 4\n"
        "c var 1 = AS100 dns\n"
        "c var 2 = AS200 dns\n"
        "c var 3 = AS300 dns\n"
        "c var 4 = AS900 dns\n"
        "1 2 4 0\n"
        "-1 0\n"
        "-3 0\n"
        "-4 0\n"
    )


def test_dimacs_numbering_follows_ascending_asn():
    entries = [((900, 100), True, "r1", 1)]
    inst = build_cnf(_key(), entries)
    text = to_dimacs(inst)
    assert "c var 1 = AS100 dns" in text
    assert "c var 2 = AS900 dns" in text
    assert "1 2 0" in text


def test_url_hash_is_sha256_prefix():
    url = "http://example.com/"
    assert url_hash(url) == hashlib.sha256(url.encode()).hexdigest()[:12]
    assert len(url_hash(url)) == 12


def test_dimacs_filename_layout():
    key = _key(granularity=G.WEEK, window_id="2016-W18")
    assert dimacs_filename(key) == f"dns_{url_hash(key.url)}_week_2016-W18.cnf"


# ---------------------------------------------------------------------------
# properties

def _random_pairs(rng: random.Random):
    """Records over a small pool of paths, so paths repeat, at random hours
    of days that span a month, an ISO week across a new year and a year."""
    anomalies = list(AnomalyType)
    paths = []
    for _ in range(rng.randint(1, 8)):
        asns = [rng.randint(1, 50)]
        for _ in range(rng.randint(0, 4)):
            nxt = rng.randint(1, 50)
            if nxt != asns[-1]:
                asns.append(nxt)
        paths.append(tuple(asns))
    pairs = []
    for i in range(rng.randint(1, 40)):
        path = rng.choice(paths)
        stamp = datetime(2015, 12, 20, tzinfo=timezone.utc) + timedelta(
            days=rng.randint(0, 45), hours=rng.randint(0, 23)
        )
        record = make_record(
            record_id=f"r{i}",
            anomaly=rng.choice(anomalies),
            url=rng.choice(["http://a.com/", "http://b.com/"]),
            detected=rng.random() < 0.5,
            timestamp=format_timestamp(stamp),
            vantage_asn=path[0],
        )
        pairs.append((record, path))
    return pairs


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_bucketing_partitions_the_input(seed):
    pairs = _random_pairs(random.Random(seed))
    assert {key.granularity for key in bucket(pairs, [G.WEEK])} == {G.WEEK}
    grouped = _sources(pairs, list(G))
    for granularity in G:
        counts = [
            count
            for key, observations in grouped.items()
            if key.granularity is granularity
            for _, _, _, count in observations
        ]
        assert sum(counts) == len(pairs)
        assert min(counts) >= 1
    bodies = bucket(pairs, list(G))
    assert bodies.keys() == grouped.keys()
    for key, observations in grouped.items():
        assert len(observations) >= 1
        distinct = {(path, detected) for path, detected, _, _ in observations}
        assert len(distinct) == len(observations)
        assert bodies[key] == distinct


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), granularity=st.sampled_from(list(G)))
def test_every_emitted_clause_is_positive_or_negative_unit(seed, granularity):
    pairs = _random_pairs(random.Random(seed))
    for inst in build_instances(pairs, [granularity]):
        for clause in to_cnf_clauses(inst):
            assert clause, "empty clause emitted"
            is_negative_unit = len(clause) == 1 and clause[0] < 0
            assert is_negative_unit or all(lit > 0 for lit in clause)
        # every source path row is over the instance's variables
        for path, _, _, _ in inst.source_paths:
            assert set(path) <= set(inst.variables)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), url_split=st.booleans())
def test_build_instances_matches_a_per_bucket_reference(seed, url_split):
    pairs = _random_pairs(random.Random(seed))
    expected = []
    for granularity in G:
        groups: dict[tuple, list] = {}
        for i, (record, path) in enumerate(pairs):
            url = record.url if url_split else MERGED_URL
            window = window_id(record.timestamp, granularity)
            groups.setdefault((record.anomaly, url, window), []).append(
                (record.timestamp, i, path, record.detected, record.record_id)
            )
        for (anomaly, url, window), rows in groups.items():
            rows.sort(key=lambda row: row[:2])
            # fold the verbatim rows into ordered distinct observations
            folded: dict[tuple, list] = {}
            for _, _, path, detected, rid in rows:
                folded.setdefault((path, detected), [rid, 0])[1] += 1
            clauses = sorted(
                {Clause(frozenset(path), detected) for path, detected in folded},
                key=Clause.canonical_key,
            )
            expected.append(CnfInstance(
                key=BucketKey(anomaly, url, granularity, window),
                variables=tuple(sorted(frozenset().union(*(c.literal_asns for c in clauses)))),
                clauses=tuple(clauses),
                source_paths=tuple(
                    (path, detected, rid, count)
                    for (path, detected), (rid, count) in folded.items()
                ),
            ))
    expected.sort(key=lambda inst: inst.key.sort_key())
    built = build_instances(pairs, list(G), url_split)
    assert built == [inst._replace(source_paths=()) for inst in expected]
    assert with_sources(built, pairs, [inst.key for inst in built], url_split) == expected
    for inst in built:
        assert_canonical_cnf(inst)
    # the buckets of all four granularities share one Clause per distinct
    # (path, detected)
    shared = {id(clause) for inst in built for clause in inst.clauses}
    assert len(shared) <= len({(path, record.detected) for record, path in pairs})
    # and equal bodies share one clause tuple
    bodies = {inst.clauses: inst.clauses for inst in built}
    assert all(inst.clauses is bodies[inst.clauses] for inst in built)
