"""Censor classification, suspect-set reduction, leakage, churn, ablation."""
from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import (
    build_cnf,
    churn_stats_reference,
    forced_true_asns,
    identify_censors_reference,
    make_record,
    ts,
)
from censorloc import solver
from censorloc.analysis import (
    HISTOGRAM_BUCKETS,
    ablate_churn,
    ablate_days,
    churn_stats,
    detect_leakage,
    identify_censors,
    pinning_keys,
    reduction_stats,
    solution_rows_by_anomaly,
    solution_rows_by_granularity,
)
from censorloc.ingest import parse_as_metadata, window_id
from censorloc.model import (
    AnomalyType,
    BackboneStatus,
    BucketKey,
    CensorClass,
    LeakageEdge,
    SolutionStatus,
    SolutionSummary,
    TimeGranularity,
)
from censorloc.tomography import build_instances, fold_days, with_sources

FT = BackboneStatus.FORCED_TRUE
FF = BackboneStatus.FORCED_FALSE
FREE = BackboneStatus.FREE
G = TimeGranularity


def _key(window="2016-05-02", anomaly=AnomalyType.DNS, granularity=G.DAY, url="http://e.com/"):
    return BucketKey(anomaly=anomaly, url=url, granularity=granularity, window_id=window)


def _summary(key, status, count, backbone):
    return SolutionSummary(
        key=key, status=status, model_count_capped=count, backbone=backbone
    )


# ---------------------------------------------------------------------------
# identify_censors

def test_identify_censors_three_way_split():
    unique_key = _key("2016-05-02")
    multi_key = _key("2016-05-03")
    summaries = [
        _summary(unique_key, SolutionStatus.UNIQUE, 1, {10: FT, 20: FF}),
        _summary(multi_key, SolutionStatus.MULTIPLE, 3, {20: FF, 30: FREE, 40: FREE}),
    ]
    verdicts = {(v.asn, v.anomaly): v for v in identify_censors(summaries)}
    assert verdicts[(10, AnomalyType.DNS)].censor_class is CensorClass.CENSOR
    assert verdicts[(10, AnomalyType.DNS)].witnesses == (unique_key,)
    assert verdicts[(20, AnomalyType.DNS)].censor_class is CensorClass.NON_CENSOR
    # a ruled-out AS lists every bucket it appeared in
    assert verdicts[(20, AnomalyType.DNS)].witnesses == (unique_key, multi_key)
    assert verdicts[(30, AnomalyType.DNS)].censor_class is CensorClass.POTENTIAL_CENSOR
    assert verdicts[(30, AnomalyType.DNS)].witnesses == (multi_key,)
    assert verdicts[(40, AnomalyType.DNS)].censor_class is CensorClass.POTENTIAL_CENSOR


def test_identify_censors_unique_witness_outranks_ambiguity():
    unique_key = _key("2016-05-02")
    multi_key = _key("2016-05-03")
    summaries = [
        _summary(multi_key, SolutionStatus.MULTIPLE, 3, {10: FREE, 20: FREE}),
        _summary(unique_key, SolutionStatus.UNIQUE, 1, {10: FT, 20: FF}),
    ]
    verdicts = {v.asn: v for v in identify_censors(summaries)}
    assert verdicts[10].censor_class is CensorClass.CENSOR
    # only the pinning bucket testifies, not the ambiguous one
    assert verdicts[10].witnesses == (unique_key,)


def test_identify_censors_forced_true_in_multiple_is_potential():
    # forced true but other variables stay free: not a unique bucket
    summaries = [
        _summary(_key(), SolutionStatus.MULTIPLE, 3, {10: FT, 20: FREE, 30: FREE}),
    ]
    verdicts = {v.asn: v for v in identify_censors(summaries)}
    assert verdicts[10].censor_class is CensorClass.POTENTIAL_CENSOR


def test_identify_censors_keeps_anomalies_apart():
    summaries = [
        _summary(_key(anomaly=AnomalyType.DNS), SolutionStatus.UNIQUE, 1, {10: FT}),
        _summary(
            _key(anomaly=AnomalyType.RESET), SolutionStatus.MULTIPLE, 3, {10: FREE, 20: FREE}
        ),
    ]
    verdicts = {(v.asn, v.anomaly): v.censor_class for v in identify_censors(summaries)}
    assert verdicts[(10, AnomalyType.DNS)] is CensorClass.CENSOR
    assert verdicts[(10, AnomalyType.RESET)] is CensorClass.POTENTIAL_CENSOR


def test_identify_censors_ignores_unsat_buckets_and_sorts_output():
    summaries = [
        _summary(_key(), SolutionStatus.UNSAT, 0, {}),
        _summary(_key(anomaly=AnomalyType.TTL), SolutionStatus.UNIQUE, 1, {5: FT, 2: FF}),
    ]
    verdicts = identify_censors(summaries)
    assert [(v.asn, v.anomaly.value) for v in verdicts] == [(2, "ttl"), (5, "ttl")]


_ROLES = st.dictionaries(st.integers(1, 6), st.sampled_from(BackboneStatus), max_size=4)


@settings(max_examples=150, deadline=None)
@given(
    backbones=st.lists(_ROLES, min_size=1, max_size=4),
    picks=st.lists(
        st.tuples(
            st.integers(0, 3),
            st.sampled_from(SolutionStatus),
            st.sampled_from([AnomalyType.DNS, AnomalyType.TTL]),
            st.sampled_from(list(G)),
            st.integers(0, 3),
        ),
        max_size=16,
    ),
    order=st.randoms(use_true_random=False),
)
def test_identify_censors_matches_a_per_summary_reference(backbones, picks, order):
    # summaries share backbone objects, as equal bodies do, and may repeat keys
    summaries = [
        _summary(_key(f"w{window}", anomaly, granularity), status, 2, backbones[j % len(backbones)])
        for j, status, anomaly, granularity, window in picks
    ]
    order.shuffle(summaries)
    assert identify_censors(summaries) == identify_censors_reference(summaries)


# ---------------------------------------------------------------------------
# reduction

def test_reduction_stats_cover_only_ambiguous_buckets():
    summaries = [
        _summary(_key("2016-05-02"), SolutionStatus.UNIQUE, 1, {1: FT, 2: FF}),
        _summary(_key("2016-05-03"), SolutionStatus.MULTIPLE, 3, {1: FF, 2: FF, 3: FREE, 4: FREE}),
        _summary(_key("2016-05-04"), SolutionStatus.MULTIPLE, 5, {1: FREE, 2: FREE}),
        _summary(_key("2016-05-05"), SolutionStatus.UNSAT, 0, {}),
    ]
    report = reduction_stats(summaries)
    assert [(s.n_vars, s.n_forced_false) for s in report.stats] == [(4, 2), (2, 0)]
    assert report.stats[0].fraction_eliminated == 0.5
    assert report.mean_fraction == pytest.approx(0.25)
    assert len(report.cdf) == 101
    assert report.cdf[0] == (0.0, 0.5)
    assert report.cdf[49] == (0.49, 0.5)
    assert report.cdf[50] == (0.5, 1.0)
    assert report.cdf[100] == (1.0, 1.0)


def test_reduction_cdf_threshold_is_exact_at_thirds():
    # 1 of 3 eliminated: 1/3 lies strictly between the 33% and 34% thresholds
    summaries = [
        _summary(_key(), SolutionStatus.MULTIPLE, 3, {1: FF, 2: FREE, 3: FREE}),
    ]
    report = reduction_stats(summaries)
    assert report.cdf[33] == (0.33, 0.0)
    assert report.cdf[34] == (0.34, 1.0)


def test_reduction_stats_empty_when_no_multiple_buckets():
    report = reduction_stats(
        [_summary(_key(), SolutionStatus.UNIQUE, 1, {1: FT})]
    )
    assert report.stats == ()
    assert report.cdf == ()
    assert report.mean_fraction is None


# ---------------------------------------------------------------------------
# leakage

_REGISTRY_CSV = (
    "asn,country,name\n"
    "100,US,Vantage Net\n"
    "200,US,Upstream Transit\n"
    "300,CN,Filtering Carrier\n"
    "900,CN,Destination Host Co\n"
)


def _leak_world(window="2016-05-02", repeats=()):
    """Unique bucket: censor 300 pinned on a detected path 100-200-300-900.

    Each id in ``repeats`` adds one more detected record on that same path.
    """
    rows = [
        ("t1", (100, 200, 300, 900), True),
        ("c1", (100, 200, 900), False),
        *((rid, (100, 200, 300, 900), True) for rid in repeats),
    ]
    pairs = [
        (
            make_record(
                record_id=rid,
                url="http://e.com/",
                detected=detected,
                timestamp=f"{window}T12:00:00Z",
            ),
            asns,
        )
        for rid, asns, detected in rows
    ]
    (built,) = build_instances(pairs, [G.DAY])
    assert built.key == _key(window)
    (inst,) = with_sources([built], pairs, {built.key})
    summary = solver.classify(inst)
    assert summary.status is SolutionStatus.UNIQUE
    assert forced_true_asns(summary) == (300,)
    return inst, summary


def test_detect_leakage_counts_upstream_victims():
    registry, _ = parse_as_metadata(_REGISTRY_CSV)
    inst, summary = _leak_world()
    report = detect_leakage([(inst, summary)], registry)
    assert [(e.censor_asn, e.victim_asn) for e in report.edges] == [(300, 100), (300, 200)]
    assert all(e.anomaly is AnomalyType.DNS for e in report.edges)
    assert all(e.witness_record_id == "t1" for e in report.edges)
    (per_censor,) = report.per_censor
    assert per_censor.censor_asn == 300
    assert per_censor.censor_country == "CN"
    assert per_censor.leaks_as == 2
    # both victims are in the US: one distinct foreign country
    assert per_censor.leaks_country == 1
    assert report.skipped_missing_country == 0


def test_detect_leakage_skips_unknown_countries():
    registry, _ = parse_as_metadata(
        "asn,country,name\n100,US,V\n300,CN,F\n900,CN,D\n"
    )  # AS200 has no country entry
    inst, summary = _leak_world()
    report = detect_leakage([(inst, summary)], registry)
    assert [(e.censor_asn, e.victim_asn) for e in report.edges] == [(300, 100)]
    assert report.skipped_missing_country == 1
    # the tally counts records, not distinct paths: a repeat of the detected
    # path skips AS200 again, while the edge keeps its first witness
    inst, summary = _leak_world(repeats=("t2",))
    report = detect_leakage([(inst, summary)], registry)
    assert [(e.censor_asn, e.victim_asn) for e in report.edges] == [(300, 100)]
    assert report.skipped_missing_country == 2
    assert all(e.witness_record_id == "t1" for e in report.edges)


def test_detect_leakage_counts_a_repeated_as_once():
    registry, _ = parse_as_metadata("asn,country,name\n300,CN,F\n")
    pairs = [
        (make_record(record_id="t1", detected=True), (100, 300, 200, 300, 900)),
        (make_record(record_id="c1", detected=False), (100, 200, 900)),
    ]
    (built,) = build_instances(pairs, [G.DAY])
    (inst,) = with_sources([built], pairs, {built.key})
    summary = solver.classify(inst)
    assert summary.status is SolutionStatus.UNIQUE
    assert forced_true_asns(summary) == (300,)
    report = detect_leakage([(inst, summary)], registry)
    # AS300 appears twice but censors once: victim AS100 is skipped once
    assert report.edges == ()
    assert report.skipped_missing_country == 1


def test_detect_leakage_dedups_across_buckets():
    registry, _ = parse_as_metadata(_REGISTRY_CSV)
    first = _leak_world("2016-05-02")
    second = _leak_world("2016-05-03")
    report = detect_leakage([second, first], registry)
    assert len(report.edges) == 2
    # the witness comes from the first bucket in key order
    assert all(e.witness_key.window_id == "2016-05-02" for e in report.edges)
    (per_censor,) = report.per_censor
    assert per_censor.leaks_as == 2 and per_censor.leaks_country == 1


def test_detect_leakage_ignores_ambiguous_and_unsat_buckets():
    registry, _ = parse_as_metadata(_REGISTRY_CSV)
    inst = build_cnf(_key(), [((100, 300, 900), True, "t1", 1)])
    summary = solver.classify(inst)
    assert summary.status is SolutionStatus.MULTIPLE
    report = detect_leakage([(inst, summary)], registry)
    assert report.edges == ()
    assert report.per_censor == ()


def test_detect_leakage_same_country_spill_is_not_a_country_leak():
    registry, _ = parse_as_metadata(
        "asn,country,name\n100,CN,V\n200,CN,T\n300,CN,F\n900,CN,D\n"
    )
    inst, summary = _leak_world()
    report = detect_leakage([(inst, summary)], registry)
    (per_censor,) = report.per_censor
    assert per_censor.leaks_as == 2
    assert per_censor.leaks_country == 0


def _leaky_pairs(rng: random.Random):
    """Records over a small pool of paths, so paths repeat; a record is
    detected when its path crosses a planted censor, so many buckets pin
    their censors and leak upstream."""
    censors = set(rng.sample(range(3, 8), rng.randint(1, 2)))
    paths = []
    for _ in range(rng.randint(3, 10)):
        asns = [rng.choice((1, 2))]
        for _ in range(rng.randint(1, 4)):
            nxt = rng.randint(1, 7)
            if nxt != asns[-1]:
                asns.append(nxt)
        paths.append(tuple(asns))
    pairs = []
    for i in range(rng.randint(5, 40)):
        path = rng.choice(paths)
        record = make_record(
            record_id=f"r{i}",
            anomaly=rng.choice((AnomalyType.DNS, AnomalyType.RESET)),
            detected=bool(censors & set(path)),
            timestamp=f"2016-05-{rng.randint(1, 10):02d}T{rng.randint(0, 23):02d}:00:00Z",
            vantage_asn=path[0],
        )
        pairs.append((record, path))
    return pairs


def _verbatim_leakage(pairs, solved, countries):
    """The leakage walk over every record of each bucket, in timestamp order
    (ties in input order): (edges, per-censor counts, skipped tally)."""
    edges = {}
    skipped = 0
    order = sorted(range(len(pairs)), key=lambda i: (pairs[i][0].timestamp, i))
    for inst, summary in sorted(solved, key=lambda t: t[0].key.sort_key()):
        if summary.status is not SolutionStatus.UNIQUE:
            continue
        key, backbone = inst.key, summary.backbone
        for i in order:
            record, path = pairs[i]
            in_bucket = (record.anomaly, record.url) == (key.anomaly, key.url)
            if not in_bucket or window_id(record.timestamp, key.granularity) != key.window_id:
                continue
            if not record.detected:
                continue
            # each distinct AS once, at its first occurrence on the path
            distinct = list(dict.fromkeys(path))
            for censor in [asn for asn in distinct if backbone.get(asn) is FT]:
                for victim in distinct[: distinct.index(censor)]:
                    if backbone.get(victim) is not FF:
                        continue
                    if censor not in countries or victim not in countries:
                        skipped += 1
                        continue
                    edges.setdefault((censor, victim, key.anomaly), LeakageEdge(
                        censor_asn=censor,
                        victim_asn=victim,
                        censor_country=countries[censor],
                        victim_country=countries[victim],
                        anomaly=key.anomaly,
                        witness_key=key,
                        witness_record_id=record.record_id,
                    ))
    per_censor = {}
    for edge in edges.values():
        victims, foreign = per_censor.setdefault(edge.censor_asn, (set(), set()))
        victims.add(edge.victim_asn)
        if edge.crosses_border:
            foreign.add(edge.victim_country)
    counts = {c: (len(v), len(f)) for c, (v, f) in per_censor.items()}
    ordered = [edges[k] for k in sorted(edges, key=lambda k: (k[0], k[1], k[2].value))]
    return ordered, counts, skipped


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_detect_leakage_over_distinct_observations_matches_a_verbatim_walk(seed):
    rng = random.Random(seed)
    pairs = _leaky_pairs(rng)
    # some ASes have no country, so the skipped tally moves too
    countries = {asn: rng.choice(("US", "CN")) for asn in range(1, 8) if rng.random() < 0.7}
    instances = build_instances(pairs, list(G))
    summaries = [solver.classify(inst) for inst in instances]
    # as leak runs it: source paths only where a unique bucket pins a censor
    solved = list(zip(with_sources(instances, pairs, pinning_keys(summaries)), summaries))
    report = detect_leakage(solved, countries)
    edges, counts, skipped = _verbatim_leakage(pairs, solved, countries)
    assert list(report.edges) == edges
    assert {c.censor_asn: (c.leaks_as, c.leaks_country) for c in report.per_censor} == counts
    assert report.skipped_missing_country == skipped


# ---------------------------------------------------------------------------
# churn

def test_churn_stats_fraction_over_multi_measurement_cells():
    p1 = (100, 200, 900)
    p2 = (100, 300, 900)
    observations = [
        # churning pair: two paths inside one week
        (100, 900, ts("2016-05-02T12:00:00Z"), p1),
        (100, 900, ts("2016-05-03T12:00:00Z"), p2),
        (100, 900, ts("2016-05-04T12:00:00Z"), p1),
        # stable pair, measured twice
        (100, 901, ts("2016-05-02T12:00:00Z"), p1),
        (100, 901, ts("2016-05-03T12:00:00Z"), p1),
        # single-shot pair never enters the fraction
        (101, 900, ts("2016-05-02T12:00:00Z"), p1),
    ]
    report = churn_stats(observations, G.WEEK)
    assert report.multi_measurement_cells == 2
    assert report.churning_cells == 1
    assert report.fraction_churning == 0.5
    assert report.histogram == {"1": 2, "2": 1, "3": 0, "4": 0, "5+": 0}
    assert sum(report.histogram.values()) == len(report.cells)
    cells = {(c.vantage_asn, c.dst_asn): c for c in report.cells}
    assert cells[(100, 900)].n_measurements == 3
    assert cells[(100, 900)].distinct_paths == 2


def test_churn_stats_windows_split_cells():
    p1 = (100, 200, 900)
    p2 = (100, 300, 900)
    observations = [
        (100, 900, ts("2016-05-02T12:00:00Z"), p1),
        (100, 900, ts("2016-06-02T12:00:00Z"), p2),
    ]
    by_month = churn_stats(observations, G.MONTH)
    # one measurement per month: no multi-measurement cell at all
    assert by_month.fraction_churning is None
    assert by_month.histogram["1"] == 2
    by_year = churn_stats(observations, G.YEAR)
    assert by_year.fraction_churning == 1.0


def test_churn_histogram_five_plus_bucket():
    paths = [(100, 200 + i, 900) for i in range(6)]
    observations = [
        (100, 900, ts(f"2016-05-0{i + 1}T12:00:00Z"), p) for i, p in enumerate(paths)
    ]
    report = churn_stats(observations, G.MONTH)
    assert report.histogram == {"1": 0, "2": 0, "3": 0, "4": 0, "5+": 1}
    assert HISTOGRAM_BUCKETS == ("1", "2", "3", "4", "5+")


# UTC days across 2015-W53 / 2016-W01 and a year boundary, and month ends
_CHURN_DAYS = [
    *(f"2015-12-{d}" for d in range(25, 32)),
    *(f"2016-01-{d:02d}" for d in range(1, 11)),
    "2016-01-31", "2016-02-01", "2016-02-29", "2016-03-01", "2016-04-30", "2016-05-01",
]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_churn_stats_matches_a_per_record_reference(seed):
    rng = random.Random(seed)
    paths = [(1, 5, 9), (1, 6, 9), (2, 5, 8), (2, 7, 6, 8), (1, 5, 8)]
    # drawn in random order, not in time order
    observations = []
    for _ in range(rng.randint(1, 80)):
        path = rng.choice(paths)
        stamp = f"{rng.choice(_CHURN_DAYS)}T{rng.randint(0, 23):02d}:{rng.randint(0, 59):02d}:00Z"
        observations.append((path[0], path[-1], ts(stamp), path))
    for granularity in G:
        assert churn_stats(observations, granularity) == churn_stats_reference(
            observations, granularity
        )


# ---------------------------------------------------------------------------
# ablation

def test_ablate_churn_keeps_first_path_per_pair():
    p1 = (100, 200, 900)
    p2 = (100, 300, 900)
    rows = [
        (make_record(record_id="a", timestamp="2016-05-02T12:00:00Z"), p1),
        (make_record(record_id="b", timestamp="2016-05-03T12:00:00Z"), p2),
        (make_record(record_id="c", timestamp="2016-05-04T12:00:00Z"), p1),
    ]
    kept = ablate_churn(rows)
    assert [r.record_id for r, _ in kept] == ["a", "c"]
    assert all(path == p1 for _, path in kept)


def test_ablate_churn_anchor_is_chronological_not_input_order():
    p1 = (100, 200, 900)
    p2 = (100, 300, 900)
    rows = [
        (make_record(record_id="later", timestamp="2016-05-03T12:00:00Z"), p2),
        (make_record(record_id="first", timestamp="2016-05-02T12:00:00Z"), p1),
    ]
    kept = ablate_churn(rows)
    assert [r.record_id for r, _ in kept] == ["first"]


def test_ablate_churn_pairs_are_independent():
    p1 = (100, 200, 900)
    p2 = (100, 300, 901)
    rows = [
        (make_record(record_id="a", timestamp="2016-05-02T12:00:00Z"), p1),
        (make_record(record_id="b", timestamp="2016-05-02T13:00:00Z"), p2),
        (make_record(record_id="c", timestamp="2016-05-02T14:00:00Z", vantage_asn=101), p1),
    ]
    # three distinct (vantage, dst) pairs: everything survives
    kept = ablate_churn(rows)
    assert len(kept) == 3


def test_ablate_churn_timestamp_tie_keeps_input_order_anchor():
    p1 = (100, 200, 900)
    p2 = (100, 300, 900)
    rows = [
        (make_record(record_id="a", timestamp="2016-05-02T12:00:00Z"), p2),
        (make_record(record_id="b", timestamp="2016-05-02T12:00:00Z"), p1),
    ]
    kept = ablate_churn(rows)
    assert [r.record_id for r, _ in kept] == ["a"]


_ABLATE_PATHS = [(100, 200, 900), (100, 300, 900), (100, 200, 300, 900), (101, 200, 900)]


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.tuples(
    st.sampled_from(_ABLATE_PATHS), st.integers(0, 9), st.booleans(),
    st.sampled_from(list(AnomalyType)), st.sampled_from(["http://a.com/", "http://b.com/"]),
), max_size=30))
def test_ablate_days_are_the_day_sets_of_the_kept_pairs(rows):
    # ten hours over two days, so time ties and shared days both occur
    pairs = [
        (make_record(record_id=f"r{i}", timestamp=f"2016-05-0{2 + hour // 5}T{hour:02d}:00:00Z",
                     detected=detected, anomaly=anomaly, url=url, vantage_asn=path[0]), path)
        for i, (path, hour, detected, anomaly, url) in enumerate(rows)
    ]
    for url_split in (True, False):
        kept = ablate_churn(pairs)
        assert ablate_days(fold_days(pairs, url_split), kept) == fold_days(kept, url_split)


# ---------------------------------------------------------------------------
# solution-share tables

def test_solution_rows_by_granularity_order_and_shares():
    summaries = [
        _summary(_key(granularity=G.WEEK, window="2016-W18"), SolutionStatus.UNIQUE, 1, {1: FT}),
        _summary(_key("2016-05-02"), SolutionStatus.MULTIPLE, 5, {1: FREE, 2: FREE, 3: FREE}),
        _summary(_key("2016-05-03"), SolutionStatus.UNSAT, 0, {}),
        _summary(_key("2016-05-04"), SolutionStatus.MULTIPLE, 3, {1: FREE, 2: FREE}),
        _summary(_key("2016-05-05"), SolutionStatus.UNIQUE, 1, {2: FT}),
    ]
    rows = solution_rows_by_granularity(summaries, cap=5)
    assert [row["granularity"] for row in rows] == ["day", "week"]
    day = rows[0]
    assert day["cnf_count"] == 4
    assert day["unsat"] == 1
    assert day["unique"] == 1
    assert day["multiple"] == 2
    assert day["at_cap"] == 1
    assert day["share_at_cap"] == 0.25
    assert day["share_unsat"] + day["share_unique"] + day["share_multiple"] == 1.0
    week = rows[1]
    assert week["cnf_count"] == 1 and week["unique"] == 1


def test_solution_rows_by_anomaly_sorted_alphabetically():
    summaries = [
        _summary(_key(anomaly=AnomalyType.TTL), SolutionStatus.UNIQUE, 1, {1: FT}),
        _summary(_key(anomaly=AnomalyType.BLOCKPAGE), SolutionStatus.UNSAT, 0, {}),
    ]
    rows = solution_rows_by_anomaly(summaries, cap=5)
    assert [row["anomaly"] for row in rows] == ["blockpage", "ttl"]
