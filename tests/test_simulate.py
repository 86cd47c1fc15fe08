"""Synthetic world generation: determinism, structure, scoring."""
from __future__ import annotations

import time
from datetime import date

import pytest

from censorloc.model import AnomalyType, BucketKey, CensorClass, CensorVerdict, TimeGranularity
from censorloc.simulate import (
    CensorPolicy,
    SimParams,
    SimulationError,
    as_metadata_text,
    evaluate,
    generate_measurements,
    generate_world,
    ground_truth,
    ground_truth_from_obj,
    ground_truth_obj,
    pfx2as_text,
)

SMALL = dict(seed=7, n_ases=14, n_vantage=3, n_urls=3, n_censors=1, days=5)


def _small_params(**overrides) -> SimParams:
    merged = {**SMALL, **overrides}
    return SimParams(**merged)


def _measure(world, params):
    """The generated records as a list, and the ground truth they log."""
    drawn = list(generate_measurements(world, params))
    path_log = {record["record_id"]: path for record, path in drawn}
    return [record for record, _ in drawn], ground_truth(world, path_log)


# ---------------------------------------------------------------------------
# parameter validation

@pytest.mark.parametrize(
    "overrides, message",
    [
        (dict(n_ases=0), "must all be >= 1"),
        (dict(days=0), "must all be >= 1"),
        (dict(n_urls=0), "must all be >= 1"),
        (dict(n_vantage=0), "n_vantage must be in"),
        (dict(n_vantage=15), "n_vantage must be in"),
        (dict(n_censors=-1), "cannot be negative"),
        (dict(path_pool_size=0), "path_pool_size must be >= 1"),
        (dict(churn_prob=1.5), "churn_prob must be within"),
        (dict(noise_prob=-0.1), "noise_prob must be within"),
        (dict(nonresponsive_prob=2.0), "nonresponsive_prob must be within"),
        (dict(anomalies=()), "at least one anomaly"),
        (dict(active_day_range=(0, 3)), "active_day_range"),
        (dict(active_day_range=(4, 2)), "active_day_range"),
        (dict(active_day_range=(1, 9)), "active_day_range"),
        (dict(start_date=date(9999, 12, 31), days=2), "runs past the year 9999"),
    ],
)
def test_params_validation(overrides, message):
    with pytest.raises(SimulationError, match=message):
        _small_params(**overrides)


def test_world_needs_transit_ases():
    # 3 vantage + 1 censor + 3 urls leaves a single transit AS out of 8
    with pytest.raises(SimulationError, match="need at least 2"):
        generate_world(_small_params(n_ases=8))


def test_world_needs_one_url_per_censor():
    with pytest.raises(SimulationError, match="one URL per censor"):
        generate_world(_small_params(n_censors=4))


@pytest.mark.parametrize("n_ases, routes", [(9, 2), (10, 12), (14, 36)])
def test_world_pools_reach_every_route_of_the_corridor(n_ases, routes):
    # 7 reserved ASes leave 2, 3 or 4+ transit ASes; corridors hold up to 4
    world = generate_world(_small_params(n_ases=n_ases, path_pool_size=routes))
    assert all(len(pool) == routes for pool in world.pools.values())
    with pytest.raises(SimulationError, match=rf"\(only {routes} constructible\)"):
        generate_world(_small_params(n_ases=n_ases, path_pool_size=routes + 1))


def test_impossible_path_pool_fails_without_sampling():
    start = time.perf_counter()
    with pytest.raises(SimulationError, match=r"\(only 36 constructible\)"):
        generate_world(_small_params(n_ases=20, days=1, path_pool_size=10**9))
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# world structure

def test_world_partitions_roles():
    params = _small_params()
    world = generate_world(params)
    assert len(world.ases) == params.n_ases
    assert len(world.vantage_asns) == params.n_vantage
    assert len(world.urls) == params.n_urls
    dst_asns = set(world.url_dst.values())
    assert len(dst_asns) == params.n_urls
    censor_asns = {c.asn for c in world.censors}
    # vantages, censors and destinations never overlap
    assert not (set(world.vantage_asns) & dst_asns)
    assert not (censor_asns & set(world.vantage_asns))
    assert not (censor_asns & dst_asns)
    assert len({a.country for a in world.ases}) >= 2


def test_world_pools_are_distinct_anchored_paths():
    params = _small_params(path_pool_size=3)
    world = generate_world(params)
    for url in world.urls:
        for v in world.url_vantages[url]:
            pool = world.pools[(v, url)]
            assert len(pool) == params.path_pool_size
            assert len(set(pool)) == len(pool)
            for path in pool:
                assert path[0] == v
                assert path[-1] == world.url_dst[url]


def test_censor_policies_cover_disjoint_urls():
    params = _small_params(n_ases=30, n_urls=10, n_censors=3)
    world = generate_world(params)
    seen: set[str] = set()
    for policy in world.censors:
        assert policy.urls, "a censor with no URLs is unobservable"
        assert not (set(policy.urls) & seen)
        seen |= set(policy.urls)
        # the censor is wired into at least one primary route per URL
        for url in policy.urls:
            primaries = [world.pools[(v, url)][0] for v in world.url_vantages[url]]
            assert any(policy.asn in p for p in primaries)


def test_censor_policy_active_day_window():
    policy = CensorPolicy(
        asn=5000,
        anomaly=AnomalyType.DNS,
        urls=frozenset({"http://x/"}),
        active_days=(2, 4),
    )
    assert not policy.censors("http://x/", AnomalyType.DNS, 1)
    assert policy.censors("http://x/", AnomalyType.DNS, 3)
    assert not policy.censors("http://x/", AnomalyType.DNS, 5)
    assert not policy.censors("http://y/", AnomalyType.DNS, 3)
    assert not policy.censors("http://x/", AnomalyType.RESET, 3)
    assert CensorPolicy.from_json_obj(policy.to_json_obj()) == policy


# ---------------------------------------------------------------------------
# measurements

def test_generation_is_deterministic():
    params = _small_params()
    world_a = generate_world(params)
    world_b = generate_world(params)
    records_a, truth_a = _measure(world_a, params)
    records_b, truth_b = _measure(world_b, params)
    assert records_a == records_b
    assert pfx2as_text(world_a) == pfx2as_text(world_b)
    assert as_metadata_text(world_a) == as_metadata_text(world_b)
    assert ground_truth_obj(truth_a) == ground_truth_obj(truth_b)


def test_seed_changes_the_output():
    params_a = _small_params(seed=1)
    params_b = _small_params(seed=2)
    records_a, _ = _measure(generate_world(params_a), params_a)
    records_b, _ = _measure(generate_world(params_b), params_b)
    assert records_a != records_b


def test_record_count_and_schema():
    params = _small_params()
    world = generate_world(params)
    records, truth = _measure(world, params)
    measured = sum(len(world.url_vantages[url]) for url in world.urls)
    assert len(records) == params.days * measured * len(params.anomalies)
    assert len({r["record_id"] for r in records}) == len(records)
    assert set(truth.path_log) == {r["record_id"] for r in records}
    for record in records[:20]:
        assert len(record["traceroutes"]) == 3
        assert record["timestamp"].endswith("T12:00:00Z")


def test_zero_churn_keeps_every_pair_on_its_primary():
    params = _small_params(churn_prob=0.0, path_pool_size=3)
    world = generate_world(params)
    _, truth = _measure(world, params)
    paths_per_pair: dict[tuple[int, str], set] = {}
    for record_id, path in truth.path_log.items():
        paths_per_pair.setdefault((path[0], path[-1]), set()).add(path)
    assert all(len(paths) == 1 for paths in paths_per_pair.values())


def test_churn_produces_alternate_paths():
    params = _small_params(churn_prob=0.9, path_pool_size=3, days=20)
    world = generate_world(params)
    _, truth = _measure(world, params)
    distinct = {len({p for p in truth.path_log.values() if p[0] == v}) for v in world.vantage_asns}
    assert max(distinct) > 1


def test_single_path_pool_cannot_churn():
    params = _small_params(path_pool_size=1, churn_prob=1.0)
    world = generate_world(params)
    _, truth = _measure(world, params)
    per_pair: dict[tuple[int, int], set] = {}
    for path in truth.path_log.values():
        per_pair.setdefault((path[0], path[-1]), set()).add(path)
    assert all(len(paths) == 1 for paths in per_pair.values())


def test_noise_flips_verdicts():
    params = _small_params(noise_prob=1.0, n_censors=0)
    world = generate_world(params)
    records, _ = _measure(world, params)
    assert all(r["detected"] for r in records)
    params_clean = _small_params(noise_prob=0.0, n_censors=0)
    world_clean = generate_world(params_clean)
    clean_records, _ = _measure(world_clean, params_clean)
    assert not any(r["detected"] for r in clean_records)


def test_detected_iff_active_censor_on_path_when_noiseless():
    params = _small_params(n_ases=20, n_censors=2, days=8, churn_prob=0.5)
    world = generate_world(params)
    records, truth = _measure(world, params)
    by_pair = {(c.asn, c.anomaly.value): c for c in truth.censors}
    for record in records:
        path = truth.path_log[record["record_id"]]
        day = int(record["timestamp"][8:10]) - int(params.start_date.day) + 1
        expected = any(
            c.asn in path and c.censors(record["url"], AnomalyType(record["anomaly"]), day)
            for c in truth.censors
        )
        assert record["detected"] == expected, record["record_id"]


def test_ground_truth_round_trip():
    params = _small_params()
    world = generate_world(params)
    _, truth = _measure(world, params)
    restored = ground_truth_from_obj(ground_truth_obj(truth))
    assert restored.censors == truth.censors
    assert restored.countries == truth.countries
    assert restored.path_log == truth.path_log


def test_nonresponsive_hops_appear_but_never_last():
    params = _small_params(nonresponsive_prob=0.6, days=10)
    world = generate_world(params)
    records, _ = _measure(world, params)
    stars = 0
    for record in records:
        for tr in record["traceroutes"]:
            assert tr["hops"][-1]["addr"] != "*"
            stars += sum(1 for h in tr["hops"] if h["addr"] == "*")
    assert stars > 0


# ---------------------------------------------------------------------------
# scoring

def _verdict(asn, klass, anomaly=AnomalyType.DNS):
    key = BucketKey(
        anomaly=anomaly,
        url="http://x/",
        granularity=TimeGranularity.DAY,
        window_id="2016-05-02",
    )
    return CensorVerdict(asn=asn, censor_class=klass, anomaly=anomaly, witnesses=(key,))


def _truth_with(*pairs):
    return ground_truth_from_obj(
        {
            "censors": [
                {
                    "asn": asn,
                    "anomaly": anomaly.value,
                    "urls": ["http://x/"],
                    "active_days": [1, 5],
                }
                for asn, anomaly in pairs
            ],
            "countries": {},
            "paths": {},
        }
    )


def test_evaluate_perfect_recovery():
    truth = _truth_with((10, AnomalyType.DNS), (20, AnomalyType.RESET))
    verdicts = [
        _verdict(10, CensorClass.CENSOR),
        _verdict(20, CensorClass.CENSOR, AnomalyType.RESET),
        _verdict(30, CensorClass.NON_CENSOR),
    ]
    scorecard = evaluate(verdicts, truth)
    assert scorecard["overall"]["precision"] == 1.0
    assert scorecard["overall"]["recall"] == 1.0
    assert scorecard["overall"]["false_positives"] == []
    assert scorecard["overall"]["potential_only"] == []
    assert scorecard["per_anomaly"]["dns"]["matched"] == 1
    assert scorecard["per_anomaly"]["reset"]["recall"] == 1.0


def test_evaluate_counts_misses_and_false_positives():
    truth = _truth_with((10, AnomalyType.DNS), (20, AnomalyType.DNS))
    verdicts = [
        _verdict(10, CensorClass.CENSOR),
        _verdict(20, CensorClass.POTENTIAL_CENSOR),
        _verdict(99, CensorClass.CENSOR),
    ]
    scorecard = evaluate(verdicts, truth)
    assert scorecard["overall"]["matched"] == 1
    assert scorecard["overall"]["precision"] == 0.5
    assert scorecard["overall"]["recall"] == 0.5
    assert scorecard["overall"]["potential_only"] == [[20, "dns"]]
    assert scorecard["overall"]["false_positives"] == [[99, "dns"]]


def test_evaluate_handles_empty_sides():
    scorecard = evaluate([], _truth_with((10, AnomalyType.DNS)))
    assert scorecard["overall"]["precision"] == "n/a"
    assert scorecard["overall"]["recall"] == 0.0
    empty_truth = ground_truth_from_obj({"censors": [], "countries": {}, "paths": {}})
    scorecard = evaluate([_verdict(10, CensorClass.CENSOR)], empty_truth)
    assert scorecard["overall"]["precision"] == 0.0
    assert scorecard["overall"]["recall"] == "n/a"


def test_anomaly_mismatch_is_not_a_match():
    truth = _truth_with((10, AnomalyType.DNS))
    scorecard = evaluate([_verdict(10, CensorClass.CENSOR, AnomalyType.RESET)], truth)
    assert scorecard["overall"]["matched"] == 0
    assert scorecard["overall"]["false_positives"] == [[10, "reset"]]
