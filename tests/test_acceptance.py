"""Acceptance gate: eight end-to-end checks, one test (one pass/fail line) each.

01  solver functions agree exactly with exhaustive enumeration (< 30s)
02  planted censors recovered exactly from a seeded simulation (< 60s)
03  removing churn inflates the at-cap share >= 3x and drops uniqueness (< 90s)
04  reported elimination fractions match brute-force model sets exactly
05  hand-built six-AS world yields exactly 2 AS-level and 1 country-level leak
06  golden traceroute fixtures reproduce exact paths / elimination rules
07  consecutive localize runs produce byte-identical output trees
08  a censor active half the window is contradictory weekly, never daily
"""
from __future__ import annotations

import json
import random
import time

import pytest

from _helpers import backbone_from_models, random_pipeline_cnf, satisfies
from censorloc import analysis, cli, pipeline, simulate, solver, tomography
from censorloc.aspath import InferenceRule
from censorloc.model import SolutionStatus, TimeGranularity

RECOVERY_PARAMS = simulate.SimParams(
    seed=0,
    n_ases=50,
    n_vantage=10,
    n_urls=20,
    n_censors=3,
    path_pool_size=4,
    churn_prob=0.3,
    noise_prob=0.0,
    days=90,
)

_timings: dict[str, float] = {}


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance") / "sim"
    t0 = time.monotonic()
    pipeline.cmd_simulate(RECOVERY_PARAMS, out, force=False)
    _timings["simulate"] = time.monotonic() - t0
    return out


@pytest.fixture(scope="module")
def full_run(sim_dir):
    cfg = pipeline.RunConfig(
        measurements=sim_dir / "measurements.jsonl",
        pfx2as=sim_dir / "pfx2as.tsv",
        out_dir=sim_dir / "unused",
    )
    t0 = time.monotonic()
    result = pipeline.run_localize_stages(cfg)
    _timings["full_run"] = time.monotonic() - t0
    return result


def test_01_solver_agrees_with_brute_force_oracle():
    t0 = time.monotonic()
    rng = random.Random(20160502)
    checked = 0
    for _ in range(1200):
        variables, clauses = random_pipeline_cnf(rng, max_vars=15)
        models = solver.brute_force_models(variables, clauses)

        sat, witness = solver.check_sat(variables, clauses)
        assert sat == bool(models)
        if sat:
            assert satisfies(witness, clauses)

        backbone = solver.compute_backbone(variables, clauses)
        assert backbone == backbone_from_models(variables, models)

        assert solver.count_models(variables, clauses, cap=5) == min(len(models), 5)
        checked += 1
    elapsed = time.monotonic() - t0
    assert checked >= 1000
    assert elapsed < 30, f"oracle sweep took {elapsed:.1f}s"
    print(f"PASS 01: {checked} random CNFs matched the oracle in {elapsed:.1f}s")


def test_02_planted_censors_recovered_exactly(sim_dir, tmp_path):
    t0 = time.monotonic()
    out_dir = tmp_path / "loc"
    warnings = pipeline.cmd_localize(
        pipeline.RunConfig(
            measurements=sim_dir / "measurements.jsonl",
            pfx2as=sim_dir / "pfx2as.tsv",
            out_dir=out_dir,
        )
    )
    assert warnings == []
    scorecard = pipeline.cmd_evaluate(
        out_dir / "censors.json", sim_dir / "ground_truth.json"
    )
    elapsed = _timings["simulate"] + (time.monotonic() - t0)

    truth = json.loads((sim_dir / "ground_truth.json").read_text())
    assert len(truth["censors"]) == 3
    assert scorecard["overall"]["matched"] == 3
    assert scorecard["overall"]["precision"] == 1.0
    assert scorecard["overall"]["recall"] == 1.0
    assert scorecard["overall"]["false_positives"] == []
    for anomaly, row in scorecard["per_anomaly"].items():
        assert row["precision"] == 1.0, anomaly
        assert row["recall"] == 1.0, anomaly

    # cross-check the verdict file itself: the planted (asn, anomaly) pairs
    # are flagged censor and nothing else is
    verdicts = json.loads((out_dir / "censors.json").read_text())
    flagged = {(v["asn"], v["anomaly"]) for v in verdicts if v["class"] == "censor"}
    planted = {(c["asn"], c["anomaly"]) for c in truth["censors"]}
    assert flagged == planted

    assert elapsed < 60, f"recovery run took {elapsed:.1f}s"
    print(f"PASS 02: all 3 planted censors recovered exactly in {elapsed:.1f}s")


def _share_rows(summaries, cap=5):
    total = len(summaries)
    at_cap = sum(1 for s in summaries if s.model_count_capped >= cap)
    unique = sum(1 for s in summaries if s.status is SolutionStatus.UNIQUE)
    return total, at_cap / total, unique / total


def test_03_churn_removal_inflates_at_cap_share(full_run):
    t0 = time.monotonic()
    ablated_pairs = analysis.ablate_churn(full_run.pairs)
    assert len(ablated_pairs) < len(full_run.pairs)
    ablated_instances = tomography.build_instances(
        ablated_pairs, pipeline.ALL_GRANULARITIES
    )
    ablated_summaries = pipeline.solve_instances(ablated_instances, cap=5)
    elapsed = _timings["full_run"] + (time.monotonic() - t0)

    total, at_cap_share, unique_share = _share_rows(full_run.summaries)
    abl_total, abl_at_cap_share, abl_unique_share = _share_rows(ablated_summaries)
    assert total > 0 and abl_total > 0
    assert at_cap_share > 0, "baseline run never hit the count cap"
    ratio = abl_at_cap_share / at_cap_share
    assert ratio >= 3.0, f"at-cap share grew only {ratio:.2f}x"
    assert abl_unique_share < unique_share, (
        f"unique share did not drop: {unique_share:.4f} -> {abl_unique_share:.4f}"
    )
    assert elapsed < 90, f"ablation comparison took {elapsed:.1f}s"
    print(
        f"PASS 03: at-cap share {at_cap_share:.5f} -> {abl_at_cap_share:.5f} "
        f"({ratio:.1f}x), unique {unique_share:.4f} -> {abl_unique_share:.4f}, "
        f"{elapsed:.1f}s"
    )


def test_04_elimination_fractions_match_brute_force(full_run):
    reported = {stat.key: stat for stat in full_run.reduction.stats}
    checked = 0
    for instance, summary in zip(full_run.instances, full_run.summaries):
        if summary.status is not SolutionStatus.MULTIPLE:
            continue
        if len(instance.variables) > 15:
            continue
        models = solver.brute_force_models(
            instance.variables, tomography.to_cnf_clauses(instance)
        )
        assert len(models) >= 2
        forced_false = {
            v
            for v in instance.variables
            if all(not m[v] for m in models)
        }
        stat = reported[instance.key]
        assert stat.n_vars == len(instance.variables)
        assert stat.n_forced_false == len(forced_false)
        assert stat.fraction_eliminated == len(forced_false) / len(instance.variables)
        checked += 1
    assert checked > 0
    print(f"PASS 04: {checked} ambiguous CNFs re-derived by brute force exactly")


def test_05_leakage_counts_in_hand_built_world(tmp_path):
    # six ASes: vantage A and transit B in the US; censor C, destination D,
    # and transit F in CN; spare US transit E provides the churn alternate
    a, b, c, d, e, f = 64501, 64502, 64503, 64504, 64505, 64506
    pfx = {a: "21.1.0.0", b: "22.1.0.0", c: "23.1.0.0", d: "24.1.0.0",
           e: "25.1.0.0", f: "26.1.0.0"}
    (tmp_path / "pfx2as.tsv").write_text(
        "".join(f"{prefix}\t16\t{asn}\n" for asn, prefix in pfx.items())
    )
    (tmp_path / "as_meta.csv").write_text(
        "asn,country,name\n"
        f"{a},US,Vantage A\n{b},US,Transit B\n{c},CN,Filter C\n"
        f"{d},CN,Host D\n{e},US,Transit E\n{f},CN,Transit F\n"
    )

    def record(record_id, day, detected, hop_ips):
        hops = [{"ttl": i, "addr": ip} for i, ip in enumerate(hop_ips, start=1)]
        tr = {"completed": True, "hops": hops}
        return {
            "record_id": record_id,
            "vantage_asn": a,
            "url": "http://blocked.example/",
            "dst_ip": "24.1.0.9",
            "anomaly": "dns",
            "detected": detected,
            "timestamp": f"2016-05-{day:02d}T12:00:00Z",
            "traceroutes": [tr, tr, tr],
        }

    rows = [
        record("r1", 2, True, ["22.1.0.1", "23.1.0.1", "24.1.0.9"]),   # A-B-C-D
        record("r2", 3, False, ["22.1.0.1", "24.1.0.9"]),              # A-B-D
        record("r3", 4, False, ["25.1.0.1", "26.1.0.1", "24.1.0.9"]),  # A-E-F-D
    ]
    (tmp_path / "measurements.jsonl").write_text(
        "".join(json.dumps(r) + "\n" for r in rows)
    )

    out_dir = tmp_path / "out"
    warnings = pipeline.cmd_leak(
        pipeline.RunConfig(
            measurements=tmp_path / "measurements.jsonl",
            pfx2as=tmp_path / "pfx2as.tsv",
            as_meta=tmp_path / "as_meta.csv",
            out_dir=out_dir,
        )
    )
    assert warnings == []

    body = json.loads((out_dir / "leakage.json").read_text())
    assert body["skipped_missing_country"] == 0
    victims = {(edge["censor_asn"], edge["victim_asn"]) for edge in body["edges"]}
    assert victims == {(c, a), (c, b)}
    (leak,) = body["censors"]
    assert leak["asn"] == c
    assert leak["country"] == "CN"
    assert leak["leaks_as"] == 2
    assert leak["leaks_country"] == 1
    print("PASS 05: hand-built world leaks exactly 2 ASes and 1 country")


def test_06_path_inference_golden_fixtures():
    from test_aspath import _FIXTURES, _fixture_record, _fixture_table
    from censorloc.aspath import InferenceFailure, infer_as_path

    assert len(_FIXTURES["cases"]) >= 12
    table = _fixture_table()
    records = []
    expected_failures = {rule.value: 0 for rule in InferenceRule}
    for i, case in enumerate(_FIXTURES["cases"]):
        record = _fixture_record(case, i)
        records.append(record)
        outcome = infer_as_path(record, table)
        expect = case["expect"]
        if "path" in expect:
            assert isinstance(outcome, tuple), case["name"]
            assert list(outcome) == expect["path"], case["name"]
        else:
            assert isinstance(outcome, InferenceFailure), case["name"]
            assert outcome.rule.value == expect["rule"], case["name"]
            assert outcome.detail == expect["detail"], case["name"]
            expected_failures[expect["rule"]] += 1
    assert all(n > 0 for n in expected_failures.values()), "a rule went unexercised"

    pairs, failures = pipeline.infer_paths(records, table)
    assert len(pairs) + sum(failures.values()) == len(records)
    assert {r.value: n for r, n in failures.items()} == expected_failures
    print(f"PASS 06: {len(records)} golden fixtures matched exactly")


def test_07_localize_runs_are_byte_identical(tmp_path):
    params = simulate.SimParams(
        seed=5,
        n_ases=30,
        n_vantage=6,
        n_urls=8,
        n_censors=2,
        path_pool_size=3,
        churn_prob=0.3,
        days=30,
    )
    sim = tmp_path / "sim"
    pipeline.cmd_simulate(params, sim, force=False)

    def run(out_dir, workers):
        assert cli.main([
            "localize",
            "--measurements", str(sim / "measurements.jsonl"),
            "--pfx2as", str(sim / "pfx2as.tsv"),
            "--out", str(out_dir),
            "--workers", str(workers),
        ]) == 0
        return {
            p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.is_file()
        }

    first = run(tmp_path / "run1", workers=1)
    second = run(tmp_path / "run2", workers=1)
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"{name} differs between runs"
    # --workers 2 must not change a single byte either
    pooled = run(tmp_path / "run3", workers=2)
    assert pooled == first
    print(f"PASS 07: {len(first)} output files byte-identical across runs")


def test_08_policy_change_unsat_only_at_coarse_windows(tmp_path):
    # one censor, on for days 1-5 and off for days 6-10, no churn: daily
    # buckets are self-consistent, the enclosing week is contradictory
    params = simulate.SimParams(
        seed=3,
        n_ases=20,
        n_vantage=3,
        n_urls=5,
        n_censors=1,
        path_pool_size=1,
        churn_prob=0.0,
        days=10,
        active_day_range=(1, 5),
    )
    sim = tmp_path / "sim"
    pipeline.cmd_simulate(params, sim, force=False)
    result = pipeline.run_localize_stages(
        pipeline.RunConfig(
            measurements=sim / "measurements.jsonl",
            pfx2as=sim / "pfx2as.tsv",
            out_dir=tmp_path / "unused",
            granularities=(TimeGranularity.DAY, TimeGranularity.WEEK),
        )
    )
    unsat = {TimeGranularity.DAY: 0, TimeGranularity.WEEK: 0}
    for summary in result.summaries:
        if summary.status is SolutionStatus.UNSAT:
            unsat[summary.key.granularity] += 1
    assert unsat[TimeGranularity.WEEK] >= 1, "no weekly contradiction found"
    assert unsat[TimeGranularity.DAY] == 0, "daily buckets must stay consistent"
    print(
        f"PASS 08: week inconsistencies={unsat[TimeGranularity.WEEK]}, "
        f"day inconsistencies={unsat[TimeGranularity.DAY]}"
    )
