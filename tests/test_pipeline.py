"""End-to-end pipeline stages over a small handcrafted world (no simulator)."""
from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import make_record, make_traceroute
from censorloc import pipeline, simulate, solver, tomography
from censorloc.aspath import InferenceFailure, InferenceRule, infer_as_path
from censorloc.ingest import parse_measurements, parse_pfx2as
from censorloc.model import (
    AnomalyType,
    BackboneStatus,
    CensorClass,
    CensorVerdict,
    SolutionStatus,
    TimeGranularity,
)

G = TimeGranularity

PFX2AS = "1.1.0.0\t16\t100\n2.2.0.0\t16\t200\n3.3.0.0\t16\t300\n9.9.0.0\t16\t900\n"
AS_META = "asn,country,name\n100,US,Vantage\n200,US,Transit\n300,CN,Filter\n900,CN,Host\n"


def _records_jsonl() -> str:
    """Two inferable records and one eliminated one.

    Day 1 sees the anomaly through 100-200-300-900; day 2 is clean over
    100-200-900. Weekly and coarser buckets therefore pin AS300. The third
    record dies in inference: its only mapped hop leaves a gap against the
    destination AS.
    """
    detour = make_traceroute("2.2.0.1", "3.3.0.1", "9.9.0.1")
    direct = make_traceroute("2.2.0.1", "9.9.0.1")
    broken = make_traceroute("2.2.0.1", "*", "8.8.0.1")
    rows = [
        make_record(
            record_id="hit",
            detected=True,
            timestamp="2016-05-02T12:00:00Z",
            traceroutes=(detour, detour, detour),
        ),
        make_record(
            record_id="clean",
            detected=False,
            timestamp="2016-05-03T12:00:00Z",
            traceroutes=(direct, direct, direct),
        ),
        make_record(
            record_id="gone",
            detected=False,
            timestamp="2016-05-03T13:00:00Z",
            traceroutes=(broken, broken, broken),
        ),
    ]
    return "".join(json.dumps(r.to_json_obj()) + "\n" for r in rows)


@pytest.fixture()
def world(tmp_path):
    (tmp_path / "measurements.jsonl").write_text(_records_jsonl())
    (tmp_path / "pfx2as.tsv").write_text(PFX2AS)
    (tmp_path / "as_metadata.csv").write_text(AS_META)
    return tmp_path


def _config(world, **overrides) -> pipeline.RunConfig:
    base = dict(
        measurements=world / "measurements.jsonl",
        pfx2as=world / "pfx2as.tsv",
        out_dir=world / "out",
        as_meta=world / "as_metadata.csv",
    )
    base.update(overrides)
    return pipeline.RunConfig(**base)


# ---------------------------------------------------------------------------
# loading

def test_load_inputs_missing_file(world):
    cfg = _config(world, measurements=world / "nope.jsonl")
    with pytest.raises(pipeline.InputError, match="cannot read measurements"):
        pipeline.load_inputs(cfg)


def test_load_inputs_wraps_parser_failures(world):
    (world / "pfx2as.tsv").write_text("garbage\n")
    with pytest.raises(pipeline.InputError, match="empty after parsing"):
        pipeline.load_inputs(_config(world))


def test_load_inputs_requires_registry_when_asked(world):
    cfg = _config(world, as_meta=None)
    with pytest.raises(pipeline.InputError, match="needs --as-meta"):
        pipeline.load_inputs(cfg, need_registry=True)
    # but loads fine when the registry is optional
    assert pipeline.load_inputs(cfg).registry is None


def test_load_inputs_anomaly_filter_warns_when_everything_drops(world):
    cfg = _config(world, anomalies=(AnomalyType.SEQNO,))
    loaded = pipeline.load_inputs(cfg)
    assert loaded.records == []
    assert "no records left after the anomaly filter" in loaded.warnings


# ---------------------------------------------------------------------------
# staged run

def test_run_localize_stages_handcrafted_world(world):
    result = pipeline.run_localize_stages(_config(world))
    assert len(result.loaded.records) == 3
    assert len(result.pairs) == 2
    assert result.failures[InferenceRule.UNRESOLVABLE_GAP] == 1
    assert sum(result.failures.values()) == 1

    by_granularity = {}
    for inst, summary in zip(result.instances, result.summaries):
        by_granularity.setdefault(inst.key.granularity, []).append((inst, summary))

    # two day buckets: the detected day is ambiguous, the clean day unique all-false
    day = {inst.key.window_id: s for inst, s in by_granularity[G.DAY]}
    assert day["2016-05-02"].status is SolutionStatus.MULTIPLE
    assert day["2016-05-03"].status is SolutionStatus.UNIQUE
    assert day["2016-05-03"].forced_true_asns() == ()

    # the week merges both observations and pins the filter
    ((_, week_summary),) = by_granularity[G.WEEK]
    assert week_summary.status is SolutionStatus.UNIQUE
    assert week_summary.forced_true_asns() == (300,)
    assert week_summary.backbone[100] is BackboneStatus.FORCED_FALSE

    for granularity in (G.MONTH, G.YEAR):
        ((_, summary),) = by_granularity[granularity]
        assert summary.forced_true_asns() == (300,)

    verdicts = {(v.asn, v.anomaly): v for v in result.verdicts}
    censor = verdicts[(300, AnomalyType.DNS)]
    assert censor.censor_class is CensorClass.CENSOR
    assert {w.granularity for w in censor.witnesses} == {G.WEEK, G.MONTH, G.YEAR}
    # the other path ASes stay possible at day granularity
    assert verdicts[(100, AnomalyType.DNS)].censor_class is CensorClass.POTENTIAL_CENSOR


def test_week_only_run_rules_out_everything_but_the_censor(world):
    result = pipeline.run_localize_stages(_config(world, granularities=(G.WEEK,)))
    classes = {v.asn: v.censor_class for v in result.verdicts}
    assert classes == {
        100: CensorClass.NON_CENSOR,
        200: CensorClass.NON_CENSOR,
        300: CensorClass.CENSOR,
        900: CensorClass.NON_CENSOR,
    }


def test_solve_instances_parallel_matches_serial(world):
    # --workers stays accepted but no longer changes how buckets are solved
    serial = pipeline.run_localize_stages(_config(world, workers=1))
    parallel = pipeline.run_localize_stages(_config(world, workers=2))
    assert parallel.summaries == serial.summaries
    assert parallel.verdicts == serial.verdicts


def _noisy_corpus(seed: int) -> tuple[list, str]:
    """Simulated records (parsed as ingest does) with non-responsive hops and
    flipped verdicts, plus the prefix table text."""
    params = simulate.SimParams(
        seed=seed, n_ases=30, n_vantage=4, n_urls=6, n_censors=2, days=4,
        churn_prob=0.3, noise_prob=0.05, nonresponsive_prob=0.1,
    )
    world = simulate.generate_world(params)
    rows, _ = simulate.generate_measurements(world, params)
    records, _ = parse_measurements(simulate.measurements_jsonl(rows))
    return records, simulate.pfx2as_text(world)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**16))
def test_memoised_inference_matches_per_record_inference(seed):
    records, pfx2as = _noisy_corpus(seed)
    pairs, failures = pipeline.infer_paths(records, parse_pfx2as(pfx2as)[0])

    expected_pairs = []
    expected_failures = {rule: 0 for rule in InferenceRule}
    for record in records:
        outcome = infer_as_path(record, parse_pfx2as(pfx2as)[0])
        if isinstance(outcome, InferenceFailure):
            expected_failures[outcome.rule] += 1
        else:
            expected_pairs.append((record, outcome))
    assert pairs == expected_pairs
    assert failures == expected_failures


def test_infer_paths_solves_each_distinct_problem_once(monkeypatch):
    records, pfx2as = _noisy_corpus(7)
    calls = []

    def counting(record, table):
        calls.append(record)
        return infer_as_path(record, table)

    monkeypatch.setattr(pipeline, "infer_as_path", counting)
    table = parse_pfx2as(pfx2as)[0]
    problems = {(r.vantage_asn, r.dst_ip, r.traceroutes) for r in records}
    assert len(problems) < len(records)
    for _ in range(2):
        # the memo lives for one call, so the second call infers afresh
        calls.clear()
        _, failures = pipeline.infer_paths(records, table)
        assert len(calls) == len(problems)
    assert failures[InferenceRule.UNRESOLVABLE_GAP] > 0


def test_pipeline_classification_makes_no_sat_probes(monkeypatch):
    records, pfx2as = _noisy_corpus(3)
    pairs, _ = pipeline.infer_paths(records, parse_pfx2as(pfx2as)[0])
    instances = tomography.build_instances(pairs, tuple(G))
    expected = [solver.classify(instance) for instance in instances]
    assert {s.status for s in expected} == set(SolutionStatus)

    def no_probe(*args, **kwargs):
        raise AssertionError("pipeline CNFs must be classified in closed form")

    monkeypatch.setattr(solver, "check_sat", no_probe)
    assert [solver.classify(instance) for instance in instances] == expected


def test_solver_inputs_are_checked_once_per_public_call(monkeypatch):
    calls = []
    check = solver._check_inputs

    def counted(variables, clauses):
        calls.append(len(variables))
        check(variables, clauses)

    monkeypatch.setattr(solver, "_check_inputs", counted)
    records, pfx2as = _noisy_corpus(3)
    pairs, _ = pipeline.infer_paths(records, parse_pfx2as(pfx2as)[0])
    instances = tomography.build_instances(pairs, tuple(G))
    # bucket CNFs were checked when their Clause and CnfInstance were built
    pipeline.solve_instances(instances, 5)
    assert calls == []
    # a general CNF: one check for the call, none for its SAT probes
    variables = (1, 2, 3, 4, 5, 6)
    clauses = [(1, -2), (2, -3), (-1, 3, 4), (-5, 6)]
    for entry in (solver.compute_backbone, solver.count_models, solver.check_sat):
        calls.clear()
        entry(variables, clauses)
        assert calls == [len(variables)], entry.__name__
    calls.clear()
    solver.solve_dimacs_text("p cnf 6 4\n1 -2 0\n2 -3 0\n-1 3 4 0\n-5 6 0\n")
    assert calls == []


def test_elimination_summary_shape():
    failures = {rule: 0 for rule in InferenceRule}
    failures[InferenceRule.TRACEROUTE_ERROR] = 2
    obj = pipeline.elimination_summary_obj(5, 3, failures)
    assert obj == {
        "records": 5,
        "paths_inferred": 3,
        "failures": {
            "mapping_impossible": 0,
            "traceroute_error": 2,
            "unresolvable_gap": 0,
            "multiple_as_paths": 0,
        },
    }


# ---------------------------------------------------------------------------
# output directory etiquette

def test_prepare_out_dir_refuses_to_clobber(tmp_path):
    target = tmp_path / "out"
    target.mkdir()
    (target / "censors.json").write_text("{}")
    with pytest.raises(pipeline.InputError, match="pass --force to overwrite"):
        pipeline.prepare_out_dir(target, ("censors.json",), force=False)
    # force waves it through; unrelated files never block
    pipeline.prepare_out_dir(target, ("censors.json",), force=True)
    pipeline.prepare_out_dir(target, ("other.json",), force=False)


def test_cmd_localize_writes_the_full_file_set(world):
    cfg = _config(world)
    warnings = pipeline.cmd_localize(cfg)
    assert warnings == []
    out = world / "out"
    for name in pipeline.LOCALIZE_FILES:
        assert (out / name).exists(), name

    verdicts = json.loads((out / "censors.json").read_text())
    restored = [CensorVerdict.from_json_obj(v) for v in verdicts]
    assert any(
        v.asn == 300 and v.censor_class is CensorClass.CENSOR for v in restored
    )

    ingest = json.loads((out / "ingest_summary.json").read_text())
    assert ingest == {"records_ok": 3, "records_skipped": 0, "skip_reasons": {}}

    elim = json.loads((out / "elimination_summary.json").read_text())
    assert elim["paths_inferred"] == 2
    assert elim["failures"]["unresolvable_gap"] == 1

    lines = (out / "solutions_by_granularity.csv").read_text().splitlines()
    assert lines[0] == (
        "granularity,cnf_count,unsat,unique,multiple,at_cap,"
        "share_unsat,share_unique,share_multiple,share_at_cap"
    )
    day_row = lines[1].split(",")
    assert day_row[0] == "day" and day_row[1] == "2"
    # shares carry six decimals
    assert day_row[6] == "0.000000" and day_row[7] == "0.500000"

    cdf_lines = (out / "reduction_cdf.csv").read_text().splitlines()
    assert cdf_lines[0] == "fraction,cumulative_share"
    assert len(cdf_lines) == 102


def test_cmd_localize_second_run_needs_force(world):
    cfg = _config(world)
    pipeline.cmd_localize(cfg)
    with pytest.raises(pipeline.InputError, match="--force"):
        pipeline.cmd_localize(cfg)
    cfg_force = _config(world, force=True)
    assert pipeline.cmd_localize(cfg_force) == []


def test_cmd_leak_writes_leakage_report(world):
    cfg = _config(world, out_dir=world / "leak_out")
    warnings = pipeline.cmd_leak(cfg)
    assert warnings == []
    body = json.loads((world / "leak_out" / "leakage.json").read_text())
    assert body["skipped_missing_country"] == 0
    (censor,) = body["censors"]
    assert censor["asn"] == 300
    assert censor["country"] == "CN"
    assert censor["leaks_as"] == 2
    assert censor["leaks_country"] == 1
    victims = {(e["censor_asn"], e["victim_asn"]) for e in body["edges"]}
    assert victims == {(300, 100), (300, 200)}


def test_cmd_churn_outputs(world):
    cfg = _config(world, out_dir=world / "churn_out", granularities=(G.WEEK,))
    assert pipeline.cmd_churn(cfg) == []
    lines = (world / "churn_out" / "churn_summary.csv").read_text().splitlines()
    assert lines[0].startswith("granularity,cells,multi_measurement_cells")
    # one pair measured twice over two distinct paths: churn fraction 1
    assert lines[1].split(",") == ["week", "1", "1", "1", "1.000000", "0", "1", "0", "0", "0"]
    cell_lines = (world / "churn_out" / "churn.csv").read_text().splitlines()
    assert cell_lines[1] == "100-900,week,2016-W18,2"


def test_cmd_ablate_writes_comparison_table(world):
    cfg = _config(world, out_dir=world / "ablate_out")
    assert pipeline.cmd_ablate(cfg) == []
    text = (world / "ablate_out" / "ablated_solutions_by_granularity.csv").read_text()
    lines = text.splitlines()
    # ablation keeps only the first path; the clean day-2 row is dropped, so
    # every remaining bucket is the single detected observation
    day_row = lines[1].split(",")
    assert day_row[0] == "day" and day_row[1] == "1"
    assert day_row[4] == "1"  # one ambiguous bucket


def _hop_trace(ttl: int, addr: str, mapping: str, *origins: int) -> dict:
    if mapping == "non_responsive":
        return {"ttl": ttl, "addr": addr, "mapping": mapping}
    return {"ttl": ttl, "addr": addr, "mapping": mapping, "origins": list(origins)}


def _record_trace(record_id, dst_ip, dst_mapping, hops, outcome) -> dict:
    traceroute = {"completed": True, "hops": hops, "outcome": outcome}
    return {
        "record_id": record_id,
        "dst_ip": dst_ip,
        "dst_mapping": dst_mapping,
        "traceroutes": [traceroute] * 3,
        "result": outcome,
    }


GONE_TRACE = _record_trace(
    "gone",
    "9.9.0.1",
    {"kind": "mapped", "origins": [900]},
    [
        _hop_trace(1, "2.2.0.1", "mapped", 200),
        _hop_trace(2, "*", "non_responsive"),
        _hop_trace(3, "8.8.0.1", "unmapped"),
    ],
    {"rule": "unresolvable_gap", "detail": "gap between AS200 and AS900"},
)
LOST_TRACE = _record_trace(
    "lost",
    "8.8.0.1",
    {"kind": "unmapped", "origins": []},
    [_hop_trace(1, "2.2.0.1", "mapped", 200), _hop_trace(2, "8.8.0.1", "unmapped")],
    {"rule": "mapping_impossible", "detail": "destination 8.8.0.1 does not map to a single AS"},
)


def test_debug_trace_has_one_line_per_loaded_record(world):
    lost = make_record(
        record_id="lost",
        dst_ip="8.8.0.1",
        timestamp="2016-05-03T14:00:00Z",
        traceroutes=(make_traceroute("2.2.0.1", "8.8.0.1"),) * 3,
    )
    with (world / "measurements.jsonl").open("a") as fh:
        fh.write(json.dumps(lost.to_json_obj()) + "\n")
    for command in (pipeline.cmd_localize, pipeline.cmd_leak, pipeline.cmd_ablate):
        out = world / command.__name__
        command(_config(world, out_dir=out, debug_trace=True))
        lines = (out / "inference_trace.jsonl").read_text().splitlines()
        assert [json.loads(line)["record_id"] for line in lines] == [
            "hit", "clean", "gone", "lost"
        ]
        assert lines[2] == json.dumps(GONE_TRACE, sort_keys=True)
        assert lines[3] == json.dumps(LOST_TRACE, sort_keys=True)
    # export-dimacs accepts the flag and writes no trace
    pipeline.cmd_export_dimacs(_config(world, out_dir=world / "cnf", debug_trace=True))
    assert not (world / "cnf" / "inference_trace.jsonl").exists()


def test_cmd_export_dimacs_and_solve_round_trip(world):
    cfg = _config(world, out_dir=world / "cnf_out", granularities=(G.WEEK,))
    assert pipeline.cmd_export_dimacs(cfg) == []
    files = sorted(p.name for p in (world / "cnf_out").iterdir())
    assert len(files) == 1
    assert files[0].startswith("dns_") and files[0].endswith("_week_2016-W18.cnf")
    solved = pipeline.cmd_solve_dimacs(world / "cnf_out" / files[0], cap=5)
    assert solved["status"] == "unique"
    # DIMACS variables are 1..n over ascending ASNs: AS300 is variable 3
    assert solved["backbone"]["3"] == "forced_true"


def test_cmd_solve_dimacs_rejects_bad_input(tmp_path):
    bad = tmp_path / "bad.cnf"
    bad.write_text("p cnf x\n")
    with pytest.raises(pipeline.InputError, match="malformed DIMACS header"):
        pipeline.cmd_solve_dimacs(bad, cap=5)
    with pytest.raises(pipeline.InputError, match="cannot read DIMACS"):
        pipeline.cmd_solve_dimacs(tmp_path / "missing.cnf", cap=5)


def test_zero_surviving_records_warn_but_succeed(world):
    # a table that only knows the destination block: every path inference
    # fails with a gap against the destination AS
    (world / "pfx2as.tsv").write_text("9.9.0.0\t16\t900\n")
    (world / "measurements.jsonl").write_text(
        json.dumps(
            make_record(
                record_id="r1",
                traceroutes=(make_traceroute("8.8.0.1", "9.9.0.1"),) * 3,
            ).to_json_obj()
        )
        + "\n"
    )
    warnings = pipeline.cmd_localize(_config(world))
    assert any("zero records survived" in w for w in warnings)
    assert json.loads((world / "out" / "censors.json").read_text()) == []


def test_cmd_evaluate_round_trip(world, tmp_path):
    pipeline.cmd_localize(_config(world, granularities=(G.WEEK,)))
    truth_path = tmp_path / "truth.json"
    truth_path.write_text(
        json.dumps(
            {
                "censors": [
                    {
                        "asn": 300,
                        "anomaly": "dns",
                        "urls": ["http://example.com/"],
                        "active_days": [1, 30],
                    }
                ],
                "countries": {"300": "CN"},
                "paths": {},
            }
        )
    )
    scorecard = pipeline.cmd_evaluate(world / "out" / "censors.json", truth_path)
    assert scorecard["overall"]["precision"] == 1.0
    assert scorecard["overall"]["recall"] == 1.0


def test_cmd_evaluate_rejects_malformed_inputs(tmp_path):
    censors = tmp_path / "censors.json"
    truth = tmp_path / "truth.json"
    censors.write_text("not json")
    truth.write_text("{}")
    with pytest.raises(pipeline.InputError, match="invalid JSON"):
        pipeline.cmd_evaluate(censors, truth)
    censors.write_text("[{\"asn\": 1}]")
    with pytest.raises(pipeline.InputError, match="malformed input"):
        pipeline.cmd_evaluate(censors, truth)
