"""End-to-end pipeline stages over a small handcrafted world (no simulator)."""
from __future__ import annotations

import copy
import errno
import io
import json
import os
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _helpers import build_cnf, forced_true_asns, make_record, make_traceroute, record_obj
from censorloc import analysis, aspath, pipeline, simulate, solver, tomography
from censorloc.aspath import InferenceFailure, InferenceRule, infer_as_path
from censorloc.ingest import parse_measurements, parse_pfx2as
from censorloc.model import (
    AnomalyType,
    BackboneStatus,
    BucketKey,
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
    return "".join(json.dumps(record_obj(r)) + "\n" for r in rows)


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
    # a file that is not UTF-8 cannot be read either
    (world / "latin1.jsonl").write_bytes(b"\xff\n")
    cfg = _config(world, measurements=world / "latin1.jsonl")
    with pytest.raises(pipeline.InputError, match="cannot read measurements"):
        pipeline.load_inputs(cfg)


def test_load_inputs_streams_what_parse_measurements_reads(world):
    # CRLF endings, U+2028 inside a string, blank lines and no final LF; a
    # lone CR ends no line, so its two records make one invalid line
    odd = record_obj(make_record(record_id="odd\u2028id"))
    lines = _records_jsonl().splitlines()
    text = (
        json.dumps(odd, ensure_ascii=False) + "\r\n\n"
        + lines[0] + "\r\n" + "\r\n"
        + lines[1] + "\r" + lines[1] + "\n"
        + "\n".join(lines[1:])
    )
    (world / "measurements.jsonl").write_bytes(text.encode("utf-8"))
    loaded = pipeline.load_inputs(_config(world))
    records, report = parse_measurements(io.StringIO(text))
    assert loaded.records == records
    assert loaded.measurement_report == report
    assert [r.record_id for r in records] == ["odd\u2028id", "hit", "clean", "gone"]
    assert report.skip_reasons == {"blank line": 2, "invalid json": 1}


def test_undecodable_byte_after_valid_lines_writes_nothing(world):
    # well past the reader's first chunk, so the error comes mid-stream
    valid = _records_jsonl() * 100
    (world / "measurements.jsonl").write_bytes(valid.encode("utf-8") + b"\xff\n")
    cfg = _config(world)
    with pytest.raises(pipeline.InputError, match="cannot read measurements"):
        pipeline.load_inputs(cfg)
    with pytest.raises(pipeline.InputError, match="cannot read measurements"):
        pipeline.cmd_localize(cfg)
    assert not cfg.out_dir.exists()


def test_load_inputs_wraps_parser_failures(world):
    (world / "pfx2as.tsv").write_text("garbage\n")
    with pytest.raises(pipeline.InputError, match="empty after parsing"):
        pipeline.load_inputs(_config(world))


def test_cmd_leak_requires_registry(world):
    cfg = _config(world, as_meta=None)
    with pytest.raises(pipeline.InputError, match="needs --as-meta"):
        pipeline.cmd_leak(cfg)
    assert not cfg.out_dir.exists()
    # the other commands load fine without one
    assert pipeline.load_inputs(cfg).registry is None
    assert pipeline.cmd_localize(cfg) == []


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
    assert forced_true_asns(day["2016-05-03"]) == ()

    # the week merges both observations and pins the filter
    ((_, week_summary),) = by_granularity[G.WEEK]
    assert week_summary.status is SolutionStatus.UNIQUE
    assert forced_true_asns(week_summary) == (300,)
    assert week_summary.backbone[100] is BackboneStatus.FORCED_FALSE

    for granularity in (G.MONTH, G.YEAR):
        ((_, summary),) = by_granularity[granularity]
        assert forced_true_asns(summary) == (300,)

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


def _noisy_corpus(seed: int) -> tuple[list, str]:
    """Simulated records (parsed as ingest does) with non-responsive hops and
    flipped verdicts, plus the prefix table text."""
    params = simulate.SimParams(
        seed=seed, n_ases=30, n_vantage=4, n_urls=6, n_censors=2, days=4,
        churn_prob=0.3, noise_prob=0.05, nonresponsive_prob=0.1,
    )
    world = simulate.generate_world(params)
    lines = [json.dumps(row, sort_keys=True) + "\n"
             for row, _ in simulate.generate_measurements(world, params)]
    records, _ = parse_measurements(lines)
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

    monkeypatch.setattr(aspath, "infer_as_path", counting)
    table = parse_pfx2as(pfx2as)[0]
    problems = {(r.vantage_asn, r.dst_ip, r.traceroutes) for r in records}
    assert len(problems) < len(records)
    for _ in range(2):
        # the memo lives for one call, so the second call infers afresh
        calls.clear()
        _, failures = pipeline.infer_paths(records, table)
        assert len(calls) == len(problems)
    assert failures[InferenceRule.UNRESOLVABLE_GAP] > 0


def test_infer_paths_equal_triples_built_apart_infer_alike(monkeypatch):
    """The memo keys on the triple object that ingest shares between records;
    records whose equal triples were built separately get the same outcome."""

    def triple(*addrs):
        tr = make_traceroute(*addrs)
        return (tr, tr, tr)

    shared = triple("2.2.0.1", "3.3.0.1", "9.9.0.1")
    records = [
        make_record(record_id="a", traceroutes=shared),
        make_record(record_id="b", traceroutes=triple("2.2.0.1", "3.3.0.1", "9.9.0.1")),
        make_record(record_id="c", traceroutes=shared),
        make_record(record_id="d", traceroutes=triple("2.2.0.1", "*", "8.8.0.1")),
        make_record(record_id="e", traceroutes=triple("2.2.0.1", "*", "8.8.0.1")),
    ]
    assert records[0].traceroutes == records[1].traceroutes
    assert records[0].traceroutes is not records[1].traceroutes
    calls = []

    def counting(record, table):
        calls.append(record.record_id)
        return infer_as_path(record, table)

    monkeypatch.setattr(aspath, "infer_as_path", counting)
    pairs, failures = pipeline.infer_paths(records, parse_pfx2as(PFX2AS)[0])
    assert [(r.record_id, path) for r, path in pairs] == [
        (name, (100, 200, 300, 900)) for name in "abc"
    ]
    assert failures[InferenceRule.UNRESOLVABLE_GAP] == 2
    assert sum(failures.values()) == 2
    # the record that shares a's triple object is answered from the memo
    assert "c" not in calls


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


def test_only_buckets_the_bound_cannot_count_build_an_engine(monkeypatch):
    """A restricted CNF with m free variables has m + 1 models when m < 2,
    3 or 4 when m = 2, and at least m + 1 otherwise, so only 3 <= m < cap - 1
    needs the engine, once per distinct body."""
    records, pfx2as = _noisy_corpus(3)
    pairs, _ = pipeline.infer_paths(records, parse_pfx2as(pfx2as)[0])
    instances = tomography.build_instances(pairs, tuple(G))
    # cap 7: this corpus has bodies with m = 4 and 5, but none with m = 3
    free = {
        instance.clauses: list(s.backbone.values()).count(BackboneStatus.FREE)
        for instance, s in zip(instances, pipeline.solve_instances(instances, 7))
    }
    built = []

    class CountedEngine(solver._Engine):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(solver, "_Engine", CountedEngine)
    pipeline.solve_instances(instances, 7)
    assert len(built) == sum(3 <= m < 6 for m in free.values()) > 0
    built.clear()
    pipeline.solve_instances(instances, 2)
    assert built == []


_BODY_PATHS = [(100, 200), (100, 300), (200, 300, 400), (100, 200, 300, 400), (500,), (200, 500)]


@settings(max_examples=60, deadline=None)
@given(
    bodies=st.lists(
        st.lists(st.tuples(st.sampled_from(_BODY_PATHS), st.booleans()), min_size=1, max_size=4),
        min_size=1, max_size=5,
    ),
    picks=st.lists(st.tuples(st.integers(0, 4), st.sampled_from(AnomalyType)), max_size=12),
    cap=st.integers(2, 7),
    order=st.randoms(use_true_random=False),
)
def test_solve_instances_solves_each_body_once_invisibly(bodies, picks, cap, order):
    # each instance is built apart, so equal bodies do not share a tuple
    instances = [
        build_cnf(
            BucketKey(anomaly, f"http://u{i % 3}/", G.DAY, f"2016-05-{i % 28 + 1:02d}"),
            [(p, d, f"r{i}", 1) for p, d in dict.fromkeys(bodies[j % len(bodies)])],
        )
        for i, (j, anomaly) in enumerate(picks)
    ]
    order.shuffle(instances)
    summaries = pipeline.solve_instances(instances, cap)
    assert summaries == [solver.classify(instance, cap) for instance in instances]
    first: dict[tuple, dict] = {}
    for instance, summary in zip(instances, summaries):
        assert summary.backbone is first.setdefault(instance.clauses, summary.backbone)


def test_no_analysis_writes_to_a_shared_backbone():
    records, pfx2as = _noisy_corpus(3)
    pairs, _ = pipeline.infer_paths(records, parse_pfx2as(pfx2as)[0])
    instances = tomography.build_instances(pairs, tuple(G))
    summaries = pipeline.solve_instances(instances, 5)
    assert len({id(s.backbone) for s in summaries}) < len(summaries)
    copies = [copy.deepcopy(s.backbone) for s in summaries]
    analysis.identify_censors(summaries)
    analysis.reduction_stats(summaries)
    analysis.solution_rows_by_granularity(summaries, 5)
    analysis.solution_rows_by_anomaly(summaries, 5)
    countries = {asn: f"C{asn % 3}" for inst in instances for asn in inst.variables}
    analysis.detect_leakage(list(zip(instances, summaries)), countries)
    ablated = tomography.build_instances(analysis.ablate_churn(pairs), tuple(G))
    ablated_summaries = pipeline.solve_instances(ablated, 5)
    ablated_copies = [copy.deepcopy(s.backbone) for s in ablated_summaries]
    analysis.solution_rows_by_granularity(ablated_summaries, 5)
    assert [s.backbone for s in summaries] == copies
    assert [s.backbone for s in ablated_summaries] == ablated_copies


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


_WITNESS_KEYS = st.builds(
    BucketKey,
    anomaly=st.sampled_from(AnomalyType),
    # non-ASCII, quotes, backslashes and control characters all get escaped
    url=st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=12)
    | st.sampled_from(['http://a.example/"q"\\', "http://\u00e9.example/\u2028\x00\x1f"]),
    granularity=st.sampled_from(TimeGranularity),
    window_id=st.text(max_size=8),
)


_ODD_KEY = BucketKey(AnomalyType.DNS, 'http://\u00e9.example/"\\\n', G.DAY, "2016-05-02")


@example(verdicts=[])
@example(verdicts=[
    CensorVerdict(7, CensorClass.NON_CENSOR, AnomalyType.DNS, witnesses=()),
    CensorVerdict(8, CensorClass.CENSOR, AnomalyType.DNS, witnesses=(_ODD_KEY, _ODD_KEY)),
    CensorVerdict(9, CensorClass.CENSOR, AnomalyType.SEQNO, witnesses=(_ODD_KEY,)),
])
@given(
    st.lists(_WITNESS_KEYS, min_size=1, max_size=4).flatmap(
        # verdicts draw their witnesses from a small shared pool, so keys repeat
        lambda pool: st.lists(
            st.builds(
                CensorVerdict,
                asn=st.integers(1, 2**32 - 1),
                censor_class=st.sampled_from(CensorClass),
                anomaly=st.sampled_from(AnomalyType),
                witnesses=st.lists(st.sampled_from(pool), max_size=5).map(tuple),
            ),
            max_size=5,
        )
    )
)
def test_write_censors_matches_write_json(tmp_path_factory, verdicts):
    out = tmp_path_factory.mktemp("censors")
    pipeline.write_censors(out / "streamed.json", verdicts)
    pipeline.write_json(out / "reference.json", [v.to_json_obj() for v in verdicts])
    assert (out / "streamed.json").read_bytes() == (out / "reference.json").read_bytes()


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
        fh.write(json.dumps(record_obj(lost)) + "\n")
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


def test_cmd_export_dimacs_builds_buckets_without_solving_them(world, monkeypatch):
    pipeline.cmd_export_dimacs(_config(world, out_dir=world / "solvable"))
    expected = {p.name: p.read_bytes() for p in (world / "solvable").iterdir()}
    assert len(expected) > 1

    def no_solve(*args, **kwargs):
        raise AssertionError("export-dimacs writes buckets; it does not solve them")

    monkeypatch.setattr(pipeline, "solve_instances", no_solve)
    assert pipeline.cmd_export_dimacs(_config(world, out_dir=world / "unsolved")) == []
    assert {p.name: p.read_bytes() for p in (world / "unsolved").iterdir()} == expected


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
            record_obj(
                make_record(
                    record_id="r1",
                    traceroutes=(make_traceroute("8.8.0.1", "9.9.0.1"),) * 3,
                )
            )
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


# evaluate reads back what the program writes: scoring the written files must
# equal scoring the values they were written from
_FEW_ASNS = st.integers(1, 4)
_DRAWN_VERDICTS = st.lists(
    st.builds(CensorVerdict, asn=_FEW_ASNS, censor_class=st.sampled_from(CensorClass),
              anomaly=st.sampled_from(AnomalyType),
              witnesses=st.lists(_WITNESS_KEYS, max_size=2).map(tuple)),
    max_size=8,
)
_DRAWN_TRUTHS = st.builds(
    simulate.GroundTruth,
    censors=st.lists(
        st.builds(simulate.CensorPolicy, asn=_FEW_ASNS, anomaly=st.sampled_from(AnomalyType),
                  urls=st.frozensets(st.text(max_size=6), max_size=2),
                  active_days=st.tuples(st.integers(1, 9), st.integers(1, 9))),
        max_size=5,
    ).map(tuple),
    countries=st.dictionaries(_FEW_ASNS, st.sampled_from(["US", "CN"]), max_size=3),
    path_log=st.dictionaries(st.text(max_size=4), st.lists(_FEW_ASNS, max_size=3).map(tuple),
                             max_size=3),
)
_CLASSES = list(CensorClass)
_EVERY_VERDICT = [CensorVerdict(asn, _CLASSES[(asn + i) % 3], anomaly, ())
                  for asn in range(1, 5) for i, anomaly in enumerate(AnomalyType)]
_TRUTH = simulate.GroundTruth(
    tuple(simulate.CensorPolicy(asn, anomaly, frozenset({"http://a/"}), (1, 9))
          for asn, anomaly in [(1, AnomalyType.DNS), (2, AnomalyType.TTL), (3, AnomalyType.DNS)]),
    {1: "US"}, {"r1": (1, 2)},
)


def _scored_from_files(out, verdicts, truth) -> dict:
    pipeline.write_censors(out / "censors.json", verdicts)
    pipeline.write_json(out / "truth.json", simulate.ground_truth_obj(truth))
    return pipeline.cmd_evaluate(out / "censors.json", out / "truth.json")


@settings(max_examples=50)
@given(verdicts=_DRAWN_VERDICTS)
def test_cmd_evaluate_reads_censors_json_as_written(tmp_path_factory, verdicts):
    out = tmp_path_factory.mktemp("evaluate")
    assert _scored_from_files(out, verdicts, _TRUTH) == simulate.evaluate(verdicts, _TRUTH)


@settings(max_examples=50)
@given(truth=_DRAWN_TRUTHS)
def test_cmd_evaluate_reads_ground_truth_as_written(tmp_path_factory, truth):
    out = tmp_path_factory.mktemp("evaluate")
    assert (_scored_from_files(out, _EVERY_VERDICT, truth)
            == simulate.evaluate(_EVERY_VERDICT, truth))


# ---------------------------------------------------------------------------
# whole-file readers

_WHOLE_FILE_READERS = ["prefix table", "AS metadata", "DIMACS", "censors", "ground truth"]


def _whole_file_inputs(world) -> dict:
    """Per whole-file reader: a valid file, and a call that reads a given
    path through the reader with every other input valid."""
    pipeline.write_censors(world / "censors.json", _EVERY_VERDICT)
    pipeline.write_json(world / "truth.json", simulate.ground_truth_obj(_TRUTH))
    (world / "xor.cnf").write_text("p cnf 12 3\n1 2 0\n-1 -2 0\n-12 0\n")

    def loaded(cfg):
        got = pipeline.load_inputs(cfg)
        return (got.records, got.measurement_report, got.table._probes, got.registry,
                got.warnings)

    return {
        "prefix table": (world / "pfx2as.tsv",
                         lambda p: loaded(_config(world, pfx2as=p))),
        "AS metadata": (world / "as_metadata.csv",
                        lambda p: loaded(_config(world, as_meta=p))),
        "DIMACS": (world / "xor.cnf", lambda p: pipeline.cmd_solve_dimacs(p, cap=5)),
        "censors": (world / "censors.json",
                    lambda p: pipeline.cmd_evaluate(p, world / "truth.json")),
        "ground truth": (world / "truth.json",
                         lambda p: pipeline.cmd_evaluate(world / "censors.json", p)),
    }


def _os_error_text(code: int, path) -> str:
    return f"[Errno {code}] {os.strerror(code)}: {str(path)!r}"


@pytest.mark.parametrize("as_type", [str, Path])
@pytest.mark.parametrize("what", _WHOLE_FILE_READERS)
def test_whole_file_readers_name_the_file_they_cannot_read(world, what, as_type):
    _, read = _whole_file_inputs(world)[what]
    (world / "a_dir").mkdir()
    (world / "latin1").write_bytes(b"\xff\n")
    cases = {
        "missing": _os_error_text(errno.ENOENT, world / "missing"),
        "a_dir": _os_error_text(errno.EISDIR, world / "a_dir"),
        "latin1": "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
    }
    for name, reason in cases.items():
        with pytest.raises(pipeline.InputError) as caught:
            read(as_type(world / name))
        assert str(caught.value) == f"cannot read {what} file {world / name}: {reason}"


@pytest.mark.parametrize("what", _WHOLE_FILE_READERS)
def test_whole_file_readers_read_str_and_path_alike(world, what):
    valid, read = _whole_file_inputs(world)[what]
    assert read(str(valid)) == read(valid)


def test_solve_dimacs_parses_each_file_once(world, monkeypatch):
    # perfbench's trace mode counts DIMACS instances by wrapping this name
    files = {"restricted.cnf": "p cnf 3 2\n1 2 0\n-3 0\n",
             "general.cnf": "p cnf 2 2\n1 2 0\n-1 -2 0\n",
             "unsat.cnf": "p cnf 1 2\n1 0\n-1 0\n"}
    for name, text in files.items():
        (world / name).write_text(text)
    calls = []
    parse = solver.parse_dimacs

    def counted(text):
        calls.append(text)
        return parse(text)

    monkeypatch.setattr(solver, "parse_dimacs", counted)
    for name in files:
        pipeline.cmd_solve_dimacs(world / name, cap=5)
    assert calls == list(files.values())
