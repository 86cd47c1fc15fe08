"""End-to-end run orchestration shared by the CLI commands.

Stages are plain functions over values so tests (and the ablation command)
can recombine them; the write_* helpers put byte-stable artifacts into the
output directory. Reruns refuse to overwrite existing outputs unless forced.
"""
from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

from . import analysis, simulate, solver, tomography
from .aspath import InferenceFailure, InferenceRule, infer_as_path, trace_inference
from .ingest import (
    AsRegistry,
    IngestError,
    ParseReport,
    PrefixTable,
    ingest_summary_obj,
    parse_as_metadata,
    parse_measurements,
    parse_pfx2as,
)
from .model import (
    AnomalyType,
    AsPath,
    CensorVerdict,
    CnfInstance,
    MeasurementRecord,
    SolutionSummary,
    TimeGranularity,
)

ALL_GRANULARITIES = tuple(TimeGranularity)


class InputError(Exception):
    """A problem with the run's inputs or output destination (exit code 2)."""


@dataclass
class RunConfig:
    measurements: Path
    pfx2as: Path
    out_dir: Path
    as_meta: Path | None = None
    granularities: tuple[TimeGranularity, ...] = ALL_GRANULARITIES
    anomalies: tuple[AnomalyType, ...] | None = None
    model_cap: int = solver.DEFAULT_MODEL_CAP
    url_split: bool = True
    # kept so callers stay valid; buckets are always solved in-process
    workers: int = 1
    force: bool = False
    debug_trace: bool = False


def _read_text(path: Path, what: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {what} file {path}: {exc}") from None


@dataclass
class LoadedInputs:
    records: list[MeasurementRecord]
    measurement_report: ParseReport
    table: PrefixTable
    registry: AsRegistry | None
    warnings: list[str] = field(default_factory=list)


def load_inputs(cfg: RunConfig, need_registry: bool = False) -> LoadedInputs:
    registry = registry_report = None
    try:
        table, table_report = parse_pfx2as(_read_text(cfg.pfx2as, "prefix table"))
        if cfg.as_meta is not None:
            registry, registry_report = parse_as_metadata(
                _read_text(cfg.as_meta, "AS metadata")
            )
        elif need_registry:
            raise InputError("this command needs --as-meta (country lookups)")
        records, measurement_report = parse_measurements(
            _read_text(cfg.measurements, "measurements")
        )
    except IngestError as exc:
        raise InputError(str(exc)) from None
    warnings = []
    if cfg.anomalies is not None:
        wanted = set(cfg.anomalies)
        records = [r for r in records if r.anomaly in wanted]
        if not records:
            warnings.append("no records left after the anomaly filter")
    reports = [("pfx2as", table_report), ("measurements", measurement_report)]
    if registry_report is not None:
        reports.append(("as-meta", registry_report))
    for label, report in reports:
        for reason, count in sorted(report.warnings.items()):
            warnings.append(f"{label}: {reason} x{count}")
    return LoadedInputs(
        records=records,
        measurement_report=measurement_report,
        table=table,
        registry=registry,
        warnings=warnings,
    )


def infer_paths(
    records: Sequence[MeasurementRecord], table: PrefixTable
) -> tuple[list[tuple[MeasurementRecord, AsPath]], dict[InferenceRule, int]]:
    """Per-record path inference plus elimination accounting.

    Records that share (vantage ASN, destination IP, traceroutes) pose the
    same problem, so each distinct problem is inferred once per call.
    len(records) == len(pairs) + sum(failure counts), always.
    """
    pairs: list[tuple[MeasurementRecord, AsPath]] = []
    failures: dict[InferenceRule, int] = {rule: 0 for rule in InferenceRule}
    outcomes: dict[tuple, AsPath | InferenceFailure] = {}
    for record in records:
        key = (record.vantage_asn, record.dst_ip, record.traceroutes)
        outcome = outcomes.get(key)
        if outcome is None:
            outcome = outcomes[key] = infer_as_path(record, table)
        if isinstance(outcome, InferenceFailure):
            failures[outcome.rule] += 1
        else:
            pairs.append((record, outcome))
    assert len(records) == len(pairs) + sum(failures.values())
    return pairs, failures


def elimination_summary_obj(
    n_records: int, n_pairs: int, failures: dict[InferenceRule, int]
) -> dict[str, Any]:
    return {
        "records": n_records,
        "paths_inferred": n_pairs,
        "failures": {rule.value: failures.get(rule, 0) for rule in InferenceRule},
    }


def solve_instances(instances: Sequence[CnfInstance], cap: int) -> list[SolutionSummary]:
    """Classify every instance in this process, in instance order."""
    return [solver.classify(instance, cap) for instance in instances]


@dataclass
class LocalizeResult:
    loaded: LoadedInputs
    pairs: list[tuple[MeasurementRecord, AsPath]]
    failures: dict[InferenceRule, int]
    instances: list[CnfInstance]
    summaries: list[SolutionSummary]
    verdicts: list
    reduction: analysis.ReductionReport
    rows_granularity: list[dict]
    rows_anomaly: list[dict]


def run_localize_stages(cfg: RunConfig, loaded: LoadedInputs | None = None) -> LocalizeResult:
    if loaded is None:
        loaded = load_inputs(cfg)
    pairs, failures = infer_paths(loaded.records, loaded.table)
    instances = tomography.build_instances(pairs, cfg.granularities, cfg.url_split)
    summaries = solve_instances(instances, cfg.model_cap)
    verdicts = analysis.identify_censors(summaries)
    reduction = analysis.reduction_stats(summaries)
    return LocalizeResult(
        loaded=loaded,
        pairs=pairs,
        failures=failures,
        instances=instances,
        summaries=summaries,
        verdicts=verdicts,
        reduction=reduction,
        rows_granularity=analysis.solution_rows_by_granularity(summaries, cfg.model_cap),
        rows_anomaly=analysis.solution_rows_by_anomaly(summaries, cfg.model_cap),
    )


# ---------------------------------------------------------------------------
# output writing


def prepare_out_dir(out_dir: Path, filenames: Sequence[str], force: bool) -> Path:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if not force:
        existing = [name for name in filenames if (out_dir / name).exists()]
        if existing:
            raise InputError(
                f"output file {existing[0]} already exists in {out_dir}; "
                "pass --force to overwrite"
            )
    return out_dir


def write_json(path: Path, obj: Any) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence[Any]]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    path.write_text(buf.getvalue(), encoding="utf-8")


def _share(x: float) -> str:
    return f"{x:.6f}"


def _solution_csv_rows(rows: list[dict], group_field: str) -> list[list[Any]]:
    return [
        [
            row[group_field],
            row["cnf_count"],
            row["unsat"],
            row["unique"],
            row["multiple"],
            row["at_cap"],
            _share(row["share_unsat"]),
            _share(row["share_unique"]),
            _share(row["share_multiple"]),
            _share(row["share_at_cap"]),
        ]
        for row in rows
    ]


_SOLUTION_HEADER_TAIL = [
    "cnf_count",
    "unsat",
    "unique",
    "multiple",
    "at_cap",
    "share_unsat",
    "share_unique",
    "share_multiple",
    "share_at_cap",
]

LOCALIZE_FILES = (
    "ingest_summary.json",
    "elimination_summary.json",
    "censors.json",
    "reduction_cdf.csv",
    "reduction_summary.json",
    "solutions_by_granularity.csv",
    "solutions_by_anomaly.csv",
)


def write_localize_outputs(cfg: RunConfig, result: LocalizeResult, out_dir: Path) -> None:
    write_json(out_dir / "ingest_summary.json", ingest_summary_obj(result.loaded.measurement_report))
    write_json(
        out_dir / "elimination_summary.json",
        elimination_summary_obj(len(result.loaded.records), len(result.pairs), result.failures),
    )
    write_json(out_dir / "censors.json", [v.to_json_obj() for v in result.verdicts])
    write_csv(
        out_dir / "reduction_cdf.csv",
        ["fraction", "cumulative_share"],
        [[f"{f:.2f}", _share(s)] for f, s in result.reduction.cdf],
    )
    write_json(
        out_dir / "reduction_summary.json",
        {
            "multiple_cnfs": len(result.reduction.stats),
            "mean_fraction_eliminated": result.reduction.mean_fraction
            if result.reduction.mean_fraction is not None
            else "n/a",
        },
    )
    write_csv(
        out_dir / "solutions_by_granularity.csv",
        ["granularity", *_SOLUTION_HEADER_TAIL],
        _solution_csv_rows(result.rows_granularity, "granularity"),
    )
    write_csv(
        out_dir / "solutions_by_anomaly.csv",
        ["anomaly", *_SOLUTION_HEADER_TAIL],
        _solution_csv_rows(result.rows_anomaly, "anomaly"),
    )
    if cfg.debug_trace:
        lines = [
            json.dumps(trace_inference(record, result.loaded.table), sort_keys=True)
            for record in result.loaded.records
        ]
        (out_dir / "inference_trace.jsonl").write_text(
            "".join(line + "\n" for line in lines), encoding="utf-8"
        )


def write_leakage_output(out_dir: Path, report: analysis.LeakageReport) -> None:
    write_json(
        out_dir / "leakage.json",
        {
            "edges": [e.to_json_obj() for e in report.edges],
            "censors": [
                {
                    "asn": c.censor_asn,
                    "country": c.censor_country,
                    "leaks_as": c.leaks_as,
                    "leaks_country": c.leaks_country,
                }
                for c in report.per_censor
            ],
            "skipped_missing_country": report.skipped_missing_country,
        },
    )


def write_churn_outputs(
    out_dir: Path, reports: Sequence[analysis.ChurnReport]
) -> None:
    cell_rows: list[list[Any]] = []
    summary_rows: list[list[Any]] = []
    for report in reports:
        for cell in report.cells:
            cell_rows.append(
                [
                    f"{cell.vantage_asn}-{cell.dst_asn}",
                    report.granularity.value,
                    cell.window_id,
                    cell.distinct_paths,
                ]
            )
        summary_rows.append(
            [
                report.granularity.value,
                len(report.cells),
                report.multi_measurement_cells,
                report.churning_cells,
                _share(report.fraction_churning)
                if report.fraction_churning is not None
                else "n/a",
                *[report.histogram[b] for b in analysis.HISTOGRAM_BUCKETS],
            ]
        )
    write_csv(
        out_dir / "churn.csv",
        ["pair", "granularity", "window", "distinct_paths"],
        cell_rows,
    )
    write_csv(
        out_dir / "churn_summary.csv",
        [
            "granularity",
            "cells",
            "multi_measurement_cells",
            "churning_cells",
            "fraction_churning",
            "paths_1",
            "paths_2",
            "paths_3",
            "paths_4",
            "paths_5_plus",
        ],
        summary_rows,
    )


# ---------------------------------------------------------------------------
# command bodies (CLI argument handling lives in cli.py)


def _out_files(cfg: RunConfig, *extra: str) -> tuple[str, ...]:
    # what a localize-based command writes: the localize set, its own files,
    # then the trace when asked for
    trace = ("inference_trace.jsonl",) if cfg.debug_trace else ()
    return LOCALIZE_FILES + extra + trace


def _warnings(
    loaded: LoadedInputs, pairs: Sequence[tuple[MeasurementRecord, AsPath]]
) -> list[str]:
    warnings = list(loaded.warnings)
    if not pairs:
        warnings.append("zero records survived path inference; outputs are empty")
    return warnings


def cmd_localize(cfg: RunConfig) -> list[str]:
    result = run_localize_stages(cfg)
    out_dir = prepare_out_dir(cfg.out_dir, _out_files(cfg), cfg.force)
    write_localize_outputs(cfg, result, out_dir)
    return _warnings(result.loaded, result.pairs)


def cmd_leak(cfg: RunConfig) -> list[str]:
    loaded = load_inputs(cfg, need_registry=True)
    result = run_localize_stages(cfg, loaded=loaded)
    assert loaded.registry is not None
    report = analysis.detect_leakage(
        list(zip(result.instances, result.summaries)), loaded.registry
    )
    out_dir = prepare_out_dir(cfg.out_dir, _out_files(cfg, "leakage.json"), cfg.force)
    write_localize_outputs(cfg, result, out_dir)
    write_leakage_output(out_dir, report)
    return _warnings(loaded, result.pairs)


def cmd_churn(cfg: RunConfig) -> list[str]:
    loaded = load_inputs(cfg)
    pairs, _failures = infer_paths(loaded.records, loaded.table)
    observations = [
        (record.vantage_asn, path.dst_asn, record.timestamp, path)
        for record, path in pairs
    ]
    reports = [analysis.churn_stats(observations, g) for g in cfg.granularities]
    out_dir = prepare_out_dir(cfg.out_dir, ("churn.csv", "churn_summary.csv"), cfg.force)
    write_churn_outputs(out_dir, reports)
    return _warnings(loaded, pairs)


def cmd_ablate(cfg: RunConfig) -> list[str]:
    result = run_localize_stages(cfg)
    ablated_pairs = analysis.ablate_churn(result.pairs)
    ablated_instances = tomography.build_instances(
        ablated_pairs, cfg.granularities, cfg.url_split
    )
    ablated_summaries = solve_instances(ablated_instances, cfg.model_cap)
    ablated_rows = analysis.solution_rows_by_granularity(ablated_summaries, cfg.model_cap)
    ablated_name = "ablated_solutions_by_granularity.csv"
    out_dir = prepare_out_dir(cfg.out_dir, _out_files(cfg, ablated_name), cfg.force)
    write_localize_outputs(cfg, result, out_dir)
    write_csv(
        out_dir / ablated_name,
        ["granularity", *_SOLUTION_HEADER_TAIL],
        _solution_csv_rows(ablated_rows, "granularity"),
    )
    return _warnings(result.loaded, result.pairs)


def cmd_export_dimacs(cfg: RunConfig) -> list[str]:
    result = run_localize_stages(cfg)
    filenames = [tomography.dimacs_filename(inst.key) for inst in result.instances]
    out_dir = prepare_out_dir(cfg.out_dir, filenames, cfg.force)
    for instance, name in zip(result.instances, filenames):
        (out_dir / name).write_text(tomography.to_dimacs(instance), encoding="utf-8")
    warnings = list(result.loaded.warnings)
    if not result.instances:
        warnings.append("no CNF instances to export")
    return warnings


def cmd_solve_dimacs(path: Path, cap: int) -> dict:
    text = _read_text(path, "DIMACS")
    try:
        return solver.solve_dimacs_text(text, cap)
    except ValueError as exc:
        raise InputError(str(exc)) from None


def cmd_evaluate(censors_path: Path, truth_path: Path) -> dict:
    try:
        verdict_objs = json.loads(_read_text(censors_path, "censors"))
        truth_obj = json.loads(_read_text(truth_path, "ground truth"))
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON input: {exc}") from None
    try:
        verdicts = [CensorVerdict.from_json_obj(v) for v in verdict_objs]
        truth = simulate.ground_truth_from_obj(truth_obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed input: {exc}") from None
    return simulate.evaluate(verdicts, truth)


SIMULATION_FILES = (
    "measurements.jsonl",
    "pfx2as.tsv",
    "as_metadata.csv",
    "ground_truth.json",
)


def cmd_simulate(params: simulate.SimParams, out_dir: Path, force: bool) -> None:
    try:
        world = simulate.generate_world(params)
        records, truth = simulate.generate_measurements(world, params)
    except simulate.SimulationError as exc:
        raise InputError(str(exc)) from None
    out = prepare_out_dir(out_dir, SIMULATION_FILES, force)
    (out / "measurements.jsonl").write_text(
        simulate.measurements_jsonl(records), encoding="utf-8"
    )
    (out / "pfx2as.tsv").write_text(simulate.pfx2as_text(world), encoding="utf-8")
    (out / "as_metadata.csv").write_text(simulate.as_metadata_text(world), encoding="utf-8")
    write_json(out / "ground_truth.json", simulate.ground_truth_obj(truth))
