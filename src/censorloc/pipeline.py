"""End-to-end run orchestration shared by the CLI commands.

Stages are plain functions over values so tests (and the ablation command)
can recombine them; the write_* helpers put byte-stable artifacts into the
output directory. Reruns refuse to overwrite existing outputs unless forced.

Every command that runs imports this module (argument handling alone does
not), so at module level it imports only what every command uses: ``model``
and ``solver``. The corpus stages (``ingest``, ``aspath``, ``tomography``,
``analysis``) are imported inside the functions that run them, and
``simulate`` inside its two commands, so ``solve-dimacs`` and ``evaluate``
load none of them. Stage calls go through the module attribute
(``aspath.infer_as_path``), so a function replaced on its own module, as the
tests and the benchmark's tracer do, is the one that runs.
"""
from __future__ import annotations

import gc
import io
import json
from pathlib import Path
from typing import TYPE_CHECKING, Any, NamedTuple, Sequence

from . import solver
from .model import (
    ALL_GRANULARITIES,
    DEFAULT_MODEL_CAP,
    AnomalyType,
    AsPath,
    BucketKey,
    CensorClass,
    CensorVerdict,
    CnfInstance,
    InputError,
    MeasurementRecord,
    SolutionSummary,
    TimeGranularity,
)

if TYPE_CHECKING:
    from . import analysis, simulate
    from .aspath import InferenceRule
    from .ingest import ParseReport, PrefixTable
    from .tomography import DaySets


class RunConfig(NamedTuple):
    measurements: Path
    pfx2as: Path
    out_dir: Path
    as_meta: Path | None = None
    granularities: tuple[TimeGranularity, ...] = ALL_GRANULARITIES
    anomalies: tuple[AnomalyType, ...] | None = None
    model_cap: int = DEFAULT_MODEL_CAP
    url_split: bool = True
    force: bool = False
    debug_trace: bool = False


def _read_error(path: Path, what: str, exc: Exception) -> InputError:
    return InputError(f"cannot read {what} file {path}: {exc}")


def _read_text(path: Path, what: str) -> str:
    # line ends stay as written: each reader says where its lines end
    try:
        with open(path, "rb", buffering=0) as file:
            return file.read().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise _read_error(path, what, exc) from None


def _read_measurements(
    path: Path, table: PrefixTable
) -> tuple[list[MeasurementRecord], ParseReport]:
    from . import ingest

    # parsed line by line as the file is read, so its text is never held
    # whole; a read or decode error can come from any line
    try:
        with open(path, encoding="utf-8", newline="\n") as lines:
            return ingest.parse_measurements(lines, table)
    except (OSError, UnicodeDecodeError) as exc:
        raise _read_error(path, "measurements", exc) from None


class LoadedInputs(NamedTuple):
    records: list[MeasurementRecord]
    measurement_report: ParseReport
    table: PrefixTable
    registry: dict[int, str] | None
    warnings: list[str]


def load_inputs(cfg: RunConfig) -> LoadedInputs:
    from . import ingest

    registry = registry_report = None
    table, table_report = ingest.parse_pfx2as(_read_text(cfg.pfx2as, "prefix table"))
    if cfg.as_meta is not None:
        registry, registry_report = ingest.parse_as_metadata(
            _read_text(cfg.as_meta, "AS metadata"))
    records, measurement_report = _read_measurements(cfg.measurements, table)
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
    return LoadedInputs(records, measurement_report, table, registry, warnings)


def infer_paths(
    records: Sequence[MeasurementRecord], table: PrefixTable
) -> tuple[list[tuple[MeasurementRecord, AsPath]], dict[InferenceRule, int]]:
    """Per-record path inference plus elimination accounting.

    Records that share (vantage ASN, destination IP, traceroutes) pose the
    same problem, so each distinct problem is inferred once per call, and
    each distinct traceroute of a record is collapsed once. Ingest shares
    equal triples, so the memo keys on the triple's identity; an entry keeps
    its triple, so that no id is reused while the memo lives.
    len(records) == len(pairs) + sum(failure counts), always.
    """
    from . import aspath

    pairs: list[tuple[MeasurementRecord, AsPath]] = []
    failures: dict[InferenceRule, int] = {rule: 0 for rule in aspath.InferenceRule}
    outcomes: dict[tuple, tuple[tuple, AsPath | aspath.InferenceFailure]] = {}
    for record in records:
        key = (record.vantage_asn, record.dst_ip, id(record.traceroutes))
        entry = outcomes.get(key)
        if entry is None:
            entry = outcomes[key] = (record.traceroutes, aspath.infer_as_path(record, table))
        outcome = entry[1]
        if isinstance(outcome, aspath.InferenceFailure):
            failures[outcome.rule] += 1
        else:
            pairs.append((record, outcome))
    assert len(records) == len(pairs) + sum(failures.values())
    return pairs, failures


def elimination_summary_obj(
    n_records: int, n_pairs: int, failures: dict[InferenceRule, int]
) -> dict[str, Any]:
    from . import aspath

    return {
        "records": n_records,
        "paths_inferred": n_pairs,
        "failures": {rule.value: failures.get(rule, 0) for rule in aspath.InferenceRule},
    }


def solve_instances(instances: Sequence[CnfInstance], cap: int) -> list[SolutionSummary]:
    """Classify every instance in this process, in instance order. Clauses
    fix an instance's variables, so each distinct body is solved once, and
    equal bodies share one backbone dict, which nothing writes to."""
    solved: dict[tuple, SolutionSummary] = {}
    summaries = []
    for instance in instances:
        first = solved.get(instance.clauses)
        if first is None:
            first = solved[instance.clauses] = solver.classify(instance, cap)
            summaries.append(first)
        else:
            summaries.append(SolutionSummary(instance.key, *first[1:]))
    return summaries


class LocalizeResult(NamedTuple):
    loaded: LoadedInputs
    pairs: list[tuple[MeasurementRecord, AsPath]]
    failures: dict[InferenceRule, int]
    days: DaySets
    instances: list[CnfInstance]
    summaries: list[SolutionSummary]
    verdicts: list
    reduction: analysis.ReductionReport
    rows_granularity: list[dict]
    rows_anomaly: list[dict]


def _inferred(
    cfg: RunConfig,
) -> tuple[LoadedInputs, list[tuple[MeasurementRecord, AsPath]], dict[InferenceRule, int]]:
    loaded = load_inputs(cfg)
    pairs, failures = infer_paths(loaded.records, loaded.table)
    # what ingest and inference made lives to the end of the run: frozen, it
    # is left out of the collections that the later stages set off
    gc.freeze()
    return loaded, pairs, failures


def run_localize_stages(cfg: RunConfig) -> LocalizeResult:
    from . import analysis, tomography

    loaded, pairs, failures = _inferred(cfg)
    days = tomography.fold_days(pairs, cfg.url_split)
    instances = tomography.build_instances(days, cfg.granularities)
    summaries = solve_instances(instances, cfg.model_cap)
    verdicts = analysis.identify_censors(summaries)
    reduction = analysis.reduction_stats(summaries)
    return LocalizeResult(
        loaded=loaded,
        pairs=pairs,
        failures=failures,
        days=days,
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
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot create output directory {out_dir}: {exc}") from None
    if not force:
        existing = [name for name in filenames if (out_dir / name).exists()]
        if existing:
            raise InputError(
                f"output file {existing[0]} already exists in {out_dir}; "
                "pass --force to overwrite"
            )
    return out_dir


def write_json(path: Path, obj: Any) -> None:
    # indent selects json's pure-Python encoder, so dump writes the bytes
    # that dumps would return, a piece at a time
    with open(path, "w", encoding="utf-8") as out:
        json.dump(obj, out, indent=2, sort_keys=True)
        out.write("\n")


# the JSON text of every enum member a censors.json entry names
_MEMBER_JSON = {member: json.dumps(member.value)
                for enum in (AnomalyType, TimeGranularity, CensorClass) for member in enum}


def write_censors(path: Path, verdicts: Sequence[CensorVerdict]) -> None:
    """Write what write_json writes for the verdicts' JSON objects, byte for
    byte, one verdict at a time: each distinct witness bucket and each enum
    member is rendered once, and the whole text is never held in memory."""
    rendered: dict[BucketKey, str] = {}
    with open(path, "w", encoding="utf-8") as out:
        before = "[\n"
        for verdict in verdicts:
            for key in verdict.witnesses:
                if key not in rendered:
                    # BucketKey.to_json_obj indented three levels deep, its
                    # fields in sorted order
                    rendered[key] = (
                        "      {\n"
                        f'        "anomaly": {_MEMBER_JSON[key.anomaly]},\n'
                        f'        "granularity": {_MEMBER_JSON[key.granularity]},\n'
                        f'        "url": {json.dumps(key.url)},\n'
                        f'        "window": {json.dumps(key.window_id)}\n'
                        "      }"
                    )
            listing = ",\n".join(rendered[key] for key in verdict.witnesses)
            out.write(
                f"{before}  {{\n"
                f'    "anomaly": {_MEMBER_JSON[verdict.anomaly]},\n'
                f'    "asn": {json.dumps(verdict.asn)},\n'
                f'    "class": {_MEMBER_JSON[verdict.censor_class]},\n'
                '    "witnesses": ' + (f"[\n{listing}\n    ]" if listing else "[]") + "\n  }"
            )
            before = ",\n"
        out.write("\n]\n" if verdicts else "[]\n")


def write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence[Any]]) -> None:
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    path.write_text(buf.getvalue(), encoding="utf-8")


def _share(x: float) -> str:
    return f"{x:.6f}"


def _write_solutions(path: Path, rows: list[dict], group_field: str) -> None:
    from . import analysis

    tail = ["cnf_count", *analysis.SOLUTION_COUNTS,
            *(f"share_{name}" for name in analysis.SOLUTION_COUNTS)]
    write_csv(path, [group_field, *tail], [
        [row[group_field]] + [
            _share(row[col]) if col.startswith("share_") else row[col]
            for col in tail
        ]
        for row in rows
    ])


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
    from . import aspath, ingest

    write_json(out_dir / "ingest_summary.json",
               ingest.ingest_summary_obj(result.loaded.measurement_report))
    write_json(
        out_dir / "elimination_summary.json",
        elimination_summary_obj(len(result.loaded.records), len(result.pairs), result.failures),
    )
    write_censors(out_dir / "censors.json", result.verdicts)
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
    _write_solutions(
        out_dir / "solutions_by_granularity.csv", result.rows_granularity, "granularity"
    )
    _write_solutions(out_dir / "solutions_by_anomaly.csv", result.rows_anomaly, "anomaly")
    if cfg.debug_trace:
        with open(out_dir / "inference_trace.jsonl", "w", encoding="utf-8") as out:
            for record in result.loaded.records:
                out.write(
                    json.dumps(aspath.trace_inference(record, result.loaded.table),
                               sort_keys=True)
                    + "\n"
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
    from . import analysis

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


def _write_localize(cfg: RunConfig, result: LocalizeResult, *extra: str) -> Path:
    # claims the localize set, the command's own files, then the trace when
    # asked for; the command writes its own files into the returned directory
    trace = ("inference_trace.jsonl",) if cfg.debug_trace else ()
    out_dir = prepare_out_dir(cfg.out_dir, LOCALIZE_FILES + extra + trace, cfg.force)
    write_localize_outputs(cfg, result, out_dir)
    return out_dir


def _warnings(
    loaded: LoadedInputs, pairs: Sequence[tuple[MeasurementRecord, AsPath]]
) -> list[str]:
    warnings = list(loaded.warnings)
    if not pairs:
        warnings.append("zero records survived path inference; outputs are empty")
    return warnings


def cmd_localize(cfg: RunConfig) -> list[str]:
    result = run_localize_stages(cfg)
    _write_localize(cfg, result)
    return _warnings(result.loaded, result.pairs)


def cmd_leak(cfg: RunConfig) -> list[str]:
    from . import analysis, tomography

    if cfg.as_meta is None:
        raise InputError("this command needs --as-meta (country lookups)")
    result = run_localize_stages(cfg)
    instances = tomography.with_sources(
        result.instances, result.pairs, analysis.pinning_keys(result.summaries), cfg.url_split
    )
    report = analysis.detect_leakage(
        list(zip(instances, result.summaries)), result.loaded.registry
    )
    write_leakage_output(_write_localize(cfg, result, "leakage.json"), report)
    return _warnings(result.loaded, result.pairs)


def cmd_churn(cfg: RunConfig) -> list[str]:
    from . import analysis

    loaded, pairs, _failures = _inferred(cfg)
    observations = [
        (record.vantage_asn, path[-1], record.timestamp, path)
        for record, path in pairs
    ]
    reports = [analysis.churn_stats(observations, g) for g in cfg.granularities]
    out_dir = prepare_out_dir(cfg.out_dir, ("churn.csv", "churn_summary.csv"), cfg.force)
    write_churn_outputs(out_dir, reports)
    return _warnings(loaded, pairs)


def cmd_ablate(cfg: RunConfig) -> list[str]:
    from . import analysis, tomography

    result = run_localize_stages(cfg)
    ablated_days = analysis.ablate_days(result.days, analysis.ablate_churn(result.pairs))
    ablated_instances = tomography.build_instances(ablated_days, cfg.granularities)
    ablated_summaries = solve_instances(ablated_instances, cfg.model_cap)
    ablated_rows = analysis.solution_rows_by_granularity(ablated_summaries, cfg.model_cap)
    ablated_name = "ablated_solutions_by_granularity.csv"
    out_dir = _write_localize(cfg, result, ablated_name)
    _write_solutions(out_dir / ablated_name, ablated_rows, "granularity")
    return _warnings(result.loaded, result.pairs)


def cmd_export_dimacs(cfg: RunConfig) -> list[str]:
    from . import tomography

    loaded, pairs, _failures = _inferred(cfg)
    instances = tomography.build_instances(pairs, cfg.granularities, cfg.url_split)
    filenames = [tomography.dimacs_filename(inst.key) for inst in instances]
    out_dir = prepare_out_dir(cfg.out_dir, filenames, cfg.force)
    for instance, name in zip(instances, filenames):
        (out_dir / name).write_text(tomography.to_dimacs(instance), encoding="utf-8")
    warnings = list(loaded.warnings)
    if not instances:
        warnings.append("no CNF instances to export")
    return warnings


def cmd_solve_dimacs(path: Path, cap: int) -> dict:
    text = _read_text(path, "DIMACS")
    try:
        return solver.solve_dimacs_text(text, cap)
    except ValueError as exc:
        raise InputError(str(exc)) from None


def cmd_evaluate(censors_path: Path, truth_path: Path) -> dict:
    from . import simulate
    try:
        verdict_objs = json.loads(_read_text(censors_path, "censors"))
        truth_obj = json.loads(_read_text(truth_path, "ground truth"))
    except (ValueError, RecursionError) as exc:
        # a JSONDecodeError, an integer over sys.get_int_max_str_digits(),
        # or nesting deeper than the decoder recurses
        raise InputError(f"invalid JSON input: {exc}") from None
    try:
        verdicts = [CensorVerdict.from_json_obj(v) for v in verdict_objs]
        truth = simulate.ground_truth_from_obj(truth_obj)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed input: {exc}") from None
    return simulate.evaluate(verdicts, truth)


SIMULATION_FILES = (
    "measurements.jsonl",
    "pfx2as.tsv",
    "as_metadata.csv",
    "ground_truth.json",
)


def cmd_simulate(params: simulate.SimParams, out_dir: Path, force: bool) -> None:
    from . import simulate
    world = simulate.generate_world(params)
    out = prepare_out_dir(out_dir, SIMULATION_FILES, force)
    # each record is written as it is drawn; only its id and path are kept
    path_log = {}
    with open(out / "measurements.jsonl", "w", encoding="utf-8") as lines:
        for record, path in simulate.generate_measurements(world, params):
            lines.write(json.dumps(record, sort_keys=True) + "\n")
            path_log[record["record_id"]] = path
    (out / "pfx2as.tsv").write_text(simulate.pfx2as_text(world), encoding="utf-8")
    (out / "as_metadata.csv").write_text(simulate.as_metadata_text(world), encoding="utf-8")
    truth = simulate.ground_truth(world, path_log)
    write_json(out / "ground_truth.json", simulate.ground_truth_obj(truth))
