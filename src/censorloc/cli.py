"""Command line interface.

Exit codes: 0 success, 1 unexpected internal failure, 2 bad inputs or bad
output destination: one ``InputError`` (``model.py``), which the readers'
``IngestError`` and the simulator's ``SimulationError`` extend, or a stdout
whose reader has gone, which ends the run without a message. All
subcommands are offline batch jobs over local files.

Argument handling loads only ``model``, where the parser's choices and
defaults live; ``pipeline`` (with the solver) and ``json`` load once the
arguments have parsed.
"""
from __future__ import annotations

import argparse
import os
import sys
from datetime import date
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .model import ALL_GRANULARITIES, DEFAULT_MODEL_CAP, AnomalyType, InputError, TimeGranularity

if TYPE_CHECKING:
    from . import simulate


def _granularity_list(values: list[str] | None) -> tuple[TimeGranularity, ...]:
    if not values:
        return ALL_GRANULARITIES
    return tuple(g for g in TimeGranularity if g.value in values)


def _anomaly_list(values: list[str] | None) -> tuple[AnomalyType, ...] | None:
    if not values:
        return None
    return tuple(dict.fromkeys(AnomalyType.parse(v) for v in values))


def _add_input_args(p: argparse.ArgumentParser, need_meta: bool = False) -> None:
    p.add_argument("--measurements", required=True, type=Path,
                   help="measurement records, one JSON object per line")
    p.add_argument("--pfx2as", required=True, type=Path,
                   help="prefix-to-AS table (TSV: prefix, length, origin)")
    p.add_argument("--as-meta", type=Path, default=None, required=need_meta,
                   help="AS metadata CSV (asn,country,name)")
    p.add_argument("--out", required=True, type=Path, help="output directory")
    p.add_argument("--force", action="store_true",
                   help="overwrite existing output files")
    p.add_argument("--granularity", action="append", metavar="G",
                   choices=[g.value for g in TimeGranularity],
                   help="time granularity to bucket by (repeatable; default all)")


def _add_analysis_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--anomaly", action="append", metavar="A",
                   choices=[a.value for a in AnomalyType],
                   help="keep only these anomaly categories (repeatable)")
    p.add_argument("--model-cap", type=int, default=DEFAULT_MODEL_CAP,
                   help="stop counting models at this bound (default %(default)s)")
    p.add_argument("--workers", type=int, default=1,
                   help="accepted for compatibility (N >= 1); CNF instances "
                        "are always solved in this process")
    p.add_argument("--no-url-split", action="store_true",
                   help="merge all URLs into one bucket per window")
    p.add_argument("--debug-trace", action="store_true",
                   help="also write per-record inference traces (JSONL)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="censorloc",
        description="Localize network censorship to ASes from anomaly "
                    "measurements and traceroutes.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # a simulation flag that is not given is left out of the namespace, so
    # simulate.SimParams alone holds the defaults
    p = sub.add_parser("simulate", help="generate a synthetic measurement corpus",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--out", required=True, type=Path, help="output directory")
    p.add_argument("--force", action="store_true", default=False,
                   help="overwrite existing output files")
    p.add_argument("--seed", type=int, help="RNG seed (default 0)")
    p.add_argument("--n-ases", type=int)
    p.add_argument("--n-vantage", type=int)
    p.add_argument("--n-urls", type=int)
    p.add_argument("--n-censors", type=int)
    p.add_argument("--path-pool-size", type=int)
    p.add_argument("--churn-prob", type=float)
    p.add_argument("--noise-prob", type=float)
    p.add_argument("--nonresponsive-prob", type=float)
    p.add_argument("--days", type=int)
    p.add_argument("--start-date", metavar="YYYY-MM-DD")
    p.add_argument("--active-days", type=int, nargs=2, dest="active_day_range",
                   metavar=("FIRST", "LAST"),
                   help="day range (1-based, inclusive) when censors act")
    p.add_argument("--anomaly", action="append", dest="anomalies", metavar="A",
                   choices=[a.value for a in AnomalyType],
                   help="anomaly categories to simulate (repeatable; default all)")

    for name, help_text in (
        ("localize", "infer paths, build CNFs, solve, classify ASes"),
        ("leak", "localize plus cross-border leakage detection"),
        ("ablate", "localize plus a churn-removed rerun"),
        ("export-dimacs", "write each CNF instance as a DIMACS file"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_input_args(p, need_meta=(name == "leak"))
        _add_analysis_args(p)

    p = sub.add_parser("churn", help="quantify AS-path churn per vantage/destination")
    _add_input_args(p)
    # churn runs at the analysis defaults, so one RunConfig serves every corpus command
    p.set_defaults(anomaly=None, model_cap=DEFAULT_MODEL_CAP, workers=1,
                   no_url_split=False, debug_trace=False)

    p = sub.add_parser("solve-dimacs", help="solve a single DIMACS CNF file")
    p.add_argument("cnf", type=Path, help="DIMACS CNF file")
    p.add_argument("--model-cap", type=int, default=DEFAULT_MODEL_CAP)

    p = sub.add_parser("evaluate", help="score censors.json against simulator ground truth")
    p.add_argument("--censors", required=True, type=Path, help="censors.json from localize")
    p.add_argument("--truth", required=True, type=Path, help="ground_truth.json from simulate")
    p.add_argument("--out", type=Path, default=None,
                   help="also write the scorecard to OUT/evaluation.json")
    p.add_argument("--force", action="store_true", help="overwrite existing output files")

    return parser


def _sim_params_from_args(args: argparse.Namespace) -> simulate.SimParams:
    from . import simulate
    kwargs = {k: v for k, v in vars(args).items() if k not in ("command", "out", "force")}
    if "anomalies" in kwargs:
        kwargs["anomalies"] = _anomaly_list(kwargs["anomalies"])
    if "active_day_range" in kwargs:
        kwargs["active_day_range"] = tuple(kwargs["active_day_range"])
    if "start_date" in kwargs:
        try:
            kwargs["start_date"] = date.fromisoformat(args.start_date)
        except ValueError:
            raise InputError(
                f"--start-date must be YYYY-MM-DD, got {args.start_date!r}"
            ) from None
    return simulate.SimParams(**kwargs)


def _run(args: argparse.Namespace) -> int:
    import json

    from . import pipeline

    if args.command == "simulate":
        pipeline.cmd_simulate(_sim_params_from_args(args), args.out, args.force)
        return 0
    if args.command == "evaluate":
        scorecard = pipeline.cmd_evaluate(args.censors, args.truth)
        text = json.dumps(scorecard, indent=2, sort_keys=True)
        if args.out is not None:
            out_dir = pipeline.prepare_out_dir(args.out, ("evaluation.json",), args.force)
            (out_dir / "evaluation.json").write_text(text + "\n", encoding="utf-8")
        print(text)
        return 0
    if args.model_cap < 2:
        raise InputError("--model-cap must be >= 2")
    if args.command == "solve-dimacs":
        result = pipeline.cmd_solve_dimacs(args.cnf, args.model_cap)
        print(json.dumps(result, indent=2, sort_keys=True))
        return 0
    if args.workers < 1:
        raise InputError("--workers must be >= 1")
    command = getattr(pipeline, "cmd_" + args.command.replace("-", "_"))
    warnings = command(pipeline.RunConfig(
        measurements=args.measurements,
        pfx2as=args.pfx2as,
        out_dir=args.out,
        as_meta=args.as_meta,
        granularities=_granularity_list(args.granularity),
        anomalies=_anomaly_list(args.anomaly),
        model_cap=args.model_cap,
        url_split=not args.no_url_split,
        force=args.force,
        debug_trace=args.debug_trace,
    ))
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = _run(args)
        sys.stdout.flush()
        return code
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # what is still buffered would fail again when the interpreter
        # flushes stdout at exit, so stdout now writes to os.devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 2
    except Exception as exc:  # noqa: BLE001 - last-resort boundary
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
