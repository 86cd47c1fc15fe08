"""Child processes of the censorloc benchmark; run.py starts them.

    python3 perfbench/child.py batch LIST RESULT
    python3 perfbench/child.py trace TRACE batch LIST RESULT
    python3 perfbench/child.py trace TRACE cli CLI-ARGS...

Both need ``PYTHONPATH=src``. ``batch`` solves every DIMACS file named in
LIST (one path a line) through ``pipeline.cmd_solve_dimacs``, each under a
time limit, and writes ``[name, seconds, verdict or error]`` per instance to
RESULT as JSON. ``trace`` first wraps the public entry points of each
censorloc module, then runs the batch or ``censorloc.cli.main(CLI-ARGS)`` in
this process and writes the per-layer metrics to TRACE as JSON. The wrappers
live here, so nothing under ``src/`` is instrumented.
"""
from __future__ import annotations

import json
import resource
import signal
import sys
import time
from collections import defaultdict
from pathlib import Path

MODEL_CAP = 5
# Per-instance limit of the DIMACS batch. Every instance of the benchmark's
# set finishes at least ten times faster than this, so an instance either
# solves or has clearly failed, and the failed count repeats exactly.
INSTANCE_LIMIT_S = 2.0
ANALYSIS_ENTRY_POINTS = ("identify_censors", "reduction_stats", "solution_rows_by_granularity",
                         "solution_rows_by_anomaly", "ablate_churn")


class InstanceTimeout(Exception):
    """An instance ran past INSTANCE_LIMIT_S."""


def _on_alarm(signum, frame):
    raise InstanceTimeout(f"over {INSTANCE_LIMIT_S} s")


def run_batch(list_file: Path, result_file: Path) -> None:
    from censorloc import pipeline

    paths = [Path(line) for line in list_file.read_text().splitlines() if line]
    signal.signal(signal.SIGALRM, _on_alarm)
    results = []
    for path in paths:
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INSTANCE_LIMIT_S)
        try:
            outcome = pipeline.cmd_solve_dimacs(path, MODEL_CAP)
        # the batch must go on after any failure of one instance; the parent
        # counts the recorded error as a failed operation
        except Exception as exc:  # noqa: BLE001
            outcome = f"{type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        results.append([path.name, time.perf_counter() - start, outcome])
    result_file.write_text(json.dumps(results))


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _children_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class Tracer:
    """Spans around module entry points, kept in memory.

    For each wrapped function it sums the self time (its span minus the
    spans of wrapped functions it called) and the time of its outermost
    calls. Counts are taken by hooks that run after a span has closed, so
    their cost stays out of every layer's time.
    """

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.outer_s: dict[str, float] = defaultdict(float)
        self.metrics: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []

    def wrap(self, module, name: str, after=None) -> None:
        fn = getattr(module, name)

        def traced(*args, **kwargs):
            outermost = all(frame[0] != name for frame in self._stack)
            self._stack.append([name, 0.0])
            cpu0 = _children_cpu_s()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = time.perf_counter() - start
                _, child_s = self._stack.pop()
                self.self_s[name] += span - child_s
                if outermost:
                    self.outer_s[name] += span
                if self._stack:
                    self._stack[-1][1] += span
            if after is not None:
                after(result, args, span, _children_cpu_s() - cpu0)
            return result

        setattr(module, name, traced)

    def count(self, module, name: str, metric: str) -> None:
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            self.metrics[metric] += 1
            return fn(*args, **kwargs)

        setattr(module, name, counted)


def install(tracer: Tracer) -> None:
    """Wrap the entry point of every layer: ingest, aspath, tomography,
    solver, analysis and pipeline (writers)."""
    from censorloc import analysis, pipeline, solver, tomography
    from censorloc.aspath import InferenceRule

    m = tracer.metrics

    def after_ingest(loaded, args, span, _cpu):
        cfg = args[0]
        report = loaded.measurement_report
        m["ingest.records_in"] += report.kept + report.skipped
        m["ingest.records_kept"] += len(loaded.records)
        m["ingest.records_skipped"] += report.skipped
        m["ingest.hops"] += sum(
            len(t.hops) for r in loaded.records for t in r.traceroutes
        )
        for path in (cfg.measurements, cfg.pfx2as, cfg.as_meta):
            if path is not None:
                m["ingest.bytes_in"] += Path(path).stat().st_size
        m["ingest.rss_mb"] = _rss_mb()

    def after_aspath(outcome, args, span, _cpu):
        records = args[0]
        pairs, failures = outcome
        m["aspath.paths_kept"] += len(pairs)
        for rule in InferenceRule:
            m[f"aspath.eliminated.{rule.value}"] += failures[rule]
        problems = {(r.vantage_asn, r.dst_ip, r.traceroutes) for r in records}
        hops = [h.addr for r in records for t in r.traceroutes for h in t.hops]
        addrs = {a for a in hops if a is not None}
        m["aspath.distinct_problem_share"] = len(problems) / max(1, len(records))
        m["aspath.distinct_addr_share"] = len(addrs) / max(1, len(hops))
        m["aspath.rss_mb"] = _rss_mb()

    def after_tomography(instances, args, span, _cpu):
        m["tomography.instances"] += len(instances)
        for inst in instances:
            m[f"tomography.instances.{inst.key.granularity.value}"] += 1
            m["tomography.clauses"] += len(inst.clauses)
            m["tomography.literals"] += sum(len(c.literal_asns) for c in inst.clauses)
            m["tomography.max_vars"] = max(m["tomography.max_vars"], len(inst.variables))

    def after_solve(summaries, args, span, children_cpu):
        cap = args[1]
        m["solver.pool_cpu_s"] += children_cpu
        for s in summaries:
            m[f"solver.{s.status.value}"] += 1
            m["solver.at_cap"] += s.model_count_capped == cap

    def after_censors(verdicts, args, span, _cpu):
        for v in verdicts:
            m[f"analysis.{v.censor_class.value}"] += 1

    last_clauses: list = []

    def after_parse(parsed, args, span, _cpu):
        last_clauses[:] = [parsed[1]]

    def after_instance(outcome, args, span, _cpu):
        kind = "restricted" if solver.is_restricted_shape(last_clauses[0]) else "general"
        m[f"solver.{kind}_s"] += span
        m[f"solver.{kind}_instances"] += 1

    tracer.wrap(pipeline, "load_inputs", after_ingest)
    tracer.wrap(pipeline, "infer_paths", after_aspath)
    tracer.wrap(tomography, "build_instances", after_tomography)
    tracer.wrap(pipeline, "solve_instances", after_solve)
    tracer.count(solver, "check_sat", "solver.check_sat_calls")
    for name in ("parse_dimacs", "count_models", "compute_backbone"):
        tracer.wrap(solver, name, after_parse if name == "parse_dimacs" else None)
    tracer.wrap(pipeline, "cmd_solve_dimacs", after_instance)
    for name in ANALYSIS_ENTRY_POINTS:
        tracer.wrap(analysis, name, after_censors if name == "identify_censors" else None)
    tracer.wrap(pipeline, "write_localize_outputs")
    tracer.wrap(pipeline, "write_csv")


def finish(tracer: Tracer, out_dir: Path | None) -> dict[str, float]:
    out = dict(tracer.metrics)
    outer, self_s = tracer.outer_s, tracer.self_s
    out["ingest.s"] = outer["load_inputs"]
    out["aspath.s"] = outer["infer_paths"]
    out["tomography.s"] = outer["build_instances"]
    out["solver.s"] = outer["solve_instances"]
    out["solver.parse_s"] = self_s["parse_dimacs"]
    out["solver.count_s"] = self_s["count_models"]
    out["solver.backbone_s"] = self_s["compute_backbone"]
    out["analysis.s"] = sum(outer[name] for name in ANALYSIS_ENTRY_POINTS)
    out["pipeline.write_s"] = self_s["write_localize_outputs"] + self_s["write_csv"]
    out["pipeline.bytes_out"] = (
        sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())
        if out_dir is not None and out_dir.is_dir() else 0
    )
    return out


def run_traced(trace_file: Path, mode: str, rest: list[str]) -> int:
    start = time.perf_counter()
    import censorloc.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    install(tracer)
    code = 0
    out_dir = None
    if mode == "batch":
        run_batch(Path(rest[0]), Path(rest[1]))
    else:
        code = censorloc.cli.main(rest)
        out_dir = Path(rest[rest.index("--out") + 1])
    metrics = finish(tracer, out_dir)
    metrics["cli.import_s"] = import_s
    trace_file.write_text(json.dumps(metrics, sort_keys=True))
    return code


def main(argv: list[str]) -> int:
    if argv[0] == "batch":
        run_batch(Path(argv[1]), Path(argv[2]))
        return 0
    if argv[0] == "trace":
        return run_traced(Path(argv[1]), argv[2], argv[3:])
    raise SystemExit(f"unknown mode {argv[0]!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
