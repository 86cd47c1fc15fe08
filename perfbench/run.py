"""The censorloc benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It makes its inputs from --seed with
``censorloc simulate`` (and ``export-dimacs``) outside the timed window, then
runs one workload in a closed loop with one client for S seconds, each
operation a fresh child process started with ``PYTHONPATH=src``:

  localize-shared  ``python -m censorloc.cli localize --workers 1``
  ablate-unshared  ``python -m censorloc.cli ablate --workers 2``
  dimacs-batch     ``perfbench/child.py batch``: every DIMACS instance of a
                   seeded set through ``pipeline.cmd_solve_dimacs``

Wall time comes from ``time.perf_counter`` around the child, CPU time and
peak RSS from its ``os.wait4`` rusage, which includes reaped pool workers;
each is the median over the run's operations. The host switches between
speed states that differ by up to a factor of two, so every time is scaled
to one host speed: ``calib.py``, a fixed workload that does not use
censorloc, runs as a child of its own before and after each operation, and
the operation's times are multiplied by PROBE_REF_S over the mean wall time
of the two probes. A slower host slows both and cancels; a slower censorloc
does not. The raw times are printed to stderr. Every workload reports every
end-to-end metric: records are measurement records (DIMACS clauses in the
batch), instances are CNF buckets solved, and verdict percentiles are over
whole CLI runs for the two corpus workloads and over each instance's median
solve time in the run for the batch. ``setup_s`` is the median start-up of
``censorloc --version``, which imports every module.

Every output is checked: localize output is scored against the simulator's
ground truth, output trees must hash the same on every run (and, for the
seeds in reference.json, equal the digests recorded there), ablate's
2-worker output must equal its 1-worker output, and each DIMACS verdict
must equal brute force or the known answer of its family. A wrong or
missing answer counts as a failed operation.

With --trace 0 the last line of stdout carries the end-to-end metrics of
BENCHMARK.json; with --trace 1, traced and untraced operations alternate and
it carries the per-layer metrics that child.py records. Work files live in
.perfbench_work/ under the checkout and are removed at exit.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from child import MODEL_CAP

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
CHILD = BENCH_DIR / "child.py"
CALIB = BENCH_DIR / "calib.py"
# calib.py's wall time in the fastest host state seen on a 2-vCPU Xeon VM;
# every reported time is scaled to the host speed at which it takes this
PROBE_REF_S = 0.30
SETUP_LAUNCHES = 7
# every run, its set-up included, must end well within 180 s
RUN_DEADLINE_S = 170.0
SIMULATED_FILES = {"measurements.jsonl", "pfx2as.tsv", "as_metadata.csv", "ground_truth.json"}

# Corpus shapes. Localize-shared is the ROADMAP acceptance corpus (50 ASes,
# 10 vantages, 20 URLs, 3 censors, pool 4, churn 0.3, all five anomalies)
# cut from 90 to 6 days: the five anomaly records of a probe share its
# traceroutes, so ingest and path inference dominate. Fewer days leave too
# little evidence for some seeds to name every censor, which the benchmark
# checks. Ablate-unshared has one anomaly, noise and non-responsive hops:
# every record is its own inference problem, many records are eliminated,
# and the solver runs twice through a process pool. It is cut to 3 days so
# that one operation takes under two seconds and a run holds a dozen of
# them, whose median is steady while single operations vary with the
# host's speed.
# The DIMACS set exports every bucket of an 8-day acceptance-shape corpus.
ACCEPTANCE = ["--n-ases", "50", "--n-vantage", "10", "--n-urls", "20", "--n-censors", "3",
              "--path-pool-size", "4", "--churn-prob", "0.3"]
CORPORA = {
    "localize-shared": [*ACCEPTANCE, "--days", "6"],
    "ablate-unshared": ["--n-ases", "100", "--n-vantage", "20", "--n-urls", "40",
                        "--n-censors", "4", "--path-pool-size", "4", "--churn-prob", "0.3",
                        "--noise-prob", "0.01", "--nonresponsive-prob", "0.05",
                        "--days", "3", "--anomaly", "dns"],
    "dimacs-batch": [*ACCEPTANCE, "--noise-prob", "0.01", "--days", "8"],
}
RANDOM_CNFS = 320
RANDOM_MAX_VARS = 14
# Structured general CNFs run the general DPLL path and set the batch's tail
# latency. Sizes stay far below those that take seconds or exhaust the
# recursion limit today (alternating family at 1,000 variables).
STRUCTURED_SIZES = range(20, 121, 10)


class BenchError(Exception):
    """The benchmark could not set up or run; no result is printed."""


@dataclass
class Run:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    # seconds per DIMACS instance of a batch operation
    times: dict[str, float] = field(default_factory=dict)
    # PROBE_REF_S over the mean probe around the operation
    scale: float = 1.0

    @property
    def scaled_wall_s(self) -> float:
        return self.wall_s * self.scale


class Bench:
    def __init__(self, workload: str, seed: int, work: Path, deadline: float):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(work))
        self.stderr_log = work / "stderr.log"
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        reference = json.loads((BENCH_DIR / "reference.json").read_text())
        self.reference = reference.get(workload, {}).get(str(seed))

    # -- child processes -------------------------------------------------

    def launch(self, args: list[str]) -> Run:
        """Run ``python3 ARGS`` to completion; rusage from os.wait4."""
        limit = self.deadline - time.monotonic()
        if limit <= 0:
            raise BenchError("out of time")
        with open(self.stderr_log, "ab") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], cwd=self.work, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                    stderr=err)
            old = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
            signal.setitimer(signal.ITIMER_REAL, limit)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, old)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Run(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                   proc.returncode)

    def probe(self) -> float:
        """Wall time of calib.py in a fresh child: the host's speed now."""
        run = self.launch([str(CALIB)])
        if run.code != 0:
            raise BenchError(f"host-speed probe exited {run.code}")
        return run.wall_s

    def must(self, args: list[str]) -> None:
        run = self.launch(args)
        if run.code != 0:
            tail = self.stderr_log.read_text(errors="replace")[-2000:]
            raise BenchError(f"set-up step {args[:3]} exited {run.code}:\n{tail}")

    def simulate(self, name: str) -> Path:
        out = self.work / name
        self.must(cli("simulate", "--out", str(out), "--seed", str(self.seed),
                      *CORPORA[self.workload]))
        # simulate runs outside the timed window, so it may leave nothing
        # behind that a timed command could reuse
        found = {p.name for p in out.iterdir()}
        if found != SIMULATED_FILES:
            raise BenchError(f"simulate wrote {sorted(found)}, expected {sorted(SIMULATED_FILES)}")
        return out

    def setup_s(self) -> float:
        """Median start-up of a fresh CLI; --version imports every module."""
        before = self.probe()
        runs = []
        for _ in range(SETUP_LAUNCHES):
            run = self.launch(cli("--version"))
            if run.code != 0:
                raise BenchError(f"censorloc --version exited {run.code}")
            after = self.probe()
            run.scale = host_scale(before, after)
            before = after
            runs.append(run)
        print("setup raw wall s: " + " ".join(f"{r.wall_s:.3f}" for r in runs), file=sys.stderr)
        return statistics.median(r.scaled_wall_s for r in runs)

    def check_reference(self, digest: str) -> bool:
        print(f"digest {self.workload} seed {self.seed} {digest}", file=sys.stderr)
        return self.reference is None or digest == self.reference


def host_scale(before: float, after: float) -> float:
    """Factor that takes a time measured between two probes to the host
    speed of PROBE_REF_S."""
    return PROBE_REF_S / ((before + after) / 2)


def cli(*args: str) -> list[str]:
    return ["-m", "censorloc.cli", *args]


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def quantile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ---------------------------------------------------------------------------
# localize-shared and ablate-unshared: one CLI run is one operation


class CorpusWorkload(Bench):
    def prepare(self) -> None:
        self.corpus = self.simulate("corpus")
        self.records = len((self.corpus / "measurements.jsonl").read_bytes().splitlines())
        self.expected: str | None = None
        self.instances = 0
        if self.workload == "ablate-unshared":
            # the ROADMAP requires --workers 2 to write what --workers 1 writes
            out = self.work / "reference-out"
            self.must(self.command(out, workers=1))
            self.expected = tree_digest(out)
            if not self.check_reference(self.expected):
                self.notes.append("--workers 1 output differs from the recorded digest")
                self.expected = "wrong"
            shutil.rmtree(out)

    def command(self, out: Path, workers: int | None = None) -> list[str]:
        if self.workload == "localize-shared":
            head = ["localize", "--workers", str(workers or 1)]
        else:
            head = ["ablate", "--workers", str(workers or 2)]
        return cli(*head, "--measurements", str(self.corpus / "measurements.jsonl"),
                   "--pfx2as", str(self.corpus / "pfx2as.tsv"), "--out", str(out))

    def first_output_ok(self, out: Path, digest: str) -> bool:
        from censorloc import pipeline

        score = pipeline.cmd_evaluate(out / "censors.json", self.corpus / "ground_truth.json")
        overall = score["overall"]
        if overall["precision"] != 1.0 or overall["recall"] != 1.0:
            self.notes.append(f"localize scored {overall}")
            return False
        return self.check_reference(digest)

    def operation(self, index: int, trace_file: Path | None) -> Run:
        out = self.work / f"out{index}"
        args = self.command(out)
        if trace_file is not None:
            args = [str(CHILD), "trace", str(trace_file), "cli", *args[2:]]
        run = self.launch(args)
        self.attempted += 1
        ok = run.code == 0
        if ok:
            digest = tree_digest(out)
            if self.expected is None:
                self.expected = digest if self.first_output_ok(out, digest) else "wrong"
            ok = digest == self.expected
            if not self.instances:
                self.instances = sum(
                    int(line.split(",")[1])
                    for name in ("solutions_by_granularity.csv",
                                 "ablated_solutions_by_granularity.csv")
                    if (out / name).exists()
                    for line in (out / name).read_text().splitlines()[1:]
                )
        if not ok:
            self.failed += 1
            self.notes.append(f"operation {index} exited {run.code}"
                              + (" and wrote unexpected output" if run.code == 0 else ""))
        shutil.rmtree(out, ignore_errors=True)
        return run

    def end_to_end(self, runs: list[Run]) -> dict[str, float]:
        wall = statistics.median(r.scaled_wall_s for r in runs)
        walls_ms = [r.scaled_wall_s * 1000 for r in runs]
        return {
            "records_per_s": self.records / wall,
            "instances_per_s": self.instances / wall,
            # one operation is one batch job: its time to verdict is the run
            "verdict_p50_ms": quantile(walls_ms, 50),
            "verdict_p99_ms": quantile(walls_ms, 99),
        }


# ---------------------------------------------------------------------------
# dimacs-batch: one child solves every instance; each instance is one operation


def random_cnf(rng: random.Random) -> tuple[int, list[tuple[int, ...]]]:
    n = rng.randint(3, RANDOM_MAX_VARS)
    clauses = []
    for _ in range(int(n * rng.uniform(1.5, 4.5))):
        size = rng.choices((1, 2, 3), weights=(1, 4, 5))[0]
        chosen = rng.sample(range(1, n + 1), min(size, n))
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in chosen))
    return n, clauses


def structured_cnfs() -> dict[str, tuple[int, list[tuple[int, ...]], dict]]:
    """Families with known verdicts. A chain with a head unit has one model,
    all true; a headless chain and the alternating family have more than the
    cap, with every variable free."""
    out = {}
    for n in STRUCTURED_SIZES:
        chain = [(-i, i + 1) for i in range(1, n)]
        alternating = [(2 * i - 1, -2 * i) for i in range(1, n // 2 + 1)]
        for name, clauses, unique in (("chain-head", [(1,), *chain], True),
                                      ("chain", chain, False),
                                      ("alternating", alternating, False)):
            value = "forced_true" if unique else "free"
            expected = {"status": "unique" if unique else "multiple",
                        "count_capped": 1 if unique else MODEL_CAP,
                        "backbone": {str(v): value for v in range(1, n + 1)}}
            out[f"gen-{name}-{n:04d}.cnf"] = (n, clauses, expected)
    return out


def brute_force_verdict(n: int, clauses: list[tuple[int, ...]]) -> dict:
    from censorloc import solver

    models = solver.brute_force_models(range(1, n + 1), clauses)
    if not models:
        return {"status": "unsat", "count_capped": 0, "backbone": {}}
    backbone = {}
    for v in range(1, n + 1):
        seen = {m[v] for m in models}
        backbone[str(v)] = ("free" if len(seen) == 2
                            else "forced_true" if True in seen else "forced_false")
    return {"status": "unique" if len(models) == 1 else "multiple",
            "count_capped": min(len(models), MODEL_CAP), "backbone": backbone}


def to_dimacs(n: int, clauses: list[tuple[int, ...]]) -> str:
    body = "".join(" ".join(map(str, c)) + " 0\n" for c in clauses)
    return f"p cnf {n} {len(clauses)}\n{body}"


class DimacsWorkload(Bench):
    def prepare(self) -> None:
        from censorloc import solver

        corpus = self.simulate("corpus")
        cnf_dir = self.work / "cnf"
        self.must(cli("export-dimacs", "--measurements", str(corpus / "measurements.jsonl"),
                      "--pfx2as", str(corpus / "pfx2as.tsv"), "--out", str(cnf_dir)))
        generated = structured_cnfs()
        rng = random.Random(self.seed)
        for i in range(RANDOM_CNFS):
            generated[f"gen-random-{i:04d}.cnf"] = (*random_cnf(rng), None)
        for name, (n, clauses, _) in generated.items():
            (cnf_dir / name).write_text(to_dimacs(n, clauses))
        paths = sorted(cnf_dir.iterdir())
        self.expected: dict[str, dict] = {}
        self.clauses = 0
        for path in paths:
            n, clauses = solver.parse_dimacs(path.read_text())
            self.clauses += len(clauses)
            known = generated.get(path.name, (None, None, None))[2]
            if known is not None:
                self.expected[path.name] = known
            elif n <= solver.BRUTE_FORCE_MAX_VARS:
                self.expected[path.name] = brute_force_verdict(n, clauses)
        self.instances = len(paths)
        self.list_file = self.work / "instances.txt"
        self.list_file.write_text("".join(f"{p}\n" for p in paths))

    def operation(self, index: int, trace_file: Path | None) -> Run:
        result_file = self.work / f"result{index}.json"
        args = [str(CHILD), "batch", str(self.list_file), str(result_file)]
        if trace_file is not None:
            args = [str(CHILD), "trace", str(trace_file), *args[1:]]
        run = self.launch(args)
        results = json.loads(result_file.read_text()) if run.code == 0 else []
        self.attempted += self.instances
        if len(results) != self.instances:
            self.failed += self.instances
            self.notes.append(f"batch {index} exited {run.code}")
            return run
        for name, seconds, outcome in results:
            run.times[name] = seconds
            # an instance with no oracle must give the same verdict every time
            expected = self.expected.setdefault(name, outcome)
            if outcome != expected:
                self.failed += 1
                self.notes.append(f"{name}: {outcome!r:.200} != {expected!r:.200}")
        if index == 0:
            verdicts = json.dumps([[n, o] for n, _, o in results], sort_keys=True)
            if not self.check_reference(hashlib.sha256(verdicts.encode()).hexdigest()):
                self.failed += 1
                self.notes.append("verdicts differ from the recorded digest")
        result_file.unlink()
        return run

    def end_to_end(self, runs: list[Run]) -> dict[str, float]:
        wall = statistics.median(r.scaled_wall_s for r in runs)
        timed = [r for r in runs if r.times]
        if not timed:
            raise BenchError("every batch failed")
        # each instance's median over the run's batches of its scaled time
        per_instance_ms = [statistics.median(r.times[name] * r.scale for r in timed) * 1000
                           for name in timed[0].times]
        return {
            # a DIMACS clause is the batch's input record
            "records_per_s": self.clauses / wall,
            "instances_per_s": self.instances / wall,
            "verdict_p50_ms": quantile(per_instance_ms, 50),
            "verdict_p99_ms": quantile(per_instance_ms, 99),
        }


WORKLOADS = {
    "localize-shared": CorpusWorkload,
    "ablate-unshared": CorpusWorkload,
    "dimacs-batch": DimacsWorkload,
}


def measure(bench: Bench, seconds: float, trace: bool) -> dict[str, float]:
    """Closed loop, one client: the next operation starts when one ends."""
    setup_s = None if trace else bench.setup_s()
    runs: list[Run] = []
    traced: list[tuple[Run, dict]] = []
    # traced runs are not scaled: per-layer metrics have no bound
    before = None if trace else bench.probe()
    start = time.perf_counter()
    index = 0
    while len(runs) < 2 or (trace and not traced) or time.perf_counter() - start < seconds:
        if trace and len(traced) < len(runs):
            trace_file = bench.work / f"trace{index}.json"
            run = bench.operation(index, trace_file)
            traced.append((run, json.loads(trace_file.read_text()) if run.code == 0 else {}))
        else:
            run = bench.operation(index, None)
            if before is not None:
                after = bench.probe()
                run.scale = host_scale(before, after)
                before = after
            runs.append(run)
        index += 1
    print(f"{len(runs)} untraced operations, raw wall s: "
          + " ".join(f"{r.wall_s:.3f}" for r in runs), file=sys.stderr)
    if not trace:
        print("scales: " + " ".join(f"{r.scale:.3f}" for r in runs), file=sys.stderr)
        return {
            "wall_s": statistics.median(r.scaled_wall_s for r in runs),
            "cpu_s": statistics.median(r.cpu_s * r.scale for r in runs),
            "peak_rss_mb": statistics.median(r.rss_mb for r in runs),
            "setup_s": setup_s,
            **bench.end_to_end(runs),
        }
    print(f"{len(traced)} traced operations, wall s: "
          + " ".join(f"{r.wall_s:.3f}" for r, _ in traced), file=sys.stderr)
    traces = [t for _, t in traced if t]
    if not traces:
        raise BenchError("every traced operation failed")
    metrics = {name: statistics.median(t.get(name, 0.0) for t in traces)
               for name in set().union(*traces)}
    metrics["trace.overhead_s"] = (statistics.median(r.wall_s for r, _ in traced)
                                   - statistics.median(r.wall_s for r in runs))
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_DEADLINE_S
    if not (ROOT / "src" / "censorloc").is_dir():
        print("no censorloc sources under src/ in the current directory", file=sys.stderr)
        return 2
    # the checks import the program under test from the same sources
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=scratch))
    try:
        bench = WORKLOADS[args.workload](args.workload, args.seed, work, deadline)
        bench.prepare()
        measured = measure(bench, args.seconds, bool(args.trace))
        if set(measured) - set(declared):
            raise BenchError(f"undeclared metrics {sorted(set(measured) - set(declared))}")
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(scratch.iterdir()):
            scratch.rmdir()
    for note in bench.notes[:20]:
        print(f"check: {note}", file=sys.stderr)
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        # a layer that a workload does not run reads 0
        "metrics": {name: {"value": measured.get(name, 0.0), "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
