"""Metamorphic relations of the tomography model, run through the CLI.

The whole-run oracle and the program were written from one reading of the
paper, so a misreading of the model passes both. These relations follow from
the model itself (Chen et al., "Metamorphic Testing: A Review of Challenges
and Opportunities", ACM Computing Surveys 2018):

- duplication: a bucket's CNF depends only on its distinct (path, verdict)
  observations, so a second copy of every record changes no verdict, while
  every record count doubles;
- coarsening: a window holds the clauses of each of its days, so a window
  that contains an unsatisfiable day is unsatisfiable;
- solver renaming: a DIMACS CNF's models map one to one onto those of the CNF
  with its variables renumbered, or with one variable's sign flipped in every
  clause, so the status and the count stay and the backbone moves with the
  renaming. Run through ``solve_dimacs_text``, this reaches sizes that brute
  force cannot, such as the structured families at 1,000 or more variables.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
import tempfile
from datetime import date
from pathlib import Path

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from _helpers import structured_dimacs
from censorloc.cli import main
from censorloc.solver import solve_dimacs_text
from test_solver import _dimacs_text, general_dimacs_cnfs
from test_whole_run import _jsonl, _simulated, simulate_args
from test_whole_run_commands import _run

UNCHANGED = ("censors.json", "reduction_cdf.csv", "reduction_summary.json",
             "solutions_by_granularity.csv", "solutions_by_anomaly.csv")


def _doubled(obj):
    """Each number in ``obj`` times two."""
    if isinstance(obj, dict):
        return {key: _doubled(value) for key, value in obj.items()}
    return obj * 2


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(args=simulate_args())
def test_a_copy_of_every_record_changes_no_verdict_and_doubles_the_counts(args):
    simulated = _simulated(args)
    assume(simulated is not None)
    objs, pfx2as, _ = simulated
    copies = [{**obj, "record_id": f"{obj['record_id']}-copy"} for obj in objs]
    code, once, err = _run("localize", _jsonl(objs), pfx2as, [])
    assert code == 0, err
    code, twice, err = _run("localize", _jsonl(objs + copies), pfx2as, [])
    assert code == 0, err
    for name in UNCHANGED:
        assert twice[name] == once[name], name
    for name in ("ingest_summary.json", "elimination_summary.json"):
        assert json.loads(twice[name]) == _doubled(json.loads(once[name])), name


def _containing(day: str) -> dict[str, str]:
    """The week, month and year windows that hold a day window."""
    d = date.fromisoformat(day)
    year, week, _ = d.isocalendar()
    return {"week": f"{year:04d}-W{week:02d}", "month": day[:7], "year": day[:4]}


def _status(cnf: Path) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["solve-dimacs", str(cnf)]) == 0
    return json.loads(out.getvalue())["status"]


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(args=simulate_args(), data=st.data(), url_split=st.booleans())
def test_a_window_holding_an_unsat_day_is_unsat(args, data, url_split):
    simulated = _simulated(args)
    assume(simulated is not None)
    objs, pfx2as, _ = simulated
    # a record seen with both verdicts on its day makes that day unsat; the
    # other days stay as simulated
    flipped = data.draw(st.lists(st.sampled_from(objs), min_size=1, max_size=2))
    objs += [{**obj, "record_id": f"{obj['record_id']}-flip", "detected": not obj["detected"]}
             for obj in flipped]
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "measurements.jsonl").write_bytes(_jsonl(objs))
        Path(tmp, "pfx2as.tsv").write_bytes(pfx2as)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(["export-dimacs", "--measurements", f"{tmp}/measurements.jsonl",
                         "--pfx2as", f"{tmp}/pfx2as.tsv", "--out", f"{tmp}/cnf",
                         *([] if url_split else ["--no-url-split"])]) == 0
        files = {cnf.name for cnf in Path(tmp, "cnf").iterdir()}
        # <anomaly>_<url hash>_<granularity>_<window>.cnf
        unsat_days = [name.rsplit("_", 2) for name in sorted(files)
                      if name.rsplit("_", 2)[1] == "day" and _status(Path(tmp, "cnf", name))
                      == "unsat"]
        assume(unsat_days)
        for group, _, day in unsat_days:
            for granularity, window in _containing(day.removesuffix(".cnf")).items():
                name = f"{group}_{granularity}_{window}.cnf"
                assert name in files
                assert _status(Path(tmp, "cnf", name)) == "unsat", name


_SWAPPED = {"forced_true": "forced_false", "forced_false": "forced_true", "free": "free"}


def _check_renaming(n: int, clauses: list[tuple[int, ...]], seed: int) -> None:
    """A random renumbering of 1..n permutes the backbone, and flipping one
    variable's sign swaps its forced values; neither moves the status or the
    count."""
    rng = random.Random(seed)
    before = solve_dimacs_text(_dimacs_text(n, clauses))
    numbers = list(range(1, n + 1))
    rng.shuffle(numbers)
    rename = dict(zip(range(1, n + 1), numbers))
    permuted = solve_dimacs_text(_dimacs_text(n, [
        tuple(rename[lit] if lit > 0 else -rename[-lit] for lit in clause) for clause in clauses
    ]))
    assert permuted == {**before, "backbone": permuted["backbone"]}
    assert permuted["backbone"] == {
        str(rename[int(v)]): role for v, role in before["backbone"].items()}
    if not n:
        return
    flip = rng.randint(1, n)
    flipped = solve_dimacs_text(_dimacs_text(n, [
        tuple(-lit if abs(lit) == flip else lit for lit in clause) for clause in clauses
    ]))
    assert flipped == {**before, "backbone": flipped["backbone"]}
    swapped = {str(flip): _SWAPPED[before["backbone"][str(flip)]]} if before["backbone"] else {}
    assert flipped["backbone"] == {**before["backbone"], **swapped}


@settings(max_examples=150, deadline=None)
@given(cnf=general_dimacs_cnfs(), seed=st.integers(0, 2**32 - 1))
def test_renaming_variables_renames_the_solution(cnf, seed):
    _check_renaming(*cnf, seed)


@settings(max_examples=6, deadline=None)
@given(family=st.sampled_from(["alternating", "chain", "chain-head"]),
       n=st.integers(1_000, 1_500), seed=st.integers(0, 2**32 - 1))
def test_renaming_variables_renames_the_solution_of_a_large_structured_cnf(family, n, seed):
    text = structured_dimacs(family, n)
    clauses = [tuple(map(int, line.split()[:-1])) for line in text.splitlines()[1:]]
    _check_renaming(n, clauses, seed)
