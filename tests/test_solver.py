"""Solver behavior against hand-frozen truth tables and the brute-force oracle."""
from __future__ import annotations

import random
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from _helpers import (
    backbone_from_models,
    engine_solve,
    forced_true_asns,
    random_general_cnf,
    random_pipeline_cnf,
    satisfies,
    structured_dimacs,
)
from censorloc import pipeline, solver
from censorloc.model import (
    AnomalyType,
    BackboneStatus,
    BucketKey,
    Clause,
    CnfInstance,
    SolutionStatus,
    TimeGranularity,
)

FT = BackboneStatus.FORCED_TRUE
FF = BackboneStatus.FORCED_FALSE
FREE = BackboneStatus.FREE


def check_against_brute_force(variables, clauses, cap=5, on_engine=False):
    models = solver.brute_force_models(variables, clauses)

    sat, witness = solver.check_sat(variables, clauses)
    assert sat == bool(models)
    if sat:
        assert witness is not None
        assert set(witness) == set(variables)
        assert satisfies(witness, clauses)
    else:
        assert witness is None

    if on_engine:
        backbone = engine_solve(variables, clauses, 1)[1]
        counted = engine_solve(variables, clauses, cap)[0]
    else:
        backbone = solver.compute_backbone(variables, clauses)
        counted = solver.count_models(variables, clauses, cap)
    assert backbone == backbone_from_models(variables, models)
    assert counted == min(len(models), cap)


# ---------------------------------------------------------------------------
# frozen truth tables (model counts and backbones worked out by hand)

FROZEN_CASES = [
    # one disjunction over two vars: 3 of 4 assignments satisfy it
    ((1, 2), ((1, 2),), 3, {1: FREE, 2: FREE}),
    # negative unit prunes var 3; (1 v 2) leaves 3 models
    ((1, 2, 3), ((1, 2, 3), (-3,)), 3, {1: FREE, 2: FREE, 3: FF}),
    # two positive singletons pin everything
    ((5, 9), ((5,), (9,)), 1, {5: FT, 9: FT}),
    # direct contradiction
    ((4,), ((4,), (-4,)), 0, {}),
    # no clauses: all 2^3 assignments are models
    ((1, 2, 3), (), 8, {1: FREE, 2: FREE, 3: FREE}),
    # disjunction plus a negative unit forces the other side
    ((7, 8), ((7, 8), (-8,)), 1, {7: FT, 8: FF}),
    # the empty clause is unsatisfiable regardless of variables
    ((1, 2), ((),), 0, {}),
    # sparse ASN-like variable names
    ((1001, 1019, 2200), ((1001, 1019), (1019, 2200), (-1001,)), 2, {1001: FF, 1019: FT, 2200: FREE}),
]


@pytest.mark.parametrize("variables, clauses, n_models, backbone", FROZEN_CASES)
def test_frozen_model_counts_and_backbones(variables, clauses, n_models, backbone):
    models = solver.brute_force_models(variables, clauses)
    assert len(models) == n_models

    sat, _ = solver.check_sat(variables, clauses)
    assert sat == (n_models > 0)
    assert solver.compute_backbone(variables, clauses) == backbone
    # cap 50 exceeds every frozen case, so the count is exact
    assert solver.count_models(variables, clauses, cap=50) == n_models


@pytest.mark.parametrize("variables, clauses, n_models, backbone", FROZEN_CASES)
def test_frozen_cases_on_general_path(variables, clauses, n_models, backbone):
    sat, _ = solver.check_sat(variables, clauses)
    assert sat == (n_models > 0)
    assert engine_solve(variables, clauses, 1)[1] == backbone
    assert engine_solve(variables, clauses, 50)[0] == n_models


GENERAL_CASES = [
    # exclusive-or
    ((1, 2), ((1, 2), (-1, -2)), 2, {1: FREE, 2: FREE}),
    # implication cycle 1 -> 3 -> 2 -> 1 makes all three equivalent
    ((1, 2, 3), ((1, -2), (2, -3), (3, -1)), 2, {1: FREE, 2: FREE, 3: FREE}),
    # all four sign combinations over two vars: unsatisfiable
    ((1, 2), ((1, 2), (-1, 2), (1, -2), (-1, -2)), 0, {}),
    # unit propagation chain
    ((1, 2), ((1,), (-1, 2)), 1, {1: FT, 2: FT}),
]


@pytest.mark.parametrize("variables, clauses, n_models, backbone", GENERAL_CASES)
def test_frozen_general_shape_cases(variables, clauses, n_models, backbone):
    assert len(solver.brute_force_models(variables, clauses)) == n_models
    sat, witness = solver.check_sat(variables, clauses)
    assert sat == (n_models > 0)
    if sat:
        assert satisfies(witness, clauses)
    assert solver.compute_backbone(variables, clauses) == backbone
    assert solver.count_models(variables, clauses, cap=50) == n_models


def test_count_stops_at_cap():
    variables = tuple(range(1, 11))
    assert solver.count_models(variables, [], cap=5) == 5
    assert solver.count_models(variables, [], cap=2) == 2
    assert engine_solve(variables, [], 5)[0] == 5


def test_count_handles_many_free_variables():
    # 30 variables overflow the brute-force band but cap long before 2^30
    variables = tuple(range(1, 31))
    clauses = [tuple(variables)]
    assert solver.count_models(variables, clauses, cap=5) == 5
    # 30 free variables and a cap above 31: the engine counts
    assert solver.count_models(variables, clauses, cap=40) == 40
    sat, witness = solver.check_sat(variables, clauses)
    assert sat and satisfies(witness, clauses)


def test_count_models_runs_no_backbone_probe(monkeypatch):
    def refuse(self, candidates):
        raise AssertionError("count_models ran a backbone probe")

    monkeypatch.setattr(solver._Engine, "backbone", refuse)
    variables = (1, 2, 3, 4, 5, 6)
    clauses = [(1, -2), (2, -3), (-1, 3, 4), (-5, 6)]
    assert not solver.is_restricted_shape(clauses)
    models = solver.brute_force_models(variables, clauses)
    for cap in (1, 2, 5, 100):
        assert solver.count_models(variables, clauses, cap) == min(len(models), cap)
    assert solver.count_models((1, 2), [(1,), (-1,)], cap=5) == 0
    restricted = [(1, 2, 3), (-4,), (5, 6)]
    assert solver.is_restricted_shape(restricted)
    models = solver.brute_force_models(variables, restricted)
    for cap in (1, 2, 5, 100):
        assert solver.count_models(variables, restricted, cap) == min(len(models), cap)


# ---------------------------------------------------------------------------
# input validation

def test_rejects_duplicate_variables():
    with pytest.raises(ValueError, match="duplicate variables"):
        solver.check_sat((1, 1), [])


def test_rejects_nonpositive_variables():
    with pytest.raises(ValueError, match="positive integers"):
        solver.check_sat((0,), [])
    with pytest.raises(ValueError, match="positive integers"):
        solver.check_sat((True,), [])


def test_rejects_undeclared_literals():
    with pytest.raises(ValueError, match="not over the declared variables"):
        solver.check_sat((1,), [(2,)])
    with pytest.raises(ValueError, match="not over the declared variables"):
        solver.brute_force_models((1,), [(0,)])


def test_count_rejects_bad_cap():
    with pytest.raises(ValueError, match="cap must be >= 1"):
        solver.count_models((1,), [], cap=0)


def test_brute_force_refuses_large_instances():
    variables = tuple(range(1, 22))
    with pytest.raises(ValueError, match="refuses 21 variables"):
        solver.brute_force_models(variables, [])


# ---------------------------------------------------------------------------
# properties: solver paths agree with exhaustive enumeration

@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), cap=st.integers(1, 8))
def test_restricted_path_matches_brute_force(seed, cap):
    variables, clauses = random_pipeline_cnf(random.Random(seed), max_vars=10)
    check_against_brute_force(variables, clauses, cap=cap)


def _two_free_cnf(rng: random.Random) -> tuple[list[int], list[tuple[int, ...]], set[int]]:
    """A restricted CNF whose closed form leaves exactly two variables free;
    returns them too."""
    variables = rng.sample(range(1, 1000), rng.randint(2, 9))
    a, b, *rest = variables
    forced_false = set(rng.sample(rest, rng.randint(0, len(rest))))
    clauses = [(-v,) for v in forced_false]
    for t in set(rest) - forced_false:
        # forced true: alone in a clause once the forced-false set is dropped
        clauses.append((t, *rng.sample(sorted(forced_false), rng.randint(0, len(forced_false)))))
    for _ in range(rng.randint(0, 5)):
        clause = tuple(rng.sample(variables, rng.randint(1, len(variables))))
        survivors = set(clause) - forced_false
        # satisfied by a forced-true variable, or left with both free ones
        if survivors - {a, b} or survivors == {a, b}:
            clauses.append(clause)
    rng.shuffle(clauses)
    return variables, clauses, {a, b}


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), cap=st.integers(2, 7))
def test_two_free_variables_are_counted_without_the_engine(seed, cap):
    variables, clauses, free = _two_free_cnf(random.Random(seed))
    backbone = solver._closed_form(variables, clauses)
    assert {v for v, s in backbone.items() if s is FREE} == free
    models = solver.brute_force_models(variables, clauses)
    assert len(models) in (3, 4)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "_Engine", None)
        status, count, solved = solver._solve(variables, clauses, cap)
    assert count == min(len(models), cap)
    assert status is SolutionStatus.MULTIPLE
    assert solved == backbone_from_models(variables, models)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), cap=st.integers(1, 8))
def test_general_path_matches_brute_force_on_pipeline_shapes(seed, cap):
    variables, clauses = random_pipeline_cnf(random.Random(seed), max_vars=10)
    check_against_brute_force(variables, clauses, cap=cap, on_engine=True)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), cap=st.integers(1, 8))
def test_dpll_matches_brute_force_on_general_shapes(seed, cap):
    variables, clauses = random_general_cnf(random.Random(seed), max_vars=8)
    check_against_brute_force(variables, clauses, cap=cap)


@st.composite
def restricted_dimacs_cnfs(draw):
    """Restricted-shape CNFs over 1..n with the edge cases the closed form
    must get right: repeated literals in a clause, the empty clause,
    variables in no clause, and (x) / (-x) pairs."""
    n = draw(st.integers(0, 8))
    var = st.integers(1, max(n, 1))
    # with no variables only the empty clause can be drawn
    most = 1 if n else 0
    positives = draw(st.lists(st.lists(var, max_size=5 * most).map(tuple), max_size=6))
    negatives = draw(st.lists(var.map(lambda v: (-v,)), max_size=4 * most))
    # a positive singleton and a negative unit over one variable contradict
    pairs = draw(st.lists(var, max_size=2 * most))
    clauses = positives + negatives + [c for v in pairs for c in ((v,), (-v,))]
    return n, draw(st.permutations(clauses))


def _dimacs_text(n, clauses):
    lines = [f"p cnf {n} {len(clauses)}"]
    lines += [" ".join(map(str, clause + (0,))) for clause in clauses]
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(restricted_dimacs_cnfs())
def test_closed_form_matches_brute_force(cnf):
    n, clauses = cnf
    variables = tuple(range(1, n + 1))
    assert solver.is_restricted_shape(clauses)
    models = solver.brute_force_models(variables, clauses)
    backbone = backbone_from_models(variables, models)
    assert solver.compute_backbone(variables, clauses) == backbone
    for cap in (2, 5, 50):
        count = min(len(models), cap)
        assert solver.count_models(variables, clauses, cap) == count
        status = "unsat" if count == 0 else "unique" if count == 1 else "multiple"
        assert solver.solve_dimacs_text(_dimacs_text(n, clauses), cap) == {
            "status": status,
            "count_capped": count,
            "backbone": {str(v): s.value for v, s in sorted(backbone.items())},
        }


@st.composite
def general_dimacs_cnfs(draw):
    """CNFs over 1..n with mixed signs and the edge cases the engine's
    intake must get right: repeated literals in a clause, tautologies, the
    empty clause, variables in no clause, and (x) / (-x) pairs."""
    n = draw(st.integers(0, 12))
    var = st.integers(1, max(n, 1))
    lit = st.tuples(var, st.booleans()).map(lambda p: p[0] if p[1] else -p[0])
    # with no variables only the empty clause can be drawn
    most = 1 if n else 0
    plain = draw(st.lists(st.lists(lit, max_size=4 * most).map(tuple), max_size=3 * n + 2))
    # a literal repeated, and a clause holding both signs of a variable
    repeated = draw(st.lists(st.lists(lit, min_size=1, max_size=3).map(lambda c: (*c, c[0])),
                             max_size=2 * most))
    tautologies = draw(st.lists(st.tuples(lit, lit).map(lambda t: (t[0], t[1], -t[0])),
                                max_size=2 * most))
    pairs = draw(st.lists(var, max_size=most))
    clauses = plain + repeated + tautologies + [c for v in pairs for c in ((v,), (-v,))]
    return n, draw(st.permutations(clauses))


@settings(max_examples=300, deadline=None)
@given(general_dimacs_cnfs(), st.integers(1, 8))
def test_general_cnfs_match_brute_force(cnf, cap):
    n, clauses = cnf
    variables = tuple(range(1, n + 1))
    for on_engine in (False, True):
        check_against_brute_force(variables, clauses, cap=cap, on_engine=on_engine)
    models = solver.brute_force_models(variables, clauses)
    # the witness is the first model in variable order, true before false
    first = max(models, key=lambda m: [m[v] for v in variables], default=None)
    assert solver.check_sat(variables, clauses)[1] == first
    # solve_dimacs_text refuses a cap of 1
    assert solver.solve_dimacs_text(_dimacs_text(n, clauses), max(cap, 2)) == \
        _brute_force_answer(n, clauses, max(cap, 2))


def _brute_force_answer(n, clauses, cap) -> dict:
    """What solve-dimacs must print for a CNF over 1..n, from brute force."""
    variables = tuple(range(1, n + 1))
    models = solver.brute_force_models(variables, clauses)
    count = min(len(models), cap)
    return {
        "status": "unsat" if count == 0 else "unique" if count == 1 else "multiple",
        "count_capped": count,
        "backbone": {str(v): s.value
                     for v, s in sorted(backbone_from_models(variables, models).items())},
    }


# what may follow "c" in a comment: characters str.splitlines would end a
# line at, a lone CR, and text that reads as a clause if the comment ends early
_COMMENT_TEXT = st.lists(st.sampled_from(
    ["\x85", "\u2028", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\r", " ", "1", "-2", "0", "x"]
), max_size=6).map("".join)


@st.composite
def dimacs_files(draw):
    """A CNF and DIMACS bytes that mean it: clauses split over lines at drawn
    tokens, comment and blank lines anywhere, each line ended by LF or CRLF."""
    n, clauses = draw(general_dimacs_cnfs())
    tokens = [token for clause in clauses for token in (*map(str, clause), "0")]
    lines, line = [f"p cnf {n} {len(clauses)}"], []
    for token in tokens:
        line.append(token)
        if draw(st.booleans()):
            lines.append(" ".join(line))
            line = []
    lines.append(" ".join(line))
    extra = _COMMENT_TEXT.map(lambda text: "c" + text) | st.sampled_from(["", " ", "\t", "\r"])
    for pos, text in draw(st.lists(st.tuples(st.integers(0, len(lines)), extra), max_size=4)):
        lines.insert(pos, text)
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]),
                         min_size=len(lines), max_size=len(lines)))
    return n, clauses, "".join(map(str.__add__, lines, ends)).encode()


@settings(max_examples=150, deadline=None)
@given(dimacs_files(), st.integers(2, 8))
def test_dimacs_files_match_brute_force(cnf, cap):
    n, clauses, data = cnf
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "cnf.cnf")
        path.write_bytes(data)
        assert pipeline.cmd_solve_dimacs(path, cap) == _brute_force_answer(n, clauses, cap)


@pytest.mark.parametrize(
    "family, n, status, count, role",
    [
        ("alternating", 2400, "multiple", 5, "free"),
        ("chain", 1500, "multiple", 5, "free"),
        ("chain-head", 1500, "unique", 1, "forced_true"),
    ],
)
def test_large_structured_cnfs_solve_fast(family, n, status, count, role):
    # each takes well under 0.1 s; a recursive search overflows the stack on
    # the first, and one that re-solves per model or probes every variable
    # takes minutes on the chains
    start = time.perf_counter()
    out = solver.solve_dimacs_text(structured_dimacs(family, n))
    assert time.perf_counter() - start < 5.0
    assert out == {
        "status": status,
        "count_capped": count,
        "backbone": {str(v): role for v in range(1, n + 1)},
    }


def test_search_decides_only_variables_of_open_clauses():
    # below a pigeonhole core (4 pigeons, 3 holes) that takes search to
    # refute lie 20 variables in no clause and 20 whose only clause (y v x)
    # a unit x satisfies at the root; deciding them would repeat the
    # refutation up to 2^40 times
    hole = [[60 + 3 * p + h for h in (1, 2, 3)] for p in range(4)]
    clauses = [(y, y + 20) for y in range(21, 41)] + [(x,) for x in range(41, 61)]
    clauses += [tuple(row) for row in hole]
    clauses += [(-a[h], -b[h]) for h in range(3) for i, a in enumerate(hole) for b in hole[i + 1:]]
    start = time.perf_counter()
    assert solver.solve_dimacs_text(_dimacs_text(72, clauses))["status"] == "unsat"
    assert time.perf_counter() - start < 5.0


@st.composite
def binary_heavy_cnfs(draw):
    """2-CNFs over 1..n at clause ratios 0.5-3, mixed with the clauses the
    engine's intake keeps apart from plain implications: (a a), (a -a),
    repeated and reversed binary clauses, units with binary clauses over the
    literals they imply at the root, and a few longer clauses."""
    n = draw(st.integers(2, 14))
    var = st.integers(1, n)
    lit = st.tuples(var, st.booleans()).map(lambda p: p[0] if p[1] else -p[0])
    pair = st.lists(var, min_size=2, max_size=2, unique=True).flatmap(
        lambda vs: st.tuples(*(st.sampled_from([v, -v]) for v in vs)))
    binary = draw(st.lists(pair, min_size=max(1, n // 2), max_size=3 * n))
    doubled = draw(st.lists(lit.map(lambda a: (a, a)), max_size=2))
    tautologies = draw(st.lists(lit.map(lambda a: (a, -a)), max_size=2))
    repeated = [c[::-1] if flip else c for c, flip in
                draw(st.lists(st.tuples(st.sampled_from(binary), st.booleans()), max_size=3))]
    units = draw(st.lists(lit.map(lambda a: (a,)), max_size=2))
    # binary clauses over a unit's literal or its negation
    rooted = [(draw(st.sampled_from([u, -u])), draw(lit)) for (u,) in units]
    rooted = [c for c in rooted if c[0] != -c[1]]
    longer = draw(st.lists(st.lists(lit, min_size=3, max_size=4).map(tuple), max_size=2))
    clauses = binary + doubled + tautologies + repeated + units + rooted + longer
    return n, draw(st.permutations(clauses))


@settings(max_examples=200, deadline=None)
@given(binary_heavy_cnfs(), st.integers(1, 40))
def test_binary_heavy_cnfs_match_brute_force(cnf, cap):
    n, clauses = cnf
    variables = tuple(range(1, n + 1))
    for on_engine in (False, True):
        check_against_brute_force(variables, clauses, cap=cap, on_engine=on_engine)
    models = solver.brute_force_models(variables, clauses)
    first = max(models, key=lambda m: [m[v] for v in variables], default=None)
    assert solver.check_sat(variables, clauses)[1] == first


def test_engine_holds_lists_only_for_the_literals_its_clauses_use():
    n, clauses = solver.parse_dimacs("p cnf 100000 3\n1 -2 0\n-3 4 5 0\n7 0\n")
    engine = solver._Engine(tuple(range(1, n + 1)), clauses)
    assert (set(engine.implies), set(engine.watches)) == ({-1, 2}, {3, -4})
    assert set(engine.occurs) == {1, 2, 3, 4, 5}
    count, shared = solver._enumerate(engine, 5)
    assert count == 5 and len(engine.backbone(shared)) == n
    # watches move only to the negations of the long clause's literals
    assert set(engine.implies) == {-1, 2} and set(engine.watches) <= {3, -4, -5}
    assert set(engine.occurs) == {1, 2, 3, 4, 5}


def test_closed_form_counts_a_sole_survivor_over_distinct_literals():
    # (1 v 1) has one distinct literal, so it forces 1 true
    assert solver.solve_dimacs_text("p cnf 2 1\n1 1 0\n") == {
        "status": "multiple",
        "count_capped": 2,
        "backbone": {"1": "forced_true", "2": "free"},
    }
    # the empty clause is unsatisfiable whatever the variables
    assert solver.solve_dimacs_text("p cnf 3 1\n0\n") == {
        "status": "unsat",
        "count_capped": 0,
        "backbone": {},
    }


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_restricted_shape_detector(seed):
    variables, clauses = random_pipeline_cnf(random.Random(seed))
    assert solver.is_restricted_shape(clauses)
    # flipping one literal of a multi-literal clause breaks the shape
    for i, clause in enumerate(clauses):
        if len(clause) > 1:
            broken = list(clauses)
            broken[i] = (-clause[0],) + clause[1:]
            assert not solver.is_restricted_shape(broken)
            break


# ---------------------------------------------------------------------------
# classify

def _instance(clauses: list[tuple[frozenset[int], bool]]) -> CnfInstance:
    key = BucketKey(
        anomaly=AnomalyType.DNS,
        url="http://example.com/",
        granularity=TimeGranularity.DAY,
        window_id="2016-05-02",
    )
    built = tuple(
        sorted(
            {Clause(literal_asns=s, truth=t) for s, t in clauses},
            key=lambda c: c.canonical_key(),
        )
    )
    variables: set[int] = set()
    for clause in built:
        variables |= clause.literal_asns
    return CnfInstance(
        key=key, variables=tuple(sorted(variables)), clauses=built, source_paths=()
    )


def test_classify_unsat():
    inst = _instance([(frozenset({10, 20}), True), (frozenset({10, 20}), False)])
    summary = solver.classify(inst)
    assert summary.status is SolutionStatus.UNSAT
    assert summary.model_count_capped == 0
    assert summary.backbone == {}


def test_classify_unique():
    inst = _instance([(frozenset({10, 20}), True), (frozenset({20}), False)])
    summary = solver.classify(inst)
    assert summary.status is SolutionStatus.UNIQUE
    assert summary.model_count_capped == 1
    assert summary.backbone == {10: FT, 20: FF}
    assert forced_true_asns(summary) == (10,)


def test_classify_multiple_reaches_cap():
    inst = _instance([(frozenset({10, 20, 30}), True)])
    summary = solver.classify(inst, cap=5)
    assert summary.status is SolutionStatus.MULTIPLE
    assert summary.model_count_capped == 5
    assert summary.backbone == {10: FREE, 20: FREE, 30: FREE}


def test_classify_multiple_below_cap():
    inst = _instance([(frozenset({10, 20}), True)])
    summary = solver.classify(inst, cap=5)
    assert summary.status is SolutionStatus.MULTIPLE
    assert summary.model_count_capped == 3


def test_classify_rejects_cap_below_two():
    inst = _instance([(frozenset({10}), True)])
    with pytest.raises(ValueError, match="cap must be >= 2"):
        solver.classify(inst, cap=1)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), cap=st.integers(2, 8))
def test_classify_summaries_keep_the_consistency_rules(seed, cap):
    # _solve fixes status, count and backbone together; SolutionSummary
    # takes them on trust
    _, clauses = random_pipeline_cnf(random.Random(seed), max_vars=10)
    assume(clauses)  # a bucket always has a path, so never no variables
    inst = _instance([(frozenset(map(abs, c)), c[0] > 0) for c in clauses])
    summary = solver.classify(inst, cap)
    status, count, backbone = summary.status, summary.model_count_capped, summary.backbone
    assert 0 <= count <= cap
    assert (status is SolutionStatus.UNSAT) == (count == 0)
    assert (status is SolutionStatus.UNIQUE) == (count == 1)
    assert (not backbone) == (status is SolutionStatus.UNSAT)
    if status is not SolutionStatus.UNSAT:
        assert set(backbone) == set(inst.variables)
    if status is SolutionStatus.UNIQUE:
        assert FREE not in backbone.values()


# ---------------------------------------------------------------------------
# DIMACS

def test_parse_dimacs_basic():
    text = "c a comment\np cnf 3 2\n1 2 0\n-3 0\n"
    assert solver.parse_dimacs(text) == (3, [(1, 2), (-3,)])


def test_parse_dimacs_clause_spanning_lines():
    assert solver.parse_dimacs("p cnf 2 1\n1\n2 0\n") == (2, [(1, 2)])


def test_parse_dimacs_flushes_unterminated_clause():
    assert solver.parse_dimacs("p cnf 2 1\n1 2") == (2, [(1, 2)])


def test_parse_dimacs_stops_at_the_satlib_end_marker():
    text = "p cnf 3 2\n1 -2 0\n2 3 0\n%\n0\n"
    assert solver.parse_dimacs(text) == (3, [(1, -2), (2, 3)])
    assert solver.solve_dimacs_text(text)["status"] == "multiple"


@pytest.mark.parametrize(
    "text, message",
    [
        ("1 2 0\n", "clause before header"),
        ("p cnf 2 1\np cnf 2 1\n", "duplicate DIMACS header"),
        ("p cnf x 1\n", "malformed DIMACS header"),
        ("p dnf 2 1\n", "malformed DIMACS header"),
        ("p cnf -1 0\n", "malformed DIMACS header"),
        ("p cnf 2 1\n3 0\n", "exceeds declared variable count"),
        ("p cnf 2 1\none 0\n", "bad DIMACS literal"),
        # int() alone would read these as 10 variables and as -1
        ("p cnf 1_0 1\n1 0\n", "malformed DIMACS header"),
        ("p cnf ١ 1\n1 0\n", "malformed DIMACS header"),
        ("p cnf 2 1\n-١ 0\n", "bad DIMACS literal: '-١'"),
        ("p cnf 20 1\n1_0 0\n", "bad DIMACS literal: '1_0'"),
        ("p cnf 2 1\n1 ² 0\n", "bad DIMACS literal: '²'"),
        ("", "missing DIMACS header"),
        # "%" ends a SATLIB file only on a line of its own
        ("p cnf 3 2\n1 % -2 0\n2 3 0\n", "bad DIMACS literal: '%'"),
        ("p cnf 2 3\n1 2 0\n", "DIMACS header declares 3 clauses, found 1"),
        ("p cnf 2 1\n1 2 0\n-1 0\n", "DIMACS header declares 1 clauses, found 2"),
    ],
)
def test_parse_dimacs_rejects(text, message):
    with pytest.raises(ValueError, match=message):
        solver.parse_dimacs(text)


def test_solve_dimacs_text_frozen_outputs():
    assert solver.solve_dimacs_text("p cnf 2 1\n1 2 0\n") == {
        "status": "multiple",
        "count_capped": 3,
        "backbone": {"1": "free", "2": "free"},
    }
    assert solver.solve_dimacs_text("p cnf 1 2\n1 0\n-1 0\n") == {
        "status": "unsat",
        "count_capped": 0,
        "backbone": {},
    }
    assert solver.solve_dimacs_text("p cnf 2 2\n1 2 0\n-2 0\n") == {
        "status": "unique",
        "count_capped": 1,
        "backbone": {"1": "forced_true", "2": "forced_false"},
    }
    # no clauses at all: every assignment is a model, count stops at the cap
    assert solver.solve_dimacs_text("p cnf 3 0\n") == {
        "status": "multiple",
        "count_capped": 5,
        "backbone": {"1": "free", "2": "free", "3": "free"},
    }
    # degenerate zero-variable formula has exactly the empty model
    assert solver.solve_dimacs_text("p cnf 0 0\n") == {
        "status": "unique",
        "count_capped": 1,
        "backbone": {},
    }


def test_solve_dimacs_text_general_shape():
    # XOR needs the DPLL path; two models
    out = solver.solve_dimacs_text("p cnf 2 2\n1 2 0\n-1 -2 0\n")
    assert out["status"] == "multiple"
    assert out["count_capped"] == 2


@pytest.mark.parametrize("restricted,clauses", [
    # -4 forces 4 false and 5 true through (4 5); the rest stay free
    (True, [(1, 2, 3), (-4,), (4, 5), (10, 11, 12), (6, 7, 8, 9)]),
    # the same around an XOR over 6 and 7, which needs the engine
    (False, [(1, 2, 3), (-4,), (4, 5), (10, 11, 12), (6, 7), (-6, -7), (8, 9)]),
])
def test_solve_dimacs_text_renders_plain_strings_in_numeric_order(restricted, clauses):
    # 12 variables, so that string order ("1", "10", "11", "12", "2", ...)
    # differs from numeric order
    n = 12
    assert solver.is_restricted_shape(clauses) is restricted
    out = solver.solve_dimacs_text(_dimacs_text(n, clauses))
    assert list(out["backbone"]) == [str(v) for v in range(1, n + 1)]
    assert type(out["status"]) is str
    assert all(type(s) is str for s in out["backbone"].values())
    assert set(out["backbone"].values()) == {s.value for s in BackboneStatus}
    variables = tuple(range(1, n + 1))
    models = solver.brute_force_models(variables, clauses)
    expected = backbone_from_models(variables, models)
    assert out["backbone"] == {str(v): s.value for v, s in expected.items()}
    # an unsatisfiable file of the same shape has an empty backbone
    contradiction = [(1,), (-1,)] if restricted else [(1, 2), (-1, -2), (1, -2), (-1, 2)]
    unsat = solver.solve_dimacs_text(_dimacs_text(n, clauses + contradiction))
    assert unsat == {"status": "unsat", "count_capped": 0, "backbone": {}}
    assert type(unsat["status"]) is str


def test_solve_dimacs_text_rejects_cap_below_two():
    with pytest.raises(ValueError, match="cap must be >= 2"):
        solver.solve_dimacs_text("p cnf 1 1\n1 0\n", cap=1)
