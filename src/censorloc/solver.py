"""SAT machinery for bucket CNFs.

Variables are positive integers (ASNs in the pipeline, 1..n for DIMACS
input); a clause is a tuple of signed variables. Pipeline CNFs have a
restricted shape: every clause is all-positive or a negative unit. For that
shape satisfiability, the witness and the backbone follow in closed form in
one pass over the clauses (``_closed_form``), and counting enumerates only
the free variables. Everything else (externally supplied DIMACS, blocking
clauses during enumeration) goes through DPLL, with one SAT probe per
variable for the backbone.

Inputs are checked once, on entry to ``check_sat``, ``compute_backbone``,
``count_models`` and ``brute_force_models``; the probes they make are not.
``classify`` and ``solve_dimacs_text`` take CNFs that were already checked
where they were built (``CnfInstance`` and ``parse_dimacs``).
"""
from __future__ import annotations

from typing import Sequence

from .model import (
    BackboneStatus,
    CnfInstance,
    SolutionStatus,
    SolutionSummary,
)
from .tomography import to_cnf_clauses

Assignment = dict[int, bool]
ClauseTuple = tuple[int, ...]

DEFAULT_MODEL_CAP = 5
BRUTE_FORCE_MAX_VARS = 20

# residual enumeration bail-out: beyond this many free variables the
# blocking-clause path is used instead of direct enumeration
_RESIDUAL_ENUM_LIMIT = 20


def _check_inputs(variables: Sequence[int], clauses: Sequence[ClauseTuple]) -> None:
    vars_set = set(variables)
    if len(vars_set) != len(variables):
        raise ValueError("duplicate variables")
    for v in vars_set:
        if not isinstance(v, int) or isinstance(v, bool) or v <= 0:
            raise ValueError(f"variables must be positive integers, got {v!r}")
    for clause in clauses:
        for lit in clause:
            if lit == 0 or abs(lit) not in vars_set:
                raise ValueError(f"literal {lit} not over the declared variables")


def is_restricted_shape(clauses: Sequence[ClauseTuple]) -> bool:
    """True when every clause is all-positive or a single negative literal."""
    for clause in clauses:
        if len(clause) == 1 and clause[0] < 0:
            continue
        if not all(lit > 0 for lit in clause):
            return False
    return True


def _closed_form(
    variables: Sequence[int], clauses: Sequence[ClauseTuple]
) -> dict[int, BackboneStatus] | None:
    """Backbone of a restricted-shape CNF, or None when it is unsatisfiable.

    Negative units force their variable false. A positive clause left with
    no other literal is unsatisfiable; one left with a single distinct
    literal forces it true. Any other variable is free: all-true outside the
    forced-false set is a model, and dropping one unforced variable from it
    leaves every clause another true literal.
    """
    forced_false = {-c[0] for c in clauses if len(c) == 1 and c[0] < 0}
    forced_true: set[int] = set()
    for clause in clauses:
        if len(clause) == 1 and clause[0] < 0:
            continue
        survivors = set(clause) - forced_false
        if not survivors:
            return None
        if len(survivors) == 1:
            forced_true |= survivors
    return {
        v: BackboneStatus.FORCED_TRUE if v in forced_true
        else BackboneStatus.FORCED_FALSE if v in forced_false
        else BackboneStatus.FREE
        for v in sorted(variables)
    }


def _solve_dpll(
    variables: Sequence[int], clauses: Sequence[ClauseTuple]
) -> Assignment | None:
    order = sorted(variables)

    def solve(working: list[ClauseTuple], assigned: Assignment) -> Assignment | None:
        working = list(working)
        assigned = dict(assigned)
        while True:
            unit = None
            for clause in working:
                if not clause:
                    return None
                if len(clause) == 1:
                    unit = clause[0]
                    break
            if unit is None:
                break
            assigned[abs(unit)] = unit > 0
            simplified: list[ClauseTuple] = []
            for clause in working:
                if unit in clause:
                    continue
                if -unit in clause:
                    clause = tuple(lit for lit in clause if lit != -unit)
                simplified.append(clause)
            working = simplified
        if not working:
            # every clause satisfied; unconstrained variables default true
            return {v: assigned.get(v, True) for v in order}
        branch = min(abs(lit) for clause in working for lit in clause)
        for value in (True, False):
            lit = branch if value else -branch
            result = solve(working + [(lit,)], assigned)
            if result is not None:
                return result
        return None

    return solve([tuple(c) for c in clauses], {})


def _sat(
    variables: Sequence[int], clauses: Sequence[ClauseTuple], use_general: bool
) -> Assignment | None:
    # unchecked check_sat: a witness, or None when unsatisfiable
    if not use_general and is_restricted_shape(clauses):
        backbone = _closed_form(variables, clauses)
        if backbone is None:
            return None
        return {v: backbone[v] is not BackboneStatus.FORCED_FALSE for v in variables}
    return _solve_dpll(variables, clauses)


def check_sat(
    variables: Sequence[int],
    clauses: Sequence[ClauseTuple],
    use_general: bool = False,
) -> tuple[bool, Assignment | None]:
    """Satisfiability plus a witness assignment when satisfiable.

    The witness of a restricted-shape CNF is all true but its forced-false set.
    """
    _check_inputs(variables, clauses)
    witness = _sat(variables, clauses, use_general)
    return witness is not None, witness


def _backbone(
    variables: Sequence[int], clauses: Sequence[ClauseTuple], use_general: bool
) -> dict[int, BackboneStatus]:
    # unchecked compute_backbone
    if not use_general and is_restricted_shape(clauses):
        # None (unsatisfiable) and a zero-variable backbone are both empty
        return _closed_form(variables, clauses) or {}
    witness = _sat(variables, clauses, use_general)
    if witness is None:
        return {}
    base = list(clauses)
    backbone: dict[int, BackboneStatus] = {}
    for v in sorted(variables):
        if witness[v]:
            probe_sat = _sat(variables, base + [(-v,)], use_general) is not None
            backbone[v] = BackboneStatus.FORCED_TRUE if not probe_sat else BackboneStatus.FREE
        else:
            probe_sat = _sat(variables, base + [(v,)], use_general) is not None
            backbone[v] = BackboneStatus.FORCED_FALSE if not probe_sat else BackboneStatus.FREE
    return backbone


def compute_backbone(
    variables: Sequence[int],
    clauses: Sequence[ClauseTuple],
    use_general: bool = False,
) -> dict[int, BackboneStatus]:
    """Per-variable forced role; empty map when unsatisfiable.

    Restricted-shape CNFs get it in closed form. Otherwise by SAT probes: a
    variable seen true in the witness can only be ForcedTrue (probe with the
    negated literal); seen false, only ForcedFalse. One probe each.
    """
    _check_inputs(variables, clauses)
    return _backbone(variables, clauses, use_general)


def _count_blocking(
    variables: Sequence[int], clauses: Sequence[ClauseTuple], cap: int
) -> int:
    # enumerate models, blocking each full assignment, until the cap
    count = 0
    working = list(clauses)
    ordered = sorted(variables)
    while count < cap:
        witness = _solve_dpll(variables, working)
        if witness is None:
            break
        count += 1
        working.append(tuple(-v if witness[v] else v for v in ordered))
    return count


def _count_restricted(
    variables: Sequence[int],
    clauses: Sequence[ClauseTuple],
    cap: int,
    backbone: dict[int, BackboneStatus],
) -> int:
    # counting over free variables after backbone fixing
    free = sorted(v for v, s in backbone.items() if s is BackboneStatus.FREE)
    m = len(free)
    # Every residual clause keeps >= 2 free literals (a singleton would have
    # been forced true), so all-true plus each single-flip assignment are
    # models: at least m + 1 in total.
    if m + 1 >= cap:
        return cap
    if m > _RESIDUAL_ENUM_LIMIT:
        return _count_blocking(variables, clauses, cap)
    free_index = {v: i for i, v in enumerate(free)}
    residual: list[tuple[int, ...]] = []
    for clause in clauses:
        if len(clause) == 1 and clause[0] < 0:
            continue
        if any(backbone[lit] is BackboneStatus.FORCED_TRUE for lit in clause):
            continue
        reduced = tuple(free_index[lit] for lit in clause if backbone[lit] is BackboneStatus.FREE)
        assert reduced, "unsatisfied clause under a satisfiable backbone"
        residual.append(reduced)
    count = 0
    for bits in range(1 << m):
        if all(any(bits >> i & 1 for i in clause) for clause in residual):
            count += 1
            if count == cap:
                break
    return count


def count_models(
    variables: Sequence[int],
    clauses: Sequence[ClauseTuple],
    cap: int = DEFAULT_MODEL_CAP,
    use_general: bool = False,
) -> int:
    """min(number of models, cap). Counting never proceeds past the cap."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    _check_inputs(variables, clauses)
    if not use_general and is_restricted_shape(clauses):
        backbone = _closed_form(variables, clauses)
        return 0 if backbone is None else _count_restricted(variables, clauses, cap, backbone)
    return _count_blocking(variables, clauses, cap)


def _solve(
    variables: Sequence[int], clauses: Sequence[ClauseTuple], cap: int
) -> tuple[SolutionStatus, int, dict[int, BackboneStatus]]:
    # status, capped model count and backbone of an already checked CNF:
    # restricted-shape CNFs in closed form, the rest by DPLL
    if is_restricted_shape(clauses):
        backbone = _closed_form(variables, clauses)
        if backbone is None:
            return SolutionStatus.UNSAT, 0, {}
        count = _count_restricted(variables, clauses, cap, backbone)
    else:
        count = _count_blocking(variables, clauses, cap)
        if count == 0:
            return SolutionStatus.UNSAT, 0, {}
        backbone = _backbone(variables, clauses, use_general=False)
    status = SolutionStatus.UNIQUE if count == 1 else SolutionStatus.MULTIPLE
    return status, count, backbone


def brute_force_models(
    variables: Sequence[int],
    clauses: Sequence[ClauseTuple],
    max_vars: int = BRUTE_FORCE_MAX_VARS,
) -> list[Assignment]:
    """Exact model set by exhaustive enumeration of all 2^n assignments.

    Oracle for the solver paths; shares no logic with them. Refuses more
    than max_vars variables. numpy is imported here, not at module level, so
    the CLI starts without it.
    """
    import numpy as np

    _check_inputs(variables, clauses)
    ordered = sorted(set(variables))
    n = len(ordered)
    if n > max_vars:
        raise ValueError(f"brute force refuses {n} variables (max {max_vars})")
    index = {v: i for i, v in enumerate(ordered)}
    space = np.arange(1 << n, dtype=np.uint64)
    ok = np.ones(1 << n, dtype=bool)
    for clause in clauses:
        pos_mask = 0
        neg_mask = 0
        for lit in clause:
            if lit > 0:
                pos_mask |= 1 << index[lit]
            else:
                neg_mask |= 1 << index[-lit]
        satisfied = ((space & np.uint64(pos_mask)) != 0) | (
            (~space & np.uint64(neg_mask)) != 0
        )
        ok &= satisfied
    models: list[Assignment] = []
    for raw in np.nonzero(ok)[0]:
        bits = int(raw)
        models.append({v: bool(bits >> i & 1) for v, i in index.items()})
    return models


def classify(instance: CnfInstance, cap: int = DEFAULT_MODEL_CAP) -> SolutionSummary:
    """Solve one bucket CNF: status, capped model count, backbone."""
    # a cap of 1 cannot tell unique (exactly 1) from multiple (stopped at 1)
    if cap < 2:
        raise ValueError("cap must be >= 2")
    status, count, backbone = _solve(instance.variables, to_cnf_clauses(instance), cap)
    return SolutionSummary(
        key=instance.key,
        status=status,
        model_count_capped=count,
        backbone=backbone,
    )


# ---------------------------------------------------------------------------
# DIMACS


def parse_dimacs(text: str) -> tuple[int, list[ClauseTuple]]:
    """Parse DIMACS CNF; returns (declared variable count, clauses)."""
    n_vars: int | None = None
    clauses: list[ClauseTuple] = []
    pending: list[int] = []
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("c"):
            continue
        if stripped.startswith("p"):
            if n_vars is not None:
                raise ValueError("duplicate DIMACS header")
            parts = stripped.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"malformed DIMACS header: {stripped!r}")
            try:
                n_vars = int(parts[2])
                declared_clauses = int(parts[3])
            except ValueError:
                raise ValueError(f"malformed DIMACS header: {stripped!r}") from None
            if n_vars < 0 or declared_clauses < 0:
                raise ValueError(f"malformed DIMACS header: {stripped!r}")
            continue
        if n_vars is None:
            raise ValueError("DIMACS clause before header")
        for token in stripped.split():
            try:
                lit = int(token)
            except ValueError:
                raise ValueError(f"bad DIMACS literal: {token!r}") from None
            if lit == 0:
                clauses.append(tuple(pending))
                pending = []
            else:
                if abs(lit) > n_vars:
                    raise ValueError(f"literal {lit} exceeds declared variable count")
                pending.append(lit)
    if n_vars is None:
        raise ValueError("missing DIMACS header")
    if pending:
        clauses.append(tuple(pending))
    return n_vars, clauses


def solve_dimacs_text(text: str, cap: int = DEFAULT_MODEL_CAP) -> dict:
    """Solve external DIMACS input; the JSON body printed by solve-dimacs."""
    if cap < 2:
        raise ValueError("cap must be >= 2")
    n_vars, clauses = parse_dimacs(text)
    status, count, backbone = _solve(tuple(range(1, n_vars + 1)), clauses, cap)
    return {
        "status": status.value,
        "count_capped": count,
        "backbone": {str(v): backbone[v].value for v in sorted(backbone)},
    }
