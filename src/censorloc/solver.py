"""SAT machinery for bucket CNFs.

Variables are positive integers (ASNs in the pipeline, 1..n for DIMACS
input); a clause is a tuple of signed variables. ``_solve`` is the one
dispatcher. Pipeline CNFs have a restricted shape: every clause is
all-positive or a negative unit. For that shape satisfiability and the
backbone follow in closed form in one pass over the clauses
(``_closed_form``), and m free variables give at least m + 1 models: exactly
m + 1 when m < 2, and 3 or 4 when m = 2. Every other count, and every other
CNF, goes through ``_Engine``, an iterative DPLL over implication lists and
two watched literals that counts by resuming its search after each model and
filters the backbone with the models it finds.

Inputs are checked once, on entry to ``check_sat``, ``compute_backbone``,
``count_models`` and ``brute_force_models``; the probes they make are not.
``classify`` and ``solve_dimacs_text`` take CNFs that were already checked
where they were built (``CnfInstance`` and ``parse_dimacs``).

The module imports only ``model``, so ``solve-dimacs`` loads no corpus
stage: ``to_cnf_clauses`` is the solver's reading of a ``CnfInstance``, and
``tomography`` takes it from here to write DIMACS.
"""
from __future__ import annotations

from typing import Container, Iterator, Sequence

from .model import (
    BackboneStatus,
    CnfInstance,
    SolutionStatus,
    SolutionSummary,
)

Assignment = dict[int, bool]
ClauseTuple = tuple[int, ...]

DEFAULT_MODEL_CAP = 5
BRUTE_FORCE_MAX_VARS = 20
# The most variables a DIMACS header may declare. Solving lists every declared
# variable, so a larger count is refused as a malformed header instead of
# exhausting memory (or overflowing range) before the first clause is read.
MAX_DIMACS_VARS = 1_000_000
# member -> value as a dict lookup: `.value` of a str enum is a Python-level
# property, read once per variable when a backbone is rendered
_VALUES = {member: member.value for member in (*SolutionStatus, *BackboneStatus)}


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


class _Engine:
    """Iterative DPLL over one CNF: a trail of true literals, chronological
    backtracking, unit propagation through implication lists for binary
    clauses, (a b) as -a -> b and -b -> a, and two watched literals per longer
    clause. Lists exist only for the literals and variables of some clause.

    Intake dedupes each clause's literals and drops tautologies; an empty
    clause makes the CNF unsat, and unit clauses are asserted at the root,
    whose implied literals are ``trail[:root]``. Only a variable in a clause
    that nothing satisfies yet is decided, so no refutation is repeated over
    the value of one that no open clause mentions.
    """

    def __init__(self, variables: Sequence[int], clauses: Sequence[ClauseTuple]) -> None:
        self.true: set[int] = set()
        self.trail: list[int] = []
        self.head = 0  # trail[:head] is propagated
        # literal -> the literals it implies, and the longer clauses to visit,
        # when it comes true
        self.implies: dict[int, list[int]] = {}
        self.watches: dict[int, list[list[int]]] = {}
        # variable -> its clauses of two or more literals
        self.occurs: dict[int, list[ClauseTuple | list[int]]] = {}
        self.order = sorted(variables)
        self.ok = True
        implies, watches, occurs = self.implies, self.watches, self.occurs
        units = []
        for clause in clauses:
            if len(clause) != 2 or clause[0] == clause[1] or clause[0] == -clause[1]:
                # only a binary clause over two variables needs no dedupe
                clause = list(dict.fromkeys(clause))
                if len(set(map(abs, clause))) < len(clause):
                    continue  # a tautology
            if len(clause) == 2:
                a, b = clause
                implies.setdefault(-a, []).append(b)
                implies.setdefault(-b, []).append(a)
                occurs.setdefault(abs(a), []).append(clause)
                occurs.setdefault(abs(b), []).append(clause)
            elif len(clause) > 2:
                watches.setdefault(-clause[0], []).append(clause)
                watches.setdefault(-clause[1], []).append(clause)
                for lit in clause:
                    occurs.setdefault(abs(lit), []).append(clause)
            elif clause:
                units.append(clause[0])
            else:
                self.ok = False
        self.ok = self.ok and all(map(self._assign, units)) and self._propagate()
        self.root = len(self.trail)

    def _assign(self, lit: int) -> bool:
        # False on a conflict
        if lit not in self.true:
            if -lit in self.true:
                return False
            self.true.add(lit)
            self.trail.append(lit)
        return True

    def _undo(self, mark: int) -> None:
        self.true.difference_update(self.trail[mark:])
        del self.trail[mark:]
        self.head = mark

    def _propagate(self) -> bool:
        # on a conflict the caller undoes, which resets head
        true, trail, implies, watches = self.true, self.trail, self.implies, self.watches
        head = self.head
        while head < len(trail):
            lit = trail[head]
            head += 1
            for other in implies.get(lit, ()):
                if other not in true:
                    if -other in true:
                        return False
                    true.add(other)
                    trail.append(other)
            watching = watches.get(lit, ())
            i = 0
            while i < len(watching):
                clause = watching[i]
                # keep the literal just made false at clause[1]
                if clause[0] == -lit:
                    clause[0], clause[1] = clause[1], clause[0]
                i += 1
                if clause[0] in true:
                    continue
                for k in range(2, len(clause)):
                    if -clause[k] not in true:
                        # watch clause[k] instead
                        clause[1], clause[k] = clause[k], clause[1]
                        watches.setdefault(-clause[1], []).append(clause)
                        i -= 1
                        watching[i] = watching[-1]
                        watching.pop()
                        break
                else:
                    if not self._assign(clause[0]):
                        return False
        self.head = head
        return True

    def models(self, against: Container[int] = (), assume: int = 0) -> Iterator[set[int]]:
        """Yield the true literals of each leaf, under ``assume`` if nonzero;
        a decision tries true first, false first for a variable in ``against``.
        A leaf satisfies every clause, whatever its unassigned variables are,
        and leaves share no model, so resuming the search counts exactly.
        The yielded set is live: read it before resuming.
        """
        self._undo(self.root)
        if not self.ok or (assume and not (self._assign(assume) and self._propagate())):
            return
        order, true, trail, occurs = self.order, self.true, self.trail, self.occurs
        # (trail length before, order index, literal, both values tried)
        stack: list[tuple[int, int, int, bool]] = []
        i = 0
        while True:
            # decide the next unassigned variable of a clause nothing satisfies
            for i in range(i, len(order)):
                v = order[i]
                if v not in true and -v not in true and any(map(true.isdisjoint, occurs.get(v, ()))):
                    lit = -v if v in against else v
                    stack.append((len(trail), i, lit, False))
                    true.add(lit)
                    trail.append(lit)
                    ok = self._propagate()
                    break
            else:
                yield true
                ok = False
            while not ok:
                while stack and stack[-1][3]:
                    stack.pop()
                if not stack:
                    return
                mark, i, lit, _ = stack.pop()
                self._undo(mark)
                stack.append((mark, i, -lit, True))
                ok = self._assign(-lit) and self._propagate()

    def backbone(self, candidates: set[int]) -> dict[int, BackboneStatus]:
        """Backbone of a satisfiable CNF, given a superset of the literals
        true in every model. Literals implied at the root are forced. Each
        other candidate gets one probe under its negation, decisions steered
        away from every candidate: with no model it is forced and joins the
        root; a model drops every candidate it does not make true.
        """
        self._undo(self.root)
        for lit in sorted(candidates - self.true, key=abs):
            if lit not in candidates or lit in self.true:
                continue
            model = next(self.models(candidates, -lit), None)
            if model is None:
                self._undo(self.root)
                self._assign(lit) and self._propagate()
                self.root = len(self.trail)
            else:
                candidates &= model
                self._undo(self.root)
        forced = set(self.trail[: self.root])
        return {
            v: BackboneStatus.FORCED_TRUE if v in forced
            else BackboneStatus.FORCED_FALSE if -v in forced
            else BackboneStatus.FREE
            for v in self.order
        }


def _enumerate(engine: _Engine, cap: int) -> tuple[int, set[int]]:
    # capped model count and the literals every counted model shares; a
    # leaf with u unassigned variables stands for 2^u models
    count, shared = 0, set()
    for true in engine.models():
        shared = set(true) if count == 0 else shared & true
        count = min(cap, count + (1 << (len(engine.order) - len(true))))
        if count == cap:
            break
    return count, shared


def check_sat(
    variables: Sequence[int], clauses: Sequence[ClauseTuple]
) -> tuple[bool, Assignment | None]:
    """Satisfiability plus a witness assignment when satisfiable.

    The witness is the engine's first model: the first in variable order,
    true before false. On a restricted-shape CNF that is all true but the
    forced-false set.
    """
    _check_inputs(variables, clauses)
    count, model = _enumerate(_Engine(variables, clauses), 1)
    # variables the first leaf leaves unassigned are true
    witness = {v: -v not in model for v in sorted(variables)} if count else None
    return witness is not None, witness


def compute_backbone(
    variables: Sequence[int], clauses: Sequence[ClauseTuple]
) -> dict[int, BackboneStatus]:
    """Per-variable forced role; empty map when unsatisfiable."""
    _check_inputs(variables, clauses)
    return _solve(variables, clauses, 1)[2]


def count_models(
    variables: Sequence[int],
    clauses: Sequence[ClauseTuple],
    cap: int = DEFAULT_MODEL_CAP,
) -> int:
    """min(number of models, cap). Counting never proceeds past the cap."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    _check_inputs(variables, clauses)
    return _enumerate(_Engine(variables, clauses), cap)[0]


def _solve(
    variables: Sequence[int], clauses: Sequence[ClauseTuple], cap: int
) -> tuple[SolutionStatus, int, dict[int, BackboneStatus]]:
    # status, capped model count and backbone of an already checked CNF;
    # the only place that picks a method by clause shape
    if is_restricted_shape(clauses):
        backbone = _closed_form(variables, clauses)
        if backbone is None:
            return SolutionStatus.UNSAT, 0, {}
        m = sum(s is BackboneStatus.FREE for s in backbone.values())
        # Every clause left unsatisfied keeps >= 2 free literals (one would
        # have been forced true), so all-true plus each single flip are
        # models: at least m + 1, and exactly m + 1 when m < 2. With m = 2,
        # both free variables false is a model unless some clause keeps only
        # those two outside the forced-false set.
        if m < 2 or m + 1 >= cap:
            count = min(m + 1, cap)
        elif m == 2:
            free = {v for v, s in backbone.items() if s is BackboneStatus.FREE}
            unforced = {v for v, s in backbone.items() if s is not BackboneStatus.FORCED_FALSE}
            count = 3 if any(unforced.intersection(c) == free for c in clauses) else 4
        else:
            count = _enumerate(_Engine(variables, clauses), cap)[0]
    else:
        engine = _Engine(variables, clauses)
        count, shared = _enumerate(engine, cap)
        if count == 0:
            return SolutionStatus.UNSAT, 0, {}
        backbone = engine.backbone(shared)
    status = SolutionStatus.UNIQUE if count == 1 else SolutionStatus.MULTIPLE
    return status, count, backbone


def brute_force_models(
    variables: Sequence[int],
    clauses: Sequence[ClauseTuple],
    max_vars: int = BRUTE_FORCE_MAX_VARS,
) -> list[Assignment]:
    """Exact model set by exhaustive enumeration of all 2^n assignments.

    Oracle for the solver paths; shares no logic with them. Refuses more
    than max_vars variables. It needs numpy, which only the ``dev`` extra
    installs; numpy is imported here, not at module level, so the CLI starts
    and runs without it.
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


def to_cnf_clauses(instance: CnfInstance) -> list[tuple[int, ...]]:
    """Expand to solver clauses over signed ASNs.

    truth=True  -> one all-positive disjunction (x1 v ... v xk)
    truth=False -> k negative unit clauses (De Morgan on NOT(x1 v ... v xk))
    Unit clauses are deduplicated; positive disjunctions are already distinct.
    """
    positives: list[tuple[int, ...]] = []
    negative_units: set[int] = set()
    for clause in instance.clauses:
        if clause.truth:
            positives.append(tuple(sorted(clause.literal_asns)))
        else:
            negative_units.update(clause.literal_asns)
    return positives + [(-asn,) for asn in sorted(negative_units)]


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


def _plain(text: str) -> bool:
    # int() would also read "1_0" as 10 and "-١" as -1
    return text.isascii() and "_" not in text


def parse_dimacs(text: str) -> tuple[int, list[ClauseTuple]]:
    """Parse DIMACS CNF; returns (declared variable count, clauses). Reading
    stops at a ``%`` line (SATLIB's end marker); the header's clause count must
    hold, and its variable count must not exceed ``MAX_DIMACS_VARS``."""
    n_vars: int | None = None
    clauses: list[ClauseTuple] = []
    pending: list[int] = []
    # lines end at LF only: str.splitlines would also end a comment at U+0085
    for line in text.split("\n"):
        stripped = line.strip()
        if stripped == "%":
            break  # the end marker of SATLIB files
        if not stripped or stripped.startswith("c"):
            continue
        if stripped.startswith("p"):
            if n_vars is not None:
                raise ValueError("duplicate DIMACS header")
            parts = stripped.split()
            if len(parts) != 4 or parts[1] != "cnf" or not _plain(parts[2] + parts[3]):
                raise ValueError(f"malformed DIMACS header: {stripped!r}")
            try:
                n_vars = int(parts[2])
                declared_clauses = int(parts[3])
            except ValueError:
                raise ValueError(f"malformed DIMACS header: {stripped!r}") from None
            if not 0 <= n_vars <= MAX_DIMACS_VARS or declared_clauses < 0:
                raise ValueError(f"malformed DIMACS header: {stripped!r}")
            continue
        if n_vars is None:
            raise ValueError("DIMACS clause before header")
        tokens = stripped.split()
        if not _plain(stripped):
            # checked per line; only a suspect line is searched token by token
            for token in tokens:
                if not _plain(token):
                    raise ValueError(f"bad DIMACS literal: {token!r}")
        for token in tokens:
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
    if len(clauses) != declared_clauses:
        raise ValueError(f"DIMACS header declares {declared_clauses} clauses, found {len(clauses)}")
    return n_vars, clauses


def solve_dimacs_text(text: str, cap: int = DEFAULT_MODEL_CAP) -> dict:
    """Solve external DIMACS input; the JSON body printed by solve-dimacs."""
    if cap < 2:
        raise ValueError("cap must be >= 2")
    n_vars, clauses = parse_dimacs(text)
    status, count, backbone = _solve(tuple(range(1, n_vars + 1)), clauses, cap)
    # both solve paths build the backbone in ascending variable order
    return {
        "status": _VALUES[status],
        "count_capped": count,
        "backbone": {str(v): _VALUES[s] for v, s in backbone.items()},
    }
