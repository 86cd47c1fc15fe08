"""Shared builders for the test suite: records, tables, random CNFs, and the
mutations the fuzz tests draw."""
from __future__ import annotations

import random
from datetime import datetime, timezone

from hypothesis import strategies as st

from censorloc import solver, tomography
from censorloc.analysis import HISTOGRAM_BUCKETS, ChurnCell, ChurnReport
from censorloc.ingest import PrefixTable, parse_pfx2as, window_id
from censorloc.model import (
    AnomalyType,
    BackboneStatus,
    CensorClass,
    CensorVerdict,
    CnfInstance,
    Hop,
    MeasurementRecord,
    SolutionStatus,
    SolutionSummary,
    Traceroute,
    format_timestamp,
)

Assignment = dict[int, bool]


def ts(raw: str) -> datetime:
    return datetime.strptime(raw, "%Y-%m-%dT%H:%M:%SZ").replace(tzinfo=timezone.utc)


def make_traceroute(*addrs: str, completed: bool = True) -> Traceroute:
    """Hop addresses in TTL order; "*" marks a non-responsive hop."""
    return Traceroute(
        hops=tuple(
            Hop(addr=None if a == "*" else a, ttl_index=i)
            for i, a in enumerate(addrs, start=1)
        ),
        completed=completed,
    )


def make_record(
    *,
    record_id: str = "r1",
    vantage_asn: int = 100,
    url: str = "http://example.com/",
    dst_ip: str = "9.9.0.1",
    anomaly: AnomalyType = AnomalyType.DNS,
    detected: bool = False,
    timestamp: str = "2016-05-02T12:00:00Z",
    traceroutes: tuple[Traceroute, ...] | None = None,
) -> MeasurementRecord:
    if traceroutes is None:
        tr = make_traceroute("9.9.0.1")
        traceroutes = (tr, tr, tr)
    return MeasurementRecord(
        record_id=record_id,
        vantage_asn=vantage_asn,
        url=url,
        dst_ip=dst_ip,
        anomaly=anomaly,
        detected=detected,
        timestamp=ts(timestamp),
        traceroutes=traceroutes,
    )


def record_obj(record: MeasurementRecord) -> dict:
    """The measurement JSON object ingest reads back as ``record``; a
    non-responsive hop is written as "*"."""
    return {
        "record_id": record.record_id,
        "vantage_asn": record.vantage_asn,
        "url": record.url,
        "dst_ip": record.dst_ip,
        "anomaly": record.anomaly.value,
        "detected": record.detected,
        "timestamp": format_timestamp(record.timestamp),
        "traceroutes": [
            {
                "completed": t.completed,
                "hops": [
                    {"ttl": h.ttl_index, "addr": "*" if h.addr is None else h.addr}
                    for h in t.hops
                ],
            }
            for t in record.traceroutes
        ],
    }


def forced_true_asns(summary: SolutionSummary) -> tuple[int, ...]:
    return tuple(
        sorted(a for a, s in summary.backbone.items() if s is BackboneStatus.FORCED_TRUE)
    )


def identify_censors_reference(summaries) -> list[CensorVerdict]:
    """``analysis.identify_censors`` as a plain loop over the summaries that
    sorts each verdict's witnesses with ``BucketKey.sort_key``."""
    censor_wit: dict = {}
    potential_wit: dict = {}
    seen: dict = {}
    for summary in summaries:
        for asn, role in summary.backbone.items():
            pair = (asn, summary.key.anomaly)
            seen.setdefault(pair, []).append(summary.key)
            if summary.status is SolutionStatus.UNIQUE and role is BackboneStatus.FORCED_TRUE:
                censor_wit.setdefault(pair, []).append(summary.key)
            elif (
                summary.status is SolutionStatus.MULTIPLE
                and role is not BackboneStatus.FORCED_FALSE
            ):
                potential_wit.setdefault(pair, []).append(summary.key)

    def ordered(keys):
        return tuple(sorted(set(keys), key=lambda k: k.sort_key()))

    verdicts = []
    for pair in sorted(seen, key=lambda p: (p[1].value, p[0])):
        asn, anomaly = pair
        if pair in censor_wit:
            klass, witnesses = CensorClass.CENSOR, ordered(censor_wit[pair])
        elif pair in potential_wit:
            klass, witnesses = CensorClass.POTENTIAL_CENSOR, ordered(potential_wit[pair])
        else:
            klass, witnesses = CensorClass.NON_CENSOR, ordered(seen[pair])
        verdicts.append(
            CensorVerdict(asn=asn, censor_class=klass, anomaly=anomaly, witnesses=witnesses)
        )
    return verdicts


def churn_stats_reference(observations, granularity) -> ChurnReport:
    """``analysis.churn_stats`` as a per-record accumulation: each
    observation names its own window with ``window_id``."""
    acc: dict = {}
    for vantage, dst, timestamp, path in observations:
        cell_key = (vantage, dst, window_id(timestamp, granularity))
        count, paths = acc.setdefault(cell_key, (0, set()))
        paths.add(path)
        acc[cell_key] = (count + 1, paths)
    cells = tuple(
        ChurnCell(
            vantage_asn=v,
            dst_asn=d,
            window_id=w,
            n_measurements=count,
            distinct_paths=len(paths),
        )
        for (v, d, w), (count, paths) in sorted(acc.items())
    )
    histogram = {b: 0 for b in HISTOGRAM_BUCKETS}
    for cell in cells:
        histogram[str(cell.distinct_paths) if cell.distinct_paths < 5 else "5+"] += 1
    multi = sum(1 for c in cells if c.n_measurements >= 2)
    churning = sum(1 for c in cells if c.distinct_paths >= 2)
    return ChurnReport(
        granularity=granularity,
        cells=cells,
        fraction_churning=churning / multi if multi else None,
        histogram=histogram,
        multi_measurement_cells=multi,
        churning_cells=churning,
    )


def make_table(spec: dict[str, int | tuple[int, ...]]) -> PrefixTable:
    """Prefix table from {"prefix/len": origin or (origins...)} via the real parser."""
    lines = []
    for prefix, origin in spec.items():
        addr, length = prefix.split("/")
        if isinstance(origin, tuple):
            origin_field = "_".join(str(o) for o in origin)
        else:
            origin_field = str(origin)
        lines.append(f"{addr}\t{length}\t{origin_field}")
    table, _ = parse_pfx2as("\n".join(lines) + "\n")
    return table


# ---------------------------------------------------------------------------
# CNF generation and the model-set oracle


def random_pipeline_cnf(
    rng: random.Random, max_vars: int = 15
) -> tuple[list[int], list[tuple[int, ...]]]:
    """A CNF in the bucket shape: all-positive clauses plus negative units."""
    n = rng.randint(1, max_vars)
    variables = sorted(rng.sample(range(1, 100000), n))
    clauses: list[tuple[int, ...]] = []
    for _ in range(rng.randint(0, 5)):
        k = rng.randint(1, min(n, 6))
        clauses.append(tuple(rng.sample(variables, k)))
    for v in rng.sample(variables, rng.randint(0, n)):
        clauses.append((-v,))
    rng.shuffle(clauses)
    return variables, clauses


def random_general_cnf(
    rng: random.Random, max_vars: int = 8
) -> tuple[list[int], list[tuple[int, ...]]]:
    """A CNF with arbitrary literal signs (exercises the DPLL path)."""
    n = rng.randint(1, max_vars)
    variables = list(range(1, n + 1))
    clauses: list[tuple[int, ...]] = []
    for _ in range(rng.randint(0, 8)):
        k = rng.randint(1, min(n, 4))
        chosen = rng.sample(variables, k)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in chosen))
    return variables, clauses


def structured_dimacs(family: str, n: int) -> str:
    """DIMACS text of a structured general CNF over variables 1..n.

    "alternating" is (x1 v -x2)(x3 v -x4)..., "chain" the implications
    x1 -> x2 -> ... -> xn, and "chain-head" the chain plus the unit (x1).
    """
    chain = [(-i, i + 1) for i in range(1, n)]
    clauses = {
        "alternating": [(2 * i - 1, -2 * i) for i in range(1, n // 2 + 1)],
        "chain": chain,
        "chain-head": [(1,), *chain],
    }[family]
    body = "".join(" ".join(map(str, clause)) + " 0\n" for clause in clauses)
    return f"p cnf {n} {len(clauses)}\n{body}"


def engine_solve(variables, clauses, cap: int) -> tuple[int, dict[int, BackboneStatus]]:
    """Capped model count and backbone from the DPLL engine alone.

    ``solver._solve`` hands restricted-shape CNFs to the closed form, so this
    is how a test runs the engine on them as well.
    """
    engine = solver._Engine(variables, clauses)
    count, shared = solver._enumerate(engine, cap)
    return count, engine.backbone(shared) if count else {}


def satisfies(assignment: Assignment, clauses) -> bool:
    return all(
        any(assignment[abs(lit)] == (lit > 0) for lit in clause) for clause in clauses
    )


def backbone_from_models(variables, models: list[Assignment]) -> dict[int, BackboneStatus]:
    """Backbone derived from an exhaustive model list (no solver logic)."""
    if not models:
        return {}
    out: dict[int, BackboneStatus] = {}
    for v in variables:
        values = {m[v] for m in models}
        if values == {True}:
            out[v] = BackboneStatus.FORCED_TRUE
        elif values == {False}:
            out[v] = BackboneStatus.FORCED_FALSE
        else:
            out[v] = BackboneStatus.FREE
    return out


def build_cnf(key, observations, memo=None) -> CnfInstance:
    """One bucket's CNF instance from its source rows, each distinct (path,
    detected) with its first record_id and record count, as the leak side
    of ``tomography`` builds them; source_paths keeps the rows as given.

    Clauses are deduplicated per (literal set, truth); contradictory pairs
    (same set, both truths) are retained and left for the solver to expose as
    unsatisfiable.
    """
    if not observations:
        raise ValueError("a bucket cannot be empty")
    if memo is None:
        memo = tomography._ClauseMemo()
    body = frozenset([(path, detected) for path, detected, _, _ in observations])
    return CnfInstance(key, *memo[body], tuple(observations))


def assert_canonical_cnf(instance) -> None:
    """The facts ``build_cnf`` establishes and ``CnfInstance`` takes on trust:
    variables are the sorted union of the clause literals, and the clauses
    are in canonical order with none repeated."""
    union = frozenset().union(*(c.literal_asns for c in instance.clauses))
    assert instance.variables == tuple(sorted(union))
    keys = [c.canonical_key() for c in instance.clauses]
    assert keys == sorted(set(keys))


# ---------------------------------------------------------------------------
# mutations

# bytes that matter to some reader, besides arbitrary short runs
_BYTE_TOKENS = st.sampled_from(
    [b"\t", b",", b"\n", b"\r", b" ", b"_", b"-", b".", b"0", b"9", b"{", b"}", b"[", b"]",
     b'"', b":", b"null", b"\xff", b"\xc3", b"p cnf", b"/"]
) | st.binary(min_size=1, max_size=3)


@st.composite
def mutated_bytes(draw, data: bytes) -> bytes:
    """``data`` with one to four bytes runs replaced, inserted, deleted or repeated."""
    out = bytearray(data)
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(out)))
        kind = draw(st.sampled_from(["replace", "insert", "delete", "repeat"]))
        if kind == "replace":
            chunk = draw(_BYTE_TOKENS)
            out[pos : pos + len(chunk)] = chunk
        elif kind == "insert":
            out[pos:pos] = draw(_BYTE_TOKENS)
        elif kind == "delete":
            del out[pos : pos + draw(st.integers(1, 16))]
        else:
            out[pos:pos] = out[pos : pos + draw(st.integers(1, 16))]
    return bytes(out)


def value_paths(value, path=()):
    """The key path of every value below the top of a JSON value."""
    children = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in children:
        yield (*path, key)
        if isinstance(child, (dict, list)):
            yield from value_paths(child, (*path, key))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=6,
)
# values that pass, or nearly pass, some check of a measurement record
NEAR_VALUES = st.sampled_from([
    0, 1, 2, 1.0, True, False, None, "", "*", "9.9.0.1", "9.9.0.1 ", "http://x/", [], {},
    {"addr": "9.9.0.1", "ttl": 1}, {"ttl": 1, "addr": 7}, {"hops": [], "completed": False},
])


def equal_twins(value) -> list:
    """Values equal to a JSON number or bool under ``==`` but of another type."""
    if type(value) not in (bool, int, float):
        return []
    twins = (bool(value), int(value), float(value))
    return [v for v in twins if v == value and type(v) is not type(value)]
