"""A plain ``localize``, ``leak``, ``churn``, ``ablate`` and ``export-dimacs``,
written for clarity: the whole-run oracle of the tests.

It shares no code with ``censorloc`` beyond the model enums and the solver's
test oracle ``brute_force_models``. Each line is read with ``json.loads`` and
checked field by field; addresses are matched with ``ipaddress``; each
traceroute becomes one AS token per hop and is then collapsed; buckets are
grouped with ``itertools.groupby`` and solved by enumerating every
assignment; churn cells and ablation anchors are found from sorted records;
the outputs are written with ``json.dumps`` and ``csv``, and DIMACS files are
named with ``hashlib.sha256`` of the URL. No memo, no
shared value and no fast path: it is slow on purpose.

The prefix table and the AS metadata are taken as valid, so this reference
suits runs whose mutations are confined to the measurements file.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import re
from datetime import date, datetime
from ipaddress import IPv4Address, IPv4Network
from itertools import groupby

from censorloc.model import (
    AnomalyType,
    BackboneStatus,
    CensorClass,
    SolutionStatus,
    TimeGranularity,
)
from censorloc.solver import brute_force_models

# RFC1918, loopback and link-local space never names an AS
RESERVED = [IPv4Network(n) for n in
            ("10.0.0.0/8", "127.0.0.0/8", "172.16.0.0/12", "192.168.0.0/16", "169.254.0.0/16")]
RECORD_KEYS = {"record_id", "vantage_asn", "url", "dst_ip", "anomaly", "detected",
               "timestamp", "traceroutes"}
RULES = ("mapping_impossible", "traceroute_error", "unresolvable_gap", "multiple_as_paths")
SOLUTION_COLUMNS = ["cnf_count", "unsat", "unique", "multiple", "at_cap",
                    "share_unsat", "share_unique", "share_multiple", "share_at_cap"]


def read_table(text: str) -> dict[IPv4Network, frozenset[int]]:
    """Each "prefix<TAB>length<TAB>origins" line; a later prefix overrides."""
    table = {}
    for line in text.split("\n"):
        if line.strip():
            prefix, length, spec = line.split("\t")
            network = IPv4Network(f"{prefix.strip()}/{length.strip()}", strict=False)
            table[network] = frozenset(int(asn) for asn in spec.replace("_", ",").split(","))
    return table


def is_ipv4(text: str) -> bool:
    try:
        IPv4Address(text)
    except ValueError:
        return False
    return True


def origins(table: dict, addr: str) -> frozenset[int]:
    """The origin set of the longest table prefix holding ``addr``."""
    ip = IPv4Address(addr)
    if any(ip in network for network in RESERVED):
        return frozenset()
    holding = [network for network in table if ip in network]
    if not holding:
        return frozenset()
    return table[max(holding, key=lambda network: network.prefixlen)]


def asn_fault(value, what: str) -> str | None:
    if isinstance(value, bool) or not isinstance(value, int):
        return f"{what} must be an integer, got {value!r}"
    if not 1 <= value <= 2**32 - 1:
        return f"{what} out of range [1, 2^32-1]: {value}"
    return None


def timestamp_of(raw) -> datetime | str:
    if not isinstance(raw, str):
        return f"timestamp must be a string, got {raw!r}"
    fields = re.fullmatch(r"([0-9]{4})-([0-9]{2})-([0-9]{2})T([0-9]{2}):([0-9]{2}):([0-9]{2})Z",
                          raw)
    try:
        return datetime(*map(int, fields.groups()))
    except (AttributeError, ValueError):  # no match, or no such date or time
        return f"timestamp not in YYYY-MM-DDThh:mm:ssZ form: {raw!r}"


def traceroute_of(obj) -> tuple[bool, list] | str:
    """(completed, hop addresses with None for "*"), or the first fault."""
    if not isinstance(obj, dict) or set(obj) != {"completed", "hops"}:
        return "invalid traceroute"
    if not isinstance(obj["completed"], bool):
        return "invalid traceroute completed flag"
    if not isinstance(obj["hops"], list):
        return "invalid traceroute hops"
    addrs, ttls = [], []
    for hop in obj["hops"]:
        if not isinstance(hop, dict) or set(hop) != {"ttl", "addr"}:
            return "invalid hop"
        ttl, addr = hop["ttl"], hop["addr"]
        if isinstance(ttl, bool) or not isinstance(ttl, int) or ttl < 1:
            return "invalid hop ttl"
        if not isinstance(addr, str) or (addr != "*" and not is_ipv4(addr)):
            return "invalid hop addr"
        addrs.append(None if addr == "*" else addr)
        ttls.append(ttl)
    if any(a >= b for a, b in zip(ttls, ttls[1:])):
        return "hop ttls not strictly increasing"
    if obj["completed"] and not addrs:
        return "completed traceroute without hops"
    return obj["completed"], addrs


def record_of(line: str) -> dict | str:
    """The record on one line, or the reason it is skipped."""
    if not line.strip():
        return "blank line"
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError):
        return "invalid json"
    if not isinstance(obj, dict):
        return "not a json object"
    if set(obj) != RECORD_KEYS:
        missing = sorted(RECORD_KEYS - set(obj))
        return f"missing key: {missing[0]}" if missing else \
            f"unexpected key: {sorted(set(obj) - RECORD_KEYS)[0]}"
    if not isinstance(obj["record_id"], str) or not obj["record_id"]:
        return "invalid record_id"
    fault = asn_fault(obj["vantage_asn"], "vantage_asn")
    if fault:
        return fault
    url = obj["url"]
    if not isinstance(url, str) or "://" not in url or url.startswith("://"):
        return "invalid url"
    if not isinstance(obj["dst_ip"], str) or not is_ipv4(obj["dst_ip"]):
        return "invalid dst_ip"
    anomaly = obj["anomaly"]
    if not isinstance(anomaly, str):
        return "unknown anomaly type"
    if anomaly not in {a.value for a in AnomalyType}:
        return f"unknown anomaly type: {anomaly!r}"
    if not isinstance(obj["detected"], bool):
        return "invalid detected"
    stamp = timestamp_of(obj["timestamp"])
    if isinstance(stamp, str):
        return stamp
    traceroutes = obj["traceroutes"]
    if not isinstance(traceroutes, list):
        return "invalid traceroutes"
    if len(traceroutes) != 3:
        return "traceroute count != 3"
    checked = [traceroute_of(each) for each in traceroutes]
    for each in checked:
        if isinstance(each, str):
            return each
    return {**obj, "instant": stamp, "day": stamp.date(), "traceroutes": checked}


def collapse(traceroute, table, vantage: int, dst: int) -> tuple | str:
    """Pass one: one token per hop, its AS or None. Pass two: between two
    known ASes only the same AS may hide, then repeats merge."""
    completed, addrs = traceroute
    if not completed or not addrs:
        return "traceroute_error"
    tokens = []
    for addr in addrs:
        found = origins(table, addr) if addr is not None else frozenset()
        tokens.append(min(found) if len(found) == 1 else None)
    if all(token is None for token in tokens):
        return "mapping_impossible"
    known = [(i, asn) for i, asn in enumerate([vantage, *tokens, dst]) if asn is not None]
    for (i, left), (j, right) in zip(known, known[1:]):
        if j > i + 1 and left != right:
            return "unresolvable_gap"
    return tuple(asn for asn, _ in groupby(asn for _, asn in known))


def infer(record: dict, table) -> tuple | str:
    """The record's AS path, or the rule that eliminates it."""
    dst = origins(table, record["dst_ip"])
    if len(dst) != 1:
        return "mapping_impossible"
    outcomes = [collapse(t, table, record["vantage_asn"], min(dst))
                for t in record["traceroutes"]]
    paths = {o for o in outcomes if isinstance(o, tuple)}
    if not paths:
        return outcomes[0]
    return paths.pop() if len(paths) == 1 else "multiple_as_paths"


def window(day: date, granularity: TimeGranularity) -> str:
    if granularity is TimeGranularity.DAY:
        return day.isoformat()
    if granularity is TimeGranularity.WEEK:
        year, week, _ = day.isocalendar()
        return f"{year:04d}-W{week:02d}"
    if granularity is TimeGranularity.MONTH:
        return f"{day.year:04d}-{day.month:02d}"
    return f"{day.year:04d}"


def solve(observations: set, cap: int) -> tuple[SolutionStatus, int, dict]:
    """Status, capped model count and backbone of one bucket's CNF: a path
    that saw the anomaly holds a censor, a clean path holds none."""
    clauses = []
    for path, detected in observations:
        clauses += [tuple(sorted(set(path)))] if detected else [(-asn,) for asn in path]
    variables = sorted({asn for path, _ in observations for asn in path})
    models = brute_force_models(variables, clauses)
    if not models:
        return SolutionStatus.UNSAT, 0, {}
    backbone = {}
    for v in variables:
        values = {model[v] for model in models}
        backbone[v] = (BackboneStatus.FREE if len(values) == 2 else
                       BackboneStatus.FORCED_TRUE if True in values else
                       BackboneStatus.FORCED_FALSE)
    status = SolutionStatus.UNIQUE if len(models) == 1 else SolutionStatus.MULTIPLE
    return status, min(len(models), cap), backbone


def verdicts(solved: list) -> list[dict]:
    """The paper's three rules over every (AS, anomaly) a bucket names:
    censor where forced true in a unique bucket, potential censor where not
    forced false in an ambiguous one, non-censor otherwise."""
    pairs: dict[tuple, dict[str, list]] = {}
    for key, (status, _, backbone) in solved:
        for asn, role in backbone.items():
            pair = pairs.setdefault((key[0].value, asn), {"censor": [], "potential": [],
                                                          "seen": []})
            pair["seen"].append(key)
            if status is SolutionStatus.UNIQUE and role is BackboneStatus.FORCED_TRUE:
                pair["censor"].append(key)
            if status is SolutionStatus.MULTIPLE and role is not BackboneStatus.FORCED_FALSE:
                pair["potential"].append(key)
    out = []
    for (anomaly, asn), found in sorted(pairs.items()):
        klass, keys = (
            (CensorClass.CENSOR, found["censor"]) if found["censor"] else
            (CensorClass.POTENTIAL_CENSOR, found["potential"]) if found["potential"] else
            (CensorClass.NON_CENSOR, found["seen"])
        )
        witnesses = [{"anomaly": k[0].value, "url": k[1], "granularity": k[2].value,
                      "window": k[3]} for k in keys]
        out.append({"anomaly": anomaly, "asn": asn, "class": klass.value,
                    "witnesses": witnesses})
    return out


def _json(obj) -> bytes:
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()


def _csv(header: list, rows: list) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode()


def solution_table(solved: list, column: str, cap: int) -> bytes:
    """Per anomaly (sorted by name) or granularity (fine to coarse): bucket
    counts by status and at the model cap, each also as a share."""
    at = 0 if column == "anomaly" else 2
    groups = sorted(AnomalyType, key=lambda a: a.value) if at == 0 else list(TimeGranularity)
    rows = []
    for group in groups:
        members = [s for key, s in solved if key[at] is group]
        if not members:
            continue
        counts = [sum(s[0] is status for s in members) for status in
                  (SolutionStatus.UNSAT, SolutionStatus.UNIQUE, SolutionStatus.MULTIPLE)]
        counts.append(sum(s[1] >= cap for s in members))
        rows.append([group.value, len(members), *counts,
                     *(f"{n / len(members):.6f}" for n in counts)])
    return _csv([column, *SOLUTION_COLUMNS], rows)


ALL_GRANULARITIES = tuple(TimeGranularity)


def localize(measurements: bytes, pfx2as: bytes, cap: int, url_split: bool = True,
             granularities=ALL_GRANULARITIES, anomalies=None) -> dict[str, bytes] | None:
    """The seven files ``localize --out`` writes, or None where it refuses
    the inputs. ``anomalies``, when given, keeps only the records of those
    categories once ingest has counted them."""
    run = _localize(measurements, pfx2as, cap, url_split, granularities, anomalies)
    return None if run is None else run[0]


def leak(measurements: bytes, pfx2as: bytes, as_meta: bytes, cap: int,
         url_split: bool = True) -> dict[str, bytes] | None:
    """The files ``leak --out`` writes: localize's seven and leakage.json."""
    run = _localize(measurements, pfx2as, cap, url_split, ALL_GRANULARITIES, None)
    if run is None:
        return None
    files, inferred, solved = run
    countries = {int(row[0]): row[1] for row in
                 list(csv.reader(io.StringIO(as_meta.decode("utf-8"))))[1:]}
    return {**files, "leakage.json": leakage(inferred, solved, countries, url_split)}


def ablate(measurements: bytes, pfx2as: bytes, cap: int, url_split: bool = True,
           granularities=ALL_GRANULARITIES, anomalies=None) -> dict[str, bytes] | None:
    """The files ``ablate --out`` writes: localize's seven and the solution
    table by granularity over the records that kept the first path of their
    (vantage AS, destination AS), first by (timestamp, input position)."""
    run = _localize(measurements, pfx2as, cap, url_split, granularities, anomalies)
    if run is None:
        return None
    files, inferred, _ = run
    anchor = {}
    for i in sorted(range(len(inferred)), key=lambda i: (inferred[i][0]["instant"], i)):
        record, path = inferred[i]
        anchor.setdefault((record["vantage_asn"], path[-1]), path)
    kept = [(record, path) for record, path in inferred
            if path == anchor[record["vantage_asn"], path[-1]]]
    solved = solve_buckets(kept, cap, url_split, granularities)
    return {**files,
            "ablated_solutions_by_granularity.csv": solution_table(solved, "granularity", cap)}


def churn(measurements: bytes, pfx2as: bytes,
          granularities=ALL_GRANULARITIES) -> dict[str, bytes] | None:
    """The two files ``churn --out`` writes, or None where it refuses the
    inputs: per (vantage AS, destination AS, window), the number of distinct
    full paths, and per granularity how many cells churn."""
    ingested = _ingest(measurements, pfx2as)
    if ingested is None:
        return None
    records, _, table = ingested
    inferred, _ = _infer_all(records, table)
    cell_rows, summary_rows = [], []
    for granularity in [g for g in TimeGranularity if g in granularities]:
        rows = sorted((record["vantage_asn"], path[-1], window(record["day"], granularity), path)
                      for record, path in inferred)
        cells = [(key, [row[3] for row in group])
                 for key, group in groupby(rows, key=lambda row: row[:3])]
        histogram = [0] * 5  # cells with 1, 2, 3, 4 and 5 or more distinct paths
        for (vantage, dst, name), paths in cells:
            distinct = len(set(paths))
            cell_rows.append([f"{vantage}-{dst}", granularity.value, name, distinct])
            histogram[min(distinct, 5) - 1] += 1
        multi = sum(len(paths) >= 2 for _, paths in cells)
        churning = sum(len(set(paths)) >= 2 for _, paths in cells)
        summary_rows.append([granularity.value, len(cells), multi, churning,
                             f"{churning / multi:.6f}" if multi else "n/a", *histogram])
    return {
        "churn.csv": _csv(["pair", "granularity", "window", "distinct_paths"], cell_rows),
        "churn_summary.csv": _csv(
            ["granularity", "cells", "multi_measurement_cells", "churning_cells",
             "fraction_churning", "paths_1", "paths_2", "paths_3", "paths_4", "paths_5_plus"],
            summary_rows),
    }


def leakage(inferred: list, solved: list, countries: dict[int, str], url_split: bool) -> bytes:
    """Edges from uniquely solved buckets: on each detected path, every AS
    forced false that comes before the first occurrence of an AS forced true
    is that censor's victim. An edge is kept once per (censor, victim,
    anomaly), from the first bucket in output order and its first path; a pair
    missing a country is skipped once per record of the path."""
    unique = {key: backbone for key, (status, _, backbone) in solved
              if status is SolutionStatus.UNIQUE}
    # per unique bucket, each detected path in order of first appearance in
    # time order (ties in input order), with its first record and record count
    paths: dict[tuple, dict[tuple, list]] = {}
    for record, path in sorted(inferred, key=lambda pair: pair[0]["instant"]):
        if not record["detected"]:
            continue
        url = record["url"] if url_split else "*"
        for granularity in TimeGranularity:
            key = (AnomalyType(record["anomaly"]), url, granularity,
                   window(record["day"], granularity))
            if key in unique:
                entry = paths.setdefault(key, {}).setdefault(path, [record["record_id"], 0])
                entry[1] += 1
    edges, skipped = {}, 0
    for key, _ in solved:
        backbone = unique.get(key)
        for path, (record_id, count) in paths.get(key, {}).items():
            distinct = list(dict.fromkeys(path))
            for i, censor in enumerate(distinct):
                if backbone[censor] is not BackboneStatus.FORCED_TRUE:
                    continue
                for victim in distinct[:i]:
                    if backbone[victim] is not BackboneStatus.FORCED_FALSE:
                        continue
                    if censor not in countries or victim not in countries:
                        skipped += count
                        continue
                    edges.setdefault((censor, victim, key[0].value), {
                        "censor_asn": censor, "victim_asn": victim,
                        "censor_country": countries[censor],
                        "victim_country": countries[victim],
                        "anomaly": key[0].value,
                        "witness_key": {"anomaly": key[0].value, "url": key[1],
                                        "granularity": key[2].value, "window": key[3]},
                        "witness_record_id": record_id,
                    })
    edge_list = [edges[k] for k in sorted(edges)]
    censors = []
    for censor, run in groupby(edge_list, key=lambda e: e["censor_asn"]):
        mine = list(run)
        censors.append({
            "asn": censor, "country": mine[0]["censor_country"],
            "leaks_as": len({e["victim_asn"] for e in mine}),
            "leaks_country": len({e["victim_country"] for e in mine
                                  if e["victim_country"] != e["censor_country"]}),
        })
    return _json({"edges": edge_list, "censors": censors, "skipped_missing_country": skipped})


def _ingest(measurements: bytes, pfx2as: bytes):
    # the kept records, the sorted skip reasons and the prefix table; None
    # where the run refuses the inputs
    try:
        text = measurements.decode("utf-8")
    except UnicodeDecodeError:
        return None
    table = read_table(pfx2as.decode("utf-8"))
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    outcomes = [record_of(line) for line in lines]
    records = [o for o in outcomes if isinstance(o, dict)]
    if not records:
        return None
    return records, sorted(o for o in outcomes if isinstance(o, str)), table


def _infer_all(records: list, table) -> tuple[list, dict[str, int]]:
    # each record with its inferred path, and the count of each rule that
    # eliminated one
    failures = dict.fromkeys(RULES, 0)
    inferred = []
    for record in records:
        path = infer(record, table)
        if isinstance(path, str):
            failures[path] += 1
        else:
            inferred.append((record, path))
    return inferred, failures


def export_dimacs(measurements: bytes, pfx2as: bytes, url_split: bool = True,
                  granularities=ALL_GRANULARITIES, anomalies=None) -> dict[str, bytes] | None:
    """The files ``export-dimacs --out`` writes, or None where it refuses the
    inputs: one DIMACS CNF per bucket, its variables numbered in ascending
    ASN order, a ``c var`` line each, then the all-positive clauses of its
    detected paths in sorted order and the negative units of its clean
    paths' ASes."""
    ingested = _ingest(measurements, pfx2as)
    if ingested is None:
        return None
    records, _, table = ingested
    if anomalies is not None:
        records = [r for r in records if AnomalyType(r["anomaly"]) in anomalies]
    files = {}
    for (anomaly, url, granularity, name), observations in buckets(
            _infer_all(records, table)[0], url_split, granularities):
        variables = sorted({asn for path, _ in observations for asn in path})
        number = {asn: i for i, asn in enumerate(variables, start=1)}
        positives = sorted({tuple(sorted(set(path))) for path, detected in observations
                            if detected})
        negatives = sorted({asn for path, detected in observations if not detected
                            for asn in path})
        clauses = [[number[asn] for asn in clause] for clause in positives] + \
            [[-number[asn]] for asn in negatives]
        lines = [f"p cnf {len(variables)} {len(clauses)}",
                 *(f"c var {number[asn]} = AS{asn} {anomaly.value}" for asn in variables),
                 *(" ".join(map(str, [*clause, 0])) for clause in clauses)]
        url_hash = hashlib.sha256(url.encode("utf-8")).hexdigest()[:12]
        files[f"{anomaly.value}_{url_hash}_{granularity.value}_{name}.cnf"] = \
            ("\n".join(lines) + "\n").encode()
    return files


def buckets(inferred: list, url_split: bool, granularities) -> list:
    """Every bucket's key and its distinct (path, detected) observations, in
    output order: anomaly, url, granularity (as declared), window."""
    observed = []  # (anomaly, url, granularity, window, path, detected)
    for record, path in inferred:
        url = record["url"] if url_split else "*"
        anomaly = AnomalyType(record["anomaly"])
        for granularity in granularities:
            observed.append((anomaly, url, granularity, window(record["day"], granularity),
                             path, record["detected"]))
    observed.sort(key=lambda o: (o[0].value, o[1], list(TimeGranularity).index(o[2]),
                                 o[3], o[4], o[5]))
    return [(key, {o[4:] for o in group}) for key, group in groupby(observed, key=lambda o: o[:4])]


def solve_buckets(inferred: list, cap: int, url_split: bool, granularities) -> list:
    """Every bucket's key and solution, in output order."""
    return [(key, solve(observations, cap))
            for key, observations in buckets(inferred, url_split, granularities)]


def _localize(measurements: bytes, pfx2as: bytes, cap: int, url_split: bool, granularities,
              anomalies):
    # localize's files, each kept record with its inferred path, and every
    # bucket's key and solution in output order; None where it refuses
    ingested = _ingest(measurements, pfx2as)
    if ingested is None:
        return None
    records, skipped, table = ingested
    n_ok = len(records)
    if anomalies is not None:
        records = [r for r in records if AnomalyType(r["anomaly"]) in anomalies]
    inferred, failures = _infer_all(records, table)
    solved = solve_buckets(inferred, cap, url_split, granularities)

    ambiguous = [(len(backbone), sum(r is BackboneStatus.FORCED_FALSE
                                     for r in backbone.values()))
                 for _, (status, _, backbone) in solved if status is SolutionStatus.MULTIPLE]
    cdf = []  # per percent i, the share of ambiguous buckets with at most i% forced false
    for i in range(101 if ambiguous else 0):
        below = sum(100 * forced_false <= i * n for n, forced_false in ambiguous)
        cdf.append([f"{i / 100:.2f}", f"{below / len(ambiguous):.6f}"])
    mean = sum(forced_false / n for n, forced_false in ambiguous) / len(ambiguous) \
        if ambiguous else "n/a"

    files = {
        "ingest_summary.json": _json({
            "records_ok": n_ok,
            "records_skipped": len(skipped),
            "skip_reasons": {reason: len(list(run)) for reason, run in groupby(skipped)},
        }),
        "elimination_summary.json": _json({
            "records": len(records), "paths_inferred": len(inferred), "failures": failures,
        }),
        "censors.json": _json(verdicts(solved)),
        "reduction_cdf.csv": _csv(["fraction", "cumulative_share"], cdf),
        "reduction_summary.json": _json({
            "multiple_cnfs": len(ambiguous), "mean_fraction_eliminated": mean,
        }),
        "solutions_by_granularity.csv": solution_table(solved, "granularity", cap),
        "solutions_by_anomaly.csv": solution_table(solved, "anomaly", cap),
    }
    return files, inferred, solved
