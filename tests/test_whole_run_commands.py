"""Whole ``localize``, ``ablate``, ``churn`` and ``export-dimacs`` runs with
drawn granularity subsets, anomaly filters and worker counts, against the
plain reference in _reference.py.

The corpora are those of ``test_localize_matches_the_reference``. Every file
under ``--out`` must equal the reference's byte for byte, or both must refuse
the inputs. Three fixed cases pin what a drawn corpus rarely shows on its
own: two paths tied at a pair's first record, an anomaly filter that leaves
nothing, and days on both sides of an ISO-week year boundary.
"""
from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import _reference
from censorloc.cli import main
from censorloc.model import AnomalyType, TimeGranularity
from test_whole_run import _jsonl, _simulated, corpora

G = TimeGranularity
ABLATED = "ablated_solutions_by_granularity.csv"


def _run(command: str, measurements: bytes, pfx2as: bytes,
         flags: list[str]) -> tuple[int, dict[str, bytes], str]:
    """Exit code, the files under ``--out`` and stderr of one command."""
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "measurements.jsonl").write_bytes(measurements)
        Path(tmp, "pfx2as.tsv").write_bytes(pfx2as)
        out = Path(tmp, "out")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, "--measurements", f"{tmp}/measurements.jsonl",
                         "--pfx2as", f"{tmp}/pfx2as.tsv", "--out", str(out), *flags])
        files = {p.name: p.read_bytes() for p in out.iterdir()} if out.is_dir() else {}
    return code, files, err.getvalue()


def _check(command: str, expected: dict[str, bytes] | None, measurements: bytes,
           pfx2as: bytes, flags: list[str]) -> str:
    code, files, err = _run(command, measurements, pfx2as, flags)
    assert code == (2 if expected is None else 0), err
    if expected is not None:
        assert files == expected, command
    return err


def _check_commands(measurements: bytes, pfx2as: bytes, cap: int = 5, url_split: bool = True,
                    granularities: list[G] = (), anomalies: list[AnomalyType] = (),
                    workers: int = 1) -> list[str]:
    """Run localize, ablate, churn and export-dimacs on one corpus and
    compare each with the reference; an empty granularity or anomaly list
    gives no flag. Returns the stderr of localize, ablate and churn."""
    chosen = tuple(granularities) or _reference.ALL_GRANULARITIES
    by_granularity = [flag for g in granularities for flag in ("--granularity", g.value)]
    flags = [*by_granularity, *(flag for a in anomalies for flag in ("--anomaly", a.value)),
             "--model-cap", str(cap), *([] if url_split else ["--no-url-split"])]
    ablated = _reference.ablate(measurements, pfx2as, cap, url_split, chosen,
                                tuple(anomalies) or None)
    localized = None if ablated is None else {
        name: data for name, data in ablated.items() if name != ABLATED}
    exported = _reference.export_dimacs(measurements, pfx2as, url_split, chosen,
                                        tuple(anomalies) or None)
    _check("export-dimacs", exported, measurements, pfx2as, flags)
    return [
        _check("localize", localized, measurements, pfx2as, flags),
        _check("ablate", ablated, measurements, pfx2as, [*flags, "--workers", str(workers)]),
        _check("churn", _reference.churn(measurements, pfx2as, chosen), measurements, pfx2as,
               by_granularity),
    ]


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(corpus=corpora(), cap=st.integers(2, 6), url_split=st.booleans(),
       granularities=st.lists(st.sampled_from(list(G)), unique=True),
       anomalies=st.lists(st.sampled_from(list(AnomalyType)), unique=True, max_size=2),
       workers=st.sampled_from([1, 2]))
def test_commands_match_the_reference(corpus, cap, url_split, granularities, anomalies,
                                      workers):
    _check_commands(*corpus, cap, url_split, granularities, anomalies, workers)


_CHURNING = ["simulate", "--seed", "1", "--days", "2", "--n-ases", "10", "--n-vantage", "2",
             "--n-urls", "1", "--path-pool-size", "3", "--churn-prob", "0.5"]


def _tied_first_records(objs: list[dict], pfx2as: bytes) -> tuple[int, int]:
    """Two records of one (vantage, destination) whose inferred paths
    differ; both are moved to one timestamp before every other record."""
    table = _reference.read_table(pfx2as.decode())
    by_pair: dict[tuple, dict[tuple, int]] = {}
    for i, obj in enumerate(objs):
        path = _reference.infer(_reference.record_of(json.dumps(obj)), table)
        by_pair.setdefault((obj["vantage_asn"], obj["dst_ip"]), {}).setdefault(path, i)
    i, j = next(list(paths.values())[:2] for paths in by_pair.values() if len(paths) > 1)
    earliest = min(obj["timestamp"] for obj in objs)
    objs[i]["timestamp"] = objs[j]["timestamp"] = earliest.replace("T12:", "T11:")
    return i, j


def test_a_time_tie_at_a_pairs_first_record_keeps_input_order():
    objs, pfx2as, _ = _simulated(_CHURNING)
    i, j = _tied_first_records(objs, pfx2as)
    tables = []
    for first, second in ((i, j), (j, i)):
        # the tied records lead the file in this order
        rest = [obj for k, obj in enumerate(objs) if k not in (i, j)]
        data = _jsonl([objs[first], objs[second], *rest])
        _check_commands(data, pfx2as)
        tables.append(_reference.ablate(data, pfx2as, 5)[ABLATED])
    # which of the tied paths anchors the pair changes what ablate keeps
    assert tables[0] != tables[1]


def test_an_anomaly_filter_that_leaves_nothing_gives_empty_outputs():
    objs, pfx2as, _ = _simulated(["simulate", "--seed", "2", "--days", "2", "--n-ases", "8",
                                  "--n-vantage", "2", "--n-urls", "1", "--anomaly", "dns"])
    errs = _check_commands(_jsonl(objs), pfx2as, anomalies=[AnomalyType.RESET])
    for err in errs[:2]:
        assert "warning: no records left after the anomaly filter" in err
    expected = _reference.ablate(_jsonl(objs), pfx2as, 5, anomalies=(AnomalyType.RESET,))
    assert expected["censors.json"] == b"[]\n"
    assert expected[ABLATED] == _reference.solution_table([], "granularity", 5)


@pytest.mark.parametrize("granularities", [[], [G.WEEK], [G.DAY, G.YEAR]])
def test_days_across_an_iso_week_year_boundary(granularities):
    # 2015-12-30 to 2016-01-04: 2016-01-01 falls in 2015-W53, 2016-01-04 in 2016-W01
    objs, pfx2as, _ = _simulated(["simulate", "--seed", "4", "--days", "6", "--n-ases", "8",
                                  "--n-vantage", "2", "--n-urls", "1", "--churn-prob", "0.3",
                                  "--start-date", "2015-12-30"])
    data = _jsonl(objs)
    _check_commands(data, pfx2as, granularities=granularities)
    churn = _reference.churn(data, pfx2as, granularities or _reference.ALL_GRANULARITIES)
    if not granularities or G.WEEK in granularities:
        assert b",week,2015-W53," in churn["churn.csv"]
        assert b",week,2016-W01," in churn["churn.csv"]
