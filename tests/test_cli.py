"""Command line surface: argument handling, exit codes, end-to-end runs."""
from __future__ import annotations

import ast
import hashlib
import json
import os
import subprocess
import sys
from datetime import date
from pathlib import Path

import pytest

from _helpers import structured_dimacs
from censorloc import __version__, model, pipeline, simulate, solver
from censorloc.cli import build_parser, main
from censorloc.ingest import parse_as_metadata, parse_pfx2as
from censorloc.model import InputError
from censorloc.pipeline import LOCALIZE_FILES, SIMULATION_FILES

SIM_ARGS = [
    "simulate",
    "--seed", "11",
    "--n-ases", "16",
    "--n-vantage", "3",
    "--n-urls", "4",
    "--n-censors", "1",
    "--days", "6",
    "--path-pool-size", "3",
    "--churn-prob", "0.5",
]

REPO_ROOT = Path(__file__).resolve().parent.parent
# Oldest setuptools that builds this project: 61 reads the [project] and
# [tool.setuptools] tables, 64 adds PEP 660 editable installs. pyproject.toml's
# [build-system] requires the same floor.
SETUPTOOLS_FLOOR = "64"
# argv: the directory holding the generated metadata, then the package sources.
_RUN_CONSOLE_SCRIPT = """
import importlib.metadata, os, sys
meta_dir, src_dir = sys.argv[1:3]
sys.path[:0] = [meta_dir, src_dir]
dist = importlib.metadata.distribution("censorloc")
found_in = os.path.realpath(dist.locate_file(""))
if found_in != os.path.realpath(meta_dir):
    sys.exit(f"censorloc metadata came from {found_in}, not {meta_dir}")
(ep,) = dist.entry_points.select(group="console_scripts", name="censorloc")
sys.argv = ["censorloc", "--version"]
sys.exit(ep.load()())
"""


def _simulate(tmp_path, *extra):
    sim_dir = tmp_path / "sim"
    assert main([*SIM_ARGS, "--out", str(sim_dir), *extra]) == 0
    return sim_dir


def _localize_args(sim_dir, out_dir, *extra):
    return [
        "localize",
        "--measurements", str(sim_dir / "measurements.jsonl"),
        "--pfx2as", str(sim_dir / "pfx2as.tsv"),
        "--out", str(out_dir),
        *extra,
    ]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_console_script_is_installed(tmp_path):
    """The checkout's `censorloc` console script runs the way an installed wrapper does.

    setuptools writes the project metadata into `tmp_path`; a fresh interpreter
    finds the `console_scripts` entry point there, ahead of any installed copy,
    and calls it with `--version`. No install and nothing on PATH is needed.
    """
    pytest.importorskip("setuptools", minversion=SETUPTOOLS_FLOOR)
    meta_dir = tmp_path / "meta"
    meta_dir.mkdir()
    egg_info = subprocess.run(
        [sys.executable, "-c", "from setuptools import setup; setup()",
         "egg_info", "--egg-base", str(meta_dir)],
        cwd=REPO_ROOT, capture_output=True, text=True, check=False,
    )
    assert egg_info.returncode == 0, egg_info.stderr
    # the program needs nothing at run time; numpy serves only the test oracle
    requires = (meta_dir / "censorloc.egg-info" / "requires.txt").read_text()
    assert requires.startswith("\n[dev]\n") and "numpy" in requires
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_CONSOLE_SCRIPT, str(meta_dir), str(REPO_ROOT / "src")],
        cwd=tmp_path, capture_output=True, text=True, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert __version__ in proc.stdout


def test_cli_import_leaves_numpy_unloaded():
    """numpy serves only the brute-force oracle, so start-up must not pay for it."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); import censorloc.cli; "
         "print('numpy' in sys.modules)", str(REPO_ROOT / "src")],
        capture_output=True, text=True, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def _fresh_python(*args: str) -> subprocess.CompletedProcess:
    """Run a new interpreter with the package sources first on its path."""
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, check=False, env=env
    )


def test_cli_import_loads_no_dataclasses_hashlib_or_simulator():
    """Every process imports censorloc.cli, so what it loads is paid by every
    command; the simulator, dataclasses and OpenSSL serve only a few, and
    ingest needs only the C module ``_socket``, not ``socket``."""
    unwanted = ("dataclasses", "inspect", "hashlib", "censorloc.simulate", "socket", "selectors")
    proc = _fresh_python(
        "-S", "-c",
        f"import censorloc.cli, sys; print([m for m in {unwanted!r} if m in sys.modules])",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# argv: the CLI arguments
_RUN_MAIN = """
import sys
from censorloc.cli import main
try:
    assert main(sys.argv[1:]) == 0
except SystemExit as exc:  # --version
    assert exc.code == 0
"""


# argv: the exit code that argument handling must end with, then the CLI
# arguments; parse_args exits on each of them, before any command runs
_HANDLE_ARGS = """
import sys
from censorloc.cli import main
code, *argv = sys.argv[1:]
try:
    main(argv)
except SystemExit as exc:
    assert exc.code == int(code), exc.code
else:
    raise AssertionError("argument handling ran a command")
"""


def _modules_loaded(code: str, *args: str) -> set[str]:
    """The censorloc modules that a new interpreter holds after ``code``."""
    proc = _fresh_python("-c", code + "\nimport json, sys\nprint(json.dumps(sorted(m for m in "
                         "sys.modules if m.startswith('censorloc'))), file=sys.stderr)", *args)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stderr.splitlines()[-1]))


def test_each_command_loads_only_the_layers_it_runs(tmp_path):
    """The solver needs only the model, and only the corpus commands load
    the corpus stages: every command pays to compile what it imports."""
    stages = {f"censorloc.{name}" for name in ("ingest", "aspath", "tomography", "analysis")}
    assert _modules_loaded("import censorloc.solver") == {
        "censorloc", "censorloc.model", "censorloc.solver"}
    unwanted = stages | {"censorloc.simulate"}
    assert not unwanted & _modules_loaded("from censorloc import pipeline")
    cnf = tmp_path / "xor.cnf"
    cnf.write_text("p cnf 2 2\n1 2 0\n-1 -2 0\n")
    for args in (["--version"], ["solve-dimacs", str(cnf)]):
        assert not unwanted & _modules_loaded(_RUN_MAIN, *args), args
    sim_dir = _simulate(tmp_path)
    assert stages <= _modules_loaded(_RUN_MAIN, *_localize_args(sim_dir, tmp_path / "loc"))
    # argument handling needs only the model: --version, --help and a usage
    # error compile neither the pipeline nor the solver
    no_pfx2as = ["localize", "--measurements", "m", "--out", "o"]
    for code, args in (("0", ["--version"]), ("0", ["--help"]), ("0", ["localize", "--help"]),
                       ("2", no_pfx2as)):
        assert _modules_loaded(_HANDLE_ARGS, code, *args) == {
            "censorloc", "censorloc.model", "censorloc.cli"}, args
    for args in ([*no_pfx2as, "--pfx2as", "p"], ["solve-dimacs", str(cnf)]):
        proc = _fresh_python("-m", "censorloc.cli", *args, "--model-cap", "1")
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            2, "", "error: --model-cap must be >= 2\n"), args
    # the model is the one home of the defaults that the parser reads
    commands = next(a for a in build_parser()._actions if a.dest == "command")
    for name in ("localize", "leak", "ablate", "export-dimacs", "solve-dimacs"):
        cap = next(a for a in commands.choices[name]._actions if a.dest == "model_cap")
        assert cap.default is model.DEFAULT_MODEL_CAP, name
    cap = next(a for a in commands.choices["localize"]._actions if a.dest == "model_cap")
    assert cap.help % vars(cap) == \
        f"stop counting models at this bound (default {model.DEFAULT_MODEL_CAP})"
    assert solver.DEFAULT_MODEL_CAP is model.DEFAULT_MODEL_CAP
    assert pipeline.ALL_GRANULARITIES is model.ALL_GRANULARITIES


def test_commands_that_load_lazily_run_in_a_fresh_interpreter(tmp_path):
    """simulate, evaluate and export-dimacs import what only they need inside
    the command; in-process tests may already have loaded it, so each runs in
    a new interpreter here."""

    def cli(*args: str) -> subprocess.CompletedProcess:
        proc = _fresh_python("-m", "censorloc.cli", *args)
        assert proc.returncode == 0, (args[0], proc.stderr)
        assert "internal error" not in proc.stderr
        return proc

    sim_dir = tmp_path / "sim"
    cli(*SIM_ARGS, "--out", str(sim_dir))
    assert sorted(p.name for p in sim_dir.iterdir()) == sorted(SIMULATION_FILES)
    cli(*_localize_args(sim_dir, tmp_path / "loc"))
    scorecard = cli("evaluate", "--censors", str(tmp_path / "loc" / "censors.json"),
                    "--truth", str(sim_dir / "ground_truth.json"))
    assert "overall" in json.loads(scorecard.stdout)
    inputs = _localize_args(sim_dir, tmp_path / "cnfs")[1:]
    cli("export-dimacs", *inputs)
    files = sorted((tmp_path / "cnfs").iterdir())
    assert files and all(f.suffix == ".cnf" for f in files)


def test_package_imports_only_the_standard_library():
    """The package declares no dependencies, so it may import only the
    standard library and itself; numpy serves brute_force_models alone."""
    allowed = set(sys.stdlib_module_names) | {"censorloc"}
    for path in sorted((REPO_ROOT / "src" / "censorloc").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        oracle = {
            node
            for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name == "brute_force_models"
            for node in ast.walk(fn)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                # an import by name at run time would slip past this check
                assert not (isinstance(node, ast.Name) and node.id == "__import__"), path
                assert not (isinstance(node, ast.Attribute) and node.attr == "import_module"), path
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in allowed or (top == "numpy" and node in oracle), (path.name, name)


def test_no_command_shows_usage():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_simulate_writes_the_four_inputs(tmp_path):
    sim_dir = _simulate(tmp_path)
    for name in SIMULATION_FILES:
        assert (sim_dir / name).exists(), name
    truth = json.loads((sim_dir / "ground_truth.json").read_text())
    assert truth["censors"], "expected at least one planted censor"


def test_simulate_rejects_impossible_topology(tmp_path, capsys):
    # an impossible world, then parameters SimParams itself rejects
    for bad in (
        ["--n-ases", "5", "--n-vantage", "2", "--n-urls", "2", "--n-censors", "1"],
        ["--days", "0"],
        ["--churn-prob", "2"],
        ["--active-days", "5", "1"],
        ["--start-date", "9999-12-31", "--days", "2"],
    ):
        code = main(["simulate", "--out", str(tmp_path / "s"), *bad])
        assert code == 2, bad
        assert "error:" in capsys.readouterr().err, bad


def test_simulate_honors_force(tmp_path, capsys):
    sim_dir = _simulate(tmp_path)
    assert main([*SIM_ARGS, "--out", str(sim_dir)]) == 2
    assert "pass --force to overwrite" in capsys.readouterr().err
    assert main([*SIM_ARGS, "--out", str(sim_dir), "--force"]) == 0


def test_simulate_out_under_a_file_exits_two(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main([*SIM_ARGS, "--out", str(blocker / "sub")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot create output directory")
    assert "internal error" not in err


def _simulated_files(sim_dir: Path) -> dict[str, bytes]:
    return {name: (sim_dir / name).read_bytes() for name in SIMULATION_FILES}


# sha256 of each file of one small corpus with noise, non-responsive hops,
# churn, a censor window, a year boundary and two anomalies: a reordered RNG
# draw or any other changed byte shows here
PINNED_SIMULATION = {
    "measurements.jsonl": "91810a928d85fd9315741eea2e0e113edc4854ff907b31bcb2e23514866da157",
    "pfx2as.tsv": "774cb1bf7d470c7b1cbb01b3ab6a342544f40516705225ae2d610e46c43c45b1",
    "as_metadata.csv": "d6b9ff5f6c91a658a4c6934d8986753f62695b848c836ce0518ab751221df253",
    "ground_truth.json": "0e7dd6908b7468ee8d213ae2e37c027d8bf7009d583860e4dad20c4aabde7e8f",
}


def test_simulate_bytes_are_pinned(tmp_path):
    argv = ["simulate", "--seed", "5", "--n-ases", "16", "--n-vantage", "3", "--n-urls", "4",
            "--n-censors", "2", "--days", "6", "--churn-prob", "0.5", "--noise-prob", "0.05",
            "--nonresponsive-prob", "0.2", "--active-days", "2", "5",
            "--start-date", "2017-12-29", "--anomaly", "reset", "--anomaly", "dns"]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    digests = {name: hashlib.sha256(data).hexdigest()
               for name, data in _simulated_files(tmp_path).items()}
    assert digests == PINNED_SIMULATION


# sha256 of every output file of each analysis command on the pinned corpus
# above, whose weeks and years cross 2017-W52 / 2018-W01
PINNED_LOCALIZE = {
    "censors.json": "5f9eef61c57e7054bfd46223b079c1fc2b1983aab61185cd3eb0df5b3b49168a",
    "elimination_summary.json": "9683125c3c28d80a08717d4f211edcabf84043a91b78793fbd4f4cef29a3a218",
    "ingest_summary.json": "f43f3d1e01247af41036eabc3d1b950cf05f795af5c117726ac71879946eb005",
    "reduction_cdf.csv": "0d3a003922955caa9b177280eab72e573df310f433a569f15d312f0ccbe4ecc0",
    "reduction_summary.json": "f19b9abc006564c577ff7ffe88512ccea908e1f92c19041d2bbbc95c5eafb10b",
    "solutions_by_anomaly.csv": "a1f7926a208f82d11284f3cb66eb713e242de6a78b70c8ffe5d3597d48a1b02b",
    "solutions_by_granularity.csv":
        "73ded482acde457c99f338330c4f06c6af42a4e134f50cc43c4b074f9aee2bf7",
}
PINNED_ANALYSIS = {
    "localize": PINNED_LOCALIZE,
    "churn": {
        "churn.csv": "dbe699eb296eaf4e9a144eedcb838c007d144219ff4ca3407d19249d381d068e",
        "churn_summary.csv": "66851c7f57bf141ffd633dc3e7e5b6e79a71c22cde763f56305045d7ad34afd4",
    },
    "ablate": {
        **PINNED_LOCALIZE,
        "ablated_solutions_by_granularity.csv":
            "55cd36c33724a2140d63b121792f441795ae500b8af75055935b153d05d028a6",
    },
    "leak": {
        **PINNED_LOCALIZE,
        "leakage.json": "fb8cca5ce2490ce44b5722b915a023a3e76d37120e450e44ddd772ca177740db",
    },
}


def test_analysis_outputs_are_pinned(tmp_path):
    sim_dir = tmp_path / "sim"
    test_simulate_bytes_are_pinned(sim_dir)
    extra = {"ablate": ["--workers", "1"], "leak": ["--as-meta", str(sim_dir / "as_metadata.csv")]}
    for command, pinned in PINNED_ANALYSIS.items():
        out_dir = tmp_path / command
        argv = _localize_args(sim_dir, out_dir, *extra.get(command, ()))
        assert main([command, *argv[1:]]) == 0
        digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in out_dir.iterdir()}
        assert digests == pinned, command


def test_refused_simulate_rerun_draws_no_record(tmp_path, monkeypatch):
    sim_dir = _simulate(tmp_path)

    def draw(*args):
        raise AssertionError("a refused rerun drew records")

    monkeypatch.setattr(simulate, "generate_measurements", draw)
    message = _raised_message(pipeline.cmd_simulate, simulate.SimParams(), sim_dir, False)
    assert message == (f"output file measurements.jsonl already exists in {sim_dir}; "
                       "pass --force to overwrite")


ACCEPTANCE_SHAPE = ["--seed", "0", "--n-ases", "50", "--n-vantage", "10", "--n-urls", "20",
                    "--n-censors", "3", "--path-pool-size", "4", "--churn-prob", "0.3"]
# A child's ru_maxrss starts at the resident size of the process that forked
# it, so simulate is started from a small interpreter, not from this one.
_SIMULATE_PEAK = """
import os, subprocess, sys
proc = subprocess.Popen([sys.executable, "-m", "censorloc.cli", "simulate", *sys.argv[1:]])
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def test_simulate_memory_does_not_grow_with_the_corpus(tmp_path):
    peaks = []
    for days in ("10", "40"):
        proc = _fresh_python("-c", _SIMULATE_PEAK, "--out", str(tmp_path / days),
                             "--days", days, *ACCEPTANCE_SHAPE)
        code, peak_kb = proc.stdout.split()
        assert code == "0", proc.stderr
        peaks.append(int(peak_kb) / 1024)
    assert peaks[1] - peaks[0] < 30, peaks


def test_simulate_seed_help_names_the_sim_params_default():
    commands = next(a for a in build_parser()._actions if a.dest == "command")
    seed = next(a for a in commands.choices["simulate"]._actions if a.dest == "seed")
    assert seed.help == f"RNG seed (default {simulate.SimParams().seed})"


def test_simulate_defaults_are_sim_params_defaults(tmp_path):
    assert main(["simulate", "--out", str(tmp_path / "cli")]) == 0
    pipeline.cmd_simulate(simulate.SimParams(), tmp_path / "direct", False)
    assert _simulated_files(tmp_path / "cli") == _simulated_files(tmp_path / "direct")


def test_simulate_repeated_anomaly_counts_once(tmp_path):
    assert main(["simulate", "--anomaly", "dns", "--out", str(tmp_path / "once")]) == 0
    assert main(["simulate", "--anomaly", "dns", "--anomaly", "dns",
                 "--out", str(tmp_path / "twice")]) == 0
    assert _simulated_files(tmp_path / "twice") == _simulated_files(tmp_path / "once")


def _raised_message(call, *args, **kwargs) -> str:
    with pytest.raises(InputError) as exc:
        call(*args, **kwargs)
    return str(exc.value)


def _empty_prefix_table(tmp_path):
    sim_dir = _simulate(tmp_path)
    (sim_dir / "pfx2as.tsv").write_text("")
    return _localize_args(sim_dir, tmp_path / "out"), _raised_message(parse_pfx2as, "")


def _bad_as_metadata_header(tmp_path):
    sim_dir = _simulate(tmp_path)
    text = f"asn,country,{'x' * 131_073}\n100,US,X\n"
    (sim_dir / "as_metadata.csv").write_text(text)
    argv = ["leak", *_localize_args(sim_dir, tmp_path / "out")[1:],
            "--as-meta", str(sim_dir / "as_metadata.csv")]
    return argv, _raised_message(parse_as_metadata, text)


def _impossible_topology(tmp_path):
    flags = dict(n_ases=5, n_vantage=2, n_urls=2, n_censors=1)
    argv = ["simulate", "--out", str(tmp_path / "s"), "--n-ases", "5", "--n-vantage", "2",
            "--n-urls", "2", "--n-censors", "1"]
    return argv, _raised_message(simulate.generate_world, simulate.SimParams(**flags))


def _start_date_past_year_9999(tmp_path):
    argv = ["simulate", "--out", str(tmp_path / "s"), "--start-date", "9999-12-31",
            "--days", "2"]
    return argv, _raised_message(simulate.SimParams, start_date=date(9999, 12, 31), days=2)


def _start_date_not_a_date(tmp_path):
    argv = ["simulate", "--out", str(tmp_path / "s"), "--start-date", "2016-02-30"]
    return argv, "--start-date must be YYYY-MM-DD, got '2016-02-30'"


@pytest.mark.parametrize("case", [
    _empty_prefix_table,
    _bad_as_metadata_header,
    _impossible_topology,
    _start_date_past_year_9999,
    _start_date_not_a_date,
], ids=lambda case: case.__name__.strip("_"))
def test_bad_input_exits_two_with_its_own_message(tmp_path, capsys, case):
    argv, message = case(tmp_path)
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_localize_end_to_end(tmp_path):
    sim_dir = _simulate(tmp_path)
    # a non-ASCII digit in one table line skips that line, not the run
    with (sim_dir / "pfx2as.tsv").open("a", encoding="utf-8") as fh:
        fh.write("1.0.0.0\t²\t100\n")
    out_dir = tmp_path / "loc"
    assert main(_localize_args(sim_dir, out_dir)) == 0
    for name in LOCALIZE_FILES:
        assert (out_dir / name).exists(), name
    rows = (out_dir / "solutions_by_granularity.csv").read_text().splitlines()
    assert [r.split(",")[0] for r in rows] == ["granularity", "day", "week", "month", "year"]


def test_localize_reads_a_corpus_simulated_before_year_1000(tmp_path, capsys):
    sim_dir = _simulate(tmp_path, "--start-date", "0999-01-01", "--days", "2")
    lines = (sim_dir / "measurements.jsonl").read_text().splitlines()
    assert json.loads(lines[0])["timestamp"].startswith("0999-01-0")
    assert main(_localize_args(sim_dir, tmp_path / "out")) == 0
    assert "no measurement records parsed" not in capsys.readouterr().err
    summary = json.loads((tmp_path / "out" / "elimination_summary.json").read_text())
    assert summary["records"] == len(lines)


def test_localize_granularity_filter_dedups(tmp_path):
    sim_dir = _simulate(tmp_path)
    out_dir = tmp_path / "loc"
    args = _localize_args(sim_dir, out_dir, "--granularity", "day", "--granularity", "day")
    assert main(args) == 0
    rows = (out_dir / "solutions_by_granularity.csv").read_text().splitlines()
    assert [r.split(",")[0] for r in rows] == ["granularity", "day"]


def test_localize_missing_input_exits_two(tmp_path, capsys):
    code = main(
        [
            "localize",
            "--measurements", str(tmp_path / "missing.jsonl"),
            "--pfx2as", str(tmp_path / "missing.tsv"),
            "--out", str(tmp_path / "out"),
        ]
    )
    assert code == 2
    assert "error: cannot read" in capsys.readouterr().err


def test_localize_out_that_is_a_file_exits_two(tmp_path, capsys):
    sim_dir = _simulate(tmp_path)
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(_localize_args(sim_dir, blocker)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot create output directory")
    assert "internal error" not in err


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--model-cap", "1", "--model-cap must be >= 2"),
        ("--workers", "0", "--workers must be >= 1"),
    ],
)
def test_localize_validates_numeric_flags(tmp_path, capsys, flag, value, message):
    sim_dir = _simulate(tmp_path)
    code = main(_localize_args(sim_dir, tmp_path / "out", flag, value))
    assert code == 2
    assert message in capsys.readouterr().err


def test_localize_rejects_unknown_granularity():
    with pytest.raises(SystemExit) as exc:
        main(["localize", "--measurements", "m", "--pfx2as", "p", "--out", "o",
              "--granularity", "fortnight"])
    assert exc.value.code == 2


def test_leak_requires_as_meta(tmp_path):
    sim_dir = _simulate(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(
            [
                "leak",
                "--measurements", str(sim_dir / "measurements.jsonl"),
                "--pfx2as", str(sim_dir / "pfx2as.tsv"),
                "--out", str(tmp_path / "out"),
            ]
        )
    assert exc.value.code == 2


def test_leak_end_to_end(tmp_path):
    sim_dir = _simulate(tmp_path)
    out_dir = tmp_path / "leak"
    code = main(
        [
            "leak",
            "--measurements", str(sim_dir / "measurements.jsonl"),
            "--pfx2as", str(sim_dir / "pfx2as.tsv"),
            "--as-meta", str(sim_dir / "as_metadata.csv"),
            "--out", str(out_dir),
        ]
    )
    assert code == 0
    body = json.loads((out_dir / "leakage.json").read_text())
    assert set(body) == {"edges", "censors", "skipped_missing_country"}


def test_churn_end_to_end(tmp_path):
    sim_dir = _simulate(tmp_path)
    out_dir = tmp_path / "churn"
    code = main(
        [
            "churn",
            "--measurements", str(sim_dir / "measurements.jsonl"),
            "--pfx2as", str(sim_dir / "pfx2as.tsv"),
            "--out", str(out_dir),
            "--granularity", "month",
        ]
    )
    assert code == 0
    summary = (out_dir / "churn_summary.csv").read_text().splitlines()
    assert len(summary) == 2
    assert summary[1].startswith("month,")


def test_ablate_end_to_end(tmp_path):
    sim_dir = _simulate(tmp_path)
    out_dir = tmp_path / "ablate"
    code = main(
        [
            "ablate",
            "--measurements", str(sim_dir / "measurements.jsonl"),
            "--pfx2as", str(sim_dir / "pfx2as.tsv"),
            "--out", str(out_dir),
            "--granularity", "week",
        ]
    )
    assert code == 0
    assert (out_dir / "ablated_solutions_by_granularity.csv").exists()
    assert (out_dir / "solutions_by_granularity.csv").exists()


def test_export_dimacs_then_solve(tmp_path, capsys):
    sim_dir = _simulate(tmp_path)
    cnf_dir = tmp_path / "cnfs"
    code = main(
        [
            "export-dimacs",
            "--measurements", str(sim_dir / "measurements.jsonl"),
            "--pfx2as", str(sim_dir / "pfx2as.tsv"),
            "--out", str(cnf_dir),
            "--granularity", "year",
        ]
    )
    assert code == 0
    files = sorted(cnf_dir.iterdir())
    assert files and all(f.suffix == ".cnf" for f in files)
    capsys.readouterr()
    assert main(["solve-dimacs", str(files[0])]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["status"] in {"unsat", "unique", "multiple"}
    assert "backbone" in out


def test_solve_dimacs_reports_parse_errors(tmp_path, capsys):
    bad = tmp_path / "bad.cnf"
    for text in (
        "clauses without a header\n",
        # more declared variables than a ssize_t holds, then one past the bound
        "p cnf 399999999999999999999 1\n1 0\n",
        f"p cnf {solver.MAX_DIMACS_VARS + 1} 1\n1 0\n",
    ):
        bad.write_text(text)
        assert main(["solve-dimacs", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "internal error" not in err


def test_solve_dimacs_inline_example(tmp_path, capsys):
    cnf = tmp_path / "tiny.cnf"
    cnf.write_text("p cnf 2 2\n1 2 0\n-2 0\n")
    assert main(["solve-dimacs", str(cnf)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {
        "backbone": {"1": "forced_true", "2": "forced_false"},
        "count_capped": 1,
        "status": "unique",
    }


def test_solve_dimacs_large_alternating_cnf(tmp_path, capsys):
    cnf = tmp_path / "alternating.cnf"
    cnf.write_text(structured_dimacs("alternating", 2400))
    assert main(["solve-dimacs", str(cnf)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["status"], out["count_capped"]) == ("multiple", 5)
    assert set(out["backbone"].values()) == {"free"} and len(out["backbone"]) == 2400


def test_solve_dimacs_needs_no_deep_stack(tmp_path):
    """The general solver is iterative: a recursion limit of 200 still solves
    a CNF with 2,400 variables."""
    cnf = tmp_path / "alternating.cnf"
    cnf.write_text(structured_dimacs("alternating", 2400))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); from censorloc.cli import main; "
         "sys.setrecursionlimit(200); sys.exit(main(['solve-dimacs', sys.argv[2]]))",
         str(REPO_ROOT / "src"), str(cnf)],
        capture_output=True, text=True, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["count_capped"] == 5


def test_evaluate_cli_writes_scorecard(tmp_path, capsys):
    sim_dir = _simulate(tmp_path)
    loc_dir = tmp_path / "loc"
    assert main(_localize_args(sim_dir, loc_dir)) == 0
    eval_dir = tmp_path / "eval"
    code = main(
        [
            "evaluate",
            "--censors", str(loc_dir / "censors.json"),
            "--truth", str(sim_dir / "ground_truth.json"),
            "--out", str(eval_dir),
        ]
    )
    assert code == 0
    printed = json.loads(capsys.readouterr().out)
    saved = json.loads((eval_dir / "evaluation.json").read_text())
    assert printed == saved
    assert "overall" in saved and "per_anomaly" in saved


_GOOD_TRUTH = {"censors": [], "countries": {}, "paths": {}}
_DEEP = "[" * 200_000 + "]" * 200_000


def _into_closed_pipe(*args: str) -> subprocess.CompletedProcess:
    """Run the CLI in a new interpreter whose stdout is a pipe with no reader."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run(
            [sys.executable, "-m", "censorloc.cli", *args], stdout=write_end,
            stderr=subprocess.PIPE, text=True, check=False,
            env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
        )
    finally:
        os.close(write_end)


def test_a_closed_stdout_exits_two_without_a_message(tmp_path):
    """A reader that has gone is a bad output destination, not an internal
    error: no traceback, and nothing left to flush at exit. A short answer
    fails when main flushes it, a long one while it is printed."""
    small = tmp_path / "xor.cnf"
    small.write_text("p cnf 2 2\n1 2 0\n-1 -2 0\n")
    large = tmp_path / "alternating.cnf"
    large.write_text(structured_dimacs("alternating", 2400))
    censors, truth = tmp_path / "censors.json", tmp_path / "truth.json"
    censors.write_text("[]")
    truth.write_text(json.dumps(_GOOD_TRUTH))
    for args in (["solve-dimacs", str(small)], ["solve-dimacs", str(large)],
                 ["evaluate", "--censors", str(censors), "--truth", str(truth)]):
        proc = _into_closed_pipe(*args)
        assert (proc.returncode, proc.stderr) == (2, ""), args


def _verdicts(asn) -> str:
    return json.dumps([{"asn": asn, "anomaly": "dns", "class": "censor", "witnesses": []}])


@pytest.mark.parametrize(
    "censors, truth, message",
    [
        ("[]", {**_GOOD_TRUTH, "countries": []}, "malformed input"),
        ("[]", {**_GOOD_TRUTH, "countries": None}, "malformed input"),
        ("[]", {**_GOOD_TRUTH, "paths": []}, "malformed input"),
        ("[]", {**_GOOD_TRUTH, "paths": None}, "malformed input"),
        ("[]", {**_GOOD_TRUTH, "censors": [
            {"asn": [1], "anomaly": "dns", "urls": [], "active_days": [0, 1]}]},
         "malformed input"),
        ("[]", _DEEP, "invalid JSON input"),
        (_DEEP, _GOOD_TRUTH, "invalid JSON input"),
        ("[" + "1" * 5000 + "]", _GOOD_TRUTH, "invalid JSON input"),
        (_verdicts(0), _GOOD_TRUTH, "malformed input"),
        (_verdicts(True), _GOOD_TRUTH, "malformed input"),
        (_verdicts("5"), _GOOD_TRUTH, "malformed input"),
        (_verdicts(2**32), _GOOD_TRUTH, "malformed input"),
    ],
    ids=["countries-list", "countries-null", "paths-list", "paths-null",
         "censor-asn-list", "truth-too-deep", "censors-too-deep", "censors-huge-int",
         "verdict-asn-zero", "verdict-asn-bool", "verdict-asn-string", "verdict-asn-2^32"],
)
def test_evaluate_rejects_malformed_files(tmp_path, capsys, censors, truth, message):
    censors_file = tmp_path / "censors.json"
    truth_file = tmp_path / "truth.json"
    censors_file.write_text(censors)
    truth_file.write_text(truth if isinstance(truth, str) else json.dumps(truth))
    code = main(["evaluate", "--censors", str(censors_file), "--truth", str(truth_file)])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {message}: ")


def test_warnings_go_to_stderr(tmp_path, capsys):
    sim_dir = _simulate(tmp_path)
    out_dir = tmp_path / "loc"
    # filter to an anomaly the simulation never flags as censored
    args = _localize_args(sim_dir, out_dir)
    truth = json.loads((sim_dir / "ground_truth.json").read_text())
    used = {c["anomaly"] for c in truth["censors"]}
    spare = next(a for a in ("dns", "reset", "ttl", "seqno", "blockpage") if a not in used)
    assert main([*args, "--anomaly", spare]) == 0
    # no warning for a normal filtered run; now break every record instead
    capsys.readouterr()
    (sim_dir / "pfx2as.tsv").write_text("200.200.0.0\t16\t64000\n")
    assert main(_localize_args(sim_dir, tmp_path / "loc2")) == 0
    err = capsys.readouterr().err
    assert "warning: zero records survived path inference" in err
