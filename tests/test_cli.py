import csv
import hashlib
import itertools
import json
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import cherednik
from cherednik import cli, kernel
from cherednik.cache import RunCache, RunRecord
from cherednik.cli import _run_cell
from cherednik.dunkl import DunklContext
from cherednik.kernel import compute_graded_kernel
from cherednik.poly import ReducedPoly, format_poly, monomials_of_degree

PKG = [sys.executable, "-m", "cherednik"]
# the directory holding the package this test process imported, so the CLI
# subprocess runs the same code whether it comes from PYTHONPATH or an install
PKG_ROOT = str(Path(cherednik.__file__).resolve().parents[1])


def run_cli(args, tmp_path, **kw):
    env = {
        "CHEREDNIK_CACHE_DIR": str(tmp_path / "cache"),
        "PATH": "/usr/bin:/bin",
        "PYTHONPATH": PKG_ROOT,
    }
    return subprocess.run(
        PKG + args, capture_output=True, text=True, env=env, **kw
    )


def record_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def strip_timing(d):
    d = dict(d)
    d.pop("timing", None)
    return d


def test_hilbert_t0_match(tmp_path):
    proc = run_cli(["hilbert", "--p", "2", "--n", "5", "--t", "0"], tmp_path)
    assert proc.returncode == 0
    rec = record_of(proc)
    assert rec["series"]["coeffs"] == [1, 4, 4, 1]
    assert rec["conjecture"]["remark_consistent"]["match"] is True
    assert rec["conjecture"]["as_printed"]["match"] is True


def test_hilbert_t0_p3_n7(tmp_path):
    proc = run_cli(["hilbert", "--p", "3", "--n", "7", "--t", "0"], tmp_path)
    assert proc.returncode == 0
    rec = record_of(proc)
    # (1+z+z^2)(1+5z+z^2)
    assert rec["series"]["coeffs"] == [1, 6, 7, 6, 1]


def test_hilbert_degenerate_small_case(tmp_path):
    proc = run_cli(["hilbert", "--p", "2", "--n", "2", "--t", "0"], tmp_path)
    # r = 0 regime: must not crash; mismatch against the product form is a
    # finding (exit 3), not an error
    assert proc.returncode in (0, 3)
    rec = record_of(proc)
    assert rec["status"] == "ok"


def test_hilbert_p2_c0_is_trivial(tmp_path):
    # c = 0 at t = 0: every positive-degree polynomial lies in the kernel
    proc = run_cli(
        ["hilbert", "--p", "2", "--n", "3", "--t", "0", "--c", "0", "--no-cache"],
        tmp_path,
    )
    assert proc.returncode in (0, 3)
    assert record_of(proc)["series"]["coeffs"] == [1]


def test_hilbert_c0_conjecture_not_applicable(tmp_path):
    # the conjectures are for c != 0; at c = 0, t = 0 the series is [1]
    proc = run_cli(
        ["hilbert", "--p", "3", "--n", "4", "--t", "0", "--c", "0", "--no-cache"],
        tmp_path,
    )
    assert proc.returncode == 0
    rec = record_of(proc)
    assert rec["series"]["coeffs"] == [1]
    assert rec["conjecture"] == {}
    assert any("not applicable" in note for note in rec["notes"])
    assert "MISMATCH" not in proc.stderr


def test_t1_record_reports_per_degree_timing():
    rec = _run_cell(2, 5, 1, "generic", None)[0].to_json()
    per_degree = rec["timing"]["per_degree"]
    # the run ends at the first zero of L, degree 11
    assert [row["degree"] for row in per_degree] == list(range(1, 12))
    for row in per_degree:
        assert set(row) == {"degree", "M", "live", "L", "points", "seconds"}
        assert [row["M"], row["L"]] == [rec["dims"][str(row["degree"])][i] for i in (0, 2)]
        assert row["L"] <= row["live"] <= row["M"]
    # every degree before the first zero of L is eliminated at one point or
    # more; at the first zero no column is live, so no point is tried
    assert all(row["points"] >= 1 for row in per_degree[:-1])
    assert per_degree[-1]["live"] == per_degree[-1]["points"] == 0
    # everything outside timing is pinned under the cache epoch: an answer
    # change fails here until FORMAT_VERSION moves.  The (2,5) record is the
    # one the fraction-free elimination wrote (sha256 11b5b994...), less its
    # dims 12 and 13; (2,9,t=0) sends eight slots through the stacked rows of
    # each degree, and (3,4) is an odd-p generic cell.
    pins = {
        (2, 5, 1, "generic"): "ddde738b0570fdfb6e4a2d9ec1798505575961b3d8438c5ac5bf9ef2c70362b9",
        (2, 9, 0, "1"): "2584b64e66f8772daee56910eadec1c21a2c93229fa71d3e10415bf110838306",
        (3, 4, 1, "generic"): "b6023c2d67680f96cdfe2dadff53905ecf60ee0d70cdb06fadee4d67023cce43",
    }
    assert cherednik.FORMAT_VERSION == 2  # the cache epoch the pins were taken at
    for cell, digest in pins.items():
        cell_rec = rec if cell == (2, 5, 1, "generic") else _run_cell(*cell, None)[0].to_json()
        assert cell_rec["key"]["format_version"] == cherednik.FORMAT_VERSION
        text = json.dumps(strip_timing(cell_rec), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, cell


def test_hilbert_exit_code_on_mismatch(tmp_path):
    # p=2, n=4, t=1 (p | n): computed (1+z)^3 disagrees with the conjecture
    proc = run_cli(["hilbert", "--p", "2", "--n", "4", "--t", "1"], tmp_path)
    assert proc.returncode == 3
    rec = record_of(proc)
    assert rec["series"]["coeffs"] == [1, 3, 3, 1]
    assert rec["conjecture"]["remark_consistent"]["match"] is False


def test_hilbert_determinism_and_cache(tmp_path):
    args = ["hilbert", "--p", "2", "--n", "3", "--t", "1"]
    first = run_cli(args, tmp_path)
    second = run_cli(args, tmp_path)
    a, b = record_of(first), record_of(second)
    assert b["notes"][-1] == "cache hit"
    a.pop("notes"), b.pop("notes")
    assert strip_timing(a) == strip_timing(b)
    # byte-identical series on the cache hit
    assert json.dumps(a["series"]) == json.dumps(b["series"])
    fresh_rec = record_of(run_cli(args + ["--no-cache"], tmp_path))
    fresh_rec.pop("notes")
    assert strip_timing(fresh_rec) == strip_timing(b)


def test_cache_version_poisoning_ignored(tmp_path):
    cache_file = tmp_path / "cache" / "runs.jsonl"
    cache_file.parent.mkdir(parents=True)
    poisoned = {
        "key": {"p": 2, "n": 3, "t": 1, "c_mode": "generic", "format_version": 0},
        "status": "ok",
        "series": {"coeffs": [9, 9, 9], "provenance": "computed", "factored": None},
        "conjecture": {
            "remark_consistent": {"match": True, "series": [9]},
            "as_printed": {"match": True, "series": [9]},
        },
    }
    cache_file.write_text(json.dumps(poisoned) + "\n")
    proc = run_cli(["hilbert", "--p", "2", "--n", "3", "--t", "1"], tmp_path)
    rec = record_of(proc)
    assert rec["series"]["coeffs"] == [1, 2, 3, 4, 4, 4, 3, 2, 1]


def test_store_after_a_torn_line_is_found(tmp_path):
    # an interrupted write left a partial record with no final newline
    cache = RunCache(tmp_path)
    cache.path.write_text('{"key": {"p": 2, "n": 3')
    key = RunRecord.make_key(2, 5, 1, "generic")
    cache.store(RunRecord(key=key, series={"coeffs": [1, 4, 4, 1]}))
    assert cache.lookup(key).series == {"coeffs": [1, 4, 4, 1]}
    assert cache.path.read_text().startswith('{"key": {"p": 2, "n": 3\n{')


def test_budget_stop_records_the_finished_degrees(monkeypatch):
    # a kernel clock that moves one second per reading: a 2.5 s budget runs
    # out at the check before degree 3, once degrees 1 and 2 are finished
    ticks = itertools.count()
    monkeypatch.setattr(
        kernel, "time", SimpleNamespace(monotonic=lambda: next(ticks), perf_counter=time.perf_counter)
    )
    rec = _run_cell(2, 5, 1, "generic", None, budget_seconds=2.5)[0]
    assert rec.status == "exceeded_cap"
    assert "at degree 3" in rec.notes[-1]
    gk = kernel.GradedKernel(DunklContext.make(n=5, p=2, t=1))
    gk.compute_degree(2)
    assert rec.dims == {str(d): list(v) for d, v in gk.dims().items()}
    assert sorted(rec.dims) == ["0", "1", "2"]
    # the finished degrees keep their timing rows
    per_degree = rec.timing["per_degree"]
    assert [row["degree"] for row in per_degree] == [1, 2]
    assert [[row["M"], row["L"]] for row in per_degree] == [rec.dims[str(d)][::2] for d in (1, 2)]


def test_max_degree_below_the_first_zero_records_the_finished_degrees(tmp_path):
    # p=2, n=3, t=1 reaches dim L = 0 at degree 9; a cap of 3 stops short
    capped = run_cli(["hilbert", "--p", "2", "--n", "3", "--t", "1", "--max-degree", "3"], tmp_path)
    assert capped.returncode == 0, capped.stderr
    rec = record_of(capped)
    assert rec["status"] == "exceeded_cap"
    assert rec["series"] is None
    gk = kernel.compute_graded_kernel(DunklContext.make(n=3, p=2, t=1), max_degree=3)
    assert rec["dims"] == {str(d): list(v) for d, v in gk.dims().items()}
    assert "--max-degree 3" in rec["notes"][-1]
    assert [row["degree"] for row in rec["timing"]["per_degree"]] == [1, 2, 3]
    # the capped record is not cached: a later uncapped run computes the series
    assert not (tmp_path / "cache" / "runs.jsonl").exists()
    full = record_of(run_cli(["hilbert", "--p", "2", "--n", "3", "--t", "1"], tmp_path))
    assert full["status"] == "ok" and "cache hit" not in full["notes"]
    assert full["series"]["coeffs"] == [1, 2, 3, 4, 4, 4, 3, 2, 1]


@pytest.mark.parametrize("command", ["hilbert", "sweep"])
def test_negative_max_degree_is_a_usage_error(tmp_path, command):
    # a cap of -1 used to run no degree and record the cell as exceeded_cap
    cell = ["--p", "2", "--n", "3"] if command == "hilbert" else ["--p-list", "2", "--n-list", "3", "--out", str(tmp_path / "grid")]
    proc = run_cli([command, *cell, "--t", "0", "--max-degree", "-1"], tmp_path)
    assert proc.returncode == 2
    assert "argument --max-degree: must be at least 0: '-1'" in proc.stderr
    assert "Traceback" not in proc.stderr and proc.stdout == ""
    assert not (tmp_path / "grid").exists() and not (tmp_path / "cache").exists()


@pytest.mark.parametrize("budget", ["-1", "nan"])
def test_negative_or_nan_budget_is_a_usage_error(tmp_path, budget):
    # -1 used to run no degree and write an exceeded_cap row; NaN never stopped a run
    args = ["sweep", "--p-list", "2", "--n-list", "3", "--t", "0", "--out", str(tmp_path / "grid")]
    proc = run_cli(args + ["--budget-seconds", budget], tmp_path)
    assert proc.returncode == 2
    assert f"argument --budget-seconds: must be at least 0: '{budget}'" in proc.stderr
    assert "Traceback" not in proc.stderr and proc.stdout == ""
    assert not (tmp_path / "grid").exists() and not (tmp_path / "cache").exists()


def test_max_degree_zero_computes_no_degree(tmp_path):
    proc = run_cli(["hilbert", "--p", "2", "--n", "3", "--t", "0", "--max-degree", "0"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    rec = record_of(proc)
    assert rec["status"] == "exceeded_cap"
    assert rec["dims"] == {"0": [1, 0, 1]}


@pytest.mark.parametrize("stop", [["--max-degree", "3"], ["--budget-seconds", "0"]])
def test_sweep_caches_only_complete_cells(tmp_path, stop):
    # a cell cut short by a cap or a budget is written out but not cached,
    # so a later sweep without the limit computes the full series
    args = ["sweep", "--p-list", "2", "--n-list", "3", "--t", "1", "--out", str(tmp_path / "grid")]
    cell = tmp_path / "grid" / "run_p2_n3_t1.json"
    assert run_cli(args + stop, tmp_path).returncode == 0
    assert json.loads(cell.read_text())["status"] == "exceeded_cap"
    assert not (tmp_path / "cache" / "runs.jsonl").exists()
    assert run_cli(args, tmp_path).returncode == 0
    assert json.loads(cell.read_text())["status"] == "ok"


def test_check_singular(tmp_path):
    proc = run_cli(
        [
            "check",
            "singular",
            "--poly",
            "x1^2+x1*x2+x2^2",
            "--p",
            "2",
            "--n",
            "5",
            "--t",
            "0",
        ],
        tmp_path,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"] is True
    assert "singular" in proc.stderr


def test_check_kernel_with_witness(tmp_path):
    proc = run_cli(
        [
            "check",
            "kernel",
            "--poly",
            "x1^5*x2",
            "--p",
            "2",
            "--n",
            "5",
            "--t",
            "1",
            "--c",
            "generic",
        ],
        tmp_path,
    )
    out = json.loads(proc.stdout)
    assert proc.returncode == 0
    assert out["result"] is False
    assert sum(out["witness"]) == 6
    assert out["witness_value"] != "0"


def test_check_stable(tmp_path):
    proc = run_cli(
        ["check", "stable", "--poly", "x1^4*x2^4", "--p", "2"], tmp_path
    )
    out = json.loads(proc.stdout)
    assert proc.returncode == 0
    assert out["stable"] is True
    assert out["bound"] == 12


def test_negative_extra_above_bound_is_a_usage_error(tmp_path):
    # -3 used to exit 0 with the sweep of --extra-above-bound 0
    proc = run_cli(["check", "stable", "--poly", "x1^6", "--p", "2", "--extra-above-bound", "-3"], tmp_path)
    assert proc.returncode == 2
    assert "argument --extra-above-bound: must be at least 0: '-3'" in proc.stderr
    assert "Traceback" not in proc.stderr and proc.stdout == ""


@pytest.mark.parametrize(
    "extra",
    [["--c", "1"], ["--c", "0"], ["--n", "5"], ["--n", "5", "--c", "generic"]],
    ids=["c1", "c0", "n5", "n5-generic"],
)
def test_check_stable_rejects_a_fixed_n_or_c(tmp_path, extra):
    # the sweep runs every odd n at generic c; these used to exit 0 with that
    # verdict, "certifying": true, as if it held for the c or n given
    proc = run_cli(["check", "stable", "--poly", "x1^6", "--p", "2"] + extra, tmp_path)
    assert proc.returncode == 2
    assert "check stable sweeps n itself at generic c" in proc.stderr
    assert "Traceback" not in proc.stderr and proc.stdout == ""


@pytest.mark.parametrize("what,poly", [("kernel", "x1^2"), ("singular", "x1^2+x1*x2+x2^2")])
@pytest.mark.parametrize(
    "extra",
    [["--experimental"], ["--extra-above-bound", "3"], ["--extra-above-bound", "3", "--experimental"]],
    ids=["experimental", "extra3", "both"],
)
def test_check_singular_and_kernel_reject_the_stable_flags(tmp_path, what, poly, extra):
    # both flags steer only the stable sweep; these used to exit 0 with the plain verdict
    proc = run_cli(["check", what, "--poly", poly, "--p", "2", "--n", "3", "--t", "0"] + extra, tmp_path)
    assert proc.returncode == 2
    assert "--experimental and --extra-above-bound apply only to check stable" in proc.stderr
    assert "Traceback" not in proc.stderr and proc.stdout == ""


def test_check_stable_takes_c_generic(tmp_path):
    proc = run_cli(["check", "stable", "--poly", "x1^6", "--p", "2", "--c", "generic"], tmp_path)
    assert proc.returncode == 0 and json.loads(proc.stdout)["stable"] is True


def run_script(name, args):
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": PKG_ROOT}
    script = Path(__file__).resolve().parents[1] / "scripts" / name
    return subprocess.run([sys.executable, str(script)] + args, capture_output=True, text=True, env=env)


@pytest.mark.parametrize(
    "name, option, value",
    [
        # -1 used to end in the ValueError traceback of is_stably_in_kernel
        ("stability_report.py", "--extra-above-bound", "-1"),
        # -1 used to record every cell as exceeded_cap; NaN never stopped a cell
        ("reproduce_tables.py", "--budget-seconds", "-1"),
        ("reproduce_tables.py", "--budget-seconds", "nan"),
    ],
)
def test_script_option_below_zero_is_a_usage_error(tmp_path, name, option, value):
    proc = run_script(name, ["--out", str(tmp_path / "out"), option, value])
    assert proc.returncode == 2
    assert f"argument {option}: must be at least 0: '{value}'" in proc.stderr
    assert "Traceback" not in proc.stderr and proc.stdout == ""
    assert not (tmp_path / "out").exists()


def test_check_parse_failure_exit_2(tmp_path):
    proc = run_cli(
        ["check", "singular", "--poly", "x9", "--p", "2", "--n", "5", "--t", "0"],
        tmp_path,
    )
    assert proc.returncode == 2


def test_check_division_by_zero_exit_2(tmp_path):
    proc = run_cli(
        ["check", "kernel", "--poly", "(1/0)*x1", "--p", "2", "--n", "3", "--t", "0"],
        tmp_path,
    )
    assert proc.returncode == 2
    assert "division by zero" in proc.stderr


def test_no_cache_neither_reads_nor_writes(tmp_path):
    args = ["hilbert", "--p", "2", "--n", "3", "--t", "0", "--cache-dir", str(tmp_path / "d")]
    assert run_cli(args, tmp_path).returncode == 0
    runs = tmp_path / "d" / "runs.jsonl"
    stored = runs.read_text()
    for _ in range(2):
        proc = run_cli(args + ["--no-cache"], tmp_path)
        assert proc.returncode == 0
        assert "cache hit" not in record_of(proc)["notes"]
    assert runs.read_text() == stored


def test_usage_error_exit_2(tmp_path):
    proc = run_cli(["hilbert", "--p", "2"], tmp_path)
    assert proc.returncode == 2


@pytest.mark.parametrize(
    "p, n, message, t",
    [
        pytest.param("4", "3", "4 is not prime", "0", id="4-3-4 is not prime"),
        pytest.param("2", "1", "need n >= 2", "0", id="2-1-need n >= 2"),
        # generic c (the t=1 default) needs table fields of p^k <= 2^16
        pytest.param("65537", "3", "generic c needs p < 2^16", "1", id="65537-3-generic c needs p < 2^16"),
    ],
)
def test_hilbert_bad_cell_exit_2(tmp_path, p, n, message, t):
    proc = run_cli(["hilbert", "--p", p, "--n", n, "--t", t], tmp_path)
    assert proc.returncode == 2
    assert f"error: {message}" in proc.stderr
    assert "internal error" not in proc.stderr


def test_sweep_records_a_bad_cell_as_an_error_row(tmp_path):
    # p = 65537 parses (it is prime) but fails in its cell: generic c needs p < 2^16
    argv = ["sweep", "--p-list", "65537", "--n-list", "3", "--t", "1", "--out", str(tmp_path / "grid")]
    assert cli.main(argv + ["--cache-dir", str(tmp_path / "cache")]) == 0
    with open(tmp_path / "grid" / "summary.csv") as fh:
        assert [r["status"] for r in csv.DictReader(fh)] == ["error"]


def test_check_stable_outside_the_certified_regime_names_the_flag(tmp_path):
    proc = run_cli(["check", "stable", "--poly", "x1^2", "--p", "3"], tmp_path)
    assert proc.returncode == 2
    assert "--experimental" in proc.stderr


def test_sweep_and_resume(tmp_path):
    out_dir = tmp_path / "grid"
    args = [
        "sweep",
        "--p-list",
        "2,3",
        "--n-list",
        "3,4",
        "--t",
        "0",
        "--out",
        str(out_dir),
    ]
    proc = run_cli(args, tmp_path)
    assert proc.returncode == 0
    with open(out_dir / "summary.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    by_cell = {(r["p"], r["n"]): r for r in rows}
    assert by_cell[("2", "3")]["variant_B_match"] == "True"
    assert by_cell[("2", "3")]["series"] == "1 2 2 1"
    runs = tmp_path / "cache" / "runs.jsonl"
    assert len(runs.read_text().splitlines()) == 4
    # resumable: a second run hits the cache for every cell and stores nothing
    proc2 = run_cli(args, tmp_path)
    assert proc2.returncode == 0
    assert len(runs.read_text().splitlines()) == 4


def test_interrupted_sweep_keeps_the_finished_rows(tmp_path, monkeypatch):
    # the second cell is interrupted: the summary holds the header and the first cell's row
    cells = itertools.count()
    run = cli._cached_cell

    def interrupt_second(*args, **kw):
        if next(cells) == 1:
            raise KeyboardInterrupt
        return run(*args, **kw)

    monkeypatch.setattr(cli, "_cached_cell", interrupt_second)
    argv = ["sweep", "--p-list", "2", "--n-list", "3,5", "--t", "0", "--out", str(tmp_path / "grid")]
    with pytest.raises(KeyboardInterrupt):
        cli.main(argv + ["--cache-dir", str(tmp_path / "cache")])
    with open(tmp_path / "grid" / "summary.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["p"], r["n"], r["status"]) for r in rows] == [("2", "3", "ok")]


def test_sweep_empty_grid(tmp_path):
    out_dir = tmp_path / "empty"
    proc = run_cli(
        ["sweep", "--p-list", "", "--n-list", "", "--t", "0", "--out", str(out_dir)],
        tmp_path,
    )
    assert proc.returncode == 0
    content = (out_dir / "summary.csv").read_text().strip().splitlines()
    assert len(content) == 1 and content[0].startswith("p,")


@pytest.mark.parametrize("p_list, n_list, bad", [("0,2", "3", "--p-list"), ("2", "1,3", "--n-list")])
def test_sweep_entry_below_2_is_a_usage_error(tmp_path, p_list, n_list, bad):
    # p = 0 used to raise ZeroDivisionError outside the per-cell guard and end the sweep
    argv = ["sweep", "--p-list", p_list, "--n-list", n_list, "--t", "0", "--out", str(tmp_path / "grid")]
    proc = run_cli(argv, tmp_path)
    assert proc.returncode == 2
    assert f"argument {bad}: every entry must be at least 2" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "grid").exists()


@pytest.mark.parametrize(
    "p_list, n_list, bad", [("2,x", "3", "--p-list"), ("2", "3,4.5", "--n-list"), ("4,2", "3", "--p-list")]
)
def test_sweep_malformed_list_is_a_usage_error(tmp_path, p_list, n_list, bad):
    # a non-prime p used to run, and leave an error row and a run_p4 record
    argv = ["sweep", "--p-list", p_list, "--n-list", n_list, "--t", "0", "--out", str(tmp_path / "grid")]
    proc = run_cli(argv, tmp_path)
    assert proc.returncode == 2
    entries = "primes" if p_list == "4,2" else "integers"
    assert f"argument {bad}: not a comma-separated list of {entries}" in proc.stderr
    assert "internal error" not in proc.stderr
    assert not (tmp_path / "grid").exists()


def test_dump_kernel_export(tmp_path):
    target = tmp_path / "kernel.json"
    proc = run_cli(
        [
            "hilbert",
            "--p",
            "2",
            "--n",
            "3",
            "--t",
            "0",
            "--dump-kernel",
            str(target),
        ],
        tmp_path,
    )
    assert proc.returncode == 0
    data = json.loads(target.read_text())
    assert data["format_version"] == 1
    assert data["p"] == 2 and data["n"] == 3
    d2 = data["degrees"]["2"]
    assert d2["dim_l"] == 2
    assert all(isinstance(s, str) for s in d2["basis"])


# sha256 of the whole --dump-kernel file, taken while the export still went
# through a ReducedPoly per row; the t=1 cells write F_2(c) and F_3(c) fractions
DUMP_PINS = {
    (2, 9, 0): "f62311d78f9de0c6462928f20a24c68d84c6562799f867d783b20870bd8c24c3",
    (5, 6, 0): "ff22719d7de15d0788c0c7b58a2124348aaf33fa81093100c68b72ba93c37e6c",
    (2, 5, 1): "31530b82e519a793f2f7f8971d2a3202c5e31bef6c62ad2637f4932d277557cb",
    (3, 4, 1): "34b0fc07c75ab3247061a4e90c57260cfd64aee6bf5913ea8bc6971631a88542",
}


@pytest.mark.parametrize("p, n, t", list(DUMP_PINS))
def test_dump_kernel_bytes_are_pinned(tmp_path, p, n, t):
    target = tmp_path / "kernel.json"
    argv = ["hilbert", "--p", str(p), "--n", str(n), "--t", str(t), "--dump-kernel", str(target)]
    assert cli.main(argv + ["--cache-dir", str(tmp_path / "cache")]) == 0
    assert hashlib.sha256(target.read_bytes()).hexdigest() == DUMP_PINS[p, n, t]


def format_degree_via_polys(gk, d):
    """The export's former route: a ReducedPoly per basis row and a one-term
    ReducedPoly per pivot, each written by format_poly in grlex order."""
    ctx, dom = gk.ctx, gk.ctx.domain
    monos = monomials_of_degree(ctx.nvars, d)
    pivots = [format_poly(ReducedPoly(dom, ctx.nvars, {monos[c]: dom.one})) for c in gk.kernel(d)[1]]
    return pivots, [format_poly(b) for b in gk.basis_polys(d)]


# (p, n, t, c): F_p with c = 0 and c != 0, generic c at p = 2 and at p = 3
# (the generic (2,4), (2,5) and (3,4) kernels hold fractions in c by degree 8)
EXPORT_CELLS = [
    (2, 3, 0, 1), (3, 4, 0, 1), (5, 4, 0, 1), (3, 4, 0, 0), (3, 4, 1, 0), (5, 4, 1, 0),
    (3, 4, 1, 2), (2, 4, 1, 1), (2, 4, 1, "generic"), (2, 5, 1, "generic"), (3, 4, 1, "generic"),
]


@settings(max_examples=40, deadline=None)
@given(cell=st.sampled_from(EXPORT_CELLS), cap=st.integers(1, 8))
def test_export_matches_format_poly_of_the_basis(cell, cap):
    p, n, t, c = cell
    gk = compute_graded_kernel(DunklContext.make(n=n, p=p, t=t, c=c), max_degree=cap)
    exported = cli.export_kernel_json(gk)["degrees"]
    assert sorted(map(int, exported)) == sorted(gk.degrees)
    for d in gk.degrees:
        got = exported[str(d)]
        assert (got["pivot_monomials"], got["basis"]) == format_degree_via_polys(gk, d)


def test_dump_kernel_computes_the_kernel_once(tmp_path, monkeypatch, capsys):
    real, calls = cli.compute_graded_kernel, []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "compute_graded_kernel", counted)

    def hilbert(dump):
        argv = ["hilbert", "--p", "2", "--n", "5", "--t", "0", "--dump-kernel", str(tmp_path / dump)]
        assert cli.main(argv + ["--cache-dir", str(tmp_path / "cache")]) == 0

    # a cache miss dumps the kernel its record was read from
    hilbert("miss.json")
    assert len(calls) == 1
    # a cache hit brings no kernel, so the dump computes one
    hilbert("hit.json")
    assert len(calls) == 2
    assert (tmp_path / "miss.json").read_bytes() == (tmp_path / "hit.json").read_bytes()


def test_dump_kernel_on_a_cache_hit_matches_the_record(tmp_path):
    # p=2, n=3, t=1 reaches dim L = 0 at degree 9; a capped run served from
    # the cache prints the complete record, so it dumps the kernel to degree 9
    args = ["hilbert", "--p", "2", "--n", "3", "--t", "1"]
    assert run_cli(args, tmp_path).returncode == 0
    target = tmp_path / "kernel.json"
    rec = record_of(run_cli(args + ["--max-degree", "3", "--dump-kernel", str(target)], tmp_path))
    assert rec["notes"][-1] == "cache hit"
    dumped = json.loads(target.read_text())["degrees"]
    assert {d: [v["dim_m"], v["dim_kernel"], v["dim_l"]] for d, v in dumped.items()} == rec["dims"]
    assert sorted(map(int, dumped)) == list(range(10))


def test_dump_kernel_of_a_capped_run_covers_its_dims(tmp_path):
    # p=3, n=4, t=1 reaches dim L = 0 at degree 19; a run stopped at degree 3
    # dumps the degrees it finished, the ones its record's dims cover
    target = tmp_path / "kernel.json"
    args = ["hilbert", "--p", "3", "--n", "4", "--t", "1", "--max-degree", "3", "--no-cache"]
    rec = record_of(run_cli(args + ["--dump-kernel", str(target)], tmp_path))
    assert rec["status"] == "exceeded_cap"
    dumped = json.loads(target.read_text())["degrees"]
    assert {d: [v["dim_m"], v["dim_kernel"], v["dim_l"]] for d, v in dumped.items()} == rec["dims"]
    assert sorted(map(int, dumped)) == [0, 1, 2, 3]


@pytest.mark.slow
def test_selftest_passes(tmp_path):
    proc = run_cli(["selftest"], tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "FAIL" not in proc.stdout
    assert proc.stdout.count("PASS") >= 10
