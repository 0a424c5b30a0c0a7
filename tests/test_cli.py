import csv
import io
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from gaussgeom import cli, core
from gaussgeom.core import StdForm, write_covmat
from gaussgeom.mcint import IntegrationError
from gaussgeom.typicality import pure_state_endpoint, purity_cut, scan_purity_plane


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_vacuum(tmp_path, capsys):
    path = tmp_path / "vac.txt"
    write_covmat(path, np.eye(4))
    code, out, _ = run_cli(capsys, "analyze", str(path))
    assert code == 0
    assert "bona fide: yes" in out
    assert "purity mu: 1" in out
    assert "log negativity E_N: 0" in out


def test_analyze_squeezed_state(tmp_path, capsys):
    path = tmp_path / "tms.txt"
    write_covmat(path, StdForm(1.25, 1.25, 0.75, -0.75).matrix())
    code, out, _ = run_cli(capsys, "analyze", str(path))
    assert code == 0
    assert "log negativity E_N: 1" in out


def test_analyze_nonphysical_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    write_covmat(path, np.diag([0.5, 0.5, 1.0, 1.0]))
    code, out, _ = run_cli(capsys, "analyze", str(path))
    assert code == 2
    assert "bona fide: no" in out
    assert "symplectic spectrum" in out  # report still printed


def test_analyze_reads_a_two_mode_matrix_once(tmp_path, capsys, monkeypatch):
    # The spectrum, verdict, purity and invariants share one Cholesky read.
    calls = []
    two_mode_nu = core._two_mode_nu
    monkeypatch.setattr(core, "_two_mode_nu", lambda rows: calls.append(rows) or two_mode_nu(rows))
    monkeypatch.setattr(core, "_last_read", (b"", [], None))
    for sigma, want in ((StdForm(1.5, 1.3, 0.4, -0.2).matrix(), 0), (0.5 * np.eye(4), 2)):
        calls.clear()
        path = tmp_path / "state.txt"
        write_covmat(path, sigma)
        code, out, _ = run_cli(capsys, "analyze", str(path))
        assert code == want
        assert ("bona fide: no" in out) is (want == 2)
        assert len(calls) == 1


def test_analyze_negative_definite_matrix(tmp_path, capsys):
    path = tmp_path / "neg.txt"
    write_covmat(path, -np.eye(4))
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert code == 1
    assert "positive definite" in err
    assert out == ""


@pytest.mark.parametrize("scale", [1e-100, 1e-300])
def test_analyze_underflowing_determinant(tmp_path, capsys, scale):
    path = tmp_path / "tiny.txt"
    write_covmat(path, scale * np.eye(4))
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert code == 1
    assert err.startswith("error: ") and "determinant" in err
    assert out == ""


@pytest.mark.parametrize("scale, mu", [(1e80, "1e-160"), (1e150, "1e-300")])
def test_analyze_thermal_state_with_large_entries(tmp_path, capsys, scale, mu):
    # det Sigma = scale^4 overflows, but no reported value needs it.
    path = tmp_path / "hot.txt"
    write_covmat(path, scale * np.eye(4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "analyze", str(path))
    assert (code, err) == (0, "")
    assert f"purity mu: {mu}\n" in out
    assert "log negativity E_N: 0\n" in out and "steerability G: 0\n" in out


def test_analyze_thermal_state_beyond_the_float_range(tmp_path, capsys):
    path = tmp_path / "hotter.txt"
    write_covmat(path, 1e300 * np.eye(4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "analyze", str(path))
    assert code == 1
    assert err.startswith("error: ") and "float range" in err
    assert out == ""


def test_analyze_rejects_tolerance_of_one(tmp_path, capsys):
    path = tmp_path / "vac.txt"
    write_covmat(path, np.eye(4))
    code, _, err = run_cli(capsys, "analyze", str(path), "--tol", "1")
    assert code == 1
    assert "tol" in err


def test_analyze_malformed_file(tmp_path, capsys):
    path = tmp_path / "junk.txt"
    path.write_text("not a matrix\n")
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == 1
    assert "error" in err


def test_analyze_single_mode(tmp_path, capsys):
    path = tmp_path / "one.txt"
    write_covmat(path, np.diag([2.0, 2.0]))
    code, out, _ = run_cli(capsys, "analyze", str(path))
    assert code == 0
    assert "modes: 1" in out
    assert "mu_A" not in out


def _per_cell_fmt(value) -> str:
    """Field formatting of one record value, as the per-cell CSV writer had it."""
    return "" if value is None else f"{value:.10g}"


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


_SCAN_MUS = [0.1, 0.3, 0.5, 0.9, 1.0]
_SCAN_GRIDS = [1, 2, 12, 100]


@pytest.mark.parametrize("grid", _SCAN_GRIDS)
@pytest.mark.parametrize("mu", _SCAN_MUS)
def test_scan_purity_cut_round_trip(tmp_path, capsys, mu, grid):
    out_path = tmp_path / "cut.csv"
    code, _, _ = run_cli(
        capsys, "scan", "purity-cut", "--mu", repr(mu), "--grid", str(grid), "--out", str(out_path)
    )
    assert code == 0
    rows = [
        [_per_cell_fmt(v) for v in (p.mu_ab, p.prop_entangled, p.mean_logneg)]
        for p in purity_cut(mu, grid)
    ]
    expected = _csv_text(["mu_ab", "prop_entangled", "mean_EN"], rows)
    assert out_path.read_text() == expected


@pytest.mark.parametrize("grid", _SCAN_GRIDS)
@pytest.mark.parametrize("mu", _SCAN_MUS)
def test_scan_purity_plane_round_trip(tmp_path, capsys, mu, grid):
    out_path = tmp_path / "plane.csv"
    code, _, _ = run_cli(
        capsys, "scan", "purity-plane", "--mu", repr(mu), "--grid", str(grid), "--out", str(out_path)
    )
    assert code == 0
    rows = [
        [_per_cell_fmt(c.mu_a), _per_cell_fmt(c.mu_b), c.region.value,
         _per_cell_fmt(c.prop_entangled), _per_cell_fmt(c.mean_logneg)]
        for c in scan_purity_plane(mu, grid)
    ]
    expected = _csv_text(["mu_a", "mu_b", "class", "prop_entangled", "mean_EN"], rows)
    assert out_path.read_text() == expected


def test_parser_is_reused_without_carrying_options(capsys):
    cli._build_parser.cache_clear()
    first = run_cli(capsys, "scan", "purity-plane", "--grid", "4")
    assert run_cli(capsys, "scan", "purity-plane", "--mu", "0.3", "--grid", "4")[0] == 0
    again = run_cli(capsys, "scan", "purity-plane", "--grid", "4")
    assert again == first
    assert again == run_cli(capsys, "scan", "purity-plane", "--mu", "0.5", "--grid", "4")
    assert first[0] == 0 and first[1] != ""
    assert cli._build_parser.cache_info().misses == 1


def test_analyze_after_a_scan_sees_no_scan_options(tmp_path, capsys):
    path = tmp_path / "vac.txt"
    write_covmat(path, np.eye(4))
    cli._build_parser.cache_clear()
    fresh = run_cli(capsys, "analyze", str(path))
    assert run_cli(capsys, "scan", "purity-cut", "--mu", "0.3", "--grid", "3")[0] == 0
    assert run_cli(capsys, "analyze", str(path)) == fresh
    parser = cli._build_parser()
    parser.parse_args(["scan", "purity-cut", "--mu", "0.3", "--grid", "3"])
    args = parser.parse_args(["analyze", str(path)])
    assert vars(args) == {"command": "analyze", "path": str(path), "tol": core.BONA_FIDE_TOL}


@pytest.mark.parametrize("kind", ["purity-plane", "purity-cut"])
@pytest.mark.parametrize("mu", ["1e-200", "1e-320", "5e-324"])
def test_scan_tiny_global_purity_exits_cleanly(capsys, kind, mu):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "scan", kind, "--mu", mu, "--grid", "2")
    assert code == 1
    assert err.startswith("error: ") and "float range" in err
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["purity-plane", "--mu", "0.3", "--grid", "12"],
        ["purity-cut", "--mu", "0.9", "--grid", "12"],
        ["energy-curves", "--E", "3,8", "--mu-grid", "2", "--evals", "500"],
        ["pure-endpoint", "--E", "2,2.1,3,40"],
    ],
)
def test_scan_csv_is_what_a_csv_writer_writes(tmp_path, capsys, argv):
    out = tmp_path / "scan.csv"
    code, _, _ = run_cli(capsys, "scan", *argv, "--out", str(out))
    assert code == 0
    header, rows = cli._scan_rows(cli._build_parser().parse_args(["scan", *argv]))
    want = io.StringIO()
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    assert out.read_text() == want.getvalue()
    assert len(rows) > 1


def test_scan_pure_endpoint(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "scan", "pure-endpoint", "--E", "4")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    ep = pure_state_endpoint(4.0)
    assert float(rows[0]["mean_EN"]) == pytest.approx(ep.mean_logneg, rel=1e-9, abs=0.0)
    assert float(rows[0]["prop_ent"]) == 1.0


def test_scan_energy_curves_deterministic(tmp_path, capsys):
    args = (
        "scan", "energy-curves", "--E", "5", "--mu-grid", "3",
        "--seed", "7", "--evals", "4000",
    )
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    rows = list(csv.DictReader(io.StringIO(out1)))
    assert len(rows) == 3
    header = rows[0].keys()
    assert list(header) == [
        "E", "mu",
        "prop_ent", "prop_ent_err",
        "mean_EN", "mean_EN_err",
        "prop_steer", "prop_steer_err",
        "mean_G", "mean_G_err",
    ]
    for row in rows:
        assert 0.0 <= float(row["prop_ent"]) <= 1.0
        assert float(row["prop_steer"]) <= float(row["prop_ent"])


def test_scan_energy_curves_bad_energy_list(capsys):
    code, _, err = run_cli(capsys, "scan", "energy-curves", "--E", "abc")
    assert code == 1
    assert "error" in err


def test_numerical_failure_exit_code(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise IntegrationError("synthetic failure")

    monkeypatch.setattr(cli.typicality, "energy_constrained_stats", boom)
    code, _, err = run_cli(capsys, "scan", "energy-curves", "--E", "5", "--mu-grid", "1")
    assert code == 3
    assert "numerical failure" in err


@pytest.mark.parametrize("energy", ["nan", "inf"])
def test_scan_pure_endpoint_non_finite_energy(capsys, energy):
    code, out, err = run_cli(capsys, "scan", "pure-endpoint", "--E", energy)
    assert code == 1
    assert "finite" in err
    assert out == ""


@pytest.mark.parametrize("mu_grid", ["0", "-2"])
def test_scan_energy_curves_empty_mu_grid(capsys, mu_grid):
    code, out, err = run_cli(capsys, "scan", "energy-curves", "--E", "5", "--mu-grid", mu_grid)
    assert code == 1
    assert "mu_grid must be positive" in err
    assert out == ""


@pytest.mark.parametrize(
    "energy, fragment",
    [
        ("0", "exceed 2"),
        ("1e-200", "exceed 2"),  # E^2 underflows to 0
        ("1e200", "float range"),  # E^2 overflows
        ("-1e200", "exceed 2"),
    ],
)
def test_scan_energy_curves_energy_outside_the_support(monkeypatch, capsys, energy, fragment):
    # The energy is read by the library before the first point: one error line, no traceback.
    monkeypatch.setattr(cli.typicality, "energy_constrained_stats", _no_scan)
    code, out, err = run_cli(capsys, "scan", "energy-curves", f"--E={energy}", "--mu-grid", "1")
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1 and fragment in err
    assert out == ""


def test_scan_energy_curves_negative_seed_names_the_option(monkeypatch, capsys):
    monkeypatch.setattr(cli.typicality, "energy_constrained_stats", _no_scan)
    code, out, err = run_cli(capsys, "scan", "energy-curves", "--E", "3", "--mu-grid", "1",
                             "--seed", "-1")
    assert code == 1
    assert err == "error: seed must be a non-negative integer, got -1\n"
    assert out == ""


@pytest.mark.parametrize("kind", ["energy-curves", "pure-endpoint"])
@pytest.mark.parametrize("energies", [",", ""])
def test_scan_empty_energy_list(capsys, kind, energies):
    code, out, err = run_cli(capsys, "scan", kind, "--E", energies)
    assert code == 1
    assert "empty" in err
    assert out == ""


def _no_scan(*args, **kwargs):
    raise AssertionError("the scan ran")


@pytest.mark.parametrize("kind", ["energy-curves", "pure-endpoint"])
def test_scan_out_into_a_missing_directory(tmp_path, monkeypatch, capsys, kind):
    # The output is opened before any scan work, which this patch would expose.
    monkeypatch.setattr(cli.typicality, "energy_constrained_stats", _no_scan)
    monkeypatch.setattr(cli.typicality, "pure_state_endpoint", _no_scan)
    out = tmp_path / "missing" / "x.csv"
    code, stdout, err = run_cli(capsys, "scan", kind, "--E", "3", "--out", str(out))
    assert code == 1
    assert err.startswith("error: ") and "No such file or directory" in err
    assert stdout == ""
    assert not out.parent.exists()


def test_scan_out_into_a_directory(tmp_path, capsys):
    code, _, err = run_cli(capsys, "scan", "pure-endpoint", "--E", "3", "--out", str(tmp_path))
    assert code == 1
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "failure, exit_code", [(core.DomainError("synthetic"), 1), (IntegrationError("synthetic"), 3)]
)
def test_failed_scan_removes_the_file_it_created(tmp_path, monkeypatch, capsys, failure, exit_code):
    def boom(*args, **kwargs):
        raise failure

    monkeypatch.setattr(cli.typicality, "energy_constrained_stats", boom)
    out = tmp_path / "curves.csv"
    code, _, _ = run_cli(capsys, "scan", "energy-curves", "--E", "5", "--mu-grid", "1",
                         "--out", str(out))
    assert code == exit_code
    assert not out.exists()


def test_failed_scan_leaves_an_existing_file_as_it_was(tmp_path, capsys):
    out = tmp_path / "old.csv"
    out.write_text("old content\n")
    code, _, _ = run_cli(capsys, "scan", "pure-endpoint", "--E", ",", "--out", str(out))
    assert code == 1
    assert out.read_text() == "old content\n"


def test_scan_replaces_an_existing_file(tmp_path, capsys):
    out = tmp_path / "endpoint.csv"
    out.write_text("a longer line that the new content must not leave behind\n" * 20)
    assert run_cli(capsys, "scan", "pure-endpoint", "--E", "3,4", "--out", str(out))[0] == 0
    _, stdout, _ = run_cli(capsys, "scan", "pure-endpoint", "--E", "3,4")
    assert out.read_text() == stdout


@pytest.mark.parametrize("grid_before", [3, 4, 6], ids=["shorter", "same", "longer"])
def test_scan_rewrites_a_file_in_place(tmp_path, capsys, grid_before):
    out = tmp_path / "plane.csv"
    fresh = tmp_path / "fresh.csv"
    argv = ["scan", "purity-plane", "--grid", "4"]
    assert run_cli(capsys, "scan", "purity-plane", "--grid", str(grid_before), "--out", str(out))[0] == 0
    inode = out.stat().st_ino
    assert run_cli(capsys, *argv, "--out", str(out))[0] == 0
    assert run_cli(capsys, *argv, "--out", str(fresh))[0] == 0
    assert out.read_bytes() == fresh.read_bytes()
    assert out.stat().st_ino == inode


@pytest.mark.skipif(os.devnull != "/dev/null", reason="needs /dev/null")
def test_scan_to_dev_null_is_not_cut(capsys):
    # Cutting a character device fails (EINVAL), so exit 0 means it was not tried.
    code, stdout, err = run_cli(capsys, "scan", "purity-plane", "--grid", "3", "--out", "/dev/null")
    assert (code, stdout, err) == (0, "", "")


def test_scan_to_stdout_is_not_cut(capsys):
    print("earlier output")
    code, stdout, _ = run_cli(capsys, "scan", "purity-plane", "--grid", "3", "--out", "-")
    assert code == 0
    assert stdout.startswith("earlier output\nmu_a,mu_b,class,")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
def test_scan_to_a_fifo_is_not_cut(tmp_path, capsys):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
    reader.start()
    code, _, err = run_cli(capsys, "scan", "purity-plane", "--grid", "3", "--out", str(fifo))
    reader.join(timeout=60)
    assert (code, err) == (0, "")
    _, stdout, _ = run_cli(capsys, "scan", "purity-plane", "--grid", "3")
    assert received == [stdout]


_FSIZE_SCRIPT = """\
import resource, signal, sys
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE, ({limit}, {limit}))
from gaussgeom import cli
sys.exit(cli.main({argv!r}))
"""


@pytest.mark.skipif(sys.platform == "win32", reason="needs POSIX resource limits")
@pytest.mark.parametrize(
    "grid, existing", [(10, True), (20, True), (20, False)], ids=["10", "20", "created"]
)
def test_scan_that_fails_mid_write_leaves_no_old_tail(tmp_path, capsys, grid, existing):
    # A file-size limit below the old file's size makes the write fail part
    # way; SIGXFSZ is ignored so that the write raises EFBIG instead.
    limit = 1000
    out = tmp_path / "plane.csv"
    if existing:
        out.write_bytes(b"old row that must not survive\n" * 1000)
    argv = ["scan", "purity-plane", "--grid", str(grid), "--out", str(out)]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-B", "-c", _FSIZE_SCRIPT.format(limit=limit, argv=argv)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    if not existing:
        assert not out.exists()  # a file the scan created is removed
        return
    _, fresh, _ = run_cli(capsys, "scan", "purity-plane", "--grid", str(grid))
    written = out.read_text()
    assert len(fresh) > limit
    assert len(written) <= limit
    assert fresh.startswith(written)
