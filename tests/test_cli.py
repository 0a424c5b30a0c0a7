import csv
import io

import numpy as np
import pytest

from gaussgeom import cli
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


def test_analyze_negative_definite_matrix(tmp_path, capsys):
    path = tmp_path / "neg.txt"
    write_covmat(path, -np.eye(4))
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert code == 1
    assert "positive definite" in err
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


def test_scan_purity_cut_round_trip(tmp_path, capsys):
    out_path = tmp_path / "cut.csv"
    code, _, _ = run_cli(
        capsys, "scan", "purity-cut", "--mu", "0.5", "--grid", "25", "--out", str(out_path)
    )
    assert code == 0
    rows = list(csv.DictReader(out_path.open()))
    assert len(rows) == 25
    library = purity_cut(0.5, 25)
    for row, point in zip(rows, library):
        assert float(row["mu_ab"]) == pytest.approx(point.mu_ab, rel=1e-9)
        if point.prop_entangled is None:
            assert row["prop_entangled"] == ""
        else:
            assert float(row["prop_entangled"]) == pytest.approx(point.prop_entangled, abs=1e-9)
            assert float(row["mean_EN"]) == pytest.approx(point.mean_logneg, abs=1e-8)


def test_scan_purity_plane_round_trip(tmp_path, capsys):
    out_path = tmp_path / "plane.csv"
    code, _, _ = run_cli(
        capsys, "scan", "purity-plane", "--mu", "0.5", "--grid", "12", "--out", str(out_path)
    )
    assert code == 0
    rows = list(csv.DictReader(out_path.open()))
    assert len(rows) == 144
    cells = scan_purity_plane(0.5, 12)
    classes = {r["class"] for r in rows}
    assert "Unphysical" in classes and "AllEntangled" in classes
    for row, cell in zip(rows, cells):
        assert row["class"] == cell.region.value


def test_scan_pure_endpoint(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "scan", "pure-endpoint", "--E", "4")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    ep = pure_state_endpoint(4.0)
    assert float(rows[0]["mean_EN"]) == pytest.approx(ep.mean_logneg, rel=1e-9)
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
