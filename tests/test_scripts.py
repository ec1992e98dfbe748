"""Smoke tests: the example scripts run to completion on a tiny grid."""

import runpy
import sys
from pathlib import Path

import pytest

import hmfem as hm

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(monkeypatch, capsys, name, *extra):
    path = SCRIPTS / name
    monkeypatch.setattr(sys, "argv", [str(path), "--n", "5", "--T", "0.2", *extra])
    runpy.run_path(str(path), run_name="__main__")
    return capsys.readouterr().out.splitlines()


def test_compare_methods_prints_table(monkeypatch, capsys):
    header, rule, *rows = run_script(monkeypatch, capsys, "compare_methods.py")
    methods = ("newton", "chord", "modified")
    for method in methods:
        assert f"{method} iter" in header
    assert header.split().count("corr") == 3
    assert set(rule) == {"-"}
    assert [row.split()[:2] for row in rows] == [["test", str(t)] for t in range(1, 6)]
    # Per method: iter, relerr, LUs, corr, time(s); corr counts the run's
    # defect corrections.
    for t, row in enumerate(rows, start=1):
        cells = row.split()[2:]
        for i, method in enumerate(methods):
            cfg = hm.SolverConfig(tau=0.1, tol=1e-6, k_max=20, method=method)
            res = hm.run(hm.preset(t), cfg, T=0.2, snapshot_every=10**9, n=5)
            assert int(cells[5 * i + 3]) == res.total_linear_iterations()


def test_compare_methods_runs_chosen_tests(monkeypatch, capsys):
    _, _, *rows = run_script(monkeypatch, capsys, "compare_methods.py", "--tests", "4", "2")
    assert [row.split()[:2] for row in rows] == [["test", "4"], ["test", "2"]]
    # The same columns as a full table's rows for those tests.
    for t, row in zip((4, 2), rows):
        cells = row.split()[2:]
        for i, method in enumerate(("newton", "chord", "modified")):
            cfg = hm.SolverConfig(tau=0.1, tol=1e-6, k_max=20, method=method)
            res = hm.run(hm.preset(t), cfg, T=0.2, snapshot_every=10**9, n=5)
            assert int(cells[5 * i + 2]) == res.total_factorizations()
            assert int(cells[5 * i + 3]) == res.total_linear_iterations()


def test_compare_methods_refuses_unknown_test(monkeypatch, capsys):
    with pytest.raises(SystemExit) as exc:
        run_script(monkeypatch, capsys, "compare_methods.py", "--tests", "6")
    assert exc.value.code == 2


def test_semilinear_blowup_prints_histories(monkeypatch, capsys):
    lines = run_script(monkeypatch, capsys, "semilinear_blowup.py")
    titles = [line for line in lines if "stop_reason=" in line]
    assert [t.split(":")[0] for t in titles] == ["semilinear", "modified"]
    assert all("stop_reason=reached_T" in t for t in titles)
    history = [line for line in lines if line.lstrip().startswith("t=")]
    assert len(history) == 2 and all("max|u|=" in h for h in history)
