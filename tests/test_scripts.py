"""Smoke tests: the example scripts run to completion on a tiny grid."""

import runpy
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(monkeypatch, capsys, name):
    path = SCRIPTS / name
    monkeypatch.setattr(sys, "argv", [str(path), "--n", "5", "--T", "0.2"])
    runpy.run_path(str(path), run_name="__main__")
    return capsys.readouterr().out.splitlines()


def test_compare_methods_prints_table(monkeypatch, capsys):
    header, rule, *rows = run_script(monkeypatch, capsys, "compare_methods.py")
    for method in ("newton", "chord", "modified"):
        assert f"{method} iter" in header
    assert set(rule) == {"-"}
    assert [row.split()[:2] for row in rows] == [["test", str(t)] for t in range(1, 6)]


def test_semilinear_blowup_prints_histories(monkeypatch, capsys):
    lines = run_script(monkeypatch, capsys, "semilinear_blowup.py")
    titles = [line for line in lines if "stop_reason=" in line]
    assert [t.split(":")[0] for t in titles] == ["semilinear", "modified"]
    assert all("stop_reason=reached_T" in t for t in titles)
    history = [line for line in lines if line.lstrip().startswith("t=")]
    assert len(history) == 2 and all("max|u|=" in h for h in history)
