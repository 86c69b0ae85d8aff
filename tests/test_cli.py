"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_list_faults(capsys):
    assert main(["list-faults"]) == 0
    out = capsys.readouterr().out
    assert "f1" in out and "f12" in out
    assert "memcached" in out and "pmemkv" in out


def test_study(capsys):
    assert main(["study"]) == 0
    out = capsys.readouterr().out
    assert "Figure 2" in out
    assert "logic error" in out
    assert "Type II" in out


def test_analyze(capsys):
    assert main(["analyze", "--system", "pmemkv"]) == 0
    out = capsys.readouterr().out
    assert "PDG edges" in out
    assert "PM instructions" in out


def test_run_fast_fault(capsys):
    assert main(["run", "--fault", "f11", "--solution", "arthas"]) == 0
    out = capsys.readouterr().out
    assert "recovered=True" in out


def test_run_failing_solution_returns_nonzero(capsys):
    assert main(["run", "--fault", "f11", "--solution", "arckpt"]) == 1


def test_cluster_status(capsys):
    assert main(["cluster-status"]) == 0
    out = capsys.readouterr().out
    assert "recovered=True" in out
    assert "demoted" in out and "serving" in out


def test_cluster_sweep_quick_check(capsys):
    # the committed report must match a fresh quick sweep (CI drift job)
    assert main(["cluster-sweep", "--quick", "--check"]) == 0
    out = capsys.readouterr().out
    assert "converged" in out


def test_matrix_all_headline_and_drift_check(capsys, monkeypatch, tmp_path):
    import json

    from repro.harness import matrix

    # f3/arthas recovers inconsistent, f11/arthas consistent, and arckpt
    # recovers neither: the headline counts recovered and consistent
    expand = matrix.expand_matrix
    monkeypatch.setattr(matrix, "expand_matrix", lambda seeds: expand(
        fids=["f3", "f11"], solutions=["arthas", "arckpt"], seeds=seeds,
    ))
    out = tmp_path / "matrix.json"
    assert main(["matrix-all", "--jobs", "1", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "recovered+consistent" in printed and "recovered (raw)" in printed
    assert "1/2 (2)" in printed
    families = json.loads(out.read_text())["families"]["table2"]["solutions"]
    assert families["arthas"] == {
        "cells": 2, "recovered_consistent": 1, "recovered": 2,
    }
    assert families["arckpt"]["recovered_consistent"] == 0

    assert main(["matrix-all", "--jobs", "1", "--check",
                 "--out", str(out)]) == 0
    assert "all 4 cells match" in capsys.readouterr().err

    committed = json.loads(out.read_text())
    committed["report"]["cells"][0]["summary"]["mitigation"]["pool_digest"] += 1
    out.write_text(json.dumps(committed))
    assert main(["matrix-all", "--jobs", "1", "--check",
                 "--out", str(out)]) == 1
    assert "drifted on pool_digest" in capsys.readouterr().err


def test_parser_rejects_unknown():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--fault", "f99"])
    with pytest.raises(SystemExit):
        build_parser().parse_args(["nonsense"])
