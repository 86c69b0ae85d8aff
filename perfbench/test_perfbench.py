"""Tests of the benchmark itself, on tiny runs of every workload.

    python3 -m pytest perfbench -q

Each workload runs once untraced and once traced through ``run.main``.
The tests check that every metric named in ``BENCHMARK.json`` comes out
with its unit, that tracing leaves digests, attempts and reverted counts
unchanged, and that every wrapper is gone afterwards.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in BENCH["workloads"]]


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload to one small unit of work."""
    monkeypatch.setitem(workloads.RECOVER_CELLS, "recover-reexec",
                        (("f1", "arthas"), ("f17", "arthas")))
    monkeypatch.setitem(workloads.RECOVER_CELLS, "recover-revert",
                        (("f2", "arthas-bi"),))
    monkeypatch.setattr(workloads, "SETUP_REPS", 1)
    monkeypatch.setattr(workloads, "HEAL_REPS", 1)
    monkeypatch.setattr(workloads, "STEADY_RECORDS", 64)
    monkeypatch.setattr(workloads, "STEADY_ROUND_OPS", 50)
    monkeypatch.setattr(workloads, "CLUSTER_ROUND_OPS", 100)
    monkeypatch.setattr(workloads, "HEAL_FIDS", ("f5",))


def _main(capsys, monkeypatch, tmp_path, *argv):
    monkeypatch.chdir(tmp_path)
    assert run.main(list(argv)) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def test_benchmark_json_matches_the_runner():
    assert set(WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == \
        run.per_layer_units()


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_tiny_run(workload, tiny, capsys, monkeypatch, tmp_path):
    args = ("--workload", workload, "--seed", "1", "--seconds", "0.1")
    info, plain = _main(capsys, monkeypatch, tmp_path, *args, "--trace", "0")
    assert plain["correct"], info["errors"]
    assert plain["attempted"] >= 1
    for metric in BENCH["end_to_end"]:
        got = plain["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert got["value"] > 0, metric["name"]
    assert info["provenance"]["calibration_loops_per_s"] > 0

    info, traced = _main(capsys, monkeypatch, tmp_path, *args, "--trace", "1")
    # run.main compares the traced run's outputs with the untraced run's
    # (digests, attempts, reverted counts) and reports any difference
    assert traced["correct"], info["errors"]
    for metric in BENCH["per_layer"]:
        assert traced["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert traced["metrics"]["trace_overhead"]["value"] > 0
    assert traced["metrics"]["lang.calls"]["value"] > 0
    assert (tmp_path / ".perfbench").is_dir()


def test_traced_outputs_match_untraced(tiny):
    plain = workloads.recover_workload("recover-revert", 0, 0, 1, workloads.Env())
    t = tracer.Tracer()
    t.install()
    try:
        traced = workloads.recover_workload("recover-revert", 0, 0, 1,
                                            workloads.Env(tracer=t))
    finally:
        t.remove()
    assert traced.outputs == plain.outputs
    assert traced.outputs["f2/arthas-bi"]["attempts"] > 0
    assert any(s[0] == "pmem.epoch_undo" for s in t.finished())
    # the fault-free run-up, up to confirmation, is tagged untimed
    assert {"runup:f2/arthas-bi", "f2/arthas-bi"} <= {s[4] for s in t.finished()}


def test_every_wrapper_is_removed():
    t = tracer.Tracer()
    t.install()
    patched = t.patches.originals
    assert len(patched) > 20
    t.remove()
    for owner, name, original in patched:
        assert owner.__dict__[name] is original, (owner, name)


def test_heal_clock_is_removed():
    from repro.distributed.shardmgr import ShardManager

    before = dict(ShardManager.__dict__)
    patches = tracer.Patches()
    tracer.install_heal_clock(patches, tracer.PhaseClock())
    assert ShardManager.__dict__["promote"] is not before["promote"]
    patches.remove()
    assert dict(ShardManager.__dict__) == before


def test_self_time_excludes_children():
    t = tracer.Tracer()
    inner = t.wrap("lang.call", lambda: sum(range(20_000)))
    outer = t.wrap("harness.cell", lambda: [inner() for _ in range(3)])
    outer()
    spans = t.finished()
    root = next(s for s in spans if s[0] == "harness.cell")
    children = [s for s in spans if s[0] == "lang.call"]
    covered = sum(s[2] - s[1] for s in children)
    assert root[5] == pytest.approx((root[2] - root[1]) - covered)
    assert {s[3] for s in children} == {t.spans.index(root)}


def test_chained_override_is_one_span():
    """An override calling ``super()`` yields one span, not two."""

    class Base:
        def restart(self):
            return 1

    class Child(Base):
        def restart(self):
            return super().restart() + 1

    t = tracer.Tracer()
    t.patches.method(Base, "restart", lambda fn: t.wrap("systems.restart", fn))
    try:
        assert Child().restart() == 2
        assert Base().restart() == 1
    finally:
        t.remove()
    assert [s[0] for s in t.finished()] == ["systems.restart"] * 2


def test_untimed_phases_are_left_out(tiny):
    """Load and read-back work of a traced steady run is not reported."""
    t = tracer.Tracer()
    t.install()
    try:
        traced = workloads.steady_workload(0, 0, 1, workloads.Env(tracer=t))
    finally:
        t.remove()
    cells = {s[4] for s in t.finished()}
    assert {"load", "check"} <= cells
    assert t.untimed_counts["lang.steps"] > 0
    assert t.untimed_stats["writes"] > 0
    values = run.layer_metrics(t, traced, traced, workloads.SETUP_REPS)
    timed_calls = sum(1 for s in t.finished()
                      if s[0] == "lang.call" and not tracer.is_untimed(s[4]))
    assert values["lang.calls"] == timed_calls
    assert values["pmem.writes"] == t.measured_pool_stats()["writes"] > 0
    # six systems, one crash each: one restart span per system
    assert values["systems.restarts"] == 6


def test_host_clock_never_runs_backwards():
    from hostclock import HostClock

    with HostClock(period=0.001) as clock:
        readings = [clock.now() for _ in range(300_000)]
    assert len(clock.samples) > 10
    assert all(b >= a for a, b in zip(readings, readings[1:]))


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, the run fails fast."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "steady",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
