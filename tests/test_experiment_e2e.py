"""End-to-end experiment tests over the fast fault scenarios.

Full 12x4 matrices live in the benchmarks; here we pin the key paper
shapes on the quickest cases so the suite stays fast.
"""

import json
from pathlib import Path

import pytest

from repro.faults.fuzzed import FUZZ_FAMILIES
from repro.faults.registry import (
    ALL_SCENARIOS,
    TABLE2_SCENARIOS,
    scenario_by_id,
    scenarios_by_family,
)
from repro.harness.experiment import SOLUTIONS, run_experiment

#: (fault, solution) cells the committed matrix lists as recovered but
#: inconsistent.  Root-cause fixes may shrink this set; nothing may grow it
KNOWN_INCONSISTENT = frozenset({
    ("f3", "arthas"), ("f15", "arthas"), ("f15", "arthas-rb"),
    ("f1", "arthas-bi"), ("f4", "arthas-bi"), ("f10", "arthas-bi"),
    ("f15", "arthas-bi"), ("f20", "arthas-bi"), ("f21", "arthas-bi"),
    ("f22", "arthas-bi"), ("f24", "arthas-bi"), ("f15", "arckpt"),
})

MATRIX_PATH = Path(__file__).resolve().parents[1] / "results" / "matrix_all.json"


def test_registry_covers_table2():
    assert [s.fid for s in TABLE2_SCENARIOS] == [f"f{i}" for i in range(1, 13)]
    systems = {s.system for s in TABLE2_SCENARIOS}
    assert systems == {"memcached", "redis", "cceh", "pelikan", "pmemkv"}
    assert all(s.family == "table2" for s in TABLE2_SCENARIOS)


def test_registry_grows_with_fuzzed_families():
    # the seeded scenarios come first, fuzzer discoveries follow with
    # contiguous fids; every discovery belongs to a fuzz family
    n = len(ALL_SCENARIOS)
    assert [s.fid for s in ALL_SCENARIOS] == [f"f{i}" for i in range(1, n + 1)]
    fuzzed = ALL_SCENARIOS[len(TABLE2_SCENARIOS):]
    assert len(fuzzed) >= 6
    assert {s.family for s in fuzzed} == set(FUZZ_FAMILIES)
    by_family = scenarios_by_family()
    assert by_family["table2"] == list(TABLE2_SCENARIOS)
    assert sum(len(v) for v in by_family.values()) == n


def test_unknown_solution_rejected():
    with pytest.raises(ValueError):
        run_experiment("f4", "nope")


class TestF4ImmediateCrash:
    """The append-overflow segfault: every solution handles it."""

    @pytest.mark.parametrize("solution", SOLUTIONS)
    def test_recovers(self, solution):
        result = run_experiment("f4", solution, seed=0)
        assert result.manifested
        assert result.confirmed_hard
        assert result.mitigation.recovered
        # bisect keeps the minimal prefix that stops recurrence; on
        # accounting-heavy faults that can strand counter updates outside
        # the one-hop forward purge (the strategy's documented
        # semantic-consistency trade-off), so f4/arthas-bi is known
        assert result.mitigation.consistent \
            or ("f4", solution) in KNOWN_INCONSISTENT

    def test_arthas_beats_pmcriu_on_data_loss(self):
        arthas = run_experiment("f4", "arthas", seed=0).mitigation
        pmcriu = run_experiment("f4", "pmcriu", seed=0).mitigation
        assert arthas.discarded_pct < pmcriu.discarded_pct

    def test_invariants_detect_f4_corruption(self):
        result = run_experiment("f4", "arthas", seed=0)
        assert result.invariant_violations  # Table 7: f4 detectable


class TestF5Bitflip:
    def test_arthas_repairs_divergence(self):
        result = run_experiment("f5", "arthas", seed=0)
        m = result.mitigation
        assert m.recovered
        assert m.attempts == 1
        assert "divergent" in m.notes
        assert m.reverted_updates == 0  # repaired, nothing discarded

    def test_checksum_detects_only_hw_fault(self):
        flip = run_experiment("f5", "arthas", seed=0, with_checksum=True)
        assert flip.checksum_hits > 0
        soft = run_experiment("f11", "arthas", seed=0, with_checksum=True)
        assert soft.checksum_hits == 0


class TestF11NullStats:
    def test_arthas_recovers_consistently(self):
        result = run_experiment("f11", "arthas", seed=0)
        assert result.mitigation.recovered
        assert result.mitigation.consistent

    def test_arckpt_times_out(self):
        result = run_experiment("f11", "arckpt", seed=0)
        assert not result.mitigation.recovered
        assert result.mitigation.timed_out


class TestF12Leak:
    def test_arthas_leakfix_discards_nothing(self):
        result = run_experiment("f12", "arthas", seed=0)
        m = result.mitigation
        assert m.recovered
        assert m.reverted_updates == 0
        assert m.leaked_blocks > 0
        assert m.consistent

    def test_pmcriu_recovers_with_data_loss(self):
        result = run_experiment("f12", "pmcriu", seed=0)
        m = result.mitigation
        assert m.recovered
        assert m.discarded_pct > 0


class TestMitigationAccounting:
    def test_mitigation_time_includes_reexec_delays(self):
        m = run_experiment("f11", "arthas", seed=0).mitigation
        # each attempt pays a 3-5s re-execution delay
        assert m.duration_seconds >= 3.0 * m.attempts

    def test_discard_metric_bounded(self):
        m = run_experiment("f4", "arthas", seed=0).mitigation
        assert 0 <= m.discarded_pct <= 100
        assert m.total_updates > 0

    def test_slicing_metadata_reported(self):
        m = run_experiment("f11", "arthas", seed=0).mitigation
        assert m.plan_candidates > 0
        assert m.pm_slice_size > 0
        assert m.slice_size >= m.pm_slice_size

    def test_analysis_time_reported(self):
        # the PDG is built before the reactor server exists; the server
        # reports the analysis' own timings rather than timing nothing
        m = run_experiment("f1", "arthas", seed=0, consistency_probe=False).mitigation
        assert m.analysis_seconds > 0


#: cell -> (ladder rungs that run, the rung that recovers)
LADDER_CELLS = {
    ("f1", "arthas"): (["purge"], "purge"),
    # purge exhausts its attempt budget; the §4.5 fallback recovers
    ("f9", "arthas"): (["purge", "rollback"], "rollback"),
    ("f4", "arthas-rb"): (["rollback"], "rollback"),
    ("f4", "arthas-bi"): (["bisect"], "bisect"),
    ("f12", "arthas"): (["leak-fix"], "leak-fix"),
    ("f4", "pmcriu"): (["snapshot"], "snapshot"),
    ("f11", "arckpt"): (["arckpt"], None),
}


@pytest.mark.parametrize("cell", sorted(LADDER_CELLS), ids="/".join)
def test_every_mitigation_runs_the_verified_ladder(cell):
    """Every solution mitigates on the crash-safe ladder and ends with
    its verification: a clean poolcheck and the pool's digest."""
    rungs, recovered_by = LADDER_CELLS[cell]
    m = run_experiment(*cell, seed=0, consistency_probe=False).mitigation
    verification = m.ladder["verification"]
    assert verification["pool_ok"]
    assert verification["pool_digest"] == m.pool_digest
    assert [r["rung"] for r in m.ladder["rungs"]] == rungs
    assert m.ladder["recovered_by"] == recovered_by
    assert m.recovered == (recovered_by is not None)


def test_committed_matrix_inconsistent_cells_are_known():
    cells = json.loads(MATRIX_PATH.read_text())["report"]["cells"]
    inconsistent = set()
    for cell in cells:
        m = cell["summary"]["mitigation"]
        if m is None:
            continue
        assert m["ladder"]["verification"]["pool_digest"] == m["pool_digest"]
        if m["recovered"] and m["consistent"] is False:
            inconsistent.add((cell["fid"], cell["solution"]))
    assert inconsistent <= KNOWN_INCONSISTENT


#: a fast slice of the committed matrix: every solution column and every
#: fault family, including one known-inconsistent cell (f24/arthas-bi)
#: and a leak cell whose detector runs the guest-side leak monitor (f8)
PINNED_CELLS = (
    ("f1", "arthas"), ("f17", "arthas"), ("f2", "arthas-bi"),
    ("f24", "arthas-bi"), ("f22", "arthas-rb"), ("f21", "arckpt"),
    ("f24", "pmcriu"), ("f8", "arthas"),
)

PINNED_FIELDS = (
    "recovered", "consistent", "attempts", "reverted_updates", "pool_digest",
)


@pytest.mark.parametrize("fid,solution", PINNED_CELLS)
def test_cell_repeats_committed_matrix(fid, solution):
    """A hot-path change must leave the committed cells' outcomes — down
    to the pool digest — exactly as ``matrix-all`` recorded them."""
    cells = json.loads(MATRIX_PATH.read_text())["report"]["cells"]
    committed = next(
        c["summary"]["mitigation"] for c in cells
        if (c["fid"], c["solution"], c["seed"]) == (fid, solution, 0)
    )
    mitigation = run_experiment(fid, solution, seed=0).mitigation
    got = {f: getattr(mitigation, f) for f in PINNED_FIELDS}
    assert got == {f: committed[f] for f in PINNED_FIELDS}
