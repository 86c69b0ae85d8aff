"""The four benchmark workloads, driven only through public entry points.

Each workload function takes the client-stream ``seed``, the fault-cell
seed ``cell_seed``, a fixed number of work units (passes or rounds)
and an :class:`Env`: the clock every duration is read from and,
in a traced run, the installed :class:`~tracer.Tracer`.  It returns a
:class:`Run` holding the end-to-end metrics, the output checks and the
deterministic outputs a traced run must reproduce.

The program is reached through ``run_experiment``, the
``SystemAdapter`` op interface, ``Cluster``/``ClusterClient`` and
``run_cluster_sweep``; nothing under ``src/`` is edited.
"""

from __future__ import annotations

import gc
import json
import random
import resource
import statistics
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence

from repro.distributed.cluster import Cluster, ClusterClient
from repro.errors import Trap
from repro.faults.registry import scenario_by_id
from repro.harness.cluster_sweep import run_cluster_sweep
from repro.harness.experiment import run_experiment
from repro.harness.supervisor import pool_digest
from repro.systems import ALL_ADAPTERS
from repro.systems.common import ABSENT, SystemAdapter
from repro.systems.memcached import MemcachedAdapter
from repro.workloads.generators import VALUE_BASE, OpKind
from repro.workloads.ycsb import YCSBWorkload

from tracer import Patches, PhaseClock, install_heal_clock

#: (fid, solution) cells per recovery workload
RECOVER_CELLS = {
    # verify re-execution dominates: VM, pool reads, PM-address tracing
    "recover-reexec": (
        ("f9", "arthas"), ("f9", "arthas-rb"), ("f1", "arthas"), ("f17", "arthas"),
    ),
    # the bisect probe engine: epoch undo and checkpoint-log address queries
    "recover-revert": (
        ("f2", "arthas-bi"), ("f10", "arthas-bi"), ("f15", "arthas-bi"),
        ("f1", "arthas-bi"),
    ),
}
#: run_cluster_sweep heal cells of the cluster workload
HEAL_FIDS = ("f2", "f5", "f6", "f10")
#: timed sweeps, after one untimed sweep that fills the process's caches
HEAL_REPS = 3

#: steady: records per system, ops per system between two crashes.  The
#: checkpoint log merges its staging buffer every ``STAGING_LIMIT``
#: staged updates and before any query of the log, so the merge count
#: follows the update volume, not the record count; 1024 records keep
#: the untimed load phase short
STEADY_RECORDS = 1024
STEADY_ROUND_OPS = 1000

#: cluster client stream: ops per round, each round on a fresh cluster;
#: the mix and the keyspace (half the ops) are those of the repo's own
#: cluster bench, ``repro.harness.hotpaths.bench_cluster``
CLUSTER_ROUND_OPS = 2500

#: cold set-ups per run; setup_s is their median
SETUP_REPS = 9

#: reference seconds one work unit takes (a pass or a round); a
#: run does ``--seconds / UNIT_S`` units, so its work is fixed by the
#: command line, never by how fast the host or the code happens to be
UNIT_S = {
    "recover-reexec": 20.0,
    "recover-revert": 10.0,
    "steady": 1.0,
    "cluster": 1.3,
}

EXPECTED_PATH = Path(__file__).with_name("expected.json")


@dataclass
class Env:
    """Where a workload reads time, and the tracer of a traced run."""

    clock: Callable[[], float] = perf_counter
    tracer: Optional[object] = None

    def phase(self, cell: str):
        """Tag a block for the tracer (see :meth:`tracer.Tracer.phase`);
        a no-op in an untraced run."""
        return nullcontext() if self.tracer is None else self.tracer.phase(cell)


@dataclass
class Run:
    """One workload run: metrics, checks and reproducible outputs."""

    #: time of the measured work (the trace-overhead base)
    work_s: float = 0.0
    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: output mismatches: a non-empty list makes the run incorrect
    errors: List[str] = field(default_factory=list)
    #: deterministic outputs (digests, attempts, reverted counts)
    outputs: Dict[str, object] = field(default_factory=dict)
    details: Dict[str, object] = field(default_factory=dict)


def units_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / UNIT_S[workload]))


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def latency_metrics(rounds: Sequence[Sequence[float]]) -> Dict[str, float]:
    """Throughput, p50 and p99 of each round's op latencies, as medians
    over rounds: a slow spell of the host then moves a minority of the
    rounds, not the figure."""
    per_round = []
    for lat in rounds:
        cuts = (statistics.quantiles(lat, n=100, method="inclusive")
                if len(lat) > 1 else list(lat) * 99)
        per_round.append((len(lat) / sum(lat), cuts[49] * 1e6, cuts[98] * 1e6))
    names = ("ops_per_s", "p50_us", "p99_us")
    return {
        name: statistics.median(r[i] for r in per_round)
        for i, name in enumerate(names)
    }


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------
def measure_setup(systems: Sequence[type], env: Env) -> float:
    """Median time of a cold set-up of ``systems``.

    A cold set-up drops the per-class static-artifact cache, so
    ``static_artifacts`` compiles, analyzes (PDG) and instruments the
    guest again, then boots one Arthas-attached adapter.
    """
    times = []
    for _ in range(SETUP_REPS):
        gc.collect()
        t0 = env.clock()
        for cls in systems:
            with env.phase(f"setup:{cls.NAME}"):
                SystemAdapter._static.pop(cls.NAME, None)
                cls.static_artifacts()
                cls(seed=0).start()
        times.append(env.clock() - t0)
    return statistics.median(times)


# ----------------------------------------------------------------------
# recovery workloads
# ----------------------------------------------------------------------
class CellProbe:
    """Timestamps inside one ``run_experiment`` call, from outside.

    Wraps the scenario instance's ``apply_op``/``manifest`` and the
    cell adapter's ``restart`` (instance attributes only, removed when
    the cell ends) to read the detection time, which ends the fault-free
    run-up, and the confirmation time — the first restart after
    detection, where ``recover_s`` starts.  ``on_confirm`` runs at
    confirmation.
    """

    def __init__(self, scenario, clock: Callable[[], float],
                 on_confirm: Callable[[], None] = lambda: None):
        self.scenario = scenario
        self._on_confirm = on_confirm
        self.t_detect: Optional[float] = None
        self.t_confirm: Optional[float] = None
        self._adapter = None
        self._clock = clock
        apply_op, manifest = scenario.apply_op, scenario.manifest

        def probe_apply(ctx, op):
            if self.t_detect is not None:
                return apply_op(ctx, op)
            self._watch(ctx.adapter)
            try:
                return apply_op(ctx, op)
            except Trap:
                self.t_detect = clock()
                raise

        def probe_manifest(ctx):
            if self.t_detect is None:
                self.t_detect = clock()
            return manifest(ctx)

        scenario.apply_op = probe_apply
        scenario.manifest = probe_manifest

    def _watch(self, adapter) -> None:
        if adapter is self._adapter:
            return
        self._adapter = adapter
        restart = adapter.restart

        def probe_restart():
            if self.t_detect is not None and self.t_confirm is None:
                self.t_confirm = self._clock()
                self._on_confirm()
            return restart()

        adapter.restart = probe_restart

    def remove(self) -> None:
        del self.scenario.apply_op
        del self.scenario.manifest


def run_cell(fid: str, solution: str, seed: int, env: Env) -> dict:
    """One ``run_experiment`` cell, timed from outside.  In a traced run
    the cell is tagged as untimed run-up until confirmation."""
    scenario = scenario_by_id(fid)
    tracer = env.tracer
    cell = f"{fid}/{solution}"
    on_confirm = (lambda: None) if tracer is None else (lambda: tracer.switch(cell))
    probe = CellProbe(scenario, env.clock, on_confirm)
    gc.collect()
    try:
        t0 = env.clock()
        if tracer is not None:
            with env.phase(f"runup:{cell}"):
                result = tracer.root("harness.run_experiment", run_experiment,
                                     scenario, solution, seed=seed)
        else:
            result = run_experiment(scenario, solution, seed=seed)
        t_end = env.clock()
    finally:
        probe.remove()
    m = result.mitigation
    return {
        "cell": cell,
        "manifested": result.manifested,
        "recovered": bool(m and m.recovered),
        "consistent": bool(m and m.consistent),
        "attempts": m.attempts if m else 0,
        "reverted": m.reverted_updates if m else 0,
        "total_updates": m.total_updates if m else 0,
        "discarded_pct": m.discarded_pct if m else 0.0,
        "digest": m.pool_digest if m else None,
        "wall_s": t_end - t0,
        "runup_s": (probe.t_detect or t_end) - t0,
        "recover_s": t_end - probe.t_confirm if probe.t_confirm else 0.0,
    }


def check_cell(cell: dict, expected: Optional[dict]) -> List[str]:
    """Compare one cell's outputs with the recorded ones.

    A cell recorded as inconsistent may come out consistent (the known
    exceptions may only shrink); otherwise digest, attempts and reverted
    count must repeat exactly.
    """
    name = cell["cell"]
    if expected is None:
        return [f"{name}: no recorded outputs for this cell seed"]
    if not cell["manifested"]:
        return [f"{name}: did not manifest"]
    if expected["consistent"] is False and cell["recovered"] and cell["consistent"]:
        return []
    errors = []
    for key in ("recovered", "consistent", "attempts", "reverted", "digest"):
        if cell[key] != expected[key]:
            errors.append(f"{name}: {key} {cell[key]!r} != recorded {expected[key]!r}")
    return errors


def recover_workload(workload: str, seed: int, cell_seed: int, units: int,
                     env: Env) -> Run:
    """Passes over the workload's cells; metrics are per-pass medians.

    Each cell is one recovery request: ``recover_s`` sums a pass's cells,
    and ``ops_per_s``/``p50_us``/``p99_us`` are recoveries per second and
    the recovery-latency percentiles.  The client ``seed`` does not reach
    these cells: a cell's seed sets how much recovery work it does
    (f17/arthas needs 75 re-executions at cell seed 0 and one at cell
    seed 1), so it is the fixed ``cell_seed``.
    """
    cells = RECOVER_CELLS[workload]
    expected = load_expected()["recover"].get(str(cell_seed), {})
    systems = sorted({scenario_by_id(f).adapter_cls() for f, _ in cells},
                     key=lambda c: c.NAME)
    run = Run()
    run.metrics["setup_s"] = measure_setup(systems, env)
    passes = [
        [run_cell(f, s, cell_seed, env) for f, s in cells] for _ in range(units)
    ]
    run.work_s = sum(c["wall_s"] for p in passes for c in p)
    run.metrics.update(
        recover_s=statistics.median(sum(c["recover_s"] for c in p) for p in passes),
        recovered_consistent=statistics.median(
            sum(c["recovered"] and c["consistent"] for c in p) / len(p)
            for p in passes
        ),
        peak_rss_mb=peak_rss_mb(),
        **latency_metrics([[c["recover_s"] for c in p] for p in passes]),
    )
    for p in passes:
        for cell in p:
            run.attempted += 1
            if not (cell["recovered"] and cell["consistent"]):
                run.failed += 1
            run.errors += check_cell(cell, expected.get(cell["cell"]))
    first = passes[0]
    run.outputs = {
        c["cell"]: {k: c[k] for k in ("attempts", "reverted", "digest", "consistent")}
        for c in first
    }
    run.details = {
        "passes": units,
        "runup_s": statistics.median(sum(c["runup_s"] for c in p) for p in passes),
        "reexec_attempts": sum(c["attempts"] for c in first),
        "discarded_pct": 100.0 * sum(c["reverted"] for c in first)
        / max(1, sum(c["total_updates"] for c in first)),
        "cells": [
            {k: (round(v, 4) if isinstance(v, float) else v) for k, v in c.items()}
            for c in first
        ],
    }
    return run


# ----------------------------------------------------------------------
# steady: closed-loop YCSB on six systems, Arthas attached
# ----------------------------------------------------------------------
def steady_workload(seed: int, cell_seed: int, units: int, env: Env) -> Run:
    """One client per system, interleaved on one thread, 50/50 read/update.

    Records are the keys the load phase stored.  Every round is
    ``STEADY_ROUND_OPS`` ops per system, then a crash, a restart and
    ``recover()`` on every system; each acknowledged write of the round
    is then read back against the oracle.  A final pass reads back every
    record.  The load and the read-backs are not timed.
    """
    systems = list(ALL_ADAPTERS.values())
    run = Run()
    run.metrics["setup_s"] = measure_setup(systems, env)
    clock = env.clock

    # load phase: records are what the system kept
    adapters = []
    oracles: List[Dict[int, int]] = []
    load_losses = {}
    with env.phase("load"):
        for cls in systems:
            adapter = cls(seed=seed)
            adapter.start()
            adapters.append(adapter)
            for key in range(STEADY_RECORDS):
                adapter.insert(key, VALUE_BASE + key)
            oracle = {
                key: VALUE_BASE + key for key in range(STEADY_RECORDS)
                if adapter.lookup(key) == VALUE_BASE + key
            }
            load_losses[adapter.NAME] = STEADY_RECORDS - len(oracle)
            oracles.append(oracle)
    records = [sorted(o) for o in oracles]
    streams = [
        YCSBWorkload(seed=seed * 1009 + i, keyspace=len(records[i]), read_ratio=0.5)
        for i in range(len(adapters))
    ]

    rounds: List[List[float]] = []
    recover_samples: List[float] = []
    next_value = VALUE_BASE + STEADY_RECORDS
    bad_reads = lost = bad_checks = 0
    for _ in range(units):
        ops = [list(s.run_ops(STEADY_ROUND_OPS)) for s in streams]
        lat: List[float] = []
        rounds.append(lat)
        written: List[Dict[int, int]] = [{} for _ in adapters]
        for i in range(STEADY_ROUND_OPS):
            for j, adapter in enumerate(adapters):
                op = ops[j][i]
                key = records[j][op.key]
                if op.kind is OpKind.GET:
                    t0 = clock()
                    got = adapter.lookup(key)
                    lat.append(clock() - t0)
                    if got != oracles[j][key]:
                        bad_reads += 1
                else:
                    next_value += 1
                    t0 = clock()
                    adapter.insert(key, next_value)
                    lat.append(clock() - t0)
                    oracles[j][key] = written[j][key] = next_value
        t0 = clock()
        for adapter in adapters:
            adapter.restart()
            adapter.recover()
        recover_samples.append(clock() - t0)
        with env.phase("check"):
            for j, adapter in enumerate(adapters):
                missing = sum(adapter.lookup(k) != v for k, v in written[j].items())
                lost += missing
                if missing or adapter.consistency_violations():
                    bad_checks += 1
    with env.phase("check"):
        for j, adapter in enumerate(adapters):
            lost += sum(adapter.lookup(k) != v for k, v in oracles[j].items())
        digests = {a.NAME: pool_digest(a.pool, a.allocator) for a in adapters}

    checks = units * len(adapters)
    n_ops = sum(len(lat) for lat in rounds)
    run.work_s = sum(map(sum, rounds)) + sum(recover_samples)
    run.attempted = n_ops + checks
    run.failed = bad_reads + lost + bad_checks
    run.metrics.update(
        recover_s=statistics.median(recover_samples),
        recovered_consistent=(checks - bad_checks) / checks,
        peak_rss_mb=peak_rss_mb(),
        **latency_metrics(rounds),
    )
    if bad_reads:
        run.errors.append(f"steady: {bad_reads} reads disagree with the oracle")
    if lost:
        run.errors.append(f"steady: {lost} acknowledged writes lost")
    if bad_checks:
        run.errors.append(f"steady: {bad_checks} of {checks} crash checks failed")
    run.outputs = digests
    run.details = {
        "rounds": units,
        "ops": n_ops,
        "lost_writes": lost,
        "load_losses": load_losses,
        "checkpoint_updates": {a.NAME: a.ckpt.log.total_updates for a in adapters},
    }
    return run


# ----------------------------------------------------------------------
# cluster: heal cells, then a client stream through a replicated cluster
# ----------------------------------------------------------------------
def heal_cells(cell_seed: int, env: Env, cell: str = "heal") -> dict:
    """One ``run_cluster_sweep`` over the heal cells, phases timed;
    ``cell`` tags it for the tracer."""
    phases = PhaseClock(env.clock)
    patches = Patches()
    tracer = env.tracer
    if tracer is None:
        install_heal_clock(patches, phases)
    gc.collect()
    try:
        t0 = env.clock()
        if tracer is not None:
            with env.phase(cell):
                report = tracer.root("harness.run_cluster_sweep",
                                     run_cluster_sweep, list(HEAL_FIDS),
                                     sweep_seed=cell_seed)
        else:
            report = run_cluster_sweep(list(HEAL_FIDS), sweep_seed=cell_seed)
        wall = env.clock() - t0
    finally:
        patches.remove()
    return {
        "wall_s": wall,
        "heal_s": sum(phases.seconds.values()),
        "cells": {
            c.fid: {"manifested": c.manifested, "converged": c.converged,
                    "digests_match": c.digests_match, "digests": list(c.digests)}
            for c in report.cells
        },
    }


def _client_round(seed: int, env: Env, lat: List[float]) -> dict:
    """One round of the client stream on a fresh cluster.

    The stream is ``bench_cluster``'s: over a keyspace of half the
    round's ops, 55% inserts and 20% lookups from the two clients in
    turn, 15% derived inserts into a second keyspace (client 1) and 10%
    deletes (client 0).  Every lookup and derived insert is checked
    against an oracle as it runs; after the round, untimed, each node's
    own view of both keyspaces is.
    """
    keyspace = max(16, CLUSTER_ROUND_OPS // 2)
    clock = env.clock
    with env.phase("load"):
        cluster = Cluster(n_nodes=3, n_clients=2, adapter_cls=MemcachedAdapter,
                          seed=seed, replication=3, replication_engine="delta")
        clients = [ClusterClient(cluster, i) for i in range(2)]
    rng = random.Random(seed)
    oracle: Dict[int, int] = {}
    bad = 0
    for i in range(CLUSTER_ROUND_OPS):
        key = rng.randrange(keyspace)
        roll = rng.random()
        if roll < 0.55:
            value = VALUE_BASE + i
            t0 = clock()
            clients[i % 2].insert(key, value)
            lat.append(clock() - t0)
            oracle[key] = value
        elif roll < 0.75:
            t0 = clock()
            got = clients[i % 2].lookup(key)
            lat.append(clock() - t0)
            bad += got != oracle.get(key, ABSENT)
        elif roll < 0.90:
            dst = key + keyspace
            t0 = clock()
            rec = clients[1].derived_insert(key, dst)
            lat.append(clock() - t0)
            if key in oracle:
                bad += rec is None
                oracle[dst] = oracle[key] + 1
            else:
                bad += rec is not None
        else:
            t0 = clock()
            clients[0].delete(key)
            lat.append(clock() - t0)
            oracle.pop(key, None)
    # replication == n_nodes: after a full replica round every node
    # holds every key, so each node's own view must match the oracle
    with env.phase("check"):
        cluster.drain()
        diverged = sum(
            node.lookup(key) != oracle.get(key, ABSENT)
            for node in cluster.nodes for key in range(2 * keyspace)
        )
        digests = [pool_digest(n.pool, n.allocator) for n in cluster.nodes]
    return {"bad": bad, "diverged": diverged, "digests": digests}


def cluster_workload(seed: int, cell_seed: int, units: int, env: Env) -> Run:
    """Heal cells, then rounds of a seeded mixed stream from two
    interleaved clients, each through a fresh 3-node, replication-3
    cluster on the delta engine."""
    heal_systems = {scenario_by_id(f).adapter_cls() for f in HEAL_FIDS}
    systems = sorted(heal_systems | {MemcachedAdapter}, key=lambda c: c.NAME)
    expected = load_expected()["cluster"].get(str(cell_seed), {})
    run = Run()
    run.metrics["setup_s"] = measure_setup(systems, env)
    heal_cells(cell_seed, env, cell="warmup")
    heals = [heal_cells(cell_seed, env) for _ in range(HEAL_REPS)]

    rounds: List[List[float]] = [[] for _ in range(units)]
    streams = [_client_round(seed * 1009 + r, env, lat)
               for r, lat in enumerate(rounds)]
    bad = sum(s["bad"] for s in streams)
    diverged = sum(s["diverged"] for s in streams)

    n_cells = len(HEAL_FIDS)
    converged = [sum(c["converged"] for c in h["cells"].values()) for h in heals]
    n_ops = sum(len(lat) for lat in rounds)
    run.work_s = sum(map(sum, rounds)) + sum(h["wall_s"] for h in heals)
    run.attempted = n_ops + n_cells * HEAL_REPS
    run.failed = bad + diverged + sum(n_cells - c for c in converged)
    run.metrics.update(
        recover_s=statistics.median(h["heal_s"] for h in heals),
        recovered_consistent=statistics.median(converged) / n_cells,
        peak_rss_mb=peak_rss_mb(),
        **latency_metrics(rounds),
    )
    if bad:
        run.errors.append(f"cluster: {bad} client reads disagree with the oracle")
    if diverged:
        run.errors.append(f"cluster: {diverged} replica reads disagree with the oracle")
    for h in heals:
        for fid, cell in h["cells"].items():
            want = expected.get(fid)
            if want is None:
                run.errors.append(f"heal {fid}: no recorded outputs for this cell seed")
            elif not cell["converged"]:
                run.errors.append(f"heal {fid}: did not converge")
            elif cell["digests"] != want["digests"]:
                run.errors.append(f"heal {fid}: digests {cell['digests']} != "
                                  f"recorded {want['digests']}")
    run.outputs = {
        "stream": [s["digests"] for s in streams],
        "heal": {fid: c["digests"] for fid, c in heals[0]["cells"].items()},
    }
    run.details = {
        "rounds": units,
        "ops": n_ops,
        "heal_wall_s": statistics.median(h["wall_s"] for h in heals),
        "cells_converged": converged,
    }
    return run


WORKLOADS = {
    "recover-reexec": lambda *a, **k: recover_workload("recover-reexec", *a, **k),
    "recover-revert": lambda *a, **k: recover_workload("recover-revert", *a, **k),
    "steady": steady_workload,
    "cluster": cluster_workload,
}
