"""Outside-in benchmark of the Arthas reproduction: one command per run.

    python3 perfbench/run.py --workload steady --seed 3 --seconds 12 --trace 0

Run from the repository root.  ``--seconds`` fixes the amount of work
(``workloads.UNIT_S``); every duration is read from a
:class:`~hostclock.HostClock`, in seconds at a reference host speed.
``--trace 0`` measures the end-to-end metrics with nothing but coarse
timing probes attached.  ``--trace 1`` runs half that work twice on the
same inputs, first untraced, then with every layer's public calls
wrapped in spans, and reports the per-layer metrics, each layer's self
time and the tracing overhead.  The last line of standard output is the
result object; the line before it carries provenance and per-cell
details.  Results and spans are also written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from hostclock import LOOP, HostClock, calibration_loop
from tracer import Tracer, is_untimed

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(".perfbench")

SYSTEMS = ("memcached", "redis", "cceh", "pelikan", "pmemkv", "levelhash")
LAYERS = ("lang", "pmem", "instrument", "checkpoint", "analysis", "detector",
          "systems", "reactor", "harness", "distributed")

END_TO_END = {
    "setup_s": "s",
    "recover_s": "s",
    "recovered_consistent": "fraction",
    "ops_per_s": "1/s",
    "p50_us": "us",
    "p99_us": "us",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict:
    units = {
        "lang.call_self_s": "s", "lang.calls": "count", "lang.steps": "count",
        "lang.steps_per_s": "1/s",
        "pmem.reads": "count", "pmem.writes": "count", "pmem.flushes": "count",
        "pmem.fences": "count", "pmem.persisted_words": "count",
        "pmem.epoch_undo_s": "s", "pmem.epoch_undos": "count",
        "pmem.check_pool_s": "s",
        "instrument.records": "count", "instrument.flush_s": "s",
        "instrument.flushes": "count",
        "checkpoint.updates": "count", "checkpoint.record_s": "s",
        "checkpoint.merges": "count", "checkpoint.merge_s": "s",
        "checkpoint.addr_queries": "count", "checkpoint.addr_query_s": "s",
        "detector.observes": "count", "detector.observe_self_s": "s",
        "systems.restarts": "count", "systems.restart_self_s": "s",
        "systems.recover_self_s": "s",
        "reactor.plans": "count", "reactor.plan_s": "s",
        "reactor.plan_candidates": "count", "reactor.slice_size": "count",
        "reactor.revert_self_s": "s", "reactor.reverted_updates": "count",
        "harness.runup_s": "s", "harness.digest_s": "s",
        "harness.reexec_attempts": "count", "harness.discarded_pct": "%",
        "distributed.op_self_s": "s", "distributed.drains": "count",
        "distributed.drain_s": "s", "distributed.compact_s": "s",
        "distributed.rebase_s": "s",
        "trace_overhead": "ratio",
    }
    for phase in ("promote", "mitigate", "rebuild", "cascade", "resync"):
        units[f"distributed.heal.{phase}_s"] = "s"
    for system in SYSTEMS:
        units[f"lang.compile_s.{system}"] = "s"
        units[f"analysis.analyze_s.{system}"] = "s"
        units[f"instrument.instrument_s.{system}"] = "s"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    return units


# ----------------------------------------------------------------------
# provenance
# ----------------------------------------------------------------------
def calibration_score() -> float:
    """Iterations per second of the fixed calibration loop (median of 5)."""
    rates = []
    for _ in range(5):
        t0 = time.perf_counter()
        calibration_loop(LOOP * 50)
        rates.append(LOOP * 50 / (time.perf_counter() - t0))
    return statistics.median(rates)


def source_digest() -> str:
    """SHA-256 over every file under ``src/repro``, path and content."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def provenance(args) -> dict:
    return {
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "calibration_loops_per_s": round(calibration_score()),
        "workload": args.workload,
        "seed": args.seed,
        "cell_seed": args.cell_seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ----------------------------------------------------------------------
# per-layer metrics from the spans
# ----------------------------------------------------------------------
def layer_metrics(tracer, traced, plain, setup_reps: int) -> dict:
    """Per-layer metrics of the measured work; a span's layer is its name
    up to the first dot, a module under ``src/repro``.

    Spans, counts and pool stats of untimed phases (load, warm-up,
    output checks) are left out; set-up spans feed only the per-system
    set-up figures."""
    spans = tracer.finished()
    by_index = {i: s for i, s in enumerate(tracer.spans) if s is not None}
    count = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    layer_self = defaultdict(float)
    setup = defaultdict(float)
    vm_outer = 0.0
    for name, t0, t1, parent, cell, own in spans:
        if cell.startswith("setup:"):
            setup[(name, cell[len("setup:"):])] += t1 - t0
        if is_untimed(cell):
            continue
        count[name] += 1
        total[name] += t1 - t0
        self_s[name] += own
        layer_self[name.split(".", 1)[0]] += own
        if name == "lang.call" and (parent < 0 or by_index[parent][0] != "lang.call"):
            vm_outer += t1 - t0
    stats = tracer.measured_pool_stats()
    c = tracer.measured_counts()
    m = {
        "lang.call_self_s": self_s["lang.call"],
        "lang.calls": count["lang.call"],
        "lang.steps": c["lang.steps"],
        "lang.steps_per_s": c["lang.steps"] / vm_outer if vm_outer else 0.0,
        "pmem.reads": stats["reads"],
        "pmem.writes": stats["writes"],
        "pmem.flushes": stats["flushes"],
        "pmem.fences": stats["fences"],
        "pmem.persisted_words": stats["persisted_words"],
        "pmem.epoch_undo_s": total["pmem.epoch_undo"],
        "pmem.epoch_undos": count["pmem.epoch_undo"],
        "pmem.check_pool_s": total["pmem.check_pool"],
        "instrument.records": c["instrument.records"],
        "instrument.flush_s": total["instrument.flush"],
        "instrument.flushes": count["instrument.flush"],
        "checkpoint.updates": count["checkpoint.record_update"],
        "checkpoint.record_s": total["checkpoint.record_update"],
        "checkpoint.merges": count["checkpoint.merge"],
        "checkpoint.merge_s": total["checkpoint.merge"],
        "checkpoint.addr_queries": count["checkpoint.addr_query"],
        "checkpoint.addr_query_s": total["checkpoint.addr_query"],
        "detector.observes": count["detector.observe"],
        "detector.observe_self_s": self_s["detector.observe"],
        "systems.restarts": count["systems.restart"],
        "systems.restart_self_s": self_s["systems.restart"],
        "systems.recover_self_s": self_s["systems.recover"],
        "reactor.plans": count["reactor.plan"],
        "reactor.plan_s": total["reactor.plan"],
        "reactor.plan_candidates": c["reactor.plan_candidates"],
        "reactor.slice_size": c["reactor.slice_size"],
        "reactor.revert_self_s": self_s["reactor.revert"],
        "reactor.reverted_updates": c["reactor.reverted_updates"],
        "harness.runup_s": traced.details.get("runup_s", 0.0),
        "harness.digest_s": total["harness.digest"],
        "harness.reexec_attempts": traced.details.get("reexec_attempts", 0),
        "harness.discarded_pct": traced.details.get("discarded_pct", 0.0),
        "distributed.op_self_s": self_s["distributed.op"],
        "distributed.drains": count["distributed.drain"],
        "distributed.drain_s": total["distributed.drain"],
        "distributed.compact_s": total["distributed.compact"],
        "distributed.rebase_s": total["distributed.rebase"],
        "trace_overhead": traced.work_s / plain.work_s,
    }
    for phase in ("promote", "mitigate", "rebuild", "cascade", "resync"):
        m[f"distributed.heal.{phase}_s"] = total[f"distributed.heal.{phase}"]
    for system in SYSTEMS:
        m[f"lang.compile_s.{system}"] = setup[("lang.compile", system)] / setup_reps
        m[f"analysis.analyze_s.{system}"] = setup[("analysis.analyze", system)] / setup_reps
        m[f"instrument.instrument_s.{system}"] = (
            setup[("instrument.instrument", system)] / setup_reps
        )
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    return m


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of the client streams (steady, cluster)")
    parser.add_argument("--seconds", type=float, default=12.0,
                        help="sets the amount of work (workloads.UNIT_S)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cell-seed", type=int, default=0,
                        help="seed of the fault cells; 0 is the default, "
                             "1 and 2 are held out")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"perfbench: no program sources at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; pick from "
                     f"{sorted(workloads.WORKLOADS)}")
    if str(args.cell_seed) not in workloads.load_expected()["recover"]:
        parser.error(f"no recorded outputs for cell seed {args.cell_seed}")
    run_workload = workloads.WORKLOADS[args.workload]
    units = workloads.units_for(args.workload, args.seconds)
    stamp = provenance(args)

    with HostClock() as host:
        t0 = time.perf_counter()
        if args.trace == 0:
            env = workloads.Env(clock=host.now)
            run = run_workload(args.seed, args.cell_seed, units, env)
            metrics = {k: {"value": run.metrics[k], "unit": u}
                       for k, u in END_TO_END.items()}
            errors = run.errors
        else:
            units = max(1, units // 2)
            plain = run_workload(args.seed, args.cell_seed, units,
                                 workloads.Env(clock=host.now))
            tracer = Tracer(clock=host.now)
            tracer.install()
            try:
                run = run_workload(args.seed, args.cell_seed, units,
                                   workloads.Env(clock=host.now, tracer=tracer))
            finally:
                tracer.remove()
            values = layer_metrics(tracer, run, plain, workloads.SETUP_REPS)
            metrics = {k: {"value": values[k], "unit": u}
                       for k, u in per_layer_units().items()}
            errors = plain.errors + run.errors
            if run.outputs != plain.outputs:
                errors.append("tracing changed the program's outputs")
        stamp["wall_s"] = round(time.perf_counter() - t0, 3)
        stamp["host_speed"] = round(host.speed(), 4)
    stamp["units"] = units

    result = {
        "correct": not errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    info = {"provenance": stamp, "errors": errors, "details": run.details}
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-cell{args.cell_seed}-trace{args.trace}"
    (OUT_DIR / f"{tag}.json").write_text(json.dumps({**info, "result": result},
                                                    indent=1, default=str))
    if args.trace == 1:
        tracer.dump(OUT_DIR / f"{tag}.spans.jsonl.gz")
    print(json.dumps(info, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
