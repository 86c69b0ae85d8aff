"""The fused superinstruction VM engine vs the table-dispatch oracle.

``Machine(vm_engine="fused")`` — the default — compiles straight-line
runs of fusable opcodes into Python closures and elides single-use
temporaries into their consumers; ``vm_engine="table"`` is the original
per-step dict-dispatch interpreter, kept as the oracle (mirroring the
``PROBE_ENGINES`` pattern).  The two must be indistinguishable from
outside: identical results, identical ``steps_executed``, identical
fault attribution (trap type, iid, step of occurrence), identical
``HangTrap`` budget accounting — across compute kernels, trap programs
and all twelve real fault experiments.
"""

import pytest

from repro.analysis import analyze_module
from repro.errors import ArithmeticTrap, HangTrap, SegfaultTrap
from repro.harness.experiment import run_experiment
from repro.harness.supervisor import pool_digest
from repro.instrument.passes import instrument_module
from repro.instrument.tracer import PMTrace
from repro.lang.compiler import compile_module
from repro.lang.fuse import VM_ENGINES
from repro.lang.interp import CYCLE_ARM_STEPS, Machine

FIDS = [f"f{i}" for i in range(1, 13)]

_SPIN_SRC = """
def spin(n):
    s = 0
    for i in range(n):
        s = s + i * 3
        s = s ^ (i << 1)
        if s > 1000000:
            s = s % 65536
    return s
"""


def _run_both(src, fname, *args, step_budget=None):
    module = compile_module("t", src)
    outcomes = {}
    for engine in VM_ENGINES:
        machine = Machine(module, vm_engine=engine)
        result = machine.call(fname, *args, step_budget=step_budget)
        outcomes[engine] = (result, machine.steps_executed)
    return outcomes


def _trap_both(src, fname, trap_cls, *args):
    """Both engines trap identically: kind, iid and step of occurrence."""
    module = compile_module("t", src)
    observed = {}
    for engine in VM_ENGINES:
        machine = Machine(module, vm_engine=engine)
        with pytest.raises(trap_cls):
            machine.call(fname, *args)
        fault = machine.last_fault
        assert fault is not None, engine
        observed[engine] = (fault.kind, fault.iid, machine.steps_executed)
    assert observed["table"] == observed["fused"], observed
    return observed["fused"]


# ----------------------------------------------------------------------
# result + step parity
# ----------------------------------------------------------------------
def test_result_and_step_parity_on_compute_loop():
    outcomes = _run_both(_SPIN_SRC, "spin", 3000)
    assert outcomes["table"] == outcomes["fused"]
    assert outcomes["fused"][1] > 3000  # actually ran the loop


def test_parity_with_pm_loads_and_stores():
    src = """
def f(n):
    p = pm_alloc(8)
    s = 0
    for i in range(n):
        p[i % 8] = s + i
        persist(p + (i % 8), 1)
        s = s + p[i % 8]
    return s
"""
    outcomes = _run_both(src, "f", 200)
    assert outcomes["table"] == outcomes["fused"]


def test_parity_across_calls_and_branch_mix():
    src = """
def helper(a, b):
    if a > b:
        return a - b
    return b - a

def f(n):
    s = 0
    for i in range(n):
        s = s + helper(i, s % 97)
    return s
"""
    outcomes = _run_both(src, "f", 150)
    assert outcomes["table"] == outcomes["fused"]


# ----------------------------------------------------------------------
# exact fault attribution inside fused segments
# ----------------------------------------------------------------------
def test_segfault_in_fused_chain_attributes_the_load():
    # const + gep + load all sit in one fused segment; the trap must
    # carry the *load*'s iid and fire on the same step as the oracle
    src = "def f():\n    p = 12345\n    return p[2]\n"
    kind, _iid, _steps = _trap_both(src, "f", SegfaultTrap)
    assert kind == "segfault"


def test_store_segfault_parity():
    src = "def f():\n    p = 999999999\n    p[0] = 7\n    return 0\n"
    _trap_both(src, "f", SegfaultTrap)


def test_division_by_zero_mid_loop_parity():
    # the ZeroDivisionError raised by raw-coded arithmetic falls back to
    # table re-execution for exact ArithmeticTrap conversion
    src = """
def f(a):
    s = 0
    for i in range(5):
        s = s + 10 // a
    return s
"""
    _trap_both(src, "f", ArithmeticTrap, 0)


# ----------------------------------------------------------------------
# budget accounting: HangTrap on exactly the same step
# ----------------------------------------------------------------------
@pytest.mark.parametrize("budget", [7, 23, 50, 101])
def test_hang_budget_parity(budget):
    module = compile_module("t", _SPIN_SRC)
    steps = {}
    for engine in VM_ENGINES:
        machine = Machine(module, vm_engine=engine)
        with pytest.raises(HangTrap):
            machine.call("spin", 10_000, step_budget=budget)
        steps[engine] = machine.steps_executed
    assert steps["table"] == steps["fused"]


# ----------------------------------------------------------------------
# exact-cycle skips: the fused engine jumps whole periods of a loop that
# provably repeats its state; the table engine never skips (the oracle)
# ----------------------------------------------------------------------
_CYCLE_SRC = """
def setup():
    p = pm_alloc(4)
    p[0] = 5
    p[1] = 3
    persist(p, 2)
    set_root(p)
    return p

def spin():
    p = get_root()
    i = 0
    s = 0
    while p[0] > 0:
        i = (i + 1) % 11
        s = p[1] * i + s % 2
    return s

def idle():
    p = get_root()
    x = p[1]
    i = 0
    while x > 0:
        i = (i + 1) % 5
    return i

def rewrite():
    p = get_root()
    while p[0] > 0:
        p[1] = 3
    return 0

def vstore():
    p = get_root()
    v = valloc(2)
    while p[0] > 0:
        v[0] = 1
    return 0

def chatter():
    p = get_root()
    while p[0] > 0:
        emit("spin", p[1])
    return 0

def waiter():
    p = get_root()
    while p[0] > 0:
        thread_yield()
    return 1

def ping():
    p = get_root()
    n = 0
    while p[0] > 0:
        n = (n + 1) % 5
        thread_yield()
    return n
"""


@pytest.fixture(scope="module")
def cycle_module():
    module = compile_module("cyc", _CYCLE_SRC)
    instrument_module(module, analyze_module(module).pm)
    return module


def _hang(module, engine, fname, budget, background=(), tracer=True,
          hook_every=0):
    """Run ``fname`` into its HangTrap; everything an observer can see."""
    machine = Machine(module, vm_engine=engine)
    trace = PMTrace(flush_threshold=64)
    if tracer:
        machine.tracer = trace.record
    machine.call("setup")
    hooks = []
    if hook_every:
        machine.step_hook = lambda: hooks.append(
            (machine.steps_executed, machine.steps_skipped)
        )
        machine.step_hook_every = hook_every
    for name in background:
        machine.spawn(name)
    window = trace.open_window()
    with pytest.raises(HangTrap):
        machine.call(fname, step_budget=budget)
    fault = machine.last_fault
    seen = {
        "fault": (fault.iid, fault.kind, fault.message, fault.location,
                  fault.stack),
        "steps": machine.steps_executed,
        "digest": pool_digest(machine.pool, machine.allocator),
        "stats": {k: v for k, v in machine.pool.stats.items() if k != "reads"},
        "emitted": machine.emitted,
        "records": list(trace.records),
        "buffer": list(trace._buffer),
        "window": trace.close_window(window, flush=False),
    }
    return seen, machine, hooks


@pytest.mark.parametrize("budget", [40_001, 123_457, 400_000])
def test_cycle_skip_matches_the_oracle(cycle_module, budget):
    oracle, table, _ = _hang(cycle_module, "table", "spin", budget)
    fused, machine, _ = _hang(cycle_module, "fused", "spin", budget)
    assert table.steps_skipped == 0
    assert machine.steps_skipped > budget // 2
    # the trap, the step count, the pool and the trace — durable pairs
    # in first-flushed order, the buffered tail, the open window — are
    # all those of the full run
    assert fused == oracle
    assert oracle["records"] and oracle["buffer"]


def test_cycle_that_records_nothing_leaves_the_buffer_alone(cycle_module):
    # the pairs buffered before the loop stay buffered, as in the full
    # run (a crash would drop them): a flush at the skip would make
    # them durable instead
    oracle, _, _ = _hang(cycle_module, "table", "idle", 50_000)
    fused, machine, _ = _hang(cycle_module, "fused", "idle", 50_000)
    assert machine.steps_skipped > 0
    assert oracle["buffer"] and not oracle["window"]
    assert fused == oracle


def test_cycle_skip_needs_room_for_a_whole_period(cycle_module):
    budget = CYCLE_ARM_STEPS + 800
    oracle, _, _ = _hang(cycle_module, "table", "spin", budget)
    fused, machine, _ = _hang(cycle_module, "fused", "spin", budget)
    assert machine.steps_skipped == 0
    assert fused == oracle


def test_cycle_skip_without_a_tracer(cycle_module):
    oracle, _, _ = _hang(cycle_module, "table", "spin", 50_000, tracer=False)
    fused, machine, _ = _hang(cycle_module, "fused", "spin", 50_000,
                              tracer=False)
    assert machine.steps_skipped > 0
    assert fused == oracle


def test_opaque_tracer_turns_the_skip_off(cycle_module):
    machine = Machine(cycle_module)
    calls = []
    machine.tracer = lambda guid, addr: calls.append(addr)
    machine.call("setup")
    with pytest.raises(HangTrap):
        machine.call("spin", step_budget=50_000)
    assert machine.steps_skipped == 0


@pytest.mark.parametrize("fname", ["rewrite", "vstore", "chatter"])
def test_mutating_loops_are_never_skipped(cycle_module, fname):
    # same PM value rewritten, a volatile store, an emit: each moves the
    # mutation generation, so the loop state never provably repeats
    oracle, _, _ = _hang(cycle_module, "table", fname, 60_000)
    fused, machine, _ = _hang(cycle_module, "fused", fname, 60_000)
    assert machine.steps_skipped == 0
    assert fused == oracle


def test_step_hook_schedule_across_a_skip(cycle_module):
    every = 5_000
    oracle, _, oracle_hooks = _hang(cycle_module, "table", "spin", 100_000,
                                    hook_every=every)
    fused, machine, hooks = _hang(cycle_module, "fused", "spin", 100_000,
                                  hook_every=every)
    assert fused == oracle
    skipped = machine.steps_skipped
    assert skipped > 0
    # the hook keeps its schedule on ``steps_executed``: due every
    # ``every`` steps, fired at the first segment boundary past the due
    # point, and fired once for the skipped stretch (which it spans)
    steps = [s for s, _ in hooks]
    gaps = [b - a for a, b in zip(steps, steps[1:])]
    assert all(g >= every for g in gaps)
    spans = [
        g for g, (_, before), (_, after) in zip(gaps, hooks, hooks[1:])
        if before != after
    ]
    assert len(spans) == 1 and spans[0] > skipped
    assert all(g < every + 64 for g in gaps if g not in spans)
    assert steps[0] < every + 64
    assert len(hooks) < len(oracle_hooks)


def test_cycle_skip_with_a_background_thread(cycle_module):
    oracle, _, _ = _hang(cycle_module, "table", "ping", 90_001,
                         background=["waiter"])
    fused, machine, _ = _hang(cycle_module, "fused", "ping", 90_001,
                              background=["waiter"])
    assert machine.steps_skipped > 0
    assert fused == oracle


# ----------------------------------------------------------------------
# engine selection plumbing
# ----------------------------------------------------------------------
def test_unknown_vm_engine_rejected():
    module = compile_module("t", "def f():\n    return 1\n")
    with pytest.raises(ValueError):
        Machine(module, vm_engine="nope")


def test_default_engine_is_fused():
    module = compile_module("t", "def f():\n    return 1\n")
    assert Machine(module).vm_engine == "fused"


# ----------------------------------------------------------------------
# equivalence on the real fault experiments
# ----------------------------------------------------------------------
@pytest.mark.parametrize("fid", FIDS)
def test_engines_equivalent_on_real_faults(fid):
    """Both engines end every real experiment in the same final state.

    ``pool_digest`` fingerprints the durable image + allocator metadata,
    so digest equality is byte-level state equality.  The consistency
    probe is skipped: the digest is taken before it and the probe
    roughly doubles the runtime.
    """
    runs = [
        run_experiment(
            fid, "arthas-bi", seed=0, consistency_probe=False,
            vm_engine=engine,
        ).mitigation
        for engine in ("fused", "table")
    ]
    a, b = runs
    assert a is not None and b is not None
    assert a.recovered and b.recovered
    assert a.pool_digest == b.pool_digest
    assert (a.attempts, a.reverted_updates, a.notes) == (
        b.attempts, b.reverted_updates, b.notes
    )
