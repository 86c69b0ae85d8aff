"""In-memory span tracing and timing probes, installed from outside ``src/``.

Both kinds of wrapper are put in place at run time by replacing
attributes on the program's classes and modules, and are taken out again
by :meth:`Patches.remove`; no file of the program changes.

* :class:`Tracer` records one span per wrapped call: name, start, end,
  parent span, cell id and self time (duration minus the time covered by
  child spans).  Spans stay in memory until :meth:`Tracer.dump`.  Work
  a workload does outside its measured section (set-up, a recovery
  cell's run-up, load, warm-up, output checks) runs under an untimed
  cell tag, so the per-layer figures can leave it out.
* :class:`PhaseClock` is the light probe the untraced run needs for its
  end-to-end metrics: it sums the wall time of a handful of coarse calls
  (the cluster heal phases), nothing else.

Per-word calls (``PMPool.read/write``, ``PMTrace.record``) are never
wrapped; their counts come from counters the program keeps anyway.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple


class Patches:
    """Attribute replacements that can all be undone."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def set(self, owner: object, name: str, value: object) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def method(self, cls: type, name: str, make: Callable) -> None:
        """Wrap ``name`` on ``cls`` and on every loaded subclass that
        overrides it, so an override calling ``super()`` nests."""
        for klass in [cls] + _subclasses(cls):
            if name in klass.__dict__:
                self.set(klass, name, make(klass.__dict__[name]))

    def function(self, module: str, name: str, make: Callable) -> None:
        """Wrap a module-level function everywhere it was imported."""
        original = getattr(importlib.import_module(module), name)
        wrapped = make(original)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("repro") and \
                    mod.__dict__.get(name) is original:
                self.set(mod, name, wrapped)

    def remove(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    @property
    def originals(self) -> List[Tuple[object, str, object]]:
        return list(self._undo)


def _subclasses(cls: type) -> List[type]:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


class PhaseClock:
    """Sums time per name over non-nested calls."""

    def __init__(self, clock: Callable[[], float] = perf_counter) -> None:
        self.clock = clock
        self.seconds: Dict[str, float] = defaultdict(float)

    def wrap(self, name: str, fn: Callable) -> Callable:
        seconds, clock = self.seconds, self.clock

        def timed(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[name] += clock() - t0

        return timed


#: cell tags of the work outside a workload's measured section
UNTIMED = ("setup:", "load", "warmup", "check", "runup:")


def is_untimed(cell: str) -> bool:
    return cell.startswith(UNTIMED)


class Tracer:
    """Spans at layer boundaries, plus counters read where the work runs."""

    def __init__(self, clock: Callable[[], float] = perf_counter) -> None:
        self.clock = clock
        #: finished spans: (name, start, end, parent index, cell, self_s)
        self.spans: List[Optional[tuple]] = []
        self._stack: List[int] = []
        #: (name, receiver) of each open span, parallel to ``_stack``
        self._open: List[Tuple[str, int]] = []
        self._child: List[float] = []
        self.cell = ""
        self.counts: Dict[str, int] = defaultdict(int)
        self.pool_stats: List[Dict[str, int]] = []
        #: counts and pool stats accrued inside untimed phases
        self.untimed_counts: Counter = Counter()
        self.untimed_stats: Counter = Counter()
        self._mark: Optional[Tuple[Counter, Counter]] = None
        self._vm_depth = 0
        self.patches = Patches()

    # ------------------------------------------------------------------
    def switch(self, cell: str) -> None:
        """Tag what follows with ``cell``.  While the tag is untimed, the
        counters and pool stats the work adds are set aside, so
        :meth:`measured_counts` and :meth:`measured_pool_stats` leave
        them out (its spans carry the tag and are left out by whoever
        reads them).  A span takes the tag current when it ends."""
        was, now = is_untimed(self.cell), is_untimed(cell)
        if now and not was:
            self._mark = (Counter(self.counts), self._pool_totals())
        elif was and not now:
            counts0, stats0 = self._mark
            self.untimed_counts.update(Counter(self.counts) - counts0)
            self.untimed_stats.update(self._pool_totals() - stats0)
        self.cell = cell

    @contextmanager
    def phase(self, cell: str):
        """Run a block under cell tag ``cell`` (see :meth:`switch`)."""
        outer = self.cell
        self.switch(cell)
        try:
            yield
        finally:
            self.switch(outer)

    def _pool_totals(self) -> Counter:
        totals: Counter = Counter()
        for stats in self.pool_stats:
            totals.update(stats)
        return totals

    def measured_counts(self) -> Counter:
        return Counter(self.counts) - self.untimed_counts

    def measured_pool_stats(self) -> Counter:
        return self._pool_totals() - self.untimed_stats

    # ------------------------------------------------------------------
    def wrap(self, name: str, fn: Callable, before=None, after=None) -> Callable:
        """A span around ``fn``; ``before(args)`` runs at entry and
        ``after(args, result)`` on normal return.

        A call made directly inside an open span of the same name on the
        same receiver (an override chaining to ``super()``, both
        wrapped) is part of that span: it gets no span and no hooks."""
        spans, stack, child, clock = self.spans, self._stack, self._child, self.clock
        opened = self._open

        def traced(*args, **kwargs):
            key = (name, id(args[0]) if args else 0)
            if opened and opened[-1] == key:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            opened.append(key)
            child.append(0.0)
            if before is not None:
                before(args)
            t0 = clock()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = clock()
                stack.pop()
                opened.pop()
                inner = child.pop()
                dur = t1 - t0
                if child:
                    child[-1] += dur
                spans[idx] = (name, t0, t1, parent, self.cell, dur - inner)
                if ok and after is not None:
                    after(args, result)

        return traced

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap the public calls of every layer."""
        from repro.checkpoint.log import CheckpointLog
        from repro.detector.monitor import Detector
        from repro.distributed.cluster import Cluster
        from repro.distributed.shardmgr import ShardManager
        from repro.instrument.tracer import PMTrace
        from repro.lang.interp import Machine
        from repro.pmem.pool import PMPool
        from repro.reactor.revert import Reverter
        from repro.reactor.server import ReactorServer
        from repro.systems.common import SystemAdapter

        p, counts = self.patches, self.counts

        def span(name, before=None, after=None):
            return lambda fn: self.wrap(name, fn, before, after)

        # lang: steps are read off the machine's own counter, once per
        # outermost call (a trapped call still ran its steps)
        def vm_call(fn):
            def call(machine, *args, **kwargs):
                outer = self._vm_depth == 0
                self._vm_depth += 1
                steps0 = machine.steps_executed
                try:
                    return fn(machine, *args, **kwargs)
                finally:
                    self._vm_depth -= 1
                    if outer:
                        counts["lang.steps"] += machine.steps_executed - steps0

            return self.wrap("lang.call", call)

        p.method(Machine, "call", vm_call)
        p.function("repro.lang.compiler", "compile_module", span("lang.compile"))

        # pmem: per-word counters live in each pool's stats dict
        def pool_init(fn):
            def init(pool, *args, **kwargs):
                fn(pool, *args, **kwargs)
                self.pool_stats.append(pool.stats)
            return init

        p.method(PMPool, "__init__", pool_init)
        p.method(PMPool, "epoch_undo", span("pmem.epoch_undo"))
        p.function("repro.pmem.poolcheck", "check_pool", span("pmem.check_pool"))

        # instrument: records are counted as they are flushed
        def trace_flush_enter(args):
            counts["instrument.records"] += len(args[0]._buffer)

        p.method(PMTrace, "flush", span("instrument.flush", trace_flush_enter))
        p.function("repro.instrument.passes", "instrument_module",
                   span("instrument.instrument"))

        p.method(CheckpointLog, "record_update", span("checkpoint.record_update"))
        p.method(CheckpointLog, "flush_staging", span("checkpoint.merge"))
        p.method(CheckpointLog, "update_seqs_for_address",
                 span("checkpoint.addr_query"))

        p.function("repro.analysis", "analyze_module", span("analysis.analyze"))

        p.method(Detector, "observe", span("detector.observe"))

        p.method(SystemAdapter, "restart", span("systems.restart"))
        p.method(SystemAdapter, "recover", span("systems.recover"))

        def plan_done(_args, plan):
            counts["reactor.plan_candidates"] += len(plan.candidates)
            counts["reactor.slice_size"] += plan.slice_size

        def revert_done(_args, mres):
            counts["reactor.reverted_updates"] += mres.discarded_updates

        p.method(ReactorServer, "compute_plan", span("reactor.plan", after=plan_done))
        for mode in ("purge", "rollback", "bisect"):
            p.method(Reverter, f"mitigate_{mode}",
                     span("reactor.revert", after=revert_done))

        p.function("repro.harness.supervisor", "pool_digest", span("harness.digest"))

        for name in ("insert", "delete", "lookup"):
            p.method(Cluster, name, span("distributed.op"))
        p.method(Cluster, "drain", span("distributed.drain"))
        p.method(Cluster, "compact", span("distributed.compact"))
        p.method(Cluster, "rebase_node", span("distributed.rebase"))
        for phase in HEAL_PHASES:
            p.method(ShardManager, phase, span(f"distributed.heal.{phase}"))

    def remove(self) -> None:
        self.patches.remove()

    # ------------------------------------------------------------------
    def root(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` under a root span (a recovery cell, a heal sweep)."""
        return self.wrap(name, fn)(*args, **kwargs)

    def finished(self) -> List[tuple]:
        return [s for s in self.spans if s is not None]

    def dump(self, path) -> None:
        """Write every span as one JSON line (gzip)."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            for i, s in enumerate(self.spans):
                if s is None:
                    continue
                name, t0, t1, parent, cell, self_s = s
                out.write(json.dumps(
                    [i, name, round(t0, 7), round(t1, 7), parent, cell,
                     round(self_s, 7)]
                ) + "\n")


HEAL_PHASES = ("promote", "mitigate", "rebuild", "cascade", "resync")


def install_heal_clock(patches: Patches, clock: PhaseClock) -> None:
    """The untraced run's heal probe: wall time per ShardManager phase."""
    from repro.distributed.shardmgr import ShardManager

    for phase in HEAL_PHASES:
        patches.method(ShardManager, phase,
                       lambda fn, phase=phase: clock.wrap(phase, fn))
