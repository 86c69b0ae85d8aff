"""Tests for whole-pool snapshot/restore (the pmCRIU substrate)."""

from repro.pmem.pool import PM_BASE, PMPool
from repro.pmem.snapshot import restore_snapshot, take_snapshot


def test_snapshot_restore_roundtrip(pool, allocator):
    a = allocator.zalloc(4)
    pool.write(a, 7)
    pool.persist(a, 1)
    snap = take_snapshot(pool, allocator, taken_at=12.5, label="ckpt1")
    pool.write(a, 99)
    pool.persist(a, 1)
    b = allocator.zalloc(4)
    restore_snapshot(pool, snap, allocator)
    assert pool.read(a) == 7
    assert allocator.is_allocated(a)
    assert not allocator.is_allocated(b)
    assert snap.taken_at == 12.5
    assert snap.label == "ckpt1"


def test_snapshot_excludes_unpersisted_writes(pool, allocator):
    a = allocator.zalloc(2)
    pool.write(a, 5)  # buffered only
    snap = take_snapshot(pool, allocator)
    pool.crash()
    restore_snapshot(pool, snap, allocator)
    assert pool.read(a) == 0


def test_snapshot_size_counts_nonzero_words(pool):
    pool.durable_write(PM_BASE + 1, 5)
    pool.durable_write(PM_BASE + 2, 6)
    snap = take_snapshot(pool)
    assert snap.size_words() == 2


def test_restore_clears_later_state(pool):
    snap = take_snapshot(pool)
    pool.durable_write(PM_BASE + 3, 9)
    restore_snapshot(pool, snap)
    assert pool.read(PM_BASE + 3) == 0


# ----------------------------------------------------------------------
# dirty-word epoch snapshots (the incremental-probe substrate)
# ----------------------------------------------------------------------

import pytest

from repro.errors import PoolError
from repro.pmem.snapshot import (
    restore_epoch_snapshot,
    take_epoch_snapshot,
)


def test_epoch_snapshot_restores_only_dirty_words(pool, allocator):
    a = allocator.zalloc(8)
    for i in range(8):
        pool.write(a + i, 10 + i)
    pool.persist(a, 8)
    snap = take_epoch_snapshot(pool, allocator, taken_at=3.0, label="ep")
    # mutate a small subset; the epoch only tracks those words
    pool.write(a + 2, 999)
    pool.persist(a + 2, 1)
    pool.durable_write(a + 5, 888)
    assert snap.dirty_words(pool) == 2
    restored = restore_epoch_snapshot(pool, snap, allocator)
    assert restored == 2
    assert [pool.read(a + i) for i in range(8)] == list(range(10, 18))
    assert snap.taken_at == 3.0 and snap.label == "ep"


def test_epoch_restore_matches_full_snapshot_restore(pool, allocator):
    """Epoch undo and full restore leave *identical* durable dicts —
    including the absent-vs-explicit-zero distinction."""
    a = allocator.zalloc(6)
    pool.durable_write(a, 1)
    pool.durable_write(a + 1, 0)  # explicit zero entry stays an entry
    full = take_snapshot(pool, allocator)
    epoch = take_epoch_snapshot(pool, allocator)
    pool.durable_write(a, 7)
    pool.durable_write(a + 1, 7)
    pool.durable_write(a + 2, 7)  # previously absent
    restore_epoch_snapshot(pool, epoch, allocator)
    after_epoch = pool.durable_items()
    pool.durable_write(a, 7)
    pool.durable_write(a + 1, 7)
    pool.durable_write(a + 2, 7)
    restore_snapshot(pool, full, allocator)
    assert pool.durable_items() == after_epoch


def test_epoch_undo_is_lifo_only(pool):
    outer = pool.open_epoch()
    inner = pool.open_epoch()
    with pytest.raises(PoolError):
        pool.epoch_undo(outer)
    pool.epoch_undo(inner)
    pool.epoch_undo(outer)
    with pytest.raises(PoolError):
        pool.epoch_undo(outer)  # already closed


def test_nested_epoch_undo_restores_each_level(pool):
    addr = PM_BASE + 10
    pool.durable_write(addr, 1)
    outer = pool.open_epoch()
    pool.durable_write(addr, 2)
    inner = pool.open_epoch()
    pool.durable_write(addr, 3)
    pool.epoch_undo(inner)
    assert pool.read(addr) == 2
    pool.epoch_undo(outer)
    assert pool.read(addr) == 1


def test_epoch_undo_keep_open_continues_tracking(pool):
    addr = PM_BASE + 20
    tok = pool.open_epoch()
    pool.durable_write(addr, 5)
    pool.epoch_undo(tok, close=False)
    assert pool.read(addr) == 0
    pool.durable_write(addr, 6)
    assert pool.epoch_dirty_words(tok) == 1
    pool.epoch_undo(tok)
    assert pool.read(addr) == 0


def test_epoch_undo_restores_explicit_zero_after_wholesale_load(pool):
    """``load_durable`` turning an explicit 0 entry absent is a durable
    change: undo brings the entry back, not just the value."""
    addr = PM_BASE + 30
    pool.load_durable({addr: 0})
    outer = pool.open_epoch()
    inner = pool.open_epoch()
    pool.load_durable({})
    pool.epoch_undo(inner, close=False)
    assert pool.durable_items() == {addr: 0}
    pool.load_durable({})
    assert pool.epoch_undo(inner) == 1
    assert pool.epoch_undo(outer) == 1
    assert pool.durable_items() == {addr: 0}


def test_closing_newer_epoch_keeps_older_pre_image(pool):
    addr = PM_BASE + 40
    outer = pool.open_epoch()
    pool.durable_write(addr, 1)
    inner = pool.open_epoch()
    pool.durable_write(addr, 2)
    pool.close_epoch(inner)
    assert pool.epoch_dirty_words(outer) == 1
    pool.epoch_undo(outer)
    assert pool.durable_items() == {}


def test_epoch_snapshot_captures_allocator_meta(pool, allocator):
    a = allocator.zalloc(4)
    snap = take_epoch_snapshot(pool, allocator)
    b = allocator.zalloc(4)
    allocator.free(a)
    restore_epoch_snapshot(pool, snap, allocator)
    assert allocator.is_allocated(a)
    assert not allocator.is_allocated(b)


# ----------------------------------------------------------------------
# the pool's epochs against the eager epoch model
# ----------------------------------------------------------------------

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)


class EagerEpochModel:
    """Reference epoch bookkeeping: every durable mutation records its
    pre-image in *every* open epoch (first write wins), and undo records
    each restored word into the remaining epochs.  Quadratic in nesting
    depth, but each epoch's dirty set is simply its own dict — the
    meaning the pool's innermost-only recording must reproduce."""

    def __init__(self) -> None:
        self.durable: dict = {}
        self.epochs: dict = {}

    def _note(self, addr: int) -> None:
        for pre in self.epochs.values():
            if addr not in pre:
                pre[addr] = self.durable.get(addr)

    def put(self, addr: int, value: int) -> None:
        """A durable write (``durable_write`` or a fenced store)."""
        self._note(addr)
        if value == 0:
            self.durable.pop(addr, None)
        else:
            self.durable[addr] = value

    def load(self, items: dict) -> None:
        for addr in set(self.durable) | set(items):
            if self.durable.get(addr) != items.get(addr):
                self._note(addr)
        self.durable = dict(items)

    def open(self, token: int) -> None:
        self.epochs[token] = {}

    def undo(self, token: int, close: bool) -> int:
        assert token == next(reversed(self.epochs))
        pre = self.epochs.pop(token)
        for addr, value in pre.items():
            for other in self.epochs.values():
                if addr not in other:
                    other[addr] = self.durable.get(addr)
            if value is None:
                self.durable.pop(addr, None)
            else:
                self.durable[addr] = value
        if not close:
            self.epochs[token] = {}
        return len(pre)

    def close(self, token: int) -> None:
        self.epochs.pop(token)

    def capture(self, token: int) -> dict:
        delta = {a: self.durable.get(a, 0) for a in self.epochs[token]}
        self.close(token)
        return delta


#: eight words across a cache-line boundary: few enough that epochs
#: keep colliding on the same word, and fences write back neighbours
_LO, _HI = PM_BASE + 5, PM_BASE + 12
_ADDRS = st.integers(_LO, _HI)
_VALUES = st.integers(0, 3)


class EpochOracleMachine(RuleBasedStateMachine):
    """Random epoch workloads, compared against the eager model after
    every step: the durable dict (absent vs explicit 0 included), every
    undo's return value, each open epoch's dirty-word count and every
    captured delta."""

    @initialize()
    def setup(self):
        self.pool = PMPool(64, name="oracle")
        self.model = EagerEpochModel()
        self.tokens: list = []

    @rule()
    def open_epoch(self):
        token = self.pool.open_epoch()
        self.model.open(token)
        self.tokens.append(token)

    @rule(addr=_ADDRS, value=_VALUES)
    def durable_write(self, addr, value):
        self.pool.durable_write(addr, value)
        self.model.put(addr, value)

    @rule(addr=_ADDRS, values=st.lists(_VALUES, min_size=1, max_size=4))
    def write_persist(self, addr, values):
        values = values[: _HI + 1 - addr]
        self.pool.write_range(addr, values)
        self.pool.persist(addr, len(values))
        for i, value in enumerate(values):
            self.model.put(addr + i, value)

    @rule(items=st.dictionaries(_ADDRS, _VALUES, max_size=8))
    def load_durable(self, items):
        self.pool.load_durable(items)
        self.model.load(items)

    @precondition(lambda self: self.tokens)
    @rule(close=st.booleans())
    def undo_newest(self, close):
        token = self.tokens[-1]
        assert self.pool.epoch_undo(token, close=close) == self.model.undo(
            token, close
        )
        if close:
            self.tokens.pop()

    @precondition(lambda self: self.tokens)
    @rule(data=st.data())
    def close_any(self, data):
        token = data.draw(st.sampled_from(self.tokens))
        self.pool.close_epoch(token)
        self.model.close(token)
        self.tokens.remove(token)

    @precondition(lambda self: self.tokens)
    @rule(data=st.data())
    def capture_any(self, data):
        token = data.draw(st.sampled_from(self.tokens))
        delta = self.pool.capture_epoch_delta(token)
        assert delta == self.model.capture(token)
        self.tokens.remove(token)

    @invariant()
    def same_state(self):
        assert self.pool.durable_items() == self.model.durable
        for token in self.tokens:
            assert self.pool.epoch_dirty_words(token) == len(
                self.model.epochs[token]
            )


EpochOracleMachine.TestCase.settings = settings(
    max_examples=200, stateful_step_count=40, deadline=None
)
TestEpochsMatchEagerModel = EpochOracleMachine.TestCase
