"""Word-addressable persistent memory pool with a CPU write-buffer model.

The model follows how real PM behaves underneath ``clwb``/``sfence``:

* ``write`` puts the value in a volatile write buffer (the "CPU cache").
  Reads see the buffer first, so the running program always observes its
  own latest stores.
* ``flush`` stages the cache lines overlapping a range for writeback.
* ``fence`` makes every staged line durable and fires persist hooks.
* ``persist`` is the common ``flush + fence`` pair (``pmem_persist``).
* ``crash`` throws away the write buffer and staged lines; only durable
  words survive — exactly the semantics that turn soft faults into hard
  faults when a bad value *was* persisted.

Persist hooks are how the Arthas checkpoint manager observes the program's
own persistence points (Section 4.2 of the paper): a hook fires once per
explicitly persisted range, after the range is durable, with the durable
values.  Hook granularity therefore matches the granularity the target
program chose, which is what makes rollback consistent (Section 4.6).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro import faultinject
from repro.errors import InjectedCrash, PoolError

#: First valid persistent word address.  Everything below is volatile space
#: (or NULL); keeping the ranges disjoint lets analyses and the leak
#: detector classify an address by value alone.
PM_BASE = 0x1000_0000

#: Words per simulated cache line (8 words x 8 bytes = 64-byte lines).
WORDS_PER_LINE = 8

#: Type of a persist hook: (addr, nwords, values, tag) -> None.  ``tag`` is
#: an opaque string the writer supplied (e.g. "persist", "tx-commit").
PersistHook = Callable[[int, int, List[int], str], None]


class PMPool:
    """A simulated persistent memory pool.

    Parameters
    ----------
    size_words:
        Capacity of the pool in words.
    name:
        Pool name, used in error messages and snapshots.
    """

    def __init__(self, size_words: int, name: str = "pool"):
        if size_words <= 0:
            raise PoolError(f"pool size must be positive, got {size_words}")
        self.name = name
        self.size_words = size_words
        #: durable words: addr -> value (sparse; absent means 0)
        self._durable: Dict[int, int] = {}
        #: CPU write buffer: addr -> value, not yet durable
        self._cache: Dict[int, int] = {}
        #: line indices staged by flush but not yet fenced
        self._staged_lines: set[int] = set()
        #: explicit (addr, nwords, tag) ranges awaiting the next fence
        self._pending_ranges: List[Tuple[int, int, str]] = []
        self._persist_hooks: List[PersistHook] = []
        #: open dirty-word epochs, token -> :class:`_Epoch`.  Insertion
        #: order is open order; undo must be LIFO.  A pre-image is
        #: recorded in the *innermost* epoch only and handed to the
        #: next-older one when its holder leaves, so an epoch's dirty set
        #: is its own words plus those of every newer open epoch.
        self._epochs: Dict[int, _Epoch] = {}
        #: the innermost epoch's ``pre`` dict, or None with no epoch
        #: open: the hot persist path pays one ``is not None`` check per
        #: durable word
        self._epoch_top: Optional[Dict[int, Optional[int]]] = None
        self._epoch_next = 1
        # statistics used by the overhead model and tests
        self.stats = {
            "writes": 0,
            "reads": 0,
            "flushes": 0,
            "fences": 0,
            "skipped_flushes": 0,
            "skipped_fences": 0,
            "persisted_words": 0,
            "crashes": 0,
        }

    # ------------------------------------------------------------------
    # address helpers
    # ------------------------------------------------------------------
    def contains(self, addr: int) -> bool:
        """Return True if ``addr`` is a valid word address in this pool."""
        return PM_BASE <= addr < PM_BASE + self.size_words

    def _check(self, addr: int, nwords: int = 1) -> None:
        if nwords < 0:
            raise PoolError(f"negative range length {nwords}")
        if not self.contains(addr) or not (
            nwords == 0 or self.contains(addr + nwords - 1)
        ):
            raise PoolError(
                f"address range [{addr:#x}, +{nwords}) outside pool "
                f"{self.name} [{PM_BASE:#x}, {PM_BASE + self.size_words:#x})"
            )

    @staticmethod
    def line_of(addr: int) -> int:
        """Return the cache-line index containing a word address."""
        return addr // WORDS_PER_LINE

    # ------------------------------------------------------------------
    # load / store
    # ------------------------------------------------------------------
    def read(self, addr: int) -> int:
        """Read one word, observing un-persisted stores (cache first)."""
        if not PM_BASE <= addr < PM_BASE + self.size_words:
            self._check(addr)  # raises
        self.stats["reads"] += 1
        if addr in self._cache:
            return self._cache[addr]
        return self._durable.get(addr, 0)

    def write(self, addr: int, value: int) -> None:
        """Store one word into the write buffer (not yet durable)."""
        if not PM_BASE <= addr < PM_BASE + self.size_words:
            self._check(addr)  # raises
        self.stats["writes"] += 1
        self._cache[addr] = value

    def read_range(self, addr: int, nwords: int) -> List[int]:
        """Read ``nwords`` consecutive words."""
        self._check(addr, nwords)
        return [self.read(addr + i) for i in range(nwords)]

    def write_range(self, addr: int, values: Iterable[int]) -> None:
        """Store consecutive words starting at ``addr``."""
        values = list(values)
        self._check(addr, len(values))
        for i, v in enumerate(values):
            self.write(addr + i, v)

    def durable_read(self, addr: int) -> int:
        """Read the *durable* value of a word (what a crash would keep)."""
        self._check(addr)
        return self._durable.get(addr, 0)

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def flush(self, addr: int, nwords: int = 1, tag: str = "persist") -> None:
        """Stage the cache lines overlapping ``[addr, addr+nwords)``.

        Nothing is durable until the next :meth:`fence`.
        """
        if nwords == 0:
            return
        self._check(addr, nwords)
        spec = faultinject.fire("pmem.flush")
        if spec is not None and spec.kind == "skip-flush":
            # the clwb is elided: the store stays in the write buffer,
            # reads still see it, and the next power loss drops it even
            # though the program believed it durable (missing-flush bug)
            self.stats["skipped_flushes"] += 1
            return
        self.stats["flushes"] += 1
        first = self.line_of(addr)
        last = self.line_of(addr + nwords - 1)
        self._staged_lines.update(range(first, last + 1))
        self._pending_ranges.append((addr, nwords, tag))

    def fence(self) -> None:
        """Make all staged lines durable and fire persist hooks.

        Hooks fire once per explicit flushed range, in flush order, after
        durability — a hook never observes a value that could still be
        lost in a crash.
        """
        spec = faultinject.fire("pmem.fence")  # crash-before-persist site
        if spec is not None and spec.kind == "torn":
            self._torn_fence(spec)
        if spec is not None and spec.kind == "skip-fence":
            # the sfence is elided: staged lines stay staged and persist
            # hooks do not fire, so the ordering the program relied on is
            # lost until some *later* fence happens to drain the buffer
            # (persist-ordering bug)
            self.stats["skipped_fences"] += 1
            return
        self.stats["fences"] += 1
        self._write_back(self._staged_lines)
        self._staged_lines.clear()
        pending, self._pending_ranges = self._pending_ranges, []
        for addr, nwords, tag in pending:
            if self._persist_hooks:
                values = [self._durable.get(addr + i, 0) for i in range(nwords)]
                for hook in self._persist_hooks:
                    hook(addr, nwords, values, tag)

    def _torn_fence(self, spec) -> None:
        """Persist only part of the staged lines, then die (torn write).

        Models a crash landing mid-writeback: whole cache lines are the
        durability unit, so a deterministic, seeded prefix of the staged
        lines reaches PM and the rest is lost with the write buffer.
        Persist hooks never fire — the process died before the fence
        completed, so the checkpoint log is left *behind* the pool,
        exactly the divergence recovery must tolerate.
        """
        import random

        lines = sorted(self._staged_lines)
        rng = random.Random((spec.seed << 16) ^ len(lines))
        keep = rng.randrange(1, len(lines)) if len(lines) > 1 else 0
        self._write_back(lines[:keep])
        raise InjectedCrash(
            f"torn fence: {keep} of {len(lines)} staged line(s) persisted",
            location="pmem.fence",
        )

    def _write_back(self, lines: Iterable[int]) -> None:
        """Move the buffered words of ``lines`` into durable storage.

        The one cache-to-durable loop, shared by :meth:`fence` and
        :meth:`_torn_fence`.  Stores the canonical sparse image: zero
        means the entry is absent, matching :meth:`durable_write` — so
        a physically replicated pool is byte-comparable to an executed
        one.
        """
        cache, durable = self._cache, self._durable
        top = self._epoch_top
        persisted = 0
        for line in lines:
            base = line * WORDS_PER_LINE
            for addr in range(base, base + WORDS_PER_LINE):
                if addr in cache:
                    if top is not None and addr not in top:
                        top[addr] = durable.get(addr)
                    value = cache.pop(addr)
                    if value == 0:
                        durable.pop(addr, None)
                    else:
                        durable[addr] = value
                    persisted += 1
        self.stats["persisted_words"] += persisted

    def persist(self, addr: int, nwords: int = 1, tag: str = "persist") -> None:
        """``pmem_persist`` equivalent: flush the range and fence."""
        self.flush(addr, nwords, tag)
        self.fence()

    def add_persist_hook(self, hook: PersistHook) -> None:
        """Register a hook observing every explicitly persisted range."""
        self._persist_hooks.append(hook)

    def remove_persist_hook(self, hook: PersistHook) -> None:
        """Unregister a previously added persist hook."""
        self._persist_hooks.remove(hook)

    # ------------------------------------------------------------------
    # crash / direct durable access
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Simulate power loss: drop all state that is not durable."""
        self.stats["crashes"] += 1
        self._cache.clear()
        self._staged_lines.clear()
        self._pending_ranges.clear()

    def dirty_words(self) -> int:
        """Number of words sitting in the write buffer (would be lost)."""
        return len(self._cache)

    def durable_write(self, addr: int, value: int) -> None:
        """Write directly to durable storage, bypassing the write buffer.

        Used only by recovery machinery (reactor reversions, snapshot
        restore) — never by the guest program.
        """
        self._check(addr)
        if self._epoch_top is not None:
            self._note_dirty(addr)
        if value == 0:
            self._durable.pop(addr, None)
        else:
            self._durable[addr] = value

    def apply_words(self, words: Dict[int, int]) -> None:
        """Install a captured word delta wholesale (physical replication).

        Equivalent to :meth:`durable_write` per word — shares the
        0-means-absent convention and epoch dirty tracking — but
        validates the address range once (the pool's address space is
        one contiguous run, so checking the extremes covers every word)
        and skips the per-call machinery: the shipped-delta apply loop
        is the cluster replication hot path.
        """
        if not words:
            return
        self._check(min(words))
        self._check(max(words))
        durable = self._durable
        top = self._epoch_top
        if top is not None:
            for addr, value in words.items():
                if addr not in top:
                    top[addr] = durable.get(addr)
                if value == 0:
                    durable.pop(addr, None)
                else:
                    durable[addr] = value
        else:
            for addr, value in words.items():
                if value == 0:
                    durable.pop(addr, None)
                else:
                    durable[addr] = value

    def discard_cached(self, addr: int, nwords: int = 1) -> None:
        """Drop any buffered (un-persisted) stores in a range.

        Used by the allocator (fresh blocks start from durable zeros) and
        by transaction aborts.
        """
        self._check(addr, nwords)
        for a in range(addr, addr + nwords):
            self._cache.pop(a, None)

    def durable_items(self) -> Dict[int, int]:
        """A copy of all non-zero durable words (addr -> value)."""
        return dict(self._durable)

    def load_durable(self, items: Dict[int, int]) -> None:
        """Replace the durable image wholesale (snapshot restore)."""
        for addr in items:
            self._check(addr)
        if self._epoch_top is not None:
            # record the full diff so open epochs stay undoable — the
            # wholesale replacement is O(pool) anyway.  An explicit 0
            # turning absent (or back) is a change too: undo restores
            # the exact representation
            for addr in set(self._durable) | set(items):
                if self._durable.get(addr) != items.get(addr):
                    self._note_dirty(addr)
        self._durable = dict(items)
        self._cache.clear()
        self._staged_lines.clear()
        self._pending_ranges.clear()

    # ------------------------------------------------------------------
    # dirty-word epochs (incremental snapshots)
    # ------------------------------------------------------------------
    def _note_dirty(self, addr: int) -> None:
        """Record ``addr``'s durable pre-image in the innermost epoch.

        First write wins: the stored value is what the word held when
        the epoch opened (or when it was first touched after), which is
        exactly what :meth:`epoch_undo` must write back.  Older epochs
        are not touched: they receive the record when this epoch leaves
        (:meth:`_leave`), so a write costs O(1) at any nesting depth.
        """
        top = self._epoch_top
        if addr not in top:
            top[addr] = self._durable.get(addr)

    def _leave(self, token: int, undone: bool) -> None:
        """Remove an open epoch and fold it into the next-older one.

        If the epoch was undone, its words now hold their pre-images,
        which for the older epoch are its own pre-images too (nothing
        touched them in between), so they join the older epoch's
        ``clean`` set.  Otherwise its pre-images join the older
        ``pre``, the older record winning a collision: it was taken
        earlier.  The smaller side is always folded into the larger, so
        leaving a deep stack costs O(words log depth) in total.
        """
        epochs = self._epochs
        older: Optional[int] = None
        if token == next(reversed(epochs)):
            gone = epochs.pop(token)
            if epochs:
                older = next(reversed(epochs))
        else:
            for t in epochs:
                if t == token:
                    break
                older = t
            gone = epochs.pop(token)
        if older is not None:
            into = epochs[older]
            if undone:
                gone.clean.update(gone.pre)
            elif len(into.pre) >= len(gone.pre):
                for addr, value in gone.pre.items():
                    if addr not in into.pre:
                        into.pre[addr] = value
            else:
                gone.pre.update(into.pre)
                into.pre = gone.pre
            if len(into.clean) >= len(gone.clean):
                into.clean |= gone.clean
            else:
                gone.clean |= into.clean
                into.clean = gone.clean
        self._epoch_top = epochs[next(reversed(epochs))].pre if epochs else None

    def _epoch_words(self, token: int) -> Iterable[int]:
        """Every word mutated since ``token`` opened: its own ``pre``
        and ``clean`` words plus those of every newer open epoch."""
        epochs = self._epochs
        ep = epochs[token]
        if not ep.clean and token == next(reversed(epochs)):
            return ep.pre
        tokens = list(epochs)
        words: Dict[int, None] = {}
        for t in tokens[tokens.index(token):]:
            words.update(dict.fromkeys(epochs[t].pre))
            words.update(dict.fromkeys(epochs[t].clean))
        return words

    def open_epoch(self) -> int:
        """Open a dirty-word tracking epoch; returns an opaque token.

        From now until the epoch is undone or closed, every durable
        mutation (fence writeback, ``durable_write``, ``load_durable``)
        records the word's pre-image, so the pool can later be restored
        to this exact point by rewriting *only the dirty words* —
        O(delta) instead of the O(pool) full-image copy a
        :func:`~repro.pmem.snapshot.take_snapshot` pays.  Epochs nest;
        undo order must be LIFO (newest first).
        """
        token = self._epoch_next
        self._epoch_next += 1
        ep = self._epochs[token] = _Epoch()
        self._epoch_top = ep.pre
        return token

    def epoch_dirty_words(self, token: int) -> int:
        """Number of distinct durable words mutated since the epoch opened."""
        epochs = self._epochs
        if token != next(reversed(epochs)):
            return len(self._epoch_words(token))
        return epochs[token].size()

    def epoch_undo(self, token: int, close: bool = True) -> int:
        """Rewrite the epoch's dirty words back to their pre-images.

        ``token`` must be the *newest* open epoch (undo is LIFO — undoing
        an older epoch first would restore stale values over newer
        epochs' base states).  With ``close=False`` the epoch stays open
        with an empty dirty set: the pool now *is* the epoch state, so
        tracking simply continues from here.  Returns the number of
        distinct words mutated since the epoch opened.  Only the
        epoch's ``pre`` words are rewritten — words a newer epoch's undo
        already put back are ``clean`` — so the cost follows the words
        this epoch itself dirtied, whatever the nesting depth.
        """
        epochs = self._epochs
        if token not in epochs:
            raise PoolError(f"unknown or closed epoch {token}")
        newest = next(reversed(epochs))
        if token != newest:
            raise PoolError(
                f"epoch undo must be LIFO: {token} is not the newest "
                f"open epoch ({newest})"
            )
        ep = epochs[token]
        undone = ep.size()
        durable = self._durable
        for addr, value in ep.pre.items():
            if value is None:
                durable.pop(addr, None)
            else:
                durable[addr] = value
        self._leave(token, undone=True)
        if not close:
            ep = epochs[token] = _Epoch()
            self._epoch_top = ep.pre
        return undone

    def close_epoch(self, token: int) -> None:
        """Stop tracking an epoch without restoring (keep current state).

        Any open epoch may be closed, not only the newest; its words
        pass to the next-older epoch, whose dirty set still covers them.
        Closing an unknown or already closed token is a no-op.
        """
        if token in self._epochs:
            self._leave(token, undone=False)

    def capture_epoch_delta(self, token: int) -> Dict[int, int]:
        """Close an epoch and return its word delta as ``addr -> post``.

        The delta maps every durable word mutated since the epoch opened
        to its *current* durable value (0 for words whose entry was
        removed).  Writing those post-values into another pool holding
        the epoch's pre-state — via :meth:`durable_write`, which shares
        the 0-means-absent convention — reproduces this pool's durable
        image exactly.  This is the physical-replication capture: the
        replica gets the delta, not the computation.
        """
        if token not in self._epochs:
            raise PoolError(f"unknown or closed epoch {token}")
        durable = self._durable
        delta = {addr: durable.get(addr, 0) for addr in self._epoch_words(token)}
        self._leave(token, undone=False)
        return delta


class _Epoch:
    """One open dirty-word epoch of a :class:`PMPool`.

    ``pre`` maps each word this epoch must rewrite on undo to its
    durable pre-image, where ``None`` means the word had no durable
    entry at all (distinct from an explicit 0, so undo restores the
    exact representation byte-for-byte).  ``clean`` holds words mutated
    since the epoch opened that a newer epoch's undo already put back to
    this epoch's pre-image: they count towards the dirty set but need no
    rewrite.  A word may sit in both.
    """

    __slots__ = ("pre", "clean")

    def __init__(self) -> None:
        self.pre: Dict[int, Optional[int]] = {}
        self.clean: Set[int] = set()

    def size(self) -> int:
        """Distinct words in ``pre`` and ``clean`` together."""
        small, large = self.pre, self.clean
        if not large:
            return len(small)
        if len(small) > len(large):
            small, large = large, small
        return len(large) + sum(1 for addr in small if addr not in large)
