"""Runtime PM-address trace (paper Section 4.1, ❹).

Records ``<GUID, pmem_address>`` pairs as the instrumented program runs.
Like the paper's implementation, records are buffered in memory and
flushed to the durable trace asynchronously; whatever is still buffered
when the process crashes is lost (``crash()``).

The reactor only ever asks which addresses a GUID touched (and the
reverse), so the durable trace is a *set* of pairs: a flush installs
only the pairs not already durable.  Per-operation consumers that need
"what did this span touch" open a *window*, which collects every pair
flushed while it is open — including pairs that were already durable.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Set, Tuple

Pair = Tuple[str, int]


class PMTrace:
    """Buffered, deduplicated trace of (guid, address) pairs."""

    def __init__(self, flush_threshold: int = 256):
        self.flush_threshold = flush_threshold
        #: durable (flushed) pairs, unique, in first-flushed order
        self.records: List[Pair] = []
        #: raw records since the last flush (duplicates included)
        self._buffer: List[Pair] = []
        # indexes over *flushed* pairs; also the durable-set membership test
        self._addrs_by_guid: Dict[str, Set[int]] = {}
        self._guids_by_addr: Dict[int, Set[str]] = {}
        #: open windows: token -> pairs flushed since it opened
        self._windows: Dict[int, Dict[Pair, None]] = {}
        self._window_next = 1

    # ------------------------------------------------------------------
    def record(self, guid: str, addr: int) -> None:
        """Buffer one raw record; flushes every ``flush_threshold`` of them."""
        buffer = self._buffer
        buffer.append((guid, addr))
        if len(buffer) >= self.flush_threshold:
            self.flush()

    def record_repeated(self, pairs: Sequence[Pair], times: int) -> None:
        """Record ``pairs`` ``times`` times over, in closed form.

        Leaves the trace exactly as ``times`` passes of :meth:`record`
        over ``pairs`` would: the threshold flushes fall at the same
        records, so the durable pairs, their first-flushed order, every
        open window and the buffered tail all match.  Costs
        O(len(pairs) + flush_threshold) whatever ``times`` is.  The VM
        uses it to fast-forward the trace across the whole periods of a
        repeating loop it skips.
        """
        n = len(pairs) * times
        if n == 0:
            return
        buffer = self._buffer
        threshold = self.flush_threshold
        room = threshold - len(buffer)
        if n < room:
            buffer.extend(pairs * times)
            return
        # every flush after the first takes ``threshold`` records; only
        # the first period of those can hold a pair not flushed before
        flushed = room + (n - room) // threshold * threshold
        batch = dict.fromkeys(buffer)
        batch.update(dict.fromkeys(pairs[:flushed]))
        buffer.clear()
        self._install(batch)
        period = len(pairs)
        buffer.extend(pairs[i % period] for i in range(flushed, n))

    def flush(self) -> None:
        """Write buffered records to the durable trace."""
        if self._buffer:
            pairs = dict.fromkeys(self._buffer)
            self._buffer.clear()
            self._install(pairs)

    def _install(self, pairs: Dict[Pair, None]) -> None:
        """Make ``pairs`` durable: feed open windows, add the new ones."""
        for window in self._windows.values():
            window.update(pairs)
        records = self.records
        by_guid = self._addrs_by_guid
        by_addr = self._guids_by_addr
        for pair in pairs:
            guid, addr = pair
            addrs = by_guid.get(guid)
            if addrs is None:
                addrs = by_guid[guid] = set()
            elif addr in addrs:
                continue
            addrs.add(addr)
            records.append(pair)
            guids = by_addr.get(addr)
            if guids is None:
                guids = by_addr[addr] = set()
            guids.add(guid)

    def extend(self, pairs: Iterable[Pair]) -> None:
        """Install already-durable pairs in bulk, skipping known ones.

        Used when a shipped :class:`ReplicaDelta` installs the primary's
        trace slice on a replica — the pairs were flushed on the
        primary, so they land directly in the durable trace here.
        """
        self._install(dict.fromkeys(pairs))

    def load(self, records: Iterable[Pair]) -> None:
        """Replace the durable trace wholesale (node rebase, trace file).

        Drops the buffer and both indexes, then re-installs ``records``
        as the flushed set — the trace-level analogue of
        :meth:`PMPool.load_durable`.
        """
        self.records = []
        self._buffer = []
        self._addrs_by_guid = {}
        self._guids_by_addr = {}
        self.extend(records)

    def crash(self) -> None:
        """Drop un-flushed records, as a real crash would."""
        self._buffer.clear()

    # ------------------------------------------------------------------
    def open_window(self) -> int:
        """Flush, then collect every pair flushed until :meth:`close_window`.

        Returns the window's token.  Windows nest and survive
        :meth:`crash`; every opened window must be closed.
        """
        self.flush()
        token = self._window_next
        self._window_next += 1
        self._windows[token] = {}
        return token

    def close_window(self, token: int, flush: bool = True) -> List[Pair]:
        """Close a window; returns its pairs in first-flushed order.

        ``flush=False`` (a trapped span) leaves the buffered tail out, as
        a crash at that point would.
        """
        if flush:
            self.flush()
        return list(self._windows.pop(token))

    # ------------------------------------------------------------------
    def addresses_for_guid(self, guid: str) -> Set[int]:
        """PM addresses the instruction with ``guid`` touched (flushed records)."""
        return self._addrs_by_guid.get(guid, set())

    def guids_for_address(self, addr: int) -> Set[str]:
        """GUIDs of instructions observed touching ``addr``."""
        return self._guids_by_addr.get(addr, set())

    def addresses_for_guids(self, guids) -> Set[int]:
        """Union of traced addresses over several GUIDs."""
        out: Set[int] = set()
        for guid in guids:
            out |= self.addresses_for_guid(guid)
        return out

    def __len__(self) -> int:
        return len(self.records) + len(self._buffer)
