"""Tests for GUID assignment, metadata files and the runtime tracer."""

from typing import Dict, List, Set, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import analyze_module
from repro.instrument.guids import GuidMap, guid_for
from repro.instrument.passes import instrument_module, uninstrument_module
from repro.instrument.tracer import PMTrace
from repro.lang.interp import Machine


def test_instrument_marks_exactly_pm_instrs(kv_module):
    res = analyze_module(kv_module)
    guid_map, seconds = instrument_module(kv_module, res.pm)
    marked = {i.iid for i in kv_module.instructions() if i.guid is not None}
    assert marked == res.pm.pm_instr_iids
    assert len(guid_map) == len(marked)
    assert seconds >= 0


def test_guid_roundtrip(kv_module):
    res = analyze_module(kv_module)
    guid_map, _ = instrument_module(kv_module, res.pm)
    for instr in kv_module.instructions():
        if instr.guid is not None:
            assert guid_map.iid_of(instr.guid) == instr.iid
            assert guid_map.guid_of(instr.iid) == instr.guid
            entry = guid_map.entry(instr.guid)
            assert entry.op == instr.op
            assert entry.location == instr.location()


def test_metadata_file_roundtrip(kv_module, tmp_path):
    res = analyze_module(kv_module)
    guid_map, _ = instrument_module(kv_module, res.pm)
    path = tmp_path / "guids.json"
    guid_map.save(str(path))
    loaded = GuidMap.load(str(path))
    assert len(loaded) == len(guid_map)
    some = next(i for i in kv_module.instructions() if i.guid)
    assert loaded.iid_of(some.guid) == some.iid


def test_uninstrument_strips_guids(kv_module):
    res = analyze_module(kv_module)
    instrument_module(kv_module, res.pm)
    uninstrument_module(kv_module)
    assert all(i.guid is None for i in kv_module.instructions())
    # re-instrument for other tests sharing the session module
    instrument_module(kv_module, res.pm)


def test_trace_records_pm_addresses(kv_module):
    res = analyze_module(kv_module)
    instrument_module(kv_module, res.pm)
    trace = PMTrace(flush_threshold=4)
    machine = Machine(kv_module)
    machine.tracer = trace.record
    root = machine.call("kv_init")
    machine.call("kv_put", root, 1, 10)
    machine.call("kv_get", root, 1)
    trace.flush()
    assert len(trace.records) > 0
    assert trace.addresses_for_guid(guid_for("kv", next(
        i for i in kv_module.functions["kv_put"].instructions() if i.op == "alloc"
    )))


def test_trace_buffering_and_crash():
    trace = PMTrace(flush_threshold=100)
    trace.record("g1", 0x1000)
    assert len(trace.records) == 0  # buffered
    assert len(trace) == 1
    trace.crash()
    assert len(trace) == 0  # buffered records lost, like a real crash
    trace.record("g1", 0x1000)
    trace.record("g1", 0x2000)
    trace.flush()
    assert trace.addresses_for_guid("g1") == {0x1000, 0x2000}
    assert trace.guids_for_address(0x1000) == {"g1"}
    assert trace.addresses_for_guids(["g1", "gX"]) == {0x1000, 0x2000}


def test_trace_auto_flush_at_threshold():
    trace = PMTrace(flush_threshold=2)
    trace.record("a", 1)
    trace.record("b", 2)  # hits the threshold
    assert len(trace.records) == 2


def test_trace_deduplicates_durable_pairs():
    trace = PMTrace(flush_threshold=3)
    for _ in range(4):
        trace.record("a", 1)
    trace.record("b", 2)
    trace.record("a", 1)
    trace.flush()
    assert trace.records == [("a", 1), ("b", 2)]
    trace.extend([("b", 2), ("c", 3)])
    assert trace.records == [("a", 1), ("b", 2), ("c", 3)]


def test_window_reports_pairs_already_durable():
    """A window sees every pair flushed while open, not only new ones —
    ``KeyTouchIndex`` attributes each op's words from exactly this."""
    trace = PMTrace()
    trace.record("root", 0x10)
    trace.record("head", 0x20)
    trace.flush()
    window = trace.open_window()
    trace.record("head", 0x20)
    trace.record("item", 0x30)
    assert trace.close_window(window) == [("head", 0x20), ("item", 0x30)]
    assert trace.records == [("root", 0x10), ("head", 0x20), ("item", 0x30)]


def test_trapped_window_drops_the_buffered_tail():
    trace = PMTrace(flush_threshold=2)
    window = trace.open_window()
    trace.record("a", 1)
    trace.record("b", 2)  # threshold: flushed inside the window
    trace.record("c", 3)  # still buffered when the span traps
    assert trace.close_window(window, flush=False) == [("a", 1), ("b", 2)]
    trace.crash()
    assert trace.addresses_for_guid("c") == set()


# ----------------------------------------------------------------------
# oracle: the seed's list-based trace
# ----------------------------------------------------------------------
class SeedPMTrace:
    """The seed tracer: every flushed record appended to a list.

    Windows are the seed's mark/flush diff: flush, remember
    ``len(records)``, and later slice ``records[mark:]``.
    """

    def __init__(self, flush_threshold: int = 256):
        self.flush_threshold = flush_threshold
        self.records: List[Tuple[str, int]] = []
        self._buffer: List[Tuple[str, int]] = []
        self._addrs_by_guid: Dict[str, Set[int]] = {}
        self._guids_by_addr: Dict[int, Set[str]] = {}

    def record(self, guid: str, addr: int) -> None:
        self._buffer.append((guid, addr))
        if len(self._buffer) >= self.flush_threshold:
            self.flush()

    def flush(self) -> None:
        for guid, addr in self._buffer:
            self.records.append((guid, addr))
            self._addrs_by_guid.setdefault(guid, set()).add(addr)
            self._guids_by_addr.setdefault(addr, set()).add(guid)
        self._buffer.clear()

    def crash(self) -> None:
        self._buffer.clear()

    def open_window(self) -> int:
        self.flush()
        return len(self.records)

    def close_window(self, mark: int, flush: bool = True):
        if flush:
            self.flush()
        return self.records[mark:]

    def addresses_for_guid(self, guid: str) -> Set[int]:
        return self._addrs_by_guid.get(guid, set())

    def guids_for_address(self, addr: int) -> Set[str]:
        return self._guids_by_addr.get(addr, set())


GUIDS = ("g0", "g1", "g2")
ADDRS = (0x100, 0x101, 0x102, 0x200)

_trace_ops = st.lists(
    st.one_of(
        st.tuples(st.just("record"), st.sampled_from(GUIDS),
                  st.sampled_from(ADDRS)),
        st.tuples(st.just("flush")),
        st.tuples(st.just("crash")),
        st.tuples(st.just("open")),
        st.tuples(st.just("close"), st.integers(0, 3), st.booleans()),
    ),
    max_size=80,
)


@settings(max_examples=200, deadline=None)
@given(threshold=st.integers(2, 5), ops=_trace_ops)
def test_dedup_trace_matches_seed_oracle(threshold, ops):
    trace = PMTrace(flush_threshold=threshold)
    seed = SeedPMTrace(flush_threshold=threshold)
    windows: List[Tuple[int, int]] = []  # (token, seed mark), open order

    def check_indexes():
        for guid in GUIDS:
            assert trace.addresses_for_guid(guid) == seed.addresses_for_guid(guid)
        for addr in ADDRS:
            assert trace.guids_for_address(addr) == seed.guids_for_address(addr)
        assert trace.records == list(dict.fromkeys(seed.records))

    def close(i: int, flush: bool):
        token, mark = windows.pop(i)
        got = trace.close_window(token, flush=flush)
        want = seed.close_window(mark, flush=flush)
        assert got == list(dict.fromkeys(want))

    for op in ops:
        if op[0] == "record":
            trace.record(op[1], op[2])
            seed.record(op[1], op[2])
        elif op[0] == "flush":
            trace.flush()
            seed.flush()
        elif op[0] == "crash":
            trace.crash()
            seed.crash()
        elif op[0] == "open":
            windows.append((trace.open_window(), seed.open_window()))
        elif windows:
            close(op[1] % len(windows), op[2])
        check_indexes()
    while windows:
        close(len(windows) - 1, True)
    check_indexes()


@settings(max_examples=200, deadline=None)
@given(
    threshold=st.integers(min_value=1, max_value=12),
    prefix=st.lists(st.tuples(st.sampled_from("abc"), st.integers(0, 5)),
                    max_size=30),
    period=st.lists(st.tuples(st.sampled_from("abcd"), st.integers(0, 7)),
                    max_size=9),
    times=st.integers(min_value=0, max_value=40),
)
def test_record_repeated_equals_recording_each_pass(threshold, prefix,
                                                    period, times):
    """The closed-form fast-forward leaves the trace exactly as the
    record loop does: durable pairs in order, buffer, open window."""
    traces = [PMTrace(flush_threshold=threshold) for _ in range(2)]
    windows = []
    for trace in traces:
        for pair in prefix[: len(prefix) // 2]:
            trace.record(*pair)
        windows.append(trace.open_window())
        for pair in prefix[len(prefix) // 2:]:
            trace.record(*pair)
    looped, closed = traces
    for _ in range(times):
        for pair in period:
            looped.record(*pair)
    closed.record_repeated(period, times)
    assert closed.records == looped.records
    assert closed._buffer == looped._buffer
    assert closed._addrs_by_guid == looped._addrs_by_guid
    assert closed._guids_by_addr == looped._guids_by_addr
    assert closed.close_window(windows[1], flush=False) == \
        looped.close_window(windows[0], flush=False)
