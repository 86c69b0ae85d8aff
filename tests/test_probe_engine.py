"""The incremental probe engine vs the full-restore snapshot oracle.

``Reverter.mitigate_bisect`` moves between probe points with dirty-word
epoch deltas (``engine="incremental"``); the seed behaviour — full pool
restore + prefix replay per probe — survives as ``engine="snapshot"``
and serves as the oracle here.  The two must be *indistinguishable* from
outside: identical MitigationResult fields and byte-identical durable
state, across the synthetic bench states and all twelve real fault
experiments.

The perf test pins the reason the incremental engine exists: restoring a
50k-word pool by rewriting only the dirty words must beat rewriting the
whole image.
"""

import time
from functools import partialmethod

import pytest

from repro.harness.experiment import run_experiment
from repro.harness.hotpaths import build_synthetic_state
from repro.pmem.snapshot import restore_snapshot, take_snapshot
from repro.reactor.revert import PROBE_ENGINES, Reverter, _NullClock

FIDS = [f"f{i}" for i in range(1, 13)]


# ----------------------------------------------------------------------
# equivalence: every observable of the two engines matches
# ----------------------------------------------------------------------
def _mitigate(engine, n_updates=800, seed=0, **kwargs):
    state = build_synthetic_state(n_updates, seed=seed)
    reverter = Reverter(
        state.log, state.pool, state.allocator, state.reexec(), **kwargs
    )
    result = reverter.mitigate_bisect(state.make_plan(), engine=engine)
    return state, result


@pytest.mark.parametrize("seed", [0, 7, 11])
def test_engines_equivalent_on_synthetic_state(seed):
    images, results = [], []
    for engine in ("incremental", "snapshot"):
        state, result = _mitigate(engine, seed=seed)
        assert result.recovered, engine
        images.append(state.durable_image())
        results.append(result)
    a, b = results
    assert images[0] == images[1]
    assert (a.attempts, a.reverted_seqs, a.recovered, a.notes) == (
        b.attempts, b.reverted_seqs, b.recovered, b.notes
    )


@pytest.mark.parametrize("fid", FIDS)
def test_engines_equivalent_on_real_faults(fid, monkeypatch):
    """Both engines end every real experiment in the same final state.

    ``pool_digest`` fingerprints the durable image + allocator metadata,
    so digest equality is byte-level state equality.  The consistency
    probe is skipped: the digest is taken before it and the probe roughly
    doubles the runtime.  The experiment always bisects on the default
    incremental engine; the oracle run swaps the snapshot engine in.
    """
    def mitigate():
        return run_experiment(
            fid, "arthas-bi", seed=0, consistency_probe=False
        ).mitigation

    a = mitigate()
    monkeypatch.setattr(
        Reverter, "mitigate_bisect",
        partialmethod(Reverter.mitigate_bisect, engine="snapshot"),
    )
    b = mitigate()
    assert a is not None and b is not None
    assert a.recovered and b.recovered
    assert a.pool_digest == b.pool_digest
    assert (a.attempts, a.reverted_updates, a.notes) == (
        b.attempts, b.reverted_updates, b.notes
    )


def test_unknown_engine_rejected():
    state = build_synthetic_state(200, seed=0)
    reverter = Reverter(
        state.log, state.pool, state.allocator, state.reexec()
    )
    with pytest.raises(ValueError):
        reverter.mitigate_bisect(state.make_plan(), engine="nope")


# ----------------------------------------------------------------------
# memoization: no probe point is ever re-executed
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", sorted(PROBE_ENGINES))
def test_bisect_reexecutes_each_probe_point_once(engine):
    state = build_synthetic_state(800, seed=0)
    inner = state.reexec()
    calls = []

    def counting_reexec():
        calls.append(1)
        return inner()

    reverter = Reverter(
        state.log, state.pool, state.allocator, counting_reexec
    )
    result = reverter.mitigate_bisect(state.make_plan(), engine=engine)
    assert result.recovered
    # one re-execution per attempt; the final probe(best) that lands the
    # pool on the winning state is a memo hit and must not re-execute
    assert len(calls) == result.attempts


# ----------------------------------------------------------------------
# the duration accounting bug (the seed's literal `+ 0.0`)
# ----------------------------------------------------------------------
def test_duration_includes_reexec_delays():
    state = build_synthetic_state(600, seed=0)
    clock = _NullClock()
    reverter = Reverter(
        state.log, state.pool, state.allocator, state.reexec(),
        clock=clock, reexec_delay=lambda: 4.0,
    )
    result = reverter.mitigate_bisect(state.make_plan())
    assert result.recovered
    # every attempt advanced the clock by the re-execution delay; the
    # seed charged the clock but added a literal 0.0 to the result, so
    # Fig. 8 durations missed the dominant term entirely
    assert result.duration_seconds >= 4.0 * result.attempts
    assert result.duration_seconds == pytest.approx(clock.now)


def test_duration_covers_only_own_run_on_shared_clock():
    state = build_synthetic_state(600, seed=0)
    clock = _NullClock()
    clock.advance(1000.0)  # a previous strategy already burned time
    reverter = Reverter(
        state.log, state.pool, state.allocator, state.reexec(),
        clock=clock, reexec_delay=lambda: 4.0,
        timeout_seconds=10_000.0,
    )
    start = clock.now
    result = reverter.mitigate_bisect(state.make_plan())
    assert result.recovered
    assert result.duration_seconds == pytest.approx(clock.now - start)
    assert result.duration_seconds < 1000.0


# ----------------------------------------------------------------------
# perf: dirty-word restore beats the full-image restore
# ----------------------------------------------------------------------
def test_dirty_word_restore_beats_full_restore_at_scale():
    """At a 50k-word image with a ~100-word delta, epoch undo must win.

    The margin demanded (2x) is tiny against the observed ratio
    (hundreds of x) — this trips only if someone reimplements epoch undo
    as a full-image rewrite.
    """
    from repro.pmem.pool import PM_BASE, PMPool

    n_words, n_dirty, reps = 50_000, 100, 20
    pool = PMPool(n_words + 1024, name="perfpin")
    for i in range(n_words):
        pool.durable_write(PM_BASE + i, i + 1)

    snap = take_snapshot(pool)
    t0 = time.perf_counter()
    for _ in range(reps):
        for i in range(n_dirty):
            pool.durable_write(PM_BASE + i * 7, 0xBEEF)
        restore_snapshot(pool, snap)
    full_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    for _ in range(reps):
        tok = pool.open_epoch()
        for i in range(n_dirty):
            pool.durable_write(PM_BASE + i * 7, 0xBEEF)
        pool.epoch_undo(tok)
    epoch_seconds = time.perf_counter() - t0

    assert pool.durable_items() == snap.durable
    assert epoch_seconds * 2 < full_seconds, (
        f"epoch undo {epoch_seconds:.4f}s vs full restore "
        f"{full_seconds:.4f}s — dirty-word restore regressed"
    )


# ----------------------------------------------------------------------
# complexity: probe-point movement follows the words, not the depth
# ----------------------------------------------------------------------
def _rewind_seconds(depth, words_per_level, repeats=5):
    """Best-of time to nest ``depth`` epochs, dirty ``words_per_level``
    words at each level and undo them all newest-first."""
    from repro.pmem.pool import PM_BASE, PMPool

    n_words = depth * words_per_level
    best = float("inf")
    for _ in range(repeats):
        pool = PMPool(n_words + 64, name="depth")
        t0 = time.perf_counter()
        tokens = []
        addr = PM_BASE
        for level in range(depth):
            tokens.append(pool.open_epoch())
            for _ in range(words_per_level):
                pool.durable_write(addr, level + 1)
                addr += 1
        for token in reversed(tokens):
            pool.epoch_undo(token)
        best = min(best, time.perf_counter() - t0)
        assert pool.durable_items() == {}
    return best


def test_deep_epoch_rewind_costs_what_a_flat_one_does():
    """400 nested epochs with 3 dirty words each rewind within 5x of
    one epoch holding the same 1200 words.  Recording every pre-image in
    every open epoch (and re-checking each restored word against them)
    made the deep case thousands of times slower (about 3000x on a
    2-CPU host)."""
    deep = _rewind_seconds(400, 3)
    flat = _rewind_seconds(1, 1200)
    assert deep < 5 * flat, (
        f"deep rewind {deep * 1e3:.2f} ms vs flat {flat * 1e3:.2f} ms"
    )


def test_forward_pass_queries_each_slice_node_once():
    """``_purge_forward_pass`` asks ``forward_seqs_fn`` once per distinct
    slice node and reverts exactly what a per-candidate loop reverts."""
    import dataclasses

    from repro.reactor.revert import MitigationResult

    def run(per_candidate):
        state = build_synthetic_state(400, seed=3)
        calls = []

        def forward(cand):
            calls.append(cand.slice_iid)
            obj = state.objects[cand.slice_iid * 7]
            return set(state.log.update_seqs_for_address(obj))

        reverter = Reverter(
            state.log, state.pool, state.allocator, state.reexec(),
            forward_seqs_fn=forward,
        )
        cands = [
            dataclasses.replace(c, slice_iid=i % 2)
            for i, c in enumerate(state.candidates)
        ]
        cut = state.victim_seq // 3
        result = MitigationResult(recovered=False, mode="bisect")
        result.reverted_seqs = [state.victim_seq]
        if per_candidate:
            extra = set()
            for cand in cands:
                for s in forward(cand):
                    if s > cut and s not in result.reverted_seqs:
                        extra.add(s)
            for s in sorted(extra, reverse=True):
                if reverter.revert_update_seq(s, 1):
                    result.reverted_seqs.append(s)
        else:
            reverter._purge_forward_pass(result, cands, cut)
        return calls, result.reverted_seqs, state.durable_image()

    calls, seqs, image = run(per_candidate=False)
    ref_calls, ref_seqs, ref_image = run(per_candidate=True)
    assert sorted(calls) == [0, 1]
    assert len(ref_calls) == len(build_synthetic_state(400, seed=3).candidates)
    assert len(seqs) > 1
    assert (seqs, image) == (ref_seqs, ref_image)
