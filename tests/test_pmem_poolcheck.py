"""Tests for the pmempool-check analog."""

from repro.pmem.allocator import PMAllocator
from repro.pmem.pool import PMPool
from repro.pmem.poolcheck import check_pool
from repro.systems.memcached import MemcachedAdapter


def _stack():
    pool = PMPool(1024)
    return pool, PMAllocator(pool)


def test_fresh_pool_is_consistent():
    pool, allocator = _stack()
    report = check_pool(pool, allocator)
    assert report.ok
    assert report.warnings == []
    assert "consistent" in report.summary()


def test_healthy_workload_is_consistent():
    pool, allocator = _stack()
    blocks = [allocator.zalloc(8) for _ in range(10)]
    allocator.set_root(blocks[0])
    for b in blocks:
        pool.durable_write(b, 42)
    for b in blocks[5:]:
        pool.durable_write(b, 0)  # clear before freeing
        allocator.free(b)
    assert check_pool(pool, allocator).ok


def test_detects_bad_root_pointer():
    pool, allocator = _stack()
    block = allocator.zalloc(4)
    allocator.set_root(block)
    allocator.free(block)
    report = check_pool(pool, allocator)
    assert not report.ok
    assert any("root pointer" in e for e in report.errors)


def test_warns_on_stray_data_in_free_space():
    pool, allocator = _stack()
    block = allocator.zalloc(4)
    pool.durable_write(block, 99)
    allocator.free(block)  # data left behind
    report = check_pool(pool, allocator)
    assert report.ok  # a warning, not an error
    assert any("free space" in w for w in report.warnings)


def test_warns_on_dangling_persistent_pointer():
    pool, allocator = _stack()
    holder = allocator.zalloc(1)
    target = allocator.zalloc(4)
    pool.durable_write(holder, target)
    allocator.free(target)
    # zero the freed block so only the dangling pointer remains
    for i in range(4):
        pool.durable_write(target + i, 0)
    report = check_pool(pool, allocator)
    assert any("dangling" in w for w in report.warnings)


def test_detects_corrupted_allocator_metadata():
    pool, allocator = _stack()
    a = allocator.zalloc(8)
    # corrupt the metadata directly: claim an overlapping block
    allocator._allocations[a + 4] = 8
    report = check_pool(pool, allocator)
    assert not report.ok


def test_running_system_pool_stays_consistent():
    mc = MemcachedAdapter()
    mc.start()
    for k in range(50):
        mc.insert(k, k)
    for k in range(0, 50, 3):
        mc.delete(k)
    report = check_pool(mc.pool, mc.allocator)
    assert report.ok


def _per_word_counts(pool, allocator):
    """The per-word durable scan the bucketed pass replaced (oracle)."""
    free_words = sum(
        1 for a, n in sorted(allocator._free)
        for w in range(a, a + n) if pool.durable_read(w) != 0
    )
    dangling = 0
    for a, n in sorted(allocator.allocations().items()):
        for w in range(a, a + n):
            value = pool.durable_read(w)
            if value and pool.contains(value) \
                    and allocator.block_containing(value) is None:
                dangling += 1
    return free_words, dangling


def test_bucketed_scan_matches_per_word_scan():
    import random

    rng = random.Random(7)
    pool, allocator = _stack()
    blocks = [allocator.zalloc(rng.randint(1, 12)) for _ in range(40)]
    for b in blocks:
        for i in range(allocator.size_of(b)):
            # plain data, pointers to other blocks, and explicit zeros
            pool.durable_write(b + i, rng.choice(
                [0, rng.randint(1, 1000), rng.choice(blocks) + 1]
            ))
    freed = rng.sample(blocks, 15)
    for b in freed:
        allocator.free(b)  # stale data stays behind in free space
    # a wholesale load keeps explicit zero entries in the durable image
    image = pool.durable_items()
    image[blocks[0]] = 0
    pool.load_durable(image)

    free_words, dangling = _per_word_counts(pool, allocator)
    assert free_words and dangling
    report = check_pool(pool, allocator)
    assert report.errors == []
    assert report.warnings == [
        f"{free_words} non-zero durable word(s) in free space "
        f"(stale data from freed blocks)",
        f"{dangling} pointer-looking durable word(s) targeting freed "
        f"memory (dangling persistent pointers)",
    ]
