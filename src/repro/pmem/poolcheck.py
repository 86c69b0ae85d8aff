"""Structural pool validation — the reproduction's ``pmempool-check``.

The paper's consistency evaluation (Section 6.2) runs "sanity checks on
the persistent memory file with tools such as pmempool-check, which catch
bad PM blocks".  This module provides the equivalent for the simulated
pool: structural invariants that hold for any healthy pool regardless of
the application on top.

Checks:

* allocator metadata is self-consistent: live blocks are disjoint, free
  extents are disjoint and sorted, and together they tile the heap;
* the root pointer is null or points at the start of a live block;
* no durable data sits in free space ("stray blocks": a block was freed
  while still holding data that something may still reference — the
  symptom left behind by use-after-free bugs and unreverted frees);
* pointer-looking durable words inside live blocks target live blocks
  (dangling persistent pointers).

Stray-data and dangling-pointer findings are *warnings* (legal pools can
exhibit them transiently); metadata findings are errors.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import List

from repro.pmem.allocator import HEADER_WORDS, PMAllocator
from repro.pmem.pool import PM_BASE, PMPool


@dataclass
class PoolCheckReport:
    """Findings from one pool validation."""

    errors: List[str] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    def summary(self) -> str:
        """One-line verdict: consistent/CORRUPT with finding counts."""
        status = "consistent" if self.ok else "CORRUPT"
        return (
            f"pool {status}: {len(self.errors)} error(s), "
            f"{len(self.warnings)} warning(s)"
        )


def check_pool(pool: PMPool, allocator: PMAllocator) -> PoolCheckReport:
    """Validate one pool's structural invariants."""
    report = PoolCheckReport()
    heap_start = PM_BASE + HEADER_WORDS
    heap_end = PM_BASE + pool.size_words

    blocks = sorted(allocator.allocations().items())
    extents = sorted(allocator._free)

    # 1. live blocks are in-heap and disjoint
    for (a, n), (b, m) in zip(blocks, blocks[1:]):
        if a + n > b:
            report.errors.append(
                f"live blocks overlap: [{a:#x},+{n}) and [{b:#x},+{m})"
            )
    for a, n in blocks:
        if a < heap_start or a + n > heap_end:
            report.errors.append(f"live block [{a:#x},+{n}) outside heap")

    # 2. free extents are disjoint and in-heap
    for (a, n), (b, m) in zip(extents, extents[1:]):
        if a + n > b:
            report.errors.append(
                f"free extents overlap: [{a:#x},+{n}) and [{b:#x},+{m})"
            )
    for a, n in extents:
        if a < heap_start or a + n > heap_end:
            report.errors.append(f"free extent [{a:#x},+{n}) outside heap")

    # 3. live + free tiles the heap exactly
    covered = sum(n for _a, n in blocks) + sum(n for _a, n in extents)
    if covered != heap_end - heap_start:
        report.errors.append(
            f"heap accounting broken: {covered} words covered, "
            f"{heap_end - heap_start} in heap"
        )
    regions = sorted(blocks + extents)
    cursor = heap_start
    for a, n in regions:
        if a != cursor:
            report.errors.append(
                f"heap gap or overlap at {cursor:#x} (next region {a:#x})"
            )
            break
        cursor = a + n

    # 4. root pointer sanity
    root = allocator.root()
    if root != 0 and not allocator.is_allocated(root):
        report.errors.append(f"root pointer {root:#x} is not a live block")

    # 5./6. bucket the durable image's words into the free extents and
    # live blocks: one sorted pass, never a read per heap word
    durable = pool.durable_items()
    addrs = sorted(a for a, v in durable.items() if v)

    def words_in(a: int, n: int) -> List[int]:
        return addrs[bisect_left(addrs, a):bisect_left(addrs, a + n)]

    # 5. stray durable data in free space
    free_words = sum(len(words_in(a, n)) for a, n in extents)
    if free_words:
        report.warnings.append(
            f"{free_words} non-zero durable word(s) in free space "
            f"(stale data from freed blocks)"
        )

    # 6. dangling persistent pointers inside live blocks
    dangling = 0
    for a, n in blocks:
        for w in words_in(a, n):
            value = durable[w]
            if pool.contains(value) and allocator.block_containing(value) is None:
                dangling += 1
    if dangling:
        report.warnings.append(
            f"{dangling} pointer-looking durable word(s) targeting freed "
            f"memory (dangling persistent pointers)"
        )
    return report
