"""Whole-pool snapshot and restore.

This is the substrate for the pmCRIU baseline (Section 6.1): CRIU enhanced
to dump the PM pool alongside process state.  A snapshot captures the
durable image and the allocator metadata; restore replaces both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.pmem.allocator import PMAllocator
from repro.pmem.pool import PMPool


@dataclass
class PoolSnapshot:
    """A point-in-time durable image of a pool."""

    #: simulated time at which the snapshot was taken (seconds)
    taken_at: float
    durable: Dict[int, int] = field(default_factory=dict)
    allocator_meta: dict = field(default_factory=dict)
    #: free-form label ("ckpt3"), used in reports
    label: str = ""

    def size_words(self) -> int:
        """Number of non-zero durable words captured."""
        return len(self.durable)


def take_snapshot(
    pool: PMPool,
    allocator: Optional[PMAllocator] = None,
    taken_at: float = 0.0,
    label: str = "",
) -> PoolSnapshot:
    """Capture the durable image (and allocator metadata) of a pool."""
    return PoolSnapshot(
        taken_at=taken_at,
        durable=pool.durable_items(),
        allocator_meta=allocator.export_meta() if allocator is not None else {},
        label=label,
    )


def restore_snapshot(
    pool: PMPool,
    snapshot: PoolSnapshot,
    allocator: Optional[PMAllocator] = None,
) -> None:
    """Replace the pool's durable image with a snapshot's."""
    pool.load_durable(snapshot.durable)
    if allocator is not None and snapshot.allocator_meta:
        allocator.import_meta(snapshot.allocator_meta)


@dataclass
class EpochSnapshot:
    """A lightweight snapshot: an open dirty-word epoch plus allocator meta.

    Unlike :class:`PoolSnapshot` this does not copy the durable image — the
    pool records pre-images of the words mutated after ``take_epoch_snapshot``
    and restore rewrites only those.  Cost is O(words dirtied since the
    snapshot) instead of O(pool).
    """

    taken_at: float
    #: epoch token from :meth:`PMPool.open_epoch`
    epoch: int = 0
    allocator_meta: dict = field(default_factory=dict)
    label: str = ""

    def dirty_words(self, pool: PMPool) -> int:
        """Words mutated since the snapshot (bounds the restore cost)."""
        return pool.epoch_dirty_words(self.epoch)


def take_epoch_snapshot(
    pool: PMPool,
    allocator: Optional[PMAllocator] = None,
    taken_at: float = 0.0,
    label: str = "",
) -> EpochSnapshot:
    """Open a dirty-word epoch; later mutations are undoable in O(delta)."""
    return EpochSnapshot(
        taken_at=taken_at,
        epoch=pool.open_epoch(),
        allocator_meta=allocator.export_meta() if allocator is not None else {},
        label=label,
    )


def restore_epoch_snapshot(
    pool: PMPool,
    snapshot: EpochSnapshot,
    allocator: Optional[PMAllocator] = None,
    close: bool = True,
) -> int:
    """Rewrite only the words dirtied since the snapshot; returns that count.

    With ``close=False`` the epoch stays open (emptied), so the caller can
    keep mutating and restore again later.  Epochs must be restored newest-
    first (LIFO) when several are open.
    """
    undone = pool.epoch_undo(snapshot.epoch, close=close)
    if allocator is not None and snapshot.allocator_meta:
        allocator.import_meta(snapshot.allocator_meta)
    return undone
