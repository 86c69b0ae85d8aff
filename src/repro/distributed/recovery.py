"""The distributed recovery coordinator (paper Section 7 sketch).

Protocol, in the terms of Elnozahy et al.'s rollback-recovery survey
(which the paper cites as the blueprint):

1. **Local recovery.**  The failing node runs the single-node
   crash-safe mitigation ladder, driven by the shard supervisor
   (:meth:`repro.distributed.shardmgr.ShardManager.mitigate`); its
   reverted checkpoint sequence numbers feed step 2.
2. **Damage assessment.**  The reverted sequence numbers are mapped back
   through the operation log to the client requests they discarded.
3. **Causal cascade.**  Any request whose vector clock is causally after
   a discarded request (the client observed discarded state before
   issuing it) is *orphaned*: the coordinator reverts its checkpoint
   entries on every live node that applied it, transactions included.
   New orphans found there cascade in turn, until a fixpoint.

The cascade is *promotion-aware*: operations are replicated, so a
discarded or orphaned op is reverted on each node in its span map —
which is how an orphan whose primary is down (demoted, mid-mitigation)
still gets cleaned up through its replica's log.  Nodes that are down
when the cascade runs are recorded as owing a revert; re-sync settles
the debt (:meth:`DistributedReactor.catchup_reverts`) before replaying
the ops the node missed.

The result is a causally consistent cut: no surviving request depends
on discarded state.
"""

from __future__ import annotations

from typing import List, Set, Tuple

from repro.distributed.cluster import Cluster, OpRecord, vc_less


class DistributedReactor:
    """Coordinator running the cascade over one cluster."""

    def __init__(self, cluster: Cluster):
        self.cluster = cluster

    # ------------------------------------------------------------------
    def cascade_from(
        self, failing_node: int, reverted_seqs: Set[int]
    ) -> Tuple[List[OpRecord], List[OpRecord], int]:
        """Damage assessment + causal cascade after a local recovery.

        ``reverted_seqs`` are the checkpoint sequence numbers the local
        mitigation reverted *on the failing node*.  Maps them to the
        client ops they discarded, reverts those ops' replica spans,
        then cascades orphans to a fixpoint.  Returns
        ``(discarded, cascaded, rounds)``.  The reverts mutate live
        mirrors outside the delta stream; :meth:`ShardManager.cascade`
        reports that to the cluster.
        """
        # every live mirror must be current before reverts — guest-level
        # mutations outside the delta stream — execute on it (no-op
        # under the re-execution engine)
        self.cluster.drain()
        discarded = self.cluster.ops_overlapping_seqs(
            failing_node, set(reverted_seqs)
        )
        for op in discarded:
            op.discarded = True
            # the local mitigation already reverted the failing node
            op.reverted_on.add(failing_node)
            self._revert_spans(op)

        cascaded: List[OpRecord] = []
        rounds = 0
        frontier = list(discarded)
        while frontier:
            rounds += 1
            orphans = self._orphans_of(frontier)
            if not orphans:
                break
            for orphan in orphans:
                orphan.discarded = True
                self._revert_spans(orphan)
            cascaded.extend(orphans)
            frontier = orphans
        return discarded, cascaded, rounds

    def catchup_reverts(self, node_id: int) -> int:
        """Settle the revert debt a node accrued while it was down.

        Ops the cascade discarded carry spans on this node that nobody
        could revert at cascade time.  Reverting by seq is a pure
        function of the node's log, so a crashed-and-retried catchup
        converges.  Returns the number of ops reverted here.
        """
        reverted = 0
        for op in self.cluster.ops_on_node(node_id):
            if not op.discarded or node_id in op.reverted_on:
                continue
            self._revert_op_on(op, node_id)
            op.reverted_on.add(node_id)
            reverted += 1
        return reverted

    # ------------------------------------------------------------------
    def _orphans_of(self, discarded: List[OpRecord]) -> List[OpRecord]:
        """Not-yet-discarded ops causally after any discarded op."""
        orphans = []
        for op in self.cluster.oplog:
            if op.discarded:
                continue
            for gone in discarded:
                if vc_less(gone.vc, op.vc):
                    orphans.append(op)
                    break
        return orphans

    def _revert_spans(self, op: OpRecord) -> None:
        """Revert an op on every live node in its span map.

        Down nodes are skipped — their spans stay owed in
        ``op.reverted_on``'s complement until re-sync settles them.
        """
        for node_id in op.spans:
            if node_id in op.reverted_on:
                continue
            if self.cluster.is_down(node_id):
                continue
            self._revert_op_on(op, node_id)
            op.reverted_on.add(node_id)
        # conservative oracle maintenance: a discarded key is no longer
        # a trustworthy reference point on any node that applied it
        for node_id in op.spans:
            self.cluster.oracles[node_id].pop(op.key, None)

    def _revert_op_on(self, op: OpRecord, node_id: int) -> None:
        """Revert one operation on one node by logical anti-entropy.

        Physical checkpoint-seq surgery is reserved for the failing
        node's supervised ladder, where re-execution verifies the
        result.  On a live peer it is unsafe: an op's span can include
        structural writes (a CCEH directory doubling, a level-hash
        resize) that *later surviving* inserts depend on, and reverting
        them leaves the pool unrecoverable.  The peer instead restores
        the key to its last surviving write — the same causally
        consistent cut, reached through the system's own front door.
        Idempotent (a pure function of the log), so a crashed-and-
        retried catchup converges.
        """
        if node_id not in op.spans:
            return
        node = self.cluster.nodes[node_id]
        surviving = None
        for prior in self.cluster.ops_on_node(node_id):
            if prior.key == op.key and not prior.discarded:
                surviving = prior
        if surviving is None or surviving.kind == "delete":
            node.delete(op.key)
        else:
            node.insert(op.key, surviving.value)
