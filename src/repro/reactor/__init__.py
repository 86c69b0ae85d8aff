"""The Arthas reactor (paper Sections 4.4-4.7).

Given a fault instruction, the reactor:

1. computes the backward slice over the static PDG and keeps PM nodes,
2. joins slice nodes with the dynamic PM-address trace via GUIDs,
3. finds checkpoint-log entries for those addresses — the **candidate
   list** of sequence numbers (:mod:`repro.reactor.plan`),
4. reverts candidates under the **purge** or **rollback** strategy, one
   by one or in batches, re-executing the target after each reversion
   until the failure stops recurring (:mod:`repro.reactor.revert`),
5. mitigates persistent leaks by diffing checkpoint-log liveness against
   PM objects the recovery function touches (:mod:`repro.reactor.leakfix`).

:mod:`repro.reactor.server` provides the server half of the paper's
Section 5 client/server split: the PDG is computed ahead of failure so mitigation
latency only pays for slicing.
"""

from repro.reactor.leakfix import find_leaked_objects, mitigate_leak
from repro.reactor.plan import Candidate, ReversionPlan, compute_plan
from repro.reactor.revert import MitigationResult, Reverter
from repro.reactor.server import ReactorServer

__all__ = [
    "Candidate",
    "ReversionPlan",
    "compute_plan",
    "MitigationResult",
    "Reverter",
    "ReactorServer",
    "find_leaked_objects",
    "mitigate_leak",
]
