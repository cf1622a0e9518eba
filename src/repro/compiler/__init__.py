"""The KF1 mini-compiler.

Given a :class:`~repro.lang.doall.Doall`, this package performs the
transformations the paper attributes to the Kali compiler:

* **strip-mining** (:mod:`repro.compiler.stripmine`): partition the
  iteration space among processors according to the ``on`` clause;
* **access analysis** (:mod:`repro.compiler.access`): per-processor
  needed-element sets for every array reference;
* **communication generation** (:mod:`repro.compiler.commgen`): matching
  send/receive sets from the overlap of owned and needed data, frozen
  into per-rank communication schedules (precomputed gather/scatter
  position arrays) at analysis time;
* **scheduling** (:mod:`repro.compiler.schedule`): the per-processor node
  program implementing copy-in/copy-out semantics.  Analyses are cached
  by structural loop key, so a loop re-executed every sweep replays its
  frozen schedule instead of re-deriving communication sets -- the
  replay/compile events appear in traces as ``commsched/hit`` and
  ``commsched/build`` marks;
* **performance estimation** (:mod:`repro.compiler.estimate`): the static
  per-loop communication/compute predictor the paper proposes as the
  companion tool;
* **dynamic inspection** (:mod:`repro.compiler.inspector`): the runtime
  two-round gather fallback for irregular references (paper's reference
  [17], the Crowley/Saltz inspector/executor scheme).

The compiled communication artifacts live in
:mod:`repro.compiler.commsched`: a
:class:`~repro.compiler.commsched.TransferSchedule` is one rank's
frozen share of a doall's transfer -- a **gather** (the ghost exchange
of a read array) or a **scatter** (the remote writes).  Beside it, two
grid-wide plans move values in process at a grid rendezvous and yield
their exchange as a data-free op stream: a
:class:`~repro.compiler.commsched.RepartitionPlan` is the owner-to-owner
relayout behind ``DistArray.redistribute`` / ``ctx.redistribute``, and
a :class:`~repro.compiler.commsched.GatherPlan` is the irregular gather
behind ``inspector_gather`` / ``ctx.cached_gather`` (the inspector ->
plan -> executor pipeline: the first call pays for the two-round
inspection, replays send one round of coalesced per-owner messages).
All of them share the ``commsched/*`` trace-mark vocabulary.  Caching
is keyed by layout *value*, never by the monotone ``comm_epoch``:
gather plans key on the array's ``layout_key()`` and every rank's
index-pattern fingerprint; repartition plans on the (from-layout,
to-layout) spec pair; doall plans (which carry the transfer schedules)
on the loop's structure plus the layout keys of its arrays.  So
repeated layout flips replay forever: a layout seen before is a hit.
"""

from repro.compiler.schedule import (
    PlanCache,
    execute_doall,
)
from repro.compiler.estimate import estimate_doall, LoopEstimate
from repro.compiler.inspector import inspector_gather
from repro.compiler.commsched import (
    GatherPlan,
    RepartitionPlan,
    TransferSchedule,
    gather_key,
    index_fingerprint,
    repartition_key,
    repartition_pieces,
)

__all__ = [
    "execute_doall",
    "PlanCache",
    "estimate_doall",
    "LoopEstimate",
    "inspector_gather",
    "TransferSchedule",
    # grid-wide plans: one per layout transition, one per gather pattern
    "RepartitionPlan",
    "repartition_key",
    "repartition_pieces",
    "GatherPlan",
    "gather_key",
    "index_fingerprint",
]
