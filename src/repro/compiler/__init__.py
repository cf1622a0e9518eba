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

The bidirectional TransferSchedule subsystem lives in
:mod:`repro.compiler.commsched`: a
:class:`~repro.compiler.commsched.TransferSchedule` is one rank's
compiled share of a collective transfer -- a **gather** (the inspector ->
schedule -> executor pipeline for irregular references: a one-time
inspection builds the schedule, the vectorized executor replays it with
a single round of coalesced per-owner messages) or a **scatter** (the
frozen remote-write plans of doall loops).  Beside it, a
:class:`~repro.compiler.commsched.RepartitionPlan` is the grid-wide
owner-to-owner relayout behind ``DistArray.redistribute`` /
``ctx.redistribute``: it moves the values in process, and the parsub
form yields its exchange as a data-free op stream.  All of them share
the ``commsched/*`` trace-mark vocabulary.  Caching is keyed by layout
*value*, never by the monotone ``comm_epoch``: gather schedules key on
the array's ``layout_key()`` and an index-pattern fingerprint;
repartition plans on the (from-layout, to-layout) spec pair; doall
plans (which carry the scatter schedules) on the loop's structure plus
the layout keys of its arrays.  So repeated layout flips replay
forever, in every cache: a layout seen before is a hit.
"""

from repro.compiler.schedule import (
    PlanCache,
    execute_doall,
)
from repro.compiler.estimate import estimate_doall, LoopEstimate
from repro.compiler.inspector import inspector_gather
from repro.compiler.commsched import (
    RepartitionPlan,
    ScheduleCache,
    TransferSchedule,
    build_gather_schedule,
    execute_gather,
    execute_transfer,
    index_fingerprint,
    repartition_key,
    repartition_pieces,
    schedule_key,
)

__all__ = [
    "execute_doall",
    "PlanCache",
    "estimate_doall",
    "LoopEstimate",
    "inspector_gather",
    # the bidirectional TransferSchedule subsystem
    "TransferSchedule",
    "ScheduleCache",
    "execute_transfer",
    "build_gather_schedule",
    "execute_gather",
    # one grid-wide plan per layout transition
    "RepartitionPlan",
    "repartition_key",
    "repartition_pieces",
    "index_fingerprint",
    "schedule_key",
]
