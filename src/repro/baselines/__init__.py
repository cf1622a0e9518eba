"""Comparison baselines for the paper's expressiveness claims.

* :mod:`repro.baselines.sequential` -- Listing 1-style sequential codes;
* :mod:`repro.baselines.doall` -- the reference semantics of any
  ``Doall``: a sequential numpy sweep over global arrays, which every
  distributed executor's values are checked against;
* :mod:`repro.baselines.message_passing` -- Listing 2-style explicit
  message-passing codes written directly against the machine API, the
  style the paper argues against;
* :mod:`repro.baselines.loc` -- program-length accounting backing the
  section 6 claim that message-passing versions are "five to ten times
  longer than the sequential version".
"""

from repro.baselines.sequential import jacobi_sequential
from repro.baselines.doall import doall_reference
from repro.baselines.message_passing import jacobi_message_passing, mp_jacobi_node
from repro.baselines.loc import count_loc, loc_report

__all__ = [
    "jacobi_sequential",
    "doall_reference",
    "jacobi_message_passing",
    "mp_jacobi_node",
    "count_loc",
    "loc_report",
]
