"""Golden pins of the multi-system tridiagonal solvers and cyclic reduction.

The paper's figures record only rounded makespans of these kernels
(``L4.txt``, ``L6.txt``).  These pins hold everything a rewrite of their
node programs must keep: the solved values (by ``tobytes()``), and per
rank every message record ``(src, dst, tag, nbytes, t_send, t_arrive,
t_recv)`` it sent, every compute record and every mark.  They were taken
from the node programs that walked the partition method's tree once per
driver (``tri_node_program`` for one system, ``pipelined_node_program``
for all of them) and that derived cyclic reduction's neighbour exchange
separately for its reduction and its substitution.
"""

import hashlib

import numpy as np
import pytest

from repro.kernels.cyclic_reduction import distributed_cyclic_reduction
from repro.kernels.pipelined import pipelined_multi_tri_solve, sequential_multi_tri_solve
from repro.kernels.substructured import ContiguousMapping, ShuffleMapping


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _pins(x, trace):
    """``(values digest, message count, makespan, {rank: records digest})``."""
    per_rank = {}

    def mine(rank):
        return per_rank.setdefault(rank, ([], [], []))

    for m in trace.messages:
        mine(m.src)[0].append((m.src, m.dst, m.tag, m.nbytes, m.t_send, m.t_arrive, m.t_recv))
    for c in trace.computes:
        mine(c.proc)[1].append((c.start, c.end, c.label))
    for k in trace.marks:
        mine(k.proc)[2].append((k.time, k.label, k.payload))
    records = {r: _digest(v) for r, v in sorted(per_rank.items())}
    return _digest(x.tobytes()), trace.message_count(), trace.makespan(), records


def _systems(m, n, seed):
    rng = np.random.default_rng(seed)
    B = rng.uniform(-1, 1, (m, n))
    C = rng.uniform(-1, 1, (m, n))
    A = np.abs(B) + np.abs(C) + rng.uniform(1.0, 2.0, (m, n))
    F = rng.uniform(-5, 5, (m, n))
    return B, A, C, F


@pytest.mark.parametrize("mapping", [ContiguousMapping, ShuffleMapping], ids=lambda c: c.name)
@pytest.mark.parametrize("solver", [sequential_multi_tri_solve, pipelined_multi_tri_solve],
                         ids=lambda f: f.__name__)
def test_multi_tri_solvers_equal_the_pins(solver, mapping):
    X, trace = solver(*_systems(3, 18, seed=48), p=4, mapping_cls=mapping)
    assert _pins(X, trace) == MULTI_TRI[solver.__name__, mapping.name]


def test_distributed_cyclic_reduction_equals_the_pins():
    b, a, c, f = (d[0] for d in _systems(1, 17, seed=17))
    x, trace = distributed_cyclic_reduction(b, a, c, f, p=3)
    assert _pins(x, trace) == CYCLIC_REDUCTION


# ----------------------------------------------------------------------
# The pins
# ----------------------------------------------------------------------

MULTI_TRI = {
    ("sequential_multi_tri_solve", "contiguous"): (
        "ea7e2bb7260652a6", 18, 0.0022739999999999995,
        {0: "74aef07db958797b", 1: "9e7d1cae87c94737",
         2: "48558a5c46ceec18", 3: "00a279a257b44965"},
    ),
    ("sequential_multi_tri_solve", "shuffle"): (
        "ea7e2bb7260652a6", 30, 0.0024749999999999993,
        {0: "ffb9848e8cd687ec", 1: "1898ddb89c425667",
         2: "db26de0692567698", 3: "cbfcf1ba7b366bff"},
    ),
    ("pipelined_multi_tri_solve", "contiguous"): (
        "ea7e2bb7260652a6", 18, 0.0010290000000000002,
        {0: "4e7224d502053654", 1: "f07737cbf842ec26",
         2: "f72bfe6a8178cfd5", 3: "62100a5ed77d5197"},
    ),
    ("pipelined_multi_tri_solve", "shuffle"): (
        "ea7e2bb7260652a6", 30, 0.0011490000000000003,
        {0: "6380c76a2b3cf9b7", 1: "76452f39ce4e65df",
         2: "0711479e70be4ac7", 3: "e9631bb461c193c5"},
    ),
}

CYCLIC_REDUCTION = (
    "8582398cb3b0490c", 14, 0.0011120000000000001,
    {0: "4cd55386ad4a156d", 1: "1afa70cc48d15ceb", 2: "53645629449e84e0"},
)
