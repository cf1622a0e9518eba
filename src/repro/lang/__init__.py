"""KF1-style language layer: processor arrays, distributed data, doall loops.

This subpackage is the paper's contribution, recast as an embedded Python
DSL (see DESIGN.md).  The user supplies exactly the three pieces of
information KF1 asks for -- a processor array, per-dimension data
distributions, and ``doall`` loops with ``on`` clauses -- and the
mini-compiler in :mod:`repro.compiler` produces all message passing.
"""

from repro.lang.procs import ProcessorGrid
from repro.lang.dist import Block, Cyclic, BlockCyclic, Star, Distribution
from repro.lang.array import DistArray
from repro.lang.expr import (
    LoopVar,
    loopvars,
    AffineExpr,
    Expr,
    Ref,
    Const,
    BinOp,
    Assign,
)
from repro.lang.doall import Doall, Owner, OnProc
from repro.lang.context import KaliCtx
from repro.lang.kf1 import KF1Program, parse_program

__all__ = [
    "ProcessorGrid",
    "Block",
    "Cyclic",
    "BlockCyclic",
    "Star",
    "Distribution",
    "DistArray",
    "LoopVar",
    "loopvars",
    "AffineExpr",
    "Expr",
    "Ref",
    "Const",
    "BinOp",
    "Assign",
    "Doall",
    "Owner",
    "OnProc",
    "KaliCtx",
    "KF1Program",
    "parse_program",
]
