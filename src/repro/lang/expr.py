"""Expression AST for doall loop bodies.

Two small languages live here:

* **Affine index expressions** over loop variables (``i + 1``, ``4*ip - 3``,
  ``k/2``), with exact rational coefficients so semi-coarsening indices like
  ``(k+1)/2`` evaluate exactly on strided iteration sets.  These appear as
  array subscripts and in ``on`` clauses.
* **Value expressions**: arithmetic over array references and constants,
  e.g. the Jacobi stencil.  The compiler evaluates these vectorized over
  each processor's local iteration set and counts flops for the cost model.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any

import numpy as np

from repro.util.errors import CompileError


# ----------------------------------------------------------------------
# Affine index expressions
# ----------------------------------------------------------------------


class AffineExpr:
    """Exact affine form ``sum(coeff[v] * v) + const`` over loop variables."""

    __slots__ = ("coeffs", "const")

    def __init__(self, coeffs: dict | None = None, const=0):
        self.coeffs: dict[LoopVar, Fraction] = {
            v: Fraction(c) for v, c in (coeffs or {}).items() if c != 0
        }
        self.const = Fraction(const)

    # -- algebra --------------------------------------------------------

    @staticmethod
    def of(value) -> "AffineExpr":
        if isinstance(value, AffineExpr):
            return value
        if isinstance(value, LoopVar):
            return AffineExpr({value: 1})
        if isinstance(value, (int, np.integer)):
            return AffineExpr(const=int(value))
        if isinstance(value, Fraction):
            return AffineExpr(const=value)
        raise CompileError(f"cannot use {value!r} as an affine index expression")

    def __add__(self, other):
        other = AffineExpr.of(other)
        coeffs = dict(self.coeffs)
        for v, c in other.coeffs.items():
            coeffs[v] = coeffs.get(v, Fraction(0)) + c
        return AffineExpr(coeffs, self.const + other.const)

    __radd__ = __add__

    def __neg__(self):
        return AffineExpr({v: -c for v, c in self.coeffs.items()}, -self.const)

    def __sub__(self, other):
        return self + (-AffineExpr.of(other))

    def __rsub__(self, other):
        return AffineExpr.of(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, np.integer, Fraction)):
            k = Fraction(other)
            return AffineExpr({v: c * k for v, c in self.coeffs.items()}, self.const * k)
        raise CompileError("affine expressions may only be scaled by constants")

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, np.integer, Fraction)) and other != 0:
            return self * (Fraction(1) / Fraction(other))
        raise CompileError("affine expressions may only be divided by constants")

    def __floordiv__(self, other):
        # Exact division: valid only when the result is integral on the
        # iteration set (checked at evaluation time).  KF1's k/2 idiom.
        return self.__truediv__(other)

    # -- queries ---------------------------------------------------------

    def vars(self) -> set["LoopVar"]:
        return set(self.coeffs)

    def is_constant(self) -> bool:
        return not self.coeffs

    def single_var(self) -> "LoopVar | None":
        if len(self.coeffs) == 1:
            return next(iter(self.coeffs))
        return None

    def evaluate(self, env: dict) -> np.ndarray:
        """Evaluate over numpy integer arrays in ``env`` (broadcastable).

        Raises :class:`CompileError` if the rational result is not exactly
        integral for every point.
        """
        num = np.zeros((), dtype=np.int64)
        den = 1
        # Accumulate over a common denominator for exactness.
        for v, c in self.coeffs.items():
            den = den * c.denominator // np.gcd(den, c.denominator)
        den = int(np.lcm(den, self.const.denominator))
        total = None
        for v, c in self.coeffs.items():
            if v.name not in env:
                raise CompileError(f"loop variable {v.name!r} unbound")
            term = env[v.name] * int(c * den)
            total = term if total is None else total + term
        const_term = int(self.const * den)
        total = const_term if total is None else total + const_term
        total = np.asarray(total)
        if den != 1:
            if np.any(total % den != 0):
                raise CompileError(
                    f"affine index {self!r} is not integral on the iteration set"
                )
            total = total // den
        return total.astype(np.int64)

    def key(self):
        items = tuple(
            sorted(((v.name, (c.numerator, c.denominator)) for v, c in self.coeffs.items()))
        )
        return (items, (self.const.numerator, self.const.denominator))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = [f"{c}*{v.name}" for v, c in sorted(self.coeffs.items(), key=lambda x: x[0].name)]
        if self.const or not parts:
            parts.append(str(self.const))
        return " + ".join(parts)


class LoopVar:
    """A doall loop variable; arithmetic builds :class:`AffineExpr`."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __add__(self, other):
        return AffineExpr.of(self) + other

    __radd__ = __add__

    def __sub__(self, other):
        return AffineExpr.of(self) - other

    def __rsub__(self, other):
        return AffineExpr.of(other) - AffineExpr.of(self)

    def __mul__(self, other):
        return AffineExpr.of(self) * other

    __rmul__ = __mul__

    def __truediv__(self, other):
        return AffineExpr.of(self) / other

    def __floordiv__(self, other):
        return AffineExpr.of(self) // other

    def __neg__(self):
        return -AffineExpr.of(self)

    def __hash__(self) -> int:
        return hash(("loopvar", self.name))

    def __eq__(self, other) -> bool:
        return isinstance(other, LoopVar) and self.name == other.name

    def __repr__(self) -> str:  # pragma: no cover
        return self.name


def loopvars(names: str) -> tuple[LoopVar, ...]:
    """``i, j = loopvars("i j")``"""
    return tuple(LoopVar(n) for n in names.replace(",", " ").split())


# ----------------------------------------------------------------------
# Value expressions
# ----------------------------------------------------------------------


class Expr:
    """Base of value expressions; supports arithmetic operator overloading."""

    def __add__(self, other):
        return BinOp("+", self, as_expr(other))

    def __radd__(self, other):
        return BinOp("+", as_expr(other), self)

    def __sub__(self, other):
        return BinOp("-", self, as_expr(other))

    def __rsub__(self, other):
        return BinOp("-", as_expr(other), self)

    def __mul__(self, other):
        return BinOp("*", self, as_expr(other))

    def __rmul__(self, other):
        return BinOp("*", as_expr(other), self)

    def __truediv__(self, other):
        return BinOp("/", self, as_expr(other))

    def __rtruediv__(self, other):
        return BinOp("/", as_expr(other), self)

    def __neg__(self):
        return BinOp("-", Const(0.0), self)

    # -- analysis --------------------------------------------------------

    def refs(self) -> list["Ref"]:
        """All array references in the expression tree."""
        raise NotImplementedError

    def flops(self) -> int:
        """Floating point operations per evaluation point."""
        raise NotImplementedError

    def key(self):
        """Hashable structural identity (plan caching)."""
        raise NotImplementedError


def as_expr(value) -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float, np.integer, np.floating)):
        return Const(float(value))
    raise CompileError(f"cannot use {value!r} in a doall body expression")


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value: float):
        self.value = float(value)

    def refs(self) -> list["Ref"]:
        return []

    def flops(self) -> int:
        return 0

    def key(self):
        return ("const", self.value)

    def __repr__(self) -> str:  # pragma: no cover
        return repr(self.value)


class Ref(Expr):
    """Reference ``A[e0, e1, ...]`` with affine index expressions."""

    __slots__ = ("array", "idx")

    def __init__(self, array: Any, idx: tuple):
        self.array = array
        self.idx = tuple(AffineExpr.of(e) for e in idx)
        if len(self.idx) != array.ndim:
            raise CompileError(
                f"{array.ndim}-d array indexed with {len(self.idx)} subscripts"
            )

    def refs(self) -> list["Ref"]:
        return [self]

    def flops(self) -> int:
        return 0

    def vars(self) -> set[LoopVar]:
        out: set[LoopVar] = set()
        for e in self.idx:
            out |= e.vars()
        return out

    def key(self):
        # Structure only: which array (the process-unique ``uid``, never
        # ``id()`` -- CPython reuses addresses after GC, so a freed array
        # could alias a live one's cached plans) at which subscripts.
        # How that array is laid out enters a plan key once per loop,
        # in ``Doall.key``.  No fallback: an array without a uid must
        # fail loudly, not share key component None.
        return ("ref", self.array.uid, tuple(e.key() for e in self.idx))

    def __repr__(self) -> str:  # pragma: no cover
        return f"{getattr(self.array, 'name', 'A')}[{', '.join(map(repr, self.idx))}]"


class BinOp(Expr):
    __slots__ = ("op", "left", "right")

    _ops = {"+", "-", "*", "/"}

    def __init__(self, op: str, left: Expr, right: Expr):
        if op not in self._ops:
            raise CompileError(f"unsupported operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def refs(self) -> list[Ref]:
        return self.left.refs() + self.right.refs()

    def flops(self) -> int:
        return 1 + self.left.flops() + self.right.flops()

    def key(self):
        return ("bin", self.op, self.left.key(), self.right.key())

    def __repr__(self) -> str:  # pragma: no cover
        return f"({self.left!r} {self.op} {self.right!r})"


#: numpy ufuncs behind each BinOp operator -- bound once at lowering
#: time so a compiled expression never consults this table per call.
UFUNCS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}


def compile_expr(expr: Expr, resolve, alloc=None):
    """Lower a value expression into a closure (the compiled fast path).

    ``resolve(ref)`` is called once per :class:`Ref` *now*, at lowering
    time, and must return a callable producing that reference's current
    values (vectorized over the iteration set -- typically a pre-bound
    slice or fancy-index read of a gather workspace or of a block).  The
    returned closure passes its own call arguments on to every such
    read, so a caller can hand the reads what they resolve against at
    call time (the replay walks pass ``block_of``).  Each call
    re-evaluates the whole expression through pre-bound numpy ufuncs: no
    AST walk, no operator dispatch, no affine index evaluation.

    ``alloc(dtype)`` is called at lowering time for every buffer the
    tree evaluates into, and the closure returns the root's buffer,
    overwritten on each call.  The evaluation is in place: along a left
    spine ``op(acc, right, out=acc)``; a leaf on the left of an operator
    node reads first and the right child evaluates into the buffer,
    ``op(leaf, acc, out=acc)``.  So a tree takes one buffer for its
    root plus one for each operator node evaluated beside it -- the
    right child of a node whose children are both operators, or a child
    whose dtype differs from its parent's.  Each buffer has the dtype
    numpy gives its subtree (found by evaluating the tree once on
    zero-size operands); a bare reference or constant is copied into
    its buffer.  Without ``alloc`` every operator allocates its result,
    as plain numpy arithmetic would.

    Constant subtrees are Python floats, computed here once; the
    operators and their operand order are the tree's, so the result is
    bit-identical to the sequential reference's tree walk
    (:func:`repro.baselines.doall.eval_rhs`).

    >>> e = as_expr(2.0) * as_expr(3.0) - as_expr(1.0)
    >>> fn = compile_expr(e, resolve=None, alloc=lambda dt: np.empty((2,), dt))
    >>> fn()
    array([5., 5.])

    **Batch axis.**  Because the closure is a chain of pre-bound numpy
    ufuncs, a *leading batch axis* threads through for free: when the
    reads hand back ``(B,) + shape`` values and the buffers have that
    shape -- which is exactly what a batched
    :class:`~repro.compiler.commgen.StepPlan` pre-binds for
    ``Program.run_batch`` -- the same compiled closure evaluates all
    ``B`` ensemble members in one vectorized call, constants
    broadcasting across the new axis untouched:

    >>> from types import SimpleNamespace
    >>> A = SimpleNamespace(ndim=1, uid=0, dtype=np.dtype(float))
    >>> e = Ref(A, (AffineExpr(const=0),)) * as_expr(2.0)
    >>> batched = np.array([[1.0], [10.0]])        # B=2 members
    >>> fn = compile_expr(e, resolve=lambda ref: lambda: batched,
    ...                   alloc=lambda dt: np.empty((2, 1), dt))
    >>> fn()
    array([[ 2.],
           [20.]])
    """
    trial: dict[int, Any] = {}

    def dry_run(node):
        # zero-size operands give every subtree's numpy dtype; a
        # constant subtree comes out as its Python float value
        if isinstance(node, Const):
            value = node.value
        elif isinstance(node, Ref):
            value = np.empty(0, node.array.dtype)
        elif isinstance(node, BinOp):
            left, right = dry_run(node.left), dry_run(node.right)
            value = UFUNCS[node.op](left, right)
            if isinstance(left, float) and isinstance(right, float):
                value = float(value)
        else:
            raise CompileError(f"cannot compile expression {node!r}")
        trial[id(node)] = value
        return value

    def is_op(node):
        return isinstance(node, BinOp) and not isinstance(trial[id(node)], float)

    def buffer(node):
        return None if alloc is None else alloc(np.result_type(trial[id(node)]))

    def beside(node):
        """A read of ``node`` that does not touch its parent's buffer."""
        if is_op(node):
            return lower(node, buffer(node))
        if isinstance(node, Ref):
            return resolve(node)
        value = trial[id(node)]
        return lambda *args: value

    def in_place(child, node):
        return (alloc is not None and is_op(child)
                and trial[id(child)].dtype == trial[id(node)].dtype)

    def lower(node, buf):
        op = UFUNCS[node.op]
        if in_place(node.left, node):
            left, right = lower(node.left, buf), beside(node.right)

            def spine(*args):
                acc = left(*args)
                return op(acc, right(*args), out=acc)
            return spine
        if in_place(node.right, node):
            left, right = beside(node.left), lower(node.right, buf)

            def right_deep(*args):
                acc = right(*args)
                return op(left(*args), acc, out=acc)
            return right_deep
        left, right = beside(node.left), beside(node.right)
        return lambda *args: op(left(*args), right(*args), out=buf)

    dry_run(expr)
    if is_op(expr):
        fn = lower(expr, buffer(expr))
    elif alloc is None:
        fn = beside(expr)
    else:
        read, buf = beside(expr), buffer(expr)

        def copy(*args):
            buf[...] = read(*args)
            return buf
        fn = copy
    # the helpers reach one another through their closure cells, a cycle
    # only the collector frees, and it holds ``resolve`` and ``alloc`` --
    # through them a dropped plan's arrays and buffers; clearing the
    # cells lets all of it die by refcount
    del dry_run, beside, lower
    return fn


class Assign:
    """One statement ``lhs[...] = rhs`` inside a doall body.

    Copy-in/copy-out semantics: the rhs of every statement in the body
    reads array values from before the loop started.
    """

    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: Ref, rhs):
        if not isinstance(lhs, Ref):
            raise CompileError("assignment target must be an array reference")
        self.lhs = lhs
        self.rhs = as_expr(rhs)

    def key(self):
        return ("assign", self.lhs.key(), self.rhs.key())

    def __repr__(self) -> str:  # pragma: no cover
        return f"{self.lhs!r} = {self.rhs!r}"
