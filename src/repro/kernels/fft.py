"""Parallel binary-exchange FFT kernel.

The paper lists Fast Fourier Transforms among the one-dimensional
"kernel" routines tensor product algorithms are built from (section 3).
This module implements the hypercube-era binary-exchange radix-2 DIF
FFT: with n points block-distributed over p = 2**d processors, the first
log2(p) butterfly stages pair whole blocks across hypercube dimensions
(one block exchange each), and the remaining log2(n/p) stages are local.
A distributed bit-reversal permutation returns natural ordering.
"""

from __future__ import annotations

import numpy as np

from repro.machine.ops import Compute, Recv, Send, payload_nbytes
from repro.machine.simulator import Machine
from repro.session import launch
from repro.util.errors import ValidationError

FFT_FLOPS_PER_BUTTERFLY = 10


def _is_pow2(x: int) -> bool:
    return x > 0 and (x & (x - 1)) == 0


def _bit_reverse_indices(n: int) -> np.ndarray:
    bits = n.bit_length() - 1
    idx = np.arange(n)
    rev = np.zeros(n, dtype=np.int64)
    for b in range(bits):
        rev |= ((idx >> b) & 1) << (bits - 1 - b)
    return rev


def _rows(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``w``, one factor per row, shaped to scale the rows of ``x``: a
    ``(nb,)`` block, or an ``(nb, C)`` block of ``C`` columns."""
    return w if x.ndim == 1 else w[:, None]


def _halves(n: int) -> list[int]:
    """The DIF stages' butterfly half-sizes ``n/2, n/4, ..., 1``; with
    blocks of ``nb`` points, those ``>= nb`` pair whole blocks across
    processors and the rest are local."""
    return [n >> s for s in range(1, n.bit_length())]


def _exchange(x: np.ndarray, other: np.ndarray, rank: int, partner: int,
              offset: int, h: int) -> np.ndarray:
    """One cross-processor butterfly stage (half-size ``h >= nb``) of
    the block ``x``, whose global start is ``offset``, against its
    partner's block ``other``."""
    if rank < partner:  # I hold the "upper wing" u; partner holds v
        return x + other
    j = (np.arange(len(x)) + offset) % (2 * h)
    w = np.exp(-2j * np.pi * (j % h) / (2 * h))
    return (other - x) * _rows(w, x)


def _dif_stage(block: np.ndarray, offset: int, h: int, n: int) -> np.ndarray:
    """Apply one DIF butterfly stage (half-size h) to a local block.

    ``offset`` is the block's global start index.  Only valid when the
    stage is entirely local (h < block size divides cleanly).
    """
    nb = len(block)
    out = block.copy()
    g = np.arange(nb)
    gidx = g + offset
    j = gidx % (2 * h)
    lower = j < h
    # pairs are local by construction
    u = block[lower]
    v = block[~lower]
    w = np.exp(-2j * np.pi * (gidx[lower] % (2 * h) % h) / (2 * h))
    out[lower] = u + v
    out[~lower] = (u - v) * _rows(w, u)
    return out


def _bit_reversal(rank: int, p: int, n: int):
    """``rank``'s share of the distributed bit-reversal permutation:
    ``({q: (loc, sel)}, sources)`` -- rows ``sel`` of its block land at
    rows ``loc`` of rank ``q``'s, and ``sources`` are the other ranks
    that send to it, in rank order."""
    nb = n // p
    rev = _bit_reverse_indices(n)
    dest_global = rev[rank * nb:(rank + 1) * nb]
    dest_proc = dest_global // nb
    moves = {}
    for q in range(p):
        sel = np.nonzero(dest_proc == q)[0]
        if sel.size:
            moves[q] = (dest_global[sel] % nb, sel)
    sources = [
        q for q in range(p)
        if q != rank and np.any(rev[q * nb:(q + 1) * nb] // nb == rank)
    ]
    return moves, sources


def fft_node_program(rank: int, p: int, n: int, block: np.ndarray, out: dict):
    """Node program: binary-exchange FFT of this rank's block."""
    nb = n // p
    x = np.asarray(block, dtype=complex).copy()
    offset = rank * nb
    for h in _halves(n):
        if h >= nb:  # cross-processor stage
            partner = rank ^ (h // nb)
            yield Send(partner, x, tag=("fft", h, rank))
            other = yield Recv(src=partner, tag=("fft", h, partner))
            x = _exchange(x, other, rank, partner, offset, h)
            yield Compute(flops=FFT_FLOPS_PER_BUTTERFLY * nb, label="fft_exchange_stage")
        else:
            x = _dif_stage(x, offset, h, n)
            yield Compute(flops=FFT_FLOPS_PER_BUTTERFLY * nb // 2, label="fft_local_stage")
    moves, sources = _bit_reversal(rank, p, n)
    final = np.empty(nb, dtype=complex)
    for q, (loc, sel) in moves.items():
        if q == rank:
            final[loc] = x[sel]
        else:
            yield Send(q, (loc, x[sel]), tag=("fftrev", rank))
    for q in sources:
        loc, vals = yield Recv(src=q, tag=("fftrev", q))
        final[loc] = vals
    out[rank] = final


def binary_exchange(blocks: list[np.ndarray], n: int) -> list[np.ndarray]:
    """The binary-exchange FFT of every rank's block at once, in process.

    ``blocks[r]`` is rank ``r``'s ``(nb,)`` block, or its ``(nb, C)``
    block of ``C`` independent columns.  Runs :func:`fft_node_program`'s
    stages over all ranks (each column of an ``(nb, C)`` block is one
    transform) and returns each rank's block of the transform in natural
    order -- the values the node programs store, by ``tobytes()``.
    """
    p = len(blocks)
    nb = n // p
    xs = [np.asarray(b, dtype=complex) for b in blocks]
    for h in _halves(n):
        if h >= nb:
            xs = [_exchange(x, xs[r ^ (h // nb)], r, r ^ (h // nb), r * nb, h)
                  for r, x in enumerate(xs)]
        else:
            xs = [_dif_stage(x, r * nb, h, n) for r, x in enumerate(xs)]
    finals = [np.empty_like(x) for x in xs]
    for r, x in enumerate(xs):
        for q, (loc, sel) in _bit_reversal(r, p, n)[0].items():
            finals[q][loc] = x[sel]
    return finals


def fft_ops(rank: int, p: int, n: int, tag) -> list:
    """``rank``'s data-free share of one binary-exchange FFT.

    The ops :func:`fft_node_program` yields, in its order, with each
    ``Send`` carrying only the byte count of its block (complex values,
    plus int64 row indices for the bit reversal) and every ``Recv``
    discarding; message tags are ``(tag, h, rank)`` and
    ``(tag, "rev", rank)``.
    """
    nb = n // p
    ops = []
    for h in _halves(n):
        if h >= nb:
            partner = rank ^ (h // nb)
            ops += [
                Send(partner, None, (tag, h, rank), 16 * nb),
                Recv(partner, (tag, h, partner)),
                Compute(flops=FFT_FLOPS_PER_BUTTERFLY * nb, label="fft_exchange_stage"),
            ]
        else:
            ops.append(Compute(flops=FFT_FLOPS_PER_BUTTERFLY * nb // 2,
                               label="fft_local_stage"))
    moves, sources = _bit_reversal(rank, p, n)
    # a bit-reversal message is (rows, values), as fft_node_program sends it
    ops += [Send(q, None, (tag, "rev", rank), payload_nbytes((loc, loc.astype(complex))))
            for q, (loc, _) in moves.items() if q != rank]
    ops += [Recv(q, (tag, "rev", q)) for q in sources]
    return ops


def parallel_fft(
    x: np.ndarray, p: int, machine: Machine | None = None, session=None
) -> tuple[np.ndarray, "object"]:
    """Distributed FFT of ``x`` over ``p`` simulated processors.

    Returns (X, trace) where X matches ``numpy.fft.fft(x)``.
    """
    x = np.asarray(x, dtype=complex)
    n = len(x)
    if not _is_pow2(n):
        raise ValidationError(f"FFT size must be a power of two, got {n}")
    if not _is_pow2(p) or p > n:
        raise ValidationError(f"p must be a power of two <= n, got {p}")
    if machine is None:
        machine = Machine(n_procs=p)
    nb = n // p
    out: dict[int, np.ndarray] = {}

    def make(rank):
        return fft_node_program(rank, p, n, x[rank * nb : (rank + 1) * nb], out)

    trace = launch({r: make(r) for r in range(p)}, machine, session)
    X = np.concatenate([out[r] for r in range(p)])
    return X, trace
