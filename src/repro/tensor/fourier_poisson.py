"""Fourier-tridiagonal fast Poisson solver (kernel composition).

The introduction's claim is that tensor product algorithms combine 1-D
kernels -- "cubic spline fitting routines, Fast Fourier Transforms ...
but tridiagonal solvers are the most commonly used."  This module
composes *both* distributed kernels into the classic FACR-style fast
solver for

    Uxx + Uyy = F,   periodic in x, homogeneous Dirichlet in y,

on an nx x (ny+1) grid:

1. FFT every x-column of F (binary-exchange kernel along the
   distributed x dimension);
2. for each Fourier mode k solve the tridiagonal system
   ``(d2/dy2 - lambda_k) u_hat_k = f_hat_k`` along y (local Thomas
   solves, all of a rank's modes at once);
3. inverse FFT back to physical space.

Each FFT direction is one kind-tagged grid rendezvous (kind ``"fft"``),
built like the other collectives: its action runs the binary-exchange
FFT of every column on every rank at once, as array operations over a
trailing columns axis (:func:`repro.kernels.fft.binary_exchange`, the
arithmetic of ``fft_node_program``, so the values are the node
programs' by ``tobytes()``), and each rank then walks its data-free
stream: one column's exchange, local stages and bit reversal
(:func:`repro.kernels.fft.fft_ops`) per column, in column order.

The zero mode with all-Dirichlet data is well posed; correctness is
verified against a dense solve in the tests.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.fft import binary_exchange, fft_ops
from repro.kernels.thomas import thomas_solve
from repro.machine.ops import Compute, Rendezvous
from repro.machine.simulator import Machine
from repro.session import launch
from repro.util.errors import ValidationError


def _eigenvalues_x(nx: int) -> np.ndarray:
    """Eigenvalues of the periodic second-difference operator / hx^2."""
    hx2 = (1.0 / nx) ** 2
    k = np.arange(nx)
    return (2.0 * np.cos(2.0 * np.pi * k / nx) - 2.0) / hx2


def _mode_systems(lam: np.ndarray, ny: int):
    """Diagonals of (d2/dy2 + lam_k) with Dirichlet identity boundaries,
    one system per mode: the main diagonal is ``(ny+1, len(lam))``, the
    off-diagonals are shared."""
    hy2 = (1.0 / ny) ** 2
    b = np.zeros(ny + 1)
    a = np.ones((ny + 1, len(lam)))
    c = np.zeros(ny + 1)
    b[1:-1] = 1.0 / hy2
    c[1:-1] = 1.0 / hy2
    a[1:-1] = -2.0 / hy2 + lam
    return b, a, c


def _solve_modes(fh: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Solve every mode row of ``fh`` along y: one Thomas solve per real
    and imaginary part, over all modes at once."""
    systems = _mode_systems(lam, fh.shape[1] - 1)
    uh = np.empty_like(fh)
    uh.real = thomas_solve(*systems, fh.real.T).T
    uh.imag = thomas_solve(*systems, fh.imag.T).T
    return uh


def fourier_poisson_reference(f: np.ndarray) -> np.ndarray:
    """Sequential Fourier-tridiagonal solve (periodic-x, Dirichlet-y)."""
    nx, ny1 = f.shape
    if nx & (nx - 1):
        raise ValidationError("nx must be a power of two")
    fh = np.fft.fft(f, axis=0)
    fh[:, 0] = 0.0
    fh[:, -1] = 0.0
    uh = _solve_modes(fh, _eigenvalues_x(nx))
    return np.real(np.fft.ifft(uh, axis=0))


def apply_operator(u: np.ndarray) -> np.ndarray:
    """Periodic-x / Dirichlet-y 5-point operator (for residual checks)."""
    nx, ny1 = u.shape
    ny = ny1 - 1
    hx2 = (1.0 / nx) ** 2
    hy2 = (1.0 / ny) ** 2
    out = np.zeros_like(u)
    out[:, 1:-1] = (
        (np.roll(u, -1, axis=0)[:, 1:-1] - 2 * u[:, 1:-1] + np.roll(u, 1, axis=0)[:, 1:-1]) / hx2
        + (u[:, 2:] - 2 * u[:, 1:-1] + u[:, :-2]) / hy2
    )
    return out


def fourier_poisson_solve(
    machine: Machine, f: np.ndarray, p: int, session=None
) -> tuple[np.ndarray, object]:
    """Distributed Fourier-tridiagonal solve on ``p`` simulated processors.

    The x dimension (FFT direction) is block-distributed; after the
    forward transforms each processor owns a block of Fourier modes.
    Since y is undistributed the per-mode tridiagonal solves are local
    Thomas solves, with the parallelism across modes -- the dual
    arrangement to ADI's distributed line solves.  Returns (u, trace).
    """
    nx, ny1 = f.shape
    if nx & (nx - 1):
        raise ValidationError("nx must be a power of two")
    if p & (p - 1) or p > nx:
        raise ValidationError("p must be a power of two <= nx")
    nb = nx // p
    lam = _eigenvalues_x(nx)
    group = tuple(range(p))
    u = np.empty((nx, ny1))

    def forward(payloads):
        return dict(enumerate(binary_exchange([payloads[r] for r in group], nx)))

    def inverse(payloads):  # the conj trick: conj(fft(conj(x))) / nx
        xs = binary_exchange([np.conj(payloads[r]) for r in group], nx)
        for r, x in enumerate(xs):
            u[r * nb:(r + 1) * nb] = np.real(np.conj(x)) / nx

    def node(rank: int):
        lo, hi = rank * nb, (rank + 1) * nb
        # a direction's stream is one column's ops per column; the columns
        # share their tags, and FIFO matching per (src, tag) pairs them in
        # column order
        fwd, inv = (fft_ops(rank, p, nx, direction) * ny1 for direction in ("fwd", "inv"))
        fh = yield Rendezvous(group, ("fwd", "fft"), forward, payload=f[lo:hi])
        yield from fwd
        fh[:, 0] = 0.0
        fh[:, -1] = 0.0
        uh = _solve_modes(fh, lam[lo:hi])
        yield Compute(flops=16.0 * ny1 * nb, label="mode_solves")
        yield Rendezvous(group, ("inv", "fft"), inverse, payload=uh)
        yield from inv

    trace = launch({r: node(r) for r in group}, machine, session)
    return u, trace
