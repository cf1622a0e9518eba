"""Two-dimensional multigrid with zebra line relaxation (Listing 11).

Solves ``a Uxx + b Uyy + c U = F`` on an (nx+1) x (ny+1) grid with
homogeneous Dirichlet boundaries.  The algorithm is the paper's ``mg2``:

* **zebra relaxation**: solve every even-numbered y-line exactly (a
  tridiagonal system along x), then every odd-numbered line.  The x
  dimension is undistributed (``dist (*, block)``), so each line solve
  is the local ``seqtri`` of Listing 11, while the right-hand-side
  stencil (neighbor lines) is a compiled doall with automatic ghost
  exchange;
* **semi-coarsening**: the grid coarsens in y only; restriction is
  full weighting across lines and interpolation is Listing 10's
  even/odd-line formula, both expressed as doalls whose rational ``j/2``
  subscripts the affine compiler evaluates exactly;
* recursion bottoms out at ny == 2, where the single interior line's
  exact solve makes the coarsest level direct.

The same class serves the plane solves of :mod:`repro.tensor.multigrid3d`
by operating on plane *sections* of three-dimensional arrays, running on
the processor-grid slice the section inherits -- exactly how ``mg2``
receives ``u(*, *, k)`` and a one-dimensional processor array in the
paper.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.thomas import thomas_solve
from repro.lang import Assign, DistArray, Doall, Owner, ProcessorGrid, loopvars
from repro.lang.array import BaseDistArray
from repro.machine.ops import Compute, Mark
from repro.machine.simulator import Machine
from repro.tensor.adi import _broadcast, _solve_lines
from repro.tensor.poisson import Coeffs2D, check_pow2
from repro.util.errors import ValidationError


class MG2:
    """Multigrid hierarchy for one 2-D problem on one (sub)grid.

    Construction precompiles every doall of every level; ``vcycle`` is a
    generator of machine ops executed SPMD by the grid's ranks.
    """

    def __init__(
        self,
        u: BaseDistArray,
        f: BaseDistArray,
        grid: ProcessorGrid,
        coeffs: Coeffs2D = Coeffs2D(),
        name: str = "mg2",
    ):
        nx = u.shape[0] - 1
        ny = u.shape[1] - 1
        check_pow2(ny, "ny")
        if u.shape != f.shape:
            raise ValidationError("u and f must share a shape")
        self.grid = grid
        self.coeffs = coeffs
        self.nx = nx
        self.levels: list[dict] = []
        ny_l = ny
        lvl = 0
        while True:
            if lvl == 0:
                ul, fl = u, f
            else:
                ul = DistArray((nx + 1, ny_l + 1), grid, dist=self._dist_of(u),
                               name=f"{name}_u{lvl}")
                fl = DistArray((nx + 1, ny_l + 1), grid, dist=self._dist_of(u),
                               name=f"{name}_f{lvl}")
            tmp = DistArray((nx + 1, ny_l + 1), grid, dist=self._dist_of(u),
                            name=f"{name}_t{lvl}")
            rl = DistArray((nx + 1, ny_l + 1), grid, dist=self._dist_of(u),
                           name=f"{name}_r{lvl}")
            self.levels.append(self._build_level(ul, fl, tmp, rl, ny_l))
            if ny_l <= 2:
                break
            ny_l //= 2
            lvl += 1
        # link restriction/interpolation loops between adjacent levels
        for lev in range(len(self.levels) - 1):
            fine = self.levels[lev]
            coarse = self.levels[lev + 1]
            fine["restrict"] = self._build_restrict(fine["r"], coarse["f"], fine["ny"])
            fine["interp_even"], fine["interp_odd"] = self._build_interp(
                fine["u"], coarse["u"], fine["ny"]
            )

    @staticmethod
    def _dist_of(arr: BaseDistArray):
        """Per-dim distribution spec string for temp allocation."""
        specs = []
        for k in range(arr.ndim):
            specs.append("*" if arr.grid_dim_of(k) is None else "block")
        return tuple(specs)

    # ------------------------------------------------------------------
    # Loop construction
    # ------------------------------------------------------------------

    def _build_level(self, u, f, tmp, r, ny):
        c = self.coeffs
        nx = self.nx
        hx2 = (1.0 / nx) ** 2
        hy2 = (1.0 / ny) ** 2
        i, j = loopvars("i j")
        rhs = f[i, j] - (c.b / hy2) * (u[i, j - 1] + u[i, j + 1])
        zebra = {}
        for parity, lo in (("even", 2), ("odd", 1)):
            hi = ny - 2 if parity == "even" else ny - 1
            if hi < lo:
                zebra[parity] = None
                continue
            zebra[parity] = Doall(
                vars=(i, j),
                ranges=[(1, nx - 1), (lo, hi, 2)],
                on=Owner(u, (i, j)),
                body=[Assign(tmp[i, j], rhs)],
                grid=self.grid,
            )
        lap = (
            (c.a / hx2) * (u[i + 1, j] - 2.0 * u[i, j] + u[i - 1, j])
            + (c.b / hy2) * (u[i, j + 1] - 2.0 * u[i, j] + u[i, j - 1])
            + c.c * u[i, j]
        )
        resid = Doall(
            vars=(i, j),
            ranges=[(1, nx - 1), (1, ny - 1)],
            on=Owner(u, (i, j)),
            body=[Assign(r[i, j], f[i, j] - lap)],
            grid=self.grid,
        )
        # line system along x shared by all lines at this level
        diag = c.c - 2.0 * c.a / hx2 - 2.0 * c.b / hy2
        off = c.a / hx2
        bx = np.zeros(nx + 1)
        ax = np.ones(nx + 1)
        cx = np.zeros(nx + 1)
        bx[1:-1] = off
        cx[1:-1] = off
        ax[1:-1] = diag
        return {
            "u": u, "f": f, "tmp": tmp, "r": r, "ny": ny,
            "zebra": zebra, "resid": resid, "line": (bx, ax, cx),
        }

    def _build_restrict(self, r_fine, f_coarse, ny_fine):
        nyc = ny_fine // 2
        i, jc = loopvars("i jc")
        return Doall(
            vars=(i, jc),
            ranges=[(1, self.nx - 1), (1, nyc - 1)],
            on=Owner(f_coarse, (i, jc)),
            body=[
                Assign(
                    f_coarse[i, jc],
                    0.25 * (r_fine[i, 2 * jc - 1] + 2.0 * r_fine[i, 2 * jc]
                            + r_fine[i, 2 * jc + 1]),
                )
            ],
            grid=self.grid,
        )

    def _build_interp(self, u_fine, u_coarse, ny_fine):
        i, j = loopvars("i j")
        even = Doall(
            vars=(i, j),
            ranges=[(1, self.nx - 1), (2, ny_fine - 2, 2)],
            on=Owner(u_fine, (i, j)),
            body=[Assign(u_fine[i, j], u_fine[i, j] + u_coarse[i, j / 2])],
            grid=self.grid,
        ) if ny_fine >= 4 else None
        odd = Doall(
            vars=(i, j),
            ranges=[(1, self.nx - 1), (1, ny_fine - 1, 2)],
            on=Owner(u_fine, (i, j)),
            body=[
                Assign(
                    u_fine[i, j],
                    u_fine[i, j]
                    + 0.5 * (u_coarse[i, (j - 1) / 2] + u_coarse[i, (j + 1) / 2]),
                )
            ],
            grid=self.grid,
        )
        return even, odd

    # ------------------------------------------------------------------
    # Execution (SPMD generators)
    # ------------------------------------------------------------------

    def _zebra_sweep(self, ctx, level: int, parity: str):
        """One half-sweep: rhs doall + exact line solves.

        When the x dimension is undistributed (the paper's default) each
        line solve is the local ``seqtri`` of Listing 11.  When x is
        *distributed* -- the three-dimensional processor array variant
        section 5 discusses -- the lines of this parity stream through
        the shared pipelined line solver over the x-subgrid.
        """
        lv = self.levels[level]
        loop = lv["zebra"][parity]
        if loop is None:
            return
        yield from ctx.doall(loop)
        u, ny = lv["u"], lv["ny"]
        me = ctx.rank
        ul = u.local(me)
        tl = lv["tmp"].local(me)
        want = 0 if parity == "even" else 1

        def pick(lines):
            """Local indices of the held interior lines of this parity."""
            return [s for s, j in enumerate(lines) if 0 < j < ny and j % 2 == want]

        if u.grid_dim_of(0) is None:
            # local path: every line solve is sequential (Listing 11 seqtri)
            loc = pick(u.owned_lists(me)[1])
            if not loc:
                return
            rhs = tl[:, loc]  # fancy indexing: a copy
            rhs[0, :] = 0.0
            rhs[-1, :] = 0.0
            ul[:, loc] = thomas_solve(*lv["line"], rhs)
            yield Compute(flops=8.0 * (self.nx + 1) * len(loc), label="zebra_lines")
            return
        # parallel path: distribute each line solve over the x-subgrid
        rows, lines = u.owned_lists(me)
        rhs = tl.copy()
        if rows[0] == 0:
            rhs[0] = 0.0
        if rows[-1] == self.nx:
            rhs[-1] = 0.0
        yield from _solve_lines(
            ctx, u, 0, rhs, ul, _broadcast(lv["line"], u, 0, me), pick(lines),
            pipelined=True,
        )

    def _zero(self, ctx, arr):
        if arr.grid.contains(ctx.rank):
            arr.local(ctx.rank).fill(0.0)
            yield Compute(flops=float(arr.local(ctx.rank).size), label="zero")

    def vcycle(self, ctx, level: int = 0):
        """One V(1,1) cycle from ``level`` downward (generator of ops)."""
        lv = self.levels[level]
        yield Mark("mg2/level", payload=(level, lv["ny"]))
        yield from self._zebra_sweep(ctx, level, "even")
        yield from self._zebra_sweep(ctx, level, "odd")
        if level + 1 < len(self.levels):
            yield from ctx.doall(lv["resid"])
            coarse = self.levels[level + 1]
            yield from self._zero(ctx, coarse["f"])
            yield from ctx.doall(lv["restrict"])
            yield from self._zero(ctx, coarse["u"])
            yield from self.vcycle(ctx, level + 1)
            if lv["interp_even"] is not None:
                yield from ctx.doall(lv["interp_even"])
            yield from ctx.doall(lv["interp_odd"])
            yield from self._zebra_sweep(ctx, level, "even")
            yield from self._zebra_sweep(ctx, level, "odd")

    def solve(self, ctx, cycles: int):
        for _ in range(cycles):
            yield from self.vcycle(ctx)


# ----------------------------------------------------------------------
# Sequential reference (identical arithmetic)
# ----------------------------------------------------------------------


def _zebra_sweep_ref(u, f, ny, nx, coeffs, parity):
    hx2 = (1.0 / nx) ** 2
    hy2 = (1.0 / ny) ** 2
    lo = 2 if parity == "even" else 1
    hi = ny - 2 if parity == "even" else ny - 1
    if hi < lo:
        return
    diag = coeffs.c - 2.0 * coeffs.a / hx2 - 2.0 * coeffs.b / hy2
    off = coeffs.a / hx2
    bx = np.zeros(nx + 1)
    ax = np.ones(nx + 1)
    cx = np.zeros(nx + 1)
    bx[1:-1] = off
    cx[1:-1] = off
    ax[1:-1] = diag
    lines = list(range(lo, hi + 1, 2))
    rhs = np.zeros((nx + 1, len(lines)))
    for col, j in enumerate(lines):
        rhs[1:-1, col] = f[1:-1, j] - (coeffs.b / hy2) * (u[1:-1, j - 1] + u[1:-1, j + 1])
    sol = thomas_solve(bx, ax, cx, rhs)
    for col, j in enumerate(lines):
        u[:, j] = sol[:, col]


def mg2_vcycle_ref(u, f, coeffs: Coeffs2D):
    """Sequential V-cycle with the same sweeps/transfer operators."""
    nx = u.shape[0] - 1
    ny = u.shape[1] - 1
    _zebra_sweep_ref(u, f, ny, nx, coeffs, "even")
    _zebra_sweep_ref(u, f, ny, nx, coeffs, "odd")
    if ny > 2:
        r = f - _lap2(u, nx, ny, coeffs)
        nyc = ny // 2
        fc = np.zeros((nx + 1, nyc + 1))
        jc = np.arange(1, nyc)
        fc[1:-1, 1:nyc] = 0.25 * (
            r[1:-1, 2 * jc - 1] + 2.0 * r[1:-1, 2 * jc] + r[1:-1, 2 * jc + 1]
        )
        uc = np.zeros_like(fc)
        mg2_vcycle_ref(uc, fc, coeffs)
        je = np.arange(2, ny - 1, 2)
        u[1:-1, je] += uc[1:-1, je // 2]
        jo = np.arange(1, ny, 2)
        u[1:-1, jo] += 0.5 * (uc[1:-1, (jo - 1) // 2] + uc[1:-1, (jo + 1) // 2])
        _zebra_sweep_ref(u, f, ny, nx, coeffs, "even")
        _zebra_sweep_ref(u, f, ny, nx, coeffs, "odd")


def _lap2(u, nx, ny, coeffs):
    hx2 = (1.0 / nx) ** 2
    hy2 = (1.0 / ny) ** 2
    out = np.zeros_like(u)
    out[1:-1, 1:-1] = (
        coeffs.a * (u[2:, 1:-1] - 2 * u[1:-1, 1:-1] + u[:-2, 1:-1]) / hx2
        + coeffs.b * (u[1:-1, 2:] - 2 * u[1:-1, 1:-1] + u[1:-1, :-2]) / hy2
        + coeffs.c * u[1:-1, 1:-1]
    )
    return out


def mg2_reference(
    f: np.ndarray, cycles: int, coeffs: Coeffs2D = Coeffs2D()
) -> np.ndarray:
    """Sequential mg2: ``cycles`` V-cycles from a zero initial guess."""
    u = np.zeros_like(np.asarray(f, dtype=float))
    for _ in range(cycles):
        mg2_vcycle_ref(u, np.asarray(f, dtype=float), coeffs)
    return u


def mg2_solve(
    machine: Machine,
    grid: ProcessorGrid,
    f: np.ndarray,
    cycles: int,
    coeffs: Coeffs2D = Coeffs2D(),
    session=None,
):
    """Distributed mg2 on a 1-D processor grid; returns (u, trace)."""
    if grid.ndim != 1:
        raise ValidationError("mg2 runs on a 1-D processor grid")
    u = DistArray(f.shape, grid, dist=("*", "block"), name="u2")
    F = DistArray(f.shape, grid, dist=("*", "block"), name="f2")
    F.from_global(f)
    mg = MG2(u, F, grid, coeffs)

    def program(ctx):
        yield from mg.solve(ctx, cycles)

    from repro.session import run_in

    trace = run_in(program, machine, grid, session)
    return u.to_global(), trace
