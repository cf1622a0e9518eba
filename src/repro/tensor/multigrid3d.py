"""Three-dimensional multigrid with zebra plane relaxation (Listings 9-10).

Solves ``a Uxx + b Uyy + g Uzz + c U = F`` with homogeneous Dirichlet
boundaries.  Exactly the structure of Listing 9:

* ``resid3`` -- a 7-point stencil doall;
* **zebra plane relaxation**: for every even z-plane (then every odd
  one) solve the plane's correction problem

      (a dxx + b dyy + (c - 2 g/hz^2)) delta = r(*, *, k)

  by calling :class:`~repro.tensor.multigrid2d.MG2` on the plane
  *section* ``u[:, :, k]``, which inherits a one-dimensional slice of
  the processor array -- the paper's central compositionality claim.
  Planes owned by different processor-grid columns relax concurrently;
* **semi-coarsening in z** (``rest3``/``intrp3``): full weighting across
  planes and Listing 10's even/odd plane interpolation, both doalls;
* recursion until nz == 2, where the single interior plane's solve is
  the coarsest-level correction.

With ``dist=("*", "*", "block")`` the planes are entirely local and the
plane solves run sequentially per processor -- the alternative
distribution discussed at the end of section 5; the distribution
ablation benchmark compares the two.

All loops are built once (in ``__init__``) and re-executed every V-cycle,
so they ride the compiler's cached communication schedules: each doall's
plan is compiled once per process (one ``commsched/build`` trace mark,
recorded by whichever rank compiles it first), and every other execution
-- the remaining ranks of that sweep and all later sweeps -- replays the
frozen gather/scatter schedule (``commsched/hit``).
``trace.schedule_hit_rate()`` reports the reuse, counted per rank per
call.
"""

from __future__ import annotations

import numpy as np

from repro.lang import Assign, DistArray, Doall, Owner, ProcessorGrid, loopvars
from repro.machine.ops import Compute, Mark
from repro.machine.simulator import Machine
from repro.tensor.multigrid2d import MG2, mg2_vcycle_ref
from repro.tensor.poisson import Coeffs2D, Coeffs3D, check_pow2
from repro.util.errors import ValidationError


class MG3:
    """Multigrid hierarchy for one 3-D problem (z-semi-coarsened)."""

    def __init__(
        self,
        u: DistArray,
        f: DistArray,
        grid: ProcessorGrid,
        coeffs: Coeffs3D = Coeffs3D(),
        plane_cycles: int = 2,
        name: str = "mg3",
    ):
        nx, ny, nz = (s - 1 for s in u.shape)
        check_pow2(nz, "nz")
        check_pow2(ny, "ny")
        self.grid = grid
        self.coeffs = coeffs
        self.plane_cycles = plane_cycles
        self.nx, self.ny = nx, ny
        dist = MG2._dist_of(u)
        self.levels: list[dict] = []
        nz_l = nz
        lvl = 0
        while True:
            if lvl == 0:
                ul, fl = u, f
            else:
                ul = DistArray((nx + 1, ny + 1, nz_l + 1), grid, dist=dist,
                               name=f"{name}_u{lvl}")
                fl = DistArray((nx + 1, ny + 1, nz_l + 1), grid, dist=dist,
                               name=f"{name}_f{lvl}")
            rl = DistArray((nx + 1, ny + 1, nz_l + 1), grid, dist=dist,
                           name=f"{name}_r{lvl}")
            dl = DistArray((nx + 1, ny + 1, nz_l + 1), grid, dist=dist,
                           name=f"{name}_d{lvl}")
            self.levels.append(self._build_level(ul, fl, rl, dl, nz_l))
            if nz_l <= 2:
                break
            nz_l //= 2
            lvl += 1
        for lev in range(len(self.levels) - 1):
            fine, coarse = self.levels[lev], self.levels[lev + 1]
            fine["restrict"] = self._build_restrict(fine["r"], coarse["f"], fine["nz"])
            fine["interp_even"], fine["interp_odd"] = self._build_interp(
                fine["u"], coarse["u"], fine["nz"]
            )

    # ------------------------------------------------------------------

    def _build_level(self, u, f, r, d, nz):
        c = self.coeffs
        nx, ny = self.nx, self.ny
        hx2, hy2, hz2 = (1.0 / nx) ** 2, (1.0 / ny) ** 2, (1.0 / nz) ** 2
        i, j, k = loopvars("i j k")
        lap = (
            (c.a / hx2) * (u[i + 1, j, k] - 2.0 * u[i, j, k] + u[i - 1, j, k])
            + (c.b / hy2) * (u[i, j + 1, k] - 2.0 * u[i, j, k] + u[i, j - 1, k])
            + (c.g / hz2) * (u[i, j, k + 1] - 2.0 * u[i, j, k] + u[i, j, k - 1])
            + c.c * u[i, j, k]
        )
        resid = Doall(
            vars=(i, j, k),
            ranges=[(1, nx - 1), (1, ny - 1), (1, nz - 1)],
            on=Owner(u, (i, j, k)),
            body=[Assign(r[i, j, k], f[i, j, k] - lap)],
            grid=self.grid,
        )
        # per-plane MG2 hierarchies for the shifted 2-D correction problem
        plane_coeffs = Coeffs2D(a=c.a, b=c.b, c=c.c - 2.0 * c.g / hz2)
        plane_mgs: dict[int, MG2] = {}
        add_loops: dict[int, Doall] = {}
        for kk in range(1, nz):
            u_sec = u[:, :, kk]
            d_sec = d[:, :, kk]
            r_sec = r[:, :, kk]
            mg = MG2(d_sec, r_sec, u_sec.grid, plane_coeffs,
                     name=f"pl{nz}_{kk}")
            plane_mgs[kk] = mg
            ii, jj = loopvars("i j")
            add_loops[kk] = Doall(
                vars=(ii, jj),
                ranges=[(1, nx - 1), (1, ny - 1)],
                on=Owner(u_sec, (ii, jj)),
                body=[Assign(u_sec[ii, jj], u_sec[ii, jj] + d_sec[ii, jj])],
                grid=u_sec.grid,
            )
        return {
            "u": u, "f": f, "r": r, "d": d, "nz": nz,
            "resid": resid, "plane_mgs": plane_mgs, "add": add_loops,
        }

    def _build_restrict(self, r_fine, f_coarse, nz_fine):
        nzc = nz_fine // 2
        i, j, kc = loopvars("i j kc")
        return Doall(
            vars=(i, j, kc),
            ranges=[(1, self.nx - 1), (1, self.ny - 1), (1, nzc - 1)],
            on=Owner(f_coarse, (i, j, kc)),
            body=[
                Assign(
                    f_coarse[i, j, kc],
                    0.25 * (r_fine[i, j, 2 * kc - 1] + 2.0 * r_fine[i, j, 2 * kc]
                            + r_fine[i, j, 2 * kc + 1]),
                )
            ],
            grid=self.grid,
        )

    def _build_interp(self, u_fine, u_coarse, nz_fine):
        i, j, k = loopvars("i j k")
        even = Doall(
            vars=(i, j, k),
            ranges=[(1, self.nx - 1), (1, self.ny - 1), (2, nz_fine - 2, 2)],
            on=Owner(u_fine, (i, j, k)),
            body=[Assign(u_fine[i, j, k], u_fine[i, j, k] + u_coarse[i, j, k / 2])],
            grid=self.grid,
        ) if nz_fine >= 4 else None
        odd = Doall(
            vars=(i, j, k),
            ranges=[(1, self.nx - 1), (1, self.ny - 1), (1, nz_fine - 1, 2)],
            on=Owner(u_fine, (i, j, k)),
            body=[
                Assign(
                    u_fine[i, j, k],
                    u_fine[i, j, k]
                    + 0.5 * (u_coarse[i, j, (k - 1) / 2] + u_coarse[i, j, (k + 1) / 2]),
                )
            ],
            grid=self.grid,
        )
        return even, odd

    # ------------------------------------------------------------------

    def _zebra_planes(self, ctx, level: int, parity: str):
        """Zebra relaxation on planes of one parity (Listing 9's doalls)."""
        lv = self.levels[level]
        nz = lv["nz"]
        yield from ctx.doall(lv["resid"])
        lo = 2 if parity == "even" else 1
        me = ctx.rank
        for kk in range(lo, nz, 2):
            mg = lv["plane_mgs"][kk]
            sec_grid = mg.grid
            if not sec_grid.contains(me):
                continue  # another processor column owns this plane
            yield Mark("mg3/plane", payload=(level, kk))
            d_sec = lv["d"][:, :, kk]
            if d_sec.grid.contains(me):
                d_sec.local(me).fill(0.0)
                yield Compute(flops=float(d_sec.local(me).size), label="zero_delta")
            yield from mg.solve(ctx, self.plane_cycles)
            yield from ctx.doall(lv["add"][kk])

    def vcycle(self, ctx, level: int = 0):
        """Listing 9: relax even planes, odd planes, then coarse-grid."""
        lv = self.levels[level]
        yield Mark("mg3/level", payload=(level, lv["nz"]))
        yield from self._zebra_planes(ctx, level, "even")
        yield from self._zebra_planes(ctx, level, "odd")
        if level + 1 < len(self.levels):
            yield from ctx.doall(lv["resid"])
            coarse = self.levels[level + 1]
            me = ctx.rank
            for arr in (coarse["f"], coarse["u"]):
                arr.local(me).fill(0.0)
            yield Compute(flops=float(coarse["f"].local(me).size), label="zero_coarse")
            yield from ctx.doall(lv["restrict"])
            yield from self.vcycle(ctx, level + 1)
            if lv["interp_even"] is not None:
                yield from ctx.doall(lv["interp_even"])
            yield from ctx.doall(lv["interp_odd"])

    def solve(self, ctx, cycles: int):
        for _ in range(cycles):
            yield from self.vcycle(ctx)


# ----------------------------------------------------------------------
# Sequential reference (identical arithmetic)
# ----------------------------------------------------------------------


def _lap3(u, nx, ny, nz, c: Coeffs3D):
    hx2, hy2, hz2 = (1.0 / nx) ** 2, (1.0 / ny) ** 2, (1.0 / nz) ** 2
    out = np.zeros_like(u)
    core = u[1:-1, 1:-1, 1:-1]
    out[1:-1, 1:-1, 1:-1] = (
        c.a * (u[2:, 1:-1, 1:-1] - 2 * core + u[:-2, 1:-1, 1:-1]) / hx2
        + c.b * (u[1:-1, 2:, 1:-1] - 2 * core + u[1:-1, :-2, 1:-1]) / hy2
        + c.g * (u[1:-1, 1:-1, 2:] - 2 * core + u[1:-1, 1:-1, :-2]) / hz2
        + c.c * core
    )
    return out


def _zebra_planes_ref(u, f, nx, ny, nz, coeffs: Coeffs3D, parity, plane_cycles):
    hz2 = (1.0 / nz) ** 2
    r = f - _lap3(u, nx, ny, nz, coeffs)
    plane_coeffs = Coeffs2D(a=coeffs.a, b=coeffs.b, c=coeffs.c - 2.0 * coeffs.g / hz2)
    lo = 2 if parity == "even" else 1
    for kk in range(lo, nz, 2):
        delta = np.zeros((nx + 1, ny + 1))
        for _ in range(plane_cycles):
            mg2_vcycle_ref(delta, r[:, :, kk], plane_coeffs)
        u[1:-1, 1:-1, kk] += delta[1:-1, 1:-1]


def mg3_vcycle_ref(u, f, coeffs: Coeffs3D, plane_cycles: int):
    nx, ny, nz = (s - 1 for s in u.shape)
    _zebra_planes_ref(u, f, nx, ny, nz, coeffs, "even", plane_cycles)
    _zebra_planes_ref(u, f, nx, ny, nz, coeffs, "odd", plane_cycles)
    if nz > 2:
        r = f - _lap3(u, nx, ny, nz, coeffs)
        nzc = nz // 2
        fc = np.zeros((nx + 1, ny + 1, nzc + 1))
        kc = np.arange(1, nzc)
        fc[1:-1, 1:-1, 1:nzc] = 0.25 * (
            r[1:-1, 1:-1, 2 * kc - 1]
            + 2.0 * r[1:-1, 1:-1, 2 * kc]
            + r[1:-1, 1:-1, 2 * kc + 1]
        )
        uc = np.zeros_like(fc)
        mg3_vcycle_ref(uc, fc, coeffs, plane_cycles)
        ke = np.arange(2, nz - 1, 2)
        u[1:-1, 1:-1, ke] += uc[1:-1, 1:-1, ke // 2]
        ko = np.arange(1, nz, 2)
        u[1:-1, 1:-1, ko] += 0.5 * (
            uc[1:-1, 1:-1, (ko - 1) // 2] + uc[1:-1, 1:-1, (ko + 1) // 2]
        )


def mg3_reference(
    f: np.ndarray,
    cycles: int,
    coeffs: Coeffs3D = Coeffs3D(),
    plane_cycles: int = 2,
) -> np.ndarray:
    """Sequential mg3: ``cycles`` V-cycles from a zero initial guess."""
    u = np.zeros_like(np.asarray(f, dtype=float))
    for _ in range(cycles):
        mg3_vcycle_ref(u, np.asarray(f, dtype=float), coeffs, plane_cycles)
    return u


def mg3_solve(
    machine: Machine,
    grid: ProcessorGrid,
    f: np.ndarray,
    cycles: int,
    coeffs: Coeffs3D = Coeffs3D(),
    plane_cycles: int = 2,
    dist=("*", "block", "block"),
    session=None,
):
    """Distributed mg3; returns (u_global, trace).

    ``dist`` selects the section-5 distribution alternative:
    ``("*", "block", "block")`` (plane solves parallel over grid columns)
    or ``("*", "*", "block")`` (plane solves sequential per processor).
    """
    n_dist = sum(1 for s in dist if s != "*")
    if grid.ndim != n_dist:
        raise ValidationError("grid ndim must match distributed dims")
    u = DistArray(f.shape, grid, dist=dist, name="u3")
    F = DistArray(f.shape, grid, dist=dist, name="f3")
    F.from_global(f)
    mg = MG3(u, F, grid, coeffs, plane_cycles=plane_cycles)

    def program(ctx):
        yield from mg.solve(ctx, cycles)

    from repro.session import run_in

    trace = run_in(program, machine, grid, session)
    return u.to_global(), trace
