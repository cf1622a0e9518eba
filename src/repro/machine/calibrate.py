"""Host calibration of the cost model (Varuna-style ``profile.py``).

The estimator (:mod:`repro.compiler.estimate`) is *exact* on simulated
time because simulated time is defined by the very
:class:`~repro.machine.costmodel.CostModel` it reads.  To predict real
host seconds -- the quantity the autotuner (:mod:`repro.tune`) ranks
layouts by -- the coefficients must come from measurement, not from
1989 presets.  This module measures them:

* **compute** -- steady-state replays of small single-processor doall
  programs, one family per ufunc kind (``stencil``: the add/mul chains
  of the paper's relaxations; ``axpy``: multiply-accumulate updates;
  ``scale``: pure copy/scale traffic).  Each family is timed at several
  sizes through the full compiled fast path, so what is measured is
  exactly what replay executes: the frozen
  :class:`~repro.compiler.commgen.StepPlan` closures.  A per-family
  least-squares line gives seconds-per-flop and a per-sweep overhead
  intercept (generator machinery, event heap -- real costs the postal
  model has no coefficient for).
* **transfers** -- two-rank ghost-exchange programs whose per-sweep
  message count and byte volume are varied independently (more stencil
  arrays -> more messages; wider rows -> more bytes), timed on the
  requested backend (``"simulator"``: in-process numpy copies through
  the schedule executor; ``"multiprocessing"``: real shared-memory
  worker transfers).  After subtracting the fitted compute share, a
  least-squares plane gives per-message latency (``alpha``) and
  per-byte bandwidth (``beta``).

:func:`fit_calibration` turns a sample table into a
:class:`CalibratedCostModel` deterministically -- same table, same
coefficients -- so fits are testable without timing anything.
:func:`calibrate` runs measurement + fit, optionally caching the result
per host (JSON, versioned); a calibration also ships inside a
:class:`~repro.elastic.Checkpoint` (``Session.checkpoint(calibration=...)``)
so a restored session can keep tuning without re-profiling.

>>> from repro.machine.calibrate import Sample, fit_calibration
>>> table = [Sample("compute", "stencil", flops=1e6, seconds=2e-3),
...          Sample("compute", "stencil", flops=2e6, seconds=4e-3),
...          Sample("transfer", "simulator", msgs=2, nbytes=1600,
...                 flops=0.0, seconds=3.2e-5),
...          Sample("transfer", "simulator", msgs=4, nbytes=1600,
...                 flops=0.0, seconds=5.2e-5)]
>>> cal = fit_calibration(table, backend="simulator")
>>> round(cal.flop_time * 1e9, 3)                     # 2 ns/flop
2.0
>>> round(cal.alpha * 1e6, 3)                         # 10 us/message
10.0
"""

from __future__ import annotations

import json
import os
import platform
import time
from dataclasses import asdict, dataclass, field, fields, replace

from repro.machine.costmodel import CostModel
from repro.util.errors import ValidationError

#: Calibration version; bump on incompatible field changes *and* when
#: the measured replay path changes cost (2: box moves replay as strided
#: copies, roughly halving ``sweep_overhead`` -- fits measured on the
#: fancy-index replay must be re-measured, not fed to the tuner).
CALIBRATION_VERSION = 2

#: The compute families measured, in order; each exercises a different
#: ufunc mix through the compiled StepPlan closures.
COMPUTE_KINDS = ("stencil", "axpy", "scale")


@dataclass(frozen=True)
class Sample:
    """One timed observation of the machine.

    ``kind`` is ``"compute"`` (label = ufunc family, ``flops`` per
    sweep) or ``"transfer"`` (label = backend name; ``msgs``/``nbytes``
    per sweep, ``flops`` the compute share to subtract).  ``seconds``
    is host wall time per sweep (min over repetitions).
    """

    kind: str
    label: str
    flops: float = 0.0
    msgs: int = 0
    nbytes: int = 0
    seconds: float = 0.0


@dataclass(frozen=True)
class CalibratedCostModel(CostModel):
    """A :class:`CostModel` whose coefficients were fitted on this host.

    Drop-in everywhere a CostModel goes (``Program.estimate``, the
    simulator, :func:`repro.tune.tune`), plus the provenance the tuner
    needs: which host and backend were measured, the per-ufunc-kind
    seconds-per-flop, the per-sweep replay overhead the postal model
    has no coefficient for, fit quality (R² per fit), and the raw
    sample table itself (so a fit can be audited or re-run).

    Serialization: :meth:`to_dict`/:meth:`from_dict` round-trip through
    plain JSON-able data (versioned -- loading a different
    ``CALIBRATION_VERSION`` raises), :meth:`save`/:meth:`load` do the
    same through a file, which is how a calibration is cached per host;
    the object also pickles, which is how a
    :class:`~repro.elastic.Checkpoint` ships it.
    """

    #: wire-format version of this calibration
    version: int = CALIBRATION_VERSION
    #: host fingerprint the samples were measured on
    host: str = ""
    #: backend the transfer samples were measured on
    backend_name: str = "simulator"
    #: per-sweep replay overhead of one loop (seconds): generator
    #: machinery, event heap -- charged once per loop per sweep by the
    #: host-seconds predictor, on top of the postal-model terms
    sweep_overhead: float = 0.0
    #: per-ufunc-kind seconds per flop, ``((kind, s/flop), ...)``
    ufunc_flop_times: tuple = ()
    #: fit quality per fitted line/plane, ``((fit name, R²), ...)``
    r2: tuple = ()
    #: the raw sample table the fit consumed (auditable provenance);
    #: excluded from equality so two fits of one table compare equal
    samples: tuple = field(default=(), compare=False)

    def fit_report(self) -> dict:
        """Fit quality and provenance: R², residuals, raw samples.

        Residuals are recomputed from the stored samples against the
        fitted coefficients (seconds, measured - predicted), so the
        report always reflects exactly this model.
        """
        residuals = []
        for s in self.samples:
            if s.kind == "compute":
                pred = self.sweep_overhead + self.flop_time * s.flops
            else:
                pred = (
                    self.sweep_overhead
                    + self.flop_time * s.flops
                    + self.alpha * s.msgs
                    + self.beta * s.nbytes
                )
            residuals.append(
                {"kind": s.kind, "label": s.label,
                 "measured_s": s.seconds, "predicted_s": pred,
                 "residual_s": s.seconds - pred}
            )
        return {
            "version": self.version,
            "host": self.host,
            "backend": self.backend_name,
            "coefficients": {
                "flop_time": self.flop_time,
                "alpha": self.alpha,
                "beta": self.beta,
                "send_overhead": self.send_overhead,
                "gamma_hop": self.gamma_hop,
                "sweep_overhead": self.sweep_overhead,
            },
            "ufunc_flop_times": dict(self.ufunc_flop_times),
            "r2": dict(self.r2),
            "residuals": residuals,
            "samples": [asdict(s) for s in self.samples],
        }

    # -- serialization (per-host caching, checkpoint shipping) ----------

    def to_dict(self) -> dict:
        """Plain JSON-able form; inverse of :meth:`from_dict`."""
        out = {
            f.name: getattr(self, f.name)
            for f in fields(self) if f.name != "samples"
        }
        out["ufunc_flop_times"] = [list(p) for p in self.ufunc_flop_times]
        out["r2"] = [list(p) for p in self.r2]
        out["samples"] = [asdict(s) for s in self.samples]
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "CalibratedCostModel":
        version = data.get("version")
        if version != CALIBRATION_VERSION:
            raise ValidationError(
                f"calibration version {version} is not supported (this "
                f"library writes version {CALIBRATION_VERSION})"
            )
        kwargs = dict(data)
        kwargs["ufunc_flop_times"] = tuple(
            (str(k), float(v)) for k, v in data.get("ufunc_flop_times", [])
        )
        kwargs["r2"] = tuple((str(k), float(v)) for k, v in data.get("r2", []))
        kwargs["samples"] = tuple(
            Sample(**s) for s in data.get("samples", [])
        )
        known = {f.name for f in fields(cls)}
        unknown = set(kwargs) - known
        if unknown:
            raise ValidationError(
                f"unknown calibration fields: {sorted(unknown)}"
            )
        return cls(**kwargs)

    def save(self, path: str) -> str:
        """Write this calibration as JSON (the per-host cache format)."""
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")
        return path

    @classmethod
    def load(cls, path: str) -> "CalibratedCostModel":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def host_fingerprint() -> str:
    """A string identifying the measured host (cache key component)."""
    return f"{platform.node()}/{platform.machine()}/{platform.python_version()}"


# ----------------------------------------------------------------------
# Fitting (pure: same sample table -> same coefficients)
# ----------------------------------------------------------------------


def _lsq_line(xs, ys) -> tuple[float, float]:
    """Least-squares ``y = c0 + c1*x`` with both coefficients clipped
    at zero (negative costs are measurement noise, never physics)."""
    import numpy as np

    A = np.stack([np.ones(len(xs)), np.asarray(xs, float)], axis=1)
    sol, *_ = np.linalg.lstsq(A, np.asarray(ys, float), rcond=None)
    return max(0.0, float(sol[0])), max(0.0, float(sol[1]))


def _lsq_plane_origin(x1, x2, ys) -> tuple[float, float]:
    """Least-squares ``y = a*x1 + b*x2`` through the origin, clipped."""
    import numpy as np

    A = np.stack([np.asarray(x1, float), np.asarray(x2, float)], axis=1)
    sol, *_ = np.linalg.lstsq(A, np.asarray(ys, float), rcond=None)
    return max(0.0, float(sol[0])), max(0.0, float(sol[1]))


def _r2(measured, predicted) -> float:
    import numpy as np

    m = np.asarray(measured, float)
    p = np.asarray(predicted, float)
    ss_res = float(np.sum((m - p) ** 2))
    ss_tot = float(np.sum((m - m.mean()) ** 2))
    if ss_tot == 0.0:
        return 1.0 if ss_res == 0.0 else 0.0
    return 1.0 - ss_res / ss_tot


def fit_calibration(
    samples, *, host: str = "", backend: str = "simulator"
) -> CalibratedCostModel:
    """Fit :class:`CalibratedCostModel` coefficients from a sample table.

    Deterministic: the fit is plain least squares over the table, so two
    calls with the same samples return equal models (the property
    ``tests/tune/test_calibrate.py`` pins).  Compute samples fit one
    line per ufunc family (``seconds = overhead + s_per_flop * flops``);
    the global ``flop_time`` is the flops-weighted mean of the family
    slopes and ``sweep_overhead`` the mean intercept.  Transfer samples,
    after subtracting their fitted compute share, fit
    ``seconds = alpha * msgs + beta * nbytes`` through the origin.
    ``send_overhead`` and ``gamma_hop`` are zero: on a shared-memory
    host the whole per-message fixed cost is measured in one place, and
    there is no store-and-forward hop to charge.
    """
    samples = tuple(samples)
    compute = [s for s in samples if s.kind == "compute"]
    transfer = [s for s in samples if s.kind == "transfer"]
    if not compute:
        raise ValidationError("fit_calibration needs at least one compute sample")

    per_kind: list[tuple[str, float]] = []
    intercepts: list[float] = []
    weights: list[float] = []
    comp_pred: list[float] = []
    for kind in sorted({s.label for s in compute}):
        rows = [s for s in compute if s.label == kind]
        c0, slope = _lsq_line([s.flops for s in rows], [s.seconds for s in rows])
        per_kind.append((kind, slope))
        intercepts.append(c0)
        weights.append(sum(s.flops for s in rows))
    total_w = sum(weights) or 1.0
    flop_time = sum(s * w for (_, s), w in zip(per_kind, weights)) / total_w
    sweep_overhead = sum(intercepts) / len(intercepts)
    for s in compute:
        comp_pred.append(sweep_overhead + flop_time * s.flops)
    r2_list = [("compute", _r2([s.seconds for s in compute], comp_pred))]

    alpha = beta = 0.0
    if transfer:
        resid = [
            max(0.0, s.seconds - sweep_overhead - flop_time * s.flops)
            for s in transfer
        ]
        alpha, beta = _lsq_plane_origin(
            [s.msgs for s in transfer], [s.nbytes for s in transfer], resid
        )
        pred = [alpha * s.msgs + beta * s.nbytes for s in transfer]
        r2_list.append(("transfer", _r2(resid, pred)))

    return CalibratedCostModel(
        alpha=alpha,
        beta=beta,
        gamma_hop=0.0,
        flop_time=flop_time,
        send_overhead=0.0,
        version=CALIBRATION_VERSION,
        host=host or host_fingerprint(),
        backend_name=backend,
        sweep_overhead=sweep_overhead,
        ufunc_flop_times=tuple(per_kind),
        r2=tuple(r2_list),
        samples=samples,
    )


# ----------------------------------------------------------------------
# Measurement (the impure half: real host seconds)
# ----------------------------------------------------------------------


def _time_sweeps(program, iters: int, reps: int, backend=None) -> float:
    """Best-of-``reps`` host seconds per sweep of a steady-state replay."""
    program.run(iters=iters, backend=backend)  # warm: freeze plans, spawn pools
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        program.run(iters=iters, backend=backend)
        best = min(best, time.perf_counter() - t0)
    return best / iters


def _compute_program(kind: str, n: int):
    """One-processor loop exercising one ufunc family's closures."""
    from repro.lang import Assign, DistArray, Doall, Owner, ProcessorGrid, loopvars
    from repro.machine.simulator import Machine
    from repro.session import Session, compile as compile_program

    grid = ProcessorGrid((1,))
    X = DistArray((n,), grid, dist=("block",), name="X")
    Y = DistArray((n,), grid, dist=("block",), name="Y")
    F = DistArray((n,), grid, dist=("block",), name="F")
    (i,) = loopvars("i")
    if kind == "stencil":
        rhs = 0.25 * (X[i - 1] + X[i + 1]) - F[i]
    elif kind == "axpy":
        rhs = F[i] * X[i] + Y[i]
    elif kind == "scale":
        rhs = 2.0 * X[i]
    else:  # pragma: no cover - defensive
        raise ValidationError(f"unknown compute family {kind!r}")
    loop = Doall(
        vars=(i,), ranges=[(1, n - 2)], on=Owner(Y, (i,)),
        body=[Assign(Y[i], rhs)], grid=grid,
    )
    sess = Session(Machine(n_procs=1))
    return compile_program(loop, session=sess)


def _transfer_program(n_arrays: int, n: int):
    """Two-rank row-ghost exchange: ``n_arrays`` stencil reads, each
    shipping one boundary row of ``n`` words per rank per sweep."""
    from repro.lang import Assign, DistArray, Doall, Owner, ProcessorGrid, loopvars
    from repro.machine.simulator import Machine
    from repro.session import Session, compile as compile_program

    grid = ProcessorGrid((2,))
    m = 8  # rows per rank: small, so bytes are dominated by n
    reads = [
        DistArray((2 * m, n), grid, dist=("block", "*"), name=f"X{k}")
        for k in range(n_arrays)
    ]
    Y = DistArray((2 * m, n), grid, dist=("block", "*"), name="Y")
    i, j = loopvars("i j")
    rhs = reads[0][i - 1, j] + reads[0][i + 1, j]
    for X in reads[1:]:
        rhs = rhs + X[i - 1, j] + X[i + 1, j]
    loop = Doall(
        vars=(i, j), ranges=[(1, 2 * m - 2), (0, n - 1)],
        on=Owner(Y, (i, j)), body=[Assign(Y[i, j], rhs)], grid=grid,
    )
    sess = Session(Machine(n_procs=2))
    return compile_program(loop, session=sess)


def measure_samples(
    *,
    backend: str = "simulator",
    sizes=(4096, 16384, 65536),
    transfer_widths=(256, 2048, 8192),
    transfer_arrays=(1, 2, 4),
    iters: int = 4,
    reps: int = 3,
) -> list[Sample]:
    """Measure a calibration sample table on this host.

    Compute families run single-processor (no wire traffic) through the
    compiled replay path; transfer programs run two ranks on the
    requested ``backend``.  Sizes are per-sweep problem sizes; every
    observation is the best of ``reps`` timed runs of ``iters`` sweeps.
    """
    from repro.compiler.estimate import estimate_doall

    if backend not in ("simulator", "multiprocessing"):
        raise ValidationError(
            f"calibrate backend must be 'simulator' or 'multiprocessing', "
            f"got {backend!r}"
        )
    samples: list[Sample] = []
    for kind in COMPUTE_KINDS:
        for n in sizes:
            prog = _compute_program(kind, n)
            est = estimate_doall(prog.loops[0], plans=prog.session.plans,
                                 count=False)
            secs = _time_sweeps(prog, iters, reps)
            samples.append(
                Sample("compute", kind, flops=est.total_flops(), seconds=secs)
            )

    run_backend = None if backend == "simulator" else backend
    for n_arrays in transfer_arrays:
        for width in transfer_widths:
            prog = _transfer_program(n_arrays, width)
            est = estimate_doall(prog.loops[0], plans=prog.session.plans,
                                 count=False)
            secs = _time_sweeps(prog, iters, reps, backend=run_backend)
            samples.append(
                Sample(
                    "transfer", backend,
                    flops=est.total_flops(),
                    msgs=est.total_messages(),
                    nbytes=est.total_bytes(),
                    seconds=secs,
                )
            )
            prog.session.close_backend()
    return samples


def calibrate(
    *,
    backend: str = "simulator",
    cache: str | None = None,
    refresh: bool = False,
    **measure_kwargs,
) -> CalibratedCostModel:
    """Measure this host and fit a :class:`CalibratedCostModel`.

    ``cache`` names a JSON file: when it exists (and matches this host,
    backend, and :data:`CALIBRATION_VERSION`) the stored calibration is
    returned without re-measuring; otherwise measurement runs and the
    result is written there.  ``refresh=True`` forces re-measurement.
    Remaining keyword arguments go to :func:`measure_samples`.
    """
    host = host_fingerprint()
    if cache and not refresh and os.path.exists(cache):
        try:
            cal = CalibratedCostModel.load(cache)
        except (ValidationError, ValueError, KeyError, TypeError):
            cal = None
        if cal is not None and cal.host == host and cal.backend_name == backend:
            return cal
    cal = fit_calibration(
        measure_samples(backend=backend, **measure_kwargs),
        host=host, backend=backend,
    )
    if cache:
        cal.save(cache)
    return cal


__all__ = [
    "CALIBRATION_VERSION",
    "COMPUTE_KINDS",
    "Sample",
    "CalibratedCostModel",
    "fit_calibration",
    "measure_samples",
    "calibrate",
    "host_fingerprint",
]

# keep dataclasses.replace usable on the frozen subclass (scaled() path)
_ = replace
