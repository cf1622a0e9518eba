"""repro: KF1 parallel language constructs for tensor product computations.

A full reproduction of Mehrotra & Van Rosendale, "Parallel Language
Constructs for Tensor Product Computations on Loosely Coupled
Architectures" (ICASE 89-41 / SC 1989), built on a deterministic
simulated multicomputer.

Layers (see DESIGN.md):

* :mod:`repro.machine` -- the simulated distributed-memory machine;
* :mod:`repro.lang` -- processor arrays, distributions, distributed
  arrays, doall loops (the paper's language constructs);
* :mod:`repro.compiler` -- strip-mining, communication generation,
  scheduling, performance estimation;
* :mod:`repro.kernels` -- 1-D kernels: tridiagonal solvers (sequential,
  substructured, pipelined, cyclic reduction), FFT, splines;
* :mod:`repro.tensor` -- tensor product algorithms: Jacobi, ADI, 2-D and
  3-D multigrid with zebra relaxation;
* :mod:`repro.baselines` -- sequential and hand-message-passing
  comparison codes.

Quickstart (the two-phase compile-and-run API; see docs/api.md)::

    import numpy as np
    import repro

    session = repro.Session(repro.Machine(n_procs=4))
    program = repro.compile('''
        processors procs(2, 2)
        real X(0:64, 0:64) dist (block, block)
        real f(0:64, 0:64) dist (block, block)
        doall (i, j) = [1, 63] * [1, 63] on owner(X(i, j))
          X(i, j) = 0.25*(X(i+1, j) + X(i-1, j) + X(i, j+1) + X(i, j-1)) - f(i, j)
        end doall
    ''', session=session)
    trace = program.run(f=np.zeros((65, 65)), iters=10)
    print(trace.summary(), program.stats()["hit_rates"])
"""

from repro.machine import (
    ANY,
    Backend,
    Barrier,
    Complete,
    Compute,
    CostModel,
    Hypercube,
    Line,
    Machine,
    Mark,
    Mesh2D,
    Now,
    Recv,
    Ring,
    Send,
    Torus2D,
    Trace,
)
from repro.machine.mpbackend import MultiprocessingBackend
from repro.lang import (
    Assign,
    Block,
    BlockCyclic,
    Cyclic,
    DistArray,
    Distribution,
    Doall,
    KF1Program,
    KaliCtx,
    OnProc,
    Owner,
    ProcessorGrid,
    Star,
    loopvars,
    parse_program,
)
from repro.compiler import (
    PlanCache,
    estimate_doall,
    inspector_gather,
)
from repro.elastic import Checkpoint, checkpoint, morph, restore
from repro.machine.calibrate import CalibratedCostModel, calibrate, fit_calibration
from repro.tune import TuneResult, TuneSpace, tune
from repro.session import (
    BatchResult,
    Program,
    Session,
    compile,
    run_batch,
)
from repro.serve import Server, SessionPool
from repro.supervise import RecoveryLog, Supervisor, SupervisorPolicy
from repro import faults
from repro.util.errors import (
    CompileError,
    DeadlockError,
    DistributionError,
    MachineError,
    ReproError,
    ServerOverloadError,
    ValidationError,
)

__version__ = "0.2.0"

__all__ = [
    "__version__",
    # sessions and programs (the two-phase compile-and-run API)
    "Session", "Program", "compile",
    # serving (pooled sessions, threaded front end, batched ensembles)
    "SessionPool", "Server", "run_batch", "BatchResult",
    # elasticity (grid morphing, durable session state)
    "Checkpoint", "checkpoint", "restore", "morph",
    # resilience (supervised runs, recovery policy, chaos API)
    "Supervisor", "SupervisorPolicy", "RecoveryLog", "faults",
    # tuning (host calibration, prune-then-execute layout search)
    "tune", "TuneResult", "TuneSpace",
    "calibrate", "CalibratedCostModel", "fit_calibration",
    # machine
    "Machine", "Backend", "MultiprocessingBackend", "CostModel", "Trace",
    "Complete", "Line", "Ring", "Mesh2D", "Torus2D", "Hypercube",
    "Compute", "Send", "Recv", "Barrier", "Mark", "Now", "ANY",
    # language
    "ProcessorGrid", "DistArray", "Distribution",
    "Block", "Cyclic", "BlockCyclic", "Star",
    "Doall", "Owner", "OnProc", "Assign", "loopvars",
    "KaliCtx", "KF1Program", "parse_program",
    # compiler
    "estimate_doall", "inspector_gather", "PlanCache",
    # errors
    "ReproError", "MachineError", "DeadlockError",
    "DistributionError", "CompileError", "ValidationError",
    "ServerOverloadError",
]
