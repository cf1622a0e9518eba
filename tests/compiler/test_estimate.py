"""Dedicated tests for the static performance estimator."""

from repro.compiler import estimate_doall
from repro.lang import Assign, DistArray, Doall, Owner, ProcessorGrid, Ref, loopvars
from repro.machine import CostModel


def stencil_loop(n, p, dist):
    g = ProcessorGrid((p,))
    A = DistArray((n,), g, dist=(dist,), name="A")
    (i,) = loopvars("i")
    loop = Doall(
        (i,), [(1, n - 2)], Owner(A, (i,)),
        [Assign(A[i], 0.5 * (A[i - 1] + A[i + 1]))], g,
    )
    return loop


def test_pointwise_loop_no_messages():
    g = ProcessorGrid((4,))
    A = DistArray((16,), g, dist=("block",), name="A")
    (i,) = loopvars("i")
    loop = Doall((i,), [(0, 15)], Owner(A, (i,)), [Assign(A[i], A[i] * 2.0)], g)
    est = estimate_doall(loop)
    assert est.total_messages() == 0
    assert est.total_bytes() == 0
    assert est.total_flops() == 16 * 2  # one mul + one store per point


def test_block_stencil_message_counts():
    est = estimate_doall(stencil_loop(16, 4, "block"))
    # interior procs exchange both edges; end procs one each: 6 messages
    assert est.total_messages() == 6
    assert est.total_bytes() == 6 * 8


def test_cyclic_stencil_floods():
    est_block = estimate_doall(stencil_loop(24, 4, "block"))
    est_cyc = estimate_doall(stencil_loop(24, 4, "cyclic"))
    assert est_cyc.total_bytes() > 5 * est_block.total_bytes()


def test_predicted_time_decreases_with_cheap_comm():
    est = estimate_doall(stencil_loop(64, 4, "block"))
    slow = est.predicted_time(CostModel.hypercube_1989())
    fast = est.predicted_time(CostModel.fast_network())
    assert fast < slow


def test_efficiency_bounds():
    est = estimate_doall(stencil_loop(64, 4, "block"))
    eff = est.predicted_efficiency(CostModel.fast_network())
    assert 0.0 < eff <= 1.0
    worse = est.predicted_efficiency(CostModel.hypercube_1989())
    assert worse <= eff


def test_imbalance_detects_triangular_iteration():
    """The LU motivation: a shrinking range starves block, not cyclic."""
    n, p = 32, 4
    imb = {}
    for dist in ("block", "cyclic"):
        g = ProcessorGrid((p,))
        A = DistArray((n, n), g, dist=(dist, "*"), name="A")
        i, j = loopvars("i j")
        k = n // 2  # late elimination step: only rows k+1.. remain
        loop = Doall(
            (i, j), [(k + 1, n - 1), (k + 1, n - 1)], Owner(A, (i, None)),
            [Assign(A[i, j], A[i, j] - A[i, k] * Ref(A, (k, k)))], g,
        )
        imb[dist] = estimate_doall(loop).load_imbalance()
    assert imb["block"] > 1.9   # half the procs idle
    assert imb["cyclic"] < 1.2


def test_report_lists_every_rank():
    est = estimate_doall(stencil_loop(16, 4, "block"))
    text = est.report(CostModel.balanced())
    for r in range(4):
        assert f"\n{r:>4} " in "\n" + text or f" {r} " in text
    assert "efficiency" in text


def test_estimate_empty_loop_grid_rank():
    """Ranks with no iterations appear with zero work."""
    g = ProcessorGrid((4,))
    A = DistArray((16,), g, dist=("block",), name="A")
    (i,) = loopvars("i")
    loop = Doall((i,), [(0, 3)], Owner(A, (i,)), [Assign(A[i], A[i] + 1.0)], g)
    est = estimate_doall(loop)
    per = {r.rank: r for r in est.per_rank}
    assert per[0].iterations == 4
    assert per[3].iterations == 0
    assert per[3].flops == 0
