"""Tests for the binary-exchange FFT kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels.fft import binary_exchange, parallel_fft
from repro.machine import Hypercube, Machine
from repro.util.errors import ValidationError


@pytest.mark.parametrize("n", [2, 4, 16, 64])
@pytest.mark.parametrize("p", [1, 2, 4])
def test_fft_matches_numpy(n, p):
    if p > n:
        pytest.skip("p > n")
    rng = np.random.default_rng(n + p)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    X, _ = parallel_fft(x, p)
    np.testing.assert_allclose(X, np.fft.fft(x), rtol=1e-9, atol=1e-9)


def test_fft_p_equals_n():
    rng = np.random.default_rng(7)
    x = rng.standard_normal(8)
    X, _ = parallel_fft(x, 8)
    np.testing.assert_allclose(X, np.fft.fft(x), rtol=1e-9, atol=1e-9)


def test_fft_real_signal_symmetry():
    rng = np.random.default_rng(8)
    x = rng.standard_normal(32)
    X, _ = parallel_fft(x, 4)
    np.testing.assert_allclose(X[1:], np.conj(X[1:][::-1]), rtol=1e-8, atol=1e-8)


def test_fft_on_hypercube_topology():
    """Cross-stage exchanges are single-hop on a hypercube."""
    rng = np.random.default_rng(9)
    x = rng.standard_normal(64)
    m = Machine(topology=Hypercube(3))
    X, trace = parallel_fft(x, 8, machine=m)
    np.testing.assert_allclose(X, np.fft.fft(x), rtol=1e-9, atol=1e-9)
    exchange = [msg for msg in trace.messages if msg.tag[0] == "fft"]
    assert exchange and all(msg.hops == 1 for msg in exchange)


def test_fft_rejects_bad_sizes():
    with pytest.raises(ValidationError):
        parallel_fft(np.ones(12), 2)
    with pytest.raises(ValidationError):
        parallel_fft(np.ones(16), 3)
    with pytest.raises(ValidationError):
        parallel_fft(np.ones(4), 8)


@settings(max_examples=20)
@given(
    logn=st.integers(min_value=1, max_value=7),
    logp=st.integers(min_value=0, max_value=3),
    seed=st.integers(0, 2**31),
)
def test_property_fft_linearity_and_match(logn, logp, seed):
    n, p = 1 << logn, 1 << logp
    if p > n:
        return
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    X, _ = parallel_fft(x, p)
    np.testing.assert_allclose(X, np.fft.fft(x), rtol=1e-7, atol=1e-7)


@pytest.mark.parametrize("n, p", [(8, 1), (16, 2), (32, 4), (16, 16)])
def test_binary_exchange_columns_equal_the_node_programs(n, p):
    """The in-process transform of every rank's ``(nb, C)`` block gives
    each column the bits ``fft_node_program`` computes for it alone."""
    rng = np.random.default_rng(n + p)
    x = rng.standard_normal((n, 5)) + 1j * rng.standard_normal((n, 5))
    nb = n // p
    got = np.concatenate(binary_exchange([x[r * nb:(r + 1) * nb] for r in range(p)], n))
    for col in range(5):
        want, _ = parallel_fft(x[:, col], p)
        assert got[:, col].tobytes() == want.tobytes()
