import ctypes

import numpy as np
import pytest

from boxmode import QuadratureSettings, ResolutionError, quadrature
from boxmode.quadrature import NODE_BUDGET, _legendre_rule, bandwidth_order

leggauss = np.polynomial.legendre.leggauss
needs_dsterf = pytest.mark.skipif(
    quadrature._dsterf() is None, reason="numpy's LAPACK exports no known dsterf"
)


@pytest.mark.parametrize("radians", [300.0, 448.0, 1000.0, 2000.0, 3000.0])
def test_bandwidth_order_resolves_plane_wave(radians):
    """The sized rule integrates exp(i w x) over [-1, 1] to the rounding floor.

    A fixed 32-node margin erred by 1.6e-11 at w = 448, 2.4e-8 at 1000 and
    1.2e-5 at 3000; rounding in the ~1500-term sum alone reaches ~2e-13.
    """
    x, w = QuadratureSettings(bandwidth_order(radians)).nodes(-1.0, 1.0)
    value = np.exp(1j * radians * x) @ w
    assert abs(value - 2.0 * np.sin(radians) / radians) < 3e-13


def test_bandwidth_order_keeps_default_floor():
    # Spans up to ~430 radians stay on 256 nodes, so small integrals keep their bytes.
    assert bandwidth_order(0.0) == bandwidth_order(430.0) == QuadratureSettings().order
    assert bandwidth_order(448.0) > QuadratureSettings().order


def test_bandwidth_order_budget():
    assert bandwidth_order(3300.0) <= NODE_BUDGET
    with pytest.raises(ResolutionError, match=f"budget {NODE_BUDGET}"):
        bandwidth_order(4000.0)
    # An infinite span, which a finite input can overflow to, meets the budget too.
    with pytest.raises(ResolutionError, match=f"inf nodes; budget {NODE_BUDGET}"):
        bandwidth_order(np.inf)
    # The shared error is a ValueError, which the CLI reports with exit code 2.
    assert issubclass(ResolutionError, ValueError)


@pytest.mark.parametrize("order", [2, 3, 256, 257, 259, 374, 2048])
def test_mapped_nodes_are_exactly_antisymmetric(order):
    """Box kernels take cos and sin on the non-negative half of the nodes and
    mirror them into the other half, which needs x[::-1] == -x bit for bit."""
    for a in (1e-9, 1.0, 2.5, 3e4):
        x, _ = QuadratureSettings(order).nodes(-a, a)
        assert np.array_equal(x[::-1], -x)
        assert x[order // 2 :].min() >= 0.0


def test_shipped_256_rule_is_bitwise_leggauss():
    """The 256-node rule ships as its non-negative half, mirrored on load. It
    must be the bits a live leggauss(256) gives, and leggauss must be exactly
    mirrored for the half to hold them; this is the guard for a platform
    whose eigensolver rounds differently."""
    x, w = _legendre_rule(256)
    live_x, live_w = np.polynomial.legendre.leggauss(256)
    assert x.tobytes() == live_x.tobytes()
    assert w.tobytes() == live_w.tobytes()
    assert np.array_equal(live_x[::-1], -live_x) and np.array_equal(live_w[::-1], live_w)


def test_built_rules_are_bitwise_leggauss():
    """Every order the box transforms build just above the shipped 256, and
    larger ones up to the budget, carry leggauss's exact bits."""
    for order in [*range(257, 401), 862, 1024, NODE_BUDGET]:
        x, w = _legendre_rule.__wrapped__(order)
        live_x, live_w = leggauss(order)
        assert x.tobytes() == live_x.tobytes(), order
        assert w.tobytes() == live_w.tobytes(), order


@needs_dsterf
def test_rules_build_without_eigvalsh(monkeypatch):
    """The eigenvalues come from LAPACK's tridiagonal solver, never from the
    dense eigvalsh."""
    expected = leggauss(300)

    def refuse(*args, **kwargs):
        raise AssertionError("eigvalsh called")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    x, w = _legendre_rule.__wrapped__(300)
    assert x.tobytes() == expected[0].tobytes() and w.tobytes() == expected[1].tobytes()


def test_rules_without_dsterf_are_bitwise_leggauss(monkeypatch):
    """Where no known dsterf symbol resolves, the eigenvalues come from
    eigvalsh on the dense matrix, as in leggauss."""
    monkeypatch.setattr(ctypes, "CDLL", lambda path: object())
    monkeypatch.setattr(quadrature, "_dsterf", quadrature._dsterf.__wrapped__)
    assert quadrature._dsterf() is None
    for order in (2, 3, 257, 374):
        x, w = _legendre_rule.__wrapped__(order)
        live_x, live_w = leggauss(order)
        assert x.tobytes() == live_x.tobytes() and w.tobytes() == live_w.tobytes()


@needs_dsterf
def test_dsterf_failure_raises_linalg_error(monkeypatch):
    """A nonzero INFO from dsterf raises LinAlgError, as eigvalsh does."""
    _, width = quadrature._dsterf()

    def fail(n, d, e, info):
        info[0] = 1

    monkeypatch.setattr(quadrature, "_dsterf", lambda: (fail, width))
    with pytest.raises(np.linalg.LinAlgError):
        _legendre_rule.__wrapped__(300)
