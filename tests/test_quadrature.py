import numpy as np
import pytest

from boxmode import QuadratureSettings, ResolutionError
from boxmode.quadrature import NODE_BUDGET, _legendre_rule, bandwidth_order


@pytest.mark.parametrize("radians", [300.0, 448.0, 1000.0, 2000.0, 3000.0])
def test_bandwidth_order_resolves_plane_wave(radians):
    """The sized rule integrates exp(i w x) over [-1, 1] to the rounding floor.

    A fixed 32-node margin erred by 1.6e-11 at w = 448, 2.4e-8 at 1000 and
    1.2e-5 at 3000; rounding in the ~1500-term sum alone reaches ~2e-13.
    """
    quad = QuadratureSettings(bandwidth_order(radians))
    value = quad.integrate(lambda x: np.exp(1j * radians * x), -1.0, 1.0)
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
