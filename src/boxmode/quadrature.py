"""Gauss-Legendre quadrature with cached nodes, and a bandwidth-based order.

The default 256-node rule, the one most box integrals use, ships as a
constant (``_legendre256``) holding the exact bits ``leggauss(256)`` gives,
so a run at that order solves no eigenproblem and never imports
``numpy.polynomial``. Every other order calls ``leggauss`` once per process.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Largest order a box integral may ask for: ``leggauss`` takes ~0.7 s and
# ~90 MiB at 2048 nodes, ~4 s and ~290 MiB at 4096.
NODE_BUDGET = 2048


class ResolutionError(ValueError):
    """An input lies beyond what a method resolves within its stated budget."""


def _index(value, name: str, minimum: int | None = 0) -> int:
    """``value`` as an int; a bool, a non-integer or a value below ``minimum``
    (when given) raises ``ValueError`` naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value}")
    return int(value)


def _positive(value, name: str):
    """Raise ``ValueError`` naming ``name`` unless 0 < ``value`` < inf."""
    if not 0 < value < np.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


def _finite(value, name: str):
    """Raise ``ValueError`` naming ``name`` unless ``value`` is finite."""
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


@lru_cache(maxsize=64)
def _legendre_rule(order: int):
    """Nodes and weights of the ``order``-node rule on [-1, 1], as
    ``leggauss(order)`` returns them; 256 nodes come from the shipped half
    rule, mirrored."""
    if order == 256:
        from ._legendre256 import NODES, WEIGHTS

        nodes, weights = np.array(NODES), np.array(WEIGHTS)
        return np.concatenate((-nodes[::-1], nodes)), np.concatenate((weights[::-1], weights))
    return np.polynomial.legendre.leggauss(order)


@dataclass(frozen=True)
class QuadratureSettings:
    """A Gauss-Legendre rule of fixed order, mapped onto finite intervals.

    Parameters
    ----------
    order : int
        Number of nodes. The default 256 resolves integrands whose phase
        turns through up to about 430 radians over half the interval; the
        package's box integrals take their order from ``bandwidth_order``,
        which never drops below this default. The 256-node rule is shipped
        as a constant; any other order is computed by ``leggauss`` on its
        first use in a process (~0.7 s at 2048 nodes).
    """

    order: int = 256

    def __post_init__(self):
        _index(self.order, "quadrature order", 2)

    def nodes(self, lo: float, hi: float):
        """Points and weights for integration over ``[lo, hi]``."""
        if not hi > lo:
            raise ValueError(f"empty integration interval [{lo}, {hi}]")
        x, w = _legendre_rule(self.order)
        half = 0.5 * (hi - lo)
        return 0.5 * (hi + lo) + half * x, half * w

    def integrate(self, f, lo: float, hi: float):
        """Integrate a vectorized callable over ``[lo, hi]``."""
        x, w = self.nodes(lo, hi)
        return np.asarray(f(x)) @ w


def bandwidth_order(radians: float) -> int:
    """Gauss-Legendre order for an integrand whose phase turns at most
    ``radians`` across half of the integration interval.

    An n-node rule resolves such an integrand once n exceeds about half the
    phase span, plus a transition that widens like the span's cube root: the
    margin 4 + 4.5 radians**(1/3) holds the rule's error on the integral of
    exp(i radians x) over [-1, 1] to ~1e-13 from 100 to 3000 radians. The
    order never drops below the default and raises ``ResolutionError`` past
    ``NODE_BUDGET``, an infinite span (a finite input whose span overflowed)
    included.
    """
    margin = 4.0 + 4.5 * np.cbrt(radians)
    order = np.ceil(radians / 2.0 + margin)
    if not order <= NODE_BUDGET:
        raise ResolutionError(f"{radians:.6g} radians need {order:.6g} nodes; budget {NODE_BUDGET}")
    return max(QuadratureSettings().order, int(order))
