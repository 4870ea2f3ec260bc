"""Gauss-Legendre quadrature with cached nodes, and a bandwidth-based order.

The default 256-node rule, the one most box integrals use, ships as a
constant (``_legendre256``) holding the exact bits ``leggauss(256)`` gives,
so a run at that order solves no eigenproblem and never imports
``numpy.polynomial``. Every other order is built once per process with the
bits ``leggauss`` gives, but from LAPACK's tridiagonal eigenvalue solver,
which starts no BLAS threads (``_legendre_rule``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Largest order a box integral may ask for. Building its rule takes ~0.15 s
# at 2048 nodes and ~0.5 s at 4096, and raises the peak RSS by under 1 MiB.
NODE_BUDGET = 2048

# Largest grid a state, momentum window or rectangle is sampled on, the far-field
# grid this package once ran: evolve_free's peak of 76 bytes of RSS per sample
# (measured at 2**22 samples) comes to 1.3 GB.
SAMPLE_BUDGET = 2**24


class ResolutionError(ValueError):
    """An input lies beyond what a method resolves within its stated budget."""


def _text(value) -> str:
    """``value`` as error messages print it: ``str(value)``, except that an
    int past Python's decimal-conversion limit (4,300 digits by default) is
    named by its sign and bit length."""
    try:
        return f"{value}"
    except ValueError:
        return f"<{'negative ' if value < 0 else ''}{abs(value).bit_length()}-bit integer>"


def _index(value, name: str, minimum: int = 0) -> int:
    """``value`` as an int; a bool, a non-integer or a value below ``minimum``
    raises ``ValueError`` naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {_text(value)}")
    return int(value)


def _positive(value, name: str):
    """Raise ``ValueError`` naming ``name`` unless 0 < ``value`` < inf."""
    if not 0 < value < np.inf:
        raise ValueError(f"{name} must be positive and finite, got {_text(value)}")


def _check_budget(samples, what: str):
    """Raise ``ResolutionError`` unless ``samples``, an int or a float (inf and
    nan fail), is at most ``SAMPLE_BUDGET``; the message counts ``what`` (say
    "sample grid"), and an int past the floats is named whole."""
    if not samples <= SAMPLE_BUDGET:
        count = _text(samples) if isinstance(samples, int) and samples > 1e300 else f"{samples:.6g}"
        raise ResolutionError(f"a {count}-{what} exceeds the budget {SAMPLE_BUDGET}")


def _finite(value, name: str):
    """Raise ``ValueError`` naming ``name`` and the first bad element unless
    every element of ``value`` (a scalar or an array) is finite."""
    bad = ~np.isfinite(value)
    if bad.any():
        raise ValueError(f"{name} must be finite, got {np.asarray(value)[bad].flat[0]}")


@lru_cache(maxsize=1)
def _dsterf():
    """LAPACK's ``dsterf`` from the library numpy's linear algebra links, and
    the integer dtype its arguments take, or None when no symbol named here
    resolves. Each name fixes the integer width: ``64_`` marks the ILP64
    interface, and scipy-openblas without it is LP64. A bare ``dsterf_`` is
    not tried, as its width cannot be told from the name."""
    import ctypes

    from numpy.ctypeslib import ndpointer

    try:
        from numpy.linalg import _umath_linalg

        lib = ctypes.CDLL(_umath_linalg.__file__)
    except (ImportError, OSError):
        return None
    symbols = (("scipy_dsterf_64_", np.int64), ("dsterf_64_", np.int64), ("scipy_dsterf_", np.int32))
    for name, width in symbols:
        try:
            dsterf = getattr(lib, name)
        except AttributeError:
            continue
        ints, reals = ndpointer(width, 1, flags="C"), ndpointer(np.float64, 1, flags="C")
        dsterf.argtypes, dsterf.restype = [ints, reals, reals, ints], None
        return dsterf, width
    return None


def _jacobi_eigenvalues(off):
    """Ascending eigenvalues of the symmetric tridiagonal matrix with a zero
    diagonal and subdiagonal ``off``, as ``eigvalsh`` gives them for the dense
    matrix. ``eigvalsh`` is ``dsytrd`` then ``dsterf``, and on a tridiagonal
    input every ``dsytrd`` reflector is the identity, so ``dsterf`` alone gets
    the same bits without the blocked updates that wake OpenBLAS's threads."""
    found = _dsterf()
    if found is None:
        return np.linalg.eigvalsh(np.diag(off, -1) + np.diag(off, 1))
    dsterf, width = found
    d, e = np.zeros(len(off) + 1), off.copy()
    n, info = np.array([len(d)], width), np.zeros(1, width)
    dsterf(n, d, e, info)
    if info[0]:
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return d


@lru_cache(maxsize=64)
def _legendre_rule(order: int):
    """Nodes and weights of the ``order``-node rule on [-1, 1], as
    ``leggauss(order)`` returns them; 256 nodes come from the shipped half
    rule, mirrored.

    Any other order follows ``leggauss`` step for step, except that the
    eigenvalues of the Legendre Jacobi matrix (Golub & Welsch, Math. Comp.
    23, 221 (1969)) come from its two diagonals by ``_jacobi_eigenvalues``,
    never from the dense ``legcompanion`` matrix."""
    if order == 256:
        from ._legendre256 import NODES, WEIGHTS

        nodes, weights = np.array(NODES), np.array(WEIGHTS)
        return np.concatenate((-nodes[::-1], nodes)), np.concatenate((weights[::-1], weights))
    from numpy.polynomial.legendre import legder, legval

    scl = 1.0 / np.sqrt(2 * np.arange(order) + 1)
    x = _jacobi_eigenvalues(np.arange(1, order) * scl[:-1] * scl[1:])
    c = np.array([0] * order + [1])
    # One Newton step, then the weights, symmetrized and scaled, as leggauss.
    dy = legval(x, c)
    df = legval(x, legder(c))
    x -= dy / df
    fm = legval(x, c[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2.0 / w.sum()
    return x, w


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
        as a constant; any other order is built with ``leggauss``'s bits on
        its first use in a process (~0.15 s at 2048 nodes).
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
