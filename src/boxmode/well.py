"""Stationary states of a particle confined between hard walls at x = ±a."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quadrature import QuadratureSettings, bandwidth_order


def _check_level(n) -> int:
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ValueError(f"level index must be an integer, got {n!r}")
    if n < 1:
        raise ValueError(f"level index must be at least 1, got {n}")
    return int(n)


@dataclass(frozen=True)
class WellSpec:
    """A hard-wall box on the interval (-half_width, +half_width).

    All three parameters default to 1, i.e. natural units where energies come
    out as multiples of pi^2/8 and momenta as multiples of pi/2.
    """

    half_width: float = 1.0
    mass: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        for name in ("half_width", "mass", "hbar"):
            value = getattr(self, name)
            if not 0 < value < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")

    def wavenumber(self, n: int) -> float:
        """Wavenumber of the n-th stationary state, n*pi/(2*half_width)."""
        n = _check_level(n)
        return n * np.pi / (2.0 * self.half_width)

    def energy(self, n: int) -> float:
        """Energy of the n-th stationary state, (hbar*k_n)^2 / (2*mass)."""
        return (self.hbar * self.wavenumber(n)) ** 2 / (2.0 * self.mass)

    def spike_momentum(self, n: int) -> float:
        """Magnitude hbar*k_n shared by the two momentum spikes of state n."""
        return self.hbar * self.wavenumber(n)


class Eigenfunction:
    """Normalized stationary state, callable on scalars or arrays.

    Odd-numbered levels are even functions cos(k_n x)/sqrt(a); even-numbered
    levels are odd functions sin(k_n x)/sqrt(a). Both vanish identically
    outside the walls, including exactly at x = ±a, and at ±inf. A nan
    sample raises ``ValueError``.
    """

    def __init__(self, spec: WellSpec, n: int):
        self.spec = spec
        self.n = _check_level(n)
        self.wavenumber = spec.wavenumber(n)
        self._amplitude = 1.0 / np.sqrt(spec.half_width)
        self._trig = np.cos if self.n % 2 else np.sin

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if np.isnan(x).any():
            raise ValueError("x must not be nan")
        inside = np.abs(x) < self.spec.half_width
        values = np.where(inside, self._amplitude * self._trig(self.wavenumber * x), 0.0)
        return float(values) if values.ndim == 0 else values

    @property
    def parity(self) -> int:
        """+1 when psi(-x) = psi(x), -1 when psi(-x) = -psi(x)."""
        return 1 if self.n % 2 else -1

    @property
    def energy(self) -> float:
        return self.spec.energy(self.n)


def state_overlap(spec: WellSpec, m: int, n: int) -> float:
    """Inner product of stationary states m and n over the box.

    The product's phase turns through (k_m + k_n) a over a half width; the
    Gauss-Legendre order is sized to that span.
    """
    a = spec.half_width
    psi_m, psi_n = Eigenfunction(spec, m), Eigenfunction(spec, n)
    radians = (psi_m.wavenumber + psi_n.wavenumber) * a
    x, w = QuadratureSettings(bandwidth_order(radians)).nodes(-a, a)
    return float((psi_m(x) * psi_n(x)) @ w)


def normalization_defect(spec: WellSpec, n: int) -> float:
    """|<n|n> - 1| for the n-th state, a direct quadrature sanity check on
    the rule ``state_overlap`` sizes to 2 k_n a."""
    return abs(state_overlap(spec, n, n) - 1.0)
