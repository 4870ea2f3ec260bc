"""Stationary states of a particle confined between hard walls at x = ±a."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quadrature import (
    QuadratureSettings,
    ResolutionError,
    _index,
    _positive,
    _text,
    bandwidth_order,
)


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
            _positive(getattr(self, name), name)
        momentum = self.hbar * (np.pi / (2.0 * self.half_width))  # spike_momentum(1)
        if not (0 < momentum < np.inf and 0 < momentum * momentum / (2.0 * self.mass) < np.inf):
            raise ValueError(
                f"half_width={self.half_width}, mass={self.mass} and hbar={self.hbar} put "
                "the ground level's momentum or energy outside the float range"
            )

    def wavenumber(self, n: int) -> float:
        """Wavenumber of the n-th stationary state, n*pi/(2*half_width); a
        level whose wavenumber overflows a float raises ``ResolutionError``."""
        n = _index(n, "level index", 1)
        # From 2**1023 on, n*pi is past the float range, or n itself is.
        k = n * np.pi / (2.0 * self.half_width) if n.bit_length() <= 1023 else np.inf
        if k == np.inf:
            raise ResolutionError(f"level {_text(n)}'s wavenumber overflows a float")
        return k

    def energy(self, n: int) -> float:
        """Energy of the n-th stationary state, (hbar*k_n)^2 / (2*mass); a
        level whose energy overflows a float raises ``ResolutionError``."""
        p = self.hbar * self.wavenumber(n)
        energy = p * p / (2.0 * self.mass)
        if energy == np.inf:
            raise ResolutionError(f"level {n}'s energy overflows a float")
        return energy

    def spike_momentum(self, n: int) -> float:
        """Magnitude hbar*k_n shared by the two momentum spikes of state n."""
        return self.hbar * self.wavenumber(n)


class Eigenfunction:
    """Normalized stationary state, callable on scalars or arrays.

    Odd-numbered levels are even functions cos(k_n x)/sqrt(a); even-numbered
    levels are odd functions sin(k_n x)/sqrt(a). Both vanish identically
    outside the walls, including exactly at x = ±a, and at ±inf, where no
    trigonometry is taken. A nan sample raises ``ValueError``.
    """

    def __init__(self, spec: WellSpec, n: int):
        self.spec = spec
        self.n = _index(n, "level index", 1)
        self.wavenumber = spec.wavenumber(self.n)
        self._amplitude = 1.0 / np.sqrt(spec.half_width)
        self._trig = np.cos if self.n % 2 else np.sin

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if np.isnan(x).any():
            raise ValueError("x must not be nan")
        inside = np.abs(x) < self.spec.half_width
        values = np.multiply(self.wavenumber, x, out=np.empty(x.shape))
        self._trig(values, out=values, where=inside)
        values[~inside] = 0.0
        values *= self._amplitude
        return float(values) if values.ndim == 0 else values

    @property
    def parity(self) -> int:
        """+1 when psi(-x) = psi(x), -1 when psi(-x) = -psi(x)."""
        return 1 if self.n % 2 else -1


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
