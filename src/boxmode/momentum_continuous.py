"""Continuous momentum content of box states: amplitudes, densities, widths.

The momentum amplitude of a stationary state is its Fourier transform over
the box; its squared modulus is a smooth density with removable singular
points at the two wavenumbers of the standing wave. Everything here keeps
those points finite and accurate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .quadrature import (
    QuadratureSettings,
    _check_budget,
    _finite,
    _index,
    _positive,
    bandwidth_order,
)
from .well import Eigenfunction, WellSpec


@dataclass(frozen=True)
class MomentumGrid:
    """Uniform, symmetric momentum grid with an odd number of points.

    Odd counts sample p = 0 and ±p_max exactly; counts past ``SAMPLE_BUDGET`` raise.
    """

    p_max: float
    count: int = 4001

    def __post_init__(self):
        _positive(self.p_max, "p_max")
        if _index(self.count, "count", 3) % 2 == 0:
            raise ValueError(f"count must be an odd integer >= 3, got {self.count}")
        _check_budget(self.count)

    @property
    def points(self) -> np.ndarray:
        return np.linspace(-self.p_max, self.p_max, self.count)

    @property
    def step(self) -> float:
        return 2.0 * self.p_max / (self.count - 1)


def default_grid(spec: WellSpec, n: int) -> MomentumGrid:
    """Grid spanning ±20 spike momenta, wide enough for ~1e-5 tail mass."""
    return MomentumGrid(p_max=20.0 * spec.spike_momentum(n))


def amplitude_transform(spec: WellSpec, n: int, p):
    """Momentum amplitude of state n: its Fourier transform over the box.

    Integrates psi_n(x) e^{-ipx/hbar} / sqrt(2 pi hbar) with Gauss-Legendre
    nodes, vectorized over p; the node count follows from the largest phase
    the integrand turns through (see ``_box_transform``). Odd-numbered
    levels give purely real amplitudes and even-numbered levels purely
    imaginary ones; the numerical remainder in the other component stays
    near machine precision and is returned so callers can verify it.
    """
    psi = Eigenfunction(spec, n)
    return _box_transform(spec, psi, p, psi.wavenumber * spec.half_width)


# Rows of a box-transform kernel built at once, rounded down to whole product
# steps (120 at 256 nodes): a block holds 0.5 MiB of complex entries at the
# default 256 nodes, which stays in a 2 MiB L2 cache between the cos/sin fill and
# the products, and 4 MiB at the 2048-node budget, however many momenta are asked.
KERNEL_ROWS = 128


def _in_row_blocks(rows: np.ndarray, kernel, weighted: np.ndarray) -> np.ndarray:
    """``kernel(rows) @ weighted``, the kernel built about KERNEL_ROWS rows at a
    time and each block multiplied as a stack of ``step``-row gemv products.

    From 4,096 complex entries (16 rows at 256 nodes, 11 at 374) OpenBLAS runs
    a product on its thread pool, whose idle thread then spins; ``step =
    max(2, 4095 // nodes)`` rows stay below that. ``rows`` is padded to whole steps with its
    last momentum. A gemv row does not depend on its neighbours, so each value
    is bitwise independent of the blocking; fewer than two rows keep numpy's
    direct product, whose single-row path rounds differently from gemv.
    """
    if rows.size < 2:
        return kernel(rows) @ weighted
    step = max(2, 4095 // weighted.size)
    span = step * (KERNEL_ROWS // step)
    padded = np.concatenate([rows, np.full(-rows.size % step, rows[-1])])
    out = np.empty(padded.size, dtype=complex)
    for start in range(0, padded.size, span):
        block = kernel(padded[start : start + span])
        out[start : start + span] = (block.reshape(-1, step, weighted.size) @ weighted).ravel()
    return out[: rows.size]


def _plane_waves(rows: np.ndarray, x: np.ndarray, hbar: float) -> np.ndarray:
    """The kernel exp(-i outer(rows, x) / hbar) for antisymmetric nodes x.

    ``cos`` and ``sin`` are taken on the non-negative half of x only, and the
    other half is their complex conjugate, mirrored. Mapped Gauss-Legendre
    nodes on [-a, a] satisfy x[::-1] == -x exactly, ``cos`` is exactly even,
    ``sin`` exactly odd, and numpy's complex exp(0 - i theta) is bitwise
    (cos theta, -sin theta), so the kernel equals the one-shot ``np.exp``
    byte for byte. The phase is scaled by 1 / hbar, as the complex quotient
    by hbar scales it.
    """
    half = x.size // 2
    kernel = np.empty((rows.size, x.size), dtype=complex)
    theta = np.outer(rows, x[half:])
    theta *= 1.0 / hbar
    np.cos(theta, out=kernel.real[:, half:])
    np.sin(theta, out=theta)
    np.negative(theta, out=kernel.imag[:, half:])
    np.conjugate(kernel[:, : -half - 1 : -1], out=kernel[:, :half])
    return kernel


def _box_transform(spec: WellSpec, f, p, f_radians: float):
    """Integral of f(x) e^{-ipx/hbar} / sqrt(2 pi hbar) over the box, at each p.

    ``f`` is a vectorized callable on [-a, a] whose phase turns through at
    most ``f_radians`` over a half width. The Gauss-Legendre order is
    ``bandwidth_order`` of that span plus the plane wave's a max|p| / hbar.
    The p x order kernel is built from cos and sin on the non-negative half
    of the nodes (``_plane_waves``) and applied in row blocks, each as a
    stack of products small enough to stay on the calling thread
    (``_in_row_blocks``), so memory stays bounded for any number of momenta.
    A scalar p gives a complex scalar, an array p an array of the same shape;
    a non-finite p raises ``ValueError``.
    """
    a = spec.half_width
    p_arr = np.asarray(p, dtype=float)
    _finite(p_arr, "momentum p")
    p_max = float(np.max(np.abs(p_arr), initial=0.0))
    radians = a * p_max / spec.hbar + f_radians
    x, w = QuadratureSettings(bandwidth_order(radians)).nodes(-a, a)
    weighted = w * f(x)

    def kernel(rows):
        return _plane_waves(rows, x, spec.hbar)

    values = _in_row_blocks(p_arr.ravel(), kernel, weighted) / np.sqrt(2.0 * np.pi * spec.hbar)
    if p_arr.ndim == 0:
        return complex(values[0])
    return values.reshape(p_arr.shape)


def analytic_density(spec: WellSpec, n: int, p):
    """Closed-form momentum density of state n, finite on the whole axis.

    The density is ``4 k_n^2 / (2 pi hbar a) * trig^2(q a) / (k_n^2 - q^2)^2``
    with q = p/hbar and trig = cos for odd n, sin for even n. Since
    k_n a = n pi / 2, trig^2(qa) = sin^2(ua) with u = |q| - k_n, which
    collapses the quotient to ``(a sinc(ua/pi))^2 / (2 k_n + u)^2``. That
    form is evaluated everywhere: it is free of the cancellation in
    (k_n^2 - q^2)^2 near the spikes, where the density takes its exact
    limit a / (2 pi hbar). A non-finite p raises ``ValueError``.
    """
    a = spec.half_width
    k_n = spec.wavenumber(n)
    p = np.asarray(p, dtype=float)
    _finite(p, "momentum p")
    u = np.abs(p / spec.hbar) - k_n
    lobe = a * np.sinc(u * a / np.pi)
    density = 4.0 * k_n * k_n / (2.0 * np.pi * spec.hbar * a) * (lobe / (2.0 * k_n + u)) ** 2
    return float(density) if density.ndim == 0 else density


@dataclass(frozen=True)
class ContinuousMomentumSpectrum:
    """Momentum amplitude and density of one state, sampled on a grid."""

    level: int
    grid: MomentumGrid
    amplitude: np.ndarray
    density: np.ndarray

    def __post_init__(self):
        if self.amplitude.shape != (self.grid.count,) or self.density.shape != (self.grid.count,):
            raise ValueError("amplitude and density must match the grid point count")

    def norm_trapezoid(self) -> float:
        """Trapezoid integral of the density over the grid window."""
        return float(np.trapezoid(self.density, self.grid.points))

    def peak_momenta(self) -> tuple[float, float]:
        """Grid momenta of the density maxima on the negative and positive axes."""
        p = self.grid.points
        half = self.grid.count // 2
        neg = int(np.argmax(self.density[:half]))
        pos = half + int(np.argmax(self.density[half:]))
        return float(p[neg]), float(p[pos])


def spectrum(
    spec: WellSpec, n: int, grid: MomentumGrid | None = None
) -> ContinuousMomentumSpectrum:
    """Sample the momentum amplitude of state n and its density on a grid.

    The transform's quadrature order grows with the grid's p_max, so high
    levels and wide windows do not alias.
    """
    grid = grid or default_grid(spec, n)
    amplitude = amplitude_transform(spec, n, grid.points)
    return ContinuousMomentumSpectrum(
        level=n,
        grid=grid,
        amplitude=amplitude,
        density=np.abs(amplitude) ** 2,
    )


class UncertaintyProduct(NamedTuple):
    position_width: float
    momentum_width: float
    product: float


def uncertainty_product(spec: WellSpec, n: int) -> UncertaintyProduct:
    """Position width, momentum width, and their product for state n.

    Both widths are closed forms: the position variance is
    a^2 (1/3 - 2/(n pi)^2) and the momentum width is exactly the spike
    momentum hbar k_n (the density is an even function with <p> = 0 and
    <p^2> = (hbar k_n)^2). The product always exceeds hbar/2.
    """
    dp = spec.spike_momentum(n)
    a, n_pi = spec.half_width, n * np.pi
    variance_x = a * a * (1.0 / 3.0 - 2.0 / (n_pi * n_pi))
    dx = float(np.sqrt(variance_x))
    return UncertaintyProduct(dx, dp, dx * dp)
