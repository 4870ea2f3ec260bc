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
    """Uniform momentum grid with an odd number of points, exactly antisymmetric.

    ``points`` is ``np.linspace(-p_max, p_max, count)``'s negative half, bit
    for bit, and its mirror: points[::-1] == -points, the centre is +0.0 and
    ±p_max are exact. So a box transform on it builds count // 2 + 1 kernel
    rows, one per distinct |p| (``_in_row_blocks``). Counts past
    ``SAMPLE_BUDGET`` raise.
    """

    p_max: float
    count: int = 4001

    def __post_init__(self):
        _positive(self.p_max, "p_max")
        if _index(self.count, "count", 3) % 2 == 0:
            raise ValueError(f"count must be an odd integer >= 3, got {self.count}")
        _check_budget(self.count, "sample grid")

    @property
    def points(self) -> np.ndarray:
        # linspace(-p_max, p_max, count) takes the same step, p_max / (count // 2),
        # but its centre, (count // 2) * step - p_max, need not be 0.
        negative = np.linspace(-self.p_max, 0.0, self.count // 2 + 1)
        return np.concatenate((negative, -negative[-2::-1]))


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

# The largest kernel table kept for the next transform: 2 MiB holds the far-field
# ladder's (1,005 rows of 128 half-nodes, 1.96 MiB), whose rungs repeat it, and
# not a default 4,001-point spectrum's (3.93 MiB), so what stays behind is bounded
# whatever the number of momenta.
_MEMO_BYTES = 2 * 2**20

# The last kept kernel table, {(magnitudes, nodes, hbar) as bytes: table}, at most
# one entry. A table enters it complete and is never written again, so a
# transform in another thread that holds one still reads the right rows.
_memo: dict = {}


def _in_row_blocks(
    rows: np.ndarray,
    x: np.ndarray,
    hbar: float,
    weighted: np.ndarray,
    divisor: float | None = None,
) -> np.ndarray:
    """``kernel(rows) @ weighted`` for the kernel exp(-i outer(rows, x) / hbar),
    divided by ``divisor`` when one is given, built about KERNEL_ROWS rows at
    a time and each block multiplied as a stack of ``step``-row gemv products.

    One buffer serves every block: a fresh 0.5 MiB block per step let glibc
    hand its pages back and fault them in again, about 3,000 minor faults per
    4,001-row transform in some heap states. From 4,096 complex entries (16
    rows at 256 nodes, 11 at 374) OpenBLAS runs a product on its thread pool,
    whose idle thread then spins; ``step = max(2, 4095 // nodes)`` rows stay
    below that.

    The kernel satisfies kernel(-p) == conj(kernel(p)) bit for bit, signed
    zeros included, and so does its quotient by a real divisor. So one row
    is built per distinct |p|, padded with the largest to whole steps: its
    block is multiplied for +|p| and, if some row with ``np.signbit`` needs
    it, conjugated in place and multiplied again for -|p|. A gemv row does
    not depend on its neighbours, so each value is bitwise independent of
    the blocking and the order; fewer than two rows keep numpy's direct
    product, whose single-row path rounds differently from gemv.

    The right halves that ``_plane_waves`` computes are kept, read-only, for
    the next call whose padded magnitudes, nodes and hbar have the same
    bytes, if they fit in ``_MEMO_BYTES``; that call copies them into the
    buffer and mirrors their conjugate instead of calling ``_plane_waves``.
    They are taken before the division, so a divisor needs no place in the
    key. Any other call drops the kept table.
    """
    if rows.size < 2:
        block = _plane_waves(rows, x, hbar, np.empty((rows.size, x.size), dtype=complex))
        if divisor is not None:
            block /= divisor
        return block @ weighted
    step = max(2, 4095 // x.size)
    span = step * (KERNEL_ROWS // step)
    magnitudes, inverse = np.unique(np.abs(rows), return_inverse=True)
    padded = np.concatenate([magnitudes, np.full(-magnitudes.size % step, magnitudes[-1])])
    negative = np.signbit(rows)
    conjugated = np.zeros(padded.size, dtype=bool)
    conjugated[inverse[negative]] = True
    plus = np.empty(padded.size, dtype=complex)
    minus = np.empty(padded.size, dtype=complex)
    buffer = np.empty((min(span, padded.size), x.size), dtype=complex)
    half = x.size // 2
    key = (padded.tobytes(), x.tobytes(), np.float64(hbar).tobytes())
    kept = _memo.get(key)
    fresh = None
    if kept is None:
        _memo.clear()
        if padded.size * (x.size - half) * buffer.itemsize <= _MEMO_BYTES:
            fresh = np.empty((padded.size, x.size - half), dtype=complex)

    def stacked(block):
        return (block.reshape(-1, step, x.size) @ weighted).ravel()

    for start in range(0, padded.size, span):
        chunk = padded[start : start + span]
        block = buffer[: chunk.size]
        if kept is None:
            _plane_waves(chunk, x, hbar, block)
            if fresh is not None:
                fresh[start : start + span] = block[:, half:]
        else:
            block[:, half:] = kept[start : start + span]
            _mirror(block)
        if divisor is not None:
            block /= divisor
        plus[start : start + span] = stacked(block)
        if conjugated[start : start + span].any():
            np.conjugate(block, out=block)
            minus[start : start + span] = stacked(block)
    if fresh is not None:
        fresh.flags.writeable = False
        _memo[key] = fresh
    return np.where(negative, minus[inverse], plus[inverse])


def _plane_waves(rows: np.ndarray, x: np.ndarray, hbar: float, out: np.ndarray) -> np.ndarray:
    """The kernel exp(-i outer(rows, x) / hbar) for antisymmetric nodes x,
    written into ``out``, a (rows.size, x.size) complex array, and returned.

    ``cos`` and ``sin`` are taken on the negated non-negative half of x
    only, straight into the real and imaginary parts, and the other half is
    their complex conjugate, mirrored (``_mirror``). Mapped Gauss-Legendre
    nodes on [-a, a] satisfy x[::-1] == -x exactly, ``cos`` is exactly even,
    ``sin`` exactly odd, and numpy's complex exp(0 - i theta) is bitwise
    (cos theta, -sin theta), so the kernel equals the one-shot ``np.exp``
    byte for byte. The phase is scaled by 1 / hbar, as the complex quotient
    by hbar scales it.
    """
    half = x.size // 2
    theta = np.outer(rows, -x[half:])
    theta *= 1.0 / hbar
    np.cos(theta, out=out.real[:, half:])
    np.sin(theta, out=out.imag[:, half:])
    return _mirror(out)


def _mirror(out: np.ndarray) -> np.ndarray:
    """Fill the left half of kernel rows with the conjugate of their right
    half, column for mirrored column, and return them."""
    half = out.shape[1] // 2
    np.conjugate(out[:, : -half - 1 : -1], out=out[:, :half])
    return out


def _box_transform(spec: WellSpec, f, p, f_radians: float):
    """Integral of f(x) e^{-ipx/hbar} / sqrt(2 pi hbar) over the box, at each p.

    ``f`` is a vectorized callable on [-a, a] whose phase turns through at
    most ``f_radians`` over a half width. The Gauss-Legendre order is
    ``bandwidth_order`` of that span plus the plane wave's a max|p| / hbar.
    The p x order kernel is built from cos and sin on the non-negative half
    of the nodes (``_plane_waves``) and applied in row blocks, each as a
    stack of products small enough to stay on the calling thread
    (``_in_row_blocks``), so memory stays bounded for any number of momenta.
    One row is built per distinct |p| and serves both signs, and every value
    equals the one-shot product's. The rows of the last transform, up to
    ``_MEMO_BYTES``, are kept for the next one on the same magnitudes, nodes
    and hbar, as the far-field ladder's rungs are: only the weights differ.
    A scalar p gives a complex scalar, an array p an array of the same
    shape; a non-finite p raises ``ValueError``.
    """
    a = spec.half_width
    p_arr = np.asarray(p, dtype=float)
    _finite(p_arr, "momentum p")
    p_max = float(np.max(np.abs(p_arr), initial=0.0))
    radians = a * p_max / spec.hbar + f_radians
    x, w = QuadratureSettings(bandwidth_order(radians)).nodes(-a, a)
    values = _in_row_blocks(p_arr.ravel(), x, spec.hbar, w * f(x))
    values /= np.sqrt(2.0 * np.pi * spec.hbar)
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
