"""Discrete momentum content of box states.

Momentum on a finite interval admits a one-parameter family of self-adjoint
operators, labeled by the phase a wavefunction picks up between the two
walls. Each member has a pure point spectrum on an evenly spaced ladder, and
every normalized state decomposes exactly over that ladder. Stationary box
states are special: for the right phase their decomposition collapses to two
spikes of weight one half.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .momentum_continuous import _in_row_blocks, _plane_waves, analytic_density
from .quadrature import QuadratureSettings, _index, _positive, bandwidth_order
from .well import WellSpec


@dataclass(frozen=True)
class ExtensionPhase:
    """Boundary phase selecting one self-adjoint momentum operator.

    ``theta`` lives in [0, 2*pi); the operator's eigenvalues are
    ``(k + theta/(2*pi)) * pi * hbar / half_width`` for integer k.
    """

    theta: float

    def __post_init__(self):
        if not 0.0 <= float(self.theta) < 2.0 * np.pi:
            raise ValueError(f"theta must lie in [0, 2*pi), got {self.theta}")

    def momentum(self, spec: WellSpec, k) -> np.ndarray:
        """Eigenvalue(s) of this extension for integer index k."""
        k = np.asarray(k)
        return (k + self.theta / (2.0 * np.pi)) * np.pi * spec.hbar / spec.half_width


def matched_phase(n: int) -> ExtensionPhase:
    """The phase whose ladder contains ±(spike momentum of state n) exactly.

    Odd-numbered states sit on the half-integer ladder (theta = pi), even
    ones on the integer ladder (theta = 0).
    """
    n = _index(n, "level index", 1)
    return ExtensionPhase(theta=np.pi if n % 2 else 0.0)


def allowed_momenta(spec: WellSpec, phase: ExtensionPhase, k_max: int):
    """Indices -k_max..k_max of one extension's ladder and their momenta, increasing in k."""
    k_max = _index(k_max, "k_max")
    ks = np.arange(-k_max, k_max + 1)
    return ks, phase.momentum(spec, ks)


@dataclass(frozen=True)
class DiscreteMomentumSpectrum:
    """Weights of a state over one extension's momentum ladder."""

    phase: ExtensionPhase
    indices: np.ndarray
    momenta: np.ndarray
    weights: np.ndarray
    coefficients: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not (self.indices.shape == self.momenta.shape == self.weights.shape):
            raise ValueError("indices, momenta, and weights must have matching shapes")
        if self.indices.size and np.any(np.diff(self.momenta) <= 0):
            raise ValueError("momenta must be strictly increasing in the ladder index")
        total = float(self.weights.sum())
        if not np.isfinite(total):
            raise ValueError(f"weights sum to {total}")
        if total > 1.0 + 1e-12:
            raise ValueError(f"weights sum to {total}, exceeding 1")

    @property
    def entries(self) -> list[tuple[int, float, float]]:
        """(index, momentum, weight) triples in ladder order."""
        return [
            (int(k), float(p), float(w))
            for k, p, w in zip(self.indices, self.momenta, self.weights)
        ]

    def total_weight(self) -> float:
        return float(self.weights.sum())

    def completeness_defect(self) -> float:
        """Weight missing from the truncated ladder, 1 - sum of weights."""
        return 1.0 - self.total_weight()


def expand(
    spec: WellSpec, state, phase: ExtensionPhase, k_max: int
) -> DiscreteMomentumSpectrum:
    """Decompose a normalized state over one extension's ladder, |k| <= k_max.

    ``state`` is any callable on position arrays. The Gauss-Legendre order
    is sized to the ladder's top momentum, and the state's norm over the
    same nodes must be 1 within 1e-6 — a wrong norm, a NaN, or a state too
    oscillatory for those nodes, would silently corrupt every weight, so it
    is rejected instead. The ladder x nodes kernel is built from cos and sin
    on the non-negative half of the nodes (``_plane_waves``) and applied in
    row blocks of small products by the transforms' one rule
    (``_in_row_blocks``), so memory stays bounded for any k_max: one row per
    distinct |p| serves both signs, and the coefficients equal the one-shot
    product's.
    """
    a = spec.half_width
    ks, momenta = allowed_momenta(spec, phase, k_max)
    radians = a * float(np.abs(momenta).max()) / spec.hbar
    x, w = QuadratureSettings(bandwidth_order(radians)).nodes(-a, a)
    values = np.asarray(state(x), dtype=complex)
    norm = float(np.real(np.conj(values) * values) @ w)
    if not abs(norm - 1.0) <= 1e-6:
        raise ValueError(f"state norm over the box is {norm:.8f}, expected 1 within 1e-6")

    def kernel(rows, out):
        block = _plane_waves(rows, x, spec.hbar, out)
        block /= np.sqrt(2.0 * a)
        return block

    coefficients = _in_row_blocks(momenta, kernel, w * values)
    return DiscreteMomentumSpectrum(
        phase=phase,
        indices=ks,
        momenta=momenta,
        weights=np.abs(coefficients) ** 2,
        coefficients=coefficients,
    )


def eigenstate_spectrum(spec: WellSpec, n: int) -> DiscreteMomentumSpectrum:
    """Exact discrete momentum content of stationary state n: two spikes.

    On the matched ladder the state is a superposition of exactly two
    momentum eigenfunctions, at ±(n pi hbar / 2 half_width), each carrying
    weight 1/2. The returned spectrum holds exactly those two entries.
    """
    phase = matched_phase(n)
    if n % 2:
        ks = np.array([-(n + 1) // 2, (n - 1) // 2])
        coefficients = np.array([1.0, 1.0]) / np.sqrt(2.0)
    else:
        ks = np.array([-n // 2, n // 2])
        coefficients = np.array([1j, -1j]) / np.sqrt(2.0)
    return DiscreteMomentumSpectrum(
        phase=phase,
        indices=ks,
        momenta=phase.momentum(spec, ks),
        weights=np.array([0.5, 0.5]),
        coefficients=coefficients,
    )


@dataclass(frozen=True)
class ConvergenceReport:
    """How much continuous momentum mass concentrates near the two spikes."""

    level: int
    window_half_width: float
    mass_in_window: float
    defect: float


def convergence_report(
    spec: WellSpec, n: int, window_half_width: float | None = None
) -> ConvergenceReport:
    """Continuous mass inside windows centered on the spikes, vs spike weight.

    Integrates the closed-form continuous density over ±window_half_width
    around each of the two spike momenta (merging the windows when they
    overlap) and reports the defect: total discrete spike weight (exactly 1)
    minus the continuous mass captured by the windows. Each window's
    Gauss-Legendre order is sized to the density's phase a (hi - lo) / hbar
    across half of it, so wide windows integrate as exactly as narrow ones.
    A window so narrow that p ± window_half_width round to one float raises
    ``ValueError``.
    """
    if window_half_width is None:
        window_half_width = np.pi * spec.hbar / (2.0 * spec.half_width)
    _positive(window_half_width, "window_half_width")

    p_spike = spec.spike_momentum(n)
    if p_spike - window_half_width == p_spike + window_half_width:
        raise ValueError(f"window_half_width {window_half_width} vanishes beside p = {p_spike}")
    windows = [
        (-p_spike - window_half_width, -p_spike + window_half_width),
        (p_spike - window_half_width, p_spike + window_half_width),
    ]
    if windows[0][1] > windows[1][0]:
        windows = [(windows[0][0], windows[1][1])]

    mass = 0.0
    for lo, hi in windows:
        radians = spec.half_width * (hi - lo) / spec.hbar
        x, w = QuadratureSettings(bandwidth_order(radians)).nodes(lo, hi)
        mass += float(analytic_density(spec, n, x) @ w)

    return ConvergenceReport(
        level=n,
        window_half_width=float(window_half_width),
        mass_in_window=mass,
        defect=1.0 - mass,
    )
