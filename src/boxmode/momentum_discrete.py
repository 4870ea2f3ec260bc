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

from .momentum_continuous import _in_row_blocks, _plane_waves
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


def _k_indices(k_range) -> np.ndarray:
    if np.ndim(k_range) == 0:
        m = _index(k_range, "k_range")
        return np.arange(-m, m + 1)
    lo, hi = k_range
    if hi < lo:
        raise ValueError(f"empty index range ({lo}, {hi})")
    return np.arange(int(lo), int(hi) + 1)


def allowed_momenta(spec: WellSpec, phase: ExtensionPhase, k_range):
    """Indices and momenta of one extension's ladder.

    ``k_range`` is either an int m (meaning indices -m..m) or an inclusive
    (k_min, k_max) pair. Momenta come back strictly increasing in k.
    """
    ks = _k_indices(k_range)
    return ks, phase.momentum(spec, ks)


def basis_state(spec: WellSpec, phase: ExtensionPhase, k: int):
    """Normalized momentum eigenfunction for index k, callable on arrays."""
    p_k = float(phase.momentum(spec, k))
    amplitude = 1.0 / np.sqrt(2.0 * spec.half_width)

    def u(x):
        return amplitude * np.exp(1j * p_k * np.asarray(x, dtype=float) / spec.hbar)

    return u


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
    row blocks, so memory stays bounded for any k_max.
    """
    a = spec.half_width
    ks, momenta = allowed_momenta(spec, phase, _index(k_max, "k_max"))
    radians = a * float(np.abs(momenta).max()) / spec.hbar
    x, w = QuadratureSettings(bandwidth_order(radians)).nodes(-a, a)
    values = np.asarray(state(x), dtype=complex)
    norm = float(np.real(np.conj(values) * values) @ w)
    if not abs(norm - 1.0) <= 1e-6:
        raise ValueError(f"state norm over the box is {norm:.8f}, expected 1 within 1e-6")

    weighted = w * values

    def block(rows):
        kernel = _plane_waves(rows, x, spec.hbar)
        kernel /= np.sqrt(2.0 * a)
        return kernel @ weighted

    coefficients = _in_row_blocks(momenta, block)
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
    spike_weight: float
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
    """
    from .momentum_continuous import analytic_density

    if window_half_width is None:
        window_half_width = np.pi * spec.hbar / (2.0 * spec.half_width)
    _positive(window_half_width, "window_half_width")

    p_spike = spec.spike_momentum(n)
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
        spike_weight=1.0,
        defect=1.0 - mass,
    )
