"""Sudden release: free flight of a box state after the walls are removed.

Two views of the released state. ``evolve_free`` gives a full snapshot on a
periodic grid much longer than the box, by exact multiplication with the
free-particle phase in the discrete Fourier basis; ``suggested_box`` sizes
that grid and an AliasingError guards its edge. ``farfield_map`` needs no
grid: it evaluates the rescaled density at any requested momenta as a box
transform of the state times a chirp, which converges to the continuous
momentum density as the flight time grows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .momentum_continuous import _box_transform
from .quadrature import ResolutionError, _index
from .well import Eigenfunction, WellSpec


class AliasingError(ResolutionError):
    """The evolved state reached the periodic box edge; wrap-around would alias."""


# Probability density tolerated at the box edge, per unit 1/half_width.
_EDGE_DENSITY_LIMIT = 1e-10

# Largest grid evolve_free builds, the size of the far-field grid this package
# once ran: its ~96 bytes of full-length arrays per sample come to 1.6 GB.
SAMPLE_BUDGET = 2**24


def _check_time(t: float):
    if not np.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")


def _check_budget(samples: float):
    if not samples <= SAMPLE_BUDGET:
        raise ResolutionError(f"a {samples:.6g}-sample grid exceeds the budget {SAMPLE_BUDGET}")


@dataclass(frozen=True)
class EvolutionSnapshot:
    """State of the released particle at one instant, on a uniform grid."""

    t: float
    x: np.ndarray
    psi: np.ndarray

    def __post_init__(self):
        if self.x.ndim != 1 or self.x.shape != self.psi.shape:
            raise ValueError("x and psi must be 1-D arrays of equal length")
        if self.x.size < 2:
            raise ValueError("a snapshot needs at least two samples")
        norm = float(np.sum(np.abs(self.psi) ** 2) * self.dx)
        if not abs(norm - 1.0) <= 1e-6:
            raise ValueError(f"snapshot norm is {norm:.8f}, expected 1 within 1e-6")

    @property
    def dx(self) -> float:
        return float(self.x[1] - self.x[0])

    @property
    def box_length(self) -> float:
        return self.dx * self.x.size

    @property
    def density(self) -> np.ndarray:
        return np.abs(self.psi) ** 2

    def norm(self) -> float:
        return float(np.sum(self.density) * self.dx)


def _tail_momenta(spec: WellSpec, n: int, t: float):
    """Momentum scales controlling how far the released state spreads.

    Returns (p_quantile, p_edge): the momentum beyond which roughly 1e-4 of
    the state's weight lies, and the momentum whose envelope tail density,
    transported to the box edge at time t, drops to ~1e-11/half_width. The
    envelope used is the exact large-|p| form 2 k_n^2 hbar^3/(pi a p^4).
    """
    a, m, hbar = spec.half_width, spec.mass, spec.hbar
    k_n = spec.wavenumber(n)
    p_quantile = (2.0e4 * k_n**2 * hbar**3 / (3.0 * np.pi * a)) ** (1.0 / 3.0)
    if t > 0:
        edge_eps = 1.25e-11 / a
        p_edge = (2.0 * m * k_n**2 * hbar**2 / (np.pi * a * t * edge_eps)) ** 0.25
    else:
        p_edge = 0.0
    return p_quantile, p_edge


def _pow2_at_least(value: float) -> int:
    return 1 << max(0, int(np.ceil(np.log2(value))))


def suggested_box(spec: WellSpec, n: int, t: float) -> tuple[float, int]:
    """A (length, samples) pair keeping edge leakage negligible at time t.

    The grid step is half_width/128 with the walls landing exactly on grid
    nodes; the length covers both the bulk spread and the slow power-law
    tails, with a floor of 16 half-widths. Samples are a power of two.
    Raises ResolutionError when they would pass ``SAMPLE_BUDGET``, and
    ValueError for a non-finite t.
    """
    _check_time(t)
    a, m = spec.half_width, spec.mass
    t = abs(float(t))
    dx = a / 128.0
    p_quantile, p_edge = _tail_momenta(spec, n, t)
    length = max(
        2.0 * a + 6.0 * (p_quantile / m) * t,
        2.0 * a + 2.0 * (p_edge / m) * t,
        16.0 * a,
    )
    _check_budget(length / dx)
    samples = _pow2_at_least(length / dx)
    return samples * dx, samples


def evolve_free(
    spec: WellSpec, n: int, t: float, box: tuple[float, int] | None = None
) -> EvolutionSnapshot:
    """Evolve stationary state n for time t after the walls vanish.

    ``box`` is a (length, samples) pair; samples must be a power of two.
    When omitted, ``suggested_box`` picks one. At t = 0 the samples
    reproduce the stationary state exactly. A grid past ``SAMPLE_BUDGET``
    samples raises ResolutionError before anything is allocated. If
    noticeable probability reaches the periodic edge (density above 1e-10
    per half_width), the result would wrap around and alias, so an
    AliasingError is raised. A non-finite t raises ValueError.
    """
    psi = Eigenfunction(spec, n)
    _check_time(t)
    if box is None:
        box = suggested_box(spec, n, t)
    length, samples = box
    samples = _index(samples, "sample count", 4)
    if samples & (samples - 1):
        raise ValueError(f"sample count must be a power of two >= 4, got {samples}")
    _check_budget(samples)
    if not length > 2.0 * spec.half_width:
        raise ValueError("box must be longer than the distance between the walls")

    dx = length / samples
    x = (np.arange(samples) - samples // 2) * dx
    psi0 = psi(x).astype(complex)
    psi0 /= np.sqrt(np.sum(np.abs(psi0) ** 2) * dx)

    if t == 0:
        psi_t = psi0
    else:
        p = 2.0 * np.pi * spec.hbar * np.fft.fftfreq(samples, d=dx)
        phase = np.exp(-1j * p**2 * t / (2.0 * spec.mass * spec.hbar))
        psi_t = np.fft.ifft(np.fft.fft(psi0) * phase)

    snapshot = EvolutionSnapshot(t=float(t), x=x, psi=psi_t)
    edge_density = max(snapshot.density[0], snapshot.density[-1])
    if edge_density > _EDGE_DENSITY_LIMIT / spec.half_width:
        raise AliasingError(
            f"edge density {edge_density:.3e} exceeds "
            f"{_EDGE_DENSITY_LIMIT / spec.half_width:.1e}; "
            "enlarge the box or shorten the flight time"
        )
    return snapshot


def farfield_map(spec: WellSpec, n: int, t: float, p):
    """Position density of released state n at x = p t / m, rescaled by t/m.

    The walls vanish at t = 0, so the state at time t is the free-particle
    (Fresnel) propagator applied to psi_n over the box alone. Writing
    x = p t / m factors the propagator into a plane wave and a unit-modulus
    chirp, which makes the rescaled density exactly

        |int_{-a}^{a} e^{-ipx'/hbar} e^{imx'^2/2hbar t} psi_n(x') dx'|^2 / (2 pi hbar),

    the box transform of the chirped state. It converges to the continuous
    momentum density as 1/t^2. The Gauss-Legendre order comes from
    ``bandwidth_order`` applied to the integrand's phase span over a half
    width: a (max|p| + m a / t) / hbar from the plane wave and the chirp,
    plus k_n a from the state. A scalar p gives a float.
    """
    if not t > 0:
        raise ValueError(f"the far-field map needs t > 0, got t = {t}")
    psi = Eigenfunction(spec, n)
    a, m, hbar = spec.half_width, spec.mass, spec.hbar

    def chirped(x):
        return psi(x) * np.exp(1j * m * x**2 / (2.0 * hbar * t))

    radians = a * (m * a / t) / hbar + psi.wavenumber * a
    return np.abs(_box_transform(spec, chirped, p, radians)) ** 2


def grid_kinetic_energy(snapshot: EvolutionSnapshot, spec: WellSpec) -> float:
    """Mean kinetic energy of a snapshot from its discrete Fourier weights.

    Exactly conserved by ``evolve_free`` (the evolution multiplies each
    Fourier weight by a unimodular phase). It carries a small positive bias
    relative to the continuum energy because momentum weight beyond the
    grid's band folds back in; the bias shrinks with the grid step.
    """
    weights = np.abs(np.fft.fft(snapshot.psi)) ** 2
    weights /= weights.sum()
    p = 2.0 * np.pi * spec.hbar * np.fft.fftfreq(snapshot.x.size, d=snapshot.dx)
    return float((weights * p**2).sum() / (2.0 * spec.mass))
