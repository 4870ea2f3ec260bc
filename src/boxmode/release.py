"""Sudden release: free flight of a box state after the walls are removed.

Two views of the released state. ``evolve_free`` gives a full snapshot on a
periodic grid much longer than the box, by exact multiplication with the
free-particle phase in the discrete Fourier basis; ``suggested_box`` sizes
that grid by one length rule (the reach of the 1/p^4 far-field tail down to
1/8 of ``EDGE_DENSITY_LIMIT``) and an AliasingError guards its edge.
``farfield_map`` needs no grid: it evaluates the rescaled density at any
requested momenta as a box transform of the state times a chirp, which
converges to the continuous momentum density as the flight time grows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .momentum_continuous import _box_transform
from .quadrature import ResolutionError, _check_budget, _finite, _index, _positive
from .well import Eigenfunction, WellSpec


class AliasingError(ResolutionError):
    """The evolved state reached the periodic box edge; wrap-around would alias."""


# Edge density tolerated, per unit 1/half_width. The AliasingError gate, the
# CLI's edge-density CHECK and suggested_box's target (1/8 of it) all read it.
EDGE_DENSITY_LIMIT = 1e-10

@dataclass(frozen=True)
class EvolutionSnapshot:
    """State of the released particle at one instant, on a uniform grid.

    ``_energies`` holds the grid kinetic energy (``_dft_energy``) of the
    t = 0 state and of this one, which ``evolve_free`` takes from the
    transforms it already computes; a snapshot built by hand has None.
    """

    t: float
    x: np.ndarray
    psi: np.ndarray
    _energies: tuple[float, float] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.x.ndim != 1 or self.x.shape != self.psi.shape:
            raise ValueError("x and psi must be 1-D arrays of equal length")
        if self.x.size < 2:
            raise ValueError("a snapshot needs at least two samples")
        norm = self.norm()
        if not abs(norm - 1.0) <= 1e-6:
            raise ValueError(f"snapshot norm is {norm:.8f}, expected 1 within 1e-6")

    @property
    def dx(self) -> float:
        return float(self.x[1] - self.x[0])

    @cached_property
    def density(self) -> np.ndarray:
        """|psi|^2 at every sample, computed once per snapshot."""
        return np.abs(self.psi) ** 2

    @property
    def edge_density(self) -> float:
        """The larger density of the two end samples."""
        return max(self.density[0], self.density[-1])

    def norm(self) -> float:
        return float(np.sum(self.density) * self.dx)


def suggested_box(spec: WellSpec, n: int, t: float) -> tuple[float, int]:
    """A (length, samples) pair holding state n's edge density at time t to
    eps = EDGE_DENSITY_LIMIT / (8a), 1/8 of the AliasingError gate, by one
    rule: L = max(2a + 2 reach, 16a) in steps of a/128 (walls on nodes),
    rounded up to a power-of-two count. The reach
    (2 k^2 hbar^3 t^3 / (pi a m^3 eps))^(1/4) is where the far-field tail
    density (m/t) 2 k^2 hbar^3 / (pi a p^4), at p = m x / t, falls to eps.
    A bulk term (six times the momentum beyond which 1e-4 of the weight lies,
    times t/m) never binds: it stays below 0.419 of 2 reach on every grid
    within ``SAMPLE_BUDGET``, in any units. Raises ResolutionError past that
    budget and ValueError for a non-finite t.
    """
    _finite(t, "t")
    a, m, hbar, k = spec.half_width, spec.mass, spec.hbar, spec.wavenumber(n)
    eps = EDGE_DENSITY_LIMIT / (8.0 * a)
    # Products, not powers: a Python float overflows to inf instead of raising.
    spread = hbar * abs(float(t)) / m
    reach = (2.0 * k * k * spread * spread * spread / (np.pi * a * eps)) ** 0.25
    dx = a / 128.0
    length = max(2.0 * a + 2.0 * reach, 16.0 * a)
    _check_budget(length / dx, "sample grid")
    samples = 1 << int(np.ceil(np.log2(length / dx)))
    return samples * dx, samples


def evolve_free(
    spec: WellSpec, n: int, t: float, box: tuple[float, int] | None = None
) -> EvolutionSnapshot:
    """Evolve stationary state n for time t after the walls vanish.

    ``box`` is a (length, samples) pair; samples must be a power of two.
    When omitted, ``suggested_box`` picks one. At t = 0 the samples
    reproduce the stationary state exactly. A grid past ``SAMPLE_BUDGET``
    samples raises ResolutionError before anything is allocated. If
    noticeable probability reaches the periodic edge (density above
    ``EDGE_DENSITY_LIMIT`` / half_width), the result would wrap around and
    alias, so an AliasingError is raised. A non-finite t raises ValueError.
    """
    state = Eigenfunction(spec, n)
    _finite(t, "t")
    if box is None:
        box = suggested_box(spec, n, t)
    length, samples = box
    samples = _index(samples, "sample count", 4)
    if samples & (samples - 1):
        raise ValueError(f"sample count must be a power of two >= 4, got {samples}")
    _check_budget(samples, "sample grid")
    _positive(length, "box length")
    if not length > 2.0 * spec.half_width:
        raise ValueError("box must be longer than the distance between the walls")

    dx = length / samples
    x = (np.arange(samples) - samples // 2) * dx
    psi = state(x).astype(complex)
    # |a + 0i|^2 is a * a exactly, so the real parts give the norm.
    psi /= np.sqrt(np.sum(np.square(psi.real)) * dx)

    # One transform of the t = 0 state gives its energy and starts the
    # evolution; one p^2 serves both energies. The energies' momenta take the
    # snapshot's step x[1] - x[0] and the phase's take length / samples, which
    # can differ in the last bit.
    p_squared = np.fft.rfftfreq(samples, d=float(x[1] - x[0]))
    p_squared *= 2.0 * np.pi * spec.hbar
    p_squared *= p_squared
    spectrum = np.fft.fft(psi)
    initial = _dft_energy(spectrum, p_squared, spec.mass)
    final = initial
    if t != 0:
        _free_phase(spectrum, spec, t, dx)
        np.fft.ifft(spectrum, out=psi)
        final = _dft_energy(np.fft.fft(psi, out=spectrum), p_squared, spec.mass)

    snapshot = EvolutionSnapshot(t=float(t), x=x, psi=psi, _energies=(initial, final))
    limit = EDGE_DENSITY_LIMIT / spec.half_width
    if snapshot.edge_density > limit:
        raise AliasingError(
            f"edge density {snapshot.edge_density:.3e} exceeds {limit:.1e}; "
            "enlarge the box or shorten the flight time"
        )
    return snapshot


def _free_phase(spectrum: np.ndarray, spec: WellSpec, t: float, dx: float):
    """Multiply a DFT spectrum of grid step dx in place by the free-flight
    phase exp(-i p^2 t / (2 mass hbar)). fftfreq is antisymmetric, so the
    phase at frequency N - k is the one at k bit for bit: it is computed on
    frequencies 0..N/2 and applied mirrored to the rest."""
    half = spectrum.size // 2
    p = 2.0 * np.pi * spec.hbar * np.fft.rfftfreq(spectrum.size, d=dx)
    phase = -1j * p**2
    phase *= t
    phase /= 2.0 * spec.mass * spec.hbar
    np.exp(phase, out=phase)
    spectrum[: half + 1] *= phase
    spectrum[half + 1 :] *= phase[half - 1 : 0 : -1]


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


def _dft_energy(spectrum: np.ndarray, p_squared: np.ndarray, mass: float) -> float:
    """sum |F_k|^2 p_k^2 / (2 mass sum |F_k|^2) over the discrete Fourier
    coefficients F of a grid, with p_k = 2 pi hbar fftfreq_k for its step.
    ``p_squared`` holds p_k^2 on frequencies 0..N/2 only: fftfreq is
    antisymmetric, so the square at N - k is the one at k bit for bit, and
    it is applied mirrored to the rest. Free flight keeps the energy to a
    few 1e-16; weight past the band biases it slightly high."""
    half = spectrum.size // 2
    weights = np.abs(spectrum)
    weights *= weights
    weights /= weights.sum()
    weights[: half + 1] *= p_squared
    weights[half + 1 :] *= p_squared[half - 1 : 0 : -1]
    return float(weights.sum() / (2.0 * mass))
