"""Landau levels of a charged particle on a rectangle.

States are built from their closed forms, sampled on uniform 2-D grids and
checked against the magnetic Hamiltonian with 4th-order finite-difference
stencils: level energies, canonical-momentum commutators, level degeneracy
counted three independent ways, and the Hall response carried by one filled
level.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .quadrature import ResolutionError, _check_budget, _finite, _index, _positive, _text


@dataclass(frozen=True)
class LandauSpec:
    """A charged particle in a uniform magnetic field over an Lx-by-Ly patch.

    Gaussian-style electromagnetic conventions: the cyclotron frequency is
    |charge| B / (mass c) and the magnetic length sqrt(hbar c / |charge| B).
    The default charge is -1, an electron in natural units.
    """

    B: float = 1.0
    charge: float = -1.0
    mass: float = 1.0
    light_speed: float = 1.0
    hbar: float = 1.0
    Lx: float = 10.0
    Ly: float = 10.0

    def __post_init__(self):
        if not (np.isfinite(self.charge) and self.charge != 0):
            raise ValueError(f"charge must be finite and nonzero, got {self.charge}")
        for name in ("B", "mass", "light_speed", "hbar", "Lx", "Ly"):
            _positive(getattr(self, name), name)

    @property
    def cyclotron_frequency(self) -> float:
        return abs(self.charge) * self.B / (self.mass * self.light_speed)

    @property
    def magnetic_length(self) -> float:
        return float(np.sqrt(self.hbar * self.light_speed / (abs(self.charge) * self.B)))

    @property
    def flux(self) -> float:
        """Magnetic flux through the rectangle."""
        return self.B * self.Lx * self.Ly

    @property
    def flux_quantum(self) -> float:
        """2 pi hbar c / |charge|."""
        return 2.0 * np.pi * self.hbar * self.light_speed / abs(self.charge)

    def guiding_line(self, p_x: float) -> float:
        """Height y = -c p_x / (charge B) of the guiding line for momentum p_x;
        a non-finite p_x raises ``ValueError``."""
        _finite(p_x, "p_x")
        return -self.light_speed * p_x / (self.charge * self.B)

    @property
    def probe_momentum(self) -> float:
        """The p_x = ±hbar / (2 magnetic_length) whose guiding line lies at
        y = magnetic_length / 2, inside the rectangle, for either sign of charge."""
        return float(np.copysign(0.5 * self.hbar / self.magnetic_length, -self.charge))


def _level(value, name: str) -> int:
    """``value`` as a level or ring index: an int from 0 whose float sums
    (n + 1/2, 2n + 1, 2(n + m)) stay finite, so below 2**1021; a larger one
    raises ``ResolutionError`` naming ``name``."""
    index = _index(value, name)
    if index.bit_length() > 1021:
        raise ResolutionError(f"{name} {_text(index)} lies past the float range")
    return index


def level_energy(spec: LandauSpec, n: int) -> float:
    """Energy of the n-th level, (n + 1/2) hbar * cyclotron frequency."""
    n = _level(n, "level")
    return (n + 0.5) * spec.hbar * spec.cyclotron_frequency


@dataclass(frozen=True)
class GaugeField:
    """A divergence-free vector potential with uniform curl B.

    Two forms are supported: ``landau`` with A = (-B y, 0) and ``symmetric``
    with A = (-B y / 2, B x / 2).
    """

    name: str
    B: float

    def __post_init__(self):
        if self.name not in ("landau", "symmetric"):
            raise ValueError(f"unknown gauge {self.name!r}")

    def vector_potential(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if self.name == "landau":
            return -self.B * y, np.zeros_like(x)
        return -0.5 * self.B * y, 0.5 * self.B * x


def landau_gauge(B: float) -> GaugeField:
    return GaugeField(name="landau", B=B)


def symmetric_gauge(B: float) -> GaugeField:
    return GaugeField(name="symmetric", B=B)


def _grid_axis(axis, name: str) -> np.ndarray:
    """``axis`` as floats; raises ``ValueError`` unless it is 1-D with at
    least 5 points, the fewest a 4th-order stencil spans."""
    axis = np.asarray(axis, dtype=float)
    if axis.ndim != 1 or axis.size < 5:
        raise ValueError(f"{name} axis must be 1-D with at least 5 points")
    return axis


@dataclass(frozen=True)
class GridField2D:
    """A normalized complex field on a uniform rectangular grid.

    The two 1-D axes are the grid: ``values[i, j]`` is the field at
    ``(x[i], y[j])``, and coordinates enter formulas as ``x[:, None]`` and
    ``y`` by broadcasting. Construction rejects axes that are not 1-D with at
    least 5 points, non-uniform axes and fields whose discrete norm is not
    within 1e-10 of 1, a NaN norm included.
    """

    x: np.ndarray
    y: np.ndarray
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        for axis_name, axis in (("x", self.x), ("y", self.y)):
            steps = np.diff(_grid_axis(axis, axis_name))
            if not np.allclose(steps, steps[0], rtol=1e-12, atol=0.0):
                raise ValueError(f"{axis_name} axis must be uniformly spaced")
        if self.values.shape != (self.x.size, self.y.size):
            raise ValueError(
                f"values shape {self.values.shape} does not match grid "
                f"({self.x.size}, {self.y.size})"
            )
        norm = self.norm()
        if not abs(norm - 1.0) <= 1e-10:
            raise ValueError(f"field norm is {norm:.12f}, expected 1 within 1e-10")

    @property
    def dx(self) -> float:
        return float(self.x[1] - self.x[0])

    @property
    def dy(self) -> float:
        return float(self.y[1] - self.y[0])

    @property
    def density(self) -> np.ndarray:
        return np.abs(self.values) ** 2

    def norm(self) -> float:
        return float(np.sum(np.abs(self.values) ** 2) * self.dx * self.dy)


def _normalized_field(x, y, values) -> GridField2D:
    norm = np.sqrt(np.sum(np.abs(values) ** 2) * (x[1] - x[0]) * (y[1] - y[0]))
    if norm == 0:
        raise ValueError("field vanishes identically on the grid")
    return GridField2D(x=x, y=y, values=values / norm)


def _axis(lo: float, hi: float, step: float) -> np.ndarray:
    count = int(np.ceil((hi - lo) / step))
    return np.linspace(lo, hi, count + 1)


def _centered_axis(extent: float, step: float) -> np.ndarray:
    """Symmetric axis of exact step multiples; always contains 0.0 exactly."""
    half_count = int(np.ceil(extent / step))
    return step * np.arange(-half_count, half_count + 1)


def landau_gauge_state(
    spec: LandauSpec, n: int, p_x: float, grid: tuple[np.ndarray, np.ndarray] | None = None
) -> GridField2D:
    """Level-n eigenstate in the landau gauge: plane wave times a ridge.

    The state e^{i p_x x / hbar} times the n-th Hermite function in y,
    centered on the guiding line y = -c p_x / (charge B). The default grid,
    [0, Lx] x [0, Ly] at step magnetic_length/8, raises ``ResolutionError``
    past ``SAMPLE_BUDGET`` points (counted as floats) before allocating, and
    warns when the line lies outside [0, Ly]; pass a custom (x, y) pair of 1-D
    axes to study the state on its own support. A non-finite p_x raises
    ``ValueError``.
    """
    n = _level(n, "level")
    length = spec.magnetic_length
    y_guide = spec.guiding_line(p_x)
    if grid is None:
        step = length / 8.0
        points = (np.ceil(spec.Lx / step) + 1.0) * (np.ceil(spec.Ly / step) + 1.0)
        _check_budget(points, "sample grid")
        if not 0.0 <= y_guide <= spec.Ly:
            warnings.warn(
                f"guiding line y = {y_guide:.6g} lies outside [0, {spec.Ly}]; "
                "the default rectangle does not contain this state",
                stacklevel=2,
            )
        grid = (_axis(0.0, spec.Lx, step), _axis(0.0, spec.Ly, step))
    x, y = _grid_axis(grid[0], "x"), _grid_axis(grid[1], "y")
    xi = (y - y_guide) / length
    # h_{k+1} = (2 xi h_k - sqrt(2k) h_{k-1}) / sqrt(2(k+1)) never overflows
    # (Bunck, BIT 49, 281 (2009)); ``profile`` holds sqrt(2k) h_k.
    previous, profile = 0.0, np.exp(-0.5 * xi**2)
    for k in range(n):
        h_k = profile / np.sqrt(max(2.0 * k, 1.0))
        previous, profile = h_k, 2.0 * xi * h_k - np.sqrt(2.0 * k) * previous
    values = np.exp(1j * p_x * x / spec.hbar)[:, None] * profile
    return _normalized_field(x, y, values)


def _ring_extent(spec: LandauSpec, n: int, angular: int) -> float:
    return (np.sqrt(2.0 * (n + angular)) + 6.0) * spec.magnetic_length


def _power_times_gaussian(w: np.ndarray, power: int, r2: np.ndarray) -> np.ndarray:
    """w**power * exp(-r2) up to a positive factor, |w|^2 = r2: 32 powers at a
    time, each with its share of the Gaussian and a power-of-two rescale."""
    batches = max(1, (power + 31) // 32)
    values = np.ones_like(w)
    for i in range(batches):
        values *= w ** (power * (i + 1) // batches - power * i // batches)
        values *= np.exp(-r2 / batches)
        values *= 2.0 ** -np.frexp(np.abs(values).max())[1]
    return values


def symmetric_gauge_state(
    spec: LandauSpec,
    n: int,
    angular: int,
    grid: tuple[np.ndarray, np.ndarray] | None = None,
) -> GridField2D:
    """Level-n state with ring index ``angular`` in the symmetric gauge.

    The closed form w^|m-n| L_min(n,m)^|m-n|(2|zeta|^2) exp(-|zeta|^2)
    (Landau & Lifshitz, QM section 112) with m = angular, w = zeta if m >= n
    else conj(zeta), zeta = (x - i y) / (2 magnetic_length) for negative
    charge (its conjugate for positive), and the ladder operators' sign
    (-1)^min(n, m); sampled and normalized numerically. The ring index
    moves probability outward along rings of radius
    magnetic_length * sqrt(2 * angular) without changing the energy. The
    default grid spans the ring's extent at step magnetic_length/8; past
    ``PROBE_BUDGET`` points it raises ``ResolutionError`` before allocating.
    """
    n = _level(n, "level")
    angular = _level(angular, "angular")
    length = spec.magnetic_length
    if grid is None:
        # length / 8 by the probe rule, budgeted before anything is allocated.
        extent = _ring_extent(spec, n, angular)
        axis = _centered_axis(extent, _probe_step(spec, 1, extent))
        grid = (axis, axis)
    x, y = _grid_axis(grid[0], "x"), _grid_axis(grid[1], "y")
    if spec.charge < 0:
        zeta = (x[:, None] - 1j * y) / (2.0 * length)
    else:
        zeta = (x[:, None] + 1j * y) / (2.0 * length)
    order, alpha = min(n, angular), abs(angular - n)
    r2 = np.abs(zeta) ** 2
    values = _power_times_gaussian(zeta if angular >= n else np.conj(zeta), alpha, r2)
    # sqrt(k! / (k + alpha)!) L_k^alpha(2 r2) by its three-term recurrence.
    previous = 0.0
    for k in range(order):
        previous, values = values, (
            (2 * k + 1 + alpha - 2.0 * r2) * values - np.sqrt(k * (k + alpha)) * previous
        ) / np.sqrt((k + 1) * (k + 1 + alpha))
    return _normalized_field(x, y, (-1) ** order * values)


def _shifted(a: np.ndarray, offset: int, axis: int) -> np.ndarray:
    """a evaluated at index + offset along axis (edges wrap; callers must
    discard a margin at least as wide as the largest offset)."""
    return np.roll(a, -offset, axis=axis)


def _derivative1(a: np.ndarray, step: float, axis: int) -> np.ndarray:
    return (
        _shifted(a, -2, axis)
        - 8.0 * _shifted(a, -1, axis)
        + 8.0 * _shifted(a, 1, axis)
        - _shifted(a, 2, axis)
    ) / (12.0 * step)


def _derivative2(a: np.ndarray, step: float, axis: int) -> np.ndarray:
    return (
        -_shifted(a, -2, axis)
        + 16.0 * _shifted(a, -1, axis)
        - 30.0 * a
        + 16.0 * _shifted(a, 1, axis)
        - _shifted(a, 2, axis)
    ) / (12.0 * (step * step))


def apply_hamiltonian(spec: LandauSpec, gauge: GaugeField, state: GridField2D) -> np.ndarray:
    """H psi on the grid, H = (p - charge A / c)^2 / (2 mass).

    For divergence-free A this expands to
    -(hbar^2/2m) laplacian + (i hbar charge / m c) A . grad
    + (charge^2 / 2 m c^2) |A|^2. Derivatives are 4th-order stencils; only
    values at least two cells from every edge are trustworthy.
    """
    A_x, A_y = gauge.vector_potential(state.x[:, None], state.y)
    psi = state.values
    hbar, q, m, c = spec.hbar, spec.charge, spec.mass, spec.light_speed
    laplacian = _derivative2(psi, state.dx, 0) + _derivative2(psi, state.dy, 1)
    gradient_term = A_x * _derivative1(psi, state.dx, 0)
    if gauge.name != "landau":  # the landau gauge's A_y is identically zero
        gradient_term += A_y * _derivative1(psi, state.dy, 1)
    return (
        -(hbar * hbar) / (2.0 * m) * laplacian
        + (1j * hbar * q / (m * c)) * gradient_term
        + (q * q / (2.0 * m * (c * c))) * (A_x**2 + A_y**2) * psi
    )


def _check_resolution(spec: LandauSpec, state: GridField2D, margin: int):
    length = spec.magnetic_length
    step = max(state.dx, state.dy)
    if step > length / 8.0 * (1.0 + 1e-9):
        raise ResolutionError(
            f"grid step {step:.6g} exceeds magnetic_length/8 = {length / 8.0:.6g}"
        )
    if state.x.size <= 2 * margin or state.y.size <= 2 * margin:
        raise ResolutionError(f"grid too small for a {margin}-cell stencil margin")


def hamiltonian_residual(
    spec: LandauSpec, gauge: GaugeField, state: GridField2D, energy: float
) -> float:
    """Sup-norm eigenvalue defect of (H - energy) on the state, dimensionless.

    The residual is max |(H - E) psi| over the grid interior, in units of
    (hbar * cyclotron frequency) times the interior sup of |psi| — invariant
    under rescaling either the state or the unit system. Raises
    ResolutionError when the grid step exceeds magnetic_length/8.
    """
    _check_resolution(spec, state, margin=2)
    defect = apply_hamiltonian(spec, gauge, state) - energy * state.values
    interior = (slice(2, -2), slice(2, -2))
    scale = spec.hbar * spec.cyclotron_frequency * np.abs(state.values[interior]).max()
    return float(np.abs(defect[interior]).max() / scale)


# The 4th-order stencils err by about (k h)^4 (k l)^2 / 180 of the level
# spacing on a wave of wavenumber k = sqrt(waves) / l: waves = 2n + 1 across a
# level-n ridge and 2 (p_x l / hbar)^2 + 1 along it, and m + 1 for a ring of
# index m (where the vector potential's term dominates). Halving h = l/8 until
# waves^3 <= refine^4 / RESIDUAL_LIMIT keeps that near RESIDUAL_LIMIT, the CLI's
# eigenvalue-residual limit (measured residuals are 1.5-2.5 times lower), and
# leaves the lowest levels and rings on l/8. A probe holds at most PROBE_BUDGET
# points; apply_hamiltonian keeps about a dozen complex arrays of its size
# alive, ~400 MB at the budget.
RESIDUAL_LIMIT = 1e-3
PROBE_BUDGET = 2**21


def _probe_step(spec: LandauSpec, waves: int, extent: float, columns: int | None = None):
    """The step for ``waves``; raises ResolutionError, before allocating, if an
    axis over +-extent times ``columns`` (default: itself) passes the budget,
    as it does for infinite ``waves``."""
    refine = 1
    while waves * waves * waves > refine**4 / RESIDUAL_LIMIT and refine <= PROBE_BUDGET:
        refine *= 2
    step = spec.magnetic_length / (8.0 * refine)
    rows = 2 * int(np.ceil(extent / step)) + 1
    if rows * (columns or rows) > PROBE_BUDGET:
        raise ResolutionError(f"a {columns or rows} x {rows} probe exceeds {PROBE_BUDGET} points")
    return step


def ridge_residual(spec: LandauSpec, n: int, p_x: float) -> float:
    """Eigenvalue residual of the level-n ridge with momentum p_x, probed at a
    step sized from the level over y past its turning points (at least 8 l
    each way) and 32 steps of x, along which it is a plane wave."""
    n = _level(n, "level")
    y_guide = spec.guiding_line(p_x)
    half = max(8.0, np.sqrt(2.0 * n + 1.0) + 6.0) * spec.magnetic_length
    along = p_x * spec.magnetic_length / spec.hbar
    waves = max(2 * n + 1, 2.0 * along * along + 1.0)
    step = _probe_step(spec, waves, half, columns=33)
    grid = (np.linspace(0.0, 32.0 * step, 33), y_guide + _centered_axis(half, step))
    state = landau_gauge_state(spec, n, p_x, grid=grid)
    return hamiltonian_residual(spec, landau_gauge(spec.B), state, level_energy(spec, n))


def ring_residual(
    spec: LandauSpec, n: int, angular: int, built: GridField2D | None = None
) -> float:
    """Eigenvalue residual of a ring state over its default square, at a step
    sized from the level and ring index. ``built``, the same state on any
    grid, is probed as it is when its axes equal the probe's, which saves a
    second build whenever the step is l/8."""
    n, angular = _level(n, "level"), _level(angular, "angular")
    extent = _ring_extent(spec, n, angular)
    axis = _centered_axis(extent, _probe_step(spec, max(2 * n + 1, angular + 1), extent))
    if built is not None and np.array_equal(built.x, axis) and np.array_equal(built.y, axis):
        state = built
    else:
        state = symmetric_gauge_state(spec, n, angular, grid=(axis, axis))
    return hamiltonian_residual(spec, symmetric_gauge(spec.B), state, level_energy(spec, n))


def commutator_check(spec: LandauSpec, gauge: GaugeField, test_state: GridField2D) -> float:
    """Defect of the kinetic-momentum commutator against i hbar charge B / c.

    Applies pi = -i hbar grad - (charge/c) A twice in both orders on the
    test state and compares the antisymmetric part with its exact constant
    value. Normalized by the sup of the two double applications, so the
    figure is dimensionless and meaningful even at B = 0, where the exact
    commutator vanishes. Only the interior (four cells in) is compared.
    """
    _check_resolution(spec, test_state, margin=4)
    A_x, A_y = gauge.vector_potential(test_state.x[:, None], test_state.y)
    hbar, q, c = spec.hbar, spec.charge, spec.light_speed
    dx, dy = test_state.dx, test_state.dy

    def pi_x(f):
        return -1j * hbar * _derivative1(f, dx, 0) - (q / c) * A_x * f

    def pi_y(f):
        return -1j * hbar * _derivative1(f, dy, 1) - (q / c) * A_y * f

    psi = test_state.values
    forward = pi_x(pi_y(psi))
    backward = pi_y(pi_x(psi))
    target = 1j * hbar * (q / c) * gauge.B * psi
    interior = (slice(4, -4), slice(4, -4))
    scale = (np.abs(forward[interior]) + np.abs(backward[interior])).max()
    if scale == 0:
        raise ValueError("test state is too trivial to probe the commutator")
    defect = forward - backward - target
    return float(np.abs(defect[interior]).max() / scale)


def gaussian_test_state(spec: LandauSpec) -> GridField2D:
    """A smooth, anisotropic, tilted Gaussian for derivative checks."""
    length = spec.magnetic_length
    axis = _axis(-8.0 * length, 8.0 * length, length / 8.0)
    X, Y = axis[:, None], axis
    envelope = np.exp(-(X**2 + 1.3 * Y**2 + 0.4 * X * Y) / (5.0 * length**2))
    ripple = np.exp(0.3j * (X + 0.7 * Y) / length)
    return _normalized_field(axis, axis, envelope * ripple)


class DegeneracyReport(NamedTuple):
    """One level's degeneracy counted three independent ways."""

    ratio: float
    flux_count: int
    guiding_center_count: int
    ring_count: int

    @property
    def spread(self) -> int:
        counts = (self.flux_count, self.guiding_center_count, self.ring_count)
        return max(counts) - min(counts)


def _count_from(estimate: float, fits, what: str) -> int:
    """1 + the largest index that ``fits``, stepped to from floor(estimate);
    past 2**53, where neighbouring indices share a float, it raises."""
    if not estimate < 2.0**53:
        raise ValueError(f"{estimate:.3e} {what} exceed the float64 index limit 2**53")
    j = int(estimate)
    while fits(j + 1):
        j += 1
    while not fits(j):
        j -= 1
    return j + 1


def guiding_center_count(spec: LandauSpec) -> int:
    """States per level by counting guiding lines inside the rectangle.

    Periodic momenta along x are spaced 2 pi hbar / Lx; each maps to a
    guiding line y = -c p_x / (charge B). Counts the lines with
    0 <= y <= Ly. The heights rise with the momentum index even after
    rounding, so the count starts from floor(Ly |charge| B / (c step)) and
    steps to the last index whose rounded line still lies inside.
    """
    step = 2.0 * np.pi * spec.hbar / spec.Lx
    direction = 1.0 if spec.charge < 0 else -1.0

    def inside(j):
        return spec.guiding_line(direction * j * step) <= spec.Ly

    estimate = spec.Ly * abs(spec.charge) * spec.B / (spec.light_speed * step)
    return _count_from(estimate, inside, "guiding lines")


def ring_count(spec: LandauSpec) -> int:
    """States per level by packing rings of radius sqrt(2 L) magnetic lengths
    into a disk with the rectangle's area.

    Starts from floor(R^2 / 2 l^2) and steps to the largest L whose rounded
    ring radius still fits, so a ring exactly on the boundary counts.
    """
    radius = np.sqrt(spec.Lx * spec.Ly / np.pi)
    length = spec.magnetic_length

    def fits(c):
        return length * np.sqrt(2.0 * c) <= radius

    return _count_from(radius * radius / (2.0 * length * length), fits, "rings")


def degeneracy(spec: LandauSpec) -> DegeneracyReport:
    """Level degeneracy: flux ratio plus three integer counts of it.

    The raw ratio is flux / flux_quantum; the flux count is its floor, and
    the guiding-center and ring enumerations count actual states. The three
    integers always agree within one.
    """
    ratio = spec.flux / spec.flux_quantum
    return DegeneracyReport(
        ratio=float(ratio),
        flux_count=int(np.floor(ratio)),
        guiding_center_count=guiding_center_count(spec),
        ring_count=ring_count(spec),
    )


class HallReport(NamedTuple):
    """Transverse response of drifting states to a voltage across y."""

    per_electron_current: float
    per_level_current: float
    conductance: float
    quantum: float

    @property
    def conductance_in_quanta(self) -> float:
        return self.conductance / self.quantum


def hall_current(spec: LandauSpec, voltage: float) -> HallReport:
    """Hall current for a voltage applied across the rectangle's y extent.

    Every state drifts at c E x B / B^2, contributing charge * c * V / flux
    of current each; a filled level carries (flux / flux_quantum) of them,
    so the flux cancels and the level as a whole carries
    charge^2 V / (2 pi hbar) — one conductance quantum, independent of B
    and the rectangle's size. The returned conductance is the magnitude
    |per-level current / voltage|.
    """
    if not (np.isfinite(voltage) and voltage != 0):
        raise ValueError(f"voltage must be finite and nonzero, got {voltage}")
    if abs(voltage) < np.finfo(float).tiny:  # dividing by a subnormal loses digits
        raise ValueError(f"voltage must not be subnormal, got {voltage}")
    per_electron = spec.charge * spec.light_speed * voltage / spec.flux
    level_population = spec.flux / spec.flux_quantum
    per_level = level_population * per_electron
    return HallReport(
        per_electron_current=float(per_electron),
        per_level_current=float(per_level),
        conductance=float(abs(per_level / voltage)),
        quantum=conductance_quantum(spec),
    )


def conductance_quantum(spec: LandauSpec) -> float:
    """charge^2 / (2 pi hbar), the per-level Hall conductance."""
    return spec.charge * spec.charge / (2.0 * np.pi * spec.hbar)

