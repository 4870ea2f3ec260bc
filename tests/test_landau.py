from dataclasses import replace

import numpy as np
import pytest

from boxmode import (
    GridField2D,
    LandauSpec,
    ResolutionError,
    commutator_check,
    conductance_quantum,
    degeneracy,
    gaussian_test_state,
    hall_current,
    hamiltonian_residual,
    landau_gauge,
    landau_gauge_state,
    level_energy,
    symmetric_gauge,
    symmetric_gauge_state,
)
from boxmode.landau import RESIDUAL_LIMIT, _axis, _centered_axis, guiding_center_count, ring_count


def ridge_grid(spec, p_x, scale=1.0):
    """A compact rectangle holding the full y-profile of one ridge state."""
    length = spec.magnetic_length
    step = length / (8.0 * scale)
    y_guide = -spec.light_speed * p_x / (spec.charge * spec.B)
    return (
        _axis(0.0, 4.0 * length, step),
        y_guide + _centered_axis(8.0 * length, step),
    )


def test_spec_validation():
    with pytest.raises(ValueError):
        LandauSpec(B=0.0)
    with pytest.raises(ValueError):
        LandauSpec(B=-1.0)
    with pytest.raises(ValueError):
        LandauSpec(charge=0.0)
    with pytest.raises(ValueError):
        LandauSpec(mass=-2.0)
    with pytest.raises(ValueError):
        LandauSpec(Lx=0.0)
    # Config-file units reach the spec without passing a flag's finite check.
    for name in ("B", "charge", "mass", "light_speed", "hbar", "Lx", "Ly"):
        for value in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match=name):
                LandauSpec(**{name: value})


def test_natural_preset(landau):
    assert landau.B == 1.0
    assert landau.charge == -1.0
    assert landau.cyclotron_frequency == 1.0
    assert landau.magnetic_length == 1.0
    assert landau.flux == 100.0
    assert landau.flux_quantum == pytest.approx(2.0 * np.pi, rel=1e-15)


@pytest.mark.parametrize("charge", [-1.0, -2.0, 1.0, 2.0])
def test_probe_momentum_puts_the_guiding_line_at_half_a_length(charge):
    spec = LandauSpec(B=3.0, charge=charge, hbar=1.3)
    assert spec.guiding_line(spec.probe_momentum) == pytest.approx(
        0.5 * spec.magnetic_length, rel=1e-15
    )
    # So the default rectangle holds the ridge at either sign of charge.
    natural = LandauSpec(charge=np.sign(charge))
    assert 0.0 <= natural.guiding_line(natural.probe_momentum) <= natural.Ly
    if charge < 0:
        # Bitwise the momentum the CLI used before it knew the charge's sign.
        assert spec.probe_momentum == 0.5 * spec.hbar / spec.magnetic_length


@pytest.mark.parametrize(
    "kwargs",
    [
        {"B": 2.5, "charge": -1.0, "mass": 1.0, "light_speed": 1.0, "hbar": 1.0},
        {"B": 0.7, "charge": 2.0, "mass": 3.0, "light_speed": 137.0, "hbar": 0.5},
    ],
)
def test_derived_scales(kwargs):
    spec = LandauSpec(**kwargs)
    q, B = abs(kwargs["charge"]), kwargs["B"]
    m, c, hbar = kwargs["mass"], kwargs["light_speed"], kwargs["hbar"]
    assert spec.cyclotron_frequency == pytest.approx(q * B / (m * c), rel=1e-15)
    assert spec.magnetic_length == pytest.approx(np.sqrt(hbar * c / (q * B)), rel=1e-15)
    assert spec.flux_quantum == pytest.approx(2.0 * np.pi * hbar * c / q, rel=1e-15)


def test_level_energies(landau):
    assert level_energy(landau, 0) == pytest.approx(0.5, rel=1e-15)
    assert level_energy(landau, 3) == pytest.approx(3.5, rel=1e-15)
    spacing = level_energy(landau, 7) - level_energy(landau, 6)
    assert spacing == pytest.approx(landau.hbar * landau.cyclotron_frequency, rel=1e-14)
    for bad in (-1, 0.5, True):
        with pytest.raises(ValueError):
            level_energy(landau, bad)


def test_gauge_fields():
    gauge = landau_gauge(2.0)
    ax, ay = gauge.vector_potential(1.0, 3.0)
    assert ax == -6.0 and ay == 0.0
    sym = symmetric_gauge(2.0)
    ax, ay = sym.vector_potential(1.0, 3.0)
    assert ax == -3.0 and ay == 1.0
    with pytest.raises(ValueError):
        from boxmode import GaugeField

        GaugeField(name="radial", B=1.0)


def _fitted_deviation(values, reference):
    """Sup deviation of values from its least-squares multiple of reference,
    relative to the reference's sup, and that multiple."""
    scale = np.vdot(reference, values) / np.vdot(reference, reference)
    return np.abs(values - scale * reference).max() / np.abs(scale * reference).max(), scale


def test_ridge_profiles_match_mpmath_hermite_functions(landau):
    """The ridge is the n-th Hermite function H_n(xi) exp(-xi^2/2) up to a
    positive constant, even where H_n alone overflows (n = 200)."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    xi = np.linspace(-25.0, 25.0, 161)
    for n in (0, 1, 2, 5, 13, 40, 120, 200):
        state = landau_gauge_state(landau, n, 0.0, grid=(np.arange(5.0), xi))
        reference = np.array(
            [float(mpmath.hermite(n, v) * mpmath.exp(-(mpmath.mpf(v) ** 2) / 2)
                   / mpmath.sqrt(2**n * mpmath.factorial(n))) for v in xi]
        )
        deviation, scale = _fitted_deviation(state.values[0], reference)
        assert deviation < 1e-13, n
        assert scale.real > 0 and abs(scale.imag) < 1e-12 * abs(scale)
    for bad in (-1, 2.5, True):
        with pytest.raises(ValueError):
            landau_gauge_state(landau, bad, 0.0)


@pytest.mark.parametrize("n, angular", [(0, 1), (0, 5), (8, 3), (30, 60)])
def test_ring_states_match_mpmath_laguerre_form(landau, n, angular):
    """zeta^(m-n) L_n^(m-n)(2|zeta|^2) e^(-|zeta|^2), with conj(zeta) and
    L_m^(n-m) when n > m, times the ladder operators' sign (-1)^min(n, m)."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50  # the alternating Laguerre sum cancels ~15 digits at (30, 60)
    length = landau.magnetic_length
    axis = np.linspace(-19.5, 19.5, 27) * length
    state = symmetric_gauge_state(landau, n, angular, grid=(axis, axis))
    k, alpha = min(n, angular), abs(angular - n)
    reference = np.empty((axis.size, axis.size), dtype=complex)
    for i, x in enumerate(axis):
        for j, y in enumerate(axis):
            zeta = mpmath.mpc(x, -y) / (2 * length)  # negative charge
            w = zeta if angular >= n else mpmath.conj(zeta)
            t = 2 * abs(zeta) ** 2
            laguerre = sum(
                (-1) ** q * mpmath.binomial(k + alpha, k - q) * t**q / mpmath.factorial(q)
                for q in range(k + 1)
            )
            reference[i, j] = complex((-1) ** k * w**alpha * laguerre * mpmath.exp(-t / 2))
    deviation, scale = _fitted_deviation(state.values, reference)
    assert deviation < 1e-13
    assert scale.real > 0 and abs(scale.imag) < 1e-12 * abs(scale)


def test_grid_field_contracts():
    x = np.linspace(0.0, 1.0, 9)
    y = np.linspace(0.0, 2.0, 17)
    good = np.ones((9, 17), dtype=complex)
    good /= np.sqrt(np.sum(np.abs(good) ** 2) * (x[1] - x[0]) * (y[1] - y[0]))
    field = GridField2D(x=x, y=y, values=good)
    assert field.norm() == pytest.approx(1.0, abs=1e-12)

    with pytest.raises(ValueError, match="norm"):
        GridField2D(x=x, y=y, values=2.0 * good)
    with pytest.raises(ValueError):
        GridField2D(x=x, y=y, values=good[:5, :])
    ragged = x.copy()
    ragged[3] += 0.01
    with pytest.raises(ValueError, match="uniform"):
        GridField2D(x=ragged, y=y, values=good)


def test_grid_field_rejects_nan():
    x = np.linspace(0.0, 1.0, 9)
    with pytest.raises(ValueError, match="field norm is nan"):
        GridField2D(x=x, y=x, values=np.full((9, 9), np.nan, dtype=complex))


@pytest.mark.parametrize("n, k", [(0, 0.0), (0, 0.5), (0, 1.0), (1, 0.5)])
def test_ridge_states_are_eigenstates(landau, n, k):
    """Plane-wave-times-profile states solve the eigenproblem on the grid to
    a few parts in 1e4 relative to the level spacing."""
    p_x = k * landau.hbar / landau.magnetic_length
    state = landau_gauge_state(landau, n, p_x, grid=ridge_grid(landau, p_x))
    residual = hamiltonian_residual(
        landau, landau_gauge(landau.B), state, level_energy(landau, n)
    )
    assert residual < RESIDUAL_LIMIT


@pytest.mark.parametrize("n, angular", [(0, 0), (0, 1), (0, 2), (0, 3), (1, 0)])
def test_ring_states_are_eigenstates(landau, n, angular):
    state = symmetric_gauge_state(landau, n, angular)
    residual = hamiltonian_residual(
        landau, symmetric_gauge(landau.B), state, level_energy(landau, n)
    )
    assert residual < RESIDUAL_LIMIT


def test_ring_state_energy_ignores_angular_index(landau):
    # The angular index moves probability outward but not the energy: the
    # residual against the n = 0 energy stays small for every ring.
    gauge = symmetric_gauge(landau.B)
    e0 = level_energy(landau, 0)
    residuals = [
        hamiltonian_residual(landau, gauge, symmetric_gauge_state(landau, 0, L), e0)
        for L in range(4)
    ]
    assert max(residuals) < RESIDUAL_LIMIT


def test_residual_drops_at_fourth_order(landau):
    """Halving the grid step cuts the eigenvalue defect by roughly 2^4."""
    p_x = 0.5 * landau.hbar / landau.magnetic_length
    gauge = landau_gauge(landau.B)
    e0 = level_energy(landau, 0)
    coarse = hamiltonian_residual(
        landau, gauge, landau_gauge_state(landau, 0, p_x, grid=ridge_grid(landau, p_x)), e0
    )
    fine = hamiltonian_residual(
        landau,
        gauge,
        landau_gauge_state(landau, 0, p_x, grid=ridge_grid(landau, p_x, scale=2.0)),
        e0,
    )
    assert coarse / fine > 4.0


def test_coarse_grid_rejected(landau):
    length = landau.magnetic_length
    axis = _centered_axis(8.0 * length, length / 4.0)
    state = symmetric_gauge_state(landau, 0, 0, grid=(axis, axis))
    with pytest.raises(ResolutionError):
        hamiltonian_residual(
            landau, symmetric_gauge(landau.B), state, level_energy(landau, 0)
        )


def test_tiny_grid_rejected(landau):
    length = landau.magnetic_length
    axis = _centered_axis(0.3 * length, length / 8.0)
    state = symmetric_gauge_state(landau, 0, 0, grid=(axis, axis))
    with pytest.raises(ResolutionError, match="margin"):
        commutator_check(landau, symmetric_gauge(landau.B), state)


def test_guiding_line_outside_rectangle_warns(landau):
    with pytest.warns(UserWarning, match="outside"):
        landau_gauge_state(landau, 0, -1.0)
    with pytest.warns(UserWarning, match="outside"):
        landau_gauge_state(landau, 0, 10.7)


@pytest.mark.parametrize("edges", [(10.0, 10.0), (3.3, 7.1), (0.5, 2.0)])
def test_default_rectangle_budget_counts_its_points(monkeypatch, edges):
    # The float count checked before allocating is the built grid's, exactly.
    spec = LandauSpec(Lx=edges[0], Ly=edges[1])
    points = landau_gauge_state(spec, 0, spec.probe_momentum).values.size
    monkeypatch.setattr("boxmode.quadrature.SAMPLE_BUDGET", points)
    assert landau_gauge_state(spec, 0, spec.probe_momentum).values.size == points
    monkeypatch.setattr("boxmode.quadrature.SAMPLE_BUDGET", points - 1)
    with pytest.raises(ResolutionError, match=f"a {points}-sample grid exceeds"):
        landau_gauge_state(spec, 0, spec.probe_momentum)


@pytest.mark.filterwarnings("error::UserWarning")
def test_ridge_on_its_own_grid_never_warns(landau):
    # A grid centred on the guiding line holds the ridge wherever the line lies.
    for p_x in (-1.0, 10.7, 20.0):
        landau_gauge_state(landau, 0, p_x, grid=ridge_grid(landau, p_x))


def test_commutator_closes_in_both_gauges(landau):
    probe = gaussian_test_state(landau)
    assert commutator_check(landau, landau_gauge(landau.B), probe) < 1e-3
    assert commutator_check(landau, symmetric_gauge(landau.B), probe) < 1e-3


def test_commutator_vanishes_without_field(landau):
    probe = gaussian_test_state(landau)
    free = landau_gauge(0.0)
    assert commutator_check(landau, free, probe) < 1e-10


def axis_peak(state):
    """Radius of the density maximum along the positive-x cut at y = 0,
    refined by a parabola through the log-density at the grid maximum and
    its two neighbors."""
    iy = int(np.where(state.y == 0.0)[0][0])
    positive = state.x >= 0.0
    xs = state.x[positive]
    row = state.density[positive, iy]
    i = int(np.argmax(row))
    logs = np.log(row[i - 1 : i + 2])
    shift = 0.5 * (logs[0] - logs[2]) / (logs[0] - 2.0 * logs[1] + logs[2])
    return float(xs[i] + shift * (xs[1] - xs[0]))


def test_ring_radii_match_prediction(landau):
    """The lowest-level ring state of angular momentum m peaks at radius
    magnetic_length * sqrt(2 m)."""
    for angular in range(1, 6):
        state = symmetric_gauge_state(landau, 0, angular)
        assert axis_peak(state) == pytest.approx(
            landau.magnetic_length * np.sqrt(2.0 * angular), rel=5e-3
        )


def test_rings_enclose_equal_areas(landau):
    """Successive ring maxima bound annuli of area one flux quantum's worth,
    2 pi length^2, to within five percent."""
    length = landau.magnetic_length
    radii = [axis_peak(symmetric_gauge_state(landau, 0, L)) for L in range(1, 6)]
    areas = np.pi * np.diff(np.array(radii) ** 2)
    np.testing.assert_allclose(areas, 2.0 * np.pi * length**2, rtol=5e-2)


def test_degeneracy_three_ways(landau):
    report = degeneracy(landau)
    assert report.ratio == pytest.approx(100.0 / (2.0 * np.pi), rel=1e-14)
    assert report.flux_count == 15
    assert report.guiding_center_count == 16
    assert report.ring_count == 16
    assert report.spread <= 1


def _enumerated_guiding_lines(spec):
    """Reference count: walk the momentum ladder until a line leaves [0, Ly]."""
    step = 2.0 * np.pi * spec.hbar / spec.Lx
    direction = 1.0 if spec.charge < 0 else -1.0
    j = 0
    while spec.guiding_line(direction * j * step) <= spec.Ly:
        j += 1
    return j


@pytest.mark.parametrize(
    "kwargs",
    [
        {},
        {"charge": 2.5, "B": 0.7, "Lx": 31.0, "Ly": 17.3},
        {"charge": -0.4, "light_speed": 3.0, "hbar": 0.6, "Lx": 400.0, "Ly": 250.0},
    ],
)
def test_guiding_center_count_matches_enumeration(kwargs):
    spec = LandauSpec(**kwargs)
    assert guiding_center_count(spec) == _enumerated_guiding_lines(spec)
    # With Ly exactly on the eighth guiding line, that line still counts.
    step = 2.0 * np.pi * spec.hbar / spec.Lx
    direction = 1.0 if spec.charge < 0 else -1.0
    tied = replace(spec, Ly=spec.guiding_line(direction * 7 * step))
    assert guiding_center_count(tied) == _enumerated_guiding_lines(tied) == 8


def _enumerated_rings(spec):
    """Reference count: add rings until one no longer fits the disk."""
    radius = np.sqrt(spec.Lx * spec.Ly / np.pi)
    count = 0
    while spec.magnetic_length * np.sqrt(2.0 * count) <= radius:
        count += 1
    return count


@pytest.mark.parametrize(
    "kwargs",
    [
        {},
        {"charge": 2.5, "B": 0.7, "Lx": 31.0, "Ly": 17.3},
        {"charge": -0.4, "light_speed": 3.0, "hbar": 0.6, "Lx": 400.0, "Ly": 250.0},
        # Lx Ly = 2 pi l^2 K puts ring K exactly on the disk edge (l^2 = c here).
        {"Lx": np.pi, "Ly": 2.0},
        {"Lx": np.pi, "Ly": 14.0},
        {"light_speed": 3.0, "Lx": np.pi, "Ly": 12.0},
    ],
)
def test_ring_count_matches_enumeration(kwargs):
    spec = LandauSpec(**kwargs)
    assert ring_count(spec) == _enumerated_rings(spec)


def test_degeneracy_at_flux_1e8():
    # Beyond the 10**7 states a Python enumeration could afford.
    report = degeneracy(LandauSpec(Lx=1e4, Ly=1e4))
    assert report.flux_count == 15915494
    assert report.guiding_center_count == 15915495
    assert report.ring_count == 15915495
    # Past 2**53 states neighbouring indices share one float: refuse, not spin.
    with pytest.raises(ValueError, match="2\\*\\*53"):
        guiding_center_count(LandauSpec(Lx=1e13, Ly=1e13))
    with pytest.raises(ValueError, match="2\\*\\*53"):
        ring_count(LandauSpec(Lx=1e13, Ly=1e13))


@pytest.mark.parametrize(
    "B, Lx, Ly", [(0.5, 5.0, 5.0), (2.0, 15.0, 20.0), (1.3, 25.0, 24.7)]
)
def test_degeneracy_counts_agree_within_one(B, Lx, Ly):
    report = degeneracy(LandauSpec(B=B, Lx=Lx, Ly=Ly))
    assert report.flux_count == int(report.ratio)
    assert report.spread <= 1


def test_hall_conductance_is_quantized(landau):
    report = hall_current(landau, voltage=1.0)
    assert report.per_electron_current == pytest.approx(-0.01, rel=1e-14)
    assert report.per_level_current == pytest.approx(-1.0 / (2.0 * np.pi), rel=1e-14)
    assert report.conductance == pytest.approx(conductance_quantum(landau), rel=1e-15)
    assert report.conductance_in_quanta == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("charge", [-1.0, 2.0, 7.30728627489739])
def test_conductance_quantum_squares_the_charge_by_product(charge):
    """charge * charge is correctly rounded; charge**2 (C pow) is one ulp
    above it at 7.30728627489739."""
    expected = charge * charge / (2.0 * np.pi)
    assert conductance_quantum(LandauSpec(charge=charge)) == expected


@pytest.mark.parametrize(
    "B, Lx, Ly, voltage",
    [(0.3, 7.0, 4.0, 0.25), (4.0, 12.0, 33.0, -2.0), (1.0, 10.0, 10.0, 5.0)],
)
def test_hall_conductance_independent_of_geometry(B, Lx, Ly, voltage):
    spec = LandauSpec(B=B, Lx=Lx, Ly=Ly)
    report = hall_current(spec, voltage)
    assert report.conductance == pytest.approx(1.0 / (2.0 * np.pi), rel=1e-13)


def test_hall_rejects_zero_voltage(landau):
    for voltage in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            hall_current(landau, voltage)

