"""Landau fields live on their two 1-D axes: states and operators broadcast
``x[:, None]`` against ``y`` and never build coordinate meshes.

The references below are the full-mesh formulas with wrapping ``np.roll``
stencils, kept verbatim; every broadcast result must carry their exact bits
on the cells the sliced stencils reach, two or more from every edge.
"""

import numpy as np
import pytest

from boxmode import (
    GridField2D,
    LandauSpec,
    commutator_check,
    gaussian_test_state,
    hamiltonian_residual,
    landau_gauge,
    landau_gauge_state,
    level_energy,
    symmetric_gauge,
    symmetric_gauge_state,
)
from boxmode.cli import run
from boxmode.landau import (
    _axis,
    _centered_axis,
    _power_times_gaussian,
    apply_hamiltonian,
    ridge_residual,
    ring_residual,
)

SPECS = (LandauSpec(), LandauSpec(charge=2.0, mass=0.5, hbar=1.3))


def normalized(x, y, values):
    return values / np.sqrt(np.sum(np.abs(values) ** 2) * (x[1] - x[0]) * (y[1] - y[0]))


def mesh_ridge(spec, n, p_x, x, y):
    X, Y = np.meshgrid(x, y, indexing="ij")
    xi = (Y - spec.guiding_line(p_x)) / spec.magnetic_length
    previous, profile = 0.0, np.exp(-0.5 * xi**2)
    for k in range(n):
        h_k = profile / np.sqrt(max(2.0 * k, 1.0))
        previous, profile = h_k, 2.0 * xi * h_k - np.sqrt(2.0 * k) * previous
    return normalized(x, y, np.exp(1j * p_x * X / spec.hbar) * profile)


def mesh_ring(spec, n, angular, x, y):
    X, Y = np.meshgrid(x, y, indexing="ij")
    if spec.charge < 0:
        zeta = (X - 1j * Y) / (2.0 * spec.magnetic_length)
    else:
        zeta = (X + 1j * Y) / (2.0 * spec.magnetic_length)
    order, alpha = min(n, angular), abs(angular - n)
    r2 = np.abs(zeta) ** 2
    values = _power_times_gaussian(zeta if angular >= n else np.conj(zeta), alpha, r2)
    previous = 0.0
    for k in range(order):
        previous, values = values, (
            (2 * k + 1 + alpha - 2.0 * r2) * values - np.sqrt(k * (k + alpha)) * previous
        ) / np.sqrt((k + 1) * (k + 1 + alpha))
    return normalized(x, y, (-1) ** order * values)


def mesh_gaussian(spec):
    length = spec.magnetic_length
    axis = _axis(-8.0 * length, 8.0 * length, length / 8.0)
    X, Y = np.meshgrid(axis, axis, indexing="ij")
    envelope = np.exp(-(X**2 + 1.3 * Y**2 + 0.4 * X * Y) / (5.0 * length**2))
    ripple = np.exp(0.3j * (X + 0.7 * Y) / length)
    return normalized(axis, axis, envelope * ripple)


# np.roll(a, -k, axis) is a at index + k; the edges wrap, so callers drop two cells.
def roll_derivative1(a, step, axis):
    return (
        np.roll(a, 2, axis)
        - 8.0 * np.roll(a, 1, axis)
        + 8.0 * np.roll(a, -1, axis)
        - np.roll(a, -2, axis)
    ) / (12.0 * step)


def roll_derivative2(a, step, axis):
    return (
        -np.roll(a, 2, axis)
        + 16.0 * np.roll(a, 1, axis)
        - 30.0 * a
        + 16.0 * np.roll(a, -1, axis)
        - np.roll(a, -2, axis)
    ) / (12.0 * (step * step))


def mesh_hamiltonian(spec, gauge, state):
    A_x, A_y = gauge.vector_potential(*np.meshgrid(state.x, state.y, indexing="ij"))
    psi = state.values
    hbar, q, m, c = spec.hbar, spec.charge, spec.mass, spec.light_speed
    laplacian = roll_derivative2(psi, state.dx, 0) + roll_derivative2(psi, state.dy, 1)
    gradient_term = (
        A_x * roll_derivative1(psi, state.dx, 0) + A_y * roll_derivative1(psi, state.dy, 1)
    )
    return (
        -(hbar * hbar) / (2.0 * m) * laplacian
        + (1j * hbar * q / (m * c)) * gradient_term
        + (q * q / (2.0 * m * (c * c))) * (A_x**2 + A_y**2) * psi
    )


def mesh_residual(spec, gauge, state, energy):
    psi = state.values
    defect = mesh_hamiltonian(spec, gauge, state) - energy * psi
    interior = (slice(2, -2), slice(2, -2))
    scale = spec.hbar * spec.cyclotron_frequency * np.abs(psi[interior]).max()
    return float(np.abs(defect[interior]).max() / scale)


def mesh_commutator(spec, gauge, state):
    A_x, A_y = gauge.vector_potential(*np.meshgrid(state.x, state.y, indexing="ij"))
    hbar, q, c = spec.hbar, spec.charge, spec.light_speed

    def pi_x(f):
        return -1j * hbar * roll_derivative1(f, state.dx, 0) - (q / c) * A_x * f

    def pi_y(f):
        return -1j * hbar * roll_derivative1(f, state.dy, 1) - (q / c) * A_y * f

    psi = state.values
    forward, backward = pi_x(pi_y(psi)), pi_y(pi_x(psi))
    interior = (slice(4, -4), slice(4, -4))
    scale = (np.abs(forward[interior]) + np.abs(backward[interior])).max()
    defect = forward - backward - 1j * hbar * (q / c) * gauge.B * psi
    return float(np.abs(defect[interior]).max() / scale)


def probe_grid(spec, p_x):
    """33 columns along x by 129 rows across the ridge: not square."""
    step = spec.magnetic_length / 8.0
    y = spec.guiding_line(p_x) + _centered_axis(8.0 * spec.magnetic_length, step)
    return np.linspace(0.0, 32.0 * step, 33), y


def ring_grid(spec):
    """A rectangle off the origin, 65 by 97 points."""
    step = spec.magnetic_length / 8.0
    x = _centered_axis(4.0 * spec.magnetic_length, step)
    return x, 0.3 + _centered_axis(6.0 * spec.magnetic_length, step)


def assert_interior_bits(computed, mesh):
    """``computed`` holds the bits, signed zeros included, of ``mesh`` two or
    more cells from every edge, and nothing else."""
    assert computed.shape == (mesh.shape[0] - 4, mesh.shape[1] - 4)
    assert computed.tobytes() == mesh[2:-2, 2:-2].tobytes()


def assert_hamiltonian_bits(spec, state):
    for gauge in (landau_gauge(spec.B), symmetric_gauge(spec.B)):
        expected = mesh_hamiltonian(spec, gauge, state)
        assert_interior_bits(apply_hamiltonian(spec, gauge, state), expected)


def assert_same_bits(state, x, y, values):
    assert state.values.shape == (x.size, y.size)
    assert state.x.tobytes() == x.tobytes() and state.y.tobytes() == y.tobytes()
    assert state.values.tobytes() == values.tobytes()


@pytest.mark.filterwarnings("ignore:guiding line")
@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("n", [0, 1, 5, 60])
@pytest.mark.parametrize("on_probe", [False, True])
def test_ridge_keeps_the_mesh_bits(spec, sign, n, on_probe):
    p_x = sign * 0.7 * spec.hbar / spec.magnetic_length
    grid = probe_grid(spec, p_x) if on_probe else None
    state = landau_gauge_state(spec, n, p_x, grid=grid)
    x, y = grid or (state.x, state.y)
    assert_same_bits(state, x, y, mesh_ridge(spec, n, p_x, x, y))
    assert_hamiltonian_bits(spec, state)


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("n, angular", [(0, 0), (1, 3), (4, 2), (5, 0), (2, 9)])
@pytest.mark.parametrize("on_rectangle", [False, True])
def test_ring_keeps_the_mesh_bits(spec, n, angular, on_rectangle):
    grid = ring_grid(spec) if on_rectangle else None
    state = symmetric_gauge_state(spec, n, angular, grid=grid)
    x, y = grid or (state.x, state.y)
    assert_same_bits(state, x, y, mesh_ring(spec, n, angular, x, y))
    assert_hamiltonian_bits(spec, state)


@pytest.mark.parametrize("spec", [*SPECS, LandauSpec(B=3.7, light_speed=2.0)])
def test_gaussian_keeps_the_mesh_bits(spec):
    state = gaussian_test_state(spec)
    assert_same_bits(state, state.x, state.x, mesh_gaussian(spec))
    assert_hamiltonian_bits(spec, state)


@pytest.mark.parametrize("spec", SPECS)
def test_operators_return_the_mesh_floats(spec):
    p_x = spec.probe_momentum
    ridge = landau_gauge_state(spec, 3, p_x, grid=probe_grid(spec, p_x))
    ring = symmetric_gauge_state(spec, 1, 2, grid=ring_grid(spec))
    probe = gaussian_test_state(spec)
    for gauge in (landau_gauge(spec.B), symmetric_gauge(spec.B)):
        for state, n in ((ridge, 3), (ring, 1), (probe, 0)):
            energy = level_energy(spec, n)
            # Bitwise, signed zeros included: the landau gauge skips the
            # y-gradient term, whose A_y is identically zero.
            expected = mesh_hamiltonian(spec, gauge, state)
            assert_interior_bits(apply_hamiltonian(spec, gauge, state), expected)
            expected = mesh_residual(spec, gauge, state, energy)
            assert hamiltonian_residual(spec, gauge, state, energy) == expected
            assert commutator_check(spec, gauge, state) == mesh_commutator(spec, gauge, state)


def test_nothing_builds_a_mesh(monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("np.meshgrid was called")

    monkeypatch.setattr(np, "meshgrid", refuse)
    spec = LandauSpec()
    p_x = spec.probe_momentum
    ridge = landau_gauge_state(spec, 2, p_x)
    landau_gauge_state(spec, 2, p_x, grid=probe_grid(spec, p_x))
    ring = symmetric_gauge_state(spec, 1, 2)
    probe = gaussian_test_state(spec)
    for gauge in (landau_gauge(spec.B), symmetric_gauge(spec.B)):
        apply_hamiltonian(spec, gauge, ridge)
        hamiltonian_residual(spec, gauge, ring, level_energy(spec, 1))
        commutator_check(spec, gauge, probe)
    ridge_residual(spec, 2, p_x)
    ring_residual(spec, 1, 2, ring)
    out = str(tmp_path / "out")
    assert run(["landau", "state", "--out", out]) == 0
    assert run(["landau", "state", "--gauge", "symmetric", "--angular", "2", "--out", out]) == 0
    assert run(["landau", "checks", "--out", out]) == 0


AXIS = np.linspace(0.0, 4.0, 33)


@pytest.mark.parametrize(
    "grid, name",
    [
        ((AXIS.reshape(3, 11), AXIS), "x"),
        ((AXIS, AXIS.reshape(3, 11)), "y"),
        ((np.float64(1.0), AXIS), "x"),
        ((AXIS, 2.0), "y"),
        ((AXIS[:1], AXIS), "x"),
        ((AXIS, AXIS[:4]), "y"),
    ],
)
def test_builders_check_the_axes_first(grid, name):
    message = f"{name} axis must be 1-D with at least 5 points"
    with pytest.raises(ValueError, match=message):
        landau_gauge_state(LandauSpec(), 1, 0.3, grid=grid)
    with pytest.raises(ValueError, match=message):
        symmetric_gauge_state(LandauSpec(), 1, 0, grid=grid)
    x, y = (np.asarray(axis, dtype=float) for axis in grid)
    with pytest.raises(ValueError, match=message):
        GridField2D(x=x, y=y, values=np.ones((5, 5), dtype=complex))


def test_state_csv_runs_x_outer_and_y_inner(tmp_path):
    # On a non-square rectangle a swapped repeat/tile or transposed field shows.
    out = tmp_path / "out"
    argv = ["landau", "state", "--edge-x", "6", "--edge-y", "14", "--digits", "17"]
    assert run([*argv, "--out", str(out)]) == 0
    spec = LandauSpec(Lx=6.0, Ly=14.0)
    state = landau_gauge_state(spec, 0, spec.probe_momentum)
    table = np.loadtxt(out / "landau_state.csv", delimiter=",", skiprows=1)
    table = table.reshape(state.x.size, state.y.size, 5)
    assert state.x.size != state.y.size
    assert np.array_equal(table[..., 0], np.broadcast_to(state.x[:, None], state.values.shape))
    assert np.array_equal(table[..., 1], np.broadcast_to(state.y, state.values.shape))
    assert np.array_equal(table[..., 2] + 1j * table[..., 3], state.values)
