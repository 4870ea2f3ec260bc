import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxmode import Eigenfunction, WellSpec, state_overlap

# First three level energies for the natural-unit well, frozen from the
# closed form (n pi / 2a)^2 hbar^2 / 2m.
FROZEN_ENERGIES = {
    1: 1.2337005501361697,
    2: 4.934802200544679,
    3: 11.103304951225527,
}


@pytest.mark.parametrize("n, expected", sorted(FROZEN_ENERGIES.items()))
def test_frozen_energies(spec, n, expected):
    assert spec.energy(n) == pytest.approx(expected, rel=1e-14)


def test_energy_quadratic_ladder(spec):
    """Level energies scale as n^2 relative to the ground state."""
    base = spec.energy(1)
    for n in range(2, 30):
        assert spec.energy(n) / base == pytest.approx(n * n, rel=1e-13)


def test_energy_parameter_scaling():
    custom = WellSpec(half_width=2.0, mass=3.0, hbar=0.5)
    k1 = np.pi / 4.0
    assert custom.wavenumber(1) == pytest.approx(k1, rel=1e-15)
    assert custom.energy(1) == pytest.approx((0.5 * k1) ** 2 / 6.0, rel=1e-14)
    assert custom.spike_momentum(3) == pytest.approx(3 * 0.5 * k1, rel=1e-15)


@pytest.mark.parametrize("n", range(1, 9))
def test_normalization(spec, n):
    assert abs(state_overlap(spec, n, n) - 1.0) < 1e-14


@pytest.mark.parametrize("n", [150, 200])
def test_normalization_at_high_levels(spec, n):
    # |psi_n|^2 turns through 2 k_n a = n pi radians; 256 nodes alias here.
    assert abs(state_overlap(spec, n, n) - 1.0) <= 1e-9


@pytest.mark.parametrize("m, n", [(1, 2), (1, 3), (2, 4), (3, 5), (2, 7)])
def test_orthogonality(spec, m, n):
    assert abs(state_overlap(spec, m, n)) < 1e-14


def test_overlap_diagonal_is_unity(spec):
    for n in (1, 2, 5):
        assert state_overlap(spec, n, n) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("n", range(1, 7))
def test_parity(spec, n):
    """Odd-index states are even in x, even-index states are odd."""
    psi = Eigenfunction(spec, n)
    sign = 1.0 if n % 2 == 1 else -1.0
    assert psi.parity == sign
    x = np.linspace(-0.9, 0.9, 41)
    np.testing.assert_allclose(psi(-x), sign * psi(x), atol=1e-15)


@pytest.mark.parametrize("n", range(1, 7))
def test_vanishes_at_walls_and_outside(spec, n):
    psi = Eigenfunction(spec, n)
    assert psi(spec.half_width) == 0.0
    assert psi(-spec.half_width) == 0.0
    outside = np.array([-5.0, -1.0001, 1.0001, 2.0, 100.0])
    assert np.all(psi(outside) == 0.0)


def test_nan_sample_rejected_and_infinity_outside(spec):
    psi = Eigenfunction(spec, 1)
    for x in (np.nan, np.array([0.0, np.nan])):
        with pytest.raises(ValueError, match="x must not be nan"):
            psi(x)
    # ±inf lies outside the walls.
    assert psi(np.inf) == 0.0
    assert np.all(psi(np.array([-np.inf, 0.5, np.inf])) == [0.0, psi(0.5), 0.0])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [1, 2])
def test_trigonometry_only_inside_the_walls(spec, n):
    # cos(±inf) and sin(±inf) warn "invalid value"; outside samples take none.
    psi = Eigenfunction(spec, n)
    x = np.array([-np.inf, -3.0, -1.0, -0.5, 0.0, 0.25, 1.0, 2.0, np.inf])
    values = psi(x)
    inside = np.abs(x) < spec.half_width
    assert np.all(values[~inside] == 0.0)
    expected = psi._trig(psi.wavenumber * x[inside]) / np.sqrt(spec.half_width)
    assert np.array_equal(values[inside], expected)


def test_scalar_evaluation_returns_float(spec):
    psi = Eigenfunction(spec, 2)
    value = psi(0.25)
    assert isinstance(value, float)


@pytest.mark.parametrize("bad", [0, -1, 2.5, True])
def test_invalid_level_rejected(spec, bad):
    with pytest.raises((TypeError, ValueError)):
        Eigenfunction(spec, bad)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"half_width": 0.0},
        {"half_width": -1.0},
        {"mass": 0.0},
        {"hbar": -0.1},
        {"half_width": np.inf},
        {"mass": np.nan},
    ],
)
def test_invalid_spec_rejected(kwargs):
    with pytest.raises(ValueError):
        WellSpec(**kwargs)


@given(
    n=st.integers(min_value=1, max_value=40),
    x=st.floats(min_value=-3.0, max_value=3.0),
)
@settings(max_examples=60, deadline=None)
def test_amplitude_bounded_everywhere(n, x):
    spec = WellSpec()
    psi = Eigenfunction(spec, n)
    bound = 1.0 / np.sqrt(spec.half_width)
    assert abs(psi(x)) <= bound * (1.0 + 1e-12)
