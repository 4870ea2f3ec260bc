import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxmode import (
    Eigenfunction,
    MomentumGrid,
    QuadratureSettings,
    WellSpec,
    amplitude_transform,
    analytic_density,
    default_grid,
    farfield_map,
    momentum_continuous,
    spectrum,
    uncertainty_product,
)
from boxmode.cli import run
from boxmode.momentum_continuous import KERNEL_ROWS, _plane_waves
from boxmode.quadrature import bandwidth_order

# Ground-state landmarks in natural units (a = m = hbar = 1), frozen from
# the closed forms 4/(pi sqrt(2 pi)), 8/pi^3 and 1/(2 pi).
GROUND_AMPLITUDE_AT_ZERO = 0.507949087474
GROUND_DENSITY_AT_ZERO = 0.258012275466
GROUND_DENSITY_AT_SPIKE = 0.159154943092

# Trapezoid norm of the sampled ground-state density on the default grid.
GROUND_TRAPEZOID_NORM = 0.999983011004


def test_ground_amplitude_at_origin(spec):
    amp = amplitude_transform(spec, 1, 0.0)
    assert amp.real == pytest.approx(GROUND_AMPLITUDE_AT_ZERO, abs=1e-12)
    assert abs(amp.imag) < 1e-15


def test_ground_density_landmarks(spec):
    assert analytic_density(spec, 1, 0.0) == pytest.approx(
        GROUND_DENSITY_AT_ZERO, abs=1e-12
    )
    k1 = spec.spike_momentum(1)
    assert analytic_density(spec, 1, k1) == pytest.approx(
        GROUND_DENSITY_AT_SPIKE, abs=1e-12
    )
    assert analytic_density(spec, 1, -k1) == pytest.approx(
        GROUND_DENSITY_AT_SPIKE, abs=1e-12
    )


def test_density_value_at_spike_is_level_independent(spec):
    # The removable singularity fills in to a/(2 pi hbar) for every level.
    expected = spec.half_width / (2.0 * np.pi * spec.hbar)
    for n in (1, 2, 3, 7):
        p = spec.spike_momentum(n)
        assert analytic_density(spec, n, p) == pytest.approx(expected, rel=1e-12)


def test_density_squares_the_wavenumber_by_product():
    """4 k_n^2 takes k_n * k_n, which is correctly rounded; k_n**2 (C pow) is
    one ulp off it at n = 283, where the density read 2.9402254022237157e-06."""
    assert analytic_density(WellSpec(), 283, 0.3) == 2.940225402223716e-06


@pytest.mark.parametrize("n", [*range(1, 9), 15, 20, 40])
def test_transform_matches_closed_form(spec, n):
    """Quadrature transform and the closed-form density agree across the
    default grid's span and within 1e-3 of the removable points. From
    n = 15 on, that span needs more than 256 nodes."""
    rng = np.random.default_rng(100 + n)
    k = spec.wavenumber(n)
    p = np.concatenate(
        [
            rng.uniform(-20.0 * k, 20.0 * k, 400),
            k + np.array([-1e-3, -1e-5, -1e-7, 0.0, 1e-7, 1e-5, 1e-3]),
            -k + np.array([-1e-5, 0.0, 1e-5]),
        ]
    )
    quad = np.abs(amplitude_transform(spec, n, p)) ** 2
    closed = analytic_density(spec, n, p)
    np.testing.assert_allclose(quad, closed, atol=1e-12)


def test_branch_crossover_is_seamless(spec):
    # Density evaluated just inside and just outside 1e-4/a of the spike
    # must agree to the local slope, not jump.
    k = spec.wavenumber(3)
    band = 1e-4 / spec.half_width
    u = np.array([-1.02, -0.98, 0.98, 1.02]) * band
    values = analytic_density(spec, 3, k + u)
    assert abs(values[0] - values[1]) < 1e-6
    assert abs(values[2] - values[3]) < 1e-6


@pytest.mark.parametrize("n", [1, 2, 5])
def test_momentum_reflection_symmetries(spec, n):
    # Real states: amplitude(-p) = conj(amplitude(p)); definite parity adds
    # amplitude(-p) = parity * amplitude(p) on top.
    grid = MomentumGrid(p_max=30.0, count=501)
    amp = amplitude_transform(spec, n, grid.points)
    np.testing.assert_allclose(amp[::-1], np.conj(amp), atol=1e-13)
    sign = 1.0 if n % 2 == 1 else -1.0
    np.testing.assert_allclose(amp[::-1], sign * amp, atol=1e-13)


def test_default_grid_shape(spec):
    grid = default_grid(spec, 3)
    assert grid.count == 4001
    assert grid.p_max == pytest.approx(20.0 * spec.spike_momentum(3), rel=1e-15)
    assert grid.points[0] == -grid.p_max
    assert grid.points[-1] == grid.p_max
    assert grid.points[grid.count // 2] == 0.0


# Every default grid for n = 1..20 in three unit systems, the far-field
# leaf's probe span, and scales from the subnormal edge to the overflow edge.
GRID_SPECS = (WellSpec(), WellSpec(half_width=2.5, mass=3.0, hbar=0.7), WellSpec(0.7, hbar=1.3))
GRID_SPANS = [
    *(default_grid(s, n).p_max for s in GRID_SPECS for n in range(1, 21)),
    *(6.0 * s.spike_momentum(n) for s in GRID_SPECS for n in (1, 2, 3)),
    1.0, 0.1, 32.75, 1e-300, 1e300,
]


@pytest.mark.parametrize("count", [3, 5, 17, 4001, 20001])
def test_grid_is_linspace_negative_half_mirrored(count):
    """points[::-1] == -points, the centre is +0.0 and the ends are -+p_max
    exactly; the first count // 2 points are linspace's, bit for bit. Nonzero
    floats compare equal only when their bits are equal."""
    half = count // 2
    for p_max in GRID_SPANS:
        points = MomentumGrid(p_max, count).points
        assert points.shape == (count,)
        assert np.array_equal(points[::-1], -points)
        assert points[half] == 0.0 and not np.signbit(points[half])
        assert points[0] == -p_max and points[-1] == p_max
        linspace = np.linspace(-p_max, p_max, count)
        assert points[:half].tobytes() == linspace[:half].tobytes()
    # linspace's 2 p_max overflows here; the negative half's span does not.
    top = np.finfo(float).max
    points = MomentumGrid(top, count).points
    assert np.array_equal(points[::-1], -points) and points[-1] == top
    assert np.isfinite(points).all()


def spy_on_plane_waves(monkeypatch):
    """Patch ``_plane_waves`` to record the rows it builds; returns the list."""
    asked = []

    def counting(rows, x, hbar, out):
        asked.append(rows.copy())
        return _plane_waves(rows, x, hbar, out)

    monkeypatch.setattr(momentum_continuous, "_plane_waves", counting)
    return asked


@pytest.mark.parametrize("n", [1, 5, 14, 20])
def test_default_spectrum_builds_half_the_rows(spec, monkeypatch, n):
    """All 2,000 nonzero rows of a default grid pair with their negatives, so
    2,001 kernel rows are built, padded to whole product steps (15 rows at
    256 nodes, 10 at 374), and the amplitude is exactly Hermitian."""
    asked = spy_on_plane_waves(monkeypatch)
    amp = spectrum(spec, n).amplitude
    asked = np.concatenate(asked)
    assert np.array_equal(np.unique(asked), default_grid(spec, n).points[2000:])
    assert 0 <= asked.size - 2001 < 15
    assert np.array_equal(amp[::-1], np.conj(amp))


def test_trapezoid_norm_frozen(spec):
    result = spectrum(spec, 1)
    assert result.norm_trapezoid() == pytest.approx(GROUND_TRAPEZOID_NORM, abs=1e-9)


@pytest.mark.parametrize("n", [1, 4, 10, 15, 20, 40])
def test_trapezoid_norm_bounds(spec, n):
    norm = spectrum(spec, n).norm_trapezoid()
    assert 0.999 <= norm <= 1.0 + 1e-9


def test_norm_improves_with_momentum_window(spec):
    """Truncation defect of the sampled norm falls as the window widens."""
    k1 = spec.spike_momentum(1)
    defects = []
    for factor, count in [(10.0, 2001), (20.0, 4001), (40.0, 8001)]:
        grid = MomentumGrid(p_max=factor * k1, count=count)
        norm = spectrum(spec, 1, grid).norm_trapezoid()
        defects.append(abs(1.0 - norm))
    assert defects[0] > defects[1] > defects[2]
    assert defects[-1] < 1e-3


def test_spectrum_peaks_flank_the_spikes(spec):
    # The density maxima sit a little inside the spike momenta: the
    # two-sided envelope grows toward the spike but the lobe pattern cuts
    # it off within one lobe spacing (pi hbar / half_width).
    result = spectrum(spec, 3)
    k3 = spec.spike_momentum(3)
    p, half = result.grid.points, result.grid.count // 2
    lo = p[np.argmax(result.density[:half])]
    hi = p[half + np.argmax(result.density[half:])]
    assert lo == -hi
    lobe = np.pi * spec.hbar / spec.half_width
    assert k3 - lobe < hi <= k3 + (p[1] - p[0])


def test_uncertainty_frozen_values(spec):
    width, momentum, product = uncertainty_product(spec, 1)
    assert width == pytest.approx(0.361512055191, abs=1e-12)
    assert momentum == pytest.approx(np.pi / 2.0, rel=1e-15)
    assert product == pytest.approx(0.567861808387, abs=1e-12)


def test_uncertainty_momentum_spread_is_spike_momentum(spec):
    for n in (1, 2, 9):
        assert uncertainty_product(spec, n).momentum_width == spec.spike_momentum(n)


@pytest.mark.parametrize("n", [1, 2, 2207])
@pytest.mark.parametrize("a", [1.0, 1.725367])
def test_uncertainty_width_squares_by_product(n, a):
    """a^2 (1/3 - 2/(n pi)^2) with both squares as correctly rounded
    products: a**2 (C pow) is one ulp off a * a at a = 1.725367, which moves
    the width, and (n pi)**2 first differs from (n pi) * (n pi) at n = 2207."""
    n_pi = n * np.pi
    expected = float(np.sqrt(a * a * (1.0 / 3.0 - 2.0 / (n_pi * n_pi))))
    assert uncertainty_product(WellSpec(half_width=a), n).position_width == expected


@given(n=st.integers(min_value=1, max_value=50))
@settings(max_examples=30, deadline=None)
def test_uncertainty_exceeds_lower_bound(n):
    spec = WellSpec()
    result = uncertainty_product(spec, n)
    assert result.product > 0.5 * spec.hbar
    assert result.position_width < spec.half_width


@pytest.mark.parametrize(
    "kwargs",
    [
        {"p_max": 0.0, "count": 101},
        {"p_max": -3.0, "count": 101},
        {"p_max": 1.0, "count": 100},
        {"p_max": 1.0, "count": 1},
        # Past SAMPLE_BUDGET: a ResolutionError, one of the ValueErrors.
        {"p_max": 1.0, "count": 2**24 + 1},
    ],
)
def test_invalid_grid_rejected(kwargs):
    with pytest.raises(ValueError):
        MomentumGrid(**kwargs)


def test_transform_scalar_returns_complex(spec):
    value = amplitude_transform(spec, 2, 1.5)
    assert isinstance(value, complex)


def test_custom_units_peak_density():
    custom = WellSpec(half_width=2.5, mass=0.7, hbar=1.3)
    p1 = custom.spike_momentum(1)
    expected = custom.half_width / (2.0 * np.pi * custom.hbar)
    assert analytic_density(custom, 1, p1) == pytest.approx(expected, rel=1e-12)
    quad = abs(amplitude_transform(custom, 1, 0.3 * p1)) ** 2
    closed = analytic_density(custom, 1, 0.3 * p1)
    assert quad == pytest.approx(closed, abs=1e-13)


def one_shot_transform(spec, f, p, f_radians):
    """The box transform with the whole p x order kernel built at once."""
    a = spec.half_width
    p_arr = np.asarray(p, dtype=float)
    radians = a * float(np.max(np.abs(p_arr), initial=0.0)) / spec.hbar + f_radians
    x, w = QuadratureSettings(bandwidth_order(radians)).nodes(-a, a)
    kernel = -1j * np.outer(p_arr.ravel(), x) / spec.hbar
    np.exp(kernel, out=kernel)
    return kernel @ (w * f(x)) / np.sqrt(2.0 * np.pi * spec.hbar)


# The direct product's 0 and 1 rows; the edges of a 15-row product step and
# a 120-row block at 256 nodes; KERNEL_ROWS' edges; and the benchmark's 20001.
BLOCK_COUNTS = [0, 1, 2, 14, 15, 16, 119, 120, 121, KERNEL_ROWS - 1, KERNEL_ROWS, KERNEL_ROWS + 1]
BLOCK_COUNTS += [241, 2 * KERNEL_ROWS + 1, 20001]

# Each count in natural units and in custom units, whose hbar != 1 exercises
# the kernel's 1 / hbar phase scaling; and a wide, heavy box, whose rules
# have 384 and 393 nodes and so 10-row product steps.
BLOCK_CASES = [pytest.param(WellSpec(), c, id=str(c)) for c in BLOCK_COUNTS] + [
    pytest.param(WellSpec(half_width=2.5, mass=0.7, hbar=1.3), c, id=f"custom-{c}")
    for c in BLOCK_COUNTS
]
BLOCK_CASES.append(pytest.param(WellSpec(half_width=7.5, mass=140.0), 4001, id="wide-4001"))


@pytest.mark.parametrize("spec, count", BLOCK_CASES)
def test_blocked_transform_is_bitwise_one_shot(spec, count):
    psi = Eigenfunction(spec, 3)
    radians = psi.wavenumber * spec.half_width
    p = np.linspace(-90.0, 90.0, count)
    expected = one_shot_transform(spec, psi, p, radians)
    assert np.array_equal(amplitude_transform(spec, 3, p), expected)
    scalar = complex(one_shot_transform(spec, psi, 1.5, radians)[0])
    assert amplitude_transform(spec, 3, 1.5) == scalar


@pytest.mark.parametrize("spec, count", BLOCK_CASES)
def test_blocked_farfield_is_bitwise_one_shot(spec, count):
    t, psi = 20.0, Eigenfunction(spec, 2)
    a, m, hbar = spec.half_width, spec.mass, spec.hbar

    def chirped(x):
        return psi(x) * np.exp(1j * m * x**2 / (2.0 * hbar * t))

    p = np.linspace(-40.0, 40.0, count)
    radians = a * (m * a / t) / hbar + psi.wavenumber * a
    expected = np.abs(one_shot_transform(spec, chirped, p, radians)) ** 2
    assert np.array_equal(farfield_map(spec, 2, t, p), expected)
    scalar = np.abs(one_shot_transform(spec, chirped, 1.5, radians)[0]) ** 2
    assert farfield_map(spec, 2, t, 1.5) == scalar


# Grids for the kernel(-p) == conj(kernel(p)) sharing: every |p| asked with
# both signs; every |p| with one; signed zeros and repeats, all of a
# magnitude's rows served by one built row; 130 |p| asked with both signs,
# the two rows 330 apart and more than a 120-row block of magnitudes; a
# whole grid on the odd, 257-node rule, whose middle node is 0; repeats on
# one sign only; every row negative, so every block serves only negative
# rows; and -0.0 without +0.0.
_HALVES = 0.5 * np.arange(1.0, 131.0)
MIRROR_GRIDS = {
    "fully-paired": 0.75 * np.arange(-120.0, 121.0),
    "no-pairs": 0.37 + 0.75 * np.arange(-120.0, 121.0),
    "signed-zeros-and-repeats": np.array(
        [0.0, -0.0, 1.5, -1.5, 1.5, -1.5, -1.5, 2.0, 2.0, -0.0, 0.0, 7.25, -3.0]
    ),
    "partners-blocks-apart": np.concatenate([_HALVES, 0.3 + 0.41 * np.arange(200.0), -_HALVES]),
    "zero-node-257": 0.5 * np.arange(-863.0, 864.0),
    "one-sided-repeats": np.array([-2.0, -2.0, -2.0, 2.0, 0.5, 0.5, -0.5]),
    "all-negative": -0.3 - 0.45 * np.arange(200.0),
    "negative-zero-alone": np.array([-0.0, 1.25, -2.5, 3.0, -0.0, -1.25]),
}
MIRROR_SPECS = {"natural": WellSpec(), "custom": WellSpec(half_width=2.5, mass=0.7, hbar=1.3)}
MIRROR_CASES = [
    pytest.param(spec, p, id=f"{units}-{name}")
    for units, spec in MIRROR_SPECS.items()
    for name, p in MIRROR_GRIDS.items()
]


@pytest.mark.parametrize("spec, p", MIRROR_CASES)
def test_mirrored_rows_are_bitwise_one_shot(spec, p):
    """One cos/sin row per distinct |p| changes no bit of the transform or the
    far field, for a 1-D grid and for a 2-D array of it and its reverse."""
    psi = Eigenfunction(spec, 3)
    radians = psi.wavenumber * spec.half_width
    expected = one_shot_transform(spec, psi, p, radians)
    assert amplitude_transform(spec, 3, p).tobytes() == expected.tobytes()
    square = np.stack([p, p[::-1]])
    expected = one_shot_transform(spec, psi, square, radians)
    assert amplitude_transform(spec, 3, square).tobytes() == expected.tobytes()
    t, a = 20.0, spec.half_width

    def chirped(x):
        return psi(x) * np.exp(1j * spec.mass * x**2 / (2.0 * spec.hbar * t))

    radians += a * (spec.mass * a / t) / spec.hbar
    expected = np.abs(one_shot_transform(spec, chirped, p, radians)) ** 2
    assert farfield_map(spec, 3, t, p).tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "name, built", [("signed-zeros-and-repeats", 5), ("one-sided-repeats", 2)]
)
def test_transform_builds_one_row_per_distinct_magnitude(spec, monkeypatch, name, built):
    """Only +|p| rows are built, one per distinct |p|: each sign and repeat of
    a magnitude takes its product from that row."""
    asked = spy_on_plane_waves(monkeypatch)
    p = MIRROR_GRIDS[name]
    amplitude_transform(spec, 3, p)
    asked = np.concatenate(asked)
    assert not np.signbit(asked).any()
    assert np.array_equal(np.unique(asked), np.unique(np.abs(p)))
    assert np.unique(asked).size == built


def test_zero_node_grid_takes_the_odd_rule():
    spec = WellSpec()
    a = spec.half_width
    radians = 431.5 * a / spec.hbar + Eigenfunction(spec, 3).wavenumber * a
    assert bandwidth_order(radians) == 257
    assert np.abs(MIRROR_GRIDS["zero-node-257"]).max() == 431.5


def test_farfield_builds_one_kernel_row_per_distinct_magnitude(spec, monkeypatch):
    """np.linspace's 2,001-point probe grid has 1,433 distinct |p| among its
    rows; only those are built, padded to whole 15-row product steps."""
    asked = spy_on_plane_waves(monkeypatch)
    p = np.linspace(-3.0 * np.pi, 3.0 * np.pi, 2001)
    farfield_map(spec, 1, 50.0, p)
    asked = np.concatenate(asked)
    assert np.unique(asked).size == np.unique(np.abs(p)).size == 1433
    assert asked.size == 1440


def test_farfield_leaf_builds_half_its_probe_rows(tmp_path, monkeypatch):
    """The leaf's 2,001 probes are a MomentumGrid: 1,001 kernel rows, padded
    to whole 15-row product steps, serve them all."""
    asked = spy_on_plane_waves(monkeypatch)
    assert run(["release", "farfield", "--n", "2", "--t", "50", "--out", str(tmp_path)]) == 0
    asked = np.concatenate(asked)
    assert np.unique(asked).size == 1001
    assert asked.size == 1005


@pytest.mark.parametrize("hbar", [1.0, 1.3, 1.0545718e-34])
@pytest.mark.parametrize("order", [2, 3, 256, 257, 259, 374, 2048])
def test_plane_waves_are_bitwise_one_shot_exp(order, hbar):
    """The mirrored cos/sin kernel equals the one-shot complex exp byte for
    byte, signed zeros included. The equality rests on numpy's cos, sin and
    complex exp agreeing, so this is the guard for a platform that rounds
    them differently."""
    a = 2.5
    x, _ = QuadratureSettings(order).nodes(-a, a)
    p_top = order * hbar / a
    spread = np.random.default_rng(order).uniform(-p_top, p_top, 64)
    rows = np.concatenate([[0.0, -0.0], np.linspace(-p_top, p_top, 65), spread])
    expected = np.exp(-1j * np.outer(rows, x) / hbar)
    kernel = np.empty((rows.size, x.size), dtype=complex)
    assert _plane_waves(rows, x, hbar, kernel).tobytes() == expected.tobytes()


@pytest.mark.parametrize("p", [np.inf, -np.inf, np.nan, np.array([0.0, np.nan, 1.0])])
def test_transform_rejects_non_finite_momenta(spec, p):
    with pytest.raises(ValueError, match="momentum p must be finite"):
        amplitude_transform(spec, 1, p)


def test_farfield_rejects_non_finite_momenta(spec):
    with pytest.raises(ValueError, match="momentum p must be finite"):
        farfield_map(spec, 1, 50.0, np.nan)


def test_transform_memory_does_not_grow_with_probe_count(spec):
    """20001 probes against 256 nodes make an 82 MB kernel; built in row
    blocks, the peak stays near one block's few MiB."""
    p = np.linspace(-300.0, 300.0, 20001)
    tracemalloc.start()
    try:
        amplitude_transform(spec, 3, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20


# A fresh interpreter times the `farfield` workload's three transforms, a
# 20001-probe one and a level-20 one, whose 374-node rule is built rather than
# shipped, and reports the CPU time it burned from just before them to the
# end of a 0.3 s sleep after them, beside their wall time.
IDLE_POOL_PROBE = """
import resource, time
import numpy as np
from boxmode import WellSpec, amplitude_transform, default_grid, farfield_map

def cpu():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime

spec = WellSpec()
probes = np.linspace(-6.0, 6.0, 2001) * spec.spike_momentum(1)
momenta = np.linspace(-1.0, 1.0, 20001) * default_grid(spec, 1).p_max
time.sleep(0.3)
before, start = cpu(), time.perf_counter()
for t in (50.0, 100.0, 200.0):
    farfield_map(spec, 1, t, probes)
amplitude_transform(spec, 1, momenta)
amplitude_transform(spec, 20, default_grid(spec, 20).points)
wall = time.perf_counter() - start
time.sleep(0.3)
print(cpu() - before, wall)
"""


def test_transforms_leave_no_spinning_thread():
    """A box transform, its Gauss-Legendre rule included, runs on the calling
    thread alone: no BLAS pool thread is left spinning after it, which would
    burn about twice the wall time in CPU. A single busy thread cannot use
    more CPU than wall time, so load elsewhere on the machine cannot make
    this fail."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    command = [sys.executable, "-c", IDLE_POOL_PROBE]
    result = subprocess.run(command, env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    cpu, wall = map(float, result.stdout.split())
    assert cpu < 1.25 * wall + 0.05, f"{cpu:.3f} s CPU for {wall:.3f} s of transforms"
