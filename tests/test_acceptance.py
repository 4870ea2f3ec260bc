"""End-to-end acceptance battery.

Each test exercises one headline acceptance check at its advertised
tolerance and records a one-line verdict that the terminal summary echoes
after the run. One check — the strict decrease of the window-mass defect
with level — fails by design: the captured mass near the spikes *drops*
from n = 1 to n = 2 and keeps falling toward its large-n plateau, so the
defect rises. The test asserts the claimed behavior faithfully and stays
red rather than papering over it; the defect values themselves are pinned
by regression tests elsewhere.
"""

import time

import numpy as np
import pytest
from conftest import record_acceptance

from boxmode import (
    Eigenfunction,
    ExtensionPhase,
    LandauSpec,
    WellSpec,
    amplitude_transform,
    analytic_density,
    commutator_check,
    conductance_quantum,
    convergence_report,
    degeneracy,
    eigenstate_spectrum,
    expand,
    farfield_map,
    gaussian_test_state,
    hall_current,
    hamiltonian_residual,
    landau_gauge,
    landau_gauge_state,
    level_energy,
    matched_phase,
    spectrum,
    symmetric_gauge,
    symmetric_gauge_state,
    uncertainty_product,
)
from boxmode.cli import run as cli_run
from boxmode.landau import _axis, _centered_axis


def test_ground_state_density_matches_closed_form(spec):
    """Quadrature transform equals the closed-form density to 1e-8
    everywhere, including arbitrarily close to the removable points."""
    started = time.perf_counter()
    rng = np.random.default_rng(7)
    k1 = spec.wavenumber(1)
    probes = np.concatenate(
        [
            rng.uniform(-10.0 * np.pi, 10.0 * np.pi, 10_000),
            k1 + np.array([-1e-6, -1e-9, 0.0, 1e-9, 1e-6]),
            -k1 + np.array([-1e-6, 0.0, 1e-6]),
        ]
    )
    quad = np.abs(amplitude_transform(spec, 1, probes)) ** 2
    closed = analytic_density(spec, 1, probes)
    worst = float(np.abs(quad - closed).max())
    elapsed = time.perf_counter() - started
    passed = worst <= 1e-8 and elapsed < 5.0
    record_acceptance(
        "ground-state density equals closed form",
        passed,
        f"max deviation {worst:.3e} over {probes.size} momenta in {elapsed:.2f}s",
    )
    assert worst <= 1e-8
    assert elapsed < 5.0


def test_stationary_states_carry_two_half_spikes(spec):
    """On its matched ladder every stationary state is exactly two rungs of
    weight one half; numerical expansion reproduces that to 1e-12."""
    worst_weight = 0.0
    worst_leak = 0.0
    for n in range(1, 11):
        exact = eigenstate_spectrum(spec, n)
        assert exact.total_weight() == 1.0
        numeric = expand(spec, Eigenfunction(spec, n), matched_phase(n), k_max=24)
        spike = np.isin(numeric.indices, exact.indices)
        worst_weight = max(worst_weight, float(np.abs(numeric.weights[spike] - 0.5).max()))
        worst_leak = max(worst_leak, float(numeric.weights[~spike].max()))
    passed = worst_weight <= 1e-12 and worst_leak <= 1e-12
    record_acceptance(
        "stationary states are two half-weight spikes",
        passed,
        f"weight error {worst_weight:.3e}, off-spike leak {worst_leak:.3e}, n <= 10",
    )
    assert worst_weight <= 1e-12
    assert worst_leak <= 1e-12


def test_both_spectra_normalize(spec):
    """Continuous density integrates to 1 (trapezoid on the default grid,
    never above it); discrete matched weights sum to 1 to 1e-8."""
    low = 1.0
    high = 0.0
    worst_defect = 0.0
    for n in range(1, 11):
        integral = spectrum(spec, n).norm_trapezoid()
        low, high = min(low, integral), max(high, integral)
        numeric = expand(spec, Eigenfunction(spec, n), matched_phase(n), k_max=24)
        worst_defect = max(worst_defect, abs(numeric.completeness_defect()))
    passed = low >= 0.999 and high <= 1.0 + 1e-9 and worst_defect <= 1e-8
    record_acceptance(
        "both momentum spectra normalize",
        passed,
        f"trapezoid in [{low:.9f}, {high:.9f}], ladder defect {worst_defect:.3e}",
    )
    assert low >= 0.999
    assert high <= 1.0 + 1e-9
    assert worst_defect <= 1e-8


def test_uncertainty_product(spec):
    """The ground-state width product takes its closed-form value and every
    level clears the lower bound hbar/2."""
    ground = uncertainty_product(spec, 1)
    frozen = 0.567861808387
    deviation = abs(ground.product - frozen)
    floor_margin = min(
        uncertainty_product(spec, n).product - 0.5 * spec.hbar for n in range(1, 51)
    )
    passed = deviation <= 1e-10 and floor_margin > 0.0
    record_acceptance(
        "uncertainty product at its exact value",
        passed,
        f"ground product {ground.product:.12f}, min margin {floor_margin:.4f} (n <= 50)",
    )
    assert deviation <= 1e-10
    assert floor_margin > 0.0


def test_window_mass_defect_decreases_with_level(spec):
    """Claimed behavior: the window-mass defect 1 - (captured mass) should
    fall strictly as the level doubles. It does not — the two-lobe windows
    capture the most mass at n = 1 and the defect *grows* toward a plateau
    near 0.226 — so this test records an honest FAIL."""
    levels = [1, 2, 4, 8, 16, 32]
    defects = [convergence_report(spec, n).defect for n in levels]
    decreasing = all(b < a for a, b in zip(defects, defects[1:]))
    detail = ", ".join(f"n={n}: {d:.4f}" for n, d in zip(levels, defects))
    record_acceptance("window-mass defect decreases with level", decreasing, detail)
    assert decreasing, (
        "defect rises with level instead of falling: " + detail
    )


def test_farfield_converges_to_momentum_density(spec):
    """Rescaled late-time densities approach the closed-form momentum
    density, with the sup deviation falling as flight time doubles and
    ending below 1e-4."""
    started = time.perf_counter()
    probes = np.linspace(-3.0 * np.pi, 3.0 * np.pi, 2001)
    target = analytic_density(spec, 1, probes)
    sups = []
    for t in (50.0, 100.0, 200.0):
        density = farfield_map(spec, 1, t, probes)
        sups.append(float(np.abs(density - target).max()))
    elapsed = time.perf_counter() - started
    ladder_ok = sups[0] > sups[1] > sups[2]
    passed = ladder_ok and sups[-1] <= 1e-4 and elapsed < 10.0
    record_acceptance(
        "far-field density converges to momentum density",
        passed,
        f"sup deviations {sups[0]:.3e} > {sups[1]:.3e} > {sups[2]:.3e} in {elapsed:.1f}s",
    )
    assert ladder_ok
    assert sups[-1] <= 1e-4
    assert elapsed < 10.0


def test_grid_eigenstates_hit_level_energies(landau):
    """Sampled eigenstates in both gauges satisfy the eigenproblem to 1e-3
    of the level spacing, and the defect drops at least fourfold when the
    grid step halves."""

    def ridge_grid(p_x, scale=1.0):
        length = landau.magnetic_length
        step = length / (8.0 * scale)
        y_guide = -landau.light_speed * p_x / (landau.charge * landau.B)
        return (
            _axis(0.0, 4.0 * length, step),
            y_guide + _centered_axis(8.0 * length, step),
        )

    worst = 0.0
    gauge = landau_gauge(landau.B)
    for n in (0, 1):
        for k in (0.0, 0.5, 1.0):
            p_x = k * landau.hbar / landau.magnetic_length
            state = landau_gauge_state(landau, n, p_x, grid=ridge_grid(p_x))
            residual = hamiltonian_residual(landau, gauge, state, level_energy(landau, n))
            worst = max(worst, residual)
    sym = symmetric_gauge(landau.B)
    for angular in range(4):
        state = symmetric_gauge_state(landau, 0, angular)
        residual = hamiltonian_residual(landau, sym, state, level_energy(landau, 0))
        worst = max(worst, residual)

    p_probe = 0.5 * landau.hbar / landau.magnetic_length
    coarse = hamiltonian_residual(
        landau, gauge, landau_gauge_state(landau, 0, p_probe, grid=ridge_grid(p_probe)),
        level_energy(landau, 0),
    )
    fine = hamiltonian_residual(
        landau, gauge,
        landau_gauge_state(landau, 0, p_probe, grid=ridge_grid(p_probe, scale=2.0)),
        level_energy(landau, 0),
    )
    ratio = coarse / fine
    passed = worst <= 1e-3 and ratio >= 4.0
    record_acceptance(
        "grid eigenstates hit the level energies",
        passed,
        f"worst residual {worst:.3e} (10 states, 2 gauges), refinement x{ratio:.1f}",
    )
    assert worst <= 1e-3
    assert ratio >= 4.0


def test_kinetic_momentum_commutator_closes(landau):
    """The kinetic momenta fail to commute by exactly the field constant in
    both gauges, and commute when the field is off."""
    probe = gaussian_test_state(landau)
    in_landau = commutator_check(landau, landau_gauge(landau.B), probe)
    in_symmetric = commutator_check(landau, symmetric_gauge(landau.B), probe)
    field_off = commutator_check(landau, landau_gauge(0.0), probe)
    passed = max(in_landau, in_symmetric) <= 1e-3 and field_off <= 1e-10
    record_acceptance(
        "kinetic-momentum commutator closes",
        passed,
        f"landau {in_landau:.3e}, symmetric {in_symmetric:.3e}, field off {field_off:.3e}",
    )
    assert in_landau <= 1e-3
    assert in_symmetric <= 1e-3
    assert field_off <= 1e-10


def test_degeneracy_counted_three_ways_agrees():
    """Flux ratio, guiding-line enumeration, and ring packing give per-level
    counts that agree within one state across field and geometry."""
    cases = [
        (1.0, 10.0, 10.0),
        (0.5, 5.0, 5.0),
        (2.0, 15.0, 20.0),
        (1.3, 25.0, 24.7),
        (0.08, 10.0, 10.0),
    ]
    spreads = []
    for B, Lx, Ly in cases:
        report = degeneracy(LandauSpec.natural(B=B, Lx=Lx, Ly=Ly))
        assert report.flux_count == int(report.ratio)
        spreads.append(report.spread)
    passed = max(spreads) <= 1
    detail = ", ".join(
        f"B={B} {Lx}x{Ly}: spread {s}" for (B, Lx, Ly), s in zip(cases, spreads)
    )
    record_acceptance("degeneracy counts agree within one", passed, detail)
    assert max(spreads) <= 1


def test_hall_conductance_is_one_quantum_per_level():
    """The per-level Hall conductance equals charge^2 / (2 pi hbar) to
    1e-12, independent of field, geometry, and voltage."""
    cases = [
        LandauSpec.natural(),
        LandauSpec.natural(B=0.3, Lx=7.0, Ly=4.0),
        LandauSpec.natural(B=4.0, Lx=12.0, Ly=33.0),
        LandauSpec(B=0.7, charge=2.0, mass=3.0, light_speed=137.0, hbar=0.5),
        LandauSpec(B=2.2, charge=-0.4, Lx=18.0, Ly=3.0),
    ]
    worst = 0.0
    for case, voltage in zip(cases, (1.0, 0.25, -2.0, 5.0, 0.1)):
        report = hall_current(case, voltage)
        worst = max(worst, abs(report.conductance / conductance_quantum(case) - 1.0))
    passed = worst <= 1e-12
    record_acceptance(
        "Hall conductance is one quantum per level",
        passed,
        f"worst quantization defect {worst:.3e} over {len(cases)} setups",
    )
    assert worst <= 1e-12


def test_cli_reruns_are_byte_identical(tmp_path):
    """Identical invocations write byte-identical CSV files and exit 0."""
    mismatches = []
    for name, argv in (
        ("well_energies.csv", ("well", "energies", "--n-max", "6")),
        ("momentum_compare.csv", ("momentum", "compare", "--n", "1")),
        ("momentum_compare_spikes.csv", ("momentum", "compare", "--n", "1")),
    ):
        first_dir = tmp_path / f"a_{name}"
        second_dir = tmp_path / f"b_{name}"
        assert cli_run([*argv, "--out", str(first_dir)]) == 0
        assert cli_run([*argv, "--out", str(second_dir)]) == 0
        if (first_dir / name).read_bytes() != (second_dir / name).read_bytes():
            mismatches.append(name)
    passed = not mismatches
    record_acceptance(
        "CLI reruns are byte-identical",
        passed,
        "all tables identical" if passed else f"mismatch in {mismatches}",
    )
    assert not mismatches
