"""Gallery of charged-particle states in a uniform magnetic field.

Eigenstates built two ways (a plane-wave ridge in one gauge, concentric
rings in the other), verified against the discretized Hamiltonian; the
level degeneracy counted three independent ways; and the per-level Hall
response, which lands on the same conductance quantum no matter how the
field or the sample geometry is chosen.

    python3 demos/landau_gallery.py
"""

import numpy as np

from boxmode import (
    LandauSpec,
    commutator_check,
    degeneracy,
    field_overlap,
    gaussian_test_state,
    hall_current,
    landau_gauge,
    radial_peak,
    ring_radius,
    symmetric_gauge,
    symmetric_gauge_state,
    vortex_lattice_constant,
    vortex_state,
)
from boxmode.landau import _centered_axis, ridge_residual, ring_residual


def main():
    spec = LandauSpec()
    print("electron on a 10 x 10 patch, B = 1, natural units")
    print(f"magnetic length {spec.magnetic_length}, level spacing "
          f"{spec.hbar * spec.cyclotron_frequency}")

    print("\neigenvalue residuals against the discretized Hamiltonian:")
    for n in (0, 1):
        r = ridge_residual(spec, n, spec.probe_momentum)
        print(f"  ridge state, level {n}:      {r:.2e}")
    for angular in range(3):
        r = ring_residual(spec, 0, angular)
        print(f"  ring state, angular {angular}:     {r:.2e}")

    print("\nring radii versus the sqrt(2 L) law:")
    for angular in (1, 2, 4):
        measured = radial_peak(symmetric_gauge_state(spec, 0, angular))
        predicted = ring_radius(spec, angular)
        print(f"  L={angular}: measured {measured:.4f}, predicted {predicted:.4f}")

    print("\nvortex-state overlaps fall off as exp(-(d/2l)^2):")
    length = spec.magnetic_length
    for d in (0.5 * length, vortex_lattice_constant(spec)):
        axis = _centered_axis(8.0 * length + d, length / 8.0)
        here = vortex_state(spec, 0j, grid=(axis, axis))
        there = vortex_state(spec, complex(d, 0.0), grid=(axis, axis))
        measured = abs(field_overlap(here, there))
        print(f"  d = {d:.4f}: overlap {measured:.6f} "
              f"(law: {np.exp(-((d / (2 * length)) ** 2)):.6f})")

    probe = gaussian_test_state(spec)
    print("\nkinetic-momentum commutator defects (relative):")
    print(f"  landau gauge:    {commutator_check(spec, landau_gauge(spec.B), probe):.2e}")
    print(f"  symmetric gauge: {commutator_check(spec, symmetric_gauge(spec.B), probe):.2e}")

    report = degeneracy(spec)
    print("\nstates per level, counted three ways:")
    print(f"  flux ratio {report.ratio:.4f} -> floor {report.flux_count}")
    print(f"  guiding-line enumeration: {report.guiding_center_count}")
    print(f"  ring packing:             {report.ring_count}")

    hall = hall_current(spec, voltage=1.0)
    print("\nHall response at V = 1:")
    print(f"  per-electron current {hall.per_electron_current:+.4f}")
    print(f"  per-level current    {hall.per_level_current:+.6f}")
    print(f"  conductance          {hall.conductance:.6f} "
          f"({hall.conductance_in_quanta:.3f} quanta)")


if __name__ == "__main__":
    main()
