"""Gallery of charged-particle states in a uniform magnetic field.

Eigenstates built two ways (a plane-wave ridge in one gauge, concentric
rings in the other), verified against the discretized Hamiltonian; the
level degeneracy counted three independent ways; and the per-level Hall
response, which lands on the same conductance quantum no matter how the
field or the sample geometry is chosen.

    python3 demos/landau_gallery.py
"""

from boxmode import (
    LandauSpec,
    commutator_check,
    degeneracy,
    gaussian_test_state,
    hall_current,
    landau_gauge,
    symmetric_gauge,
)
from boxmode.landau import ridge_residual, ring_residual


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
