"""Tour of the stationary box states: energies, shapes, orthonormality.

Run from the repository root:

    python3 demos/well_tour.py

Writes ``well_levels.csv`` next to this script and prints a short report.
"""

from pathlib import Path

import numpy as np

from boxmode import Eigenfunction, WellSpec, state_overlap, write_csv


def main():
    spec = WellSpec()
    print(f"hard-wall box on (-{spec.half_width}, {spec.half_width}), natural units")
    print()

    print("level   energy        ratio to ground")
    rows = []
    for n in range(1, 9):
        energy = spec.energy(n)
        rows.append((n, energy))
        print(f"{n:>5}   {energy:<12.8f}  {energy / spec.energy(1):.4f}")
    out = write_csv(Path(__file__).with_name("well_levels.csv"), ("n", "energy"), rows)
    print(f"\nwrote {out}")

    print("\nnormalization defects (256-node quadrature):")
    for n in (1, 2, 5, 8):
        print(f"  n={n}: {abs(state_overlap(spec, n, n) - 1.0):.2e}")

    print("\nlargest cross overlap among the first six states:", end=" ")
    worst = max(
        abs(state_overlap(spec, m, n)) for m in range(1, 7) for n in range(1, 7) if m != n
    )
    print(f"{worst:.2e}")

    psi = Eigenfunction(spec, 3)
    x = np.linspace(-1.2, 1.2, 7)
    print("\nthird state sampled through the walls (exactly zero outside):")
    for xi, vi in zip(x, psi(x)):
        print(f"  psi({xi:+.2f}) = {vi:+.6f}")


if __name__ == "__main__":
    main()
