"""Momentum-space structure of a particle in a hard-wall box, sudden release
into free flight, and Landau levels of a charged particle on a rectangle.

The package is organized around plain dataclasses describing the physical
setup (`WellSpec`, `LandauSpec`) and free functions that compute spectra,
evolutions, and consistency checks from them.
"""

from .quadrature import QuadratureSettings, ResolutionError
from .well import Eigenfunction, WellSpec, normalization_defect, state_overlap
from .momentum_continuous import (
    ContinuousMomentumSpectrum,
    MomentumGrid,
    amplitude_transform,
    analytic_density,
    default_grid,
    spectrum,
    uncertainty_product,
)
from .momentum_discrete import (
    DiscreteMomentumSpectrum,
    ExtensionPhase,
    allowed_momenta,
    basis_state,
    convergence_report,
    eigenstate_spectrum,
    expand,
    matched_phase,
)
from .release import (
    AliasingError,
    EvolutionSnapshot,
    evolve_free,
    farfield_map,
    grid_kinetic_energy,
    suggested_box,
)
from .landau import (
    GaugeField,
    GridField2D,
    LandauSpec,
    apply_hamiltonian,
    commutator_check,
    conductance_quantum,
    degeneracy,
    field_overlap,
    gaussian_test_state,
    hall_current,
    hamiltonian_residual,
    landau_gauge,
    landau_gauge_state,
    level_energy,
    radial_peak,
    ring_count,
    ring_radius,
    symmetric_gauge,
    symmetric_gauge_state,
    vortex_lattice_constant,
    vortex_state,
)
from .report import CheckResult, render_report, write_csv

__version__ = "0.1.0"

__all__ = [
    "AliasingError",
    "CheckResult",
    "ContinuousMomentumSpectrum",
    "DiscreteMomentumSpectrum",
    "Eigenfunction",
    "EvolutionSnapshot",
    "ExtensionPhase",
    "GaugeField",
    "GridField2D",
    "LandauSpec",
    "MomentumGrid",
    "QuadratureSettings",
    "ResolutionError",
    "WellSpec",
    "allowed_momenta",
    "amplitude_transform",
    "analytic_density",
    "apply_hamiltonian",
    "basis_state",
    "commutator_check",
    "conductance_quantum",
    "convergence_report",
    "default_grid",
    "degeneracy",
    "eigenstate_spectrum",
    "evolve_free",
    "expand",
    "farfield_map",
    "field_overlap",
    "gaussian_test_state",
    "grid_kinetic_energy",
    "hall_current",
    "hamiltonian_residual",
    "landau_gauge",
    "landau_gauge_state",
    "level_energy",
    "matched_phase",
    "normalization_defect",
    "radial_peak",
    "render_report",
    "ring_count",
    "ring_radius",
    "spectrum",
    "state_overlap",
    "suggested_box",
    "symmetric_gauge",
    "symmetric_gauge_state",
    "uncertainty_product",
    "vortex_lattice_constant",
    "vortex_state",
    "write_csv",
]
