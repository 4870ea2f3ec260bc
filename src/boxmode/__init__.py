"""Momentum-space structure of a particle in a hard-wall box, sudden release
into free flight, and Landau levels of a charged particle on a rectangle.

The package is organized around plain dataclasses describing the physical
setup (`WellSpec`, `LandauSpec`) and free functions that compute spectra,
evolutions, and consistency checks from them.
"""

from .quadrature import QuadratureSettings, ResolutionError
from .well import Eigenfunction, WellSpec, state_overlap
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
    gaussian_test_state,
    hall_current,
    hamiltonian_residual,
    landau_gauge,
    landau_gauge_state,
    level_energy,
    ring_count,
    symmetric_gauge,
    symmetric_gauge_state,
)
from .report import CheckResult, write_csv

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
    "commutator_check",
    "conductance_quantum",
    "convergence_report",
    "default_grid",
    "degeneracy",
    "eigenstate_spectrum",
    "evolve_free",
    "expand",
    "farfield_map",
    "gaussian_test_state",
    "grid_kinetic_energy",
    "hall_current",
    "hamiltonian_residual",
    "landau_gauge",
    "landau_gauge_state",
    "level_energy",
    "matched_phase",
    "ring_count",
    "spectrum",
    "state_overlap",
    "suggested_box",
    "symmetric_gauge",
    "symmetric_gauge_state",
    "uncertainty_product",
    "write_csv",
]
