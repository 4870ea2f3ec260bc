"""The package's public surface is exactly ``boxmode.__all__``."""

import dataclasses
import inspect

import boxmode
from boxmode import (
    Eigenfunction,
    EvolutionSnapshot,
    GaugeField,
    QuadratureSettings,
    landau,
    momentum_discrete,
    report,
    well,
)

# Names deleted because no CLI leaf, CHECK or other module reached them.
DELETED = {
    landau: ("field_overlap", "radial_peak", "ring_radius", "vortex_lattice_constant",
             "vortex_state"),
    momentum_discrete: ("basis_state", "_k_indices"),
    report: ("render_report", "CSV_CHUNK_ROWS"),
    well: ("normalization_defect",),
}

# (class, member) pairs deleted for the same reason.
DELETED_MEMBERS = (
    (GaugeField, "curl"),
    (QuadratureSettings, "integrate"),
    (Eigenfunction, "energy"),
    (EvolutionSnapshot, "box_length"),
)


def test_public_names_are_all_and_only_all():
    names = boxmode.__all__
    assert len(set(names)) == len(names)
    for name in names:
        getattr(boxmode, name)
    star = {}
    exec("from boxmode import *", star)
    assert set(star) - {"__builtins__"} == set(names)
    for module, deleted in DELETED.items():
        for name in deleted:
            assert not hasattr(boxmode, name) and not hasattr(module, name), name
    for cls, member in DELETED_MEMBERS:
        assert not hasattr(cls, member), f"{cls.__name__}.{member}"


def test_each_input_has_one_shape():
    # The ladder takes one bound k_max, the test state its one grid, and a
    # convergence report no constant spike weight.
    assert list(inspect.signature(boxmode.allowed_momenta).parameters) == [
        "spec", "phase", "k_max"
    ]
    assert list(inspect.signature(boxmode.gaussian_test_state).parameters) == ["spec"]
    fields = {f.name for f in dataclasses.fields(momentum_discrete.ConvergenceReport)}
    assert "spike_weight" not in fields
