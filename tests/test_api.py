"""The package's public surface is exactly ``boxmode.__all__``."""

import boxmode
from boxmode import GaugeField, QuadratureSettings, landau, momentum_discrete, report, well

# Names deleted because no CLI leaf, CHECK or other module reached them.
DELETED = {
    landau: ("field_overlap", "radial_peak", "ring_radius", "vortex_lattice_constant",
             "vortex_state"),
    momentum_discrete: ("basis_state",),
    report: ("render_report",),
    well: ("normalization_defect",),
}


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
    assert not hasattr(GaugeField, "curl")
    assert not hasattr(QuadratureSettings, "integrate")
