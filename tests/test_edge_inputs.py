"""One table over every integer-index and positive-finite input rule.

Each entry names a public call and the parameter its message must name.
Index rules reject a bool, a float-valued integer, a value half way between
integers, a value below their minimum, nan and ±inf; positive rules reject
0, a negative value, nan and ±inf; finite rules reject nan and ±inf. Every bad value must raise a ``ValueError`` naming the
parameter, never a numpy ``TypeError``, a truncated grid, a nan table or a
warning.
"""

import re
import sys
from argparse import Namespace

import numpy as np
import pytest

from boxmode import (
    Eigenfunction,
    ExtensionPhase,
    LandauSpec,
    MomentumGrid,
    QuadratureSettings,
    ResolutionError,
    WellSpec,
    allowed_momenta,
    amplitude_transform,
    analytic_density,
    convergence_report,
    default_grid,
    eigenstate_spectrum,
    evolve_free,
    expand,
    farfield_map,
    hall_current,
    level_energy,
    landau_gauge_state,
    matched_phase,
    spectrum,
    state_overlap,
    suggested_box,
    symmetric_gauge_state,
    uncertainty_product,
)
from boxmode.cli import (
    RunConfig,
    cmd_momentum_discrete,
    cmd_release_farfield,
    cmd_well_energies,
)
from boxmode.landau import ridge_residual, ring_residual

WELL = WellSpec()
LANDAU = LandauSpec()
PHASE = ExtensionPhase(np.pi)
RC = RunConfig()

# (label, call taking the bad value, parameter named, minimum, a valid value)
INDEX_RULES = [
    ("wavenumber", lambda v: WELL.wavenumber(v), "level index", 1, 2),
    ("Eigenfunction", lambda v: Eigenfunction(WELL, v), "level index", 1, 2),
    ("state_overlap", lambda v: state_overlap(WELL, 1, v), "level index", 1, 2),
    ("default_grid", lambda v: default_grid(WELL, v), "level index", 1, 2),
    ("amplitude_transform", lambda v: amplitude_transform(WELL, v, 0.0), "level index", 1, 2),
    ("analytic_density", lambda v: analytic_density(WELL, v, 0.0), "level index", 1, 2),
    ("spectrum", lambda v: spectrum(WELL, v), "level index", 1, 2),
    ("uncertainty_product", lambda v: uncertainty_product(WELL, v), "level index", 1, 2),
    ("matched_phase", matched_phase, "level index", 1, 2),
    ("eigenstate_spectrum", lambda v: eigenstate_spectrum(WELL, v), "level index", 1, 2),
    ("convergence_report", lambda v: convergence_report(WELL, v), "level index", 1, 2),
    ("suggested_box", lambda v: suggested_box(WELL, v, 1.0), "level index", 1, 2),
    ("evolve_free", lambda v: evolve_free(WELL, v, 0.0, box=(16.0, 2048)), "level index", 1, 2),
    ("farfield_map", lambda v: farfield_map(WELL, v, 50.0, 0.0), "level index", 1, 2),
    ("expand", lambda v: expand(WELL, Eigenfunction(WELL, 1), PHASE, v), "k_max", 0, 2),
    ("allowed_momenta", lambda v: allowed_momenta(WELL, PHASE, v), "k_max", 0, 3),
    ("QuadratureSettings", QuadratureSettings, "quadrature order", 2, 2),
    ("MomentumGrid count", lambda v: MomentumGrid(1.0, v), "count", 3, 5),
    ("box samples", lambda v: evolve_free(WELL, 1, 0.0, box=(32.0, v)), "sample count", 4, 4096),
    ("level_energy", lambda v: level_energy(LANDAU, v), "level", 0, 1),
    ("landau_gauge_state", lambda v: landau_gauge_state(LANDAU, v, 0.5), "level", 0, 1),
    ("symmetric_gauge_state", lambda v: symmetric_gauge_state(LANDAU, v, 0), "level", 0, 1),
    ("symmetric angular", lambda v: symmetric_gauge_state(LANDAU, 0, v), "angular", 0, 1),
    ("ridge_residual", lambda v: ridge_residual(LANDAU, v, 0.5), "level", 0, 1),
    ("ring_residual", lambda v: ring_residual(LANDAU, v, 0), "level", 0, 1),
    ("ring_residual angular", lambda v: ring_residual(LANDAU, 0, v), "angular", 0, 1),
    ("well energies", lambda v: cmd_well_energies(Namespace(n_max=v), WELL, RC), "--n-max", 1, 2),
    (
        "momentum discrete",
        lambda v: cmd_momentum_discrete(Namespace(n=1, k_max=v), WELL, RC),
        "--k-max",
        1,
        2,
    ),
]

POSITIVE_RULES = [
    *(
        (f"WellSpec {n}", lambda v, n=n: WellSpec(**{n: v}), n)
        for n in ("half_width", "mass", "hbar")
    ),
    *(
        (f"LandauSpec {n}", lambda v, n=n: LandauSpec(**{n: v}), n)
        for n in ("B", "mass", "light_speed", "hbar", "Lx", "Ly")
    ),
    ("MomentumGrid p_max", lambda v: MomentumGrid(v), "p_max"),
    (
        "convergence_report",
        lambda v: convergence_report(WELL, 1, window_half_width=v),
        "window_half_width",
    ),
    (
        "release farfield",
        lambda v: cmd_release_farfield(Namespace(n=1, t=50.0, probe_max=v), WELL, RC),
        "--probe-max",
    ),
    ("box length", lambda v: evolve_free(WELL, 1, 0.0, box=(v, 4096)), "box length"),
]

FINITE_RULES = [
    ("analytic_density p", lambda v: analytic_density(WELL, 1, v), "momentum p"),
    (
        "analytic_density p array",
        lambda v: analytic_density(WELL, 1, np.array([0.0, v])),
        "momentum p",
    ),
    ("landau_gauge_state p_x", lambda v: landau_gauge_state(LANDAU, 0, v), "p_x"),
    ("ridge_residual p_x", lambda v: ridge_residual(LANDAU, 0, v), "p_x"),
]


def _index_cases():
    for label, call, name, minimum, valid in INDEX_RULES:
        for bad in (True, float(valid), valid + 0.5, minimum - 1, np.nan, np.inf, -np.inf):
            yield pytest.param(call, name, bad, id=f"{label}-{bad!r}")


def _positive_cases():
    for label, call, name in POSITIVE_RULES:
        for bad in (0.0, -1.0, np.nan, np.inf, -np.inf):
            yield pytest.param(call, name, bad, id=f"{label}-{bad!r}")


def _finite_cases():
    for label, call, name in FINITE_RULES:
        for bad in (np.nan, np.inf, -np.inf):
            yield pytest.param(call, name, bad, id=f"{label}-{bad!r}")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "call, name, bad", [*_index_cases(), *_positive_cases(), *_finite_cases()]
)
def test_bad_input_raises_value_error_naming_the_parameter(call, name, bad):
    with pytest.raises(ValueError, match=re.escape(name)):
        call(bad)


@pytest.mark.parametrize(
    "call",
    [
        lambda: QuadratureSettings(2),
        lambda: MomentumGrid(1.0, 3),
        lambda: MomentumGrid(1e300, np.int64(5)),
        lambda: expand(WELL, Eigenfunction(WELL, 1), PHASE, np.int64(0)),
        lambda: allowed_momenta(WELL, PHASE, np.int64(0)),
        lambda: ridge_residual(LANDAU, 0, -0.0),
        lambda: evolve_free(WELL, 1, 0.0, box=(16.0, np.int64(2048))),
        lambda: level_energy(LANDAU, np.int32(0)),
        lambda: level_energy(LANDAU, 2**1021 - 1),
        lambda: WellSpec(half_width=1e-150),
        lambda: WellSpec(hbar=1e150).energy(10**3),
        lambda: hall_current(LANDAU, np.finfo(float).tiny),
    ],
)
def test_values_at_each_rule_edge_pass(call):
    call()


# (label, call, error type, text its message must hold): inputs each within
# their own rule whose combination leaves the float range.
RANGE_RULES = [
    ("ground energy overflows", lambda: WellSpec(hbar=1e300), ValueError, "hbar=1e+300"),
    ("ground energy underflows", lambda: WellSpec(hbar=1e-200), ValueError, "hbar=1e-200"),
    (
        "ground momentum overflows",
        lambda: WellSpec(half_width=1e-320),
        ValueError,
        "half_width=1e-320",
    ),
    ("ground energy, subnormal mass", lambda: WellSpec(mass=1e-310), ValueError, "mass=1e-310"),
    (
        "level energy overflows",
        lambda: WellSpec(hbar=1e150).energy(10**10),
        ResolutionError,
        "level 10000000000",
    ),
    ("level wavenumber overflows", lambda: WELL.energy(10**400), ResolutionError, "level 1000"),
    ("level past the floats", lambda: WELL.wavenumber(10**400), ResolutionError, "level 1000"),
    ("spike past the floats", lambda: WELL.spike_momentum(10**400), ResolutionError, "level 1000"),
    (
        "eigenfunction past the floats",
        lambda: Eigenfunction(WELL, 10**400),
        ResolutionError,
        "level 1000",
    ),
    ("n pi overflows", lambda: WELL.wavenumber(2**1023), ResolutionError, f"level {2**1023}"),
    (
        "wavenumber overflows in a narrow box",
        lambda: WellSpec(half_width=1e-150).wavenumber(10**160),
        ResolutionError,
        f"level {10**160}",
    ),
    (
        "window vanishes beside the spike",
        lambda: convergence_report(WELL, 1, window_half_width=1e-300),
        ValueError,
        "window_half_width 1e-300",
    ),
    # Landau levels and ring indices stay below 2**1021, where 2(n + m),
    # 2n + 1 and n + 1/2 are still floats.
    *(
        (
            f"{label} at {text}",
            lambda call=call, bad=bad: call(bad),
            ResolutionError,
            f"{name} {bad}",
        )
        for label, call, name, *_ in INDEX_RULES
        if name in ("level", "angular")
        for text, bad in (("2**1021", 2**1021), ("10**400", 10**400))
    ),
    ("subnormal voltage", lambda: hall_current(LANDAU, 1e-320), ValueError, "voltage"),
    ("largest subnormal voltage", lambda: hall_current(LANDAU, -1e-310), ValueError, "voltage"),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "call, error, text", [pytest.param(*rule[1:], id=rule[0]) for rule in RANGE_RULES]
)
def test_inputs_leaving_the_float_range_raise_naming_them(call, error, text):
    with pytest.raises(error, match=re.escape(text)):
        call()


# Python converts ints of at most sys.get_int_max_str_digits() digits to
# text; messages name a longer one by its sign and bit length instead.
LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
HUGE = 10**LIMIT
BITS = f"{HUGE.bit_length()}-bit integer"
LONGEST = 10 ** (LIMIT - 1)

HUGE_INT_RULES = [
    ("huge wavenumber", lambda: WELL.wavenumber(HUGE), ResolutionError, f"level <{BITS}>'s"),
    ("huge energy", lambda: WELL.energy(HUGE), ResolutionError, f"level <{BITS}>'s"),
    ("huge eigenfunction", lambda: Eigenfunction(WELL, HUGE), ResolutionError, f"level <{BITS}>"),
    (
        "huge negative level",
        lambda: WELL.wavenumber(-HUGE),
        ValueError,
        f"level index must be at least 1, got <negative {BITS}>",
    ),
    (
        "huge negative Landau level",
        lambda: level_energy(LANDAU, -HUGE),
        ValueError,
        f"level must be at least 0, got <negative {BITS}>",
    ),
    (
        "huge negative mass",
        lambda: WellSpec(mass=-HUGE),
        ValueError,
        f"mass must be positive and finite, got <negative {BITS}>",
    ),
    (
        "longest decimal level",
        lambda: WELL.wavenumber(LONGEST),
        ResolutionError,
        f"level {LONGEST}'s wavenumber",
    ),
]


@pytest.mark.skipif(LIMIT == 0, reason="this Python converts ints of any length to text")
@pytest.mark.parametrize(
    "call, error, text", [pytest.param(*rule[1:], id=rule[0]) for rule in HUGE_INT_RULES]
)
def test_huge_integers_are_named_by_bit_length(call, error, text):
    with pytest.raises(error, match=re.escape(text)):
        call()
