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
    cmd_well_energies,
    run,
)
from boxmode.landau import (
    commutator_check,
    gaussian_test_state,
    landau_gauge,
    ridge_residual,
    ring_residual,
    symmetric_gauge,
)

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
        lambda: LandauSpec(B=np.finfo(float).tiny, Lx=1.0, Ly=2.0 * np.pi),
        lambda: LandauSpec(Lx=1e150, Ly=1e150),
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
    # The flux B Lx Ly and its ratio to the flux quantum must be normal floats:
    # once an OverflowError in degeneracy or a ZeroDivisionError in hall_current.
    *(
        (f"flux {label}", lambda kwargs=kwargs: LandauSpec(**kwargs), ValueError, text)
        for label, kwargs, text in (
            ("overflows", {"Lx": 1e160, "Ly": 1e160}, "B=1.0, Lx=1e+160 and Ly=1e+160"),
            ("overflows in a strong field", {"B": 1e300, "Lx": 1e10}, "B=1e+300, Lx=10000000000.0"),
            ("underflows", {"Lx": 1e-300, "Ly": 1e-300}, "B=1.0, Lx=1e-300 and Ly=1e-300"),
            ("is subnormal", {"Lx": 1e-160, "Ly": 1e-160}, "B=1.0, Lx=1e-160 and Ly=1e-160"),
            ("ratio overflows", {"B": 1e300, "hbar": 1e-300}, "B=1e+300, Lx=10.0 and Ly=10.0"),
            ("ratio is subnormal", {"B": 1e-10, "hbar": 1e300}, "B=1e-10, Lx=10.0 and Ly=10.0"),
        )
    ),
    # A residual divides by a scale that must be a normal float: once a
    # RuntimeWarning and a nan residual, or "test state is too trivial".
    *(
        (
            f"{label} scale at B={B}",
            lambda call=call, spec=LandauSpec(B=B): call(spec),
            ResolutionError,
            f"B={B} puts the {what} = {scale} ",
        )
        for label, call, what in (
            (
                "ridge residual",
                lambda spec: ridge_residual(spec, 0, spec.probe_momentum),
                "residual scale hbar * cyclotron_frequency * max|psi|",
            ),
            (
                "ring residual",
                lambda spec: ring_residual(spec, 0, 1),
                "residual scale hbar * cyclotron_frequency * max|psi|",
            ),
            (
                "commutator",
                lambda spec: commutator_check(
                    spec, landau_gauge(spec.B), gaussian_test_state(spec)
                ),
                "commutator scale hbar * |charge| * B / c * max|psi|",
            ),
        )
        for B, scale in ((1e-300, "0"), (1e300, "inf"))
    ),
    # A stencil product that leaves the float range raises where it
    # overflows, at any level: once a RuntimeWarning and a nan or inf
    # residual below the scale's own overflow near 6.5e205.
    *(
        (
            f"{label} stencil product at B={B}",
            lambda call=call, spec=LandauSpec(B=B): call(spec),
            ResolutionError,
            f"B={B} takes a stencil product outside the float range: overflow ",
        )
        for label, call, B in (
            *(
                (
                    f"level-{n} ridge residual",
                    lambda spec, n=n: ridge_residual(spec, n, spec.probe_momentum),
                    B,
                )
                for n, B in ((1, 3.9e205), (2, 3e205), (5, 2e205), (100, 1e205))
            ),
            ("ring (2, 3) residual", lambda spec: ring_residual(spec, 2, 3), 3e205),
        )
    ),
    (
        "subnormal ridge residual scale",
        lambda: ridge_residual(LandauSpec(B=1e-210), 0, 0.0),
        ResolutionError,
        "B=1e-210 puts the residual scale hbar * cyclotron_frequency * max|psi| = 3.69829e-316 ",
    ),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "call, error, text", [pytest.param(*rule[1:], id=rule[0]) for rule in RANGE_RULES]
)
def test_inputs_leaving_the_float_range_raise_naming_them(call, error, text):
    with pytest.raises(error, match=re.escape(text)):
        call()


STENCIL_PROBES = {
    "level-0 ridge": lambda spec: ridge_residual(spec, 0, spec.probe_momentum),
    "level-1 ridge": lambda spec: ridge_residual(spec, 1, spec.probe_momentum),
    "commutator": lambda spec: commutator_check(
        spec, landau_gauge(spec.B), gaussian_test_state(spec)
    ),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "probe, B, serves",
    [
        ("level-0 ridge", 4e205, True),
        ("level-0 ridge", 5e205, True),
        ("level-0 ridge", 6e205, False),
        *(("level-1 ridge", B, False) for B in (4e205, 5e205, 6e205)),
        ("commutator", 4e205, True),
        *(("commutator", B, False) for B in (5e205, 6e205)),
    ],
)
def test_stencil_probes_serve_or_raise_naming_b(probe, B, serves):
    """Below the scales' own overflow a probe either returns its B = 1
    residual, to 1e-8 relative, or raises where a stencil product overflows,
    naming B; it never warns."""
    call = STENCIL_PROBES[probe]
    if serves:
        assert call(LandauSpec(B=B)) == pytest.approx(call(LANDAU), rel=1e-8)
    else:
        text = f"B={B} takes a stencil product outside the float range: "
        with pytest.raises(ResolutionError, match=re.escape(text)):
            call(LandauSpec(B=B))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("B, scale", [(1e-300, "0"), (1e300, "inf")])
@pytest.mark.parametrize(
    "gauge",
    [landau_gauge, symmetric_gauge, lambda B: landau_gauge(0.0)],
    ids=["landau", "symmetric", "zero-field"],
)
def test_commutator_scale_raises_before_any_product(B, scale, gauge):
    """The spec's B sizes the check, the zero-field gauge's too, so no
    product runs: numpy raising on every floating-point event stays silent."""
    spec = LandauSpec(B=B)
    state = gaussian_test_state(spec)
    text = f"B={B} puts the commutator scale hbar * |charge| * B / c * max|psi| = {scale} "
    with np.errstate(all="raise"), pytest.raises(ResolutionError, match=re.escape(text)):
        commutator_check(spec, gauge(B), state)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("B", ["1e205", "3e205"])
def test_landau_checks_read_no_wrapped_cell(B, tmp_path):
    """The stencils compute only the cells two or more from every edge, so no
    wrapped edge cell overflows where the interior does not: numpy raising
    on every floating-point event stays silent, and every CHECK passes."""
    with np.errstate(all="raise"):
        assert run(["landau", "checks", "--field", B, "--out", str(tmp_path)]) == 0


@pytest.mark.filterwarnings("error")
def test_default_ridge_grid_needs_five_points_an_axis():
    """At step magnetic_length/8 the default 10 x 10 rectangle holds 4 points
    an axis at B = 1.4e-3 and 5 at 1.5e-3; the error names the field and the
    rectangle, and custom grids keep their axis messages."""
    for B in (1.4e-3, 1e-300):
        spec = LandauSpec(B=B)
        text = f"B={B} puts fewer than 5 points on an axis of the default 10.0 x 10.0 rectangle"
        with pytest.raises(ValueError, match=re.escape(text)):
            landau_gauge_state(spec, 0, 5.0 * B)
    spec = LandauSpec(B=1.5e-3)
    assert landau_gauge_state(spec, 0, 5.0 * spec.B).values.shape == (5, 5)
    short = LandauSpec(B=1.5e-3, Ly=6.0)
    with pytest.raises(ValueError, match=re.escape("default 10.0 x 6.0 rectangle")):
        landau_gauge_state(short, 0, 3.0 * short.B)
    grid = (np.linspace(0.0, 1.0, 9), np.linspace(0.0, 1.0, 4))
    with pytest.raises(ValueError, match="^y axis must be 1-D with at least 5 points$"):
        landau_gauge_state(LANDAU, 0, 0.5, grid=grid)


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
