import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxmode import (
    AliasingError,
    Eigenfunction,
    EvolutionSnapshot,
    ResolutionError,
    WellSpec,
    analytic_density,
    evolve_free,
    farfield_map,
    grid_kinetic_energy,
    suggested_box,
)

# A box whose grid step a/128 puts both walls exactly on grid nodes.
ALIGNED_BOX = (16.0, 2048)


def test_zero_time_reproduces_initial_state(spec):
    """At t = 0 the evolved samples are exactly the renormalized stationary
    state: zero outside the walls, real everywhere, no roundoff at all."""
    snapshot = evolve_free(spec, 1, 0.0, box=ALIGNED_BOX)
    psi0 = Eigenfunction(spec, 1)(snapshot.x).astype(complex)
    psi0 /= np.sqrt(np.sum(np.abs(psi0) ** 2) * snapshot.dx)
    assert np.array_equal(snapshot.psi, psi0)
    assert np.all(snapshot.psi.imag == 0.0)
    outside = np.abs(snapshot.x) > spec.half_width
    assert np.all(snapshot.density[outside] == 0.0)


def test_snapshot_density_is_computed_once(spec):
    snapshot = evolve_free(spec, 2, 0.05)
    assert snapshot.density is snapshot.density
    assert snapshot.density.tobytes() == (np.abs(snapshot.psi) ** 2).tobytes()
    assert snapshot.edge_density == max(snapshot.density[0], snapshot.density[-1])


@pytest.mark.parametrize("box", [(16.0, 2000), (16.0, 2), (1.5, 1024)])
def test_bad_boxes_rejected(spec, box):
    with pytest.raises(ValueError):
        evolve_free(spec, 1, 0.0, box=box)


def test_grid_past_sample_budget_raises_before_allocating(spec):
    # 2^30 complex samples would take 16 GiB; the budget check comes first.
    with pytest.raises(ResolutionError, match="budget 16777216"):
        evolve_free(spec, 1, 1.0, box=(64.0, 2**30))
    # The suggested grid at t = 1e4 would hold 2^28 samples.
    with pytest.raises(ResolutionError, match="budget 16777216"):
        evolve_free(spec, 1, 1e4)


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("box", [None, ALIGNED_BOX], ids=["suggested", "given"])
def test_non_finite_time_rejected(spec, t, box):
    with pytest.raises(ValueError, match="t must be finite"):
        evolve_free(spec, 1, t, box=box)


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_suggested_box_rejects_non_finite_time(spec, t):
    with pytest.raises(ValueError, match="t must be finite"):
        suggested_box(spec, 1, t)


def test_undersized_box_raises_aliasing_error(spec):
    with pytest.raises(AliasingError):
        evolve_free(spec, 1, 5.0, box=ALIGNED_BOX)
    # "Beyond resolution" is one typed family.
    assert issubclass(AliasingError, ResolutionError)


def test_snapshot_norm_guard():
    x = np.linspace(-4.0, 4.0, 64, endpoint=False)
    psi = np.ones(64, dtype=complex)
    with pytest.raises(ValueError, match="norm"):
        EvolutionSnapshot(t=0.0, x=x, psi=psi)


def test_snapshot_rejects_nan():
    x = np.linspace(-4.0, 4.0, 64, endpoint=False)
    with pytest.raises(ValueError, match="snapshot norm is nan"):
        EvolutionSnapshot(t=0.0, x=x, psi=np.full(64, np.nan, dtype=complex))


@pytest.mark.parametrize("t", [0.5, 3.0])
def test_norm_conserved(spec, t):
    snapshot = evolve_free(spec, 1, t)
    assert snapshot.norm() == pytest.approx(1.0, abs=1e-12)


def test_density_stays_even_under_evolution(spec):
    # The ground state is even; free flight preserves that symmetry. The
    # leftmost grid point has no mirror partner, so compare the rest.
    snapshot = evolve_free(spec, 1, 2.0)
    mirrored = snapshot.density[1:][::-1]
    np.testing.assert_allclose(snapshot.density[1:], mirrored, atol=1e-15)


def test_suggested_box_alignment(spec):
    for t in (0.0, 10.0, 50.0):
        length, samples = suggested_box(spec, 1, t)
        assert samples & (samples - 1) == 0
        dx = length / samples
        assert dx == pytest.approx(spec.half_width / 128.0, rel=1e-15)
        assert length >= 16.0 * spec.half_width


def test_grid_energy_conserved_and_close_to_exact(spec):
    box = suggested_box(spec, 1, 3.0)
    before = grid_kinetic_energy(evolve_free(spec, 1, 0.0, box=box), spec)
    after = grid_kinetic_energy(evolve_free(spec, 1, 3.0, box=box), spec)
    assert after == pytest.approx(before, rel=1e-13)
    exact = spec.energy(1)
    bias = (before - exact) / exact
    assert 0.0 < bias < 6e-3


def test_farfield_requires_positive_time(spec):
    for t in (0.0, -1.0):
        with pytest.raises(ValueError):
            farfield_map(spec, 1, t, 0.0)


def test_farfield_matches_momentum_density(spec):
    """The ballistically rescaled t = 50 density reproduces the closed-form
    momentum density to a few parts in 1e5 across the probe window."""
    probe = np.linspace(-3.0 * np.pi, 3.0 * np.pi, 1501)
    deviation = np.abs(farfield_map(spec, 1, 50.0, probe) - analytic_density(spec, 1, probe))
    assert deviation.max() < 1e-4


def test_farfield_order_follows_probe_bandwidth(spec):
    """Probes far past |p| a / hbar = 470, where a fixed 256-node rule
    aliases, still land on the closed form because the node count grows
    with the largest requested momentum."""
    probe = np.linspace(-600.0, 600.0, 4001)
    deviation = np.abs(farfield_map(spec, 1, 50.0, probe) - analytic_density(spec, 1, probe))
    assert deviation.max() < 1e-4


def test_farfield_matches_evolved_snapshot(spec):
    """At t = 1 the chirped box transform agrees with the FFT snapshot,
    relabelled by hand to p = m x / t and rescaled by t / m."""
    t = 1.0
    snapshot = evolve_free(spec, 1, t)
    inside = np.abs(snapshot.x) < 20.0
    p = spec.mass * snapshot.x[inside] / t
    rescaled = snapshot.density[inside] * (t / spec.mass)
    assert np.abs(farfield_map(spec, 1, t, p) - rescaled).max() < 1e-5


@given(t=st.floats(min_value=0.05, max_value=5.0))
@settings(max_examples=6, deadline=None)
def test_default_box_never_aliases(t):
    spec = WellSpec()
    snapshot = evolve_free(spec, 2, t)
    assert snapshot.norm() == pytest.approx(1.0, abs=1e-9)
    limit = 1e-10 / spec.half_width
    assert snapshot.density[0] <= limit
    assert snapshot.density[-1] <= limit
