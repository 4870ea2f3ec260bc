import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from boxmode import (
    DiscreteMomentumSpectrum,
    Eigenfunction,
    ExtensionPhase,
    QuadratureSettings,
    WellSpec,
    allowed_momenta,
    convergence_report,
    eigenstate_spectrum,
    expand,
    matched_phase,
    momentum_continuous,
)
from boxmode.momentum_continuous import _plane_waves
from boxmode.quadrature import bandwidth_order

# Window mass captured around the two spikes (default window, natural
# units), frozen from 256-node quadrature of the closed-form density.
FROZEN_WINDOW_MASS = {
    1: 0.9700940527700,
    2: 0.8139439959163,
    4: 0.7833284247470,
    8: 0.7760780419944,
    16: 0.7742892070872,
    32: 0.7738434619815,
}


@pytest.mark.parametrize("theta", [-0.1, 2.0 * np.pi, 7.0, -5.0])
def test_phase_out_of_range_rejected(theta):
    with pytest.raises(ValueError):
        ExtensionPhase(theta=theta)


def test_ladder_momenta(spec):
    phase = ExtensionPhase(theta=np.pi)
    ks, momenta = allowed_momenta(spec, phase, 3)
    np.testing.assert_array_equal(ks, np.arange(-3, 4))
    expected = (ks + 0.5) * np.pi * spec.hbar / spec.half_width
    np.testing.assert_allclose(momenta, expected, rtol=1e-15)
    assert np.all(np.diff(momenta) > 0)


def test_ladder_bad_ranges(spec):
    phase = ExtensionPhase(theta=0.0)
    with pytest.raises(ValueError, match="k_max"):
        allowed_momenta(spec, phase, -1)
    with pytest.raises(ValueError, match="k_max"):
        allowed_momenta(spec, phase, (4, 2))


def test_ladder_takes_one_bound_not_a_pair(spec):
    # The ladder is always -k_max..k_max; a (k_min, k_max) pair is no bound.
    with pytest.raises(ValueError, match=r"k_max must be an integer, got \(2, 5\)"):
        allowed_momenta(spec, ExtensionPhase(theta=0.0), (2, 5))


@pytest.mark.parametrize("n, theta", [(1, np.pi), (2, 0.0), (3, np.pi), (8, 0.0)])
def test_matched_phase(n, theta):
    assert matched_phase(n).theta == theta


@pytest.mark.parametrize("theta", [0.0, np.pi, 1.3])
def test_basis_orthonormality(spec, theta):
    """Plane waves at one extension's ladder momenta form an orthonormal set
    over the box."""
    phase = ExtensionPhase(theta=theta)
    _, momenta = allowed_momenta(spec, phase, 8)
    x, w = QuadratureSettings().nodes(-spec.half_width, spec.half_width)
    states = np.exp(1j * np.outer(momenta, x) / spec.hbar) / np.sqrt(2.0 * spec.half_width)
    gram = np.conj(states) @ (w[:, None] * states.T)
    np.testing.assert_allclose(gram, np.eye(17), atol=1e-13)


@pytest.mark.parametrize("n", range(1, 11))
def test_eigenstate_spectrum_is_two_exact_spikes(spec, n):
    result = eigenstate_spectrum(spec, n)
    p_n = spec.spike_momentum(n)
    assert len(result.entries) == 2
    np.testing.assert_allclose(result.momenta, [-p_n, p_n], rtol=1e-15)
    assert result.weights[0] == 0.5
    assert result.weights[1] == 0.5
    assert result.total_weight() == 1.0


def test_eigenstate_spectrum_indices(spec):
    assert eigenstate_spectrum(spec, 1).entries[0][0] == -1
    assert eigenstate_spectrum(spec, 1).entries[1][0] == 0
    assert eigenstate_spectrum(spec, 4).entries[0][0] == -2
    assert eigenstate_spectrum(spec, 4).entries[1][0] == 2


@pytest.mark.parametrize("n", [1, 2, 3, 6, 9])
def test_expand_recovers_eigenstate_spikes(spec, n):
    """Quadrature expansion of a stationary state lands on the exact two-spike
    answer: weight 1/2 on each matched-ladder spike, nothing anywhere else."""
    result = expand(spec, Eigenfunction(spec, n), matched_phase(n), k_max=16)
    exact = eigenstate_spectrum(spec, n)
    spike = np.isin(result.indices, exact.indices)
    np.testing.assert_allclose(result.weights[spike], 0.5, atol=1e-13)
    assert result.weights[~spike].max() < 1e-20
    assert abs(result.total_weight() - 1.0) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_expand_wide_ladder_stays_complete(spec, n):
    # Rungs up to |p| a / hbar ~ 800 need more than 256 nodes.
    result = expand(spec, Eigenfunction(spec, n), matched_phase(n), k_max=512)
    spike = np.isin(result.indices, eigenstate_spectrum(spec, n).indices)
    assert abs(result.completeness_defect()) <= 1e-8
    np.testing.assert_allclose(result.weights[spike], 0.5, atol=1e-12)


def test_expand_weight_symmetry(spec):
    # Real states carry equal weight at +p and -p. On the integer ladder
    # (theta = 0) the index range is momentum-symmetric, so the weight
    # array is an exact palindrome; this state spreads over every rung.
    result = expand(spec, Eigenfunction(spec, 1), ExtensionPhase(0.0), k_max=12)
    np.testing.assert_allclose(result.weights, result.weights[::-1], rtol=1e-12)

    # The half-integer ladder mirrors rung k onto rung -k-1, which leaves
    # the topmost rung unpaired; everything below it must still pair up.
    shifted = expand(spec, Eigenfunction(spec, 1), matched_phase(1), k_max=12)
    paired = shifted.weights[:-1]
    np.testing.assert_allclose(paired, paired[::-1], atol=1e-15)


def test_expand_rejects_unnormalized_state(spec):
    with pytest.raises(ValueError, match="norm"):
        expand(spec, lambda x: np.ones_like(x), matched_phase(1), k_max=4)


def test_expand_rejects_nan_state(spec):
    with pytest.raises(ValueError, match="norm over the box is nan"):
        expand(spec, lambda x: np.full_like(x, np.nan), matched_phase(1), k_max=4)


@pytest.mark.parametrize(
    "spec, k_max, n",
    [pytest.param(WellSpec(), k, 2, id=str(k)) for k in (0, 1, 7, 8, 60, 140, 511, 512, 1024)]
    + [
        pytest.param(WellSpec(half_width=2.5, mass=0.7, hbar=1.3), k, 2, id=f"custom-{k}")
        for k in (0, 1, 7, 8, 60, 140, 511, 512, 1024)
    ]
    + [pytest.param(WellSpec(), k, 1, id=f"half-{k}") for k in (0, 1, 7, 8, 60, 140)],
)
def test_blocked_expand_is_bitwise_one_shot(spec, k_max, n):
    """k_max = 1, 7, 8 and 60 give ladders of 3, 15, 17 and 121 rows, at the
    edges of a 15-row product step and a 120-row block; k_max = 140 sizes an
    odd, 259-node rule, whose middle node is 0; k_max = 512 and 1024 take
    4- and 2-row steps. Level 2's integer ladder pairs rung k with -k, and
    level 1's half-integer ladder pairs k with -k-1 and leaves its top rung
    alone: sharing their kernel rows changes no coefficient bit."""
    state, phase = Eigenfunction(spec, n), matched_phase(n)
    a = spec.half_width
    _, momenta = allowed_momenta(spec, phase, k_max)
    x, w = QuadratureSettings(bandwidth_order(a * np.abs(momenta).max() / spec.hbar)).nodes(-a, a)
    kernel = np.exp(-1j * np.outer(momenta, x) / spec.hbar) / np.sqrt(2.0 * a)
    expected = kernel @ (w * np.asarray(state(x), dtype=complex))
    assert expand(spec, state, phase, k_max).coefficients.tobytes() == expected.tobytes()


@pytest.mark.parametrize("phase", [ExtensionPhase(0.0), matched_phase(1)], ids=["integer", "half"])
def test_expand_builds_one_kernel_row_per_distinct_magnitude(spec, monkeypatch, phase):
    """281 rungs at k_max = 140 hold 141 distinct |p| on either ladder; only
    those are built, padded to whole 15-row product steps of the 259-node rule."""
    asked = []

    def counting(rows, x, hbar, out):
        asked.append(rows.copy())
        return _plane_waves(rows, x, hbar, out)

    monkeypatch.setattr(momentum_continuous, "_plane_waves", counting)
    monkeypatch.setattr(momentum_continuous, "_memo", {})
    result = expand(spec, Eigenfunction(spec, 1), phase, 140)
    asked = np.concatenate(asked)
    assert result.momenta.size == 281
    assert np.unique(asked).size == 141
    assert asked.size == 150


def test_expand_rejects_negative_k_max(spec):
    with pytest.raises(ValueError):
        expand(spec, Eigenfunction(spec, 1), matched_phase(1), k_max=-2)


def test_spectrum_contract_violations(spec):
    phase = ExtensionPhase(theta=0.0)
    ks = np.array([0, 1])
    with pytest.raises(ValueError, match="matching shapes"):
        DiscreteMomentumSpectrum(
            phase=phase,
            indices=ks,
            momenta=np.array([0.0]),
            weights=np.array([0.5, 0.5]),
            coefficients=np.array([0.7, 0.7]),
        )
    with pytest.raises(ValueError, match="increasing"):
        DiscreteMomentumSpectrum(
            phase=phase,
            indices=ks,
            momenta=np.array([1.0, -1.0]),
            weights=np.array([0.5, 0.5]),
            coefficients=np.array([0.7, 0.7]),
        )
    with pytest.raises(ValueError, match="weights sum to nan"):
        DiscreteMomentumSpectrum(
            phase=phase,
            indices=ks,
            momenta=np.array([-1.0, 1.0]),
            weights=np.array([np.nan, 0.5]),
            coefficients=np.array([np.nan, 0.7]),
        )
    with pytest.raises(ValueError, match="exceeding"):
        DiscreteMomentumSpectrum(
            phase=phase,
            indices=ks,
            momenta=np.array([-1.0, 1.0]),
            weights=np.array([0.7, 0.7]),
            coefficients=np.array([0.8, 0.8]),
        )


def test_mismatched_ladder_leaks_but_stays_bounded(spec):
    """A stationary state expanded over the wrong-phase ladder spreads over
    many rungs; the truncated weight still approaches 1 from below."""
    mixed = expand(spec, Eigenfunction(spec, 1), ExtensionPhase(0.0), k_max=64)
    matched = expand(spec, Eigenfunction(spec, 1), matched_phase(1), k_max=64)
    assert mixed.total_weight() <= 1.0 + 1e-12
    assert mixed.completeness_defect() < 1e-3
    assert matched.completeness_defect() < mixed.completeness_defect()
    # The weight genuinely spreads: many rungs participate, unlike the
    # matched ladder's clean pair of spikes.
    assert int((mixed.weights > 1e-9).sum()) > 10


@given(
    coeffs=st.lists(
        st.floats(min_value=-1.0, max_value=1.0), min_size=1, max_size=6
    )
)
@settings(max_examples=15, deadline=None)
def test_parseval_for_smooth_states(coeffs):
    """States vanishing smoothly at the walls satisfy Parseval on every
    ladder: truncated weights sum to 1 up to a tiny tail."""
    spec = WellSpec()
    quad = QuadratureSettings()
    poly = np.polynomial.Polynomial(coeffs)

    def raw(x):
        return (1.0 - x**2) ** 2 * poly(x)

    x, w = quad.nodes(-1.0, 1.0)
    norm = float(raw(x) ** 2 @ w)
    assume(norm > 1e-3)
    scale = 1.0 / np.sqrt(norm)

    for theta in (0.0, np.pi):
        result = expand(
            spec, lambda x: scale * raw(x), ExtensionPhase(theta), k_max=64
        )
        assert abs(result.completeness_defect()) < 1e-6


@pytest.mark.parametrize("n, mass", sorted(FROZEN_WINDOW_MASS.items()))
def test_window_mass_frozen(spec, n, mass):
    report = convergence_report(spec, n)
    assert report.mass_in_window == pytest.approx(mass, abs=1e-11)
    assert report.defect == pytest.approx(1.0 - mass, abs=1e-11)


def test_window_default_half_width(spec):
    report = convergence_report(spec, 3)
    assert report.window_half_width == pytest.approx(np.pi / 2.0, rel=1e-15)


def test_overlapping_windows_merge(spec):
    # A window wider than the spike momentum covers both spikes at once;
    # the merged span must not double-count the overlap.
    p1 = spec.spike_momentum(1)
    wide = convergence_report(spec, 1, window_half_width=2.0 * p1)
    from boxmode import analytic_density

    q, w = QuadratureSettings().nodes(-3.0 * p1, 3.0 * p1)
    direct = analytic_density(spec, 1, q) @ w
    assert wide.mass_in_window == pytest.approx(direct, rel=1e-13)
    assert wide.mass_in_window <= 1.0 + 1e-9


def test_wide_window_captures_all_mass(spec):
    # A window of half-width 1000 spans ~2000 radians of density phase.
    report = convergence_report(spec, 1, window_half_width=1000.0)
    assert report.mass_in_window > 0.999999
    assert report.mass_in_window <= 1.0 + 1e-9


def test_window_must_be_positive(spec):
    with pytest.raises(ValueError):
        convergence_report(spec, 1, window_half_width=0.0)


@pytest.mark.parametrize("width", [np.inf, np.nan])
def test_window_must_be_finite(spec, width):
    with pytest.raises(ValueError, match="window_half_width must be positive and finite"):
        convergence_report(spec, 1, window_half_width=width)
