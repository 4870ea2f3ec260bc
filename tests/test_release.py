import numpy as np
import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

import boxmode.cli
from boxmode import (
    AliasingError,
    Eigenfunction,
    EvolutionSnapshot,
    ResolutionError,
    WellSpec,
    analytic_density,
    evolve_free,
    farfield_map,
    suggested_box,
)
from boxmode.report import CheckResult, write_csv

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


@pytest.mark.parametrize(
    ("n", "t", "box"),
    [
        (1, 0.0, (16.0, 2048)),
        (1, 1e-3, (16.0, 2048)),
        (2, 0.05, (256.0, 32768)),
        (1, 1.0, (2048.0, 262144)),
        (2, 1.0, (2048.0, 262144)),
        (3, 5.0, (8192.0, 1048576)),
        (1, 50.0, (32768.0, 4194304)),
        (1, 200.0, (65536.0, 8388608)),
    ],
)
def test_suggested_box_pinned_in_natural_units(n, t, box):
    # Recorded before the bulk-quantile term was dropped: it never set a length.
    assert suggested_box(WellSpec(), n, t) == box


# At 1e300 the reach overflows to inf and meets the same budget.
@pytest.mark.parametrize("t", [1e4, 1e300])
def test_suggested_box_past_budget_raises(spec, t):
    with pytest.raises(ResolutionError, match="budget 16777216"):
        suggested_box(spec, 1, t)


def test_suggested_box_alignment(spec):
    for t in (0.0, 10.0, 50.0):
        length, samples = suggested_box(spec, 1, t)
        assert samples & (samples - 1) == 0
        dx = length / samples
        assert dx == pytest.approx(spec.half_width / 128.0, rel=1e-15)
        assert length >= 16.0 * spec.half_width


def test_grid_energy_conserved_and_close_to_exact(spec):
    box = suggested_box(spec, 1, 3.0)
    start = evolve_free(spec, 1, 0.0, box=box)
    before, after = evolve_free(spec, 1, 3.0, box=box)._energies
    assert before == start._energies[1] == two_pass_energy(start.x, start.psi, spec)
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


@given(
    hbar=st.floats(min_value=0.1, max_value=100.0),
    n=st.sampled_from([1, 2, 3]),
    t=st.floats(min_value=0.05, max_value=5.0),
)
@settings(max_examples=12, deadline=None, derandomize=True)
def test_default_box_never_aliases(hbar, n, t):
    """The suggested box holds the edge under the gate in any units, which
    needs its tail reach to scale as hbar^3: hbar^2 undersizes hbar > 1."""
    spec = WellSpec(hbar=hbar)
    try:
        _, samples = suggested_box(spec, n, t)
    except ResolutionError:
        reject()
    # Keep each draw to ~200 MB; larger boxes follow the same rule.
    assume(samples <= 2**21)
    snapshot = evolve_free(spec, n, t)
    assert snapshot.norm() == pytest.approx(1.0, abs=1e-9)
    limit = 1e-10 / spec.half_width
    assert snapshot.density[0] <= limit
    assert snapshot.density[-1] <= limit


# The evolution, its t = 0 reference and the energy check as one release
# evolve op once computed them: each call builds its own grid and state, the
# phase covers all N frequencies, and every transform is taken afresh.


def two_pass_state(spec, n, t, box):
    length, samples = box
    dx = length / samples
    x = (np.arange(samples) - samples // 2) * dx
    psi0 = Eigenfunction(spec, n)(x).astype(complex)
    psi0 /= np.sqrt(np.sum(np.abs(psi0) ** 2) * dx)
    if t == 0:
        return x, psi0
    p = 2.0 * np.pi * spec.hbar * np.fft.fftfreq(samples, d=dx)
    phase = np.exp(-1j * p**2 * t / (2.0 * spec.mass * spec.hbar))
    return x, np.fft.ifft(np.fft.fft(psi0) * phase)


def two_pass_energy(x, psi, spec):
    weights = np.abs(np.fft.fft(psi)) ** 2
    weights /= weights.sum()
    p = 2.0 * np.pi * spec.hbar * np.fft.fftfreq(x.size, d=float(x[1] - x[0]))
    return float((weights * p**2).sum() / (2.0 * spec.mass))


def two_pass_energies(spec, n, t, box):
    x, psi = two_pass_state(spec, n, t, box)
    _, psi0 = two_pass_state(spec, n, 0.0, box)
    return two_pass_energy(x, psi0, spec), two_pass_energy(x, psi, spec)


NARROW = WellSpec(half_width=0.7)
CUSTOM = WellSpec(half_width=2.5, mass=3.0, hbar=0.7)

# (spec, n, t, box): the suggested boxes of the CLI ops, t < 0, a narrow well
# whose step x[1] - x[0] is not length / samples, and the smallest grids,
# where the mirrored half of the phase is one or three entries long.
ONE_PASS_CASES = [
    (WellSpec(), 1, 0.0, None),
    (WellSpec(), 2, 0.3, None),
    (WellSpec(), 1, 1.0, None),
    (WellSpec(), 3, -1.0, (4096.0, 524288)),
    (WellSpec(), 7, 0.3, None),
    (WellSpec(), 1, 2.5, None),
    (WellSpec(), 2, 0.01, ALIGNED_BOX),
    (NARROW, 1, 1.0, None),
    (NARROW, 2, -0.3, None),
    (NARROW, 3, 0.0, None),
    (CUSTOM, 1, 1.0, None),
    (WellSpec(), 1, 0.0, (4.5, 4)),
    (WellSpec(), 1, 1e-9, (4.5, 4)),
    (WellSpec(), 1, -1e-9, (6.0, 8)),
    (WellSpec(), 2, 1e-9, (6.0, 8)),
]


@pytest.mark.parametrize(("spec", "n", "t", "box"), ONE_PASS_CASES)
def test_one_pass_keeps_the_two_pass_bits(spec, n, t, box):
    box = box or suggested_box(spec, n, t)
    snapshot = evolve_free(spec, n, t, box=box)
    x, psi = two_pass_state(spec, n, t, box)
    assert snapshot.x.tobytes() == x.tobytes()
    assert snapshot.psi.tobytes() == psi.tobytes()
    assert snapshot._energies == two_pass_energies(spec, n, t, box)
    # The check as two evolve_free calls and the two-pass energy read it.
    reference = evolve_free(spec, n, 0.0, box=box)
    initial, final = snapshot._energies
    expected = two_pass_energy(snapshot.x, snapshot.psi, spec) / two_pass_energy(
        reference.x, reference.psi, spec
    )
    assert abs(final / initial - 1.0) == abs(expected - 1.0)


def test_narrow_well_steps_differ():
    # The energies take x[1] - x[0], the phase length / samples; at
    # half_width 0.7 they differ, so mixing them up would move bits.
    length, samples = suggested_box(NARROW, 1, 1.0)
    assert evolve_free(NARROW, 1, 0.0, box=(length, samples)).dx != length / samples


@pytest.mark.parametrize("box", [(4.5, 4), (6.0, 8)])
def test_one_pass_aliases_where_the_two_pass_did(box):
    x, psi = two_pass_state(WellSpec(), 1, 1e-3, box)
    assert max(abs(psi[0]) ** 2, abs(psi[-1]) ** 2) > 1e-10
    with pytest.raises(AliasingError):
        evolve_free(WellSpec(), 1, 1e-3, box=box)


def evolve_run(tmp_path, monkeypatch, capsys, argv):
    """Run a release evolve op; return its stdout lines, CSV bytes, the
    number of forward and inverse transforms and of evolve_free calls."""
    counts = {"transforms": 0, "evolve_free": 0}

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(np.fft, "fft", counted(np.fft.fft, "transforms"))
    monkeypatch.setattr(np.fft, "ifft", counted(np.fft.ifft, "transforms"))
    monkeypatch.setattr(boxmode.cli, "evolve_free", counted(evolve_free, "evolve_free"))
    out = tmp_path / "out"
    assert boxmode.cli.run(["release", "evolve", *argv, "--out", str(out)]) == 0
    monkeypatch.undo()
    lines = capsys.readouterr().out.splitlines()
    return lines, (out / "release_evolve.csv").read_bytes(), counts


@pytest.mark.parametrize(("t", "transforms"), [("0.3", 3), ("-0.3", 3), ("0", 1)])
def test_release_evolve_takes_one_forward_transform_of_the_initial_state(
    tmp_path, monkeypatch, capsys, t, transforms
):
    # Two-pass: 4 at t != 0 (fft, ifft and one fft per energy), 2 at t = 0.
    _, _, counts = evolve_run(tmp_path, monkeypatch, capsys, ["--n", "2", "--t", t])
    assert counts == {"transforms": transforms, "evolve_free": 1}


@pytest.mark.parametrize(
    ("config", "argv"),
    [
        ("", ["--n", "2", "--t", "0.3"]),
        ("[well]\nhalf_width = 0.7\n", ["--n", "1", "--t", "1", "--digits", "17"]),
        ("", ["--n", "1", "--t", "1e-9", "--box-length", "4.5", "--samples", "4"]),
        ("", ["--n", "3", "--t", "0", "--box-length", "6", "--samples", "8"]),
    ],
)
def test_release_evolve_writes_the_two_pass_report(
    tmp_path, monkeypatch, capsys, config, argv
):
    spec, digits = WellSpec(), 12
    if config:
        path = tmp_path / "narrow.cfg"
        path.write_text(config, encoding="utf-8")
        argv = [*argv, "--config", str(path)]
        spec = NARROW
    flags = dict(zip(argv[::2], argv[1::2]))
    n, t = int(flags["--n"]), float(flags["--t"])
    digits = int(flags.get("--digits", digits))
    box = suggested_box(spec, n, t)
    if "--samples" in flags:
        box = (float(flags["--box-length"]), int(flags["--samples"]))
    lines, csv, _ = evolve_run(tmp_path, monkeypatch, capsys, argv)

    x, psi = two_pass_state(spec, n, t, box)
    density = np.abs(psi) ** 2
    initial, final = two_pass_energies(spec, n, t, box)
    expected = [
        CheckResult("norm-conservation", np.sum(density) * (x[1] - x[0]) - 1.0, 1e-9),
        CheckResult("energy-conservation", abs(final / initial - 1.0), 1e-9),
        CheckResult("edge-density", max(density[0], density[-1]), 1e-10 / spec.half_width),
    ]
    assert [line for line in lines if line.startswith("CHECK")] == [
        check.line(digits) for check in expected
    ]
    rows = np.column_stack((x, psi.real, psi.imag, density))
    header = ("x", "psi_re", "psi_im", "density")
    assert csv == write_csv(tmp_path / "two_pass.csv", header, rows, digits).read_bytes()
