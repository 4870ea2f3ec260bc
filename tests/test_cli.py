import contextlib
import io
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from boxmode import (
    Eigenfunction,
    LandauSpec,
    ResolutionError,
    WellSpec,
    hamiltonian_residual,
    landau_gauge,
    landau_gauge_state,
    level_energy,
    symmetric_gauge_state,
)
from boxmode.cli import ConfigError, RunConfig, build_parser, parse_config, run
from boxmode.landau import (
    PROBE_BUDGET,
    _axis,
    _centered_axis,
    _probe_step,
    _ring_extent,
    ridge_residual,
    ring_residual,
)


def run_in(tmp_path, *argv):
    return run([*argv, "--out", str(tmp_path)])


def test_parse_config_sections():
    text = """
    # a comment
    digits = 8
    [well]
    half_width = 2.0
    mass = 0.5
    """
    sections = parse_config(text)
    assert sections["global"] == {"digits": 8}
    assert sections["well"] == {"half_width": 2.0, "mass": 0.5}
    assert sections["landau"] == {}


@pytest.mark.parametrize("text", ["just words\n", "[]\nkey = 1\n", "= nameless\n"])
def test_parse_config_rejects_malformed_lines(text):
    with pytest.raises(ConfigError):
        parse_config(text)


@pytest.mark.parametrize("kwargs", [{"digits": 0}, {"digits": 18}])
def test_run_config_validation(kwargs):
    with pytest.raises(ConfigError):
        RunConfig(**kwargs)


def test_well_energies_run(tmp_path, capsys):
    code = run_in(tmp_path, "well", "energies", "--n-max", "4")
    assert code == 0
    out = capsys.readouterr().out
    assert "CHECK" in out and "FAIL" not in out
    text = (tmp_path / "well_energies.csv").read_text(encoding="utf-8")
    lines = text.splitlines()
    assert lines[0] == "n,energy"
    assert len(lines) == 5
    assert lines[1].startswith("1,1.233700550136e+00")


def test_momentum_continuous_header_and_determinism(tmp_path):
    args = ("momentum", "continuous", "--count", "201", "--p-max", "30.0")
    first_dir = tmp_path / "one"
    second_dir = tmp_path / "two"
    assert run_in(first_dir, *args) == 0
    assert run_in(second_dir, *args) == 0
    first = (first_dir / "momentum_continuous.csv").read_bytes()
    second = (second_dir / "momentum_continuous.csv").read_bytes()
    assert first == second
    assert first.decode("utf-8").splitlines()[0] == "p,probability_density"


def test_momentum_compare_writes_sidecar(tmp_path):
    assert run_in(tmp_path, "momentum", "compare", "--n", "2") == 0
    spikes = (tmp_path / "momentum_compare_spikes.csv").read_text(encoding="utf-8")
    lines = spikes.splitlines()
    assert lines[0] == "momentum,weight"
    assert len(lines) == 3
    weights = [line.split(",")[1] for line in lines[1:]]
    assert all(w == "5.000000000000e-01" for w in weights)


@pytest.mark.parametrize(
    "argv, csv_name, header",
    [
        (("well", "eigenfunction", "--samples", "101"), "well_eigenfunction.csv", "x,psi"),
        (("momentum", "discrete"), "momentum_discrete.csv", "k,momentum,weight"),
        (("momentum", "discrete", "--k-max", "160"), "momentum_discrete.csv", "k,momentum,weight"),
        (("momentum", "continuous", "--n", "20"), "momentum_continuous.csv", "p,probability_density"),
        (("landau", "state"), "landau_state.csv", "x,y,psi_re,psi_im,density"),
        (
            ("landau", "state", "--gauge", "symmetric", "--level", "1", "--angular", "2"),
            "landau_state.csv",
            "x,y,psi_re,psi_im,density",
        ),
        (("landau", "checks"), "landau_checks.csv", "check,residual"),
        # Levels and rings whose residual probe must be finer than l/8.
        *(
            (("landau", "state", "--level", level), "landau_state.csv", "x,y,psi_re,psi_im,density")
            for level in ("10", "40", "120", "200")
        ),
        *(
            (
                ("landau", "state", "--gauge", "symmetric", "--level", n, "--angular", m),
                "landau_state.csv",
                "x,y,psi_re,psi_im,density",
            )
            for n, m in (("8", "3"), ("15", "30"), ("20", "40"), ("30", "60"))
        ),
        # A guiding line mid-patch: the ridge's plane wave turns at 5 / l along x.
        (("landau", "state", "--p-x", "5"), "landau_state.csv", "x,y,psi_re,psi_im,density"),
        # The shortest ladders that reach the spikes: +-2 at n = 4, -3 and 2 at n = 5.
        *(
            (
                ("momentum", "discrete", "--n", n, "--k-max", k),
                "momentum_discrete.csv",
                "k,momentum,weight",
            )
            for n, k in (("4", "2"), ("5", "3"))
        ),
    ],
)
def test_leaf_runs_with_every_check_passing(tmp_path, capsys, argv, csv_name, header):
    assert run_in(tmp_path, *argv) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"boxmode {argv[0]} {argv[1]}\n")
    checks = [line for line in out.splitlines() if line.startswith("CHECK")]
    assert checks and all(": PASS " in line for line in checks)
    lines = (tmp_path / csv_name).read_text(encoding="utf-8").splitlines()
    assert lines[0] == header


def test_run_reuses_one_parser_across_leaves(tmp_path, capsys):
    """Each call parses afresh: no flag, default or error carries over."""
    assert build_parser() is build_parser()
    assert run_in(tmp_path / "a", "well", "energies", "--n-max", "3") == 0
    assert run_in(tmp_path / "b", "momentum", "continuous", "--bogus", "1") == 2
    assert run_in(tmp_path / "c", "landau", "hall", "--voltage", "2") == 0
    assert run_in(tmp_path / "d", "well", "energies") == 0
    assert not (tmp_path / "b").exists()
    rows = {name: (tmp_path / name / "well_energies.csv").read_text().splitlines() for name in "ad"}
    assert len(rows["a"]) == 1 + 3 and len(rows["d"]) == 1 + 10
    hall = (tmp_path / "c" / "landau_hall.csv").read_text().splitlines()
    assert hall[0] == "quantity,value" and len(hall) == 5


def test_failed_check_returns_one(tmp_path, capsys):
    # A momentum window far too narrow to hold the spectrum's mass: the
    # normalization check must fail, yet the table is still written.
    code = run_in(tmp_path, "momentum", "continuous", "--p-max", "0.1", "--count", "11")
    assert code == 1
    assert "FAIL" in capsys.readouterr().out
    assert (tmp_path / "momentum_continuous.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("well", "energies", "--n-max", "0"),
        ("momentum", "continuous", "--count", "10"),
        ("momentum", "discrete", "--k-max", "0"),
        ("landau", "state", "--level", "-2"),
        ("release", "farfield", "--t", "0"),
        # A deleted option: the far field always probes six spike momenta.
        ("release", "farfield", "--probe-max", "3"),
        ("nonsense",),
        ("well", "nonsense"),
        ("landau", "state", "--level", "5000"),
        ("landau", "state", "--gauge", "symmetric", "--level", "60", "--angular", "30"),
        # A ring index past the float range: once an OverflowError traceback.
        ("landau", "state", "--gauge", "symmetric", "--angular", str(10**400)),
        # Ring grids past the probe budget: once a 1.65 TiB allocation error.
        ("landau", "state", "--gauge", "symmetric", "--angular", str(10**20)),
        ("landau", "state", "--gauge", "symmetric", "--level", str(10**20)),
        # Non-finite flags: once an OverflowError traceback or a NaN table.
        ("release", "evolve", "--t", "inf"),
        ("landau", "degeneracy", "--edge-x", "inf"),
        ("landau", "state", "--edge-x", "inf"),
        ("momentum", "compare", "--window", "inf"),
        # Finite flags whose phase span overflows to inf meet the node budget.
        ("release", "farfield", "--t", "1e-320"),
        ("momentum", "compare", "--window", "1.7e308"),
        ("landau", "hall", "--voltage", "nan"),
        ("landau", "hall", "--voltage", "inf"),
        # The grid edge aliases: an AliasingError, one of the ResolutionErrors.
        ("release", "evolve", "--box-length", "16", "--samples", "2048", "--t", "5"),
        # A deleted option: a unit section applies whenever the config file has one.
        ("well", "energies", "--units", "custom"),
    ],
)
def test_invalid_requests_return_two_without_output(tmp_path, argv, capsys):
    code = run_in(tmp_path / "sub", *argv)
    capsys.readouterr()
    assert code == 2
    assert not (tmp_path / "sub").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        # The flux leaves the floats: once an OverflowError traceback (exit 1).
        (
            ("landau", "degeneracy", "--edge-x", "1e160", "--edge-y", "1e160"),
            "error: B=1.0, Lx=1e+160 and Ly=1e+160 put the flux",
        ),
        (
            ("landau", "degeneracy", "--field", "1e300", "--edge-x", "1e10"),
            "error: B=1e+300, Lx=10000000000.0 and Ly=10.0 put the flux",
        ),
        # The flux underflows to 0: once a ZeroDivisionError traceback (exit 1).
        (
            ("landau", "hall", "--edge-x", "1e-300", "--edge-y", "1e-300"),
            "error: B=1.0, Lx=1e-300 and Ly=1e-300 put the flux",
        ),
        # Once "x axis must be 1-D with at least 5 points", an axis never passed.
        (
            ("landau", "state", "--field", "1e-200"),
            "error: B=1e-200 puts fewer than 5 points on an axis of the default 10.0 x 10.0",
        ),
    ],
    ids=["flux-overflows", "flux-overflows-in-a-strong-field", "flux-underflows", "coarse-grid"],
)
def test_landau_flags_past_the_flux_and_grid_rules_are_named(tmp_path, capsys, argv, message):
    assert run_in(tmp_path / "sub", *argv) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "sub").exists()


RESIDUAL_SCALE = "residual scale hbar * cyclotron_frequency * max|psi|"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv, message",
    [
        # Once a RuntimeWarning, then "test state is too trivial to probe the commutator".
        (("landau", "checks", "--field", "1e-300"), f"B=1e-300 puts the {RESIDUAL_SCALE} = 0 "),
        # Once a RuntimeWarning, then the coarse default grid's message.
        (("landau", "state", "--field", "1e-300"), f"B=1e-300 puts the {RESIDUAL_SCALE} = 0 "),
        # Once exit 1 with a nan eigenvalue residual and a CSV.
        (
            ("landau", "state", "--gauge", "symmetric", "--field", "1e-300"),
            f"B=1e-300 puts the {RESIDUAL_SCALE} = 0 ",
        ),
        # The scale is subnormal, not 0.
        (
            ("landau", "checks", "--field", "1e-210"),
            f"B=1e-210 puts the {RESIDUAL_SCALE} = 3.69829e-316 ",
        ),
        # Once overflow warnings and nine FAIL lines reading nan.
        (("landau", "checks", "--field", "1e300"), f"B=1e+300 puts the {RESIDUAL_SCALE} = inf "),
    ],
    ids=["checks-underflow", "state-underflow", "ring-underflow", "subnormal", "overflow"],
)
def test_landau_residual_scale_outside_the_floats_is_named(tmp_path, capsys, argv, message):
    assert run_in(tmp_path / "sub", *argv) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "sub").exists()


def test_vanishing_window_is_named(tmp_path, capsys):
    # p +- 1e-300 rounds to p: the error names the window, not an empty interval.
    assert run_in(tmp_path / "sub", "momentum", "compare", "--window", "1e-300") == 2
    assert "error: window_half_width 1e-300 vanishes" in capsys.readouterr().err
    assert not (tmp_path / "sub").exists()


@pytest.mark.parametrize("n", [1, 2])
def test_parity_phase_fails_for_a_shifted_state(tmp_path, capsys, monkeypatch, n):
    """A state shifted by 1e-6 a has no definite parity: its amplitude gains
    an off-parity component of about 1e-6 of its peak, past the 1e-12 limit."""

    class Shifted(Eigenfunction):
        def __call__(self, x):
            return super().__call__(np.asarray(x) - 1e-6 * self.spec.half_width)

    assert run_in(tmp_path / "good", "momentum", "continuous", "--n", str(n)) == 0
    assert "CHECK parity-phase: PASS" in capsys.readouterr().out
    monkeypatch.setattr("boxmode.momentum_continuous.Eigenfunction", Shifted)
    assert run_in(tmp_path / "shifted", "momentum", "continuous", "--n", str(n)) == 1
    line = re.search(r"CHECK parity-phase: FAIL \(residual=(\S+)\)", capsys.readouterr().out)
    assert 1e-7 < float(line[1]) < 1e-5


def test_momentum_continuous_past_node_budget(tmp_path, capsys):
    # n = 1000 would need a 16,642-node rule; its leggauss matrix alone is 2.2 GB.
    start = time.perf_counter()
    code = run_in(tmp_path / "sub", "momentum", "continuous", "--n", "1000")
    elapsed = time.perf_counter() - start
    assert code == 2
    assert "budget 2048" in capsys.readouterr().err
    assert not (tmp_path / "sub").exists()
    assert elapsed < 1.0


def test_release_evolve_past_sample_budget(tmp_path, capsys):
    # The suggested grid at t = 1e4 holds 2^28 samples, 4 GiB per complex array.
    start = time.perf_counter()
    code = run_in(tmp_path / "sub", "release", "evolve", "--t", "1e4")
    elapsed = time.perf_counter() - start
    assert code == 2
    assert "budget 16777216" in capsys.readouterr().err
    assert not (tmp_path / "sub").exists()
    assert elapsed < 1.0


@pytest.mark.parametrize(
    "argv",
    [
        # Once a 58.2 TiB, 745 GiB and 745 GiB allocation error (exit 1).
        ("landau", "state", "--edge-x", "1e12"),
        ("well", "eigenfunction", "--samples", "100000000001"),
        ("momentum", "continuous", "--count", "100000000001"),
        # Past the float range: named whole, not an OverflowError.
        ("well", "eigenfunction", "--samples", str(10**400 + 1)),
    ],
)
def test_grids_past_sample_budget_exit_two_before_allocating(tmp_path, capsys, argv):
    start = time.perf_counter()
    code = run_in(tmp_path / "sub", *argv)
    elapsed = time.perf_counter() - start
    assert code == 2
    assert "exceeds the budget 16777216" in capsys.readouterr().err
    assert not (tmp_path / "sub").exists()
    assert elapsed < 1.0


def test_level_table_past_sample_budget_exits_two_before_the_loop(tmp_path, capsys, monkeypatch):
    """10^8 levels once ran a Python loop toward ~20 GiB; no level is computed now."""

    def boom(self, n):
        raise AssertionError("the level loop ran")

    monkeypatch.setattr(WellSpec, "energy", boom)
    code = run_in(tmp_path / "sub", "well", "energies", "--n-max", "100000000")
    assert code == 2
    # The budget counts levels here, and the message says so.
    assert "error: a 1e+08-level table exceeds the budget 16777216\n" in capsys.readouterr().err
    assert not (tmp_path / "sub").exists()


@pytest.mark.parametrize(
    "argv, extra",
    [
        (("well", "energies", "--bogus", "1"), "--bogus 1"),
        (("momentum", "continuous", "--n", "2", "--bogus"), "--bogus"),
        (("landau", "hall", "extra"), "extra"),
    ],
)
def test_unknown_leaf_argument_is_reported_by_the_leaf(tmp_path, capsys, argv, extra):
    """Once the top-level usage; now the leaf's usage and its own prefix."""
    leaf = " ".join(argv[:2])
    code = run_in(tmp_path / "sub", *argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"usage: boxmode {leaf} [-h]")
    assert err.endswith(f"boxmode {leaf}: error: unrecognized arguments: {extra}\n")
    assert not (tmp_path / "sub").exists()


@pytest.mark.parametrize("n, k_max", [(3, 1), (4, 1), (5, 2), (6, 2)])
def test_k_max_below_the_spikes_exits_two(tmp_path, capsys, n, k_max):
    argv = ("momentum", "discrete", "--n", str(n), "--k-max", str(k_max))
    assert run_in(tmp_path / "sub", *argv) == 2
    assert f"--k-max must be at least {(n + 1) // 2}, got {k_max}" in capsys.readouterr().err
    assert not (tmp_path / "sub").exists()


def test_probe_step_follows_level_and_ring_index():
    spec = LandauSpec()
    levels = (0, 1, 10, 40, 120, 200)
    steps = [_probe_step(spec, 2 * n + 1, 8.0, columns=33) for n in levels]
    assert [round(1.0 / 8.0 / step) for step in steps] == [1, 1, 2, 8, 16, 16]
    # A ring sizes from the larger of its level and its ring index.
    assert [_probe_step(spec, w, 8.0) for w in (3, 31, 61)] == [1.0 / 8.0, 1.0 / 32.0, 1.0 / 32.0]


@pytest.mark.parametrize("field", [0.8, 2.5])
def test_low_level_probes_keep_the_eighth_length_ridge_grid(field):
    # Levels 0 and 1 probe exactly the grid `landau checks` always used.
    spec = LandauSpec(B=field)
    length, p_x = spec.magnetic_length, 0.5 * spec.hbar / spec.magnetic_length
    grid = (
        _axis(0.0, 4.0 * length, length / 8.0),
        spec.guiding_line(p_x) + _centered_axis(8.0 * length, length / 8.0),
    )
    for n in (0, 1):
        state = landau_gauge_state(spec, n, p_x, grid=grid)
        expected = hamiltonian_residual(spec, landau_gauge(field), state, level_energy(spec, n))
        assert ridge_residual(spec, n, p_x) == expected


def test_symmetric_state_at_the_probe_step_is_built_once(tmp_path, capsys, monkeypatch):
    builds = []

    def counted(*args, **kwargs):
        builds.append(args)
        return symmetric_gauge_state(*args, **kwargs)

    # The handler builds through the cli binding, the probe through landau's.
    monkeypatch.setattr("boxmode.cli.symmetric_gauge_state", counted)
    monkeypatch.setattr("boxmode.landau.symmetric_gauge_state", counted)
    argv = ("landau", "state", "--gauge", "symmetric", "--level", "3", "--angular", "8")
    assert run_in(tmp_path, *argv) == 0
    capsys.readouterr()
    assert len(builds) == 1
    # The reused state gives the residual a fresh build on the probe grid gives.
    spec = LandauSpec()
    state = symmetric_gauge_state(spec, 3, 8)
    assert ring_residual(spec, 3, 8, state) == ring_residual(spec, 3, 8)


@pytest.mark.parametrize("level", ["5000", "20000"])
def test_rejected_level_never_builds_the_default_ridge(tmp_path, capsys, monkeypatch, level):
    builds = []

    def counted(*args, **kwargs):
        builds.append(args)
        return landau_gauge_state(*args, **kwargs)

    # The handler builds the default grid through the cli binding; the probe
    # builds its own through landau's, which stays uncounted.
    monkeypatch.setattr("boxmode.cli.landau_gauge_state", counted)
    assert run_in(tmp_path / "sub", "landau", "state", "--level", level) == 2
    assert f"exceeds {PROBE_BUDGET} points" in capsys.readouterr().err
    assert builds == []


@pytest.mark.parametrize("field", [0.37, 1.0, 2.5, 7.3])
def test_default_ring_grid_steps_by_an_eighth_length(field):
    # The default grid takes its step from the probe rule at one wave, which
    # must be magnetic_length / 8 bit for bit.
    spec = LandauSpec(B=field)
    axis = _centered_axis(_ring_extent(spec, 1, 2), spec.magnetic_length / 8.0)
    state = symmetric_gauge_state(spec, 1, 2)
    assert np.array_equal(state.x, axis) and np.array_equal(state.y, axis)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_probe_past_budget_raises():
    spec = LandauSpec()
    for probe in (
        # The default ring grid, before a single point is allocated.
        lambda: symmetric_gauge_state(spec, 0, 10**20),
        lambda: ring_residual(spec, 60, 30),
        lambda: ring_residual(spec, 0, 400),
        lambda: ridge_residual(spec, 5000, 0.5),
        # Refining for a huge momentum stops at the budget, also where its
        # wave count overflows a float; a non-finite one is rejected by name
        # first (tests/test_edge_inputs.py).
        lambda: ridge_residual(spec, 0, 1e6),
        lambda: ridge_residual(spec, 0, 1e200),
    ):
        with pytest.raises(ResolutionError, match=f"exceeds {PROBE_BUDGET} points"):
            probe()


@pytest.mark.filterwarnings("error::UserWarning")
def test_positive_charge_default_probe_stays_in_the_rectangle(tmp_path, capsys):
    # A guiding line outside [0, Ly] warns; the default p_x puts it at l/2.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[landau]\ncharge = 1.0\n", encoding="utf-8")
    assert run_in(tmp_path / "out", "landau", "state", "--config", str(cfg)) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_guiding_line_outside_the_rectangle_warns_once(tmp_path, capsys):
    # The default rectangle misses the ridge at y = 20; the probe's grid holds it.
    with pytest.warns(UserWarning) as caught:
        assert run_in(tmp_path, "landau", "state", "--p-x", "20") == 0
    capsys.readouterr()
    assert [str(w.message) for w in caught] == [
        "guiding line y = 20 lies outside [0, 10.0]; "
        "the default rectangle does not contain this state"
    ]


def test_help_exits_cleanly(capsys):
    assert run(["--help"]) == 0
    assert run(["well", "--help"]) == 0
    capsys.readouterr()


LEAVES = {
    "well": ("energies", "eigenfunction"),
    "momentum": ("continuous", "discrete", "compare"),
    "release": ("evolve", "farfield"),
    "landau": ("state", "degeneracy", "hall", "checks"),
}


def _parser_probes():
    yield (), ("--help",), ("bogus",), ("bogus", "--help")
    for group, leaves in LEAVES.items():
        yield (group,), (group, "--help"), (group, "bogus")
        yield from ((group, leaf, "--help") for leaf in leaves)


def _outcome(call, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = call(list(argv))
        except SystemExit as exc:
            code = 0 if exc.code in (0, None) else 2
    return out.getvalue(), err.getvalue(), code


@pytest.mark.parametrize(
    "argv",
    [argv for probes in _parser_probes() for argv in probes],
    ids=lambda argv: " ".join(argv) or "no-arguments",
)
def test_group_scoped_parser_reads_as_the_full_tree(argv):
    """``run`` builds only the named group's leaves; every help text, usage
    error and exit code must still be the full tree's."""
    full = _outcome(build_parser().parse_args, argv)
    assert full[2] in (0, 2)
    assert _outcome(run, argv) == full


def test_farfield_run_never_imports_numpy_polynomial(tmp_path):
    """The default 256-node rule ships as a constant: a far-field run solves
    no leggauss eigenproblem, so numpy.polynomial is never imported."""
    src = Path(__file__).resolve().parents[1] / "src"
    script = (
        "import sys\n"
        "from boxmode.cli import run\n"
        f"code = run(['release', 'farfield', '--out', {str(tmp_path)!r}])\n"
        "print(code, 'numpy.polynomial' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "0 False"


def test_missing_config_file(tmp_path, capsys):
    code = run_in(tmp_path, "well", "energies", "--config", str(tmp_path / "no.cfg"))
    capsys.readouterr()
    assert code == 2


def test_custom_units_from_config(tmp_path, capsys):
    # A unit-section key applies as given; the report names the units custom.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("digits = 8\n[well]\nhalf_width = 2.0\nmass = 0.5\n", encoding="utf-8")
    code = run_in(tmp_path, "well", "energies", "--n-max", "2", "--config", str(cfg))
    assert code == 0
    assert f"config: units=custom digits=8 out={tmp_path}\n" in capsys.readouterr().out
    lines = (tmp_path / "well_energies.csv").read_text(encoding="utf-8").splitlines()
    # Wider, lighter well: pi^2/16 and pi^2/4 at eight digits.
    assert lines[1] == f"1,{np.pi**2 / 16.0:.8e}"
    assert lines[2] == f"2,{np.pi**2 / 4.0:.8e}"


def test_non_finite_config_unit_returns_two(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[well]\nhalf_width = inf\n", encoding="utf-8")
    code = run_in(tmp_path / "sub", "well", "energies", "--config", str(cfg))
    assert code == 2
    assert "half_width must be positive and finite" in capsys.readouterr().err
    assert not (tmp_path / "sub").exists()


@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param(
            "[well]\nhbr = 0.7\n",
            "line 2: key 'hbr' in [well] is unknown", id="misspelled-key",
        ),
        pytest.param(
            "[well]\ndigits = 9\n",
            "line 2: key 'digits' in [well] is unknown", id="key-in-wrong-section",
        ),
        pytest.param(
            "[landau]\nB = 2.0\n",
            "line 2: key 'B' in [landau] is unknown", id="flag-only-field",
        ),
        pytest.param(
            "[wel]\nhbar = 0.7\n",
            "line 1: unknown section [wel]", id="unknown-section",
        ),
        pytest.param(
            "[well]\nhbar = 0.7\nmass = 2.0\n\nhbar = 0.8\n",
            "line 5: key 'hbar' in [well] is given twice", id="repeated-key",
        ),
        pytest.param(
            "[landau]\ncharge = minus one\n",
            "line 2: key 'charge' in [landau]: could not convert", id="bad-value-unused-section",
        ),
        pytest.param(
            "units = custom\n[well]\nhbar = 0.7\n",
            "line 1: key 'units' in [global] is unknown; known: digits, out", id="units-key",
        ),
    ],
)
def test_malformed_config_exits_two_naming_line_and_key(tmp_path, capsys, text, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text, encoding="utf-8")
    code = run_in(tmp_path / "sub", "well", "energies", "--config", str(cfg))
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert message in err
    assert not (tmp_path / "sub").exists()


def test_landau_units_from_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "[landau]\ncharge = 2.0\nmass = 0.5\nlight_speed = 3.0\nhbar = 1.3\n",
        encoding="utf-8",
    )
    assert run_in(tmp_path, "landau", "hall", "--config", str(cfg)) == 0
    assert "config: units=custom" in capsys.readouterr().out
    lines = (tmp_path / "landau_hall.csv").read_text(encoding="utf-8").splitlines()
    table = dict(line.split(",") for line in lines[1:])
    assert float(table["conductance_quantum"]) == pytest.approx(4.0 / (2.0 * np.pi * 1.3))
    # charge * light_speed * voltage / flux over the flag-set 10 x 10 rectangle
    assert float(table["per_electron_current"]) == pytest.approx(0.06)


def test_closed_stdout_exits_without_traceback(tmp_path):
    """A reader that quits early (``| head -1``) gets no traceback on stderr."""
    src = Path(__file__).resolve().parents[1] / "src"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "boxmode.cli", "well", "energies", "--out", str(tmp_path)],
            env={**os.environ, "PYTHONPATH": str(src)},
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert result.returncode == 141
    assert "Traceback" not in result.stderr
    assert "BrokenPipeError" not in result.stderr


def test_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("digits = 4\nout = elsewhere\n", encoding="utf-8")
    code = run_in(
        tmp_path, "well", "energies", "--n-max", "1",
        "--config", str(cfg), "--digits", "6",
    )
    assert code == 0
    assert f"config: units=natural digits=6 out={tmp_path}\n" in capsys.readouterr().out
    assert not Path("elsewhere").exists()
    lines = (tmp_path / "well_energies.csv").read_text(encoding="utf-8").splitlines()
    assert lines[1] == "1,1.233701e+00"


def test_release_evolve_run(tmp_path, capsys):
    code = run_in(tmp_path, "release", "evolve", "--t", "1.0")
    assert code == 0
    out = capsys.readouterr().out
    assert "norm-conservation: PASS" in out
    assert "edge-density: PASS" in out
    lines = (tmp_path / "release_evolve.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "x,psi_re,psi_im,density"


@pytest.mark.parametrize("half_width", ["0.7", "1.1", "3.3"])
def test_release_evolve_energy_check_reads_the_snapshot_box(tmp_path, capsys, half_width):
    # At these widths x[1] - x[0] rounds away from the grid step, so a box
    # rebuilt from the snapshot's x is another grid than the snapshot's own.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[well]\nhalf_width = {half_width}\n", encoding="utf-8")
    assert run_in(tmp_path / "out", "release", "evolve", "--config", str(cfg)) == 0
    out = capsys.readouterr().out
    residual = re.search(r"energy-conservation: PASS \(residual=(\S+)\)", out).group(1)
    assert float(residual) < 1e-13


def test_release_evolve_needs_full_box(tmp_path, capsys):
    code = run_in(tmp_path / "sub", "release", "evolve", "--box-length", "64.0")
    capsys.readouterr()
    assert code == 2
    assert not (tmp_path / "sub").exists()


def test_release_farfield_run(tmp_path, capsys):
    code = run_in(tmp_path, "release", "farfield", "--t", "50")
    assert code == 0
    assert "farfield-deviation: PASS" in capsys.readouterr().out
    lines = (tmp_path / "release_farfield.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "p,rescaled_density"
    assert len(lines) == 2002


def test_landau_degeneracy_run(tmp_path, capsys):
    assert run_in(tmp_path, "landau", "degeneracy") == 0
    capsys.readouterr()
    text = (tmp_path / "landau_degeneracy.csv").read_text(encoding="utf-8")
    lines = text.splitlines()
    assert lines[0] == "method,value"
    table = dict(line.split(",") for line in lines[1:])
    assert table["flux_count"] == "15"
    assert table["guiding_centers"] == "16"
    assert table["rings"] == "16"


def test_landau_hall_zero_voltage_returns_two(tmp_path, capsys):
    # One voltage rule: the library's, with its message.
    assert run_in(tmp_path / "sub", "landau", "hall", "--voltage", "0") == 2
    assert "voltage must be finite and nonzero, got 0.0" in capsys.readouterr().err
    assert not (tmp_path / "sub").exists()


def test_landau_hall_subnormal_voltage_returns_two(tmp_path, capsys):
    assert run_in(tmp_path / "sub", "landau", "hall", "--voltage", "1e-320") == 2
    assert "voltage must not be subnormal, got 1e-320" in capsys.readouterr().err
    assert not (tmp_path / "sub").exists()


def test_landau_hall_run(tmp_path, capsys):
    assert run_in(tmp_path, "landau", "hall", "--voltage", "2.5") == 0
    out = capsys.readouterr().out
    assert "conductance-quantization: PASS" in out
    lines = (tmp_path / "landau_hall.csv").read_text(encoding="utf-8").splitlines()
    table = dict(line.split(",") for line in lines[1:])
    assert float(table["conductance"]) == pytest.approx(1.0 / (2.0 * np.pi), rel=1e-12)
    assert float(table["conductance_quantum"]) == pytest.approx(
        1.0 / (2.0 * np.pi), rel=1e-12
    )
