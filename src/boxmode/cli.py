"""Command line: compute tables, run consistency checks, write CSV files.

Grammar: ``boxmode <group> <command> [--flag value]...`` with groups
``well``, ``momentum``, ``release``, and ``landau``. Every command prints a
small report with one ``CHECK name: PASS|FAIL (residual=...)`` line per
consistency check, writes deterministic CSV files into ``--out``, and exits
0 when all checks pass, 1 when any fails, and 2 for invalid arguments
(in which case nothing is written). Float flags must be finite.

``run`` builds the group's spec (``WellSpec``, or ``LandauSpec`` for
``landau``) from the flags and the ``--config`` file (``_schema()``) and
hands it to the leaf's handler, which only computes: it returns its checks
and tables, and ``run`` prints and writes them.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .landau import (
    RESIDUAL_LIMIT,
    LandauSpec,
    _ridge_grid,
    commutator_check,
    degeneracy,
    gaussian_test_state,
    hall_current,
    hamiltonian_residual,
    landau_gauge,
    landau_gauge_state,
    level_energy,
    ridge_residual,
    ring_residual,
    symmetric_gauge,
    symmetric_gauge_state,
)
from .momentum_continuous import (
    MomentumGrid,
    analytic_density,
    default_grid,
    spectrum,
)
from .momentum_discrete import (
    convergence_report,
    eigenstate_spectrum,
    expand,
    matched_phase,
)
from .quadrature import _check_budget, _index
from .release import (
    EDGE_DENSITY_LIMIT,
    evolve_free,
    farfield_map,
)
from .report import CheckResult, all_passed, write_csv
from .well import Eigenfunction, WellSpec


class ConfigError(ValueError):
    """The configuration file or flag set cannot be used."""


def _digits(value) -> int:
    digits = int(value)
    if not 1 <= digits <= 17:
        raise ValueError(f"must lie in 1..17, got {digits}")
    return digits


# LandauSpec fields that flags set, never the config file: field -> flag dest.
_LANDAU_FLAGS = {"B": "field", "Lx": "edge_x", "Ly": "edge_y"}


@functools.cache
def _schema() -> dict[str, dict]:
    """The config format: section -> key -> parser of the value text; the
    unit sections take the spec fields, so their defaults are the specs'."""
    return {
        "global": {"digits": _digits, "out": Path},
        "well": {f.name: float for f in fields(WellSpec)},
        "landau": {f.name: float for f in fields(LandauSpec) if f.name not in _LANDAU_FLAGS},
    }


def _parsed(parse, value, where: str):
    try:
        return parse(value)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


@dataclass
class RunConfig:
    """Resolved run settings, each field checked by its ``global`` parser;
    ``units`` is set once the config file is read (``_resolve_config``)."""

    digits: int = 12
    out: Path = Path(".")
    units: str = field(default="natural", init=False)

    def __post_init__(self):
        for key, parse in _schema()["global"].items():
            setattr(self, key, _parsed(parse, getattr(self, key), key))


def parse_config(text: str) -> dict[str, dict]:
    """Parse the flat ``key = value`` format with ``[section]`` headers into
    section -> key -> parsed value, checking each line against ``_schema()``.

    Lines starting with ``#`` and blank lines are skipped; keys before any
    header land in the ``global`` section. An unknown section, an unknown or
    repeated key and a value its parser rejects raise ``ConfigError`` naming
    the line.
    """
    schema = _schema()
    values = {section: {} for section in schema}
    section = "global"
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in schema:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        key, _, value = (part.strip() for part in line.partition("="))
        where = f"line {lineno}: key {key!r} in [{section}]"
        if key not in schema[section]:
            raise ConfigError(f"{where} is unknown; known: {', '.join(schema[section])}")
        if key in values[section]:
            raise ConfigError(f"{where} is given twice")
        values[section][key] = _parsed(schema[section][key], value, where)
    return values


# ---------------------------------------------------------------------------
# command handlers: (args, spec, rc) -> (checks, tables[, info lines])


def _emit(args, rc: RunConfig, checks, tables, info=()) -> int:
    """Print the report, write the tables, and return the exit code.

    The report opens with the leaf's ``group`` and ``command`` from the
    parsed ``args``. ``tables`` maps file names to (header, rows) pairs.
    Files are written only after every computation succeeded, so argument
    errors never leave partial output behind.
    """
    print(f"boxmode {args.group} {args.command}")
    print(f"config: units={rc.units} digits={rc.digits} out={rc.out}")
    for line in info:
        print(line)
    for result in checks:
        print(result.line(rc.digits))
    rc.out.mkdir(parents=True, exist_ok=True)
    for name, (header, rows) in tables.items():
        path = write_csv(rc.out / name, header, rows, digits=rc.digits)
        print(f"wrote: {path}")
    return 0 if all_passed(checks) else 1


def cmd_well_energies(args, spec: WellSpec, rc: RunConfig):
    n_max = _index(args.n_max, "--n-max", 1)
    _check_budget(n_max, "level table")
    levels = range(1, n_max + 1)
    energies = [spec.energy(n) for n in levels]
    ratio_defect = max(abs(e / (n * n * energies[0]) - 1.0) for n, e in zip(levels, energies))
    diffs = np.diff(energies)
    monotone_defect = float(max(0.0, -diffs.min())) if diffs.size else 0.0
    checks = [
        CheckResult("energies-increasing", monotone_defect, 0.0),
        CheckResult("quadratic-ladder", ratio_defect, 1e-12),
    ]
    rows = [(n, e) for n, e in zip(levels, energies)]
    return checks, {"well_energies.csv": (("n", "energy"), rows)}


def cmd_well_eigenfunction(args, spec: WellSpec, rc: RunConfig):
    if args.samples < 9 or args.samples % 2 == 0:
        raise ConfigError(f"--samples must be an odd integer >= 9, got {args.samples}")
    _check_budget(args.samples, "sample grid")
    psi = Eigenfunction(spec, args.n)
    x = np.linspace(-spec.half_width, spec.half_width, args.samples)
    values = psi(x)
    norm_defect = abs(float(np.trapezoid(values**2, x)) - 1.0)
    parity_defect = float(np.abs(values - psi.parity * values[::-1]).max())
    boundary = max(abs(values[0]), abs(values[-1]))
    checks = [
        CheckResult("trapezoid-normalization", norm_defect, 1e-9),
        CheckResult("parity-symmetry", parity_defect, 1e-13),
        CheckResult("vanishes-at-walls", boundary, 0.0),
    ]
    rows = np.column_stack((x, values))
    return checks, {"well_eigenfunction.csv": (("x", "psi"), rows)}


def cmd_momentum_continuous(args, spec: WellSpec, rc: RunConfig):
    p_max = default_grid(spec, args.n).p_max if args.p_max is None else args.p_max
    grid = MomentumGrid(p_max=p_max, count=args.count)
    spec_n = spectrum(spec, args.n, grid=grid)
    closed_form = analytic_density(spec, args.n, grid.points)
    density_defect = float(np.abs(spec_n.density - closed_form).max())
    integral = spec_n.norm_trapezoid()
    # Odd levels (even states) transform to real amplitudes, even levels to imaginary ones.
    amp = spec_n.amplitude
    off_parity = amp.imag if Eigenfunction(spec, args.n).parity == 1 else amp.real
    parity_defect = float(np.abs(off_parity).max() / np.abs(amp).max())
    checks = [
        CheckResult("density-matches-closed-form", density_defect, 1e-10),
        # 0.999 <= integral <= 1 + 1e-9: integral - 1 is exact for integral in [0.5, 2].
        CheckResult("trapezoid-normalization", integral - 1.0, (0.999 - 1.0, (1.0 + 1e-9) - 1.0)),
        CheckResult("parity-phase", parity_defect, 1e-12),
    ]
    rows = np.column_stack((grid.points, spec_n.density))
    return checks, {"momentum_continuous.csv": (("p", "probability_density"), rows)}


def cmd_momentum_discrete(args, spec: WellSpec, rc: RunConfig):
    phase = matched_phase(args.n)
    # Level n's spikes sit at ladder index +-n/2 (even n), -(n+1)/2 and (n-1)/2 (odd n).
    _index(args.k_max, "--k-max", (args.n + 1) // 2)
    decomposition = expand(spec, Eigenfunction(spec, args.n), phase, args.k_max)
    spike = np.isin(decomposition.indices, eigenstate_spectrum(spec, args.n).indices)
    weights = decomposition.weights
    checks = [
        CheckResult("completeness-defect", decomposition.completeness_defect(), 1e-8),
        CheckResult("spike-weights-half", np.abs(weights[spike] - 0.5).max(initial=0.0), 1e-12),
        CheckResult("off-spike-weights", weights[~spike].max(initial=0.0), 1e-12),
    ]
    rows = decomposition.entries
    return checks, {"momentum_discrete.csv": (("k", "momentum", "weight"), rows)}


def cmd_momentum_compare(args, spec: WellSpec, rc: RunConfig):
    continuous = spectrum(spec, args.n)
    spikes = eigenstate_spectrum(spec, args.n)
    report = convergence_report(spec, args.n, window_half_width=args.window)
    info = [
        f"window half-width {report.window_half_width:.{rc.digits}e}: "
        f"continuous mass {report.mass_in_window:.{rc.digits}e}, "
        f"defect {report.defect:.{rc.digits}e}"
    ]
    checks = [
        CheckResult("spike-weight-total", spikes.total_weight() - 1.0, 1e-12),
        # 0 < mass < 1: 5e-324 and 1 - 2**-53 are the nearest floats inside.
        CheckResult("window-mass-bounded", report.mass_in_window, (5e-324, 1.0 - 2.0**-53)),
    ]
    rows = np.column_stack((continuous.grid.points, continuous.density))
    spike_rows = [(momentum, weight) for _, momentum, weight in spikes.entries]
    tables = {
        "momentum_compare.csv": (("p", "continuous_density"), rows),
        "momentum_compare_spikes.csv": (("momentum", "weight"), spike_rows),
    }
    return checks, tables, info


def cmd_release_evolve(args, spec: WellSpec, rc: RunConfig):
    if (args.box_length is None) != (args.samples is None):
        raise ConfigError("--box-length and --samples must be given together")
    box = None if args.box_length is None else (args.box_length, args.samples)
    snapshot = evolve_free(spec, args.n, args.t, box=box)
    initial, final = snapshot._energies
    energy_drift = abs(final / initial - 1.0)
    checks = [
        CheckResult("norm-conservation", snapshot.norm() - 1.0, 1e-9),
        CheckResult("energy-conservation", energy_drift, 1e-9),
        CheckResult("edge-density", snapshot.edge_density, EDGE_DENSITY_LIMIT / spec.half_width),
    ]
    rows = np.column_stack((snapshot.x, snapshot.psi.real, snapshot.psi.imag, snapshot.density))
    return checks, {"release_evolve.csv": (("x", "psi_re", "psi_im", "density"), rows)}


def cmd_release_farfield(args, spec: WellSpec, rc: RunConfig):
    p = MomentumGrid(p_max=6.0 * spec.spike_momentum(args.n), count=2001).points
    density = farfield_map(spec, args.n, args.t, p)
    deviation = float(np.abs(density - analytic_density(spec, args.n, p)).max())
    rows = np.column_stack((p, density))
    checks = [CheckResult("farfield-deviation", deviation, 1e-3)]
    return checks, {"release_farfield.csv": (("p", "rescaled_density"), rows)}


def cmd_landau_state(args, spec: LandauSpec, rc: RunConfig):
    if args.gauge == "landau":
        p_x = spec.probe_momentum if args.p_x is None else args.p_x
        # The probe's budget rejects a level before the default grid is built.
        residual = ridge_residual(spec, args.level, p_x)
        state = landau_gauge_state(spec, args.level, p_x)
    else:
        state = symmetric_gauge_state(spec, args.level, args.angular)
        residual = ring_residual(spec, args.level, args.angular, state)
    checks = [
        CheckResult("norm-defect", state.norm() - 1.0, 1e-10),
        CheckResult("eigenvalue-residual", residual, RESIDUAL_LIMIT),
    ]
    x, y = np.repeat(state.x, state.y.size), np.tile(state.y, state.x.size)
    psi = state.values
    rows = np.column_stack([a.ravel() for a in (x, y, psi.real, psi.imag, state.density)])
    header = ("x", "y", "psi_re", "psi_im", "density")
    return checks, {"landau_state.csv": (header, rows)}


def cmd_landau_degeneracy(args, spec: LandauSpec, rc: RunConfig):
    report = degeneracy(spec)
    checks = [CheckResult("counts-within-one", report.spread, 1.0)]
    rows = [
        ("flux_ratio", report.ratio),
        ("flux_count", report.flux_count),
        ("guiding_centers", report.guiding_center_count),
        ("rings", report.ring_count),
    ]
    return checks, {"landau_degeneracy.csv": (("method", "value"), rows)}


def cmd_landau_hall(args, spec: LandauSpec, rc: RunConfig):
    report = hall_current(spec, args.voltage)
    quantization_defect = abs(report.conductance_in_quanta - 1.0)
    checks = [CheckResult("conductance-quantization", quantization_defect, 1e-12)]
    rows = [
        ("per_electron_current", report.per_electron_current),
        ("per_level_current", report.per_level_current),
        ("conductance", report.conductance),
        ("conductance_quantum", report.quantum),
    ]
    return checks, {"landau_hall.csv": (("quantity", "value"), rows)}


def cmd_landau_checks(args, spec: LandauSpec, rc: RunConfig):
    gauge_l = landau_gauge(spec.B)
    gauge_s = symmetric_gauge(spec.B)
    gauge_0 = landau_gauge(0.0)
    p_probe = spec.probe_momentum

    residuals = {f"landau-gauge-level-{n}": ridge_residual(spec, n, p_probe) for n in (0, 1)}
    residuals |= {f"symmetric-gauge-ring-{m}": ring_residual(spec, 0, m) for m in (0, 1, 2)}
    checks = [CheckResult(name, residual, RESIDUAL_LIMIT) for name, residual in residuals.items()]

    # The level-0 probe's rectangle again at half its step.
    fine = landau_gauge_state(spec, 0, p_probe, grid=_ridge_grid(spec, 0, p_probe, split=2))
    r_fine = hamiltonian_residual(spec, gauge_l, fine, level_energy(spec, 0))
    ratio = checks[0].residual / r_fine if r_fine > 0 else np.inf
    checks.append(CheckResult("refinement-drop-at-least-4x", ratio, (4.0, np.inf)))

    probe = gaussian_test_state(spec)
    checks += [
        CheckResult("commutator-landau-gauge", commutator_check(spec, gauge_l, probe), 1e-3),
        CheckResult("commutator-symmetric-gauge", commutator_check(spec, gauge_s, probe), 1e-3),
        CheckResult("commutator-zero-field", commutator_check(spec, gauge_0, probe), 1e-10),
    ]

    rows = [(c.name, c.residual) for c in checks]
    return checks, {"landau_checks.csv": (("check", "residual"), rows)}


# ---------------------------------------------------------------------------
# parser


def _finite(text: str) -> float:
    """argparse type for float flags: a number, but neither inf nor nan."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number: {text!r}") from None
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--config", type=Path, default=None, help="config file path")
    parser.add_argument("--out", type=Path, default=None, help="output directory")
    parser.add_argument("--digits", type=int, default=None, help="CSV/report precision")


def _leaf(commands, name: str, handler, help_text: str) -> argparse.ArgumentParser:
    sub = commands.add_parser(name, help=help_text)
    _add_common(sub)
    sub.set_defaults(handler=handler, leaf=sub)
    return sub


def _well_leaves(commands):
    p = _leaf(commands, "energies", cmd_well_energies, "level energies table")
    p.add_argument("--n-max", type=int, default=10)
    p = _leaf(commands, "eigenfunction", cmd_well_eigenfunction, "sampled eigenfunction")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--samples", type=int, default=801)


def _momentum_leaves(commands):
    p = _leaf(commands, "continuous", cmd_momentum_continuous, "continuous density")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--p-max", type=_finite, default=None)
    p.add_argument("--count", type=int, default=4001)
    p = _leaf(commands, "discrete", cmd_momentum_discrete, "ladder weights")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--k-max", type=int, default=64)
    p = _leaf(commands, "compare", cmd_momentum_compare, "density plus spike sidecar")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--window", type=_finite, default=None)


def _release_leaves(commands):
    p = _leaf(commands, "evolve", cmd_release_evolve, "evolved snapshot")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--t", type=_finite, default=1.0)
    p.add_argument("--box-length", type=_finite, default=None)
    p.add_argument("--samples", type=int, default=None)
    p = _leaf(commands, "farfield", cmd_release_farfield, "ballistic momentum map")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--t", type=_finite, default=50.0)


def _landau_leaves(commands):
    def landau_leaf(name, handler, help_text):
        sub = _leaf(commands, name, handler, help_text)
        sub.add_argument("--field", type=_finite, default=None)
        sub.add_argument("--edge-x", type=_finite, default=None)
        sub.add_argument("--edge-y", type=_finite, default=None)
        return sub

    p = landau_leaf("state", cmd_landau_state, "sampled level state")
    p.add_argument("--gauge", choices=("landau", "symmetric"), default="landau")
    p.add_argument("--level", type=int, default=0)
    p.add_argument("--p-x", type=_finite, default=None)
    p.add_argument("--angular", type=int, default=0)
    landau_leaf("degeneracy", cmd_landau_degeneracy, "three degeneracy counts")
    p = landau_leaf("hall", cmd_landau_hall, "per-level Hall response")
    p.add_argument("--voltage", type=_finite, default=1.0)
    landau_leaf("checks", cmd_landau_checks, "stencil and commutator battery")


# Group name -> (help, the function adding the group's leaf parsers).
_GROUPS = {
    "well": ("stationary box states", _well_leaves),
    "momentum": ("momentum-space content", _momentum_leaves),
    "release": ("free flight after wall removal", _release_leaves),
    "landau": ("Landau levels on a rectangle", _landau_leaves),
}


@functools.cache
def build_parser(group: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser, built once per process and ``group``.

    Every group parser is always there, so the top-level help and an unknown
    group read the same either way; leaf parsers are built only under
    ``group``, or under every group when it is None. ``run`` passes the
    group its argv names, so a run builds only the leaves it can reach.
    """
    parser = argparse.ArgumentParser(
        prog="boxmode",
        description="Box states in momentum space, sudden release, Landau levels.",
    )
    groups = parser.add_subparsers(dest="group", required=True)
    for name, (help_text, add_leaves) in _GROUPS.items():
        commands = groups.add_parser(name, help=help_text).add_subparsers(
            dest="command", required=True
        )
        if group in (None, name):
            add_leaves(commands)
    return parser


def _resolve_config(args) -> tuple[RunConfig, WellSpec | LandauSpec]:
    """The run settings and the group's spec: flags over file over defaults."""
    text = ""
    if args.config is not None:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
    values = parse_config(text)
    given = {key: getattr(args, key) for key in _schema()["global"]}
    rc = RunConfig(**{**values["global"], **{k: v for k, v in given.items() if v is not None}})
    rc.units = "custom" if values["well"] or values["landau"] else "natural"
    if args.group != "landau":
        return rc, WellSpec(**values["well"])
    flags = {name: getattr(args, dest) for name, dest in _LANDAU_FLAGS.items()}
    return rc, LandauSpec(**values["landau"], **{k: v for k, v in flags.items() if v is not None})


def run(argv=None) -> int:
    """Parse arguments, dispatch, and return the process exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    group = argv[0] if argv and argv[0] in _GROUPS else None
    try:
        args, extra = build_parser(group).parse_known_args(argv)
        if extra:
            # The leaf's own parser reports them, under the leaf's usage line.
            args.leaf.error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        rc, spec = _resolve_config(args)
        return _emit(args, rc, *args.handler(args, spec, rc))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader quit: point stdout at devnull so the exit's flush cannot raise.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141  # 128 + SIGPIPE, what a shell reports for a closed pipe
    sys.exit(code)


if __name__ == "__main__":
    main()
