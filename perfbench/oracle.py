"""Independent checks of every CSV a benchmark op writes.

The closed forms here are written out again rather than imported from
``boxmode``, so a wrong answer in the package cannot vouch for itself. All
ops run in the CLI's natural units (half-width, mass, hbar, |charge| and c
equal to 1).

``verify(op, out_dir)`` returns a list of problems; an empty list means the
op's tables are present, well formed and within every tolerance.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

HALF_WIDTH = 1.0


class Problem(Exception):
    """A table is missing, malformed or misses a tolerance."""


def _flags(op) -> dict[str, str]:
    rest = op[2:]
    return dict(zip(rest[::2], rest[1::2]))


def read_numeric(path: Path, header) -> np.ndarray:
    """Rows of an all-numeric CSV as a 2-D float array; checks its shape."""
    if not path.is_file():
        raise Problem(f"{path.name}: missing")
    head, _, body = path.read_text(encoding="utf-8").partition("\n")
    if head != ",".join(header):
        raise Problem(f"{path.name}: header {head!r}")
    if not body.endswith("\n"):
        raise Problem(f"{path.name}: empty or not LF-terminated")
    cells = body[:-1].replace("\n", ",").split(",")
    rows = body.count("\n")
    if len(cells) != rows * len(header):
        raise Problem(f"{path.name}: ragged rows")
    try:
        values = np.array(cells, dtype=float)
    except ValueError as exc:
        raise Problem(f"{path.name}: non-numeric cell ({exc})") from None
    if not np.all(np.isfinite(values)):
        raise Problem(f"{path.name}: non-finite cell")
    return values.reshape(rows, len(header))


def read_named(path: Path, header) -> dict[str, float]:
    """A two-column (name, value) CSV as a dict."""
    if not path.is_file():
        raise Problem(f"{path.name}: missing")
    lines = path.read_text(encoding="utf-8").split("\n")
    if lines[0] != ",".join(header) or lines[-1] != "":
        raise Problem(f"{path.name}: bad header or termination")
    out = {}
    for line in lines[1:-1]:
        name, _, value = line.partition(",")
        try:
            out[name] = float(value)
        except ValueError:
            raise Problem(f"{path.name}: bad row {line!r}") from None
    return out


def _within(name: str, value: float, limit: float):
    if not abs(value) <= limit:
        raise Problem(f"{name} = {value:.3e} exceeds {limit:.1e}")


# ---------------------------------------------------------------------------
# closed forms


def box_momentum_density(n: int, p) -> np.ndarray:
    """|phi_n(p)|^2 for the hard-wall box on (-a, a), as a sum of sincs.

    phi_n(p) is the Fourier transform of cos(k x)/sqrt(a) (odd n) or
    sin(k x)/sqrt(a) (even n), k = n pi / 2a, which integrates to
    a [S(k - p) +- S(k + p)] / sqrt(2 pi a) with S(u) = sin(u a)/(u a).
    """
    a = HALF_WIDTH
    k = n * np.pi / (2.0 * a)
    p = np.asarray(p, dtype=float)
    sign = 1.0 if n % 2 else -1.0
    lobes = np.sinc((k - p) * a / np.pi) + sign * np.sinc((k + p) * a / np.pi)
    return a * lobes**2 / (2.0 * np.pi)


def box_eigenfunction(n: int, x) -> np.ndarray:
    a = HALF_WIDTH
    k = n * np.pi / (2.0 * a)
    trig = np.cos if n % 2 else np.sin
    return np.where(np.abs(x) < a, trig(k * x) / np.sqrt(a), 0.0)


def _momentum_table(n: int, table: np.ndarray, count: int):
    """Density on the default +-20 k_n grid against the closed form."""
    p_max = 20.0 * n * np.pi / (2.0 * HALF_WIDTH)
    if table.shape[0] != count:
        raise Problem(f"{table.shape[0]} rows, expected {count}")
    p = np.linspace(-p_max, p_max, count)
    _within("grid offset", np.abs(table[:, 0] - p).max() / p_max, 1e-10)
    _within("density deviation", np.abs(table[:, 1] - box_momentum_density(n, p)).max(), 1e-10)
    integral = float(np.trapezoid(table[:, 1], p))
    if not 0.999 <= integral <= 1.0 + 1e-9:
        raise Problem(f"trapezoid integral {integral:.12f} outside [0.999, 1+1e-9]")


# ---------------------------------------------------------------------------
# one checker per CLI leaf


def _release_farfield(flags, out: Path):
    n, t = int(flags.get("--n", 1)), float(flags["--t"])
    table = read_numeric(out / "release_farfield.csv", ("p", "rescaled_density"))
    deviation = np.abs(table[:, 1] - box_momentum_density(n, table[:, 0])).max()
    if t >= 50:
        _within("far-field sup deviation", deviation, 1e-4)


def _release_evolve(flags, out: Path):
    table = read_numeric(out / "release_evolve.csv", ("x", "psi_re", "psi_im", "density"))
    x, re, im, density = table.T
    dx = np.diff(x)
    _within("grid non-uniformity", np.abs(dx / dx.mean() - 1.0).max(), 1e-9)
    _within("norm defect", density.sum() * dx.mean() - 1.0, 1e-9)
    _within("density vs |psi|^2", np.abs(re**2 + im**2 - density).max() / density.max(), 1e-10)


def _landau_state(flags, out: Path):
    header = ("x", "y", "psi_re", "psi_im", "density")
    x, y, re, im, density = read_numeric(out / "landau_state.csv", header).T
    dx = np.diff(np.unique(x)).mean()
    dy = np.diff(np.unique(y)).mean()
    _within("norm defect", density.sum() * dx * dy - 1.0, 1e-9)
    _within("density vs |psi|^2", np.abs(re**2 + im**2 - density).max() / density.max(), 1e-10)


def _well_eigenfunction(flags, out: Path):
    n, samples = int(flags.get("--n", 1)), int(flags.get("--samples", 801))
    table = read_numeric(out / "well_eigenfunction.csv", ("x", "psi"))
    if table.shape[0] != samples:
        raise Problem(f"{table.shape[0]} rows, expected {samples}")
    x = np.linspace(-HALF_WIDTH, HALF_WIDTH, samples)
    _within("grid offset", np.abs(table[:, 0] - x).max(), 1e-12)
    _within("eigenfunction deviation", np.abs(table[:, 1] - box_eigenfunction(n, x)).max(), 1e-12)
    _within("trapezoid norm defect", np.trapezoid(table[:, 1] ** 2, x) - 1.0, 1e-9)


def _momentum_continuous(flags, out: Path):
    n, count = int(flags.get("--n", 1)), int(flags.get("--count", 4001))
    table = read_numeric(out / "momentum_continuous.csv", ("p", "probability_density"))
    _momentum_table(n, table, count)


def _spike_rows(n: int, momenta: np.ndarray) -> np.ndarray:
    spike = n * np.pi / (2.0 * HALF_WIDTH)
    return np.abs(np.abs(momenta) - spike) <= 1e-9 * spike


def _momentum_discrete(flags, out: Path):
    n, k_max = int(flags.get("--n", 1)), int(flags.get("--k-max", 64))
    table = read_numeric(out / "momentum_discrete.csv", ("k", "momentum", "weight"))
    k, momenta, weights = table.T
    if not np.array_equal(k, np.arange(-k_max, k_max + 1)):
        raise Problem("ladder indices are not -k_max..k_max")
    offset = 0.5 if n % 2 else 0.0
    ladder = (k + offset) * np.pi / HALF_WIDTH
    _within("ladder momentum offset", np.abs(momenta - ladder).max() / np.abs(ladder).max(), 1e-12)
    if not weights.sum() <= 1.0 + 1e-12:
        raise Problem(f"weights sum to {weights.sum():.15f} > 1")
    spikes = _spike_rows(n, momenta)
    if spikes.sum() != 2:
        raise Problem("expected two spike rows")
    _within("spike weight defect", np.abs(weights[spikes] - 0.5).max(), 1e-12)


def _momentum_compare(flags, out: Path):
    n = int(flags.get("--n", 1))
    table = read_numeric(out / "momentum_compare.csv", ("p", "continuous_density"))
    _momentum_table(n, table, 4001)
    momenta, weights = read_numeric(out / "momentum_compare_spikes.csv", ("momentum", "weight")).T
    if momenta.size != 2 or not _spike_rows(n, momenta).all():
        raise Problem("spike table does not hold the two spike momenta")
    _within("spike weight defect", np.abs(weights - 0.5).max(), 1e-12)


_LANDAU_LIMITS = {
    "landau-gauge-level-0": 1e-3,
    "landau-gauge-level-1": 1e-3,
    "symmetric-gauge-ring-0": 1e-3,
    "symmetric-gauge-ring-1": 1e-3,
    "symmetric-gauge-ring-2": 1e-3,
    "commutator-landau-gauge": 1e-3,
    "commutator-symmetric-gauge": 1e-3,
    "commutator-zero-field": 1e-10,
}


def _landau_checks(flags, out: Path):
    rows = read_named(out / "landau_checks.csv", ("check", "residual"))
    if set(rows) != set(_LANDAU_LIMITS) | {"refinement-drop-at-least-4x"}:
        raise Problem(f"unexpected check names {sorted(rows)}")
    for name, limit in _LANDAU_LIMITS.items():
        _within(name, rows[name], limit)
    if not rows["refinement-drop-at-least-4x"] >= 4.0:
        raise Problem(f"refinement drop {rows['refinement-drop-at-least-4x']:.3f} < 4")


def _flux_ratio(flags) -> float:
    field = float(flags.get("--field", 1.0))
    return field * float(flags.get("--edge-x", 10.0)) * float(flags.get("--edge-y", 10.0)) / (2.0 * np.pi)


def _landau_degeneracy(flags, out: Path):
    rows = read_named(out / "landau_degeneracy.csv", ("method", "value"))
    ratio = _flux_ratio(flags)
    if set(rows) != {"flux_ratio", "flux_count", "guiding_centers", "rings"}:
        raise Problem(f"unexpected rows {sorted(rows)}")
    _within("flux ratio offset", rows["flux_ratio"] / ratio - 1.0, 1e-11)
    for name in ("flux_count", "guiding_centers", "rings"):
        if rows[name] != int(rows[name]):
            raise Problem(f"{name} is not an integer")
        _within(f"{name} minus flux ratio", rows[name] - ratio, 1.0)


def _landau_hall(flags, out: Path):
    rows = read_named(out / "landau_hall.csv", ("quantity", "value"))
    voltage = float(flags.get("--voltage", 1.0))
    flux = _flux_ratio(flags) * 2.0 * np.pi
    quantum = 1.0 / (2.0 * np.pi)
    expected = {
        "per_electron_current": -voltage / flux,
        "per_level_current": -voltage * quantum,
        "conductance": quantum,
        "conductance_quantum": quantum,
    }
    if set(rows) != set(expected):
        raise Problem(f"unexpected rows {sorted(rows)}")
    for name, value in expected.items():
        _within(f"{name} relative offset", rows[name] / value - 1.0, 1e-12)


CHECKERS = {
    ("release", "farfield"): (_release_farfield, ("release_farfield.csv",)),
    ("release", "evolve"): (_release_evolve, ("release_evolve.csv",)),
    ("landau", "state"): (_landau_state, ("landau_state.csv",)),
    ("landau", "checks"): (_landau_checks, ("landau_checks.csv",)),
    ("landau", "degeneracy"): (_landau_degeneracy, ("landau_degeneracy.csv",)),
    ("landau", "hall"): (_landau_hall, ("landau_hall.csv",)),
    ("well", "eigenfunction"): (_well_eigenfunction, ("well_eigenfunction.csv",)),
    ("momentum", "continuous"): (_momentum_continuous, ("momentum_continuous.csv",)),
    ("momentum", "discrete"): (_momentum_discrete, ("momentum_discrete.csv",)),
    ("momentum", "compare"): (
        _momentum_compare,
        ("momentum_compare.csv", "momentum_compare_spikes.csv"),
    ),
}


def csv_names(op) -> tuple[str, ...]:
    """The CSV files op is expected to write."""
    return CHECKERS[tuple(op[:2])][1]


def verify(op, out: Path) -> list[str]:
    """Problems with the tables op wrote into ``out``; empty when all pass."""
    try:
        CHECKERS[tuple(op[:2])][0](_flags(op), Path(out))
    except Problem as exc:
        return [str(exc)]
    return []
