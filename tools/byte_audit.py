"""Byte audit: run the same CLI ops in two checkouts and compare every output.

    python3 tools/byte_audit.py PARENT CHANGE

PARENT and CHANGE are checkout directories, each holding ``src/boxmode``.
Each checkout runs every op in one subprocess of its own, through
``boxmode.cli.run``, with each op writing into a fresh directory. The audit
then compares, op by op, the exit code, stdout, stderr and the SHA-256 of
every CSV written. The checkout's own path is replaced by ``<checkout>`` in
stdout and stderr, so tracebacks and warnings compare by file and line.

Both checkouts run once under each of three configurations, set in the
audit's own subprocesses only: the default; ``OPENBLAS_CORETYPE=Prescott``,
OpenBLAS's SSE kernels without FMA; and ``NPY_DISABLE_CPU_FEATURES``, numpy
without its AVX-512 loops. Parent and change are compared within each
configuration: the audit prints one line per difference and a summary per
configuration, and exits 1 on any difference. The ops whose bytes differ
between a configuration and the default, on the change side, are printed
after that as information; they are no failure.

The ops:

* every op of ``perfbench/plan.every_variant()`` (this checkout's plan);
* ``--digits`` 1, 5 and 17 runs of ``release evolve``, ``landau state`` and
  ``momentum continuous``;
* ``momentum continuous --count`` 3, 15, 17 and 121 at ``--n`` 1 and 20, and
  ``momentum discrete --k-max`` 1, 7 and 60: momenta and ladders at the edges
  of the box transforms' product steps (15 rows at n = 1's 256 nodes, 10 at
  n = 20's 374) and 120-row blocks; and ``momentum discrete --n 5 --k-max 1``,
  a ladder short of level 5's spikes at -3 and 2 (exit 2);
* ``momentum continuous --p-max 32.75 --count 263``, a grid of exact
  quarters whose 131 mirrored pairs fill more than one 120-row block, each
  pair's rows on both sides of the block edge; and ``momentum discrete --n 2
  --k-max 60``, the integer ladder whose +0 rung has no partner;
* ``momentum continuous --p-max`` 435, 3944 and 3945 and ``momentum
  discrete --k-max 1255``: the first Gauss-Legendre order above the shipped
  256 (257 nodes), exactly ``NODE_BUDGET`` (2048 nodes, by both transforms)
  and the first span past it (exit 2);
* ``landau state --level 5 --p-x -1.7``, a higher ridge moving the other
  way, and ``landau state --edge-x 6 --edge-y 14``, a non-square rectangle,
  where a transposed broadcast or a swapped repeat/tile of the axes would
  show;
* six custom-units runs at 9 digits (``release evolve``, ``momentum
  continuous``, ``landau state``, ``landau state --gauge symmetric --level
  4 --angular 2``, ``landau checks``, ``well eigenfunction``), with half
  width 2.5, mass 3.0 and hbar 0.7 for the well and charge 2.0, a positive
  charge, mass 0.5 and hbar 1.3 for the Landau system; a unit section
  applies whenever the file has one, so no config carries a ``units`` line;
* the README's example config on every ``well``, ``momentum`` and
  ``release`` leaf, and a ``[landau]`` config setting charge, mass,
  light_speed and hbar on every ``landau`` leaf;
* a config whose ``digits`` and ``out`` the flags override;
* four malformed configs on ``well energies``: a misspelled key, an
  unknown section, a ``units = custom`` line (an unknown global key) and a
  global key inside ``[well]``;
* ops that take the interval-limited checks away from the middle of their
  limits: ``momentum continuous --p-max 2`` (``trapezoid-normalization``
  fails), ``momentum compare --window`` 100 (mass 0.9999995) and 1e-300 (a
  window that vanishes beside the spike), and ``landau checks --field``
  0.05 and 20;
* requests past the Landau probe budget: ``landau state --level 20000``,
  whose ridge must be rejected before its default grid is built, and
  ``landau state --gauge symmetric --angular`` 10**20, whose default ring
  grid must be rejected before it is allocated; and grids past the 2**24
  sample budget, each rejected before it is allocated: ``landau state
  --edge-x 1e12``, and ``well eigenfunction --samples`` and ``momentum
  continuous --count`` at 100000000001; and ``well energies --n-max``
  100000000, whose level table is rejected before its loop;
* ``well energies --bogus 1``, an unknown flag reported under the leaf's
  usage;
* ``landau state --p-x 20``, whose guiding line lies outside the default
  rectangle: one warning, from the state's default grid;
* ``release evolve`` with half width 0.7, whose ``energy-conservation``
  reference must share the snapshot's box, and whose energies take the step
  x[1] - x[0] where the phase takes length / samples;
* ``release evolve`` at the edges of its one-pass evolution, where one
  transform of the t = 0 state serves the energy reference and the phase
  is computed on frequencies 0..N/2 and mirrored: t = 0 and -0 (no phase),
  t < 0, and the smallest power-of-two grids, 4 samples (a mirrored half of
  one entry) and 8, at t = 0, +-1e-9 and at 1e-3, which aliases (exit 2);
* last, so the ops above keep their places: Landau flags whose flux leaves
  the normal floats, ``landau degeneracy --edge-x 1e160 --edge-y 1e160``,
  ``landau degeneracy --field 1e300 --edge-x 1e10`` and ``landau hall
  --edge-x 1e-300 --edge-y 1e-300``, and ``landau state --field 1e-300``,
  whose default rectangle holds fewer than 5 points an axis: each exits 2
  naming B, Lx and Ly or the field and the rectangle;
* after them, ``momentum continuous --count`` 3 and 5 and ``release farfield
  --n 2 --t 50``, the smallest mirrored momentum grids and a far field
  whose amplitudes are imaginary; and ``landau checks --field`` 1e-300 and
  1e300 and ``landau state --gauge symmetric --field 1e-300``, whose residual
  scale leaves the normal floats.

Every op takes ``--out out`` last, so file ``out`` values never apply.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Config file name -> text; ``audit_ops`` refers to them by name.
CONFIGS = {
    "custom": """\
digits = 9

[well]
half_width = 2.5
mass = 3.0
hbar = 0.7

[landau]
charge = 2.0
mass = 0.5
hbar = 1.3
""",
    "readme": "digits = 8\n\n[well]\nhalf_width = 2.0\nmass = 0.5\n",
    "landau": (
        "digits = 10\n\n[landau]\n"
        "charge = -2.0\nmass = 0.5\nlight_speed = 3.0\nhbar = 1.3\n"
    ),
    "overridden": "digits = 4\nout = elsewhere\n",
    "narrow": "[well]\nhalf_width = 0.7\n",
    "misspelled-key": "[well]\nhbr = 0.7\n",
    "unknown-section": "[wel]\nhbar = 0.7\n",
    "units-key": "units = custom\n[well]\nhbar = 0.7\n",
    "misplaced-key": "[well]\ndigits = 9\n",
}

# Configuration name -> the environment variables its subprocesses add.
ENVIRONMENTS = {
    "default": {},
    "prescott": {"OPENBLAS_CORETYPE": "Prescott"},
    "no-avx512": {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4"},
}

DIGIT_OPS = (
    ("release", "evolve", "--n", "1", "--t", "1"),
    ("landau", "state"),
    ("momentum", "continuous"),
)

EDGE_OPS = tuple(
    ("momentum", "continuous", "--n", n, "--count", count)
    for n in ("1", "20")
    for count in ("3", "15", "17", "121")
) + tuple(("momentum", "discrete", "--k-max", k) for k in ("1", "7", "60")) + (
    ("momentum", "discrete", "--n", "5", "--k-max", "1"),
)

MIRROR_OPS = (
    ("momentum", "continuous", "--p-max", "32.75", "--count", "263"),
    ("momentum", "discrete", "--n", "2", "--k-max", "60"),
)

RULE_OPS = (
    ("momentum", "continuous", "--p-max", "435"),
    ("momentum", "continuous", "--p-max", "3944"),
    ("momentum", "continuous", "--p-max", "3945"),
    ("momentum", "discrete", "--k-max", "1255"),
)

AXIS_OPS = (
    ("landau", "state", "--level", "5", "--p-x", "-1.7"),
    ("landau", "state", "--edge-x", "6", "--edge-y", "14"),
)

CUSTOM_OPS = (
    ("release", "evolve", "--n", "1", "--t", "1"),
    ("momentum", "continuous"),
    ("landau", "state"),
    ("landau", "state", "--gauge", "symmetric", "--level", "4", "--angular", "2"),
    ("landau", "checks"),
    ("well", "eigenfunction"),
)

WELL_LEAVES = (
    ("well", "energies"),
    ("well", "eigenfunction"),
    ("momentum", "continuous"),
    ("momentum", "discrete"),
    ("momentum", "compare"),
    ("release", "evolve"),
    ("release", "farfield"),
)

VERDICT_OPS = (
    ("momentum", "continuous", "--p-max", "2"),
    ("momentum", "compare", "--window", "100"),
    ("momentum", "compare", "--window", "1e-300"),
    ("landau", "checks", "--field", "0.05"),
    ("landau", "checks", "--field", "20"),
)

BUDGET_OPS = (
    ("landau", "state", "--level", "20000"),
    ("landau", "state", "--gauge", "symmetric", "--angular", str(10**20)),
    ("landau", "state", "--edge-x", "1e12"),
    ("well", "eigenfunction", "--samples", "100000000001"),
    ("momentum", "continuous", "--count", "100000000001"),
    ("well", "energies", "--n-max", "100000000"),
)

EVOLVE_OPS = (
    ("release", "evolve", "--n", "1", "--t", "0"),
    ("release", "evolve", "--n", "2", "--t", "-0"),
    ("release", "evolve", "--n", "2", "--t", "-0.3"),
    *(
        ("release", "evolve", "--n", n, "--t", t, "--box-length", length, "--samples", samples)
        for n, t, length, samples in (
            ("1", "0", "4.5", "4"),
            ("1", "1e-9", "4.5", "4"),
            ("1", "-1e-9", "6", "8"),
            ("3", "0", "6", "8"),
            ("1", "1e-3", "6", "8"),
        )
    ),
)

ARGUMENT_OPS = (("well", "energies", "--bogus", "1"),)

FLUX_OPS = (
    ("landau", "degeneracy", "--edge-x", "1e160", "--edge-y", "1e160"),
    ("landau", "degeneracy", "--field", "1e300", "--edge-x", "1e10"),
    ("landau", "hall", "--edge-x", "1e-300", "--edge-y", "1e-300"),
    ("landau", "state", "--field", "1e-300"),
)

GRID_OPS = (
    ("momentum", "continuous", "--count", "3"),
    ("momentum", "continuous", "--count", "5"),
    ("release", "farfield", "--n", "2", "--t", "50"),
)

SCALE_OPS = (
    ("landau", "checks", "--field", "1e-300"),
    ("landau", "checks", "--field", "1e300"),
    ("landau", "state", "--gauge", "symmetric", "--field", "1e-300"),
)

WARNING_OPS = (("landau", "state", "--p-x", "20"),)

LANDAU_LEAVES = tuple(("landau", leaf) for leaf in ("state", "degeneracy", "hall", "checks"))

MALFORMED = ("misspelled-key", "unknown-section", "units-key", "misplaced-key")

# (config name, ops run with it, extra flags)
CONFIG_OPS = (
    ("custom", CUSTOM_OPS, ()),
    ("readme", WELL_LEAVES, ()),
    ("landau", LANDAU_LEAVES, ()),
    ("overridden", (("well", "energies"), ("landau", "hall")), ("--digits", "7")),
    ("narrow", (("release", "evolve"),), ()),
    *((name, (("well", "energies"),), ()) for name in MALFORMED),
)


def audit_ops(configs: Path) -> list[list[str]]:
    """Every op's argv; config files are read from the directory ``configs``."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import plan

    ops = [list(op) for op in plan.every_variant()]
    ops += [[*op, "--digits", d] for d in ("1", "5", "17") for op in DIGIT_OPS]
    singles = (
        *EDGE_OPS, *MIRROR_OPS, *RULE_OPS, *AXIS_OPS, *VERDICT_OPS, *BUDGET_OPS, *EVOLVE_OPS,
        *ARGUMENT_OPS,
    )
    ops += [list(op) for op in (*singles, *WARNING_OPS)]
    for name, config_ops, flags in CONFIG_OPS:
        config = str(configs / f"{name}.cfg")
        ops += [[*op, "--config", config, *flags] for op in config_ops]
    return ops + [list(op) for op in (*FLUX_OPS, *GRID_OPS, *SCALE_OPS)]


def run_checkout(checkout: Path, ops_file: Path, work: Path) -> list[dict]:
    """Run the ops of ``ops_file`` in ``checkout``, in this process, each in
    its own directory under ``work``; return one record per op."""
    sys.path.insert(0, str(checkout / "src"))
    import boxmode.cli

    records = []
    for index, argv in enumerate(json.loads(ops_file.read_text(encoding="utf-8"))):
        directory = work / f"op{index:03d}"
        directory.mkdir()
        os.chdir(directory)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = boxmode.cli.run([*argv, "--out", "out"])
            except Exception:  # a crash is an outcome to compare, not a stop
                traceback.print_exc()
                code = -1
        csvs = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted((directory / "out").glob("*.csv"))
        }
        records.append({
            "argv": argv,
            "code": code,
            "stdout": stdout.getvalue().replace(str(checkout), "<checkout>"),
            "stderr": stderr.getvalue().replace(str(checkout), "<checkout>"),
            "csv": csvs,
        })
    return records


def differences(parent: list[dict], change: list[dict]) -> list[str]:
    found = []
    for old, new in zip(parent, change):
        op = " ".join(old["argv"])
        for key in ("code", "stdout", "stderr"):
            if old[key] != new[key]:
                found.append(f"{op}: {key} differs: {old[key]!r} != {new[key]!r}")
        for name in sorted(old["csv"].keys() | new["csv"].keys()):
            if old["csv"].get(name) != new["csv"].get(name):
                found.append(f"{op}: {name} differs")
    return found


def main(argv: list[str]) -> int:
    if len(argv) == 4 and argv[0] == "--run":
        checkout, ops_file, work = (Path(a).resolve() for a in argv[1:])
        records = run_checkout(checkout, ops_file, work)
        (work / "records.json").write_text(json.dumps(records), encoding="utf-8")
        return 0
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    checkouts = [Path(a).resolve() for a in argv]
    runs = {}
    with tempfile.TemporaryDirectory(prefix="byte_audit_") as scratch:
        scratch = Path(scratch)
        for name, text in CONFIGS.items():
            (scratch / f"{name}.cfg").write_text(text, encoding="utf-8")
        ops_file = scratch / "ops.json"
        ops_file.write_text(json.dumps(audit_ops(scratch)), encoding="utf-8")
        command = [sys.executable, str(Path(__file__).resolve()), "--run"]
        for environment, settings in ENVIRONMENTS.items():
            for side, checkout in zip(("parent", "change"), checkouts):
                work = scratch / environment / side
                work.mkdir(parents=True)
                subprocess.run(
                    [*command, str(checkout), str(ops_file), str(work)],
                    check=True,
                    env={**os.environ, **settings},
                )
                runs[environment, side] = json.loads(
                    (work / "records.json").read_text(encoding="utf-8")
                )
    failed = False
    for environment in ENVIRONMENTS:
        found = differences(runs[environment, "parent"], runs[environment, "change"])
        for line in found:
            print(f"{environment}: {line}")
        change = runs[environment, "change"]
        csvs = sum(len(record["csv"]) for record in change)
        print(f"{environment}: {len(change)} ops, {csvs} CSVs: {len(found)} differences")
        failed = failed or bool(found)
    reference = runs["default", "change"]
    for environment in list(ENVIRONMENTS)[1:]:
        moved = [
            " ".join(old["argv"])
            for old, new in zip(reference, runs[environment, "change"])
            if differences([old], [new])
        ]
        print(f"information: {len(moved)} ops differ between {environment} and default")
        for op in moved:
            print(f"information:   {op}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
