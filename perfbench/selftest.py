"""Self-test of the benchmark's own checks.

    python3 perfbench/selftest.py

1. Runs one op of every CLI leaf the workloads use, confirms the oracle
   passes each, then perturbs one value in every CSV (and truncates and
   deletes one) and confirms the oracle records each as a failure.
2. Confirms the metric names in BENCHMARK.json are exactly the ones the
   benchmark reports.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import oracle
import plan
import run

OPS = [
    ("release", "farfield", "--n", "1", "--t", "50"),
    ("release", "evolve", "--n", "2", "--t", "1"),
    ("landau", "state", "--gauge", "symmetric", "--level", "3", "--angular", "8"),
    ("landau", "checks", "--field", "1.5"),
    ("landau", "degeneracy"),
    ("landau", "hall"),
    ("well", "eigenfunction", "--n", "2"),
    ("momentum", "continuous", "--n", "4"),
    ("momentum", "discrete", "--k-max", "140"),
    ("momentum", "compare", "--n", "3"),
]


def _perturb(path, factor=1e-3):
    """Nudge the last cell of the middle data row by a relative 1e-3."""
    lines = path.read_text(encoding="utf-8").split("\n")
    row = 1 + (len(lines) - 2) // 2
    head, _, cell = lines[row].rpartition(",")
    value = float(cell)
    lines[row] = f"{head},{value + factor * max(abs(value), 1.0):.12e}"
    path.write_text("\n".join(lines), encoding="utf-8")


def check_oracle() -> list[str]:
    errors = []
    directory = run.WORK / "selftest"
    shutil.rmtree(directory, ignore_errors=True)
    outs = [directory / f"op{index:02d}" for index in range(len(OPS))]
    try:
        result = run.spawn(
            [[*op, "--out", str(out)] for op, out in zip(OPS, outs)],
            False,
            directory,
            time.perf_counter() + 170.0,
        )
        for op, out, outcome in zip(OPS, outs, result["ops"]):
            name = plan.key(op)
            if outcome["code"] != 0 or oracle.verify(op, out):
                errors.append(f"{name}: clean output rejected: {oracle.verify(op, out)}")
                continue
            for csv in oracle.csv_names(op):
                original = (out / csv).read_bytes()
                _perturb(out / csv)
                if not oracle.verify(op, out):
                    errors.append(f"{name}: perturbed {csv} not detected")
                (out / csv).write_bytes(original[: len(original) // 2])
                if not oracle.verify(op, out):
                    errors.append(f"{name}: truncated {csv} not detected")
                (out / csv).unlink()
                if not oracle.verify(op, out):
                    errors.append(f"{name}: missing {csv} not detected")
                (out / csv).write_bytes(original)
            print(f"ok: {name}")
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    return errors


def check_metric_names() -> list[str]:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    passes = [run.Pass(traced, 1.0, 1.0, 1.0, 1.0, []) for traced in (False, True)]
    empty = run.Run("", [], passes, [1.0])
    reported = {"end_to_end": set(run.end_to_end(empty)), "per_layer": set(run.per_layer(empty))}
    errors = []
    for group, names in reported.items():
        entries = {m["name"]: m["unit"] for m in declared[group]}
        if set(entries) != names:
            errors.append(f"{group}: declared {sorted(set(entries) ^ names)} differ from reported")
        errors += [f"{n}: unit {u} != {run.unit_of(n)}" for n, u in entries.items() if u != run.unit_of(n)]
    workloads = {w["name"] for w in declared["workloads"]}
    if workloads != set(plan.WORKLOADS):
        errors.append(f"workloads {sorted(workloads)} != {plan.WORKLOADS}")
    return errors


def main() -> int:
    errors = check_oracle() + check_metric_names()
    for error in errors:
        print(f"FAIL: {error}")
    print("self-test passed" if not errors else f"self-test failed: {len(errors)} problems")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
