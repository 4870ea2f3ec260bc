"""Benchmark of the boxmode CLI: three workloads of CLI leaves, closed loop.

    python3 perfbench/run.py --workload kernels --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

A pass runs one workload's op list (see ``plan.py``) in sequence through
``boxmode.cli.run`` inside a fresh child process; one caller, no threads
beyond numpy's own pool. Passes repeat until the next one would end past
``--seconds``. After each pass the parent checks every CSV with the closed
forms in ``oracle.py`` and hashes it against ``reference.json``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics, all
taken from untraced passes: ``wall_s``, ``cpu_s`` and ``peak_rss_mb`` are
medians over passes, ``setup_s`` the median over every child spawned. With
``--trace 1`` traced and untraced passes alternate; the last line carries
the per-layer metrics (medians over traced passes) and
``trace.overhead_s``, the traced minus the untraced median wall time.
Failed ops are the result's ``failed`` count; ``correct`` is false when an
op fails that ``plan.KNOWN_DEFECTS`` does not list.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import oracle
import plan
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference.json"

# A run, its passes and its set-up probes must end well inside the 180 s
# each run is allowed.
RUN_DEADLINE_S = 170.0
MIN_SETUP_SAMPLES = 9

# Figures ROADMAP quotes, compared with what this run measured:
# (label, op key or None, how the figure is taken, quoted value, unit).
ROADMAP_FIGURES = (
    ("t=200 far field", "release farfield --n 1 --t 200", "op_wall", 6.2, "s"),
    ("far-field pass peak RSS (t=200 dominates)", "release farfield --n 1 --t 200", "pass_rss_gb", 1.8, "GB"),
    ("t=100 far field", "release farfield --n 1 --t 100", "op_wall", 1.6, "s"),
    ("release evolve --n 1 --t 1", "release evolve --n 1 --t 1", "op_wall", 2.3, "s"),
    ("release evolve --n 2 --t 1", "release evolve --n 2 --t 1", "op_wall", 2.3, "s"),
    ("write_csv share of release evolve --n 1", "release evolve --n 1 --t 1", "write_share", 0.94, "ratio"),
    ("write_csv share of release evolve --n 2", "release evolve --n 2 --t 1", "write_share", 0.94, "ratio"),
    ("amplitude_transform, 10k probes", None, "transform_10k", 0.77, "s"),
)


class BenchError(RuntimeError):
    """The benchmark cannot measure: no program, or a child died."""


@dataclass
class Pass:
    traced: bool
    setup: float
    wall: float
    cpu: float
    rss_mb: float
    op_walls: list
    failures: dict = field(default_factory=dict)  # op index -> reason
    digests: dict = field(default_factory=dict)  # "op key | csv" -> sha256
    spans: list = field(default_factory=list)


def _wait(proc: subprocess.Popen, deadline: float):
    """Reap the child with its own rusage (for ru_maxrss), or kill it late."""
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage
        if time.perf_counter() > deadline:
            proc.kill()
            _, status, _ = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            raise BenchError("a pass overran the run's time limit")
        time.sleep(0.005)


def spawn(ops, traced: bool, directory: Path, deadline: float) -> dict:
    """Run one child; return its result with ``setup`` and ``rss_mb`` added."""
    directory.mkdir(parents=True)
    plan_path, result_path = directory / "plan.json", directory / "result.json"
    plan_path.write_text(json.dumps({"ops": ops, "trace": traced, "result": str(result_path)}))
    with open(directory / "child.log", "wb") as log:
        spawned = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(plan_path)],
            stdout=log,
            stderr=subprocess.STDOUT,
            cwd=ROOT,
        )
        code, usage = _wait(proc, deadline)
    if code != 0 or not result_path.is_file():
        tail = (directory / "child.log").read_text(errors="replace")[-2000:]
        raise BenchError(f"pass child exited with {code}:\n{tail}")
    result = json.loads(result_path.read_text())
    expected_source = ROOT / "src" / "boxmode" / "cli.py"
    if Path(result["source"]) != expected_source.resolve():
        raise BenchError(f"child imported {result['source']}, not {expected_source}")
    result["setup"] = result["imported"] - spawned
    result["rss_mb"] = usage.ru_maxrss / 1024.0
    return result


def run_pass(ops, traced: bool, directory: Path, deadline: float, verdicts: dict) -> Pass:
    """One pass: spawn, then hash and check every op's CSVs.

    ``verdicts`` maps (op key, CSV digests) to the oracle's problems, so
    tables byte-identical to ones already checked in this run are not
    parsed again.
    """
    outs = [directory / f"op{index:02d}" for index in range(len(ops))]
    argvs = [[*op, "--out", str(out)] for op, out in zip(ops, outs)]
    result = spawn(argvs, traced, directory, deadline)
    done = Pass(
        traced=traced,
        setup=result["setup"],
        wall=result["wall"],
        cpu=result["cpu"],
        rss_mb=result["rss_mb"],
        op_walls=[op["wall"] for op in result["ops"]],
        spans=result["spans"],
    )
    for index, (op, out, outcome) in enumerate(zip(ops, outs, result["ops"])):
        digests = []
        for name in oracle.csv_names(op):
            if (out / name).is_file():
                digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
                done.digests[f"{plan.key(op)} | {name}"] = digest
                digests.append(digest)
        seen = (plan.key(op), tuple(digests))
        if seen not in verdicts:
            verdicts[seen] = oracle.verify(op, out)
        problems = list(verdicts[seen])
        if outcome["code"] != 0:
            problems.insert(0, f"exit code {outcome['code']}")
        if problems:
            done.failures[index] = "; ".join(problems)
    shutil.rmtree(directory)
    return done


def probe_setup(directory: Path, deadline: float) -> float:
    result = spawn([], False, directory, deadline)
    shutil.rmtree(directory)
    return result["setup"]


@dataclass
class Run:
    workload: str
    ops: list
    passes: list
    setups: list


def measure(workload: str, seed: int, seconds: float, trace: bool) -> Run:
    """Passes until the next would end past ``seconds``, then set-up probes."""
    ops = plan.build(workload, seed)
    deadline = time.perf_counter() + RUN_DEADLINE_S
    base = WORK / workload
    shutil.rmtree(base, ignore_errors=True)
    # Compile the package's bytecode and warm the file cache once; users do
    # not pay that on every invocation.
    probe_setup(base / "warmup", deadline)
    passes: list[Pass] = []
    verdicts: dict = {}
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        passes.append(run_pass(ops, traced, base / f"pass{len(passes):03d}", deadline, verdicts))
        elapsed = time.perf_counter() - start
        typical = elapsed / len(passes)
        enough = not trace or len(passes) >= 2
        if enough and elapsed + typical > seconds:
            break
    setups = [p.setup for p in passes]
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(probe_setup(base / f"probe{len(setups):03d}", deadline))
    return Run(workload, ops, passes, setups)


# ---------------------------------------------------------------------------
# metrics


def end_to_end(run: Run) -> dict[str, float]:
    plain = [p for p in run.passes if not p.traced]
    return {
        "wall_s": statistics.median(p.wall for p in plain),
        "cpu_s": statistics.median(p.cpu for p in plain),
        "peak_rss_mb": statistics.median(p.rss_mb for p in plain),
        "setup_s": statistics.median(run.setups),
    }


def digest_changes(run: Run) -> list[str]:
    reference = json.loads(REFERENCE.read_text())["csv_sha256"]
    seen = {}
    for p in run.passes:
        seen.update(p.digests)
    return sorted(name for name, digest in seen.items() if reference.get(name) != digest)


def per_layer(run: Run) -> dict[str, float]:
    traced = [p for p in run.passes if p.traced]
    plain = [p for p in run.passes if not p.traced]
    out = tracing.median_metrics([tracing.summarize(p.spans, p.wall) for p in traced])
    out["report.csv_digest_changes"] = len(digest_changes(run))
    out["trace.overhead_s"] = statistics.median(p.wall for p in traced) - statistics.median(
        p.wall for p in plain
    )
    return out


def unit_of(name: str) -> str:
    if name.endswith("_mb"):
        return "MiB"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes") or name.endswith("bytes_computed"):
        return "B"
    return "count"


def failure_counts(run: Run) -> tuple[int, int, list[str]]:
    """(attempted, failed, failures not listed as known defects)."""
    attempted = len(run.ops) * len(run.passes)
    failed = 0
    unexpected = []
    for number, p in enumerate(run.passes):
        for index, reason in p.failures.items():
            failed += 1
            key = plan.key(run.ops[index])
            if key not in plan.KNOWN_DEFECTS:
                unexpected.append(f"pass {number}: {key}: {reason}")
    return attempted, failed, unexpected


def roadmap_figures(run: Run, e2e: dict) -> list[str]:
    """ROADMAP's quoted baselines beside this run's per-op times and spans."""
    keys = [plan.key(op) for op in run.ops]
    plain = [p for p in run.passes if not p.traced]
    traced = [p for p in run.passes if p.traced]
    lines = []
    for label, key, how, quoted, unit in ROADMAP_FIGURES:
        measured, note = None, ""
        if how == "op_wall" and key in keys:
            measured = statistics.median(p.op_walls[keys.index(key)] for p in plain)
            note = f"median of {len(plain)} untraced passes"
        elif how == "pass_rss_gb" and key in keys:
            measured = e2e["peak_rss_mb"] / 1024.0
            note = "pass peak RSS, GiB"
        elif how == "write_share" and key in keys and traced:
            index = keys.index(key)
            measured = statistics.median(
                tracing.op_seconds(p.spans, index, "report.write_csv") / p.op_walls[index] for p in traced
            )
            note = f"traced spans, median of {len(traced)} passes"
        elif how == "transform_10k" and traced:
            shares = []
            for p in traced:
                for name, start, end, _, _, counts in p.spans:
                    if name == "momentum_continuous.amplitude_transform" and counts:
                        entries = counts["kernel_entries"]
                        if entries > 10_000 * 256:
                            shares.append((end - start) * 10_000 * 256 / entries)
            if shares:
                measured = statistics.median(shares)
                note = "largest traced transform scaled linearly to 10,000 probes"
        if measured is None:
            continue
        ratio = measured / quoted
        verdict = "matches" if 0.8 <= ratio <= 1.25 else "MISMATCH"
        lines.append(
            f"  {label}: measured {measured:.3f} {unit} vs ROADMAP {quoted} {unit} "
            f"({ratio:.2f}x, {verdict}; {note})"
        )
    return lines


def report(run: Run, trace: bool) -> dict:
    """Print the human report; return the result object for the last line."""
    e2e = end_to_end(run)
    attempted, failed, unexpected = failure_counts(run)
    plain = [p for p in run.passes if not p.traced]
    walls = sorted(p.wall for p in plain)
    print(
        f"workload {run.workload}: {len(run.ops)} ops per pass, {len(plain)} untraced and "
        f"{len(run.passes) - len(plain)} traced passes, {len(run.setups)} spawns timed"
    )
    tail = "n/a (needs more than 20 passes)"
    if len(walls) > 20:
        rank = len(walls) - 11
        tail = f"p{100 * (rank + 1) / len(walls):.0f} {walls[rank]:.4f} s"
    print(f"  wall_s      {e2e['wall_s']:.4f} s    median of {len(walls)} passes; tail {tail}")
    print(f"  cpu_s       {e2e['cpu_s']:.4f} s    median user+system CPU of the pass child")
    print(f"  peak_rss_mb {e2e['peak_rss_mb']:.1f} MiB  median ru_maxrss of the pass child")
    print(f"  setup_s     {e2e['setup_s']:.4f} s    median spawn-to-import over {len(run.setups)} spawns")
    print(f"  fail_frac   {failed / attempted:.4f} ratio ({failed} of {attempted} ops failed)")
    keys = [plan.key(op) for op in run.ops]
    for index, key in enumerate(keys):
        reasons = {p.failures[index] for p in run.passes if index in p.failures}
        verdict = "ok" if not reasons else ("known defect" if key in plan.KNOWN_DEFECTS else "FAILED")
        op_wall = statistics.median(p.op_walls[index] for p in plain)
        print(f"    {op_wall:8.4f} s  {verdict:12s} {key}" + (f"  [{' / '.join(sorted(reasons))}]" if reasons else ""))
    for line in unexpected:
        print(f"  unexpected failure: {line}")
    changes = digest_changes(run)
    print(f"  CSV digests differing from reference.json: {len(changes)}")
    for name in changes:
        print(f"    {name}")
    metrics = e2e
    if trace:
        metrics = per_layer(run)
        traced = [p for p in run.passes if p.traced]
        wall = statistics.median(p.wall for p in traced)
        print(
            f"  traced passes: median wall {wall:.4f} s; self times sum to "
            f"{wall - metrics['trace.residual_s']:.4f} s, residual {metrics['trace.residual_s']:.4f} s "
            f"(benchmark loop outside cli.run); overhead {metrics['trace.overhead_s']:.4f} s"
        )
        for name, value in sorted(metrics.items()):
            print(f"    {name:56s} {value:.6g} {unit_of(name)}")
    figures = roadmap_figures(run, e2e)
    if figures:
        print("  ROADMAP baselines:")
        print("\n".join(figures))
    return {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*plan.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "boxmode" / "cli.py").is_file():
        print(f"error: no boxmode sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = plan.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in workloads:
            run = measure(workload, args.seed, args.seconds, bool(args.trace))
            results[workload] = report(run, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    if len(results) == 1:
        print(json.dumps(results[args.workload]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
