"""Write ``reference.json``: machine description, known defects, CSV digests.

    python3 perfbench/record.py

Runs every op any seed can produce once, in one child process, checks each
with the oracle and stores the SHA-256 of every CSV. A later run counts the
CSVs whose bytes differ (``report.csv_digest_changes``); ROADMAP lets a PR
that fixes a wrong answer change them, so re-record in such a PR and log it
in CHANGES.md.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path

import numpy as np

import plan
import run


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return "unknown"


def _cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _caches() -> dict[str, str]:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if kind in ("Unified", "Data"):
            caches[f"L{level}" + ("d" if kind == "Data" else "")] = _read(index / "size")
    return caches


def _blas() -> dict:
    """numpy's BLAS build, and its live thread count read from the library."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    libraries = [line.split()[-1] for line in _read("/proc/self/maps").splitlines() if "openblas" in line]
    if libraries:
        library = ctypes.CDLL(libraries[0])
        for prefix in ("scipy_openblas_", "openblas_"):
            suffix = "64_" if hasattr(library, f"{prefix}get_num_threads64_") else ""
            getter = getattr(library, f"{prefix}get_num_threads{suffix}", None)
            if getter is not None:
                getter.restype = ctypes.c_int
                config = getattr(library, f"{prefix}get_config{suffix}")
                config.restype = ctypes.c_char_p
                out.update(threads=getter(), config=config().decode())
                break
    return out


def machine() -> dict:
    memory_kb = next(
        (line.split()[1] for line in _read("/proc/meminfo").splitlines() if line.startswith("MemTotal")),
        "0",
    )
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "ram_mib": int(memory_kb) // 1024,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
    }


def main() -> int:
    ops = plan.every_variant()
    directory = run.WORK / "record"
    shutil.rmtree(directory, ignore_errors=True)
    try:
        done = run.run_pass(ops, False, directory, time.perf_counter() + 600.0, {})
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    for index, reason in sorted(done.failures.items()):
        key = plan.key(ops[index])
        print(f"{'known defect' if key in plan.KNOWN_DEFECTS else 'FAILED'}: {key}: {reason}")
    unexpected = [i for i in done.failures if plan.key(ops[i]) not in plan.KNOWN_DEFECTS]
    if unexpected:
        print("not recording: ops outside KNOWN_DEFECTS failed", file=sys.stderr)
        return 1
    reference = {
        "machine": machine(),
        "known_defects": plan.KNOWN_DEFECTS,
        "csv_sha256": dict(sorted(done.digests.items())),
    }
    run.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"recorded {len(done.digests)} CSV digests from {len(ops)} ops into {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
