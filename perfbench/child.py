"""One benchmark pass in a fresh process.

Run as ``python3 perfbench/child.py PLAN``. The first thing it does is import
``boxmode.cli`` from the checkout's ``src`` and stamp the time; the parent
stamped the spawn on the same monotonic clock, so the difference is the
pass's set-up time. A plan without ops stops there (a set-up probe).
Otherwise the ops run in sequence through ``boxmode.cli.run``, optionally
under the span recorder, and the result goes to the JSON file PLAN names.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import boxmode.cli  # noqa: E402

IMPORTED = time.perf_counter()


def _cpu_seconds() -> float:
    import resource

    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    import json
    import traceback

    with open(sys.argv[1], encoding="utf-8") as handle:
        plan = json.load(handle)
    result = {"imported": IMPORTED, "source": os.path.realpath(boxmode.cli.__file__), "ops": []}
    if plan["ops"]:
        recorder = None
        if plan["trace"]:
            from tracing import Recorder

            recorder = Recorder()
            recorder.install()
        cpu_start = _cpu_seconds()
        start = time.perf_counter()
        for index, argv in enumerate(plan["ops"]):
            if recorder:
                recorder.op = index
            op_start = time.perf_counter()
            try:
                code = boxmode.cli.run(argv)
            except Exception:  # an op that crashes counts as failed; the pass goes on
                traceback.print_exc()
                code = -1
            result["ops"].append({"code": code, "wall": time.perf_counter() - op_start})
        result["wall"] = time.perf_counter() - start
        result["cpu"] = _cpu_seconds() - cpu_start
        result["spans"] = recorder.spans if recorder else []
    sys.stdout.flush()
    with open(plan["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
