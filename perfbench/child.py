"""Run one drcontract command in this fresh interpreter and report its cost.

Usage: python3 child.py '<json spec>' with keys ``src`` (the checkout's
source directory, which must provide ``drcontract``), ``argv`` (the CLI
arguments, or null to stop after the import), ``outputs`` (files the
command writes), ``trace`` and, when tracing, ``run_id`` and ``spans``
(where the span file goes). The last stdout line is one JSON object.
"""

import time

_T0 = time.perf_counter()
import drcontract.cli  # noqa: E402  setup_s is the cost of exactly this import

_SETUP_S = time.perf_counter() - _T0

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def _vmhwm_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = os.path.realpath(spec["src"])
    found = os.path.realpath(drcontract.cli.__file__)
    if not found.startswith(src + os.sep):
        print(f"drcontract imported from {found}, not from {src}", file=sys.stderr)
        return 3
    result = {"setup_s": _SETUP_S}
    if spec["argv"] is not None:
        entry = drcontract.cli.main
        tracer = None
        if spec["trace"]:
            from spans import ROOT, Tracer

            tracer = Tracer(spec["run_id"])
            tracer.install()
            entry = tracer.span(ROOT, entry)
        t0 = time.perf_counter()
        rc = entry(spec["argv"])
        result["wall_s"] = time.perf_counter() - t0
        result["rc"] = rc
        result["vmhwm_kb"] = _vmhwm_kb()
        result["bytes_written"] = sum(
            os.path.getsize(p) for p in spec["outputs"] if os.path.exists(p)
        )
        if tracer is not None:
            tracer.dump(spec["spans"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
