"""Record one checkout's benchmark figures as one JSON file.

Run from the root of a checkout (pytest-benchmark is required):

    python tools/bench_record.py --out BENCH_<n>.json

It runs the per-function cases under ``benches/`` once,

    PYTHONPATH=src python -m pytest benches --benchmark-json=...

then ``perfbench/run.py --trace 0`` once per workload, and writes:

- ``cases``: each case's median, interquartile range and minimum over its
  rounds in seconds, its rounds, and the ``tracemalloc`` peak in bytes of
  one more call of the benchmarked function after the timed rounds
  (``benches/conftest.py``). The minimum is the least disturbed by a slow
  phase of the host, but two records can still read far apart;
- ``import_s``: the median time to import ``drcontract.cli`` (numpy
  included) in fresh interpreters that write no bytecode, as perfbench's
  ``setup_s`` is taken, so each compiles ``src/drcontract`` from source;
- ``import_cached_s``: the same, alternating with ``import_s``'s runs, from
  a temporary copy of ``src`` precompiled with ``compileall``; the
  difference is what compiling ``drcontract`` adds to every command;
- ``environment``: the host, Python and package versions;
- ``perfbench``: each workload's last stdout line, as JSON.

Every record is taken with the same settings (the constants below, also
written to its ``settings``), so any two records compare. Nothing here is a
test: the file is a record that the next change can read its trajectory
from. ``--root`` measures another checkout with its own ``src``, ``benches``
and ``perfbench``.

Two records taken apart still compare only loosely, as the host drifts
between them. ``--against ROOT`` also measures the two checkouts side by
side: ``PAIRS`` pairs of runs of each case (one pytest process per run), of
``import_s`` and ``import_cached_s`` and of each workload, the two
checkouts alternating within each and taking turns to run first. It adds
``paired``: for each case, the median over the pairs of ``min_s`` of
``--root`` over ``min_s`` of ``--against``, for the imports and each
workload's end-to-end metric the same ratio of their values, each with the
ratios' quartiles and the pairs that ``--root`` won (a lower value, or a
higher one where ``BENCHMARK.json`` says higher is better). Cases that only
one checkout has are not paired.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

WORKLOADS = ("simulate-portfolio", "simulate-wide", "verify-oracle", "sweep-dense")
MAX_TIME = 0.2  # pytest-benchmark's --benchmark-max-time per case
SECONDS = 10.0  # perfbench's --seconds per workload
SEED = 1  # perfbench's --seed
IMPORT_RUNS = 7  # fresh interpreters timed for each of import_s, import_cached_s
PAIRS = 5  # alternating pairs of the two checkouts per case, import and workload

IMPORT_CODE = (
    "import time; t = time.perf_counter(); import drcontract.cli; "
    "print(time.perf_counter() - t)"
)


def _env(src: str) -> dict:
    return {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}


def bench_cases(root: str, *cases: str) -> tuple[dict, dict]:
    """Median, IQR, minimum, rounds and traced peak of the ``cases`` (node
    ids), by default every case under ``benches/``, and pytest-benchmark's
    description of the machine."""
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "bench.json")
        subprocess.run(
            [sys.executable, "-m", "pytest", *(cases or ["benches"]), "-q",
             "-p", "no:cacheprovider", f"--benchmark-max-time={MAX_TIME}",
             f"--benchmark-json={path}"],
            cwd=root, env=_env(os.path.join(root, "src")), check=True,
            stdout=subprocess.DEVNULL,
        )
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
    cases = {
        bench["fullname"]: {
            "median_s": bench["stats"]["median"],
            "iqr_s": bench["stats"]["iqr"],
            "min_s": bench["stats"]["min"],
            "rounds": bench["stats"]["rounds"],
            # None for a checkout whose benches/ records no traced peak.
            "tracemalloc_peak_bytes": bench["extra_info"].get("tracemalloc_peak_bytes"),
        }
        for bench in report["benchmarks"]
    }
    return cases, report["machine_info"]


def import_seconds(root: str) -> tuple[float, float]:
    """Median import times of ``drcontract.cli`` over fresh interpreters,
    from ``src`` and from a precompiled copy of it, the two alternating.

    The copy is compiled with ``compileall`` rather than run under
    ``PYTHONPYCACHEPREFIX``, which would also move numpy's bytecode and so
    recompile numpy on every import.
    """
    with tempfile.TemporaryDirectory() as work:
        cached = os.path.join(work, "src")
        shutil.copytree(
            os.path.join(root, "src"), cached,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        compileall.compile_dir(cached, quiet=1)
        times = {os.path.join(root, "src"): [], cached: []}
        for _ in range(IMPORT_RUNS):
            for src, runs in times.items():
                runs.append(float(subprocess.run(
                    [sys.executable, "-c", IMPORT_CODE], cwd=root, env=_env(src),
                    check=True, capture_output=True, text=True,
                ).stdout))
    return tuple(statistics.median(runs) for runs in times.values())


def perfbench_line(root: str, workload: str) -> dict:
    """The last stdout line of one ``perfbench/run.py --trace 0`` run."""
    out = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=root, check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def case_ids(root: str) -> list:
    """The node ids of the cases under ``benches/``, in collection order."""
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "benches", "--collect-only", "-q",
         "-p", "no:cacheprovider"],
        cwd=root, env=_env(os.path.join(root, "src")), check=True,
        capture_output=True, text=True,
    ).stdout
    return [line for line in out.splitlines() if "::" in line]


def paired(this: list, base: list, better: str = "lower") -> dict:
    """The median and quartiles of the ratios ``this[i] / base[i]`` over the
    pairs, and the pairs that ``this`` won."""
    q1, median, q3 = statistics.quantiles(
        [a / b for a, b in zip(this, base)], n=4, method="inclusive"
    )
    won = sum(a < b if better == "lower" else a > b for a, b in zip(this, base))
    return {
        "ratio": median, "ratio_q1": q1, "ratio_q3": q3, "pairs_won": won,
        "pairs": len(this),
    }


def paired_record(this: str, base: str) -> dict:
    """The ``paired`` section: ``this`` against ``base``, in ``PAIRS`` pairs
    per case, import timing and workload, ``this`` first in even pairs."""
    orders = [(this, base) if i % 2 == 0 else (base, this) for i in range(PAIRS)]
    with open(os.path.join(this, "BENCHMARK.json"), encoding="utf-8") as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}

    def runs(measure) -> dict:
        """``measure(root)`` for each checkout, in the pairs' order."""
        values = {this: [], base: []}
        for order in orders:
            for root in order:
                values[root].append(measure(root))
        return values

    shared = set(case_ids(base))
    cases = {}
    for case in (c for c in case_ids(this) if c in shared):
        mins = runs(lambda root: bench_cases(root, case)[0][case]["min_s"])
        cases[case] = paired(mins[this], mins[base])
    imports = runs(import_seconds)
    record = {
        "cases": cases,
        **{
            name: paired(
                [v[i] for v in imports[this]], [v[i] for v in imports[base]]
            )
            for i, name in enumerate(("import_s", "import_cached_s"))
        },
        "perfbench": {},
    }
    for workload in WORKLOADS:
        lines = runs(lambda root: perfbench_line(root, workload))
        record["perfbench"][workload] = {
            "correct": all(line["correct"] for line in lines[this] + lines[base]),
            **{
                metric: paired(
                    *([line["metrics"][metric]["value"] for line in lines[root]]
                      for root in (this, base)),
                    better.get(metric, "lower"),
                )
                for metric in lines[this][0]["metrics"]
            },
        }
    return record


def _version(module: str) -> str:
    from importlib.metadata import PackageNotFoundError, version

    try:
        return version(module.replace("_", "-"))
    except PackageNotFoundError:
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True, help="the JSON file to write")
    parser.add_argument("--root", default=".", help="the checkout to measure")
    parser.add_argument(
        "--against", metavar="ROOT",
        help="a second checkout, such as the parent commit's, to pair with --root",
    )
    args = parser.parse_args(argv)
    root = os.path.abspath(args.root)
    cases, machine = bench_cases(root)
    import_s, import_cached_s = import_seconds(root)
    record = {
        "cases": cases,
        "import_s": import_s,
        "import_cached_s": import_cached_s,
        "environment": {
            "nproc": os.cpu_count(),
            "cpu": machine.get("cpu", {}).get("brand_raw") or platform.processor(),
            "machine": platform.machine(),
            "system": platform.system(),
            "python": platform.python_version(),
            "numpy": _version("numpy"),
            "pytest_benchmark": _version("pytest_benchmark"),
        },
        "settings": {"max_time": MAX_TIME, "seconds": SECONDS, "seed": SEED},
        "perfbench": {
            workload: perfbench_line(root, workload) for workload in WORKLOADS
        },
    }
    if args.against:
        record["paired"] = paired_record(root, os.path.abspath(args.against))
        record["settings"]["pairs"] = PAIRS
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
