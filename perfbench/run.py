"""End-to-end benchmark of the drcontract CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload simulate-portfolio --seed 1 \
        --seconds 50 --trace 0

Each command execution is one real ``drcontract`` command, run through
``drcontract.cli.main(argv)`` in a fresh child interpreter, one at a time,
with BLAS/OpenMP threads pinned to 1. A run first executes the workload at
PINNED_SEED and compares the sha256 of every CSV output with the digests
recorded in ``digests.json``; it then times repetitions at ``--seed`` for
``--seconds`` seconds, checks the first repetition's CSV output in full and
every later one against the first (verify output is checked in full every
time), and prints one JSON result line. The wall times of all repetitions
go to stderr.

With ``--trace 0`` every repetition of the checkout's program is paired
with one of the frozen copy under ``reference/``, run on the same input
right before or after it. Timings are reported as the median ratio of
program to reference over the pairs, times what the reference takes at a
fixed host speed, so a host that turns slower for a while slows both sides
of a pair alike and cancels out.

With ``--trace 1`` every second repetition runs under the span tracer of
``spans.py`` and the result holds the per-layer figures instead.
``--record-digests`` re-records ``digests.json`` from the current program.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

THREAD_PINS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}
os.environ.update(THREAD_PINS)  # before numpy is imported, here and in children

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference")  # frozen drcontract; never edited
WORK = os.path.join(HERE, ".work")
DIGESTS = os.path.join(HERE, "digests.json")
PINNED_SEED = 8604
MIN_REPS = 3
SETUP_RUNS = 10  # import pairs before the window; each repetition adds one
CHILD_TIMEOUT_S = 120

SWEEP_RANGE = (0.0, 1.0, 10001)

# What the reference takes at a fixed host speed: its wall time per workload
# and its import time, as its fastest runs read on the 2-vCPU Xeon host the
# benchmark was defined on. Program / reference ratios are scaled by these.
REFERENCE_WALL_S = {
    "simulate-portfolio": 3.01,
    "simulate-wide": 3.11,
    "verify-oracle": 1.51,
    "sweep-dense": 1.63,
}
REFERENCE_SETUP_S = 0.105


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    consumers: int  # 0: the bundled scenario
    trials: int
    units: int  # work units per execution, for throughput

    def argv(self, scenario: str | None, seed: int, outdir: str) -> list[str]:
        if self.command == "verify":
            return ["verify", "--draws", str(self.units), "--grid-step", "0.01",
                    "--seed", str(seed), "--out", os.path.join(outdir, "verify.txt")]
        if self.command == "sweep":
            start, stop, steps = SWEEP_RANGE
            return ["sweep", "--scenario", scenario, "--param", "p_r",
                    "--from", repr(start), "--to", repr(stop), "--steps", str(steps),
                    "--out", os.path.join(outdir, "sweep.csv")]
        return ["simulate", "--scenario", scenario, "--seed", str(seed),
                "--out", os.path.join(outdir, "records.csv")]

    def outputs(self, outdir: str) -> list[str]:
        names = {
            "verify": ["verify.txt"],
            "sweep": ["sweep.csv"],
            "simulate": ["records.csv", "records.summaries.csv", "records.stats.csv"],
        }[self.command]
        return [os.path.join(outdir, n) for n in names]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("simulate-portfolio", "simulate", 2000, 250, 2000 * 250),
        Workload("simulate-wide", "simulate", 10000, 10, 10000 * 10),
        Workload("verify-oracle", "verify", 0, 0, 2000),
        Workload("sweep-dense", "sweep", 1, 0, SWEEP_RANGE[2]),
    )
}


def _environment() -> dict:
    import numpy

    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(
                (line.split(":", 1)[1].strip() for line in fh
                 if line.startswith("model name")),
                model,
            )
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_pins": THREAD_PINS,
    }


class Runner:
    """Executes one workload's commands and checks their outputs."""

    def __init__(self, workload: Workload):
        self.w = workload
        self.attempted = 0
        self.failed = 0
        self._reference: dict[int, dict[str, str]] = {}
        self._scenarios: dict[int, tuple[str | None, object]] = {}

    def scenario(self, seed: int):
        """Path of the seeded scenario file (None: bundled) and its generator
        record, written once per seed."""
        if seed not in self._scenarios:
            from scenario_gen import generate

            if self.w.consumers == 0:
                self._scenarios[seed] = (None, None)
            else:
                gen = generate(seed, self.w.consumers, max(self.w.trials, 1))
                path = os.path.join(WORK, f"scenario-{seed}.ini")
                with open(path, "w", encoding="utf-8", newline="") as fh:
                    fh.write(gen.to_ini())
                self._scenarios[seed] = (path, gen)
        return self._scenarios[seed]

    def child(self, argv, outputs=(), trace=False, run_id="", src=SRC) -> dict:
        spec = {
            "src": src,
            "argv": argv,
            "outputs": list(outputs),
            "trace": trace,
            "run_id": run_id,
            "spans": os.path.join(WORK, "spans.json"),
        }
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
            )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if trace:
            with open(spec["spans"], encoding="utf-8") as fh:
                result["trace"] = json.load(fh)
        return result

    def execute(self, seed: int, trace=False, run_id="") -> dict | None:
        """Run the command once at ``seed`` and check it; None on failure."""
        import checks

        self.attempted += 1
        outdir = os.path.join(WORK, "out")
        shutil.rmtree(outdir, ignore_errors=True)
        os.makedirs(outdir)
        scenario, gen = self.scenario(seed)
        argv = self.w.argv(scenario, seed, outdir)
        try:
            result = self.child(argv, self.w.outputs(outdir), trace, run_id)
            errors = [] if result["rc"] == 0 else [f"exit code {result['rc']}"]
            got = checks.digests(outdir)
            if seed == PINNED_SEED:
                errors += checks.compare_digests(got, _load_digests()[self.w.name])
            if self.w.command == "verify":
                # its text carries float deviations, so it is checked, not hashed
                errors += checks.check_verify(
                    os.path.join(outdir, "verify.txt"), result["rc"]
                )
            elif seed in self._reference:
                errors += checks.compare_digests(got, self._reference[seed])
            elif seed != PINNED_SEED:
                errors += self._full_check(outdir, scenario, gen, seed)
                if not errors:
                    self._reference[seed] = got
        except (RuntimeError, OSError, ValueError, KeyError, IndexError,
                subprocess.TimeoutExpired) as exc:
            errors = [f"{type(exc).__name__}: {exc}"]
        if errors:
            self.failed += 1
            for line in errors[:10]:
                print(f"{self.w.name} seed={seed}: {line}", file=sys.stderr)
            return None
        return result

    def reference(self, seed: int) -> dict:
        """Run the frozen reference copy once on the same input as
        ``execute``; it is not checked or counted, but must succeed."""
        outdir = os.path.join(WORK, "reference-out")
        shutil.rmtree(outdir, ignore_errors=True)
        os.makedirs(outdir)
        scenario, _ = self.scenario(seed)
        argv = self.w.argv(scenario, seed, outdir)
        result = self.child(argv, self.w.outputs(outdir), src=REFERENCE)
        if result["rc"] != 0:
            raise RuntimeError(f"reference {self.w.name} exited {result['rc']}")
        return result

    def import_pair(self, reference_first: bool) -> tuple[float, float]:
        """Import times of the program and of the reference, back to back."""
        order = (REFERENCE, SRC) if reference_first else (SRC, REFERENCE)
        got = {src: self.child(None, src=src)["setup_s"] for src in order}
        return got[SRC], got[REFERENCE]

    def _full_check(self, outdir, scenario, gen, seed) -> list[str]:
        import checks

        if self.w.command == "sweep":
            return checks.check_sweep(
                os.path.join(outdir, "sweep.csv"), gen, *SWEEP_RANGE
            )
        return checks.check_simulate(
            os.path.join(outdir, "records.csv"), scenario, gen, seed
        )


def _load_digests() -> dict:
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _ratio(pairs: list[tuple[float, float]]) -> float:
    """Median over (program, reference) pairs of program / reference. The
    two sides of a pair run back to back, so a slow spell of the host that
    covers both slows them alike and cancels."""
    return statistics.median(prog / ref for prog, ref in pairs)


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    runner = Runner(workload)
    runner.execute(PINNED_SEED)  # also warms the file cache and bytecode
    plain: list[dict] = []
    traced: list[dict] = []
    walls: dict[bool, list] = {True: [], False: []}  # by reference_first
    setups: list[tuple[float, float]] = []  # the same for import times
    if not trace:
        runner.reference(seed)  # warms the reference the same way
        setups += [runner.import_pair(i % 2 == 1) for i in range(SETUP_RUNS)]
    spent: list[float] = []
    start = time.perf_counter()
    rep = 0
    while rep < MIN_REPS * (2 if trace else 1) or (
        time.perf_counter() - start + statistics.median(spent) < seconds
    ):
        t0 = time.perf_counter()
        if trace:
            as_traced = rep % 2 == 1
            result = runner.execute(
                seed, trace=as_traced, run_id=f"{workload.name}-{seed}-{rep}"
            )
            if result is not None:
                (traced if as_traced else plain).append(result)
        else:
            reference_first = rep % 2 == 1
            if reference_first:
                ref = runner.reference(seed)
                result = runner.execute(seed)
            else:
                result = runner.execute(seed)
                ref = runner.reference(seed)
            if result is not None:
                plain.append(result)
                walls[reference_first].append((result["wall_s"], ref["wall_s"]))
                setups.append((result["setup_s"], ref["setup_s"]))
        rep += 1
        spent.append(time.perf_counter() - t0)
        if rep > 4 * MIN_REPS and not plain:
            break  # every execution fails; stop early and report it
    print(
        f"{workload.name} seed={seed}: {len(plain)} plain and {len(traced)} "
        f"traced repetitions in {time.perf_counter() - start:.1f} s; wall_s "
        f"{[round(r['wall_s'], 3) for r in plain]}",
        file=sys.stderr,
    )
    if not plain or (trace and not traced):
        raise SystemExit(f"{workload.name}: no successful repetition")

    if trace:
        from spans import UNITS, layer_metrics

        per_rep = []
        for r in traced:
            m = layer_metrics(r["trace"])
            m["cli.bytes_written"] = r["bytes_written"]
            per_rep.append(m)
            for name in r["trace"]["missing"] + r["trace"]["hook_errors"]:
                print(f"trace: missing or failed {name}", file=sys.stderr)
        metrics = {
            name: _metric(statistics.median(m[name] for m in per_rep), unit)
            for name, unit in UNITS.items()
            if name != "trace.overhead_ratio"
        }
        metrics["trace.overhead_ratio"] = _metric(
            statistics.median(r["wall_s"] for r in traced)
            / statistics.median(r["wall_s"] for r in plain),
            "ratio",
        )
    else:
        # Whichever side runs second is slower when the first wrote large
        # outputs just before it, so each order gets its own median.
        by_order = [_ratio(pairs) for pairs in walls.values() if pairs]
        wall = REFERENCE_WALL_S[workload.name] * statistics.geometric_mean(by_order)
        print(
            f"{workload.name} seed={seed}: reference wall_s "
            f"{[round(ref, 3) for _, ref in walls[False]]} (program first), "
            f"{[round(ref, 3) for _, ref in walls[True]]} (reference first); "
            f"median program/reference by order {[round(r, 4) for r in by_order]}"
            f", imports {_ratio(setups):.4f} over {len(setups)} pairs",
            file=sys.stderr,
        )
        metrics = {
            "wall_s": _metric(wall, "s"),
            "throughput": _metric(workload.units / wall, "1/s"),
            "setup_s": _metric(REFERENCE_SETUP_S * _ratio(setups), "s"),
            "peak_rss_mb": _metric(
                statistics.median(r["vmhwm_kb"] for r in plain) / 1024, "MB"
            ),
        }
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }


def record_digests() -> None:
    """Write the output digests of every workload at PINNED_SEED."""
    import checks

    recorded = {}
    for workload in WORKLOADS.values():
        runner = Runner(workload)
        scenario, _ = runner.scenario(PINNED_SEED)
        outdir = os.path.join(WORK, "out")
        shutil.rmtree(outdir, ignore_errors=True)
        os.makedirs(outdir)
        result = runner.child(workload.argv(scenario, PINNED_SEED, outdir))
        if result["rc"] != 0:
            raise SystemExit(f"{workload.name} exited {result['rc']}")
        recorded[workload.name] = checks.digests(outdir)
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=_seed, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if not args.record_digests and args.workload is None:
        parser.error("--workload is required")
    if not os.path.isfile(os.path.join(SRC, "drcontract", "cli.py")):
        print(f"no drcontract sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    sys.path.insert(0, SRC)
    try:
        if args.record_digests:
            record_digests()
            return 0
        print(json.dumps({"environment": _environment()}), file=sys.stderr)
        result = measure(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
        )
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
