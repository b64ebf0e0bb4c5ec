"""Layer and end-to-end timings of ghwkit, written as one JSON file.

    python3 tools/bench.py --out BENCH_16.json
    python3 tools/bench.py --src parent=../parent/src --src change=src --out BENCH_16.json
    python3 tools/bench.py --short --out /tmp/bench.json

Each `--src LABEL=PATH` names a source tree holding the `ghwkit` package;
the default is this checkout's `src/`, labelled `src`.  Every round
measures each tree once, each time in a fresh interpreter, and alternates
which tree goes first, so that trees measured together share the machine's
drift.  The file keeps every sample and each tree's median.

Layer numbers:
  * `reduce_against_us`: microseconds per `algebra.reduce_against` call on
    fixed seeded inputs shaped like the `locality_gfq` benchmark's (length-5
    vectors against 1-3 basis vectors), per field;
  * `field_build_us`: one `Field(p, m)` construction, per field;
  * `field_for_order_us`: one `field_for_order(q)` call after the first
    (what each parsed code file pays for its field), per field.
End-to-end numbers: `certify_optimal` on fixed seed-1 random codes, its CPU
time and the wall time of its locality and hierarchy phases, with the
answer (d, r and both hierarchies), which must agree between trees.

`--short` runs one round with fewer repetitions and only the GF(1024) code,
in a few seconds; it checks that the script still runs, not the timings.
The standard library is all it needs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REDUCE_FIELDS = (2, 9, 13, 16, 256, 1024)
BUILD_FIELDS = (9, 16, 256, 1024)
CODES = ((16, 18, 9), (16, 20, 10), (1024, 9, 4))  # random_code(q, n, k, seed=1)
SHORT_CODES = ((1024, 9, 4),)
ROUNDS, SHORT_ROUNDS = 5, 1
REDUCE_CASES = 512  # (vector, basis) pairs per field
VECTOR_LEN = 5


def time_reduce(algebra, fld, reps: int) -> float:
    """Microseconds per `reduce_against` call over REDUCE_CASES seeded
    (vector, basis) pairs, each basis the reduced row echelon form of 1-3
    random rows; the median of `reps` passes."""
    rng = random.Random(fld.q)
    vectors, bases = [], []
    for _ in range(REDUCE_CASES):
        rows = [[rng.randrange(fld.q) for _ in range(VECTOR_LEN)]
                for _ in range(rng.randint(1, 3))]
        rref = algebra.Matrix(fld, rows).rref()
        bases.append([(p, list(row)) for p, row in zip(rref.pivots, rref.reduced.rows)])
        vectors.append([rng.randrange(fld.q) for _ in range(VECTOR_LEN)])
    reduce_against = algebra.reduce_against
    samples = []
    for _ in range(reps):
        work = [list(v) for v in vectors]  # reduced in place
        t0 = time.perf_counter_ns()
        for vec, basis in zip(work, bases):
            reduce_against(vec, basis, fld)
        samples.append((time.perf_counter_ns() - t0) / len(work) / 1e3)
    return statistics.median(samples)


def time_call_us(fn, reps: int) -> float:
    """Median microseconds of `reps` calls of `fn`."""
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter_ns()
        fn()
        samples.append((time.perf_counter_ns() - t0) / 1e3)
    return statistics.median(samples)


def time_certify(bounds, code, budget_s: float) -> dict:
    """`certify_optimal(code)`, repeated until `budget_s` of CPU time is
    spent (at least once): the median run's CPU and wall time and phase
    times, and the answer."""
    runs = []
    spent = 0.0
    while not runs or spent < budget_s:
        cpu0, wall0 = time.process_time(), time.perf_counter()
        report = bounds.certify_optimal(code)
        cpu, wall = time.process_time() - cpu0, time.perf_counter() - wall0
        spent += cpu
        runs.append({"cpu_s": cpu, "wall_s": wall,
                     "locality_s": report.timings["locality"] / 1e3,
                     "hierarchy_s": report.timings["hierarchy"] / 1e3})
    runs.sort(key=lambda r: r["cpu_s"])
    return {**runs[(len(runs) - 1) // 2], "runs": len(runs),
            "answer": {"d": report.d, "r": report.r,
                       "primal_hierarchy": list(report.primal_hierarchy),
                       "dual_hierarchy": list(report.dual_hierarchy)}}


def measure(src: str, short: bool) -> dict:
    """Every number for the ghwkit under `src`, in this interpreter."""
    sys.path.insert(0, src)
    from ghwkit import algebra, bounds, constructions

    where = Path(algebra.__file__).resolve()
    if Path(src).resolve() not in where.parents:
        raise ImportError(f"ghwkit imported from {where}, not from {src}")
    reps = 5 if short else 25
    layers: dict[str, dict[str, float]] = {"reduce_against_us": {}, "field_build_us": {},
                                           "field_for_order_us": {}}
    for q in REDUCE_FIELDS:
        layers["reduce_against_us"][f"gf{q}"] = time_reduce(
            algebra, constructions.field_for_order(q), reps)
    for q in BUILD_FIELDS:
        fld = constructions.field_for_order(q)
        layers["field_build_us"][f"gf{q}"] = time_call_us(
            lambda: algebra.Field(fld.p, fld.m), reps)
        layers["field_for_order_us"][f"gf{q}"] = time_call_us(
            lambda: constructions.field_for_order(q), reps)
    end_to_end = {
        f"certify_optimal.gf{q}_n{n}_k{k}": time_certify(
            bounds, constructions.random_code(q, n, k, seed=1), 0.2 if short else 1.0)
        for q, n, k in (SHORT_CODES if short else CODES)}
    return {"layers": layers, "end_to_end": end_to_end}


def run_tree(src: str, short: bool) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--measure", src]
    if short:
        cmd.append("--short")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    if proc.returncode:
        raise RuntimeError(f"measuring {src} failed with exit status {proc.returncode}")
    return json.loads(proc.stdout)


def summarise(samples: list[dict]) -> dict:
    """Each number's samples over the rounds and their median; answers must agree."""
    first = samples[0]
    layers = {
        kind: {f: {"median": statistics.median(s["layers"][kind][f] for s in samples),
                   "samples": [s["layers"][kind][f] for s in samples]}
               for f in per_field}
        for kind, per_field in first["layers"].items()}
    end_to_end = {}
    for name, one in first["end_to_end"].items():
        runs = [s["end_to_end"][name] for s in samples]
        if any(r["answer"] != one["answer"] for r in runs):
            raise RuntimeError(f"{name}: answers differ between rounds")
        entry = {key: {"median": statistics.median(r[key] for r in runs),
                       "samples": [r[key] for r in runs]}
                 for key in ("cpu_s", "wall_s", "locality_s", "hierarchy_s", "runs")}
        entry["answer"] = one["answer"]
        end_to_end[name] = entry
    return {"layers": layers, "end_to_end": end_to_end}


def git_commit() -> str | None:
    """The checkout's commit, suffixed "-dirty" when it has uncommitted changes."""
    proc = subprocess.run(["git", "-C", str(ROOT), "describe", "--always", "--dirty"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", action="append", metavar="LABEL=PATH",
                    help="a source tree to measure (repeatable); default src=<checkout>/src")
    ap.add_argument("--out", help="the JSON file to write (required)")
    ap.add_argument("--short", action="store_true", help="one quick round")
    ap.add_argument("--measure", metavar="PATH", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.measure:
        json.dump(measure(args.measure, args.short), sys.stdout)
        return 0
    if not args.out:
        ap.error("--out is required")

    trees = {}
    for spec in args.src or [f"src={ROOT / 'src'}"]:
        label, sep, path = spec.partition("=")
        if not sep or not label or not (Path(path) / "ghwkit").is_dir():
            ap.error(f"--src {spec!r}: want LABEL=PATH with PATH/ghwkit a package")
        trees[label] = path
    rounds = SHORT_ROUNDS if args.short else ROUNDS
    samples: dict[str, list[dict]] = {label: [] for label in trees}
    for rnd in range(rounds):
        order = list(trees) if rnd % 2 == 0 else list(reversed(trees))
        for label in order:
            samples[label].append(run_tree(trees[label], args.short))
    results = {label: summarise(runs) for label, runs in samples.items()}
    for name in next(iter(results.values()))["end_to_end"]:
        answers = {label: r["end_to_end"][name]["answer"] for label, r in results.items()}
        if len({json.dumps(a) for a in answers.values()}) > 1:
            raise RuntimeError(f"{name}: the trees give different answers: {answers}")

    record = {
        "meta": {
            "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "commit": git_commit(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
            "system": platform.system(),
            "cpu_count": os.cpu_count(),
            "short": args.short,
            "rounds": rounds,
            "reduce_cases": REDUCE_CASES,
            "vector_len": VECTOR_LEN,
            "codes": [f"random_code({q}, {n}, {k}, seed=1)"
                      for q, n, k in (SHORT_CODES if args.short else CODES)],
            "trees": list(trees),
        },
        "results": results,
    }
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
