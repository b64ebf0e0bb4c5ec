"""ghwkit benchmark: replays `ghwkit analyze --json` over seeded code streams.

One op is what `analyze` does after reading its file: `parse_code_file`,
`analysis_report`, `json.dumps`.  Ops run back to back in one thread (a
closed loop with one client).  A refusal with `UncoverableCoordinateError`
is a correct outcome when the check matrix has an all-zero column.

    python3 perfbench/run.py --workload sweep_gf2 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one process each
    python3 perfbench/run.py --workload verify_small --record-digests

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer ones;
the last line of standard output is the result as one JSON object.  A
fuller record of each run goes to perfbench/out/results/.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter_ns  # noqa: E402

from checks import Checker, load_digests, refusal_digest, report_digest  # noqa: E402
from spans import SPANS, Tracer  # noqa: E402
from workloads import WORKLOADS, SplitMix64, generate  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DEFAULT_SEED = 1
SETUP_REPS = 5
MIN_OPS = 100
PROBE_LOOPS = 20_000
# The reference probe time: close to the median probe on the 2-vCPU VM where
# the benchmark was built.  Times are reported at this machine speed.
PROBE_REF_NS = 2_000_000
MICRO_FIELDS = (("gf2", 2, 1), ("gf9", 3, 2), ("gf13", 13, 1), ("gf16", 2, 4))
MICRO_PAIRS = 8192
MICRO_REPS = 9


class Library:
    """A fresh import of ghwkit from this checkout's src/ and the op on it.

    The op looks its functions up on the modules at every call, so spans
    installed later take effect.
    """

    def __init__(self):
        for name in [m for m in sys.modules if m == "ghwkit" or m.startswith("ghwkit.")]:
            del sys.modules[name]
        self.cli = importlib.import_module("ghwkit.cli")
        where = Path(sys.modules["ghwkit"].__file__).resolve()
        if SRC.resolve() not in where.parents:
            raise ImportError(f"ghwkit imported from {where}, not from {SRC}")
        self.algebra = sys.modules["ghwkit.algebra"]
        self.parse_code_file = self.cli.parse_code_file
        # The oracle may move out of the library into its tests.
        self.ghw_oracle = getattr(sys.modules["ghwkit.ghw"], "ghw_oracle", None)
        self.refusal = sys.modules["ghwkit.locality"].UncoverableCoordinateError

    def run_op(self, text: str) -> tuple[str, str]:
        cli = self.cli
        try:
            return "report", json.dumps(cli.analysis_report(cli.parse_code_file(text)))
        except self.refusal as exc:
            return "refused", str(exc)
        except Exception as exc:  # every other error fails the op; it is reported
            return "error", f"{type(exc).__name__}: {exc}"


def set_up(workload: str, seed: int):
    lib = Library()
    pool, warm = generate(workload, seed)
    lib.run_op(warm.text)
    return lib, pool


def probe_ns() -> int:
    """Time of a fixed pure-Python loop, a gauge of the machine's speed now."""
    t0 = perf_counter_ns()
    s = 0
    for i in range(PROBE_LOOPS):
        s = (s + i * i) % 1000003
    return perf_counter_ns() - t0


@dataclass
class Loop:
    indices: list[int] = field(default_factory=list)
    latency_ns: list[int] = field(default_factory=list)
    probe_ns: list[int] = field(default_factory=list)
    outcomes: Counter = field(default_factory=Counter)
    failures: list[str] = field(default_factory=list)

    @property
    def busy_s(self) -> float:
        return sum(self.latency_ns) / 1e9


def closed_loop(lib, pool, checker, loop: Loop, *, seconds: float = 0.0,
                min_ops: int = 0, indices=None, tracer=None) -> None:
    """Extend `loop` with ops back to back, until this call has spent
    `seconds` of op time and `loop` holds `min_ops` ops, or over exactly
    `indices`.  Before each op the speed probe runs, and after it the output
    is checked, both outside the timed intervals."""
    budget = seconds * 1e9
    busy = 0
    todo = iter(indices) if indices is not None else None
    while True:
        if todo is not None:
            idx = next(todo, None)
            if idx is None:
                break
        elif busy >= budget and len(loop.indices) >= min_ops:
            break
        else:
            idx = len(loop.indices) % len(pool)
        code = pool[idx]
        loop.probe_ns.append(probe_ns())
        if tracer is not None:
            tracer.op_id, tracer.on = len(loop.indices), True
        t0 = perf_counter_ns()
        outcome, payload = lib.run_op(code.text)
        t1 = perf_counter_ns()
        if tracer is not None:
            tracer.on = False
        busy += t1 - t0
        loop.indices.append(idx)
        loop.latency_ns.append(t1 - t0)
        loop.outcomes[outcome] += 1
        problem = checker.check(idx, code, outcome, payload)
        if problem is not None:
            loop.failures.append(problem)


def field_micro(lib) -> dict[str, float]:
    """ns per call of Field.mul and Field.sub over fixed element pairs
    (loop overhead included), and Field construction time, per field."""
    out = {}
    for label, p, m in MICRO_FIELDS:
        builds = []
        for _ in range(MICRO_REPS):
            t0 = perf_counter_ns()
            fld = lib.algebra.Field(p, m)
            builds.append((perf_counter_ns() - t0) / 1e3)
        out[f"algebra.field_build_us.{label}"] = statistics.median(builds)
        rng = SplitMix64(fld.q)
        pairs = [(rng.below(fld.q), rng.below(fld.q)) for _ in range(MICRO_PAIRS)]
        for name in ("mul", "sub"):
            fn = getattr(fld, name)
            samples = []
            for _ in range(MICRO_REPS):
                t0 = perf_counter_ns()
                for a, b in pairs:
                    fn(a, b)
                samples.append((perf_counter_ns() - t0) / len(pairs))
            out[f"algebra.{name}_ns.{label}"] = statistics.median(samples)
    return out


def percentile_ms(latency_ns: list[int], pct: int) -> float:
    cuts = statistics.quantiles(latency_ns, n=100, method="inclusive")
    return cuts[pct - 1] / 1e6


def run_metadata(workload: str, seed: int, pool, loop: Loop) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    src_hash = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        src_hash.update(path.read_bytes())
    histogram = Counter(f"{pool[i].q},{pool[i].n},{pool[i].k}" for i in loop.indices)
    return {
        "workload": workload, "seed": seed, "commit": commit,
        "src_sha256": src_hash.hexdigest()[:16],
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "ops": len(loop.indices), "refusals": loop.outcomes["refused"],
        "errors": loop.outcomes["error"], "failed": len(loop.failures),
        "latency_samples": len(loop.latency_ns), "op_seconds": loop.busy_s,
        "qnk_histogram": dict(sorted(histogram.items())),
    }


def end_to_end(setup_s: list[float], loop: Loop, rss_mb: float, scale: float) -> dict:
    """End-to-end metrics with every time multiplied by `scale`."""
    completed = len(loop.latency_ns) - loop.outcomes["error"]
    return {
        "setup_s": (statistics.median(setup_s) * scale, "s"),
        "codes_per_s": (completed / (loop.busy_s * scale), "ops/s"),
        "code_p50_ms": (percentile_ms(loop.latency_ns, 50) * scale, "ms"),
        "code_p90_ms": (percentile_ms(loop.latency_ns, 90) * scale, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(tracer: Tracer, untraced: Loop, traced: Loop, micro: dict):
    """Per-layer metrics, plus each ratio's base and the layer shares."""
    summary = tracer.summary()
    metrics = {}
    for name in SPANS:
        metrics[f"{name}.calls"] = (summary[name]["calls"], "count")
        metrics[f"{name}.self_s"] = (summary[name]["self_s"], "s")
        metrics[f"{name}.errors"] = (summary[name]["errors"], "count")
    for key, value in micro.items():
        metrics[key] = (value, "us" if "_us." in key else "ns")
    ops = len(traced.indices)
    loc_total = summary["locality.locality"]["total_s"]
    cert_total = summary["bounds.certify_optimal"]["total_s"]
    metrics["algebra.rank_of_columns.per_code"] = (
        summary["algebra.rank_of_columns"]["calls"] / ops, "calls/op")
    metrics["locality.covering_share"] = (
        summary["locality.covering_rows"]["self_s"] / loc_total, "ratio")
    metrics["ghw.dual_share"] = (summary["ghw.dual_sweep"]["total_s"] / cert_total, "ratio")
    metrics["trace.overhead_frac"] = (traced.busy_s / untraced.busy_s - 1, "ratio")
    op_s = traced.busy_s
    bases = {
        "algebra.rank_of_columns.per_code": f"{ops} traced ops",
        "locality.covering_share": f"locality.locality total {loc_total:.4f} s",
        "ghw.dual_share": f"bounds.certify_optimal total {cert_total:.4f} s",
        "trace.overhead_frac": f"untraced op time {untraced.busy_s:.4f} s on the same ops",
    }
    shares = {
        "ghw sweeps, total": (summary["ghw.primal_sweep"]["total_s"]
                              + summary["ghw.dual_sweep"]["total_s"]) / op_s,
        "locality.locality, total": loc_total / op_s,
        "locality.locality, self": summary["locality.locality"]["self_s"] / op_s,
        "locality.covering_rows, total": summary["locality.covering_rows"]["total_s"] / op_s,
        "algebra.rank_of_columns, self": summary["algebra.rank_of_columns"]["self_s"] / op_s,
        "cli + code + algebra.Field + bounds, self": sum(
            summary[name]["self_s"] for name in (
                "cli.parse_code_file", "cli.analysis_report", "code.LinearCode",
                "code.dual", "algebra.Field", "bounds.certify_optimal")) / op_s,
    }
    return metrics, bases, shares


def run(args) -> dict:
    lib, pool = set_up(args.workload, args.seed)
    setup_s = [time.perf_counter() - _T0]
    checker = Checker(lib, load_digests(args.workload, args.seed))
    extra = {}
    if not args.trace:
        # The other set-up repetitions are spread through the run, between
        # ops, so that their median samples the machine at several moments.
        loop = Loop()
        for rep in range(1, SETUP_REPS):
            gc.collect()
            closed_loop(lib, pool, checker, loop, seconds=args.seconds / (SETUP_REPS - 1),
                        min_ops=MIN_OPS if rep == SETUP_REPS - 1 else 0)
            lib = pool = None  # each repetition starts from a collected heap
            gc.collect()
            start = time.perf_counter()
            lib, pool = set_up(args.workload, args.seed)
            setup_s.append(time.perf_counter() - start)
            checker.lib = lib
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # The VM's speed drifts by tens of percent over minutes, so times are
        # reported at the reference probe speed; the raw ones are kept too.
        probe = statistics.median(loop.probe_ns)
        metrics = end_to_end(setup_s, loop, rss_mb, PROBE_REF_NS / probe)
        extra["calibration"] = {"probe_ms": probe / 1e6, "scale": PROBE_REF_NS / probe}
        extra["raw_metrics"] = {name: value for name, (value, _) in
                                end_to_end(setup_s, loop, rss_mb, 1.0).items()}
        loops = [loop]
    else:
        # Each op runs untraced and then traced, so the overhead estimate
        # compares the same op at nearly the same moment.
        gc.collect()
        untraced, traced = Loop(), Loop()
        tracer = Tracer()
        while not untraced.indices or untraced.busy_s < args.seconds / 2:
            closed_loop(lib, pool, checker, untraced, min_ops=len(untraced.indices) + 1)
            tracer.install()
            try:
                closed_loop(lib, pool, checker, traced, indices=untraced.indices[-1:],
                            tracer=tracer)
            finally:
                tracer.uninstall()
        metrics, extra["ratio_bases"], extra["layer_shares"] = per_layer(
            tracer, untraced, traced, field_micro(lib))
        tracer.write(OUT / f"spans-{args.workload}.bin")
        extra["spans_file"] = str((OUT / f"spans-{args.workload}.bin").relative_to(ROOT))
        loop, loops = traced, [untraced, traced]
    meta = run_metadata(args.workload, args.seed, pool, loop)
    meta["oracle_checked"] = lib.ghw_oracle is not None
    attempted = sum(len(lp.indices) for lp in loops)
    failures = [f for lp in loops for f in lp.failures]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = {"trace": args.trace, "meta": meta, **extra, "failures": failures[:20],
              "setup_reps_s": setup_s, "result": result}
    results_dir = Path(args.out)
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-t{args.trace}-s{args.seed}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    for failure in failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"ops={meta['ops']} refusals={meta['refusals']} failed={len(failures)} "
          f"samples={meta['latency_samples']} commit={meta['commit']} "
          f"src={meta['src_sha256']} python={meta['python']} nproc={meta['nproc']}")
    for name, (value, unit) in metrics.items():
        print(f"{name:45s} {value:14.6g} {unit}")
    if "calibration" in extra:
        print(f"# probe median {extra['calibration']['probe_ms']:.4f} ms, times scaled by "
              f"{extra['calibration']['scale']:.4f}; raw: " + ", ".join(
                  f"{name}={value:.6g}" for name, value in extra["raw_metrics"].items()))
    for label, share in extra.get("layer_shares", {}).items():
        print(f"# share of traced op time: {label:40s} {share:.3f}")
    for name, base in extra.get("ratio_bases", {}).items():
        print(f"# base of {name}: {base}")
    return result


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--out", args.out],
            capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 2
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def record_digests(args) -> int:
    """Write the per-input report digests of a workload's pool at the
    default seed, after checking every report."""
    lib = Library()
    pool, _ = generate(args.workload, DEFAULT_SEED)
    checker = Checker(lib, None)
    digests = []
    for idx, code in enumerate(pool):
        outcome, payload = lib.run_op(code.text)
        problem = checker.check(idx, code, outcome, payload)
        if problem is not None:
            print(f"error: {problem}", file=sys.stderr)
            return 2
        digests.append(report_digest(json.loads(payload)) if outcome == "report"
                       else refusal_digest(payload))
    path = HERE / "digests" / f"{args.workload}.txt"
    path.write_text(f"# seed {DEFAULT_SEED}\n" + "\n".join(digests) + "\n")
    print(f"wrote {len(digests)} digests to {path.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(OUT / "results"),
                        help="directory for the full result records")
    parser.add_argument("--record-digests", action="store_true",
                        help="record the default seed's report digests and exit")
    args = parser.parse_args(argv)
    if not (SRC / "ghwkit").is_dir():
        print(f"error: no ghwkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        if args.workload == "all":
            return run_all(args)
        if args.record_digests:
            return record_digests(args)
        result = run(args)
    except ImportError as exc:
        print(f"error: cannot import ghwkit: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
