"""Compare the benchmark results of two commits.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the result records `run.py` writes (its `--out`).  For
every workload and end-to-end metric the tool prints each side's median and
quartiles, the pairs the change won (runs paired by seed, else in seed
order; ties count for neither side) and a verdict.  The verdict is `better`
when the change wins at least nine tenths of the pairs and the medians
differ, in its favour, by more than the parent's quartile spread; `worse`
when the same holds for the parent; `unresolved` otherwise.  From the traced
runs it prints each span's self time per op on both sides.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: str) -> dict[tuple[str, int], dict[int, dict]]:
    """(workload, trace) -> {seed: record}."""
    runs: dict[tuple[str, int], dict[int, dict]] = {}
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        key = (record["meta"]["workload"], record["trace"])
        runs.setdefault(key, {})[record["meta"]["seed"]] = record
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def pairs(parent: dict[int, float], change: dict[int, float]) -> list[tuple[float, float]]:
    common = sorted(set(parent) & set(change))
    if common:
        return [(parent[s], change[s]) for s in common]
    return list(zip((parent[s] for s in sorted(parent)),
                    (change[s] for s in sorted(change))))


def verdict(parent: dict[int, float], change: dict[int, float], lower_is_better: bool):
    matched = pairs(parent, change)
    sign = -1 if lower_is_better else 1
    won = sum(1 for p, c in matched if sign * (c - p) > 0)
    lost = sum(1 for p, c in matched if sign * (c - p) < 0)
    q1, p_med, q3 = quartiles(list(parent.values()))
    gain = sign * (statistics.median(change.values()) - p_med)
    if won >= 0.9 * len(matched) and gain > q3 - q1:
        return "better", won, len(matched)
    if lost >= 0.9 * len(matched) and -gain > q3 - q1:
        return "worse", won, len(matched)
    return "unresolved", won, len(matched)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load(argv[0]), load(argv[1])
    workloads = [w["name"] for w in spec["workloads"]]

    print(f"{'workload':13s} {'metric':12s} {'unit':6s} {'parent median [q1, q3]':>30s} "
          f"{'change median [q1, q3]':>30s} {'change':>8s} {'won':>6s}  verdict")
    for workload in workloads:
        p_runs, c_runs = parent.get((workload, 0), {}), change.get((workload, 0), {})
        if not p_runs or not c_runs:
            print(f"{workload:13s} (untraced runs missing on one side)")
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p_vals = {s: r["result"]["metrics"][name]["value"] for s, r in p_runs.items()}
            c_vals = {s: r["result"]["metrics"][name]["value"] for s, r in c_runs.items()}
            result, won, total = verdict(p_vals, c_vals, metric["better"] == "lower")
            pq, cq = quartiles(list(p_vals.values())), quartiles(list(c_vals.values()))
            delta = (cq[1] - pq[1]) / pq[1] if pq[1] else float("nan")
            print(f"{workload:13s} {name:12s} {metric['unit']:6s} "
                  f"{pq[1]:11.4g} [{pq[0]:8.4g}, {pq[2]:8.4g}] "
                  f"{cq[1]:11.4g} [{cq[0]:8.4g}, {cq[2]:8.4g}] "
                  f"{delta:+8.1%} {won:>3d}/{total:<3d} {result}")

    print(f"\n{'workload':13s} {'span':28s} {'parent self ms/op':>18s} "
          f"{'change self ms/op':>18s} {'diff ms/op':>11s}")
    for workload in workloads:
        p_runs, c_runs = parent.get((workload, 1), {}), change.get((workload, 1), {})
        if not p_runs or not c_runs:
            print(f"{workload:13s} (traced runs missing on one side)")
            continue
        for metric in spec["per_layer"]:
            name = metric["name"]
            if not name.endswith(".self_s"):
                continue

            def per_op(runs: dict[int, dict]) -> float:
                return statistics.median(
                    r["result"]["metrics"][name]["value"] / r["meta"]["ops"] * 1e3
                    for r in runs.values())

            p_ms, c_ms = per_op(p_runs), per_op(c_runs)
            print(f"{workload:13s} {name[:-len('.self_s')]:28s} {p_ms:18.4f} "
                  f"{c_ms:18.4f} {c_ms - p_ms:+11.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
