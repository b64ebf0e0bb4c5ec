"""Output checks for benchmark ops, run outside the timed intervals.

`report_problems` judges one `analysis_report` JSON against the generator it
was computed from, using only the benchmark's own field arithmetic.  The
`Checker` adds what needs more context: whether a refusal is justified, the
definition-level oracle on small codes, the recorded digests at the default
seed, and that repeated ops on one input give identical outputs.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from workloads import CodeInput, field

DIGEST_DIR = Path(__file__).resolve().parent / "digests"
ORACLE_CAP = 64  # ghw_oracle checks a hierarchy when q^dimension is at most this


def report_digest(report: dict) -> str:
    comparable = {key: value for key, value in report.items() if key != "timings"}
    text = json.dumps(comparable, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def refusal_digest(message: str) -> str:
    return hashlib.sha256(f"refused\n{message}".encode()).hexdigest()[:16]


def uncoverable(code: CodeInput) -> list[int]:
    """0-based coordinates j whose unit vector e_j is a codeword, i.e. where
    the check matrix H has an all-zero column: deleting column j drops the
    generator's rank."""
    fld = field(code.q)
    return [j for j in range(code.n)
            if fld.rank([row[:j] + row[j + 1:] for row in code.rows]) < code.k]


def _hierarchy_problems(label: str, values, gaps, n: int, dim: int) -> list[str]:
    problems = []
    if len(values) != dim or any(not 1 <= v <= n for v in values):
        problems.append(f"{label} hierarchy {values} is not {dim} values in 1..{n}")
    if any(a >= b for a, b in zip(values, values[1:])):
        problems.append(f"{label} hierarchy {values} is not strictly increasing")
    if list(gaps) != sorted(set(range(1, n + 1)) - set(values)):
        problems.append(f"{label} gaps {gaps} are not the complement of {values}")
    return problems


def report_problems(code: CodeInput, report: dict) -> list[str]:
    """Everything wrong with one report; an empty list means it passes."""
    fld = field(code.q)
    n, k = code.n, code.k
    problems = []
    params = report["params"]
    if (params["q"], params["n"], params["k"]) != (code.q, n, k):
        problems.append(f"params {params} do not match the input [{n},{k}]_{code.q}")
    primal, dual = report["primal_hierarchy"], report["dual_hierarchy"]
    problems += _hierarchy_problems("primal", primal, report["primal_gaps"], n, k)
    problems += _hierarchy_problems("dual", dual, report["dual_gaps"], n, n - k)
    mirrored = {n + 1 - d for d in dual}
    if set(primal) & mirrored or set(primal) | mirrored != set(range(1, n + 1)):
        problems.append(f"Wei duality fails: primal {primal}, dual {dual}")
    if primal and params["d"] != primal[0]:
        problems.append(f"d = {params['d']} but d_1 = {primal[0]}")

    loc = report["locality"]
    r = loc["r"]
    per = loc["per_coordinate"]
    if len(per) != n or max(per) != r or params["r"] != r:
        problems.append(f"locality r = {r} does not match per-coordinate {per}")
    covered: set[int] = set()
    for h in loc["covering_rows"]:
        if len(h) != n or any(not 0 <= e < code.q for e in h):
            problems.append(f"covering row {h} is not a vector over GF({code.q})")
            continue
        if any(fld.dot(g, h) for g in code.rows):
            problems.append(f"covering row {h} is not a dual codeword")
        weight = sum(1 for e in h if e)
        if not 1 <= weight <= r + 1:
            problems.append(f"covering row {h} has weight {weight} outside 1..r+1")
        covered.update(j for j, e in enumerate(h) if e)
    if covered != set(range(n)):
        problems.append(f"covering rows miss coordinates {sorted(set(range(n)) - covered)}")

    violated = [claim for claim, payload in report["bounds"].items()
                if payload["status"] == "violated"]
    if violated:
        problems.append(f"claims violated: {violated}")
    return problems


def load_digests(workload: str, seed: int) -> list[str] | None:
    """Recorded per-input digests, or None when none exist for this seed."""
    path = DIGEST_DIR / f"{workload}.txt"
    if not path.exists():
        return None
    lines = path.read_text().split("\n")
    if lines[0] != f"# seed {seed}":
        return None
    return [line for line in lines[1:] if line]


class Checker:
    """Judges each op's outcome the first time its input is seen, and holds
    later ops on the same input to the identical output."""

    def __init__(self, lib, digests: list[str] | None):
        self.lib = lib
        self.digests = digests
        self.seen: dict[int, str] = {}

    def check(self, idx: int, code: CodeInput, outcome: str, payload: str) -> str | None:
        if outcome == "error":
            return f"input {idx}: unexpected error {payload}"
        report = json.loads(payload) if outcome == "report" else None
        digest = report_digest(report) if report is not None else refusal_digest(payload)
        if idx in self.seen:
            if self.seen[idx] != digest:
                return f"input {idx}: output differs from an earlier op on it"
            return None
        self.seen[idx] = digest
        problems = self._judge(code, report)
        if self.digests is not None and idx < len(self.digests) \
                and self.digests[idx] != digest:
            problems.append(f"digest {digest} != recorded {self.digests[idx]}")
        return f"input {idx}: " + "; ".join(problems) if problems else None

    def _judge(self, code: CodeInput, report: dict | None) -> list[str]:
        bad = uncoverable(code)
        if report is None:
            return [] if bad else ["refused, but H has no all-zero column"]
        if bad:
            return [f"reported, but coordinates {bad} are uncoverable"]
        problems = report_problems(code, report)
        if not problems and self.lib.ghw_oracle is not None:
            problems += self._oracle_problems(code, report)
        return problems

    def _oracle_problems(self, code: CodeInput, report: dict) -> list[str]:
        """ghw_oracle against each hierarchy whose code is small enough."""
        problems = []
        parsed = None
        for label, dim in (("primal", code.k), ("dual", code.n - code.k)):
            if code.q ** dim > ORACLE_CAP:
                continue
            parsed = parsed or self.lib.parse_code_file(code.text)
            target = parsed if label == "primal" else parsed.dual()
            oracle = [self.lib.ghw_oracle(target, i) for i in range(1, dim + 1)]
            values = report[f"{label}_hierarchy"]
            if oracle != values:
                problems.append(f"{label} hierarchy {values} != oracle {oracle}")
        return problems
