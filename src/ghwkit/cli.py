"""Command-line surface: parse code files, analyze codes, construct
fixtures, and run the verification suites.

Code file format (UTF-8, LF, ``#`` comments allowed anywhere)::

    q 13            # or: q 4 modulus 1 1 1   (lowest degree first)
    n 12
    k 6
    <k rows of n space-separated integers in [0, q)>

Exit codes: 0 success; 1 for every refusal (a usage error, argparse's
included, or a file, parse or limit error) and a closed output pipe; 2 when
any claim verdict is violated (a correctness alarm, never silent).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from typing import Sequence

from .algebra import MAX_FIELD_SIZE
from .bounds import BoundReport, certify_optimal
from .code import CodeValidationError, LinearCode
from .constructions import _subgroup, field_for_order, random_code, reed_solomon, tamo_barg
from .ghw import DEFAULT_LIMIT_N, LimitError
from .suites import DEFAULT_COUNT, DEFAULT_SEED, SUITES, run_suite

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CLAIM_VIOLATED = 2


class CodeFileError(ValueError):
    """Malformed code file; message carries a line number."""


# ---------------------------------------------------------------------------
# Code file format


def parse_code_file(text: str) -> LinearCode:
    entries: list[tuple[int, list[str]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        entries.append((lineno, line.split()))

    if not entries:
        raise CodeFileError("file is empty: it needs header lines 'q', 'n', 'k' "
                            "and a generator")

    def header(pos: int, key: str) -> tuple[int, int, list[str]]:
        """The line number, the value and the tokens after it of header line
        `pos`; only the q line may carry more tokens, and n and k are >= 1."""
        if pos == len(entries):
            raise CodeFileError(f"line {len(text.splitlines()) + 1}: expected '{key} <int>', "
                                "found the end of the file")
        lineno, tokens = entries[pos]
        if tokens[0] != key:
            raise CodeFileError(f"line {lineno}: expected '{key} <int>', got "
                                f"{' '.join(tokens)!r}")
        try:
            value = int(tokens[1])
        except (IndexError, ValueError):
            value = None
        if value is None or (key != "q" and len(tokens) > 2):
            raise CodeFileError(f"line {lineno}: expected '{key} <int>'")
        if key != "q" and value < 1:
            raise CodeFileError(f"line {lineno}: n and k must be positive")
        return lineno, value, tokens[2:]

    lineno, q, rest = header(0, "q")
    if q > MAX_FIELD_SIZE:
        raise CodeFileError(f"line {lineno}: field size {q} exceeds {MAX_FIELD_SIZE}")
    modulus = None
    if rest:
        if rest[0] != "modulus":
            raise CodeFileError(f"line {lineno}: expected 'modulus' after q, got "
                                f"{rest[0]!r}")
        try:
            modulus = [int(t) for t in rest[1:]]
        except ValueError:
            raise CodeFileError(f"line {lineno}: modulus coefficients must be "
                                "integers") from None
        if not modulus:
            raise CodeFileError(f"line {lineno}: empty modulus")
    n = header(1, "n")[1]
    k = header(2, "k")[1]

    try:
        field = field_for_order(q, modulus)
    except (ValueError, ZeroDivisionError) as exc:
        raise CodeFileError(f"line {entries[0][0]}: invalid field: {exc}") from None

    body = entries[3:]
    if len(body) != k:
        raise CodeFileError(f"line {entries[2][0]}: expected {k} generator rows, "
                            f"found {len(body)}")
    rows = []
    for lineno, tokens in body:
        if len(tokens) != n:
            raise CodeFileError(f"line {lineno}: expected {n} entries, found "
                                f"{len(tokens)}")
        row = []
        for col, tok in enumerate(tokens, start=1):
            try:
                value = int(tok)
            except ValueError:
                raise CodeFileError(f"line {lineno}, column {col}: not an "
                                    f"integer: {tok!r}") from None
            if not 0 <= value < q:
                raise CodeFileError(f"line {lineno}, column {col}: entry {value} "
                                    f"outside [0, {q})")
            row.append(value)
        rows.append(row)
    try:
        return LinearCode(field, rows)
    except CodeValidationError as exc:  # rank 0 or a zero column
        raise CodeFileError(f"line {body[0][0]}: {exc}") from None


def serialize_code(code: LinearCode, comments: Sequence[str] = ()) -> str:
    lines = [f"# {c}" for c in comments]
    field = code.field
    if field.m > 1:
        mod = " ".join(str(c) for c in field.modulus)
        lines.append(f"q {field.q} modulus {mod}")
    else:
        lines.append(f"q {field.q}")
    lines.append(f"n {code.n}")
    lines.append(f"k {code.k}")
    for row in code.generator.rows:
        lines.append(" ".join(str(e) for e in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Analysis report


def _claim_payloads(report: BoundReport) -> dict:
    bounds: dict[str, dict] = {}
    for v in report.verdicts:
        entry: dict = {"status": v.status}
        if v.witness_index is not None:
            entry["witness_index"] = v.witness_index
        bounds[v.claim] = {**entry, **v.payload}
    return bounds


def analysis_report(code: LinearCode, *, promised_r: int | None = None,
                    with_witnesses: bool = False, limit_n: int = DEFAULT_LIMIT_N,
                    time_limit: float | None = None) -> dict:
    """The full JSON-ready report; every field except `timings` is a pure
    function of the code file."""
    t0 = time.perf_counter()
    report = certify_optimal(code, promised_r=promised_r, limit_n=limit_n,
                             time_limit=time_limit, with_witnesses=with_witnesses)
    field = code.field
    out: dict = {
        "params": {
            "q": field.q,
            "p": field.p,
            "m": field.m,
            "modulus": list(field.modulus) if field.modulus else None,
            "n": code.n,
            "k": code.k,
            "r": report.r,
            "promised_r": report.promised_r,
            "d": report.d,
        },
        "locality": {
            "r": report.locality_profile.r,
            "per_coordinate": list(report.locality_profile.per_coordinate),
            "covering_rows": [list(row) for row in
                              report.locality_profile.covering_rows],
        },
        "primal_hierarchy": list(report.primal_hierarchy),
        "primal_gaps": list(report.primal_gaps),
        "dual_hierarchy": list(report.dual_hierarchy),
        "dual_gaps": list(report.dual_gaps),
        "bounds": _claim_payloads(report),
        "is_optimal": report.is_optimal,
    }
    if with_witnesses:
        out["witnesses"] = {
            str(i): {
                "support": [j + 1 for j in w.support],  # 1-based coordinates
                "dimension": w.dimension,
                "basis": [list(vec) for vec in w.basis],
            }
            for i, w in sorted(report.witnesses.items())
        }
    out["timings"] = {
        "analyze_ms": round((time.perf_counter() - t0) * 1000, 3),
        "locality_ms": round(report.timings["locality"], 3),
        "hierarchy_ms": round(report.timings["hierarchy"], 3),
    }
    return out


def render_text(report: dict) -> str:
    p = report["params"]
    lines = [
        f"[n={p['n']}, k={p['k']}] code over GF({p['q']}), d = {p['d']}",
        f"locality r = {report['locality']['r']}"
        + (f" (claims evaluated at promised r = {p['r']})" if p["promised_r"] else ""),
        f"primal hierarchy: {report['primal_hierarchy']}  gaps: {report['primal_gaps']}",
        f"dual hierarchy:   {report['dual_hierarchy']}  gaps: {report['dual_gaps']}",
        f"optimal (distance meets the Singleton-like bound): {report['is_optimal']}",
        "claims:",
    ]
    for claim, payload in report["bounds"].items():
        detail = ""
        if payload.get("witness_index") is not None:
            detail = f" (index {payload['witness_index']})"
        lines.append(f"  {claim:10s} {payload['status']}{detail}")
    t = report["timings"]
    lines.append(f"analyze time: {t['analyze_ms']} ms (locality {t['locality_ms']} ms, "
                 f"hierarchy {t['hierarchy_ms']} ms)")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Commands


def cmd_analyze(args: argparse.Namespace) -> int:
    with open(args.file, "r", encoding="utf-8") as fh:
        text = fh.read()
    report = analysis_report(parse_code_file(text), promised_r=args.promised_r,
                             with_witnesses=args.witnesses, limit_n=args.limit_n,
                             time_limit=args.time_limit)
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(render_text(report))
    violated = [claim for claim, payload in report["bounds"].items()
                if payload["status"] == "violated"]
    if violated:
        print(f"VIOLATED CLAIMS: {', '.join(violated)}", file=sys.stderr)
        return EXIT_CLAIM_VIOLATED
    return EXIT_OK


def cmd_construct(args: argparse.Namespace) -> int:
    if args.kind == "tamo-barg":
        if args.r is None:
            raise ValueError("tamo-barg needs --r")
        code = tamo_barg(args.q, args.n, args.k, args.r)
        extra, points = f" r={args.r}", _subgroup(code.field, args.n)
    elif args.kind == "reed-solomon":
        code = reed_solomon(args.q, args.n, args.k)
        extra, points = "", range(args.n)
    else:
        code = random_code(args.q, args.n, args.k, args.seed)
        extra, points = f" seed={args.seed}", None
    kind = args.kind.replace("-", "_")
    comments = [f"kind={kind} q={args.q} n={args.n} k={args.k}{extra}"]
    if points is not None:
        comments.append("evaluation points (element indices): "
                        + " ".join(str(x) for x in points))
    text = serialize_code(code, comments)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote [{code.n},{code.k}] code over GF({code.field.q}) to {args.output}")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    results = run_suite(args.suite, seed=args.seed, count=args.count)
    for res in results:
        print(res.summary())
    all_ok = all(res.ok for res in results)
    total_checks = sum(r.checks for r in results)
    total_codes = sum(r.codes for r in results)
    print(f"total: {total_codes} codes, {total_checks} checks, "
          f"{'all suites pass' if all_ok else 'FAILURES PRESENT'}")
    return EXIT_OK if all_ok else EXIT_CLAIM_VIOLATED


def _positive_int(text: str) -> int:
    if not (text.isdecimal() and int(text) >= 1):
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _positive_seconds(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not value > 0:  # NaN fails too: as a limit it would never trip the guard
        raise argparse.ArgumentTypeError(f"expected a positive number of seconds, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ghwkit",
        description="Weight hierarchies, gap numbers, locality and bounds "
                    "for linear codes over finite fields.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="analyze a code file")
    p_an.add_argument("file")
    p_an.add_argument("--json", action="store_true", help="emit a JSON report")
    p_an.add_argument("--witnesses", action="store_true",
                      help="include witness subcodes for each hierarchy value")
    p_an.add_argument("--limit-n", type=_positive_int, default=DEFAULT_LIMIT_N,
                      dest="limit_n", help="hierarchy enumeration limit on n")
    p_an.add_argument("--promised-r", type=int, default=None, dest="promised_r",
                      help="evaluate claims at this locality parameter instead "
                           "of the computed one (must be an upper bound)")
    p_an.add_argument("--time-limit", type=_positive_seconds, default=None, dest="time_limit",
                      help="wall-time guard in seconds for the whole analysis")
    p_an.set_defaults(func=cmd_analyze)

    p_co = sub.add_parser("construct", help="construct a fixture code file")
    p_co.add_argument("kind", choices=("tamo-barg", "reed-solomon", "random"))
    p_co.add_argument("--q", type=int, required=True)
    p_co.add_argument("--n", type=int, required=True)
    p_co.add_argument("--k", type=int, required=True)
    p_co.add_argument("--r", type=int, default=None)
    p_co.add_argument("--seed", type=int, default=0)
    p_co.add_argument("-o", "--output", required=True)
    p_co.set_defaults(func=cmd_construct)

    p_ve = sub.add_parser("verify", help="run verification suites")
    p_ve.add_argument("suite", nargs="?", default="all",
                      choices=(*SUITES.keys(), "all"))
    p_ve.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_ve.add_argument("--count", type=_positive_int, default=DEFAULT_COUNT)
    p_ve.set_defaults(func=cmd_verify)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        rc = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return rc
    except SystemExit as exc:  # from argparse: 0 after --help, 2 after a usage error
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    except BrokenPipeError:
        # The reader closed the pipe: point stdout at devnull so that the
        # flush at interpreter exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_USAGE
    except (LimitError, OSError, ValueError, ZeroDivisionError) as exc:  # a refusal
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
