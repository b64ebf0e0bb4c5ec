"""Spans around ghwkit's layer boundaries, installed from outside the library.

`Tracer.install` replaces each traced function at every ghwkit module
namespace that holds it (and each traced method on its class) with a
wrapper that records a span: name, start, end, parent span and op id.
Spans are kept in flat arrays and written out when the run ends.  Self time
is a span's duration minus the time its child spans cover; it is summed per
name while the run goes, together with call and error counts.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter_ns

SPANS = (
    "cli.parse_code_file",
    "cli.analysis_report",
    "bounds.certify_optimal",
    "locality.locality",
    "locality.covering_rows",
    "ghw.primal_sweep",
    "ghw.dual_sweep",
    "code.LinearCode",
    "code.dual",
    "algebra.Field",
    "algebra.rank_of_columns",
    "algebra.rref",
    "algebra.nullspace",
)
# Recorded for parentage only: tells a dual sweep from a primal one.
_DUAL_PARENT = "ghw.dual_hierarchy_values"
_NAMES = SPANS + (_DUAL_PARENT,)

# (span name, module, attribute); weight_hierarchy is named per call from
# its parent.
_FUNCTIONS = (
    ("cli.parse_code_file", "ghwkit.cli", "parse_code_file"),
    ("cli.analysis_report", "ghwkit.cli", "analysis_report"),
    ("bounds.certify_optimal", "ghwkit.bounds", "certify_optimal"),
    ("locality.locality", "ghwkit.locality", "locality"),
    ("locality.covering_rows", "ghwkit.locality", "covering_rows"),
    (None, "ghwkit.ghw", "weight_hierarchy"),
    (_DUAL_PARENT, "ghwkit.ghw", "dual_hierarchy_values"),
)
# (span name, module, class, method)
_METHODS = (
    ("code.LinearCode", "ghwkit.code", "LinearCode", "__init__"),
    ("code.dual", "ghwkit.code", "LinearCode", "dual"),
    ("algebra.Field", "ghwkit.algebra", "Field", "__init__"),
    ("algebra.rank_of_columns", "ghwkit.algebra", "Matrix", "rank_of_columns"),
    ("algebra.rref", "ghwkit.algebra", "Matrix", "rref"),
    ("algebra.nullspace", "ghwkit.algebra", "Matrix", "nullspace"),
)


class Tracer:
    def __init__(self):
        self.on = False
        self.op_id = -1
        self.name = array("B")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.calls = [0] * len(_NAMES)
        self.self_ns = [0] * len(_NAMES)
        self.total_ns = [0] * len(_NAMES)
        self.errors = [0] * len(_NAMES)
        self._stack: list[list[int]] = []  # [span index, name id, child ns]
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str | None):
        fixed = _NAMES.index(name) if name is not None else None
        primal, dual = _NAMES.index("ghw.primal_sweep"), _NAMES.index("ghw.dual_sweep")
        dual_parent = _NAMES.index(_DUAL_PARENT)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            top = stack[-1] if stack else None
            nid = fixed
            if nid is None:
                nid = dual if top is not None and top[1] == dual_parent else primal
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(top[0] if top is not None else -1)
            self.op.append(self.op_id)
            self.end.append(0)
            frame = [idx, nid, 0]
            stack.append(frame)
            t0 = perf_counter_ns()
            self.start.append(t0)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.errors[nid] += 1
                raise
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                dur = t1 - t0
                self.end[idx] = t1
                self.calls[nid] += 1
                self.total_ns[nid] += dur
                self.self_ns[nid] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur

        return wrapper

    def install(self) -> None:
        """Wrap every target the library still has; a target that a later
        version removed is skipped, and its span reports zero calls."""
        modules = [m for key, m in sys.modules.items()
                   if key == "ghwkit" or key.startswith("ghwkit.")]
        for name, module, attr in _FUNCTIONS:
            original = getattr(sys.modules.get(module), attr, None)
            if original is None:
                continue
            wrapper = self._wrap(original, name)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
        for name, module, cls_name, attr in _METHODS:
            cls = getattr(sys.modules.get(module), cls_name, None)
            original = vars(cls).get(attr) if cls is not None else None
            if original is None:
                continue
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        return {name: {"calls": self.calls[i], "self_s": self.self_ns[i] / 1e9,
                       "total_s": self.total_ns[i] / 1e9, "errors": self.errors[i]}
                for i, name in enumerate(_NAMES)}

    def write(self, path: Path) -> None:
        """Spans as a JSON header line followed by the five raw arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            header = {"names": list(_NAMES), "spans": len(self.start),
                      "arrays": [["name", "B"], ["start_ns", "q"], ["end_ns", "q"],
                                 ["parent", "i"], ["op", "i"]]}
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.start, self.end, self.parent, self.op):
                arr.tofile(fh)
