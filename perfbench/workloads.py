"""Seeded code streams for the three benchmark workloads.

Every workload is a list of strata (q, n, k, weight).  One cycle holds each
stratum `weight` times in a seeded random order, and a pool is a run of
cycles, so every seed sees the same (q, n, k) mix and only the generator
entries and the order change with the seed.  The entries come from
splitmix64 and the benchmark's own field arithmetic (`gf.py`), so a pool is
byte-identical for the same seed on every platform and at every commit.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

from gf import GF

_MASK64 = (1 << 64) - 1


class SplitMix64:
    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        return self.next_u64() % bound


@dataclass(frozen=True)
class Workload:
    name: str
    strata: tuple[tuple[int, int, int, int], ...]  # (q, n, k, weight)
    warmup: tuple[int, int, int]  # (q, n, k) of the small untimed warm-up code
    pool_size: int


@dataclass(frozen=True)
class CodeInput:
    """One generated code file and the generator it was written from."""

    text: str
    q: int
    n: int
    k: int
    rows: tuple[tuple[int, ...], ...]


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "sweep_gf2",
            tuple((2, n, k, 1) for n in (16, 17) for k in (5, 6, 7)),
            warmup=(2, 10, 5),
            pool_size=600),
        Workload(
            "locality_gfq",
            ((9, 11, 5, 2), (13, 11, 5, 2), (16, 11, 5, 2),
             (9, 10, 4, 1), (13, 10, 5, 1), (16, 10, 5, 1)),
            warmup=(9, 9, 3),
            pool_size=1350),
        Workload(
            "verify_small",
            tuple((q, n, k, 1) for q in (2, 3, 4) for n in range(3, 13)
                  for k in range(1, n)),
            warmup=(3, 6, 3),
            pool_size=1950),
    )
}

_FIELDS: dict[int, GF] = {}


def field(q: int) -> GF:
    if q not in _FIELDS:
        _FIELDS[q] = GF(q)
    return _FIELDS[q]


def _random_generator(rng: SplitMix64, fld: GF, n: int, k: int):
    """A full-rank k x n matrix with no all-zero column."""
    q = fld.q
    while True:
        rows = [[rng.below(q) for _ in range(n)] for _ in range(k)]
        for j in range(n):
            while all(row[j] == 0 for row in rows):
                for row in rows:
                    row[j] = rng.below(q)
        if fld.rank(rows) == k:
            return tuple(tuple(r) for r in rows)


def _code_text(fld: GF, n: int, k: int, rows) -> str:
    head = f"q {fld.q}"
    if fld.modulus is not None:
        head += " modulus " + " ".join(str(c) for c in fld.modulus)
    lines = [head, f"n {n}", f"k {k}"]
    lines.extend(" ".join(str(e) for e in row) for row in rows)
    return "\n".join(lines) + "\n"


def _code(rng: SplitMix64, q: int, n: int, k: int) -> CodeInput:
    fld = field(q)
    rows = _random_generator(rng, fld, n, k)
    return CodeInput(_code_text(fld, n, k, rows), q, n, k, rows)


def generate(name: str, seed: int) -> tuple[list[CodeInput], CodeInput]:
    """The timed pool and a separate small warm-up code for a workload and seed."""
    wl = WORKLOADS[name]
    rng = SplitMix64(seed * 0x100000001B3 + zlib.crc32(name.encode()))
    cycle = [(q, n, k) for q, n, k, weight in wl.strata for _ in range(weight)]
    codes: list[CodeInput] = []
    while len(codes) < wl.pool_size:
        order = list(cycle)
        for i in range(len(order) - 1, 0, -1):
            j = rng.below(i + 1)
            order[i], order[j] = order[j], order[i]
        codes.extend(_code(rng, q, n, k) for q, n, k in order)
    return codes[:wl.pool_size], _code(rng, *wl.warmup)
