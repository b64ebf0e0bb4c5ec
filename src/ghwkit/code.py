"""Linear-code model: validation and dual construction.

A ``LinearCode`` is stored in canonical form: the generator is the unique
reduced-row-echelon basis of the row space, and the parity-check matrix is
the canonical nullspace basis.  Two codes with the same codeword set
therefore compare equal.  Primal codes must touch every coordinate (no zero
generator column); a computed dual is allowed to miss coordinates, which is
recorded in ``zero_coordinates``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Field, Matrix

DEFAULT_LIMIT_N = 24  # longest code the exhaustive searches take by default


class CodeValidationError(ValueError):
    """The input does not define an acceptable linear code."""


@dataclass(frozen=True)
class SubcodeWitness:
    """A subcode exhibited as evidence for a hierarchy value.

    basis vectors are full-length codewords; support is the union of their
    supports (0-based coordinates).
    """

    basis: tuple[tuple[int, ...], ...]
    dimension: int
    support: tuple[int, ...]


class LinearCode:
    """An [n, k] linear code over a finite field.

    Parameters
    ----------
    field : Field
    generator : Matrix or iterable of rows
        Any spanning set; redundant rows are dropped and the basis is
        canonicalized via RREF, so k is the rank of the input.
    """

    def __init__(self, field: Field, generator, *, _allow_zero_columns: bool = False):
        if not isinstance(generator, Matrix):
            generator = Matrix(field, generator)
        if generator.field != field:
            raise CodeValidationError("generator field does not match code field")
        res = generator.rref()
        if res.rank == 0:
            raise CodeValidationError("generator has rank 0; a code needs k >= 1")
        g = res.reduced
        zero_cols = tuple(j for j, col in enumerate(g.columns()) if not any(col))
        if zero_cols and not _allow_zero_columns:
            cols = ", ".join(str(j + 1) for j in zero_cols)
            raise CodeValidationError(
                f"generator has all-zero column(s) at coordinate(s) {cols}; "
                "every coordinate must be in the support of some codeword"
            )
        self.field = field
        self.n = g.ncols
        self.k = res.rank
        self.generator = g
        self.check = g.nullspace()
        self.zero_coordinates = zero_cols

    def dual(self) -> "LinearCode":
        """The [n, n-k] dual code, generated by the parity-check matrix.

        The dual may fail the full-support rule (a zero column in H); such
        duals are permitted and flagged via ``zero_coordinates``.
        """
        if self.check.nrows == 0:
            raise CodeValidationError("full-space code has a trivial dual (k = n)")
        return LinearCode(self.field, self.check, _allow_zero_columns=True)

    def min_distance(self, limit_n: int = DEFAULT_LIMIT_N,
                     time_limit: float | None = None) -> int:
        """Minimum Hamming weight over nonzero codewords.

        Computed through the subset-rank characterization (smallest support
        size whose check-column rank defect is positive) rather than by
        codeword enumeration.
        """
        from .ghw import ghw

        d1, _ = ghw(self, 1, with_witness=False, limit_n=limit_n, time_limit=time_limit)
        return d1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinearCode):
            return NotImplemented
        return self.field == other.field and self.generator == other.generator

    def __hash__(self) -> int:
        return hash((self.field, self.generator))

    def __repr__(self) -> str:
        return f"LinearCode[n={self.n}, k={self.k}] over {self.field}"
