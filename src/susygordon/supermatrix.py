"""(m|n)-graded matrices over Grassmann elements.

An even supermatrix has even entries in the diagonal blocks (upper-left m x m,
lower-right n x n) and odd entries off them; an odd supermatrix the reverse.
Zero entries are compatible with either grading.  The matrix product inserts
no extra signs: all grading signs already live in the Grassmann entries.

The supertrace here is ``str(M) = tr(E M)`` with ``E = diag(I_m, -I_n)``; the
invariant bilinear form uses the degree-dependent twist
``<A, B> = (1/2) tr(E^(deg(AB)+1) A B)``, i.e. ``(1/2) str(AB)`` when ``AB``
is even and ``(1/2) tr(AB)`` when it is odd.
"""

from __future__ import annotations

import operator
from itertools import product
from typing import Callable, Sequence

from .errors import ParityError, ShapeMismatchError
from .grassmann import EVEN, GrassmannElement, GeneratorSet, INHOMOGENEOUS, ODD, element_to_json
from .jets import peak


def _entry_fits(entry: GrassmannElement, wanted: str) -> bool:
    return entry.is_zero() or entry.parity() == wanted


class SuperMatrix:
    """A square (m|n)-block-graded matrix of Grassmann elements."""

    __slots__ = ("m", "n", "rows", "parity")

    def __init__(self, m: int, n: int, rows: Sequence[Sequence[GrassmannElement]],
                 parity: str | None = None) -> None:
        size = m + n
        rows = tuple(tuple(r) for r in rows)
        if len(rows) != size or any(len(r) != size for r in rows):
            raise ShapeMismatchError(f"expected a {size}x{size} entry grid")
        self.m = m
        self.n = n
        self.rows = rows
        inferred = self._infer_parity()
        if parity is None:
            parity = EVEN if inferred == "zero" else inferred
        elif parity in (EVEN, ODD) and inferred not in ("zero", parity):
            raise ParityError(f"declared {parity} but entries form a {inferred} matrix")
        self.parity = parity

    def _infer_parity(self) -> str:
        even_ok = True
        odd_ok = True
        any_entry = False
        for i, row in enumerate(self.rows):
            for j, entry in enumerate(row):
                if entry.is_zero():
                    continue
                any_entry = True
                diag_block = (i < self.m) == (j < self.m)
                even_ok = even_ok and _entry_fits(entry, EVEN if diag_block else ODD)
                odd_ok = odd_ok and _entry_fits(entry, ODD if diag_block else EVEN)
        if not any_entry:
            return "zero"
        if even_ok:
            return EVEN
        if odd_ok:
            return ODD
        return INHOMOGENEOUS

    # -- constructors ------------------------------------------------------------

    @classmethod
    def zeros(cls, gens: GeneratorSet, m: int, n: int) -> "SuperMatrix":
        z = GrassmannElement.zero(gens)
        size = m + n
        return cls(m, n, [[z] * size for _ in range(size)])

    @classmethod
    def from_entries(cls, m: int, n: int, entry: Callable[[int, int], GrassmannElement],
                     parity: str | None = None) -> "SuperMatrix":
        """The matrix with entries ``entry(i, k)``, built one at a time.

        Composite expressions built this way never hold a whole intermediate
        matrix, which bounds the memory a batch of points needs.
        """
        size = m + n
        return cls(m, n, [[entry(i, k) for k in range(size)] for i in range(size)], parity)

    # -- shape helpers ------------------------------------------------------------

    @property
    def size(self) -> int:
        return self.m + self.n

    @property
    def gens(self) -> GeneratorSet:
        return self.rows[0][0].gens

    def _check_shape(self, other: "SuperMatrix") -> None:
        if (self.m, self.n) != (other.m, other.n):
            raise ShapeMismatchError(
                f"shape ({self.m}|{self.n}) vs ({other.m}|{other.n})")

    def entry(self, i: int, j: int) -> GrassmannElement:
        return self.rows[i][j]

    # -- linear structure -----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, SuperMatrix):
            return NotImplemented
        self._check_shape(other)
        rows = [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        return SuperMatrix(self.m, self.n, rows)

    def __sub__(self, other):
        if not isinstance(other, SuperMatrix):
            return NotImplemented
        self._check_shape(other)
        rows = [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        return SuperMatrix(self.m, self.n, rows)

    def __neg__(self):
        return SuperMatrix(self.m, self.n, [[-a for a in r] for r in self.rows], self.parity)

    def scale(self, factor) -> "SuperMatrix":
        """Left-multiply every entry by a scalar or Grassmann factor."""
        rows = [[factor * a for a in r] for r in self.rows]
        return SuperMatrix(self.m, self.n, rows)

    def __mul__(self, factor):
        if isinstance(factor, (int, float, complex)):
            return self.scale(factor)
        return NotImplemented

    __rmul__ = __mul__

    # -- products ----------------------------------------------------------------

    def product_entry(self, other: "SuperMatrix", i: int, k: int) -> GrassmannElement:
        """Entry ``(i, k)`` of ``self @ other``."""
        acc = None
        for j in range(self.size):
            a = self.rows[i][j]
            b = other.rows[j][k]
            if a.is_zero() or b.is_zero():
                continue
            term = a * b
            acc = term if acc is None else acc + term
        return acc if acc is not None else GrassmannElement.zero(self.gens)

    def __matmul__(self, other: "SuperMatrix") -> "SuperMatrix":
        if not isinstance(other, SuperMatrix):
            return NotImplemented
        self._check_shape(other)
        return SuperMatrix.from_entries(self.m, self.n,
                                        lambda i, k: self.product_entry(other, i, k))

    def bracket(self, other: "SuperMatrix", kind: str = "commutator") -> "SuperMatrix":
        """``AB - BA`` or ``AB + BA``, entry by entry, forming each entry product once.

        A term whose operands (the same objects) met as ``a b`` reads that product
        back, and met as ``b a``, both homogeneous, reads it times ``(-1)^(|a||b|)``.
        First appearance in entry order, never an address, fixes the direction, and
        a product is held until its last read.  An entry's ``AB`` and ``BA`` halves
        are summed apart and combined last, so ``[A, A]`` is exactly zero."""
        if kind not in ("commutator", "anticommutator"):
            raise ValueError(f"unknown bracket kind {kind!r}")
        self._check_shape(other)
        combine = operator.sub if kind == "commutator" else operator.add
        reads, held, halves = {}, {}, []
        for i, k, (x, y) in product(range(self.size), range(self.size), ((self, other), (other, self))):
            halves.append([])  # (key, sign, a, b) of each nonzero term of (x y)[i, k]
            for a, b in ((x.rows[i][j], y.rows[j][k]) for j in range(self.size)):
                if a.is_zero() or b.is_zero():
                    continue
                key, swapped, sign = (id(a), id(b)), (id(b), id(a)), 1
                if key not in reads and swapped in reads and INHOMOGENEOUS not in (a.parity(), b.parity()):
                    key, sign, a, b = swapped, -1 if a.parity() == b.parity() == ODD else 1, b, a
                reads[key] = reads.get(key, 0) + 1
                halves[-1].append((key, sign, a, b))

        def half(terms: list):
            for key, sign, a, b in terms:
                value = held.pop(key) if key in held else a * b
                reads[key] -= 1
                if reads[key]:
                    held[key] = value
                yield -value if sign < 0 else value

        entries, zero = iter(halves), GrassmannElement.zero(self.gens)
        return SuperMatrix.from_entries(self.m, self.n, lambda i, k: combine(
            sum(half(next(entries)), zero), sum(half(next(entries)), zero)))

    # -- traces and the invariant form ----------------------------------------------

    def supertrace(self) -> GrassmannElement:
        """``str(M) = sum_(i<m) M[i,i] - sum_(i>=m) M[i,i]``."""
        acc = GrassmannElement.zero(self.gens)
        for i in range(self.size):
            d = self.rows[i][i]
            acc = acc + d if i < self.m else acc - d
        return acc

    def trace(self) -> GrassmannElement:
        acc = GrassmannElement.zero(self.gens)
        for i in range(self.size):
            acc = acc + self.rows[i][i]
        return acc

    def killing(self, other: "SuperMatrix") -> GrassmannElement:
        """``<A, B> = (1/2) tr(E^(deg(AB)+1) A B)`` for homogeneous A, B."""
        if self.parity not in (EVEN, ODD) or other.parity not in (EVEN, ODD):
            raise ParityError("killing form requires homogeneous supermatrices")
        self._check_shape(other)
        # only the diagonal of AB: its supertrace when AB is even, its trace when odd
        deg_even = self.parity == other.parity
        acc = GrassmannElement.zero(self.gens)
        for i in range(self.size):
            d = self.product_entry(other, i, i)
            acc = acc - d if deg_even and i >= self.m else acc + d
        return acc * 0.5

    # -- entrywise maps --------------------------------------------------------------

    def map_entries(self, fn: Callable[[GrassmannElement], GrassmannElement],
                    parity: str | None = None) -> "SuperMatrix":
        rows = [[fn(a) for a in r] for r in self.rows]
        return SuperMatrix(self.m, self.n, rows, parity)

    def e_twist(self) -> "SuperMatrix":
        """Left-multiply by E (negates the rows of the lower block); E is even."""
        rows = [list(r) if i < self.m else [-a for a in r]
                for i, r in enumerate(self.rows)]
        return SuperMatrix(self.m, self.n, rows, self.parity)

    # -- comparisons / reporting ------------------------------------------------------

    def max_abs(self):
        return peak(a.max_abs() for r in self.rows for a in r)

    def allclose(self, other: "SuperMatrix", atol: float = 1e-10, rtol: float = 1e-10) -> bool:
        self._check_shape(other)
        diff = self - other
        tol = atol + rtol * peak((1.0, self.max_abs(), other.max_abs()))
        return diff.max_abs() <= tol

    def to_json(self) -> dict:
        return {
            "shape": [self.m, self.n],
            "parity": self.parity,
            "entries": [element_to_json(a) for r in self.rows for a in r],
        }

    def __repr__(self) -> str:
        return f"SuperMatrix(({self.m}|{self.n}), parity={self.parity})"


def smul(a: SuperMatrix, b: SuperMatrix) -> SuperMatrix:
    return a @ b


def graded_bracket(a: SuperMatrix, b: SuperMatrix, kind: str) -> SuperMatrix:
    return a.bracket(b, kind)


def supertrace(a: SuperMatrix) -> GrassmannElement:
    return a.supertrace()


def killing_form(a: SuperMatrix, b: SuperMatrix) -> GrassmannElement:
    return a.killing(b)
