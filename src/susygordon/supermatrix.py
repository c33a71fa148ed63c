"""The 3x3 supermatrices of the paper, over Grassmann elements.

The grading is the (2|1) of ``gl(2|1)``, fixed: rows and columns 0 and 1 are
even, row and column 2 odd.  An even supermatrix has even entries in the
diagonal blocks (upper-left 2 x 2, lower-right 1 x 1) and odd entries off
them; an odd supermatrix the reverse.  Zero entries are compatible with
either grading, and the parity is read off the entries on demand.  The matrix
product inserts no extra signs: all grading signs already live in the
Grassmann entries.

The supertrace here is ``str(M) = tr(E M)`` with ``E = diag(1, 1, -1)``; the
invariant bilinear form uses the degree-dependent twist
``<A, B> = (1/2) tr(E^(deg(AB)+1) A B)``, i.e. ``(1/2) str(AB)`` when ``AB``
is even and ``(1/2) tr(AB)`` when it is odd.
"""

from __future__ import annotations

import operator
from itertools import product
from typing import Callable, Sequence

from .errors import ParityError
from .grassmann import EVEN, GrassmannElement, GeneratorSet, INHOMOGENEOUS, ODD, element_to_json
from .jets import peak

#: the (M|N) = (2|1) grading: the first M rows and columns are even, the last N odd
M, N = 2, 1
SIZE = M + N
_FLIP = {EVEN: ODD, ODD: EVEN}


class SuperMatrix:
    """A square (2|1)-block-graded matrix of Grassmann elements."""

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence[GrassmannElement]]) -> None:
        rows = tuple(tuple(r) for r in rows)
        if len(rows) != SIZE or any(len(r) != SIZE for r in rows):
            raise ValueError(f"expected a {SIZE}x{SIZE} entry grid")
        self.rows = rows

    @property
    def parity(self) -> str:
        """EVEN or ODD when every nonzero entry fits that grading (EVEN when
        there is none), else INHOMOGENEOUS."""
        fits = {EVEN, ODD}
        for i, row in enumerate(self.rows):
            for j, entry in enumerate(row):
                if not entry.is_zero():
                    got = entry.parity()
                    fits &= {got if (i < M) == (j < M) else _FLIP.get(got)}
        return EVEN if EVEN in fits else ODD if fits else INHOMOGENEOUS

    # -- constructors ------------------------------------------------------------

    @classmethod
    def zeros(cls, gens: GeneratorSet) -> "SuperMatrix":
        return cls([[GrassmannElement.zero(gens)] * SIZE for _ in range(SIZE)])

    @classmethod
    def from_entries(cls, entry: Callable[[int, int], GrassmannElement]) -> "SuperMatrix":
        """The matrix with entries ``entry(i, k)``, built one at a time.

        Composite expressions built this way never hold a whole intermediate
        matrix, which bounds the memory a batch of points needs.
        """
        return cls([[entry(i, k) for k in range(SIZE)] for i in range(SIZE)])

    # -- shape helpers ------------------------------------------------------------

    @property
    def gens(self) -> GeneratorSet:
        return self.rows[0][0].gens

    def entry(self, i: int, j: int) -> GrassmannElement:
        return self.rows[i][j]

    # -- linear structure -----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, SuperMatrix):
            return NotImplemented
        return SuperMatrix([[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other):
        if not isinstance(other, SuperMatrix):
            return NotImplemented
        return SuperMatrix([[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)])

    def __neg__(self):
        return SuperMatrix([[-a for a in r] for r in self.rows])

    def scale(self, factor) -> "SuperMatrix":
        """Left-multiply every entry by a scalar or Grassmann factor."""
        return SuperMatrix([[factor * a for a in r] for r in self.rows])

    def __mul__(self, factor):
        if isinstance(factor, (int, float, complex)):
            return self.scale(factor)
        return NotImplemented

    __rmul__ = __mul__

    # -- products ----------------------------------------------------------------

    def product_entry(self, other: "SuperMatrix", i: int, k: int) -> GrassmannElement:
        """Entry ``(i, k)`` of ``self @ other``."""
        acc = None
        for j in range(SIZE):
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
        return SuperMatrix.from_entries(lambda i, k: self.product_entry(other, i, k))

    def bracket(self, other: "SuperMatrix", kind: str = "commutator") -> "SuperMatrix":
        """``AB - BA`` or ``AB + BA``, entry by entry, forming each entry product once.

        A term whose operands (the same objects) met as ``a b`` reads that product
        back, and met as ``b a``, both homogeneous, reads it times ``(-1)^(|a||b|)``.
        First appearance in entry order, never an address, fixes the direction, and
        a product is held until its last read.  An entry's ``AB`` and ``BA`` halves
        are summed apart, each with its signs, and combined last, so ``[A, A]`` is
        exactly zero."""
        if kind not in ("commutator", "anticommutator"):
            raise ValueError(f"unknown bracket kind {kind!r}")
        combine = operator.sub if kind == "commutator" else operator.add
        reads, held, halves = {}, {}, []
        for i, k, (x, y) in product(range(SIZE), range(SIZE), ((self, other), (other, self))):
            halves.append([])  # (key, sign, a, b) of each nonzero term of (x y)[i, k]
            for a, b in ((x.rows[i][j], y.rows[j][k]) for j in range(SIZE)):
                if a.is_zero() or b.is_zero():
                    continue
                key, swapped, sign = (id(a), id(b)), (id(b), id(a)), 1
                if key not in reads and swapped in reads and INHOMOGENEOUS not in (a.parity(), b.parity()):
                    key, sign, a, b = swapped, -1 if a.parity() == b.parity() == ODD else 1, b, a
                reads[key] = reads.get(key, 0) + 1
                halves[-1].append((key, sign, a, b))

        def half(terms: list) -> GrassmannElement:
            acc = zero
            for key, sign, a, b in terms:
                value = held.pop(key) if key in held else a * b
                reads[key] -= 1
                if reads[key]:
                    held[key] = value
                acc = acc - value if sign < 0 else acc + value
            return acc

        entries, zero = iter(halves), GrassmannElement.zero(self.gens)
        return SuperMatrix.from_entries(lambda i, k: combine(half(next(entries)), half(next(entries))))

    # -- traces and the invariant form ----------------------------------------------

    def supertrace(self) -> GrassmannElement:
        """``str(X) = sum_(i<M) X[i,i] - sum_(i>=M) X[i,i]``."""
        acc = GrassmannElement.zero(self.gens)
        for i in range(SIZE):
            d = self.rows[i][i]
            acc = acc + d if i < M else acc - d
        return acc

    def trace(self) -> GrassmannElement:
        acc = GrassmannElement.zero(self.gens)
        for i in range(SIZE):
            acc = acc + self.rows[i][i]
        return acc

    def killing(self, other: "SuperMatrix") -> GrassmannElement:
        """``<A, B> = (1/2) tr(E^(deg(AB)+1) A B)`` for homogeneous A, B."""
        pa, pb = self.parity, other.parity
        if pa not in (EVEN, ODD) or pb not in (EVEN, ODD):
            raise ParityError("killing form requires homogeneous supermatrices")
        # only the diagonal of AB: its supertrace when AB is even, its trace when odd
        acc = GrassmannElement.zero(self.gens)
        for i in range(SIZE):
            d = self.product_entry(other, i, i)
            acc = acc - d if pa == pb and i >= M else acc + d
        return acc * 0.5

    # -- entrywise maps --------------------------------------------------------------

    def map_entries(self, fn: Callable[[GrassmannElement], GrassmannElement]) -> "SuperMatrix":
        return SuperMatrix([[fn(a) for a in r] for r in self.rows])

    def e_twist(self) -> "SuperMatrix":
        """Left-multiply by E (negates the rows of the lower block); E is even."""
        return SuperMatrix([r if i < M else [-a for a in r] for i, r in enumerate(self.rows)])

    # -- comparisons / reporting ------------------------------------------------------

    def max_abs(self):
        return peak(a.max_abs() for r in self.rows for a in r)

    def allclose(self, other: "SuperMatrix", atol: float = 1e-10, rtol: float = 1e-10) -> bool:
        diff = self - other
        tol = atol + rtol * peak((1.0, self.max_abs(), other.max_abs()))
        return diff.max_abs() <= tol

    def to_json(self) -> dict:
        return {
            "shape": [M, N],
            "parity": self.parity,
            "entries": [element_to_json(a) for r in self.rows for a in r],
        }

    def __repr__(self) -> str:
        return f"SuperMatrix(({M}|{N}), parity={self.parity})"


def smul(a: SuperMatrix, b: SuperMatrix) -> SuperMatrix:
    return a @ b


def graded_bracket(a: SuperMatrix, b: SuperMatrix, kind: str) -> SuperMatrix:
    return a.bracket(b, kind)


def supertrace(a: SuperMatrix) -> GrassmannElement:
    return a.supertrace()


def killing_form(a: SuperMatrix, b: SuperMatrix) -> GrassmannElement:
    return a.killing(b)
