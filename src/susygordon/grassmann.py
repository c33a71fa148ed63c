"""Exact arithmetic in a finitely generated Grassmann algebra.

Elements are sparse maps from monomials to scalar coefficients.  A monomial
is a subset of the (ordered, named) odd generators, stored as a bitmask over
the generator indices; every generator squares to zero and distinct
generators anticommute.  All sign bookkeeping from reordering products into
the canonical ascending-index form is absorbed into the coefficients.

Coefficients live in an abstract scalar ring: plain ``complex`` for exact
algebra, or :class:`~susygordon.jets.JetScalar` when the element is the value
of a superfield and has to carry partial derivatives.  The two may be mixed;
scalar dispatch is handled by the helpers in :mod:`susygordon.jets`.
Coefficient jets may carry a point axis (a batch of sample points); a
monomial is dropped only when its coefficient is zero at every point, and
:meth:`GrassmannElement.at` gives the element at one point.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, Mapping

from .errors import GeneratorMismatchError, ParityError, SingularBodyError
from .jets import (
    JetScalar,
    PerPoint,
    near_zero,
    peak,
    scalar_analytic_derivatives,
    scalar_is_zero,
    scalar_max_abs,
    scalar_value,
)

#: largest supported generator count (monomials are machine-word bitmasks)
MAX_GENERATORS = 64

EVEN = "even"
ODD = "odd"
INHOMOGENEOUS = "inhomogeneous"


class GeneratorSet:
    """An ordered set of named odd generators.

    The order is fixed for the lifetime of a computation: the canonical form
    of every monomial (and therefore every stored sign) depends on it.
    """

    __slots__ = ("names", "_index")

    def __init__(self, names: Iterable[str]) -> None:
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("generator labels must be unique")
        if len(names) > MAX_GENERATORS:
            raise ValueError(f"at most {MAX_GENERATORS} generators are supported")
        self.names = names
        self._index = {n: i for i, n in enumerate(names)}

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise GeneratorMismatchError(f"unknown generator {name!r}") from None

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self):
        return iter(self.names)

    def __eq__(self, other) -> bool:
        return isinstance(other, GeneratorSet) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"GeneratorSet({self.names!r})"


@lru_cache(maxsize=None)
def _product_sign(ma: int, mb: int) -> int:
    """Sign of concatenating two canonical monomials and resorting.

    Counts, for each generator in ``mb``, how many generators of ``ma`` have a
    larger index (the transpositions needed to interleave-sort the pair).
    """
    swaps = 0
    t = mb
    while t:
        j = (t & -t).bit_length() - 1
        swaps += (ma >> (j + 1)).bit_count()
        t &= t - 1
    return -1 if swaps & 1 else 1


class GrassmannElement:
    """A sparse Grassmann-algebra element over a fixed generator set.

    Immutable by convention: operations return new elements and never mutate
    ``terms``.  Exactly-zero coefficients are never stored.
    """

    __slots__ = ("gens", "terms")
    __array_ufunc__ = None  # ``ndarray op element`` defers to the element's operators

    def __init__(self, gens: GeneratorSet, terms: Mapping[int, object]) -> None:
        self.gens = gens
        self.terms = {m: c for m, c in terms.items() if not scalar_is_zero(c)}

    # -- constructors ----------------------------------------------------------

    @classmethod
    def zero(cls, gens: GeneratorSet) -> "GrassmannElement":
        return cls(gens, {})

    @classmethod
    def from_scalar(cls, gens: GeneratorSet, value) -> "GrassmannElement":
        return cls(gens, {0: value})

    @classmethod
    def generator(cls, gens: GeneratorSet, name: str) -> "GrassmannElement":
        return cls(gens, {1 << gens.index(name): 1.0 + 0.0j})

    # -- structure --------------------------------------------------------------

    def body(self):
        """Coefficient of the empty monomial (0j when absent)."""
        return self.terms.get(0, 0.0j)

    def soul(self) -> "GrassmannElement":
        return GrassmannElement(self.gens, {m: c for m, c in self.terms.items() if m})

    def parity(self) -> str:
        degs = {m.bit_count() & 1 for m in self.terms}
        if not degs or degs == {0}:
            return EVEN
        if degs == {1}:
            return ODD
        return INHOMOGENEOUS

    def is_zero(self) -> bool:
        return not self.terms

    def max_abs(self):
        """Largest coefficient magnitude (over all stored jet orders), per point
        for a batch."""
        return peak(scalar_max_abs(c) for c in self.terms.values())

    def points(self) -> int:
        """Number of points of a batched element; 0 when no coefficient has a point axis."""
        return max((c.c.shape[0] for c in self.terms.values()
                    if isinstance(c, JetScalar) and c.c.ndim == 4), default=0)

    def at(self, i: int) -> "GrassmannElement":
        """The element at point ``i`` of a batch, without the monomials zero there."""
        return GrassmannElement(self.gens, {m: c.at(i) if isinstance(c, JetScalar) else c
                                            for m, c in self.terms.items()})

    def value_terms(self) -> dict[int, complex]:
        """Monomial map of plain complex values (jet coefficients collapsed)."""
        return {m: scalar_value(c) for m, c in self.terms.items()}

    # -- ring operations ---------------------------------------------------------

    def _check_gens(self, other: "GrassmannElement") -> None:
        if self.gens != other.gens:
            raise GeneratorMismatchError(
                f"generator sets differ: {self.gens.names} vs {other.gens.names}")

    def __add__(self, other):
        if isinstance(other, GrassmannElement):
            self._check_gens(other)
            terms = dict(self.terms)
            for m, c in other.terms.items():
                terms[m] = terms[m] + c if m in terms else c
            return GrassmannElement(self.gens, terms)
        if isinstance(other, (int, float, complex, JetScalar)):
            terms = dict(self.terms)
            terms[0] = terms[0] + other if 0 in terms else other
            return GrassmannElement(self.gens, terms)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return GrassmannElement(self.gens, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (GrassmannElement, int, float, complex, JetScalar)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, GrassmannElement):
            self._check_gens(other)
            out: dict[int, object] = {}
            for ma, ca in self.terms.items():
                for mb, cb in other.terms.items():
                    if ma & mb:
                        continue  # repeated generator
                    m = ma | mb
                    c = ca * cb
                    if _product_sign(ma, mb) < 0:
                        c = -c
                    out[m] = out[m] + c if m in out else c
            return GrassmannElement(self.gens, out)
        if isinstance(other, (int, float, complex, JetScalar)):
            return GrassmannElement(self.gens, {m: c * other for m, c in self.terms.items()})
        return NotImplemented

    def __rmul__(self, other):
        # scalars are even: left and right multiplication agree
        if isinstance(other, (int, float, complex, JetScalar)):
            return self.__mul__(other)
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = GrassmannElement.from_scalar(self.gens, 1.0 + 0.0j)
        for _ in range(n):
            out = out * self
        return out

    def __repr__(self) -> str:
        if not self.terms:
            return "GrassmannElement(0)"
        if self.points():
            return f"GrassmannElement({len(self.terms)} monomials at {self.points()} points)"
        bits = []
        for m in sorted(self.terms):
            names = [self.gens.names[i] for i in range(len(self.gens)) if m >> i & 1]
            label = "*".join(names) if names else "1"
            bits.append(f"{label}: {scalar_value(self.terms[m]):.6g}")
        return "GrassmannElement({" + ", ".join(bits) + "})"

    # -- derivations ---------------------------------------------------------------

    def fermi_derivative(self, name: str) -> "GrassmannElement":
        """Left derivative with respect to one generator.

        On a monomial containing the generator, move it to the front
        (collecting one sign per generator passed) and delete it.
        """
        idx = self.gens.index(name)
        bit = 1 << idx
        below = bit - 1
        out: dict[int, object] = {}
        for m, c in self.terms.items():
            if not m & bit:
                continue
            sign = -1 if (m & below).bit_count() & 1 else 1
            out[m ^ bit] = c if sign > 0 else -c
        return GrassmannElement(self.gens, out)


# ---------------------------------------------------------------------------
# named operations
# ---------------------------------------------------------------------------

def gmul(a: GrassmannElement, b: GrassmannElement) -> GrassmannElement:
    return a * b


def parity(a: GrassmannElement) -> str:
    return a.parity()


def fermi_derivative(a: GrassmannElement, name: str) -> GrassmannElement:
    return a.fermi_derivative(name)


def analytic_lift(name: str, a: GrassmannElement) -> GrassmannElement:
    """Apply an analytic function to an even element via its finite Taylor sum.

    ``f(body + soul) = sum_k f^(k)(body)/k! soul^k`` where the even soul is
    nilpotent of index at most ``floor(N/2) + 1`` for N generators, so the sum
    is exact.
    """
    if a.parity() != EVEN:
        raise ParityError(f"analytic_lift({name}) requires an even element, got {a.parity()}")
    body = a.body()
    kmax = len(a.gens) // 2
    seq = scalar_analytic_derivatives(body, name, kmax)
    result = GrassmannElement.from_scalar(a.gens, seq[0])
    soul = a.soul()
    power = GrassmannElement.from_scalar(a.gens, 1.0 + 0.0j)
    for k in range(1, kmax + 1):
        power = power * soul
        if power.is_zero():
            break
        result = result + power * (seq[k] / math.factorial(k))
    return result


def ginv(a: GrassmannElement) -> GrassmannElement:
    """Exact multiplicative inverse of an even element with invertible body.

    ``1/(body + soul) = r sum_k (-soul r)^k`` with ``r = 1/body``; the sum
    stops at ``k = floor(N/2)``, where the even soul is nilpotent.
    """
    if a.parity() != EVEN:
        raise ParityError("ginv requires an even element")
    body = a.body()
    if near_zero(scalar_value(body)):
        raise SingularBodyError("ginv: body is not invertible")
    r = body.reciprocal() if isinstance(body, JetScalar) else 1 / complex(body)
    step = a.soul() * -r
    term = result = GrassmannElement.from_scalar(a.gens, r)
    for _ in range(len(a.gens) // 2):
        term = term * step
        if term.is_zero():
            break
        result = result + term
    return result


def allclose(a: GrassmannElement, b: GrassmannElement,
             atol: float = 1e-10, rtol: float = 1e-10) -> bool:
    """Coefficient-wise comparison: ``max|delta| <= atol + rtol*max(1, |a|, |b|)``."""
    diff = a - b
    tol = atol + rtol * peak((1.0, a.max_abs(), b.max_abs()))
    return diff.max_abs() <= tol


# ---------------------------------------------------------------------------
# JSON form: list of {"monomial": [...names...], "re": x, "im": y}
# ---------------------------------------------------------------------------

def element_to_json(a: GrassmannElement) -> list[dict]:
    """Serialize the element's evaluated values (jets collapse to their value).

    A batched element gives one list per point, as a :class:`PerPoint`.
    """
    count = a.points()
    if count:
        return PerPoint(element_to_json(a.at(i)) for i in range(count))
    entries = []
    for m, c in a.terms.items():
        names = [a.gens.names[i] for i in range(len(a.gens)) if m >> i & 1]
        v = scalar_value(c)
        # + 0.0 writes a zero as 0.0 whatever its sign bit: the sign of an exact
        # zero can depend on whether a monomial was stored (batch) or dropped (point)
        entries.append({"monomial": names, "re": v.real + 0.0, "im": v.imag + 0.0})
    entries.sort(key=lambda e: e["monomial"])
    return entries
