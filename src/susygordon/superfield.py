"""Superfields as evaluators of superspace points.

A superfield is a function of two fermionic coordinates (theta+, theta-) and
the bosonic light-cone coordinates (x+, x-).  Evaluating it at a
:class:`SuperspacePoint` substitutes numbers (as truncated jets, so that
bosonic derivatives remain available) for x+, x- and the spectral parameter
lambda, while the thetas and any declared fermionic constants stay symbolic
Grassmann generators.  The result is a Grassmann element with jet
coefficients, on which the covariant derivatives

    D+- = d/dtheta+-  -  i theta+- d/dx+-

act algebraically: the theta part is the exact left derivative in the
Grassmann algebra and the x part is a coefficient-wise jet shift.  They
satisfy D+-^2 = -i d/dx+- and {D+, D-} = 0.

Every jet carries a point axis.  A :class:`PointBatch` stands in for a point
anywhere a point is taken: it holds several sample points, and every jet
built from it carries one expansion per point, so a whole chunk of a sweep is
one evaluation.  A :class:`SuperspacePoint` is a batch of one: its jets have
a point axis of length 1 and take the same arithmetic path.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

from .errors import ParityError
from .grassmann import (
    EVEN,
    ODD,
    GeneratorSet,
    GrassmannElement,
)
from .jets import DEFAULT_SPEC, JetScalar, JetSpec

THETA_PLUS = "theta_plus"
THETA_MINUS = "theta_minus"

#: the two theta generators every superfield algebra starts with
BASE_GENERATORS = (THETA_PLUS, THETA_MINUS)


class _PointBlocks:
    """The building blocks shared by a point and a batch of points."""

    def __post_init__(self) -> None:
        for name in BASE_GENERATORS:
            if name not in self.gens.names:
                raise ValueError(f"generator set must contain {name!r}")

    # -- building blocks -------------------------------------------------------

    def xp_jet(self) -> JetScalar:
        return JetScalar.seed("x_plus", self.x_plus, self.spec)

    def xm_jet(self) -> JetScalar:
        return JetScalar.seed("x_minus", self.x_minus, self.spec)

    def lam_jet(self) -> JetScalar:
        return JetScalar.seed("lambda", self.lam, self.spec)

    def const_jet(self, value: complex) -> JetScalar:
        return JetScalar.constant(value, self.spec)

    def scalar(self, value) -> GrassmannElement:
        """Embed a complex number or jet as the body of an element."""
        return GrassmannElement.from_scalar(self.gens, value)

    def odd_generator(self, name: str) -> GrassmannElement:
        return GrassmannElement.generator(self.gens, name)

    def theta(self, sign: str) -> GrassmannElement:
        return GrassmannElement.generator(
            self.gens, THETA_PLUS if sign == "+" else THETA_MINUS)


@dataclass(frozen=True)
class SuperspacePoint(_PointBlocks):
    """Bosonic sample point; the fermionic directions remain symbolic."""

    x_plus: complex
    x_minus: complex
    lam: complex
    spec: JetSpec = DEFAULT_SPEC
    gens: GeneratorSet = field(default_factory=lambda: GeneratorSet(BASE_GENERATORS))

    def rescaled(self, factor: complex) -> "SuperspacePoint":
        """The point moved by x+ -> factor x+, x- -> x-/factor."""
        return replace(self, x_plus=factor * self.x_plus, x_minus=self.x_minus / factor)


@dataclass(frozen=True)
class PointBatch(_PointBlocks):
    """Several sample points sharing ``spec`` and ``gens``, evaluated as one.

    ``const_jet`` takes one value for all points or a sequence of one per point.
    """

    x_plus: tuple
    x_minus: tuple
    lam: tuple
    spec: JetSpec = DEFAULT_SPEC
    gens: GeneratorSet = field(default_factory=lambda: GeneratorSet(BASE_GENERATORS))

    @classmethod
    def of(cls, points: Sequence[SuperspacePoint]) -> "PointBatch":
        spec, gens = points[0].spec, points[0].gens
        if any(pt.spec != spec or pt.gens != gens for pt in points):
            raise ValueError("a batch needs one jet spec and one generator set")
        return cls(tuple(pt.x_plus for pt in points), tuple(pt.x_minus for pt in points),
                   tuple(pt.lam for pt in points), spec, gens)

    def rescaled(self, factor: complex) -> "PointBatch":
        return replace(self, x_plus=tuple(factor * x for x in self.x_plus),
                       x_minus=tuple(x / factor for x in self.x_minus))


# ---------------------------------------------------------------------------
# derivatives acting on evaluated values
# ---------------------------------------------------------------------------

def dx_plus(v: GrassmannElement) -> GrassmannElement:
    return v.derivative("x_plus")


def dx_minus(v: GrassmannElement) -> GrassmannElement:
    return v.derivative("x_minus")


def d_lambda(v: GrassmannElement) -> GrassmannElement:
    return v.derivative("lambda")


def cov_derivative(v: GrassmannElement, which: str) -> GrassmannElement:
    """The covariant derivative D+ or D-; output parity is flipped."""
    if which in ("D_plus", "+"):
        theta = THETA_PLUS
        var = "x_plus"
    elif which in ("D_minus", "-"):
        theta = THETA_MINUS
        var = "x_minus"
    else:
        raise ValueError(f"unknown covariant derivative {which!r}")
    theta_elem = GrassmannElement.generator(v.gens, theta)
    return v.fermi_derivative(theta) - 1j * (theta_elem * v.derivative(var))


def d_plus(v: GrassmannElement) -> GrassmannElement:
    return cov_derivative(v, "D_plus")


def d_minus(v: GrassmannElement) -> GrassmannElement:
    return cov_derivative(v, "D_minus")


# ---------------------------------------------------------------------------
# the function-space wrapper
# ---------------------------------------------------------------------------

class Superfield:
    """A deterministic evaluator point -> value with a declared parity.

    Values are memoized per point: solution chains share large
    subexpressions (the same seed wavefunction appears under several
    transformed wavefunctions), and residual checks re-evaluate the same
    solution at the same sweep points for several different residuals.
    The memo holds its points weakly, so a value lives only as long as its
    point (or batch) object does.  A value that several formulas read off
    one superfield (exp(+-i s), D- s, the inverses and ratios of a
    wavefunction) is a superfield of its own, made once by :meth:`derive`,
    so it shares this memo too.
    """

    __slots__ = ("_fn", "parity", "label", "_cache", "_derived")

    def __init__(self, fn: Callable[[SuperspacePoint | PointBatch], GrassmannElement],
                 parity: str, label: str = "") -> None:
        if parity not in (EVEN, ODD):
            raise ParityError(f"superfield parity must be even or odd, got {parity!r}")
        self._fn = fn
        self.parity = parity
        self.label = label
        self._cache: weakref.WeakKeyDictionary[SuperspacePoint | PointBatch,
                                               GrassmannElement] = weakref.WeakKeyDictionary()
        self._derived: dict[tuple, Superfield] = {}

    def evaluate(self, pt: SuperspacePoint | PointBatch) -> GrassmannElement:
        got = self._cache.get(pt)
        if got is None:
            got = self._fn(pt)
            if not got.is_zero() and got.parity() != self.parity:
                raise ParityError(
                    f"superfield {self.label!r} declared {self.parity} but "
                    f"evaluated {got.parity()} at {pt}")
            self._cache[pt] = got
        return got

    __call__ = evaluate

    def derive(self, label: str, parity: str, fn: Callable[..., GrassmannElement],
               *others: "Superfield") -> "Superfield":
        """The superfield ``fn(self(pt), *others(pt))``, one per ``(label, *others)``.

        A label names one ``fn``: a later call with the same label and others
        returns the field made first, whose memo already holds its values.
        """
        key = (label, *others)
        got = self._derived.get(key)
        if got is None:
            got = self._derived[key] = combine(parity, label, fn, self, *others)
        return got

    def __repr__(self) -> str:
        return f"Superfield({self.label!r}, parity={self.parity})"


def constant_superfield(value: complex, label: str = "") -> Superfield:
    """An even superfield with a constant body (still carries jet budget)."""
    return Superfield(lambda pt: pt.scalar(pt.const_jet(value)), EVEN, label)


def combine(parity: str, label: str,
            fn: Callable[..., GrassmannElement], *fields: Superfield) -> Superfield:
    """Pointwise combination of superfields (sums, scalings, compositions)."""
    return Superfield(lambda pt: fn(*(f.evaluate(pt) for f in fields)), parity, label)
