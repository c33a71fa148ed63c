"""Truncated multivariate Taylor-jet arithmetic over the complex numbers.

A jet carries the value of a function of the bosonic variables
``(x_plus, x_minus, lambda)`` together with its partial derivatives up to a
fixed order per variable.  Stored coefficients are Taylor coefficients,
``c[p, i, j, k] = d^i_{x+} d^j_{x-} d^k_lam f / (i! j! k!)`` at point ``p``,
so products are truncated polynomial convolutions and derivatives are exact
within the truncation.  Division is built from the product alone:
:meth:`JetScalar.reciprocal` takes Newton steps ``r <- r (2 - a r)`` from
``1/body``, and ``1/a``, ``b/a`` and ``a ** -n`` go through it.  Analytic
functions (``exp sin cos ln sqrt``) compose their derivative sequences.

Every jet carries a leading point axis, ``c.shape == (P, s+, s-, slam)``: one
expansion per point of a batch, propagated together (vectorised forward-mode
Taylor arithmetic).  A value that is the same at every point (a plain number,
a constant, any jet of a single point) has ``P = 1`` and broadcasts against
the other operand.  Per-point results (``value``, ``max_abs``, ``extract``)
hold one entry per point, and a single number when ``P = 1``.

The derivative budget is the array shape itself: differentiating shrinks the
shape along that axis, and asking for an order that is no longer stored
raises :class:`~susygordon.errors.JetBudgetError` rather than returning a
silently truncated value.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import JetBudgetError, SingularBodyError

#: axis order of the jet arrays
VARIABLES = ("x_plus", "x_minus", "lambda")
_AXIS = {name: i for i, name in enumerate(VARIABLES)}

#: bodies smaller than this are treated as non-invertible
TINY = 1e-12


@dataclass(frozen=True)
class JetSpec:
    """Maximum derivative order per variable ``(x_plus, x_minus, lambda)``."""

    orders: tuple[int, int, int] = (2, 2, 1)

    def __post_init__(self) -> None:
        if len(self.orders) != 3 or any(o < 0 for o in self.orders):
            raise ValueError(f"jet orders must be three non-negative ints, got {self.orders}")

    @property
    def shape(self) -> tuple[int, int, int]:
        return tuple(o + 1 for o in self.orders)  # type: ignore[return-value]


DEFAULT_SPEC = JetSpec()


def axis_of(var: str) -> int:
    if var not in _AXIS:
        raise ValueError(f"unknown jet variable {var!r}; expected one of {VARIABLES}")
    return _AXIS[var]


# ---------------------------------------------------------------------------
# analytic function tables
# ---------------------------------------------------------------------------

def near_zero(z) -> bool:
    """Whether a body, or the body at any point of a batch, is below ``TINY``."""
    return bool(np.any(abs(z) < TINY))


def uniform(flags) -> bool:
    """A branch condition that a batch must take the same way at every point.

    A plain bool passes through.  A per-point array that is mixed raises
    :class:`SingularBodyError`, so the caller re-runs the points one by one.
    """
    if np.any(flags) != np.all(flags):
        raise SingularBodyError("branch differs between the points of a batch")
    return bool(np.all(flags))


def peak(values):
    """Largest of some magnitudes, per point when any of them is per point."""
    return functools.reduce(np.maximum, values, 0.0)


def per_point(values: np.ndarray):
    """Values along a point axis; a length-1 axis is the same at every point,
    so it gives its one value."""
    return values if len(values) > 1 else values[0]


class PerPoint(tuple):
    """Report values of a batch, one per point (see ``reporting.sweep``)."""


def derivative_sequence(name: str, z, kmax: int) -> np.ndarray:
    """``f(z), f'(z), ..., f^(kmax)(z)`` for a named analytic f, along a new last axis.

    ``z`` is a number or one body per point of a batch.  ``ln`` and ``sqrt``
    take the principal branch (on the negative real axis the sign of a zero
    imaginary part picks the side) and require ``abs(z) >= TINY`` at every
    point.  ``f^(k)`` of ``sqrt`` is ``sqrt(z) / z^k`` times its falling
    factorial: integer powers keep it within a few ulp at every order.
    """
    z = np.asarray(z, dtype=complex)
    orders = np.arange(kmax + 1)
    if name in ("exp", "sin", "cos"):
        if name == "exp":
            cycle = np.exp(z)[..., None]
        else:
            s, c = np.sin(z), np.cos(z)
            cycle = np.stack([s, c, -s, -c] if name == "sin" else [c, -s, -c, s], axis=-1)
        return cycle[..., orders % cycle.shape[-1]]
    if name not in ("ln", "sqrt"):
        raise ValueError(f"unknown analytic function {name!r}")
    if near_zero(z):
        raise SingularBodyError(f"{name} requires an invertible body")
    powers = np.power.outer(z, orders)
    if name == "ln":
        signed = np.array([(-1) ** k * math.factorial(k) for k in range(kmax)], dtype=float)
        return np.concatenate([np.log(z)[..., None], signed / powers[..., 1:]], axis=-1)
    falling = np.cumprod(np.concatenate(([1.0], 0.5 - orders[:-1])))
    return falling * (np.sqrt(z)[..., None] / powers)


@lru_cache(maxsize=None)
def _factorials(kmax: int) -> np.ndarray:
    return np.array([math.factorial(k) for k in range(kmax + 1)], dtype=float)


# ---------------------------------------------------------------------------
# truncated product table, cached per shape
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _product_table(shape: tuple[int, ...]):
    """Index pairs ``(p, q)`` of the truncated product on one jet shape.

    ``out.flat[r]`` sums ``a.flat[p] * b.flat[q]`` over the pairs whose
    multi-indices add up to that of ``r``.  Pairs come sorted by ``r``, then
    ``p``; ``starts`` marks each run (never empty: ``r`` always has ``(0, r)``).
    """
    # per axis, every pair (r, p) with p <= r; the table is their product over
    # the three axes, built in O(pairs) memory (never an S x S array)
    pairs = [np.array([(r, p) for r in range(n) for p in range(r + 1)]).T for n in shape]
    strides = (shape[1] * shape[2], shape[2], 1)

    def flat(index):  # flat index of every combination of per-axis pairs
        return sum(np.ix_(*(index(axis) * st for axis, st in zip(pairs, strides)))).ravel()

    r, p = flat(lambda axis: axis[0]), flat(lambda axis: axis[1])
    q = flat(lambda axis: axis[0] - axis[1])
    order = np.lexsort((p, r))  # by output slot, then p
    return p[order], q[order], np.flatnonzero(np.diff(r[order], prepend=-1))


@lru_cache(maxsize=None)
def _derivative_slice(axis: int, size: int):
    """Index dropping order 0 along jet ``axis`` (counted among the last three
    axes of a jet or block), and the factors ``1..size-1`` after it."""
    trailing = (1,) * (2 - axis)
    factors = np.arange(1, size, dtype=float).reshape((-1,) + trailing)
    return (Ellipsis, slice(1, None)) + (slice(None),) * len(trailing), factors


def _wrap(arr: np.ndarray) -> "JetScalar":
    """A jet around a complex array made by this module (no re-checks)."""
    jet = object.__new__(JetScalar)
    jet.c = arr
    return jet


class JetScalar:
    """A truncated Taylor expansion in ``(x_plus, x_minus, lambda)`` at each point.

    Immutable by convention; every operation returns a new jet.  Mixed-shape
    arithmetic truncates to the common (elementwise-minimum) shape, which is
    exactly the order to which the result is known.  ``JetScalar(coeffs)``
    takes the jet axes ``(s+, s-, slam)`` of one value, after any point axes;
    a single value gets a point axis of length 1.  Addition also takes one
    number per point as a numpy array.
    """

    __slots__ = ("c",)
    __array_ufunc__ = None  # ``ndarray op jet`` defers to the jet's own operators

    def __init__(self, coeffs) -> None:
        arr = np.asarray(coeffs, dtype=complex)
        *_, s0, s1, s2 = arr.shape  # three jet axes, after the points
        self.c = arr.reshape(-1, s0, s1, s2)

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, value, spec: JetSpec = DEFAULT_SPEC) -> "JetScalar":
        """A constant jet; a sequence of values gives one per point of a batch."""
        c = np.zeros((np.size(value),) + spec.shape, dtype=complex)
        c[:, 0, 0, 0] = value
        return _wrap(c)

    @classmethod
    def seed(cls, var: str, value, spec: JetSpec = DEFAULT_SPEC) -> "JetScalar":
        """Jet of the coordinate function ``var`` at the point(s) ``value``."""
        c = cls.constant(value, spec).c
        axis = axis_of(var)
        if spec.orders[axis] >= 1:
            idx = [0, 0, 0]
            idx[axis] = 1
            c[(slice(None), *idx)] = 1.0
        return _wrap(c)

    # -- basic queries -------------------------------------------------------

    @property
    def value(self):
        return per_point(self.c[:, 0, 0, 0].copy())

    @property
    def spec(self) -> tuple[int, int, int]:
        return tuple(s - 1 for s in self.c.shape[1:])  # type: ignore[return-value]

    def at(self, i: int) -> "JetScalar":
        """The jet at point ``i`` of a batch."""
        return _wrap(self.c[i, None])

    def restrict(self, spec: JetSpec) -> "JetScalar":
        """Crop to a smaller JetSpec (never enlarges)."""
        shape = spec.shape
        if any(t > s for t, s in zip(shape, self.c.shape[1:])):
            raise JetBudgetError(f"cannot restrict shape {self.c.shape[1:]} to {shape}")
        return _wrap(self.c[:, : shape[0], : shape[1], : shape[2]])

    def max_abs(self):
        return per_point(np.abs(self.c).max(axis=(1, 2, 3), initial=0.0))

    def is_zero(self) -> bool:
        return np.count_nonzero(self.c) == 0

    # -- arithmetic ----------------------------------------------------------

    def _crop_pair(self, other: "JetScalar"):
        a, b = self.c, other.c
        sa, sb = a.shape[1:], b.shape[1:]
        if sa == sb:
            return a, b
        s = tuple(map(min, sa, sb))
        return a[:, : s[0], : s[1], : s[2]], b[:, : s[0], : s[1], : s[2]]

    def __add__(self, other):
        if isinstance(other, JetScalar):
            a, b = self._crop_pair(other)
            return _wrap(a + b)
        if isinstance(other, (int, float, complex, np.ndarray)):  # a number, or one per point
            body = self.c[:, 0, 0, 0] + other
            c = np.empty(body.shape + self.c.shape[1:], dtype=complex)
            c[...] = self.c
            c[:, 0, 0, 0] = body
            return _wrap(c)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return _wrap(-self.c)

    def __sub__(self, other):
        if isinstance(other, (JetScalar, int, float, complex, np.ndarray)):
            return self + (-other if isinstance(other, (JetScalar, np.ndarray)) else -complex(other))
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, JetScalar):
            a, b = self._crop_pair(other)
            shape = a.shape[1:]
            p, q, starts = _product_table(shape)
            terms = a.reshape(len(a), -1).take(p, axis=-1) * b.reshape(len(b), -1).take(q, axis=-1)
            return _wrap(np.add.reduceat(terms, starts, axis=-1).reshape((len(terms),) + shape))
        if isinstance(other, (int, float, complex)):
            return _wrap(self.c * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float, complex)):
            return _wrap(self.c / other)
        if isinstance(other, JetScalar):
            return self * other.reciprocal()
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, float, complex)):
            return self.reciprocal() * other
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.reciprocal() ** (-n)
        out = JetScalar.constant(1.0, JetSpec(self.spec))
        base = self
        while n:  # square and multiply
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def __repr__(self) -> str:
        return f"JetScalar(value={self.value}, spec={self.spec})"

    # -- calculus ------------------------------------------------------------

    def derivative(self, var: str) -> "JetScalar":
        """Partial derivative; consumes one order of the budget for ``var``."""
        axis = axis_of(var)
        size = self.c.shape[1 + axis]
        if size <= 1:
            raise JetBudgetError(f"derivative budget exhausted for {var}")
        index, factors = _derivative_slice(axis, size)
        return _wrap(self.c[index] * factors)

    def extract(self, index: Sequence[int]):
        """Raw partial ``d^i d^j d^k f`` (Taylor coeff times factorials), per point."""
        i, j, k = index
        if any(n < 0 or n > o for n, o in zip((i, j, k), self.spec)):
            raise JetBudgetError(
                f"multi-index {tuple(index)} outside stored orders {self.spec}")
        raw = self.c[:, i, j, k] * math.factorial(i) * math.factorial(j) * math.factorial(k)
        return per_point(raw)

    # -- analytic functions ---------------------------------------------------

    def _compose(self, seq: np.ndarray) -> "JetScalar":
        """Evaluate ``sum_j seq[:, j]/j! * (self - value)^j`` by Horner, as
        ``(((c_k h + c_(k-1)) h + ...) h + c_0`` with ``h = self - value``."""
        kmax = min(seq.shape[-1] - 1, sum(self.spec))
        coeffs = seq[:, : kmax + 1] / _factorials(kmax)
        soul = self.c.copy()
        soul[:, 0, 0, 0] = 0.0
        h = _wrap(soul)
        acc = _wrap(soul * coeffs[:, kmax, None, None, None])
        for j in range(kmax - 1, 0, -1):
            acc.c[:, 0, 0, 0] += coeffs[:, j]
            acc = acc * h
        acc.c[:, 0, 0, 0] += coeffs[:, 0]
        return acc

    def analytic(self, name: str) -> "JetScalar":
        """Taylor composition ``f(self)`` truncated to this jet's spec."""
        return self._compose(derivative_sequence(name, self.c[:, 0, 0, 0], sum(self.spec)))

    def analytic_derivatives(self, name: str, kmax: int) -> list["JetScalar"]:
        """Jets of ``f(self), f'(self), ..., f^(kmax)(self)``."""
        seq = derivative_sequence(name, self.c[:, 0, 0, 0], kmax + sum(self.spec))
        return [self._compose(seq[:, k:]) for k in range(kmax + 1)]

    def reciprocal(self) -> "JetScalar":
        """``1/self`` by Newton steps ``r <- r (2 - self r)`` from ``r = 1/body``.

        Each step doubles the total order to which ``r`` is exact, so
        ``ceil(log2(total + 1))`` steps fill the whole jet.  Composing the
        series of ``1/z`` instead sums powers of ``soul/body``, whose partial
        sums dwarf the result when the derivative coefficients dwarf the body.
        """
        body = self.c[:, 0, 0, 0]
        if near_zero(body):
            raise SingularBodyError("reciprocal requires an invertible body")
        r = np.zeros_like(self.c)
        r[:, 0, 0, 0] = 1 / body
        r, known = _wrap(r), 1
        while known <= sum(self.spec):
            r = r * (2 - self * r)
            known *= 2
        return r


# ---------------------------------------------------------------------------
# module-level operation names
# ---------------------------------------------------------------------------

def jet_seed(var: str, value: complex, spec: JetSpec = DEFAULT_SPEC) -> JetScalar:
    return JetScalar.seed(var, value, spec)


def jet_constant(value: complex, spec: JetSpec = DEFAULT_SPEC) -> JetScalar:
    return JetScalar.constant(value, spec)


def jet_fn(name: str, a: JetScalar) -> JetScalar:
    return a.analytic(name)


def jet_extract(a: JetScalar, index: Sequence[int]) -> complex:
    return a.extract(index)


def jet_allclose(a: JetScalar, b: JetScalar, atol: float = 1e-10,
                 rtol: float = 1e-10) -> bool:
    """Coefficient-wise comparison on the common truncation, at every point of a batch."""
    ca, cb = a._crop_pair(b)
    scale = peak((1.0, a.max_abs(), b.max_abs()))
    gap = np.abs(ca - cb).max(axis=(-3, -2, -1), initial=0.0)
    return bool(np.all(gap <= atol + rtol * scale))


# -- scalar-ring dispatch helpers (coefficients may be plain complex or jets) --

def scalar_is_zero(c) -> bool:
    return c.is_zero() if isinstance(c, JetScalar) else c == 0


def scalar_value(c) -> complex:
    return c.value if isinstance(c, JetScalar) else complex(c)


def scalar_analytic_derivatives(c, name: str, kmax: int) -> list:
    if isinstance(c, JetScalar):
        return c.analytic_derivatives(name, kmax)
    return derivative_sequence(name, complex(c), kmax)
