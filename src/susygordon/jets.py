"""Truncated multivariate Taylor-jet arithmetic over the complex numbers.

A jet carries the value of a function of the bosonic variables
``(x_plus, x_minus, lambda)`` together with its partial derivatives up to a
fixed order per variable.  Stored coefficients are Taylor coefficients,
``c[i, j, k] = d^i_{x+} d^j_{x-} d^k_lam f / (i! j! k!)`` at the base point,
so products are truncated polynomial convolutions and derivatives are exact
within the truncation.  Division is built from the product alone:
:meth:`JetScalar.reciprocal` takes Newton steps ``r <- r (2 - a r)`` from
``1/body``, and ``1/a``, ``b/a`` and ``a ** -n`` go through it.  Analytic
functions (``exp sin cos ln sqrt``) compose their derivative sequences.

A jet may also carry a leading point axis, ``c.shape == (P, ...)``: one
expansion per point of a batch, propagated together (vectorised forward-mode
Taylor arithmetic).  Rank-3 and batched jets mix freely; a rank-3 jet is the
same at every point.

The derivative budget is the array shape itself: differentiating shrinks the
shape along that axis, and asking for an order that is no longer stored
raises :class:`~susygordon.errors.JetBudgetError` rather than returning a
silently truncated value.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
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
    values = list(values)
    if any(isinstance(v, np.ndarray) for v in values):
        return functools.reduce(np.maximum, values)
    return max(values, default=0.0)


def pointwise(fn, value, *args):
    """``fn(value, *args)``, taken point by point when ``value`` is per point.

    Scalar maths on a batch stays in Python's complex arithmetic, so a batch
    rounds exactly as its points do one at a time (numpy's complex ufuncs
    round some products and quotients differently in the last bit).
    """
    if isinstance(value, np.ndarray):
        return np.array([fn(v, *args) for v in value.tolist()], dtype=complex)
    return fn(value, *args)


class PerPoint(tuple):
    """Report values of a batch, one per point (see ``reporting.sweep``)."""


def derivative_sequence(name: str, z, kmax: int) -> list:
    """Return ``[f(z), f'(z), ..., f^(kmax)(z)]`` for a named analytic f.

    ``ln`` and ``sqrt`` use the principal branch and require
    ``abs(z) >= TINY``.  An array ``z`` (the bodies of a batch) gives one
    array per order, computed point by point with ``cmath``; it fails if any
    point is singular.
    """
    if isinstance(z, np.ndarray):
        seqs = [derivative_sequence(name, w, kmax) for w in z.tolist()]
        return [np.array(col, dtype=complex) for col in zip(*seqs)]
    z = complex(z)
    if name == "exp":
        w = cmath.exp(z)
        return [w] * (kmax + 1)
    if name == "sin":
        cycle = [cmath.sin(z), cmath.cos(z), -cmath.sin(z), -cmath.cos(z)]
        return [cycle[k % 4] for k in range(kmax + 1)]
    if name == "cos":
        cycle = [cmath.cos(z), -cmath.sin(z), -cmath.cos(z), cmath.sin(z)]
        return [cycle[k % 4] for k in range(kmax + 1)]
    if name in ("ln", "sqrt") and abs(z) < TINY:
        raise SingularBodyError(f"{name} requires an invertible body")
    if name == "ln":
        seq = [cmath.log(z)]
        for k in range(1, kmax + 1):
            seq.append((-1) ** (k - 1) * math.factorial(k - 1) / z ** k)
        return seq
    if name == "sqrt":
        seq = []
        coef = 1.0
        for k in range(kmax + 1):
            seq.append(coef * z ** (0.5 - k))
            coef *= 0.5 - k
        return seq
    raise ValueError(f"unknown analytic function {name!r}")


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
def _derivative_slice(axis: int, size: int, lead: int = 0):
    """Index dropping order 0 along ``axis``, and the factors ``1..size-1`` after it."""
    factors = np.arange(1, size, dtype=float).reshape((-1,) + (1,) * (2 - axis))
    return (slice(None),) * (lead + axis) + (slice(1, None),), factors


def _batched_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The truncated product with a leading point axis on either operand."""
    shape = a.shape[-3:]
    p, q, starts = _product_table(shape)
    terms = a.reshape(a.shape[:-3] + (-1,))[..., p] * b.reshape(b.shape[:-3] + (-1,))[..., q]
    return np.add.reduceat(terms, starts, axis=-1).reshape(terms.shape[:-1] + shape)


def _wrap(arr: np.ndarray) -> "JetScalar":
    """A jet around a complex array made by this module (no re-checks)."""
    jet = object.__new__(JetScalar)
    jet.c = arr
    return jet


class JetScalar:
    """A truncated Taylor expansion in ``(x_plus, x_minus, lambda)``.

    Immutable by convention; every operation returns a new jet.  Mixed-shape
    arithmetic truncates to the common (elementwise-minimum) shape, which is
    exactly the order to which the result is known.  Per-point values of a
    batch are numpy arrays: ``value`` and ``max_abs`` return one entry per
    point, and addition accepts such an array as a scalar.
    """

    __slots__ = ("c",)
    __array_ufunc__ = None  # ``ndarray op jet`` defers to the jet's own operators

    def __init__(self, coeffs) -> None:
        arr = np.asarray(coeffs, dtype=complex)
        if arr.ndim not in (3, 4):
            raise ValueError("jet coefficients must be a rank-3 array (rank 4 with a point axis)")
        self.c = arr

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, value, spec: JetSpec = DEFAULT_SPEC) -> "JetScalar":
        """A constant jet; a sequence of values gives one per point of a batch."""
        c = np.zeros(np.shape(value) + spec.shape, dtype=complex)
        c[..., 0, 0, 0] = value
        return cls(c)

    @classmethod
    def seed(cls, var: str, value, spec: JetSpec = DEFAULT_SPEC) -> "JetScalar":
        """Jet of the coordinate function ``var`` at the point(s) ``value``."""
        c = cls.constant(value, spec).c
        axis = axis_of(var)
        if spec.orders[axis] >= 1:
            idx = [0, 0, 0]
            idx[axis] = 1
            c[(Ellipsis, *idx)] = 1.0
        return cls(c)

    # -- basic queries -------------------------------------------------------

    @property
    def value(self):
        return complex(self.c[0, 0, 0]) if self.c.ndim == 3 else self.c[:, 0, 0, 0].copy()

    @property
    def spec(self) -> tuple[int, int, int]:
        return tuple(s - 1 for s in self.c.shape[-3:])  # type: ignore[return-value]

    def at(self, i: int) -> "JetScalar":
        """The jet at point ``i`` of a batch (a rank-3 jet is the same everywhere)."""
        return self if self.c.ndim == 3 else _wrap(self.c[i])

    def restrict(self, spec: JetSpec) -> "JetScalar":
        """Crop to a smaller JetSpec (never enlarges)."""
        shape = spec.shape
        if any(t > s for t, s in zip(shape, self.c.shape[-3:])):
            raise JetBudgetError(f"cannot restrict shape {self.c.shape} to {shape}")
        return JetScalar(self.c[..., : shape[0], : shape[1], : shape[2]])

    def max_abs(self):
        if self.c.ndim == 4:
            return np.abs(self.c).max(axis=(1, 2, 3), initial=0.0)
        return float(np.max(np.abs(self.c))) if self.c.size else 0.0

    def is_zero(self) -> bool:
        return np.count_nonzero(self.c) == 0

    # -- arithmetic ----------------------------------------------------------

    def _crop_pair(self, other: "JetScalar"):
        a, b = self.c, other.c
        if a.shape == b.shape:
            return a, b
        s = tuple(map(min, a.shape[-3:], b.shape[-3:]))
        return a[..., : s[0], : s[1], : s[2]], b[..., : s[0], : s[1], : s[2]]

    def __add__(self, other):
        if isinstance(other, JetScalar):
            a, b = self._crop_pair(other)
            return _wrap(a + b)
        if isinstance(other, (int, float, complex)):
            c = self.c.copy()
            c[..., 0, 0, 0] += other
            return _wrap(c)
        if isinstance(other, np.ndarray):  # one number per point of a batch
            c = np.broadcast_to(self.c, other.shape + self.c.shape[-3:]).copy()
            c[..., 0, 0, 0] += other
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
            if a.ndim == 3 == b.ndim:
                p, q, starts = _product_table(a.shape)
                return _wrap(np.add.reduceat(a.take(p) * b.take(q), starts).reshape(a.shape))
            return _wrap(_batched_product(a, b))
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
        if self.c.ndim == 4:
            return f"JetScalar(points={len(self.c)}, spec={self.spec})"
        return f"JetScalar(value={self.value:.6g}, spec={self.spec})"

    # -- calculus ------------------------------------------------------------

    def derivative(self, var: str) -> "JetScalar":
        """Partial derivative; consumes one order of the budget for ``var``."""
        axis = axis_of(var)
        lead = self.c.ndim - 3
        if self.c.shape[lead + axis] <= 1:
            raise JetBudgetError(f"derivative budget exhausted for {var}")
        index, factors = _derivative_slice(axis, self.c.shape[lead + axis], lead)
        return _wrap(self.c[index] * factors)

    def extract(self, index: Sequence[int]):
        """Raw partial ``d^i d^j d^k f`` (Taylor coeff times factorials); per point on a batch."""
        i, j, k = index
        if any(n < 0 or n > o for n, o in zip((i, j, k), self.spec)):
            raise JetBudgetError(
                f"multi-index {tuple(index)} outside stored orders {self.spec}")
        raw = self.c[..., i, j, k]
        if self.c.ndim == 3:
            raw = complex(raw)
        return raw * math.factorial(i) * math.factorial(j) * math.factorial(k)

    def scale_axes(self, f0: complex, f1: complex, f2: complex) -> "JetScalar":
        """Multiply coefficient ``(i, j, k)`` by ``f0^i f1^j f2^k`` (pullback helper)."""
        s = self.c.shape[-3:]
        g0 = np.asarray([f0 ** i for i in range(s[0])], dtype=complex)
        g1 = np.asarray([f1 ** j for j in range(s[1])], dtype=complex)
        g2 = np.asarray([f2 ** k for k in range(s[2])], dtype=complex)
        return JetScalar(self.c * g0[:, None, None] * g1[None, :, None] * g2[None, None, :])

    # -- analytic functions ---------------------------------------------------

    def _compose(self, seq: Sequence[complex]) -> "JetScalar":
        """Evaluate ``sum_j seq[j]/j! * (self - value)^j`` by Horner."""
        kmax = min(len(seq) - 1, sum(self.spec))
        soul = self.c.copy()
        soul[..., 0, 0, 0] = 0.0
        h = JetScalar(soul)
        acc = JetScalar.constant(pointwise(operator.truediv, seq[kmax], math.factorial(kmax)),
                                 JetSpec(self.spec))
        for j in range(kmax - 1, -1, -1):
            acc = acc * h + pointwise(operator.truediv, seq[j], math.factorial(j))
        return acc

    def analytic(self, name: str) -> "JetScalar":
        """Taylor composition ``f(self)`` truncated to this jet's spec."""
        seq = derivative_sequence(name, self.value, sum(self.spec))
        return self._compose(seq)

    def analytic_derivatives(self, name: str, kmax: int) -> list["JetScalar"]:
        """Jets of ``f(self), f'(self), ..., f^(kmax)(self)``."""
        total = sum(self.spec)
        seq = derivative_sequence(name, self.value, kmax + total)
        return [self._compose(seq[k:]) for k in range(kmax + 1)]

    def reciprocal(self) -> "JetScalar":
        """``1/self`` by Newton steps ``r <- r (2 - self r)`` from ``r = 1/body``.

        Each step doubles the total order to which ``r`` is exact, so
        ``ceil(log2(total + 1))`` steps fill the whole jet.  Composing the
        series of ``1/z`` instead sums powers of ``soul/body``, whose partial
        sums dwarf the result when the derivative coefficients dwarf the body.
        """
        value = self.value
        if near_zero(value):
            raise SingularBodyError("reciprocal requires an invertible body")
        r = JetScalar.constant(pointwise(lambda z: 1 / z, value), JetSpec(self.spec))
        known = 1
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
