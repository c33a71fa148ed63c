"""Exact arithmetic in a finitely generated Grassmann algebra.

A monomial is a subset of the (ordered, named) odd generators, stored as a
bitmask over the generator indices; every generator squares to zero and
distinct generators anticommute.  All sign bookkeeping from reordering
products into the canonical ascending-index form is absorbed into the
coefficients.

Coefficients are plain ``complex`` numbers for exact algebra, or
:class:`~susygordon.jets.JetScalar` values when the element is the value of
a superfield and has to carry partial derivatives; the two may be mixed.

Packed layout.  An element holds the sorted tuple of its monomial keys and
one complex block of shape ``(M, P, s+, s-, slam)``: one row per monomial,
a point axis, and the jet axes.  A value that is the same at every point has
``P = 1`` and broadcasts against the other operand.  Each
row keeps the jet shape to which it is known: a product or sum of two
coefficients is known to the common (elementwise-minimum) shape of what it
combines, and a plain complex coefficient is a constant, known to every
order.  Entries beyond a row's own shape are held at zero.  The block's jet
axes are the element's support, within the largest known shape (the grid):
past them every coefficient is zero.  A block built from data is cut after
the last nonzero slice on each axis, so a constant jet has the support
``(1, 1, 1)`` and a value free of lambda at most ``(3, 3, 1)``.  Then a
product's support is ``sa + sb - 1``, a sum's the larger one (each within
the grid), and a derivative shifts it.  Keys and known shapes together
form an interned layout, and the table of a product or sum lives on its left
layout, keyed by the right one: it holds the disjoint monomial pairs, their
signs and the runs of pairs that land on one output monomial.  At most
``MAX_LAYOUTS`` layouts are interned; past that the intern table starts
afresh, and layouts that no live element holds go with their tables.  A
product is then one signed jet product per pair, one ``np.add.reduceat`` over
the runs and one nonzero pass that drops the monomials that came out zero.  Up
to ``GATHER_ROWS`` pair rows (pairs times points) it gathers both blocks' rows
and the index pairs of :func:`susygordon.jets._product_table`.  A larger one
transposes both blocks once to jet-major ``(s+, s-, slam, M, P)``, gathers the
pair rows innermost in chunks of whole runs, at most ``SHIFT_ROWS`` pair rows
each (a longer run alone), and sums shifted jet slices of the supports.
A monomial is dropped only when it is zero at every point;
:meth:`GrassmannElement.at` gives the element at one point.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Callable, Iterable, Mapping

import numpy as np

from .errors import GeneratorMismatchError, JetBudgetError, ParityError, SingularBodyError
from .jets import (
    JetScalar,
    PerPoint,
    _derivative_slice,
    _product_table,
    _wrap,
    axis_of,
    near_zero,
    peak,
    per_point,
    scalar_analytic_derivatives,
    scalar_is_zero,
    scalar_value,
)

#: largest supported generator count (monomials are machine-word bitmasks)
MAX_GENERATORS = 64

EVEN = "even"
ODD = "odd"
INHOMOGENEOUS = "inhomogeneous"

#: known order of a plain complex coefficient: a constant is known to every order
CONSTANT = 1 << 30
_CONSTANT_SHAPE = (CONSTANT,) * 3

#: pair rows (monomial pairs times points) up to which a product gathers the
#: jet index pairs of every row at once; past about this many rows the gathered
#: intermediate (108 entries a row at the default jet shape) no longer stays in cache
GATHER_ROWS = 150

#: pair rows per chunk of a larger product, which sums shifted jet slices with
#: the rows innermost (one vector operation per jet slot); a chunk ends at a
#: whole run, and a run longer than this is a chunk of its own
SHIFT_ROWS = 1024

#: interned layouts kept before the intern table starts afresh
MAX_LAYOUTS = 4096


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


# ---------------------------------------------------------------------------
# layouts and their cached tables
# ---------------------------------------------------------------------------

class _Layout:
    """Sorted monomial keys and the known jet shape of each (interned).

    ``grid`` is the largest known shape, a constant (zero past the origin)
    counting as ``(1, 1, 1)``; a block of this layout has at most the jet axes
    ``grid``.  ``derived`` caches the layouts and tables built from this one:
    its rows, derivatives, and its products and sums keyed by the other layout.
    """

    __slots__ = ("keys", "shapes", "known", "grid", "parity", "derived", "_zero_where")

    def __init__(self, keys: tuple, shapes: tuple) -> None:
        self.keys = keys
        self.shapes = shapes
        self.known = np.array(shapes, dtype=np.int64).reshape(-1, 3)
        self.grid = tuple(map(max, zip((1, 1, 1), *(s for s in shapes if s[0] != CONSTANT))))
        degs = {m.bit_count() & 1 for m in keys}
        self.parity = EVEN if degs <= {0} else ODD if degs == {1} else INHOMOGENEOUS
        self.derived: dict = {}
        self._zero_where = False

    def zero_where(self, grid: tuple):
        """Where a block of this layout with the jet axes ``grid`` must be zero
        (beyond each row's known shape), as a mask; None when no row is short
        of the layout's grid."""
        if self._zero_where is False:
            known = np.minimum(self.known, self.grid)
            if (known == self.grid).all():
                self._zero_where = None
            else:
                index = np.indices(self.grid)[None]
                self._zero_where = (index >= known[:, :, None, None, None]).any(axis=1)
        where = self._zero_where
        return where if where is None else where[:, : grid[0], : grid[1], : grid[2]]


_LAYOUTS: dict[tuple, _Layout] = {}


def _layout(keys: tuple, shapes: tuple) -> _Layout:
    got = _LAYOUTS.get((keys, shapes))
    if got is None:
        if len(_LAYOUTS) >= MAX_LAYOUTS:
            _clear_layouts()
        got = _LAYOUTS[(keys, shapes)] = _Layout(keys, shapes)
    return got


def _clear_layouts() -> None:
    """Start the intern table afresh.  The module's own layouts stay interned
    but drop their tables, which would otherwise keep every old layout alive."""
    _LAYOUTS.clear()
    for layout in (_EMPTY, _CONSTANT_BODY):
        layout.derived.clear()
        _LAYOUTS[(layout.keys, layout.shapes)] = layout


_EMPTY = _layout((), ())
_EMPTY_BLOCK = np.zeros((0, 1, 1, 1, 1), dtype=complex)
_CONSTANT_BODY = _layout((0,), (_CONSTANT_SHAPE,))


class _Product:
    """The product table of two layouts: their disjoint monomial pairs, grouped
    by output monomial, and the output layout.

    Pairs ``(ia[k], ib[k])`` are sorted by output monomial, and within one by
    ``(ia, ib)``; ``starts`` marks each output's run and ``neg`` the pairs whose
    reordering sign is -1 (None when there are none).
    """

    __slots__ = ("ia", "ib", "neg", "starts", "single", "layout", "_chunks")

    def __init__(self, la: _Layout, lb: _Layout) -> None:
        ka, kb = la.keys, lb.keys
        pairs = sorted(((ma | mb, i, j) for i, ma in enumerate(ka)
                        for j, mb in enumerate(kb) if not ma & mb), key=lambda t: t[0])
        self.ia = np.array([i for _, i, _ in pairs], dtype=np.intp)
        self.ib = np.array([j for _, _, j in pairs], dtype=np.intp)
        neg = np.array([_product_sign(ka[i], kb[j]) < 0 for _, i, j in pairs], dtype=bool)
        self.neg = neg if neg.any() else None
        starts = [k for k, t in enumerate(pairs) if k == 0 or t[0] != pairs[k - 1][0]]
        self.starts = np.array(starts, dtype=np.intp)
        self.single = len(starts) == len(pairs)
        self.layout = _EMPTY
        if starts:
            known = np.minimum(la.known[self.ia], lb.known[self.ib])
            known = np.minimum.reduceat(known, self.starts, axis=0)
            self.layout = _layout(tuple(pairs[k][0] for k in starts),
                                  tuple(map(tuple, known.tolist())))
        self._chunks: dict = {}

    def chunks(self, limit: int) -> tuple:
        """The runs in chunks of at most ``limit`` pairs, a longer run alone:
        ``(k0, k1, o0, o1, starts)`` for the pairs ``k0:k1`` of the outputs
        ``o0:o1``, ``starts`` marking their runs within the chunk."""
        got = self._chunks.get(limit)
        if got is None:
            ends, got, o0 = np.append(self.starts, len(self.ia)), [], 0
            while o0 < len(self.starts):
                o1 = max(o0 + 1, int(np.searchsorted(ends, ends[o0] + limit, "right")) - 1)
                got.append((ends[o0], ends[o1], o0, o1, ends[o0:o1] - ends[o0]))
                o0 = o1
            got = self._chunks[limit] = tuple(got)
        return got


class _Sum:
    """A cached sum of two layouts: where each operand's rows go in the output."""

    __slots__ = ("layout", "pos_a", "pos_b", "common", "masked")

    def __init__(self, la: _Layout, lb: _Layout) -> None:
        shape = dict(zip(lb.keys, lb.shapes))
        for m, s in zip(la.keys, la.shapes):
            shape[m] = tuple(map(min, s, shape[m])) if m in shape else s
        keys = tuple(sorted(shape))
        self.layout = _layout(keys, tuple(shape[m] for m in keys))
        slot = {m: i for i, m in enumerate(keys)}
        self.pos_a = _index([slot[m] for m in la.keys], len(keys))
        self.pos_b = _index([slot[m] for m in lb.keys], len(keys))
        both = set(la.keys) & set(lb.keys)
        self.common = np.array([slot[m] for m in sorted(both)], dtype=np.intp) if both else None
        # a common row known to fewer orders than one operand's jet holds that
        # jet's extra orders, which the sum must zero
        longer = any(s[0] != CONSTANT and s != shape[m] for operand in (la, lb)
                     for m, s in zip(operand.keys, operand.shapes) if m in both)
        self.masked = longer and self.layout.zero_where(self.layout.grid) is not None


def _index(rows: list, size: int):
    """Rows as a slice when they are all ``size`` rows in order, else an index array."""
    if rows == list(range(size)):
        return slice(None)
    return np.array(rows, dtype=np.intp)


# ---------------------------------------------------------------------------
# block helpers
# ---------------------------------------------------------------------------

def _new(gens: GeneratorSet, layout: _Layout, block: np.ndarray) -> "GrassmannElement":
    elem = object.__new__(GrassmannElement)
    elem.gens = gens
    elem.layout = layout
    elem.block = block
    return elem


def _crop(block: np.ndarray, grid: tuple) -> np.ndarray:
    have = block.shape[-3:]
    if have == grid or have[0] <= grid[0] and have[1] <= grid[1] and have[2] <= grid[2]:
        return block
    return block[..., : grid[0], : grid[1], : grid[2]]


def _fit(block: np.ndarray, grid: tuple) -> np.ndarray:
    """Crop or zero-pad the jet axes to ``grid``."""
    block = _crop(block, grid)
    have = block.shape[-3:]
    if have == grid:
        return block
    out = np.zeros(block.shape[:-3] + grid, dtype=complex)
    out[..., : have[0], : have[1], : have[2]] = block
    return out


@lru_cache(maxsize=1024)
def _support(used: bytes, shape: tuple) -> tuple:
    """The jet shape up to the last slot on each axis that the mask ``used`` marks."""
    used = np.frombuffer(used, dtype=bool).reshape(shape)
    return tuple((np.argwhere(used).max(axis=0, initial=0) + 1).tolist())


def _trimmed(block: np.ndarray) -> np.ndarray:
    """The block without the trailing jet slices that are zero at every row
    and point: its jet axes become its support."""
    shape = block.shape[-3:]
    used = np.logical_or.reduce(block.reshape(-1, shape[0] * shape[1] * shape[2]), axis=0)
    return _crop(block, _support(used.tobytes(), shape))


@lru_cache(maxsize=1024)
def _shift_steps(sx: tuple, sy: tuple, grid: tuple) -> tuple:
    """The multiply-adds ``out[o] += x[p] * y[q]`` of a shifted product: one per
    slot ``p`` of ``x``'s support in flat order, ending where ``y``'s support or
    ``grid`` does.  Along an axis where ``y``'s support is one slot, each output
    takes one ``p``: that axis adds in one step (``y``'s slice stops at 1)."""
    widths = [n if m == 1 else 1 for n, m in zip(sx, sy)]
    steps = []
    for p in itertools.product(*map(range, [0] * 3, sx, widths)):
        hi = [min(g, q + w + m - 1) for g, q, w, m in zip(grid, p, widths, sy)]
        steps.append((tuple(slice(q, q + w) for q, w in zip(p, widths)),
                      tuple(map(slice, p, hi)), tuple(slice(0, h - q) for q, h in zip(p, hi))))
    return tuple(steps)


def _shifted_product(a: np.ndarray, b: np.ndarray, pairs: "_Product", grid: tuple,
                     points: int) -> np.ndarray:
    """The jet-major product: per chunk, ``x[p] y[r - p]`` summed as one
    multiply-add of slices per step of :func:`_shift_steps`, in flat order of
    ``p``, with the pair rows innermost; then its runs summed."""
    x, y = (np.ascontiguousarray(_crop(t, grid).transpose(2, 3, 4, 0, 1)) for t in (a, b))
    (xs0, os0, ys0), *rest = _shift_steps(x.shape[:3], y.shape[:3], grid)
    out = np.empty((len(pairs.layout.keys), points) + grid, dtype=complex)
    for k0, k1, o0, o1, starts in pairs.chunks(max(1, SHIFT_ROWS // points)):
        xt = x.take(pairs.ia[k0:k1], axis=3)
        if pairs.neg is not None:
            np.negative(xt, out=xt, where=pairs.neg[k0:k1, None])
        yt = y.take(pairs.ib[k0:k1], axis=3)
        rows = np.zeros(grid + (k1 - k0, points), dtype=complex)
        np.multiply(xt[xs0], yt[ys0], out=rows[os0])
        for xs, os, ys in rest:
            rows[os] += xt[xs] * yt[ys]
        out[o0:o1] = np.add.reduceat(rows, starts, axis=3).transpose(3, 4, 0, 1, 2)
    return out


def _pair_sums(a: np.ndarray, b: np.ndarray, pairs: "_Product", grid: tuple) -> np.ndarray:
    """The signed jet products of the row pairs of ``pairs`` on ``grid``, summed
    per run: jet-major shifted slices past ``GATHER_ROWS`` pair rows, else one
    gather of the jet index pairs of every row."""
    points = max(a.shape[1], b.shape[1])
    if len(pairs.ia) * points > GATHER_ROWS:
        return _shifted_product(a, b, pairs, grid, points)
    x = _crop(a, grid).take(pairs.ia, axis=0)
    if pairs.neg is not None:
        np.negative(x, out=x, where=pairs.neg[:, None, None, None, None])
    y = _crop(b, grid).take(pairs.ib, axis=0)
    if x.shape[-3:] == (1, 1, 1) or y.shape[-3:] == (1, 1, 1):
        out = x * y  # a support of one slot: each output is one product
    else:
        # numpy sums a long run in interleaved partial sums, so the runs keep the
        # zero terms of ``grid``'s table: a shorter run would round differently
        p, q, starts = _product_table(grid)
        xf = _fit(x, grid).reshape(x.shape[:-3] + (len(starts),))
        yf = _fit(y, grid).reshape(y.shape[:-3] + (len(starts),))
        if xf.shape[1] < yf.shape[1]:  # gather the batched operand first, multiply in place
            terms = yf.take(q, axis=-1)
            terms *= xf.take(p, axis=-1)
        else:
            terms = xf.take(p, axis=-1)
            terms *= yf.take(q, axis=-1)
        out = np.add.reduceat(terms, starts, axis=-1).reshape(terms.shape[:-1] + grid)
    return out if pairs.single else np.add.reduceat(out, pairs.starts, axis=0)


def _rows(gens: GeneratorSet, elem_layout: _Layout, block: np.ndarray,
          rows: np.ndarray) -> "GrassmannElement":
    """The element made of some rows of a block (cut to the rows' known grid)."""
    key = ("rows", rows.tobytes())
    layout = elem_layout.derived.get(key)
    if layout is None:
        picked = rows.tolist()
        layout = elem_layout.derived[key] = _layout(
            tuple(elem_layout.keys[i] for i in picked),
            tuple(elem_layout.shapes[i] for i in picked))
    if not layout.keys:
        return GrassmannElement.zero(gens)
    return _new(gens, layout, _crop(block[rows], layout.grid))


def _pruned(gens: GeneratorSet, layout: _Layout, block: np.ndarray) -> "GrassmannElement":
    """The element without the rows that are zero at every point."""
    count = len(layout.keys)
    if not count:
        return GrassmannElement.zero(gens)
    nonzero = np.logical_or.reduce(block.reshape(count, -1), axis=1)
    if nonzero.all():
        return _new(gens, layout, block)
    return _rows(gens, layout, block, np.flatnonzero(nonzero))


def _plan(kind: type, la: _Layout, lb: _Layout):
    """The product or sum table of two layouts, kept on ``la``."""
    key = (kind, lb)
    plan = la.derived.get(key)
    if plan is None:
        plan = la.derived[key] = kind(la, lb)
    return plan


def _product(a: "GrassmannElement", b: "GrassmannElement") -> "GrassmannElement":
    pairs = _plan(_Product, a.layout, b.layout)
    layout = pairs.layout
    if not layout.keys:
        return GrassmannElement.zero(a.gens)
    ba, bb = a.block, b.block
    # support: the operands' supports added, within the known grid
    (g0, g1, g2), sa, sb = layout.grid, ba.shape[-3:], bb.shape[-3:]
    grid = (min(g0, sa[0] + sb[0] - 1), min(g1, sa[1] + sb[1] - 1), min(g2, sa[2] + sb[2] - 1))
    out = _pair_sums(ba, bb, pairs, grid)
    zero_where = layout.zero_where(grid)
    if zero_where is not None:
        np.copyto(out, 0, where=zero_where[:, None])
    return _pruned(a.gens, layout, out)


def _sum(a: "GrassmannElement", b: "GrassmannElement") -> "GrassmannElement":
    if not a.layout.keys:
        return b
    if not b.layout.keys:
        return a
    ba, bb = a.block, b.block
    # support: the larger of the operands' supports, within the known grid
    grid = tuple(map(max, ba.shape[-3:], bb.shape[-3:]))
    if a.layout is b.layout:
        return _pruned(a.gens, a.layout, _fit(ba, grid) + _fit(bb, grid))
    plan = _plan(_Sum, a.layout, b.layout)
    layout, grid = plan.layout, tuple(map(min, grid, plan.layout.grid))
    out = np.zeros((len(layout.keys), max(ba.shape[1], bb.shape[1])) + grid, dtype=complex)
    for pos, block, add in ((plan.pos_a, ba, False), (plan.pos_b, bb, True)):
        block = _crop(block, grid)
        s = block.shape[-3:]
        index = (pos, Ellipsis, slice(0, s[0]), slice(0, s[1]), slice(0, s[2]))
        if add:
            out[index] += block
        else:
            out[index] = block
    if plan.masked:
        zero_where = layout.zero_where(grid)
        np.copyto(out, 0, where=zero_where[:, None])
    if plan.common is None:
        return _new(a.gens, layout, out)
    # only a monomial both operands hold can cancel
    rows = out.take(plan.common, axis=0)
    if np.logical_or.reduce(rows.reshape(len(rows), -1), axis=1).all():
        return _new(a.gens, layout, out)
    return _pruned(a.gens, layout, out)


class GrassmannElement:
    """A sparse Grassmann-algebra element over a fixed generator set.

    Immutable by convention: operations return new elements and never write
    into a block they did not allocate.  Monomials that are exactly zero (at
    every point) are never stored.  ``GrassmannElement(gens, terms)``
    packs a ``monomial -> coefficient`` mapping; :attr:`terms` unpacks it.
    """

    __slots__ = ("gens", "layout", "block")
    __array_ufunc__ = None  # ``ndarray op element`` defers to the element's operators

    def __init__(self, gens: GeneratorSet, terms: Mapping[int, object]) -> None:
        items = sorted(((m, c) for m, c in terms.items() if not scalar_is_zero(c)),
                       key=lambda t: t[0])
        shapes = tuple(c.c.shape[-3:] if isinstance(c, JetScalar) else _CONSTANT_SHAPE
                       for _, c in items)
        layout = _layout(tuple(m for m, _ in items), shapes)
        points = max((len(c.c) for _, c in items if isinstance(c, JetScalar)), default=1)
        block = np.zeros((len(items), points) + layout.grid, dtype=complex)
        for row, (_, c) in zip(block, items):
            if isinstance(c, JetScalar):
                s = c.c.shape[-3:]
                row[..., : s[0], : s[1], : s[2]] = c.c
            else:
                row[..., 0, 0, 0] = complex(c)
        self.gens = gens
        self.layout = layout
        self.block = _trimmed(block)

    # -- constructors ----------------------------------------------------------

    @classmethod
    def zero(cls, gens: GeneratorSet) -> "GrassmannElement":
        return _new(gens, _EMPTY, _EMPTY_BLOCK)

    @classmethod
    def from_scalar(cls, gens: GeneratorSet, value) -> "GrassmannElement":
        if isinstance(value, JetScalar):
            if value.is_zero():
                return cls.zero(gens)
            return _new(gens, _layout((0,), (value.c.shape[-3:],)), _trimmed(value.c[None]))
        if value == 0:
            return cls.zero(gens)
        return _new(gens, _CONSTANT_BODY, np.full((1, 1, 1, 1, 1), value, dtype=complex))

    @classmethod
    def generator(cls, gens: GeneratorSet, name: str) -> "GrassmannElement":
        layout = _layout((1 << gens.index(name),), (_CONSTANT_SHAPE,))
        return _new(gens, layout, np.ones((1, 1, 1, 1, 1), dtype=complex))

    # -- structure --------------------------------------------------------------

    def _coefficient(self, row: int):
        shape = self.layout.shapes[row]
        if shape[0] == CONSTANT:
            return complex(self.block[row].flat[0])
        return _wrap(_fit(self.block[row], shape))

    @property
    def terms(self) -> dict[int, object]:
        """The ``monomial -> coefficient`` mapping: a jet cut to its known shape,
        or a complex number for a constant."""
        return {m: self._coefficient(row) for row, m in enumerate(self.layout.keys)}

    def body(self):
        """Coefficient of the empty monomial (0j when absent)."""
        keys = self.layout.keys
        return self._coefficient(0) if keys and keys[0] == 0 else 0.0j

    def soul(self) -> "GrassmannElement":
        keys = self.layout.keys
        if not keys or keys[0]:
            return self
        return _rows(self.gens, self.layout, self.block, np.arange(1, len(keys)))

    def parity(self) -> str:
        return self.layout.parity

    def is_zero(self) -> bool:
        return not self.layout.keys

    def max_abs(self):
        """Largest coefficient magnitude (over all stored jet orders), per point."""
        if not self.layout.keys:
            return 0.0
        return per_point(np.abs(self.block).max(axis=(0, 2, 3, 4)))

    def points(self) -> int:
        """Length of the point axis: 1 for a value that is the same at every point."""
        return self.block.shape[1]

    def at(self, i: int) -> "GrassmannElement":
        """The element at point ``i`` of a batch, without the monomials zero there."""
        return _pruned(self.gens, self.layout, self.block[:, i, None])

    def value_terms(self) -> dict[int, complex]:
        """Monomial map of plain complex values (jet coefficients collapsed)."""
        return {m: scalar_value(c) for m, c in self.terms.items()}

    def pulled_back(self, f_plus: complex, f_minus: complex,
                    monomial_factor: Callable[[int], complex]) -> "GrassmannElement":
        """Coefficient ``(i, j, k)`` of monomial ``m`` times ``f_plus^i f_minus^j
        monomial_factor(m)``: the pullback of the scaling map."""
        if not self.layout.keys:
            return self
        g_plus, g_minus = (np.asarray([f ** i for i in range(n)], dtype=complex)
                           for f, n in zip((f_plus, f_minus), self.block.shape[2:4]))
        rows = np.asarray([monomial_factor(m) for m in self.layout.keys], dtype=complex)
        block = self.block * g_plus[:, None, None] * g_minus[None, :, None]
        return _pruned(self.gens, self.layout, block * rows[:, None, None, None, None])

    # -- ring operations ---------------------------------------------------------

    def _check_gens(self, other: "GrassmannElement") -> None:
        if self.gens is not other.gens and self.gens != other.gens:
            raise GeneratorMismatchError(
                f"generator sets differ: {self.gens.names} vs {other.gens.names}")

    def __add__(self, other):
        if isinstance(other, GrassmannElement):
            self._check_gens(other)
            return _sum(self, other)
        if isinstance(other, (int, float, complex, JetScalar)):
            return _sum(self, GrassmannElement.from_scalar(self.gens, other))
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return _new(self.gens, self.layout, -self.block)

    def __sub__(self, other):
        if isinstance(other, (GrassmannElement, int, float, complex, JetScalar)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, GrassmannElement):
            self._check_gens(other)
            return _product(self, other)
        if isinstance(other, (int, float, complex)):
            if other == 0:
                return GrassmannElement.zero(self.gens)
            return _pruned(self.gens, self.layout, self.block * other)
        if isinstance(other, JetScalar):
            return _product(self, GrassmannElement.from_scalar(self.gens, other))
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
        if not self.layout.keys:
            return "GrassmannElement(0)"
        if self.points() > 1:
            return f"GrassmannElement({len(self.layout.keys)} monomials at {self.points()} points)"
        bits = []
        for m, c in self.terms.items():
            names = [self.gens.names[i] for i in range(len(self.gens)) if m >> i & 1]
            label = "*".join(names) if names else "1"
            bits.append(f"{label}: {scalar_value(c):.6g}")
        return "GrassmannElement({" + ", ".join(bits) + "})"

    # -- derivations ---------------------------------------------------------------

    def fermi_derivative(self, name: str) -> "GrassmannElement":
        """Left derivative with respect to one generator.

        On a monomial containing the generator, move it to the front
        (collecting one sign per generator passed) and delete it.
        """
        bit = 1 << self.gens.index(name)
        table = self.layout.derived.get(("fermi", bit))
        if table is None:
            below = bit - 1
            rows = [i for i, m in enumerate(self.layout.keys) if m & bit]
            neg = np.array([(self.layout.keys[i] & below).bit_count() & 1 for i in rows], bool)
            layout = _layout(tuple(self.layout.keys[i] ^ bit for i in rows),
                             tuple(self.layout.shapes[i] for i in rows))
            table = self.layout.derived[("fermi", bit)] = (
                np.array(rows, dtype=np.intp), neg if neg.any() else None, layout)
        rows, neg, layout = table
        if not layout.keys:
            return GrassmannElement.zero(self.gens)
        block = self.block[rows]
        if neg is not None:
            np.negative(block, out=block, where=neg[:, None, None, None, None])
        return _new(self.gens, layout, _crop(block, layout.grid))

    def derivative(self, var: str) -> "GrassmannElement":
        """Coefficient-wise bosonic partial derivative; constants drop out.

        Consumes one order of each jet's budget for ``var``, and raises
        :class:`JetBudgetError` when any stored jet has none left.
        """
        axis = axis_of(var)
        table = self.layout.derived.get(("d", axis))
        if table is None:
            known = self.layout.known
            rows = np.flatnonzero(known[:, 0] != CONSTANT)
            if (known[rows, axis] <= 1).any():
                table = None, None
            else:
                shapes = tuple(tuple(s - (j == axis) for j, s in enumerate(self.layout.shapes[i]))
                               for i in rows.tolist())
                layout = _layout(tuple(self.layout.keys[i] for i in rows.tolist()), shapes)
                table = (_index(rows.tolist(), len(self.layout.keys)), layout)
            self.layout.derived[("d", axis)] = table
        rows, layout = table
        if layout is None:
            raise JetBudgetError(f"derivative budget exhausted for {var}")
        size = self.block.shape[2 + axis]
        if not layout.keys or size == 1:  # no entry past order 0 along ``var``
            return GrassmannElement.zero(self.gens)
        index, factors = _derivative_slice(axis, size)
        return _pruned(self.gens, layout, self.block[rows][index] * factors)


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

    An element of several points gives one list per point, as a
    :class:`PerPoint`; one the same at every point gives one list.
    """
    count = a.points()
    if count > 1:
        return PerPoint(element_to_json(a.at(i)) for i in range(count))
    entries = []
    for m, row in zip(a.layout.keys, a.block):
        names = [a.gens.names[i] for i in range(len(a.gens)) if m >> i & 1]
        v = complex(row.flat[0])
        # + 0.0 writes a zero as 0.0 whatever its sign bit: the sign of an exact
        # zero can depend on whether a monomial was stored (batch) or dropped (point)
        entries.append({"monomial": names, "re": v.real + 0.0, "im": v.imag + 0.0})
    entries.sort(key=lambda e: e["monomial"])
    return entries
