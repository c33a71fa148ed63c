"""Graded matrix algebra: grading rules, supertrace symmetry, invariant form."""

import numpy as np
import pytest

from susygordon.errors import ParityError
from susygordon.grassmann import EVEN, ODD, GeneratorSet, GrassmannElement, allclose
from susygordon.ssge import build_constraint_matrices
from susygordon.supermatrix import SuperMatrix, graded_bracket, killing_form, smul, supertrace

GENS = GeneratorSet(("theta_plus", "theta_minus", "a0", "a1"))


def elem(terms):
    return GrassmannElement(GENS, terms)


def rand_graded(rng, mat_parity):
    """A random sparse (2|1) supermatrix of the requested parity."""
    rows = []
    for i in range(3):
        row = []
        for j in range(3):
            diag_block = (i < 2) == (j < 2)
            want_even = (mat_parity == EVEN) == diag_block
            terms = {}
            for m in range(16):
                if (m.bit_count() & 1) == (0 if want_even else 1):
                    if rng.random() < 0.4:
                        terms[m] = complex(rng.normal(), rng.normal())
            row.append(elem(terms))
        rows.append(row)
    matrix = SuperMatrix(rows)
    assert matrix.parity == mat_parity
    return matrix


def diag(*values):
    """The even diagonal matrix with these (complex) entries."""
    zero = GrassmannElement.zero(GENS)
    return SuperMatrix([[GrassmannElement.from_scalar(GENS, complex(values[i])) if i == j else zero
                         for j in range(3)] for i in range(3)])


def test_e_matrix_squares_to_identity():
    e = diag(1, 1, -1)
    assert (e @ e).allclose(diag(1, 1, 1), 0, 0)
    # e_twist is the left product with E
    a = rand_graded(np.random.default_rng(3), ODD)
    assert (e @ a).allclose(a.e_twist(), 0, 0)


def test_identity_is_neutral():
    rng = np.random.default_rng(5)
    a = rand_graded(rng, ODD)
    assert (a @ diag(1, 1, 1)).allclose(a, 0, 0)


def test_shape_mismatch():
    """Every matrix is 3x3: a grid of another shape is rejected when built."""
    one, zero = GrassmannElement.from_scalar(GENS, 1.0), GrassmannElement.zero(GENS)
    for rows in ([[one, zero], [zero, one]], [[one, zero, zero], [zero, one, zero]],
                 [[one, zero, zero], [zero, one], [zero, zero, one]],
                 [[one, zero, zero, zero]] * 4):
        with pytest.raises(ValueError, match="3x3"):
            SuperMatrix(rows)


def test_parity_validation():
    tp = GrassmannElement.generator(GENS, "theta_plus")
    zero = GrassmannElement.zero(GENS)
    one = GrassmannElement.from_scalar(GENS, 1.0)
    rows = [[tp, zero, zero], [zero, tp, zero], [zero, zero, tp]]
    m = SuperMatrix(rows)
    assert m.parity == ODD
    mixed = SuperMatrix([[one, zero, zero], [zero, one, zero], [zero, zero, tp]])
    assert mixed.parity == "inhomogeneous"
    # an inhomogeneous entry makes the matrix inhomogeneous in any block
    for i, j in ((0, 0), (0, 2)):
        rows = [[zero] * 3 for _ in range(3)]
        rows[i][j] = one + tp
        assert SuperMatrix(rows).parity == "inhomogeneous"
    assert SuperMatrix.zeros(GENS).parity == EVEN  # fits both gradings: reads EVEN


def test_grading_closure_under_products():
    rng = np.random.default_rng(11)
    for pa in (EVEN, ODD):
        for pb in (EVEN, ODD):
            a, b = rand_graded(rng, pa), rand_graded(rng, pb)
            expected = EVEN if pa == pb else ODD
            assert (a @ b).parity in (expected, EVEN)  # zero product infers even


def test_constraint_matrix_brackets():
    j, k, m, n = build_constraint_matrices(GENS)
    assert (m.bracket(j) - j.scale(1j)).max_abs() < 1e-15          # i J = [M, J]
    assert (k.bracket(m) - k.scale(1j)).max_abs() < 1e-15          # i K = [K, M]
    anti_jn = j.bracket(n, "anticommutator")
    anti_kn = k.bracket(n, "anticommutator")
    assert (anti_jn + anti_kn).max_abs() < 1e-15                   # {J,N} = -{K,N}
    assert (anti_kn - m.scale(0.5)).max_abs() < 1e-15              # M/2 = {K,N}
    # the same identity in raw product form: J M - M J = -i J
    assert (smul(j, m) - smul(m, j) + j.scale(1j)).max_abs() < 1e-15


def test_supertrace_definition():
    diag = [complex(2, 1), complex(-1, 0), complex(0.5, -3)]
    zero = GrassmannElement.zero(GENS)
    rows = [[GrassmannElement.from_scalar(GENS, diag[i]) if i == j else zero
             for j in range(3)] for i in range(3)]
    m = SuperMatrix(rows)
    expect = diag[0] + diag[1] - diag[2]
    assert abs(complex(supertrace(m).body()) - expect) < 1e-15


def test_supertrace_supersymmetry():
    # the cyclic identity needs the degree-dependent twist tr(E^(deg+1) .);
    # the plain tr(E .) form satisfies it only on even products
    def graded_supertrace(m):
        return m.supertrace() if m.parity == EVEN else m.trace()

    rng = np.random.default_rng(21)
    for pa in (EVEN, ODD):
        for pb in (EVEN, ODD):
            a, b = rand_graded(rng, pa), rand_graded(rng, pb)
            sign = -1 if (pa == ODD and pb == ODD) else 1
            lhs = graded_supertrace(a @ b)
            rhs = sign * graded_supertrace(b @ a)
            assert allclose(lhs, rhs, 1e-11, 1e-11)
            # the graded bracket matching the parities is supertraceless
            kind = "anticommutator" if (pa == ODD and pb == ODD) else "commutator"
            assert graded_supertrace(graded_bracket(a, b, kind)).max_abs() < 1e-10
    # on even products the two traces coincide, so the plain form holds there
    a, b = rand_graded(rng, ODD), rand_graded(rng, ODD)
    assert allclose(supertrace(a @ b), -1 * supertrace(b @ a), 1e-11, 1e-11)


def test_killing_form_symmetry_and_zero():
    rng = np.random.default_rng(31)
    for pa in (EVEN, ODD):
        for pb in (EVEN, ODD):
            a, b = rand_graded(rng, pa), rand_graded(rng, pb)
            sign = -1 if (pa == ODD and pb == ODD) else 1
            assert allclose(killing_form(a, b), sign * killing_form(b, a), 1e-11, 1e-11)
    zero = SuperMatrix.zeros(GENS)
    assert killing_form(zero, rand_graded(rng, EVEN)).is_zero()


def test_killing_rejects_inhomogeneous():
    one = GrassmannElement.from_scalar(GENS, 1.0)
    tp = GrassmannElement.generator(GENS, "theta_plus")
    zero = GrassmannElement.zero(GENS)
    mixed = SuperMatrix([[one, zero, zero], [zero, one, zero], [zero, zero, tp]])
    with pytest.raises(ParityError):
        killing_form(mixed, mixed)


def test_matmul_associativity():
    rng = np.random.default_rng(41)
    for _ in range(5):
        a, b, c = (rand_graded(rng, EVEN if i % 2 else ODD) for i in range(3))
        assert ((a @ b) @ c).allclose(a @ (b @ c), 1e-11, 1e-11)


def test_bracket_of_element_with_itself_vanishes():
    rng = np.random.default_rng(61)
    a = rand_graded(rng, EVEN)
    assert a.bracket(a, "commutator").max_abs() == 0.0


def shared_matrices(seed, pa, pb, shares, order=1):
    """Random homogeneous (2|1) matrices A (parity ``pa``) and B (``pb``) in which
    each ``dst: src`` of ``shares`` holds the element object of cell ``src``; a
    cell is ``(matrix, i, j)``.  ``order=-1`` allocates the objects in reverse."""
    rng = np.random.default_rng(seed)
    cells = [(name, i, j) for name in "ab" for i in range(3) for j in range(3)]
    terms = {}
    for name, i, j in cells:
        odd = ((pa if name == "a" else pb) == EVEN) != ((i < 2) == (j < 2))
        terms[name, i, j] = {m: complex(rng.normal(), rng.normal()) for m in range(16)
                             if m.bit_count() % 2 == odd and rng.random() < 0.6}
    objects = {cell: elem(terms[cell]) for cell in cells[::order] if cell not in shares}
    objects.update({dst: objects[src] for dst, src in shares.items()})
    a, b = ([[objects[name, i, j] for j in range(3)] for i in range(3)] for name in "ab")
    a, b = SuperMatrix(a), SuperMatrix(b)
    assert (a.parity, b.parity) == (pa, pb)
    return a, b


#: (parity of A, parity of B, bracket, shared cells): odd entries held twice
#: in one matrix, as V- holds D- s terms, and swapped pairs A[i][j] is B[j][i]
SHARED = [
    (EVEN, EVEN, "commutator", {("a", 1, 2): ("a", 0, 2), ("b", 2, 1): ("a", 0, 2),
                                ("b", 0, 2): ("a", 2, 0), ("b", 1, 0): ("a", 0, 1)}),
    (ODD, ODD, "anticommutator", {("a", 1, 1): ("a", 0, 0), ("b", 0, 0): ("a", 0, 0),
                                  ("b", 1, 0): ("a", 0, 1), ("b", 2, 0): ("a", 0, 2)}),
    (EVEN, ODD, "commutator", {("b", 0, 2): ("a", 0, 0), ("b", 0, 0): ("a", 0, 2),
                               ("a", 1, 2): ("a", 0, 2)}),
]


@pytest.mark.parametrize("pa, pb, kind, shares", SHARED)
def test_bracket_equals_its_definition_on_shared_entries(pa, pb, kind, shares):
    """bracket reads repeated and swapped products back; the definition forms
    every term: AB -+ BA through ``product_entry``."""
    sign = -1 if kind == "commutator" else 1
    for seed in range(4):
        a, b = shared_matrices(seed, pa, pb, shares)
        got = a.bracket(b, kind)
        for i in range(3):
            for k in range(3):
                want = a.product_entry(b, i, k) + sign * b.product_entry(a, i, k)
                assert (got.entry(i, k) - want).max_abs() <= 1e-13 * max(1.0, want.max_abs())
        assert a.bracket(a).max_abs() == 0.0  # the two halves read the same products


@pytest.mark.parametrize("pa, pb, kind, shares", SHARED)
def test_bracket_does_not_depend_on_allocation_order(pa, pb, kind, shares):
    """The same matrices with their objects allocated in reverse give a bitwise
    equal bracket: a product's direction is its first appearance, not an address."""
    forward = shared_matrices(7, pa, pb, shares)
    backward = shared_matrices(7, pa, pb, shares, order=-1)
    assert forward[0].to_json() == backward[0].to_json()
    assert forward[0].bracket(forward[1], kind).to_json() == \
        backward[0].bracket(backward[1], kind).to_json()


def test_e_twist_round_trip():
    rng = np.random.default_rng(51)
    m = rand_graded(rng, ODD)
    assert m.e_twist().e_twist().allclose(m, 0, 0)


def test_json_dump_shape():
    m = diag(1, 1, 1)
    data = m.to_json()
    assert data["shape"] == [2, 1]
    assert data["parity"] == EVEN
    assert len(data["entries"]) == 9
