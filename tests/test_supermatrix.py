"""Graded matrix algebra: grading rules, supertrace symmetry, invariant form."""

import numpy as np
import pytest

from susygordon.errors import ParityError, ShapeMismatchError
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
    return SuperMatrix(2, 1, rows, parity=mat_parity)


def diag(*values):
    """The even diagonal supermatrix with these (complex) entries; (2|1) or (1|1)."""
    size = len(values)
    zero = GrassmannElement.zero(GENS)
    rows = [[GrassmannElement.from_scalar(GENS, complex(values[i])) if i == j else zero
             for j in range(size)] for i in range(size)]
    return SuperMatrix(size - 1, 1, rows, parity=EVEN)


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
    a = diag(1, 1, 1)
    b = diag(1, 1)
    with pytest.raises(ShapeMismatchError):
        smul(a, b)


def test_parity_validation():
    tp = GrassmannElement.generator(GENS, "theta_plus")
    zero = GrassmannElement.zero(GENS)
    one = GrassmannElement.from_scalar(GENS, 1.0)
    rows = [[tp, zero, zero], [zero, tp, zero], [zero, zero, tp]]
    m = SuperMatrix(2, 1, rows)
    assert m.parity == ODD
    with pytest.raises(ParityError):
        SuperMatrix(2, 1, rows, parity=EVEN)
    mixed = SuperMatrix(2, 1, [[one, zero, zero], [zero, one, zero], [zero, zero, tp]])
    assert mixed.parity == "inhomogeneous"


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
    m = SuperMatrix(2, 1, rows)
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
    zero = SuperMatrix.zeros(GENS, 2, 1)
    assert killing_form(zero, rand_graded(rng, EVEN)).is_zero()


def test_killing_rejects_inhomogeneous():
    one = GrassmannElement.from_scalar(GENS, 1.0)
    tp = GrassmannElement.generator(GENS, "theta_plus")
    zero = GrassmannElement.zero(GENS)
    mixed = SuperMatrix(2, 1, [[one, zero, zero], [zero, one, zero], [zero, zero, tp]])
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
