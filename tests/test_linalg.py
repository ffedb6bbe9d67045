"""The elimination engine against a plain dense Gauss-Jordan reference.

The reference is the textbook dense loop: leftmost pivots, full
reduction, nothing shared with ``linalg``.  Every function built on
``Echelon`` is compared with what the reference implies, on seeded random
matrices over Q and small prime fields, including empty shapes.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from biserial import linalg as la
from biserial.fields import Field

FIELDS = [Field(0), Field(2), Field(3), Field(5)]
SEEDS = range(60)


def ref_rref(a, f):
    """Dense reduced row echelon form: (rows, pivot columns)."""
    m = [list(row) for row in a]
    n_rows = len(m)
    n_cols = len(m[0]) if n_rows else 0
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = f.inv(m[r][c])
        m[r] = [f.mul(inv, x) for x in m[r]]
        for i in range(n_rows):
            if i != r and m[i][c] != 0:
                g = m[i][c]
                m[i] = [f.sub(x, f.mul(g, y)) for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m[:r], pivots


def ref_det(a, f):
    """Leibniz expansion; the matrices here are at most 4 x 4."""
    n = len(a)
    total = 0
    for perm in itertools.permutations(range(n)):
        term = 1
        for i, j in enumerate(perm):
            term = f.mul(term, a[i][j])
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total = f.sub(total, term) if inversions % 2 else f.add(total, term)
    return total


def random_matrix(rng, f, rows, cols):
    """Sparse-ish entries; rows sometimes repeat so ranks drop."""
    def entry():
        if rng.random() < 0.45:
            return 0
        if f.char == 0:
            return f.of(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        return rng.randrange(f.char)
    m = [[entry() for _ in range(cols)] for _ in range(rows)]
    for i in range(1, rows):
        if rng.random() < 0.2:
            c = entry()
            m[i] = [f.mul(c, x) for x in m[rng.randrange(i)]]
    return m


def cases(f):
    for seed in SEEDS:
        rng = random.Random(seed * 7 + f.char)
        rows, cols = rng.randint(0, 5), rng.randint(0, 6)
        yield seed, random_matrix(rng, f, rows, cols), rng


def mat_vec(x, a, f, cols):
    return la.row_vec_mul(x, a, f, cols=cols)


def in_row_span(v, rows, f):
    return ref_rref(rows + [v], f)[1] == ref_rref(rows, f)[1] if rows else not any(v)


@pytest.mark.parametrize("f", FIELDS, ids=repr)
def test_rref_and_rank_match_reference(f):
    for seed, a, _ in cases(f):
        assert la.rref(a, f) == ref_rref(a, f), (seed, a)
        assert la.rank(a, f) == len(ref_rref(a, f)[0])
        assert la.span_rank(a, f) == la.rank(a, f)


@pytest.mark.parametrize("f", FIELDS, ids=repr)
def test_nullspaces_match_reference(f):
    for seed, a, _ in cases(f):
        n = len(a)
        cols = len(a[0]) if a else 0
        reduced, pivots = ref_rref(la.transpose(a), f) if a and cols else ([], [])
        expected = []
        for j in (j for j in range(n) if j not in pivots):
            v = [0] * n
            v[j] = 1
            for i, p in enumerate(pivots):
                v[p] = f.neg(reduced[i][j])
            expected.append(v)
        assert la.row_nullspace(a, f) == expected, (seed, a)
        for x in expected:
            assert not any(mat_vec(x, a, f, cols))
        equations = [{i: row[j] for i, row in enumerate(a)} for j in range(cols)]
        assert la.sparse_nullspace(equations, n, f) == expected


@pytest.mark.parametrize("f", FIELDS, ids=repr)
def test_solve_row_free_variables_zero(f):
    for seed, a, rng in cases(f):
        n = len(a)
        cols = len(a[0]) if a else rng.randint(0, 3)
        for consistent in (True, False):
            if consistent:
                x = [rng.randrange(3) for _ in range(n)]
                v = mat_vec(x, a, f, cols) if n else [0] * cols
            else:
                v = [rng.randrange(2) for _ in range(cols)]
            got = la.solve_row(v, a, f)
            columns = la.transpose(a) if n else [[]] * cols
            aug = [list(col) + [v[j]] for j, col in enumerate(columns)]
            reduced, pivots = ref_rref(aug, f)
            if n in pivots:
                assert got is None, (seed, a, v)
                continue
            expected = [0] * n
            for i, p in enumerate(pivots):
                expected[p] = reduced[i][n]
            assert got == expected, (seed, a, v)
            assert mat_vec(got, a, f, cols) == list(v)


@pytest.mark.parametrize("f", FIELDS, ids=repr)
def test_square_inverse_det(f):
    for seed, a, rng in cases(f):
        n = rng.randint(0, 4)
        m = random_matrix(rng, f, n, n)
        d = ref_det(m, f)
        assert la.det(m, f) == d, (seed, m)
        assert la.is_invertible(m, f) == (d != 0)
        inv = la.inverse(m, f)
        if d == 0:
            assert inv is None
        else:
            assert la.mat_mul(m, inv, f, cols=n) == la.identity(n, f)
        if a and len(a) != len(a[0]):
            assert not la.is_invertible(a, f) and la.inverse(a, f) is None


@pytest.mark.parametrize("f", FIELDS, ids=repr)
def test_recipe_coordinates(f):
    for seed, a, rng in cases(f):
        cols = len(a[0]) if a else 0
        basis = ref_rref(a, f)[0] if rng.random() < 0.5 else a
        independent = len(ref_rref(basis, f)[0]) == len(basis)
        v = random_matrix(rng, f, 1, cols)[0]
        if not independent:
            with pytest.raises(ValueError):
                la.express_in_basis(v, basis, f)
            continue
        coords = la.express_in_basis(v, basis, f)
        if not in_row_span(v, basis, f):
            assert coords is None, (seed, basis, v)
            continue
        assert mat_vec(coords, basis, f, cols) == v, (seed, basis, v)
        x = [f.of(rng.randrange(3)) for _ in basis]
        assert la.express_in_basis(mat_vec(x, basis, f, cols), basis, f) == x


def test_echelon_width_keeps_recipe_columns_out_of_pivots():
    f = Field(0)
    ech = la.Echelon(f, width=2)
    assert ech.lead(ech.add({0: 2, 2: 1})) == 0
    residue = ech.add({0: 4, 3: 1})
    assert ech.lead(residue) is None and residue == {2: -2, 3: 1}
    assert ech.rank == 1 and ech.pivots == [0]
    assert ech.rows[0] == {0: 1, 2: Fraction(1, 2)}


def test_scalars_are_int_native():
    q = Field(0)
    assert type(q.zero) is int and type(q.one) is int
    assert type(q.of("4/2")) is int and q.of("1/2") == Fraction(1, 2)
    assert type(q.inv(Fraction(1, 3))) is int and q.inv(2) == Fraction(1, 2)
    assert type(q.nth_root(4, 2)) is int
    assert la.rref([[2, 4]], q) == ([[1, 2]], [0])
