"""The elimination engine against a plain dense Gauss-Jordan reference.

The reference is the textbook dense loop: leftmost pivots, full
reduction, nothing shared with ``linalg``.  Every function built on
``Echelon`` is compared with what the reference implies, on seeded random
matrices over Q and small prime fields, including empty shapes.  The
matrices are made dense and handed to ``linalg`` as sparse rows.
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


def sparse(row) -> dict:
    """The {column: coeff} form of a dense row."""
    return {j: x for j, x in enumerate(row) if x}


def dense(row: dict, n: int) -> list:
    return [row.get(j, 0) for j in range(n)]


def rows_of(a):
    return [sparse(row) for row in a]


def mat_vec(x, a, f, cols):
    """x @ a for a dense x and a dense a, as a dense row."""
    return dense(la.row_vec_mul(sparse(x), rows_of(a), f), cols)


def in_row_span(v, rows, f):
    return ref_rref(rows + [v], f)[1] == ref_rref(rows, f)[1] if rows else not any(v)


@pytest.mark.parametrize("f", FIELDS, ids=repr)
def test_rref_and_rank_match_reference(f):
    for seed, a, _ in cases(f):
        rows, pivots = la.rref(rows_of(a), f)
        cols = len(a[0]) if a else 0
        assert ([dense(r, cols) for r in rows], pivots) == ref_rref(a, f), (seed, a)
        assert la.rank(rows_of(a), f) == len(ref_rref(a, f)[0])
        assert la.span_rank(rows_of(a), f) == la.rank(rows_of(a), f)


@pytest.mark.parametrize("f", FIELDS, ids=repr)
def test_nullspaces_match_reference(f):
    for seed, a, _ in cases(f):
        n = len(a)
        cols = len(a[0]) if a else 0
        reduced, pivots = ref_rref([list(col) for col in zip(*a)], f) if a and cols else ([], [])
        expected = []
        for j in (j for j in range(n) if j not in pivots):
            v = [0] * n
            v[j] = 1
            for i, p in enumerate(pivots):
                v[p] = f.neg(reduced[i][j])
            expected.append(v)
        assert la.row_nullspace(rows_of(a), f) == rows_of(expected), (seed, a)
        for x in expected:
            assert not any(mat_vec(x, a, f, cols))
        equations = [{i: row[j] for i, row in enumerate(a) if row[j]} for j in range(cols)]
        assert la.sparse_nullspace(equations, n, f) == rows_of(expected)


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
            got = la.solve_row(sparse(v), rows_of(a), f)
            columns = [list(col) for col in zip(*a)] if n else [[]] * cols
            aug = [list(col) + [v[j]] for j, col in enumerate(columns)]
            reduced, pivots = ref_rref(aug, f)
            if n in pivots:
                assert got is None, (seed, a, v)
                continue
            expected = [0] * n
            for i, p in enumerate(pivots):
                expected[p] = reduced[i][n]
            assert got == sparse(expected), (seed, a, v)
            assert mat_vec(expected, a, f, cols) == list(v)


@pytest.mark.parametrize("f", FIELDS, ids=repr)
def test_square_inverse_det(f):
    for seed, a, rng in cases(f):
        n = rng.randint(0, 4)
        m = random_matrix(rng, f, n, n)
        d = ref_det(m, f)
        assert la.det(rows_of(m), f) == d, (seed, m)
        assert la.is_invertible(rows_of(m), f) == (d != 0)
        inv = la.inverse(rows_of(m), f)
        if d == 0:
            assert inv is None
        else:
            assert la.mat_mul(rows_of(m), inv, f) == la.identity(n)
        # taller than wide, or with a nonzero column at or past the row count
        if a and (len(a) > len(a[0]) or any(any(row[len(a):]) for row in a)):
            assert not la.is_invertible(rows_of(a), f)
            assert la.inverse(rows_of(a), f) is None


@pytest.mark.parametrize("f", FIELDS, ids=repr)
def test_recipe_coordinates(f):
    for seed, a, rng in cases(f):
        cols = len(a[0]) if a else 0
        basis = ref_rref(a, f)[0] if rng.random() < 0.5 else a
        independent = len(ref_rref(basis, f)[0]) == len(basis)
        v = random_matrix(rng, f, 1, cols)[0]
        if not independent:
            with pytest.raises(ValueError):
                la.express_in_basis(sparse(v), rows_of(basis), f)
            continue
        coords = la.express_in_basis(sparse(v), rows_of(basis), f)
        if not in_row_span(v, basis, f):
            assert coords is None, (seed, basis, v)
            continue
        assert mat_vec(dense(coords, len(basis)), basis, f, cols) == v, (seed, basis, v)
        x = [f.of(rng.randrange(3)) for _ in basis]
        combination = sparse(mat_vec(x, basis, f, cols))
        assert la.express_in_basis(combination, rows_of(basis), f) == sparse(x)


def ref_mat_mul(a, b, f, cols):
    out = []
    for row in a:
        acc = [0] * cols
        for t, c in enumerate(row):
            acc = [f.add(x, f.mul(c, y)) for x, y in zip(acc, b[t])]
        out.append(acc)
    return out


@pytest.mark.parametrize("f", FIELDS, ids=repr)
def test_matrix_helpers_match_dense_reference(f):
    for seed, a, rng in cases(f):
        rows, cols = len(a), len(a[0]) if a else 0
        b = random_matrix(rng, f, cols, rng.randint(0, 4))
        width = len(b[0]) if b else rng.randint(0, 4)
        product = la.mat_mul(rows_of(a), rows_of(b), f)
        assert product == rows_of(ref_mat_mul(a, b, f, width)), (seed, a, b)
        assert la.transpose(rows_of(a), cols) == rows_of(list(zip(*a)) or [[]] * cols)
        c = f.of(rng.randrange(-2, 3))
        other = random_matrix(rng, f, rows, cols)
        assert la.mat_scale(rows_of(a), c, f) == rows_of(
            [[f.mul(c, x) for x in row] for row in a])
        assert la.mat_add(rows_of(a), rows_of(other), f) == rows_of(
            [[f.add(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, other)])
        assert all(value for row in product for value in row.values())


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
    assert la.rref([{0: 2, 1: 4}], q) == ([{0: 1, 1: 2}], [0])
    # scaling a row by the inverse of its pivot keeps integral entries int
    rows = la.Echelon(q, [{0: 2, 1: 4}]).rows
    assert rows == {0: {0: 1, 1: 2}}
    assert all(type(x) is int for x in rows[0].values())
    kernel = la.sparse_nullspace([{0: 2, 1: 4}], 2, q)
    assert kernel == [{1: 1, 0: -2}]
    assert all(type(x) is int for x in kernel[0].values())
    assert la.Echelon(q, [{0: 2, 1: 3}]).rows == {0: {0: 1, 1: Fraction(3, 2)}}
    # back-elimination and the kernel's negation keep integral entries int too
    rows = [{0: 2, 1: 1, 2: 3}, {1: 2, 2: 2}]
    stored = la.Echelon(q, rows).rows
    assert stored == {0: {0: 1, 2: 1}, 1: {1: 1, 2: 1}}
    kernel = la.sparse_nullspace(rows, 3, q)
    assert kernel == [{2: 1, 0: -1, 1: -1}]
    assert all(type(x) is int for row in [*stored.values(), *kernel] for x in row.values())
    assert type(q.add(Fraction(1, 2), Fraction(1, 2))) is int
    assert type(q.sub(Fraction(3, 2), Fraction(1, 2))) is int
    assert type(q.mul(Fraction(2, 3), 3)) is int


def random_row(rng, f, n):
    return sparse(random_matrix(rng, f, 1, n)[0])


@pytest.mark.parametrize("f", FIELDS, ids=repr)
def test_sparse_row_kernel_matches_dense_reference(f):
    n = 6
    for seed in SEEDS:
        rng = random.Random(seed * 11 + f.char)
        u, v = random_row(rng, f, n), random_row(rng, f, n)
        du, dv = dense(u, n), dense(v, n)
        c = f.of(rng.randrange(-3, 4))
        row = dict(u)
        assert la.sub_multiple(row, c, v, f) is row
        assert dense(row, n) == [f.sub(x, f.mul(c, y)) for x, y in zip(du, dv)]
        assert all(row.values())
        dense_dot = 0
        for x, y in zip(du, dv):
            dense_dot = f.add(dense_dot, f.mul(x, y))
        assert la.dot(u, v, f) == dense_dot == la.dot(v, u, f)
        # u is a multiple of v exactly when the dense rank test says so
        dependent = not any(du) or (any(dv) and len(ref_rref([dv, du], f)[0]) == 1)
        k = la.multiple_of(u, v, f)
        assert (k is not None) == dependent, (seed, u, v)
        if k is not None:
            assert [f.mul(k, y) for y in dv] == du
        scaled = {j: f.mul(c, y) for j, y in v.items() if f.mul(c, y)}
        assert la.multiple_of(scaled, v, f) == (c if v else 0)


@pytest.mark.parametrize("f", FIELDS, ids=repr)
def test_sparse_row_kernel_edge_cases(f):
    # a cancellation drops the entry
    row = {0: 1, 2: 1}
    assert la.sub_multiple(row, 1, {0: 1, 1: 1}, f) is row
    assert row == {1: f.neg(1), 2: 1}
    # c = 0 leaves the row as it was, also where other has columns row lacks
    row = {1: 1}
    assert la.sub_multiple(row, 0, {0: 1, 1: 1}, f) is row and row == {1: 1}
    assert la.dot({0: 1}, {1: 1}, f) == 0 and la.dot({}, {}, f) == 0
    two = f.of(2) or 1
    v = {0: 1, 3: two}
    assert la.multiple_of({0: two, 3: f.mul(two, two)}, v, f) == two
    # support mismatch, either way
    assert la.multiple_of({0: 1}, v, f) is None
    assert la.multiple_of({0: 1, 1: 1, 3: two}, v, f) is None
    # inconsistent ratio on the same support (over F2 every ratio is 1)
    if f.char != 2:
        assert la.multiple_of({0: 1, 3: f.neg(two)}, v, f) is None
    # a zero v: only the zero row is its multiple
    assert la.multiple_of({0: 1}, {}, f) is None
    assert la.multiple_of({}, {}, f) == 0 and la.multiple_of({}, v, f) == 0
