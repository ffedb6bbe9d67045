"""Exact linear algebra over an exact field, on one elimination engine.

Matrices are lists of row lists.  Row vectors act on the left: a module
element x at the source vertex maps to x @ mat at the target vertex, so
kernels of module maps are row nullspaces.

All row elimination happens in ``Echelon``, which keeps sparse rows
``{column: coeff}`` in reduced row echelon form with leftmost pivots.
That form is unique, so every basis read off it (nullspaces, submodule
bases, quotient coordinates, free-variables-zero solutions) is
canonical.  Its row update ``sub_multiple``, with ``dot`` and
``multiple_of``, is the one sparse-row kernel: every other sparse-vector
sum, difference, pairing and proportionality test of the package goes
through them.  Scalars are tested by truth value: the zero of every field
is the only falsy scalar.
"""

from __future__ import annotations

from .fields import Field


def zeros(rows: int, cols: int, field: Field):
    return [[0] * cols for _ in range(rows)]


def identity(n: int, field: Field):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def mat_mul(a, b, field: Field, cols: int | None = None):
    """a @ b; pass cols when b may have zero rows (shape (0, cols))."""
    if not a:
        return []
    n, k = len(a), len(a[0])
    if cols is None:
        cols = len(b[0]) if b else 0
    if k == 0 or not b:
        return zeros(n, cols, field)
    out = zeros(n, cols, field)
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            c = ai[t]
            if not c:
                continue
            bt = b[t]
            for j in range(cols):
                if bt[j]:
                    oi[j] = field.add(oi[j], field.mul(c, bt[j]))
    return out


def mat_add(a, b, field: Field):
    return [[field.add(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a, c, field: Field):
    return [[field.mul(c, x) for x in row] for row in a]


def transpose(a):
    if not a:
        return []
    return [list(col) for col in zip(*a)]


def row_vec_mul(v, a, field: Field, cols: int | None = None):
    """v @ a; pass cols when a may have zero rows (shape (0, cols))."""
    if cols is None:
        cols = len(a[0]) if a else 0
    out = [0] * cols
    for t, c in enumerate(v):
        if not c:
            continue
        at = a[t]
        for j in range(cols):
            if at[j]:
                out[j] = field.add(out[j], field.mul(c, at[j]))
    return out


def sparse(row) -> dict:
    """The {column: coeff} form of a dense row."""
    return {j: x for j, x in enumerate(row) if x}


def dense(row: dict, n: int) -> list:
    """The dense form of a {column: coeff} row of length n."""
    return [row.get(j, 0) for j in range(n)]


def sub_multiple(row: dict, c, other: dict, field: Field) -> dict:
    """row -= c * other in place, dropping entries that cancel; returns row.

    Sums go through it with a negated c.  other holds no zero entry.
    """
    if not c:
        return row
    sub, mul = field.sub, field.mul
    for j, x in other.items():
        y = sub(row.get(j, 0), mul(c, x))
        if y:
            row[j] = y
        else:
            del row[j]      # c * x is nonzero, so row had column j
    return row


def dot(u: dict, v: dict, field: Field):
    """The sum of u[j] * v[j] over the columns of two sparse rows."""
    if len(v) < len(u):
        u, v = v, u
    total = 0
    for j, x in u.items():
        if j in v:
            total = field.add(total, field.mul(x, v[j]))
    return total


def multiple_of(u: dict, v: dict, field: Field):
    """The scalar c with u == c * v for two sparse rows, or None.

    A zero u is 0 * v; a nonzero u is no multiple of a zero v.
    """
    if not u:
        return 0
    if u.keys() != v.keys():
        return None
    j = next(iter(u))
    c = field.div(u[j], v[j])
    return c if all(x == field.mul(c, v[k]) for k, x in u.items()) else None


class Echelon:
    """A row space kept in reduced row echelon form.

    Rows are sparse {column: coeff} dicts.  Each stored row has
    coefficient 1 at its pivot, which is its leftmost nonzero column, and 0
    at every other pivot.  Columns at or past ``width`` ride along as a
    right-hand side or a recipe and never pivot.  ``rows`` seeds the space
    with dense rows.
    """

    def __init__(self, field: Field, rows=(), width: int | None = None):
        self.field = field
        self.width = width
        self.rows = {}          # pivot column -> stored row
        for row in rows:
            self.add(sparse(row))

    @property
    def rank(self) -> int:
        return len(self.rows)

    @property
    def pivots(self) -> list:
        return sorted(self.rows)

    def lead(self, row: dict):
        """The column at which row would pivot, or None."""
        if self.width is None:
            return min(row, default=None)
        return min((j for j in row if j < self.width), default=None)

    def reduce(self, row: dict) -> dict:
        """The residue of row modulo the space, as a new dict."""
        res = {j: x for j, x in row.items() if x}
        rows, field = self.rows, self.field
        # stored rows vanish at every other pivot, so one pass clears them all
        for p in [j for j in res if j in rows]:
            sub_multiple(res, res[p], rows[p], field)
        return res

    def add(self, row: dict) -> dict:
        """Insert row; return its residue modulo the space before insertion.

        The rank grows exactly when the residue has a lead column.
        """
        res = self.reduce(row)
        p = self.lead(res)
        if p is not None:
            f = self.field
            inv = f.inv(res[p])
            new = {j: f.mul(inv, x) for j, x in res.items()}
            for other in self.rows.values():
                c = other.get(p)
                if c:
                    sub_multiple(other, c, new, f)
            self.rows[p] = new
        return res


def _kernel(equations, n: int, field: Field):
    """Nullspace of {var: coeff} equations: one vector per free variable."""
    ech = Echelon(field)
    for eq in equations:
        ech.add(eq)
    basis = {j: [0] * n for j in range(n) if j not in ech.rows}
    for j, vec in basis.items():
        vec[j] = 1
    # a stored row is nonzero only at its pivot and at free variables
    for p, row in ech.rows.items():
        for j, c in row.items():
            if j != p:
                basis[j][p] = field.neg(c)
    return list(basis.values())


def _recipes(rows, width: int, field: Field):
    """Echelon of the rows, row i carrying a unit recipe column at width + i.

    Also returns whether the rows are independent.
    """
    ech = Echelon(field, width=width)
    independent = True
    for i, row in enumerate(rows):
        recipe = sparse(row)
        recipe[width + i] = 1
        if ech.lead(ech.add(recipe)) is None:
            independent = False
    return ech, independent


def _coordinates(v, ech: Echelon, k: int):
    """Coefficients over the k recipe rows summing to v, or None."""
    res = ech.reduce(sparse(v))
    if ech.lead(res) is not None:
        return None
    return [ech.field.neg(res.get(ech.width + i, 0)) for i in range(k)]


def rref(a, field: Field):
    """Reduced row echelon form. Returns (rows, pivot column indices)."""
    n_cols = len(a[0]) if a else 0
    ech = Echelon(field, a)
    pivots = ech.pivots
    return [dense(ech.rows[p], n_cols) for p in pivots], pivots


def rank(a, field: Field) -> int:
    return Echelon(field, a).rank


def span_rank(vectors, field: Field) -> int:
    return rank(vectors, field)


def row_nullspace(a, field: Field):
    """Basis of {x : x @ a == 0} as row vectors of length len(a)."""
    cols = len(a[0]) if a else 0
    return _kernel(({i: row[j] for i, row in enumerate(a)} for j in range(cols)),
                   len(a), field)


def sparse_nullspace(equations, n_vars: int, field: Field):
    """Nullspace basis of {var index: coeff} equations, in free-variable order."""
    return _kernel(equations, n_vars, field)


def solve_row(v, a, field: Field):
    """Solve x @ a == v for a row vector x, or return None.

    Rows of a that depend on earlier rows get coefficient 0.
    """
    return _coordinates(v, _recipes(a, len(v), field)[0], len(a))


def express_in_basis(v, basis_rows, field: Field):
    """Coefficients c with sum(c_i * basis_rows[i]) == v, or None.

    Dependent rows raise ValueError: their coefficients are not unique.
    """
    ech, independent = _recipes(basis_rows, len(v), field)
    if not independent:
        raise ValueError("basis rows are dependent")
    return _coordinates(v, ech, len(basis_rows))


def inverse(a, field: Field):
    """Inverse of a square matrix, or None if singular."""
    n = len(a)
    if any(len(row) != n for row in a):
        return None
    ech, independent = _recipes(a, n, field)
    if not independent:
        return None
    return [[ech.rows[p].get(n + j, 0) for j in range(n)] for p in range(n)]


def det(a, field: Field):
    """Determinant: the signed product of the residues' lead coefficients."""
    ech = Echelon(field)
    result = 1
    pivots = []
    for row in a:
        res = ech.add(sparse(row))
        if not res:
            return 0
        p = min(res)
        pivots.append(p)
        result = field.mul(result, res[p])
    inversions = sum(q < p for i, p in enumerate(pivots) for q in pivots[i + 1:])
    return field.neg(result) if inversions % 2 else result


def is_invertible(a, field: Field) -> bool:
    n = len(a)
    if any(len(row) != n for row in a):
        return False
    ech = Echelon(field)
    return all(ech.add(sparse(row)) for row in a)
