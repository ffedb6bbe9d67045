"""Exact linear algebra over an exact field, on one elimination engine.

A vector is a sparse row ``{column: coeff}`` that stores no zero, and a
matrix is a list of such rows.  A matrix does not store its number of
columns: the caller knows it (a module's vertex dimensions carry every
shape).  Row vectors act on the left: a module element x at the source
vertex maps to x @ mat at the target vertex, so kernels of module maps
are row nullspaces.

All row elimination happens in ``Echelon``, which keeps its rows in
reduced row echelon form with leftmost pivots.  That form is unique, so
every basis read off it (nullspaces, submodule bases, quotient
coordinates, free-variables-zero solutions) is canonical.  Its row update
``sub_multiple``, with ``dot`` and ``multiple_of``, is the one sparse-row
kernel: every sum, product, difference, pairing and proportionality test
of vectors and matrices in the package goes through them.
``sub_multiple`` changes its first row in place, so a row that a module,
a map or a table stores is only ever passed as its other row.  Scalars
are tested by truth value: the zero of every field is the only falsy
scalar.
"""

from __future__ import annotations

from .fields import Field


def identity(n: int):
    return [{i: 1} for i in range(n)]


def row_vec_mul(v: dict, a, field: Field) -> dict:
    """v @ a for a sparse row v."""
    out = {}
    for t, c in v.items():
        sub_multiple(out, field.neg(c), a[t], field)
    return out


def mat_mul(a, b, field: Field):
    """a @ b."""
    return [row_vec_mul(row, b, field) for row in a]


def mat_add(a, b, field: Field):
    minus_one = field.neg(1)
    return [sub_multiple(dict(x), minus_one, y, field) for x, y in zip(a, b)]


def mat_scale(a, c, field: Field):
    return [sub_multiple({}, field.neg(c), row, field) for row in a]


def transpose(a, n: int):
    """The n x len(a) transpose of a matrix with n columns."""
    out = [{} for _ in range(n)]
    for i, row in enumerate(a):
        for j, x in row.items():
            out[j][i] = x
    return out


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

    Each stored row has coefficient 1 at its pivot, which is its leftmost
    nonzero column, and 0 at every other pivot.  Columns at or past
    ``width`` ride along as a right-hand side or a recipe and never pivot.
    ``rows`` seeds the space; rows given to it are copied, never changed.
    """

    def __init__(self, field: Field, rows=(), width: int | None = None):
        self.field = field
        self.width = width
        self.rows = {}          # pivot column -> stored row
        for row in rows:
            self.add(row)

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
    ech = Echelon(field, equations)
    basis = {j: {j: 1} for j in range(n) if j not in ech.rows}
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
        recipe = dict(row)
        recipe[width + i] = 1
        if ech.lead(ech.add(recipe)) is None:
            independent = False
    return ech, independent


def _coordinates(v, ech: Echelon):
    """Coefficients over the recipe rows summing to v, or None."""
    res = ech.reduce(v)
    if ech.lead(res) is not None:
        return None
    return {j - ech.width: ech.field.neg(c) for j, c in res.items()}


def _width(rows) -> int:
    """One past the last column any of the rows uses."""
    return max((j + 1 for row in rows for j in row), default=0)


def rref(a, field: Field):
    """Reduced row echelon form. Returns (rows, pivot column indices)."""
    ech = Echelon(field, a)
    pivots = ech.pivots
    return [ech.rows[p] for p in pivots], pivots


def rank(a, field: Field) -> int:
    return Echelon(field, a).rank


def span_rank(vectors, field: Field) -> int:
    return rank(vectors, field)


def row_nullspace(a, field: Field):
    """Basis of {x : x @ a == 0} as sparse rows over len(a) variables."""
    return _kernel(transpose(a, _width(a)), len(a), field)


def sparse_nullspace(equations, n_vars: int, field: Field):
    """Nullspace basis of {var index: coeff} equations, in free-variable order."""
    return _kernel(equations, n_vars, field)


def solve_row(v, a, field: Field):
    """Solve x @ a == v for a row vector x, or return None.

    Rows of a that depend on earlier rows get coefficient 0.
    """
    return _coordinates(v, _recipes(a, _width([v, *a]), field)[0])


def express_in_basis(v, basis_rows, field: Field):
    """Coefficients c with sum(c_i * basis_rows[i]) == v, or None.

    Dependent rows raise ValueError: their coefficients are not unique.
    """
    ech, independent = _recipes(basis_rows, _width([v, *basis_rows]), field)
    if not independent:
        raise ValueError("basis rows are dependent")
    return _coordinates(v, ech)


def inverse(a, field: Field):
    """Inverse of a square matrix, or None if singular."""
    n = len(a)
    if _width(a) > n:
        return None
    ech, independent = _recipes(a, n, field)
    if not independent:
        return None
    return [{j - n: c for j, c in ech.rows[p].items() if j >= n} for p in range(n)]


def det(a, field: Field):
    """Determinant: the signed product of the residues' lead coefficients."""
    ech = Echelon(field)
    result = 1
    pivots = []
    for row in a:
        res = ech.add(row)
        if not res:
            return 0
        p = min(res)
        pivots.append(p)
        result = field.mul(result, res[p])
    inversions = sum(q < p for i, p in enumerate(pivots) for q in pivots[i + 1:])
    return field.neg(result) if inversions % 2 else result


def is_invertible(a, field: Field) -> bool:
    """Whether a, read as a square matrix, is invertible.

    A column at or past len(a) makes it wider than square.
    """
    if _width(a) > len(a):
        return False
    ech = Echelon(field)
    return all(ech.add(row) for row in a)
