"""The exact symmetry criterion against a brute-force reference.

The reference enumerates every symmetric functional (every phi with
phi(xy) = phi(yx)) over F2 and F3 and asks whether one of them has a
nonsingular Gram matrix phi(b_i b_j).  A table that has none is
selfinjective when some functional at all has a nonsingular Gram matrix:
frobenius_form's functional is such a witness, and without one every
functional is enumerated.
"""

import itertools

import pytest

from biserial import linalg as la
from biserial.core import (AlgebraPresentation, Quiver, ZeroRelation,
                           build_table, check_selfinjective_symmetric,
                           frobenius_form)
from biserial.fields import Field
from biserial.instances import alg_a3z, alg_l2, alg_l2d, alg_n2
from biserial.presentations import parse_presentation
from table_reference import nakayama

FIELDS = (Field(2), Field(3))

# not selfinjective in any characteristic: (a0 - a1) a0 = (a0 - a1) a1 = 0,
# so the socle of e_1 A is two-dimensional
DEGENERATE_TEXT = """
vertex 1
arrow a0 : 1 -> 1
arrow a1 : 1 -> 1
rel a0 a0 = a0 a1
rel a1 a1 = a1 a0
rel a0 a1 = a1 a0
rel a0 a1 a0 = 0
rel a1 a0 a1 = 0
"""


def disjoint_union(*parts: AlgebraPresentation) -> AlgebraPresentation:
    """The product algebra, with vertex and arrow names tagged by part."""
    vertices, arrows = [], []
    for i, pres in enumerate(parts):
        vertices += [f"{v}_{i}" for v in pres.quiver.vertices]
        arrows += [(f"{a.name}_{i}", f"{a.source}_{i}", f"{a.target}_{i}")
                   for a in pres.quiver.arrows]
    q = Quiver(vertices, arrows)
    rels = []
    for i, pres in enumerate(parts):
        def move(path):
            return q.path([f"{a}_{i}" for a in path.arrows])
        for rel in pres.relations:
            if isinstance(rel, ZeroRelation):
                rels.append(ZeroRelation(move(rel.path)))
            else:
                rels.append(type(rel)(move(rel.left), rel.coeff, move(rel.right)))
    return AlgebraPresentation(parts[0].field, q, rels)


def gram_nonsingular(table, phi) -> bool:
    """Is the Gram matrix phi(b_i b_j) of a dense functional nonsingular?"""
    f = table.field
    gram = []
    for i in range(table.dim):
        row = {}
        for j in range(table.dim):
            value = 0
            for k, c in table.mult_basis(i, j).items():
                value = f.add(value, f.mul(c, phi[k]))
            if value:
                row[j] = value
        gram.append(row)
    return la.is_invertible(gram, f)


def functionals(table, basis):
    """Every linear combination of the sparse basis functionals, dense."""
    f = table.field
    for coeffs in itertools.product(range(f.char), repeat=len(basis)):
        phi = [0] * table.dim
        for c, row in zip(coeffs, basis):
            for k, y in row.items():
                phi[k] = f.add(phi[k], f.mul(c, y))
        yield phi


def reference_verdict(table) -> str:
    f, n = table.field, table.dim
    # column (i, j) holds the commutator b_i b_j - b_j b_i
    commutators = [[0] * (n * n) for _ in range(n)]
    for i, j in itertools.product(range(n), repeat=2):
        for k, c in table.mult_basis(i, j).items():
            commutators[k][i * n + j] = f.add(commutators[k][i * n + j], c)
        for k, c in table.mult_basis(j, i).items():
            commutators[k][i * n + j] = f.sub(commutators[k][i * n + j], c)
    symmetric = la.row_nullspace([{j: x for j, x in enumerate(row) if x}
                                  for row in commutators], f)
    if any(gram_nonsingular(table, phi) for phi in functionals(table, symmetric)):
        return "symmetric"
    witness = frobenius_form(table)
    if witness is not None and gram_nonsingular(
            table, [witness.get(k, 0) for k in range(n)]):
        return "selfinjective"
    assert f.char ** n <= 3 ** 6, "too many functionals to enumerate"
    every = [{k: 1} for k in range(n)]
    if any(gram_nonsingular(table, phi) for phi in functionals(table, every)):
        return "selfinjective"
    return "not-selfinjective"


def reference_cases(field: Field):
    spec = f"field F{field.char}\n"
    for n in range(1, 5):
        for length in range(2, 6):
            yield f"nakayama-{n}-{length}", nakayama(n, length, field)
    yield "n2", alg_n2(field)
    yield "l2", alg_l2(field)
    yield "l2d", alg_l2d(field)
    yield "a3z", alg_a3z(field)
    yield "n2+l2d", disjoint_union(alg_n2(field), alg_l2d(field))
    yield "l2d+nakayama-2-3", disjoint_union(alg_l2d(field), nakayama(2, 3, field))
    yield "nakayama-3-4+nakayama-3-3", disjoint_union(nakayama(3, 4, field),
                                                      nakayama(3, 3, field))
    yield "degenerate", parse_presentation(spec + DEGENERATE_TEXT)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_verdicts_match_the_brute_force_reference(field):
    cases = selfinjective = 0
    for label, pres in reference_cases(field):
        cases += 1
        table = build_table(pres)
        report = check_selfinjective_symmetric(table)
        assert report.verdict == reference_verdict(table), label
        if report.verdict != "not-selfinjective":
            selfinjective += 1
            phi = frobenius_form(table)
            assert gram_nonsingular(table, [phi.get(k, 0) for k in range(table.dim)]), label
    assert (cases, selfinjective) == (24, 22)


def test_nakayama_symmetric_iff_length_is_one_mod_n():
    for n in range(1, 5):
        for length in range(2, 6):
            verdict = check_selfinjective_symmetric(
                build_table(nakayama(n, length, Field(0)))).verdict
            expected = "symmetric" if length % n == 1 % n else "selfinjective"
            assert verdict == expected, (n, length)


def test_symmetric_form_takes_one_on_socle_paths():
    for pres in (alg_n2(), alg_l2d(), disjoint_union(alg_n2(), alg_l2())):
        table = build_table(pres)
        form = check_selfinjective_symmetric(table).form
        for v, (row,) in table.socle().items():
            fiber = table.by_source[v]
            assert sum(form.get(fiber[t], 0) * c for t, c in row.items()) == 1
