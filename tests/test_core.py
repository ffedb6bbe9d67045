import pytest

from biserial.core import (AlgebraElement, AlgebraPresentation,
                           InconsistentRelations, NonAdmissible, Quiver,
                           ZeroRelation, build_table,
                           check_selfinjective_symmetric, multiply,
                           opposite_presentation)
from biserial.fields import Field
from biserial.instances import (alg_a3z, alg_l2, alg_l2d, alg_n2,
                                loop_algebra)
from biserial.presentations import parse_presentation
from biserial.sweep import run_sweep


def basis_strings(table):
    return [str(p) for p in table.basis]


def test_alg_n2_table():
    t = build_table(alg_n2())
    assert t.dim == 6
    assert set(basis_strings(t)) == {"e_1", "e_2", "a", "b", "a b", "b a"}
    assert t.loewy_length == 3


def test_alg_l2_table():
    t = build_table(alg_l2())
    assert t.dim == 4
    # ba is rewritten onto ab
    assert set(basis_strings(t)) == {"e_1", "a", "b", "a b"}
    assert not t.nf_vector(("b", "b"))
    assert t.nf_vector(("b", "a")) == t.nf_vector(("a", "b"))


def test_one_loop_algebra():
    t = build_table(loop_algebra())
    assert t.dim == 2
    assert t.socle_dims() == {"1": 1}


def test_multiply_examples():
    t = build_table(alg_n2())
    q = t.quiver
    f = t.field
    a = AlgebraElement(f, {q.path(("a",)): f.one})
    b = AlgebraElement(f, {q.path(("b",)): f.one})
    ab = multiply(t, a, b)
    assert list(ab.terms) == [q.path(("a", "b"))]
    ba = AlgebraElement(f, {q.path(("b", "a")): f.one})
    assert multiply(t, a, ba).is_zero()  # aba = 0


def test_multiply_deformed():
    t = build_table(alg_l2d())
    q = t.quiver
    f = t.field
    a = AlgebraElement(f, {q.path(("a",)): f.one})
    sq = multiply(t, a, a)
    assert list(sq.terms) == [q.path(("a", "b"))]


def socle_paths(table, v):
    """The basis paths in the support of the socle rows of e_v A."""
    fiber = table.by_source[v]
    return [str(table.basis[fiber[j]]) for row in table.socle()[v]
            for j, c in enumerate(row) if c]


def test_socle():
    t = build_table(alg_n2())
    assert t.socle_dims() == {"1": 1, "2": 1}
    assert socle_paths(t, "1") == ["a b"]
    assert socle_paths(t, "2") == ["b a"]
    assert socle_paths(build_table(alg_l2()), "1") == ["a b"]


def test_selfinjective_symmetric_verdicts():
    assert check_selfinjective_symmetric(build_table(alg_n2())).verdict == "symmetric"
    assert check_selfinjective_symmetric(build_table(alg_l2d())).verdict == "symmetric"
    assert check_selfinjective_symmetric(build_table(alg_a3z())).verdict == "not-selfinjective"
    # non-selfinjective by dimension mismatch: A3 with rad^2 = 0
    pres = parse_presentation("""
field Q
vertex 1 2 3
arrow a : 1 -> 2
arrow b : 2 -> 3
rel a b = 0
""")
    assert check_selfinjective_symmetric(build_table(pres)).verdict == "not-selfinjective"


def test_symmetric_form_properties():
    t = build_table(alg_n2())
    rep = check_selfinjective_symmetric(t)
    phi = rep.form
    f = t.field
    # phi(xy) = phi(yx) on all basis pairs
    for i in range(t.dim):
        for j in range(t.dim):
            xy = sum((f.mul(c, phi.get(k, f.zero)) for k, c in t.mult_basis(i, j).items()),
                     f.zero)
            yx = sum((f.mul(c, phi.get(k, f.zero)) for k, c in t.mult_basis(j, i).items()),
                     f.zero)
            assert xy == yx


def test_associativity_and_identity():
    for pres in (alg_n2(), alg_l2(), alg_l2d(), alg_a3z()):
        t = build_table(pres)
        assert t.verify_associativity()
        one = t.identity_vec()
        for i in range(t.dim):
            assert t.mult_vec(one, {i: t.field.one}) == {i: t.field.one}
            assert t.mult_vec({i: t.field.one}, one) == {i: t.field.one}


def test_opposite_dimension():
    for pres in (alg_n2(), alg_l2d(), alg_a3z()):
        t = build_table(pres)
        op = build_table(opposite_presentation(pres))
        assert op.dim == t.dim


def test_opposite_a3():
    pres = alg_a3z()
    op = opposite_presentation(pres)
    assert op.quiver.source("a") == "2" and op.quiver.target("a") == "1"
    rel = op.relations[0]
    assert rel.path.arrows == ("b", "a")


def test_opposite_deformed_loop():
    op = opposite_presentation(alg_l2d())
    t = build_table(op)
    assert t.dim == 4
    # a^2 = (ab)^rev = ba, identified with ab in the opposite table
    assert t.nf_vector(("a", "a")) == t.nf_vector(("b", "a"))


def test_nonadmissible_unit_relation():
    q = Quiver(["1"], [("a", "1", "1")])
    pres = AlgebraPresentation(Field(0), q, [ZeroRelation(q.path(("a",)))])
    with pytest.raises(NonAdmissible):
        build_table(pres)


def test_infinite_dimensional_rejected():
    pres = parse_presentation("""
field Q
vertex 1
arrow a : 1 -> 1
""")
    with pytest.raises(NonAdmissible):
        build_table(pres)


def test_conflicting_relations_rejected():
    pres = parse_presentation("""
field Q
vertex 1
arrow a : 1 -> 1
arrow b : 1 -> 1
rel a a = 0
rel b b = 0
rel a b = b a
rel a b = 2 b a
""")
    with pytest.raises(InconsistentRelations):
        build_table(pres)


def test_fp_table():
    t = build_table(alg_l2d(Field(2)))
    assert t.dim == 4
    assert check_selfinjective_symmetric(t).verdict == "symmetric"


def test_every_long_path_dies():
    t = build_table(alg_n2())
    for i in range(t.dim):
        for j in range(t.dim):
            for k, c in t.mult_basis(i, j).items():
                assert t.basis[k].length < t.loewy_length


# The true quotient is 4-dimensional (x^3 = x y^2 = 0, so y x = 0), but
# directed rewriting without critical-pair completion keeps 6 classes and a
# non-associative product.  Only the sweep notices; see README, Limits.
NON_CONFLUENT_TEXT = """
field Q
vertex 1
arrow x : 1 -> 1
arrow y : 1 -> 1
rel x y = 0
rel x x = y y
rel y x = x x x
"""


def test_non_confluent_presentation_fails_the_sweep_associativity_check():
    pres = parse_presentation(NON_CONFLUENT_TEXT)
    table = build_table(pres)
    assert table.dim == 6
    assert not table.verify_associativity()
    results = {r["check"]: r["pass"] for r in run_sweep(pres, 3)["results"]}
    assert results["table-built"] and not results["associativity"]
