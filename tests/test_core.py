import itertools

import pytest

from biserial.core import (AlgebraPresentation, Arrow, DomainError,
                           EqualityRelation, InconsistentRelations, NonAdmissible,
                           Path, Quiver, SocleDeformation, SymmetryReport,
                           ZeroRelation, build_table,
                           check_selfinjective_symmetric, opposite_presentation)
from biserial.checks import (_continuations, _stably_biserial_conditions,
                             check_special_biserial)
from biserial.fields import Field
from biserial.instances import (alg_a3z, alg_l2, alg_l2d, alg_n2,
                                loop_algebra, random_node_presentation,
                                random_standard_data)
from biserial.normalizer import build_from_standard_data
from biserial.presentations import parse_presentation
from biserial.reps import RepMap
from biserial.strings import EMPTY, Letter, SideOp
from biserial.sweep import run_sweep
from biserial.translate import Surgery
from table_reference import (ASSOCIATIVE_BUT_WRONG_TEXT, NON_CONFLUENT_TEXT,
                             TAIL_DROP_TEXT, ZERO_BEFORE_SUBSTITUTION_TEXT,
                             dense_socle, random_presentation_text,
                             reference_arms, reference_basis,
                             reference_continuations, reference_normal_form,
                             reference_special_biserial_witnesses,
                             reference_stably_biserial_witnesses,
                             verify_associativity)


def basis_strings(table):
    return [str(p) for p in table.basis]


def test_records_compare_hash_and_print_like_dataclasses():
    """Records are equal by class and fields, frozen ones hash by value, the
    others are unhashable, and each prints as Name(field=value, ...)."""
    a = Arrow("a", "1", "2")
    assert repr(a) == "Arrow(name='a', source='1', target='2')"
    assert a == Arrow("a", "1", "2") and hash(a) == hash(Arrow("a", "1", "2"))
    assert a != Arrow("a", "1", "3") and a != ("a", "1", "2")
    p = Path(("a",), "1", "2")
    assert repr(ZeroRelation(p)) == ("ZeroRelation(path=Path(arrows=('a',), "
                                     "source='1', target='2'))")
    assert len({p, Path(("a",), "1", "2"), ZeroRelation(p), ZeroRelation(p)}) == 2
    left, right = Path(("a", "b"), "1", "1"), Path(("c", "d"), "1", "1")
    assert EqualityRelation(left, 2, right) == EqualityRelation(left, 2, right)
    assert EqualityRelation(left, 2, right) != SocleDeformation(left, 2, right)
    assert EqualityRelation(left, 2, right) != EqualityRelation(left, 3, right)
    op = SideOp(EMPTY, "hook-delete", (Letter("a"),))
    assert repr(op) == ("SideOp(word=<empty>, kind='hook-delete', "
                        "segment=(Letter(arrow='a', inverse=False),))")
    assert hash(op) == hash(SideOp(EMPTY, "hook-delete", (Letter("a"),)))
    assert repr(Surgery(EMPTY, "hook", "cohook")) == (
        "Surgery(word=<empty>, right_kind='hook', left_kind='cohook', shift=0)")
    report = SymmetryReport("symmetric", {0: 1})
    assert repr(report) == "SymmetryReport(verdict='symmetric', form={0: 1})"
    assert report == SymmetryReport("symmetric", {0: 1})
    for record in (report, Surgery(EMPTY, "hook", "cohook"), RepMap(None, None, {}),
                   AlgebraPresentation(Field(3), Quiver(["1"], []), [])):
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    with pytest.raises(TypeError, match="ZeroRelation takes the fields path; got 2 values"):
        ZeroRelation(p, p)


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
    a = t.nf_vector(("a",))
    ab = t.mult_vec(a, t.nf_vector(("b",)))
    assert [(str(t.basis[i]), c) for i, c in ab.items()] == [("a b", t.field.one)]
    assert ab == t.nf_vector(("a", "b"))
    assert t.mult_vec(a, t.nf_vector(("b", "a"))) == {}  # aba = 0


def test_multiply_deformed():
    t = build_table(alg_l2d())
    a = t.nf_vector(("a",))
    sq = t.mult_vec(a, a)
    assert [str(t.basis[i]) for i in sq] == ["a b"]
    assert sq == t.nf_vector(("a", "a"))


def socle_paths(table, v):
    """The basis paths in the support of the socle rows of e_v A."""
    fiber = table.by_source[v]
    return [str(table.basis[fiber[j]]) for row in table.socle()[v] for j in sorted(row)]


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
        assert verify_associativity(t)
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


def test_mutually_rewriting_deformations_are_named():
    """y x -> y y -> y x would loop until the rewriting cap; it is named at once."""
    pres = parse_presentation(
        "field F5\nvertex 1\n" + "".join(f"arrow {a} : 1 -> 1\n" for a in "xyz")
        + "rel y x = -1 y y\nrel y y = 2 y x\n"
        + "".join(f"rel {' '.join(p)} = 0\n" for p in itertools.product("xyz", repeat=3)))
    with pytest.raises(NonAdmissible) as info:
        build_table(pres)
    assert str(info.value) == ("socle deformations y x = 4 y y and y y = 2 y x "
                               "rewrite into each other")


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


def test_non_confluent_presentation_fails_the_sweep_associativity_check():
    pres = parse_presentation(NON_CONFLUENT_TEXT)
    table = build_table(pres)
    assert table.dim == 6
    assert not verify_associativity(table)
    results = {r["check"]: r["pass"] for r in run_sweep(pres, 3)["results"]}
    assert results["table-built"] and not results["associativity"]


@pytest.mark.parametrize("text, dim, associative, message", [
    (NON_CONFLUENT_TEXT, 6, False, "relation x x = y y fails in the table at basis path x"),
    (ASSOCIATIVE_BUT_WRONG_TEXT, 6, True,
     "relation c c b = c a fails in the table at basis path e_1"),
    (TAIL_DROP_TEXT, 10, False,
     "relation x x x = 0, implied by the socle deformation x y = x x, fails in the "
     "table at basis path e_1"),
], ids=["non-confluent", "associative-but-wrong", "tail-drop"])
def test_certify_names_the_failing_relation_and_basis_path(text, dim, associative, message):
    table = build_table(parse_presentation(text))
    assert (table.dim, verify_associativity(table)) == (dim, associative)
    with pytest.raises(InconsistentRelations) as info:
        table.certify()
    assert str(info.value) == message


FIELDS = (Field(0), Field(2), Field(3), Field(5))


def library_tables():
    """Fixtures, standard, deformed standard and node presentations."""
    for f in FIELDS:
        for make in (alg_n2, alg_l2, alg_l2d, alg_a3z, loop_algebra):
            yield build_table(make(f))
        for seed in range(16):
            yield build_table(random_node_presentation(seed, f))
    for seed in range(12):
        quiver, pi, mult = random_standard_data(seed, max_vertices=3, max_mult=2)
        loops = [a.name for a in quiver.arrows if a.source == a.target and pi[a.name] != a.name]
        for f in FIELDS:
            yield build_table(build_from_standard_data(quiver, pi, mult, [], f))
            if loops:
                yield build_table(build_from_standard_data(quiver, pi, mult,
                                                           [(loops[0], f.one)], f))


def random_tables(seeds):
    """Tables of the seeded random-presentation family that build."""
    for seed in seeds:
        try:
            yield build_table(parse_presentation(random_presentation_text(seed)))
        except DomainError:
            pass


def test_certify_never_passes_a_table_the_reference_fails():
    """certify is exact: a pass means associative (the reference agrees)."""
    counts = {"tables": 0, "unsound": 0, "stricter": 0, "tail only": 0}
    for table in itertools.chain(library_tables(), random_tables(range(1100))):
        counts["tables"] += 1
        try:
            table.certify()
            certified = True
        except InconsistentRelations as exc:
            certified = False
            counts["tail only"] += "implied by" in str(exc)
        associative = verify_associativity(table)
        counts["unsound"] += certified and not associative
        counts["stricter"] += associative and not certified
    print(f"\ncertify against the associativity reference: {counts}")
    assert counts["tables"] >= 1000
    assert counts["unsound"] == 0
    assert counts["tail only"] > 0      # the family reaches the tail check


def test_socle_rows_match_the_dense_route():
    for table in itertools.chain(library_tables(), random_tables(range(200))):
        assert table.socle() == dense_socle(table)


def standard_and_deformed(seeds):
    """Standard presentations over FIELDS, and each with its loops deformed."""
    for seed in seeds:
        quiver, pi, mult = random_standard_data(seed)
        loops = [a.name for a in quiver.arrows if a.source == a.target and pi[a.name] != a.name]
        for f in FIELDS:
            yield build_from_standard_data(quiver, pi, mult, [], f)
            if loops:
                yield build_from_standard_data(quiver, pi, mult,
                                               [(loop, f.one) for loop in loops], f)


def assert_matches_the_linear_scan(table):
    """Same basis, and same normal forms on every basis path times an arrow
    and on both sides of every relation, as the linear scan of the rules."""
    assert len(set(table.basis)) == table.dim
    assert set(table.basis) == reference_basis(table)
    paths = [b.arrows + (a.name,) for b in table.basis
             for a in table.quiver.out_arrows[b.target]]
    for rel in table.pres.relations:
        paths += ([rel.path.arrows] if isinstance(rel, ZeroRelation)
                  else [rel.left.arrows, rel.right.arrows])
    for arrows in paths:
        assert table.normal_form(arrows) == reference_normal_form(table, arrows), arrows


def test_first_arrow_index_matches_the_linear_scan():
    """normal_form looks rules up by first arrow; the old scan tried them all."""
    tables = deformed = 0
    for pres in standard_and_deformed(range(300)):
        table = build_table(pres)
        assert_matches_the_linear_scan(table)
        tables += 1
        deformed += bool(table._deformations)
    for table in random_tables(range(300)):
        assert_matches_the_linear_scan(table)
        tables += 1
    assert tables >= 1500 and deformed >= 300


def test_first_arrow_index_keeps_named_outcomes():
    """The non-confluent table keeps its 6 classes and a zero rule beats a
    substitution at the same position; the mutually rewriting deformations
    keep their message (test_mutually_rewriting_deformations_are_named)."""
    table = build_table(parse_presentation(NON_CONFLUENT_TEXT))
    assert table.dim == 6
    assert_matches_the_linear_scan(table)
    # a zero rule and a substitution share x's bucket and match x y y at 0
    table = build_table(parse_presentation(ZERO_BEFORE_SUBSTITUTION_TEXT))
    bucket = [(kind, lhs) for kind, lhs, _ in table._rules_from["x"]]
    assert bucket[0] == ("zero", ("x", "y", "y")) and bucket[-1] == ("subst", ("x", "y"))
    assert {kind for kind, _ in bucket[:-1]} == {"zero"}
    assert table.normal_form(("x", "y", "y")) == {} == reference_normal_form(
        table, ("x", "y", "y"))
    assert table.normal_form(("y", "x", "y")) == {("y", "y", "x"): 1}
    assert_matches_the_linear_scan(table)


def nonzero_prefixed_paths(table):
    """Composable arrow paths up to length loewy_length + 1 whose proper
    prefixes are nonzero; a path with a zero prefix is zero."""
    q = table.quiver
    level = [(a.name,) for a in q.arrows]
    for _ in range(table.loewy_length + 1):
        yield from level
        level = [p + (a.name,) for p in level if table.nf_vector(p)
                 for a in q.out_arrows[q.target(p[-1])]]


def test_off_socle_matches_the_vector_tests():
    """off_socle, the continuations, the witness lists and arms agree with
    nf_vector and in_socle tested by hand."""
    fixtures = [make(f) for f in FIELDS
                for make in (alg_n2, alg_l2, alg_l2d, alg_a3z, loop_algebra)]
    nodes = [random_node_presentation(seed) for seed in range(20)]
    counts = {"tables": 0, "off socle": 0, "sb witnessed": 0, "stb witnessed": 0}
    tables = itertools.chain(
        map(build_table, itertools.chain(fixtures, standard_and_deformed(range(100)), nodes)),
        random_tables(range(300)))
    for table in tables:
        for arrows in nonzero_prefixed_paths(table):
            vec = table.nf_vector(arrows)
            assert table.off_socle(arrows) == (bool(vec) and not table.in_socle(vec)), arrows
            counts["off socle"] += table.off_socle(arrows)
        for a in table.quiver.arrows:
            for socle_free, before in itertools.product((False, True), repeat=2):
                assert (_continuations(table, a.name, socle_free, before)
                        == reference_continuations(table, a.name, socle_free, before))
        sb = reference_special_biserial_witnesses(table)
        stb = reference_stably_biserial_witnesses(table)
        report = check_special_biserial(table)
        assert (report.is_special_biserial, report.is_stably_biserial,
                report.witnesses) == (not sb, not stb, sb)
        assert _stably_biserial_conditions(table) == (not stb, stb)
        for v in table.quiver.vertices:
            assert table.arms(v) == reference_arms(table, v), v
        counts["tables"] += 1
        counts["sb witnessed"] += bool(sb)
        counts["stb witnessed"] += bool(stb)
    # 20 fixtures, 20 node, 568 standard and deformed, 294 random tables
    assert counts["tables"] == 902 and counts["off socle"] > 10_000
    assert counts["sb witnessed"] > 300 and counts["stb witnessed"] > 100
