import pytest

from biserial.checks import check_special_biserial
from biserial.core import build_table, check_selfinjective_symmetric
from biserial.fields import Field
from biserial.instances import (alg_a3z, alg_l2, alg_l2d, alg_n2,
                                loop_algebra, random_standard_data)
from biserial.normalizer import (ExcludedLocalCase, InvalidDeformation,
                                 InvalidPermutation, NotSymmetric,
                                 RootNotInField, build_from_standard_data,
                                 construct_pi, deformed_presentation,
                                 normalize, socle_paths, verify_normalization)
from biserial.presentations import format_presentation, parse_presentation


def test_construct_pi_fixtures():
    for pres, expected in ((alg_n2(), {"a": "b", "b": "a"}),
                           (alg_l2(), {"a": "b", "b": "a"}),
                           (alg_l2d(), {"a": "b", "b": "a"})):
        t = build_table(pres)
        data = construct_pi(t)
        assert data.pi == expected
        # properties (1) and (2) on the table
        for a in pres.quiver.arrows:
            assert t.nf_vector((a.name, data.pi[a.name]))
            for b in pres.quiver.out_arrows[a.target]:
                if b.name != data.pi[a.name]:
                    vec = t.nf_vector((a.name, b.name))
                    assert not vec or t.in_socle(vec)


def test_pi_case_trace_l2d():
    pres = alg_l2d()
    t = build_table(pres)
    data = construct_pi(t)
    assert data.case_trace["a"].startswith("II|Q0|=1")


def test_socle_paths_fixtures():
    pres = alg_n2()
    t = build_table(pres)
    data = socle_paths(t, construct_pi(t))
    assert data.k == {"a": 2, "b": 2}
    assert data.sc["a"] == ("a", "b")
    assert data.mult == {("a", "b"): 1}
    pres2 = alg_l2d()
    t2 = build_table(pres2)
    data2 = socle_paths(t2, construct_pi(t2))
    assert data2.k == {"a": 2, "b": 2}
    assert data2.n == {"a": 2, "b": 2}


def test_excluded_local_case():
    pres = loop_algebra()
    t = build_table(pres)
    with pytest.raises(ExcludedLocalCase):
        construct_pi(t)


def test_not_symmetric():
    pres = alg_a3z()
    t = build_table(pres)
    with pytest.raises(NotSymmetric):
        construct_pi(t)


def test_golden_l2d_rationals():
    pres = alg_l2d()
    t = build_table(pres)
    out = normalize(t)
    assert out.deformations == []
    assert len(out.substitutions) == 1
    sub = out.substitutions[0]
    assert sub.arrow == "a" and sub.path == ("b",)
    assert sub.coeff == t.field.of("1/2")
    base_table = build_table(out.base)
    assert base_table.dim == 4
    assert check_special_biserial(base_table).is_special_biserial
    # the witness replay is an exact isomorphism
    verify_normalization(t, out)


def test_golden_l2d_char_two():
    pres = alg_l2d(Field(2))
    t = build_table(pres)
    out = normalize(t)
    assert out.deformations == [("a", 1)]
    assert out.substitutions == []
    verify_normalization(t, out)
    d = deformed_presentation(out)
    td = build_table(d)
    assert td.dim == 4
    assert not check_special_biserial(td).is_special_biserial


def test_golden_l2d_char_three():
    pres = alg_l2d(Field(3))
    t = build_table(pres)
    out = normalize(t)
    assert out.deformations == []
    assert check_special_biserial(build_table(out.base)).is_special_biserial


def test_already_standard_is_identity():
    pres = alg_l2()
    t = build_table(pres)
    out = normalize(t)
    assert out.deformations == [] and out.substitutions == []


SCALED_SOCLE = """
field Q
vertex 1 2
arrow a : 1 -> 2
arrow b : 2 -> 1
arrow c : 1 -> 1
rel a b = {c} c c
rel b c = 0
rel c a = 0
rel a b a = 0
rel b a b = 0
rel c c c = 0
"""


def test_rescale_example():
    # co-starting socle paths with ab = 4 c^2; the loop cycle has
    # multiplicity two, so the rescaling root is 1/2 and stays rational
    pres = parse_presentation(SCALED_SOCLE.format(c=4))
    t = build_table(pres)
    assert check_selfinjective_symmetric(t).verdict == "symmetric"
    out = normalize(t)
    scales = [s for s in out.substitutions if s.scale is not None]
    assert scales and scales[0].arrow == "c"
    assert scales[0].scale == t.field.of(2)
    verify_normalization(t, out)


def test_root_not_in_field():
    # discrepancy 2 with multiplicity 2 would need sqrt(2) over Q
    pres = parse_presentation(SCALED_SOCLE.format(c=2))
    t = build_table(pres)
    assert check_selfinjective_symmetric(t).verdict == "symmetric"
    with pytest.raises(RootNotInField):
        normalize(t)


def test_build_from_standard_data_fixture_shapes():
    # the two-vertex cycle with multiplicity one is the Nakayama fixture
    pres0 = alg_n2()
    built = build_from_standard_data(pres0.quiver, {"a": "b", "b": "a"},
                                     {("a", "b"): 1}, [], Field(0))
    t = build_table(built)
    assert t.dim == 6
    assert check_selfinjective_symmetric(t).verdict == "symmetric"
    # one vertex, two loops: the biserial local fixture
    pres1 = alg_l2()
    built1 = build_from_standard_data(pres1.quiver, {"a": "b", "b": "a"},
                                      {("a", "b"): 1}, [], Field(0))
    t1 = build_table(built1)
    assert t1.dim == 4
    # adding the deformation gives the deformed fixture
    built2 = build_from_standard_data(pres1.quiver, {"a": "b", "b": "a"},
                                      {("a", "b"): 1}, [("a", 1)], Field(0))
    t2 = build_table(built2)
    assert t2.dim == 4
    assert not check_special_biserial(t2).is_special_biserial


def test_build_validation_errors():
    pres = alg_l2()
    with pytest.raises(InvalidPermutation):
        build_from_standard_data(pres.quiver, {"a": "a", "b": "a"},
                                 {("a",): 2, ("b",): 2}, [], Field(0))
    with pytest.raises(InvalidPermutation):
        # a fixed loop with multiplicity one sits in the socle
        build_from_standard_data(pres.quiver, {"a": "a", "b": "b"},
                                 {("a",): 1, ("b",): 2}, [], Field(0))
    with pytest.raises(InvalidDeformation):
        build_from_standard_data(pres.quiver, {"a": "b", "b": "a"},
                                 {("a", "b"): 1}, [("a", 0)], Field(0))
    n2 = alg_n2()
    with pytest.raises(InvalidDeformation):
        # not a loop
        build_from_standard_data(n2.quiver, {"a": "b", "b": "a"},
                                 {("a", "b"): 1}, [("a", 1)], Field(0))


def test_a_loop_is_deformed_at_most_once():
    q = alg_l2().quiver
    with pytest.raises(InvalidDeformation, match="a is deformed twice"):
        build_from_standard_data(q, {"a": "b", "b": "a"}, {("a", "b"): 1},
                                 [("a", 1), ("a", 2)], Field(0))


def test_multiplicity_entries_name_each_cycle_once():
    q = alg_l2().quiver
    pi = {"a": "b", "b": "a"}
    with pytest.raises(InvalidPermutation, match="'zz' names no cycle of pi"):
        build_from_standard_data(q, pi, {("a", "b"): 1, ("zz",): 3}, [], Field(0))
    with pytest.raises(InvalidPermutation, match="'a' names no cycle of pi"):
        build_from_standard_data(q, pi, {("a",): 1}, [], Field(0))
    with pytest.raises(InvalidPermutation, match=r"\('a', 'b'\) is given a multiplicity twice"):
        build_from_standard_data(q, pi, {("a", "b"): 1, ("b", "a"): 2}, [], Field(0))
    with pytest.raises(InvalidPermutation, match="no multiplicity given"):
        build_from_standard_data(q, pi, {}, [], Field(0))
    # a cycle may be named from either of its arrows
    texts = {format_presentation(build_from_standard_data(q, pi, {key: 2}, [], Field(0)))
             for key in (("a", "b"), ("b", "a"))}
    assert len(texts) == 1


def test_cyclic_nakayama_multiplicity_two():
    # one 2-cycle with multiplicity 2: k = 4 = n * m
    pres0 = alg_n2()
    built = build_from_standard_data(pres0.quiver, {"a": "b", "b": "a"},
                                     {("a", "b"): 2}, [], Field(0))
    t = build_table(built)
    out = normalize(t)
    assert out.pi_data.k == {"a": 4, "b": 4}
    assert out.pi_data.mult == {("a", "b"): 2}


# standard algebras disguised by an inverse generator substitution
# (b2 -> b2 - c*b1), so a non-loop product lands in the socle and the
# permutation construction must go through its two-continuation case
MESSY_THREE_VERTICES = """
field Q
vertex 1 2 3
arrow al : 1 -> 2
arrow b1 : 2 -> 1
arrow b2 : 2 -> 1
arrow g : 1 -> 3
arrow d : 3 -> 2
rel al b2 = -3 al b1
rel b2 al = -3 b1 al
rel al b1 al = 0
rel b1 al b1 = 0
rel b1 g = 0
rel d b1 = 0
rel g d b2 g = 0
rel al b1 = g d b2
rel b1 al = b2 g d
rel d b2 g d = 0
rel b2 g d b2 = 0
"""

MESSY_TWO_VERTICES = """
field Q
vertex 1 2
arrow al : 1 -> 2
arrow a2 : 1 -> 2
arrow b1 : 2 -> 1
arrow b2 : 2 -> 1
rel al b2 = 2 al b1
rel b2 al = 2 b1 al
rel a2 b1 = 0
rel b1 a2 = 0
rel al b1 al = 0
rel b1 al b1 = 0
rel a2 b2 a2 = 0
rel b2 a2 b2 = 0
rel al b1 = a2 b2
rel b1 al = b2 a2
"""


def test_case_two_three_vertices():
    pres = parse_presentation(MESSY_THREE_VERTICES)
    t = build_table(pres)
    assert check_selfinjective_symmetric(t).verdict == "symmetric"
    assert not check_special_biserial(t).is_special_biserial
    out = normalize(t)
    assert out.pi_data.pi == {"al": "b1", "b1": "al",
                              "b2": "g", "g": "d", "d": "b2"}
    assert out.pi_data.case_trace["al"] == "II|Q0|>2"
    subs = [s for s in out.substitutions if s.coeff is not None]
    assert len(subs) == 1 and subs[0].arrow == "b2" and subs[0].path == ("b1",)
    assert check_special_biserial(build_table(out.base)).is_special_biserial


def test_case_two_two_vertices():
    pres = parse_presentation(MESSY_TWO_VERTICES)
    t = build_table(pres)
    assert check_selfinjective_symmetric(t).verdict == "symmetric"
    out = normalize(t)
    assert out.pi_data.pi == {"al": "b1", "b1": "al", "a2": "b2", "b2": "a2"}
    assert out.pi_data.case_trace["al"].startswith("II|Q0|=2")
    subs = [s for s in out.substitutions if s.coeff is not None]
    assert len(subs) == 1 and subs[0].arrow == "b2"
    assert check_special_biserial(build_table(out.base)).is_special_biserial


def test_randomized_roundtrip():
    for seed in (0, 3, 5, 14, 19):
        quiver, pi, mult = random_standard_data(seed)
        pres = build_from_standard_data(quiver, pi, mult, [], Field(0))
        t = build_table(pres)
        out = normalize(t)
        got = {(tuple(sorted(c)), m) for c, m in out.pi_data.mult.items()}
        want = {(tuple(sorted(c)), m) for c, m in mult.items()}
        assert got == want
        assert out.pi_data.pi == pi
