from biserial.checks import check_special_biserial
from biserial.core import build_table
from biserial.instances import (alg_a3z, alg_n2, random_node_presentation)
from biserial.nodes import (detect_nodes, nonprojective_simple_count,
                            split_nodes)


def test_detect_nodes_fixtures():
    pres = alg_a3z()
    t = build_table(pres)
    report = detect_nodes(t)
    assert report.nodes == ["2"]
    ev = report.evidence["2"]
    assert ev["non_projective"] and ev["non_injective"] and ev["compositions_vanish"]
    t2 = build_table(alg_n2())
    assert detect_nodes(t2).nodes == []


def test_simple_projective_never_a_node():
    pres = alg_a3z()
    t = build_table(pres)
    ev = detect_nodes(t).evidence
    assert not ev["3"]["non_projective"]  # S3 = P3 at the sink


def test_split_a3z():
    split = split_nodes(build_table(alg_a3z()))
    assert split.quiver.vertices == ["1", "2_in", "2_out", "3"]
    arrows = {(a.name, a.source, a.target) for a in split.quiver.arrows}
    assert arrows == {("a", "1", "2_in"), ("b", "2_out", "3")}
    assert split.relations == []
    t = build_table(split)
    assert detect_nodes(t).nodes == []


def test_split_identity_on_node_free():
    pres = alg_n2()
    assert split_nodes(build_table(pres)) is pres


def test_counts():
    pres = alg_a3z()
    t = build_table(pres)
    assert nonprojective_simple_count(t) == 2
    split = split_nodes(t)
    assert nonprojective_simple_count(build_table(split)) == 2


def test_adjacent_nodes_chain():
    from biserial.core import AlgebraPresentation, Quiver, ZeroRelation
    from biserial.fields import Field
    q = Quiver(["1", "2", "3", "4"],
               [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "4")])
    pres = AlgebraPresentation(Field(0), q, [
        ZeroRelation(q.path(("a", "b"))),
        ZeroRelation(q.path(("b", "c"))),
    ])
    t = build_table(pres)
    assert detect_nodes(t).nodes == ["2", "3"]
    split = split_nodes(t)
    t2 = build_table(split)
    assert detect_nodes(t2).nodes == []
    assert nonprojective_simple_count(t2) == nonprojective_simple_count(t)


def test_randomized_node_suite():
    for seed in range(12):
        pres = random_node_presentation(seed)
        t = build_table(pres)
        report = detect_nodes(t)
        assert report.nodes, f"seed {seed} produced no nodes"
        assert check_special_biserial(t).is_special_biserial
        split = split_nodes(t)
        t2 = build_table(split)
        assert detect_nodes(t2).nodes == []
        assert nonprojective_simple_count(t2) == nonprojective_simple_count(t)
        assert check_special_biserial(t2).is_special_biserial
