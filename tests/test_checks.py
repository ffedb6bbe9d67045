import pytest

from biserial.checks import (NotSelfinjective, check_arrow_bound,
                             check_one_in_one_out, check_special_biserial,
                             check_stably_biserial)
from biserial.core import Quiver, build_table
from biserial.instances import alg_a3z, alg_l2, alg_l2d, alg_n2


def test_special_biserial_fixtures():
    for pres in (alg_n2(), alg_l2(), alg_a3z()):
        t = build_table(pres)
        rep = check_special_biserial(t)
        assert rep.is_special_biserial
        assert not rep.witnesses


def test_l2d_not_special_biserial():
    pres = alg_l2d()
    t = build_table(pres)
    rep = check_special_biserial(t)
    assert not rep.is_special_biserial
    offenders = {w[0] for w in rep.witnesses}
    assert "a" in offenders  # a*a and a*b both survive
    assert rep.is_stably_biserial  # socle-relaxed conditions hold


def test_stably_biserial():
    pres = alg_l2d()
    t = build_table(pres)
    rep = check_stably_biserial(t)
    assert rep.is_stably_biserial
    assert not rep.is_special_biserial
    rep2 = check_stably_biserial(build_table(alg_n2()))
    assert rep2.is_stably_biserial and rep2.is_special_biserial


def test_stably_biserial_needs_selfinjective():
    pres = alg_a3z()
    with pytest.raises(NotSelfinjective):
        check_stably_biserial(build_table(pres))


def test_special_implies_stably_flag():
    # relation-level inclusion holds on every fixture
    for pres in (alg_n2(), alg_l2(), alg_a3z()):
        t = build_table(pres)
        rep = check_special_biserial(t)
        assert rep.is_special_biserial <= rep.is_stably_biserial


def test_one_in_one_out():
    for pres in (alg_n2(), alg_l2()):
        ok, wit = check_one_in_one_out(pres.quiver)
        assert ok and not wit
    ok, wit = check_one_in_one_out(alg_a3z().quiver)
    assert not ok  # sources and sinks break the rule; not selfinjective


def test_arrow_bound():
    assert check_arrow_bound(alg_l2().quiver)
    assert check_arrow_bound(alg_n2().quiver)
    star = Quiver(["0", "1", "2", "3"],
                  [("a", "0", "1"), ("b", "0", "2"), ("c", "0", "3")])
    assert not check_arrow_bound(star)
