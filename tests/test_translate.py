from collections import Counter

import pytest

import biserial.sweep
import biserial.translate
from biserial.core import build_table
from biserial.fields import Field
from biserial.instances import (alg_a3z, alg_l2, alg_l2d, alg_n2,
                                loop_algebra, random_standard_data)
from biserial.normalizer import build_from_standard_data
from biserial.reps import (RepMap, decompose_rad_mod_soc, direct_sum, exactness_defect,
                           find_isomorphism, is_isomorphic, kernel_of_map,
                           mapping_cone_rep, projective, stable_hom_dim,
                           strip_projectives, syzygy)
from biserial.strings import (Letter, StringWord, SubwordInSocleOrZero, _tail,
                              canonical_form, enumerate_strings, left_op,
                              node_vertices, reverse_word, right_op,
                              string_module, words_equal)
from biserial.translate import (LocalNakayamaExcluded, NotSelfinjectiveSB,
                                _cone_nodes, _node_map, _quotient_walk, _rad_walk,
                                ar_right_map, ar_sequence, canonical_map_to_tau_inv,
                                check_tau_period_one_exclusions,
                                cone_of_canonical_map, cone_pieces, cone_sequence,
                                omega_sequence, omega_word,
                                proj_quotient_word, rad_mod_soc_walks, rad_word,
                                reversal_map, tau, tau_inv)
from table_reference import (cosyzygy, nakayama, reference_ar_exact,
                             reference_cone_matches, reference_tau_syzygy,
                             stable_class_is_zero)


SEEDS = range(40)
MAX_DIM = 40


def pool_tables():
    """n2, l2 and the standard algebras of seeds 0-39 over F3 up to dimension 40."""
    yield build_table(alg_n2())
    yield build_table(alg_l2())
    for seed in SEEDS:
        table = build_table(build_from_standard_data(*random_standard_data(seed), [],
                                                     Field(3)))
        if table.dim <= MAX_DIM:
            yield table


def word(*toks):
    return StringWord(tuple(Letter(t[:-1], True) if t.endswith("-") else Letter(t)
                            for t in toks))


def test_landmark_words():
    t = build_table(alg_n2())
    assert str(proj_quotient_word(t, "1")) == "a"
    assert str(rad_word(t, "1")) == "b"
    assert str(proj_quotient_word(t, "2")) == "b"
    assert str(rad_word(t, "2")) == "a"
    t2 = build_table(alg_l2())
    assert proj_quotient_word(t2, "1").length == 2
    assert rad_word(t2, "1").length == 2


def test_tau_fixture_values():
    t = build_table(alg_n2())
    q = t.quiver
    assert str(tau(t, StringWord.trivial("1"))) == "@2"
    assert str(tau(t, word("b"))) == "a"
    assert str(tau_inv(t, StringWord.trivial("2"))) == "@1"
    assert str(tau_inv(t, word("a"))) == "b"
    c = word("a")
    assert words_equal(q, tau(t, tau_inv(t, c)), c)


def test_tau_roundtrip_all_strings():
    for pres in (alg_n2(), alg_l2()):
        t = build_table(pres)
        q = t.quiver
        for c in enumerate_strings(t, 7):
            assert words_equal(q, tau_inv(t, tau(t, c)), c)
            assert words_equal(q, tau(t, tau_inv(t, c)), c)


def test_tau_is_omega_squared():
    for pres in (alg_n2(), alg_l2()):
        t = build_table(pres)
        for c in enumerate_strings(t, 7):
            M = string_module(t, c)
            T = string_module(t, tau(t, c))
            assert is_isomorphic(t, T, syzygy(t, syzygy(t, M))), str(c)


def test_tau_requires_selfinjective_sb():
    pres = alg_a3z()
    t = build_table(pres)
    with pytest.raises(NotSelfinjectiveSB):
        tau(t, StringWord.trivial("1"))
    t2 = build_table(alg_l2d())
    with pytest.raises(NotSelfinjectiveSB):
        tau(t2, word("a", "b-"))


def test_ar_sequences():
    t = build_table(alg_n2())
    seq = ar_sequence(t, word("a"))
    assert str(seq.left) == "b"
    assert seq.middle_projective == "1"
    assert [str(m) for m in seq.middle_strings] == ["@2"]
    seq2 = ar_sequence(t, StringWord.trivial("1"))
    assert str(seq2.left) == "@2"
    assert seq2.middle_projective is None
    assert [str(m) for m in seq2.middle_strings] == ["a"]


def test_ar_local_nakayama_excluded():
    t = build_table(loop_algebra())
    with pytest.raises(LocalNakayamaExcluded):
        check_tau_period_one_exclusions(t)


def test_tau_period_exclusions():
    for pres in (alg_n2(), alg_l2()):
        t = build_table(pres)
        report = check_tau_period_one_exclusions(t)
        assert report["all_pass"]


def test_period_one_string_exists_on_l2():
    # "a" over the two-loop algebra is tau-fixed: not every string moves
    t = build_table(alg_l2())
    assert words_equal(t.quiver, tau(t, word("a")), word("a"))


def test_canonical_map_cases():
    t = build_table(alg_n2())
    assert cone_of_canonical_map(t, word("a")).case == "iv-uniserial"
    assert stable_class_is_zero(t, canonical_map_to_tau_inv(t, word("a")))
    assert cone_of_canonical_map(t, StringWord.trivial("1")).case == "iii'"
    assert stable_class_is_zero(t, canonical_map_to_tau_inv(t, StringWord.trivial("1")))
    t2 = build_table(alg_l2())
    assert cone_of_canonical_map(t2, word("a", "b-")).case == "iv"
    assert not stable_class_is_zero(t2, canonical_map_to_tau_inv(t2, word("a", "b-")))


def test_canonical_map_that_does_not_intertwine_raises(monkeypatch):
    """A node map that kills one of two neighbouring kept nodes is no
    module map, and canonical_map_to_tau_inv says which branch built it."""
    nodes = biserial.translate._canonical_nodes

    def broken(table, w):
        source, target, image, v = nodes(table, w)
        hit = [i for i, j in enumerate(image) if j is not None]
        return source, target, [None if i == hit[1] else j
                                for i, j in enumerate(image)], v

    def kept_twice(t, branch):
        """The first word whose map keeps two nodes, in the radical branch or not."""
        return next(c for c in enumerate_strings(t, 4)
                    if sum(j is not None for j in nodes(t, c)[2]) >= 2
                    and (nodes(t, c)[3] is not None) == branch)

    # the arms of nakayama(2, 4) are long enough to keep two radical nodes
    long_arms, l2 = build_table(nakayama(2, 4, Field(3))), build_table(alg_l2())
    radical, plain = kept_twice(long_arms, True), kept_twice(l2, False)
    monkeypatch.setattr(biserial.translate, "_canonical_nodes", broken)
    with pytest.raises(RuntimeError, match="^radical canonical map failed for "):
        canonical_map_to_tau_inv(long_arms, radical)
    with pytest.raises(RuntimeError, match="^canonical map construction failed for "):
        canonical_map_to_tau_inv(l2, plain)


def test_stable_vanishing_iff_degenerate_case():
    for pres in (alg_n2(), alg_l2()):
        t = build_table(pres)
        for c in enumerate_strings(t, 6):
            case = cone_of_canonical_map(t, c).case
            z = stable_class_is_zero(t, canonical_map_to_tau_inv(t, c))
            assert z == (case in ("iii'", "iv-uniserial")), (str(c), case)


def test_cone_fixture_values():
    t = build_table(alg_n2())
    cone = cone_of_canonical_map(t, word("a"))
    assert cone.case == "iv-uniserial"
    assert sorted(str(s) for s in cone.summands) == ["@2", "b"]
    cone2 = cone_of_canonical_map(t, StringWord.trivial("1"))
    assert cone2.case == "iii'"
    # tau^{-1}(S1) = S2 and Omega^{-1}(S1) = P1/soc P1 = M_a
    assert sorted(str(s) for s in cone2.summands) == ["@2", "a"]


def test_cone_matches_linear_algebra():
    from biserial.strings import directed_runs
    for pres in (alg_n2(), alg_l2()):
        t = build_table(pres)
        for c in enumerate_strings(t, 6):
            fmap = canonical_map_to_tau_inv(t, c)
            cone = cone_of_canonical_map(t, c)
            assert len(cone.summands) <= 2
            # the summands are (possibly trivial) directed strings
            for s in cone.summands:
                assert len(directed_runs(s)) <= 1, (str(c), str(s))
            reduced, _ = strip_projectives(t, mapping_cone_rep(t, fmap))
            expected = direct_sum(*[string_module(t, s) for s in cone.summands])
            assert is_isomorphic(t, reduced, expected), str(c)


def test_omega_inv_word_oracle():
    from biserial.translate import omega_inv_word
    for pres in (alg_n2(), alg_l2()):
        t = build_table(pres)
        for c in enumerate_strings(t, 6):
            runs = [l.inverse for l in c.letters]
            if len(set(runs)) > 1:
                continue  # only directed pieces feed the cosyzygy formula
            ow = omega_inv_word(t, c)
            K = cosyzygy(t, string_module(t, c))
            assert is_isomorphic(t, string_module(t, ow), K), str(c)


def test_ar_right_map_exact_and_almost_split():
    import biserial.linalg as la
    from biserial.reps import hom
    t = build_table(alg_n2())
    words = enumerate_strings(t, 8)
    X_list = [(w, string_module(t, w)) for w in words]
    X_list += [(None, projective(t, v)) for v in t.quiver.vertices]
    for c in words:
        f, g = ar_right_map(t, c)
        assert exactness_defect(f, g) == "", str(c)
        K, _ = kernel_of_map(g)
        assert g.is_surjective()
        assert is_isomorphic(t, K, string_module(t, tau(t, c)))
        for xw, X in X_list:
            target_maps = hom(t, X, g.target)
            if not target_maps:
                continue
            comps = [h.compose(g).flatten() for h in hom(t, X, g.source)]
            rank = la.span_rank(comps, t.field)
            same = xw is not None and words_equal(
                t.quiver, xw, canonical_form(t.quiver, c))
            assert rank == len(target_maps) - (1 if same else 0), (str(c), xw)


# -- the per-table translate cache -----------------------------------------

@pytest.mark.parametrize("fixture", [alg_n2, alg_l2], ids=lambda f: f.__name__)
def test_warm_translates_agree_with_a_fresh_table(swept_tables, fixture):
    """tau, tau_inv, omega_word and the cone's node sets after a sweep equal
    their values on a cold table."""
    warm = swept_tables(fixture(), max_len=4)[0]
    ops = {"tau": tau, "tauinv": tau_inv, "omega": omega_word, "cone": _cone_nodes}
    assert {mode for mode, _ in warm._translates} == set(ops)
    for c in enumerate_strings(warm, 4):
        for x in (c, reverse_word(c)):
            for op in (tau, tau_inv):
                assert op(warm, x) == op(build_table(fixture()), x), (op.__name__, str(x))
    for (mode, x), value in warm._translates.items():
        assert value == ops[mode](build_table(fixture()), x)


def test_translate_errors_are_never_cached():
    t = build_table(alg_l2())
    band = word("a", "b-")
    for _ in range(2):
        with pytest.raises(SubwordInSocleOrZero):
            tau(t, word("a", "b"))
        assert tau(t, tau_inv(t, band)) == canonical_form(t.quiver, band)
    assert ("tau", word("a", "b")) not in t._translates
    assert ("tauinv", band) in t._translates


# -- the per-table one-sided surgery cache -----------------------------------

@pytest.mark.parametrize("fixture", [alg_n2, alg_l2], ids=lambda f: f.__name__)
def test_warm_side_ops_agree_with_a_fresh_table(swept_tables, fixture):
    """Every surgery cached by a sweep equals the one a cold table computes."""
    warm = swept_tables(fixture(), max_len=4)[0]
    assert {side for side, *_ in warm._side_ops} == {"right", "left"}
    op = {"right": right_op, "left": left_op}
    for (side, mode, x, exclude), value in warm._side_ops.items():
        assert value == op[side](build_table(fixture()), x, mode, exclude), (side, str(x))


def test_side_ops_are_shared_and_bad_modes_never_cached():
    t = build_table(alg_l2())
    c = word("a", "b-")
    assert right_op(t, c, "tau") is right_op(t, c, "tau")
    assert left_op(t, c, "tauinv") is left_op(t, c, "tauinv")
    for _ in range(2):
        for op in (right_op, left_op):
            with pytest.raises(ValueError, match="unknown mode 'tua'"):
                op(t, c, "tua")
    assert all(mode != "tua" for _, mode, _, _ in t._side_ops)


@pytest.mark.parametrize("fixture", [alg_n2, alg_l2], ids=lambda f: f.__name__)
def test_warm_tails_agree_with_a_fresh_table(swept_tables, fixture):
    """Every hook and co-hook tail cached by a sweep equals a cold table's."""
    warm = swept_tables(fixture(), max_len=4)[0]
    assert {first.inverse for first in warm._tails} == {False, True}
    for first, tail in warm._tails.items():
        assert tail == _tail(build_table(fixture()), first), str(first)


# -- node correspondences ----------------------------------------------------

def test_arm_walk_places_every_prefix_on_its_node():
    """Each prefix an arm walk visits sits on one node, at the prefix's end,
    of P_v/soc P_v, of rad P_v and of each rad/soc summand; rad P_v meets
    its second arm at the socle node that arm 0 names."""
    checked = 0
    for t in pool_tables():
        q = t.quiver
        for v in (v for v in q.vertices if q.out_arrows[v]):
            arms = t.arms(v)
            walks = [_quotient_walk(t, v), _rad_walk(t, v), *rad_mod_soc_walks(t, v)]
            for w, nodes in walks:
                verts = node_vertices(q, w)
                for p, node in nodes.items():
                    assert verts[node] == (q.target(p[-1]) if p else v), (v, str(w), p)
                    checked += 1
                assert sorted(nodes.values()) == list(range(w.length + 1)), (v, str(w))
            assert set(walks[0][1]) == {arm.arrows[:j] for arm in arms
                                        for j in range(len(arm.arrows))}, v
            rad, nodes = walks[1]
            socle = nodes[arms[0].arrows]
            assert socle == len(arms[0].arrows) - 1, v
            if len(arms) == 2:
                assert node_vertices(q, rad)[socle] == q.target(arms[1].arrows[-1]), v
                assert arms[1].arrows not in nodes, v
    assert checked > 1000


def test_cone_tau_inverse_matches_the_canonical_map():
    """The CLI's cone reports tau^{-1} w from the calculus, a canonical word;
    the canonical map M(w) -> tau^{-1} M(w) lands in the module of that
    word or of its reverse, or both raise alike."""
    def outcome(fn):
        try:
            return fn()
        except Exception as exc:
            return type(exc)

    compared = 0
    for seed in SEEDS:
        data = random_standard_data(seed)
        for field in (Field(3), Field(0), Field(2)):
            t = build_table(build_from_standard_data(*data, [], field))
            if t.dim > 30:
                continue
            for c in enumerate_strings(t, 4):
                calculus = outcome(lambda: tau_inv(t, c))
                mapped = outcome(lambda: canonical_map_to_tau_inv(t, c).target)
                if isinstance(calculus, StringWord):
                    assert (mapped is string_module(t, calculus)
                            or mapped is string_module(t, reverse_word(calculus))), \
                        (seed, field, str(c))
                else:
                    assert mapped is calculus, (seed, field, str(c))
                compared += 1
    assert compared > 2000


def test_cone_does_not_depend_on_the_reading_direction():
    """A string and its reverse are one module, so their cones agree."""
    compared = 0
    for t in pool_tables():
        for c in enumerate_strings(t, 6):
            cone = cone_of_canonical_map(t, c)
            mirror = cone_of_canonical_map(t, reverse_word(c))
            assert cone.case == mirror.case, str(c)
            assert Counter(cone.summands) == Counter(mirror.summands), str(c)
            compared += 1
    assert compared > 2000


def test_invalid_word_raises_on_every_translate_call():
    """_require_input records a valid word once per table, an invalid one never."""
    t = build_table(alg_n2())
    bad, good = word("a", "b"), word("a")       # ab lies in the socle
    calls = (tau, tau_inv, ar_sequence, canonical_map_to_tau_inv,
             cone_of_canonical_map, ar_right_map)
    for _ in range(2):
        for call in calls:
            with pytest.raises(SubwordInSocleOrZero):
                call(t, bad)
    assert bad not in t._valid_words
    first = [call(t, good) for call in calls]
    assert good in t._valid_words
    assert [call(t, good) for call in calls][:2] == first[:2]
    with pytest.raises(SubwordInSocleOrZero):
        tau(t, bad)


FIXTURES = (alg_n2, alg_l2, alg_l2d, alg_a3z)
FIELDS = (Field(0), Field(2), Field(3), Field(5))


def _reversed_nodes(M, target):
    """The reversal's node correspondence, aimed at any target module."""
    n = M.total_dim - 1
    return _node_map(M, target, ((pos, n - i) for i, pos in M.node_positions.items()),
                     "a planted reversal")


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("fixture", FIXTURES, ids=lambda f: f.__name__)
def test_reversal_map_is_the_reverse_isomorphism(fixture, field):
    """M(w) -> M(w^-1), node i to node n - i, is an isomorphism, as the
    Hom search finds; aimed at another string's module it is none."""
    t = build_table(fixture(field))
    words = enumerate_strings(t, 4)
    planted = 0
    for c in words:
        M, R = string_module(t, c), string_module(t, reverse_word(c))
        g = reversal_map(t, c)
        assert (g.source, g.target) == (M, R)
        assert g.intertwines() and g.is_bijective(), str(c)
        assert find_isomorphism(t, M, R) is not None, str(c)
        for other in words:
            N = string_module(t, other)
            if other == c or N.dims != M.dims:
                continue
            # the nodes sit at the same vertices, but the arrows differ
            planted_map = _reversed_nodes(M, N)
            assert not (planted_map.intertwines() and planted_map.is_bijective()), \
                f"{c} -> {other}"
            assert find_isomorphism(t, M, N) is None, f"{c} -> {other}"
            planted += 1
    # the strings of a3z all differ in their dimension vectors
    assert planted or fixture is alg_a3z


# -- witnessed exact sequences ---------------------------------------------

def standard_tables(max_dim):
    """The standard algebras of seeds 0-39 over F3, Q and F2 up to dimension max_dim."""
    for seed in SEEDS:
        data = random_standard_data(seed)
        for field in (Field(3), Field(0), Field(2)):
            table = build_table(build_from_standard_data(*data, [], field))
            if table.dim <= max_dim:
                yield table


def test_witnessed_checks_agree_with_the_hom_route():
    """The witnessed sequences give the verdicts of the kernel-and-Hom
    checks, and omega_word is the syzygy found by a projective cover."""
    compared = 0
    for t in standard_tables(24):
        for c in enumerate_strings(t, 4):
            once = omega_word(t, c)
            assert is_isomorphic(t, string_module(t, once),
                                 syzygy(t, string_module(t, c))), str(c)
            witnessed = (not exactness_defect(*omega_sequence(t, c))
                         and not exactness_defect(*omega_sequence(t, once))
                         and words_equal(t.quiver, omega_word(t, once), tau(t, c)))
            assert witnessed == reference_tau_syzygy(t, c), str(c)
            assert ((not exactness_defect(*ar_right_map(t, c)))
                    == reference_ar_exact(t, c)), str(c)
            compared += 1
    assert compared > 1800


def witnessed_cone(t, c) -> bool:
    """The cone-oracle verdict: the cone sequence is exact and its pieces
    are the calculus's summands."""
    return (not exactness_defect(*cone_sequence(t, c))
            and Counter(cone_pieces(t, c)) == Counter(cone_of_canonical_map(t, c).summands))


def test_witnessed_cone_agrees_with_the_cokernel_route():
    """The witnessed cone sequence gives the verdict of the cokernel,
    stripping and isomorphism check."""
    compared = 0
    for t in standard_tables(24):
        for c in enumerate_strings(t, 4):
            assert witnessed_cone(t, c) == reference_cone_matches(t, c), str(c)
            compared += 1
    assert compared > 1800


def test_cone_sequence_is_exact_on_cyclic_nakayama_tables():
    """On the cyclic Nakayama tables with 2 to 5 vertices and every path of
    length 2 to 8 zero, symmetric or not, every cone sequence is exact
    with the calculus's summands."""
    checked = nonsymmetric = 0
    for n in range(2, 6):
        for length in range(2, 9):
            t = build_table(nakayama(n, length, Field(3)))
            for c in enumerate_strings(t, length):
                assert exactness_defect(*cone_sequence(t, c)) == "", (n, length, str(c))
                assert Counter(cone_pieces(t, c)) == Counter(
                    cone_of_canonical_map(t, c).summands), (n, length, str(c))
                checked += 1
                nonsymmetric += length % n != 1
    assert checked > 380 and nonsymmetric > 290


def test_ar_sequence_at_every_projective_quotient():
    """The witnessed almost split sequence ending at each P_v/soc P_v, at
    every length, is exact through one middle term: the rad/soc summands
    and e_v A."""
    checked = longer = 0
    for t in standard_tables(float("inf")):
        for v in t.quiver.vertices:
            if not t.quiver.out_arrows[v]:
                continue
            w = proj_quotient_word(t, v)
            f, g = ar_right_map(t, w)
            assert f.target is g.source
            assert exactness_defect(f, g) == "", (str(w), v)
            summands = [projective(t, v)] + [string_module(t, s)
                                              for s in decompose_rad_mod_soc(t, v)]
            assert g.source.dims == {u: sum(S.dims[u] for S in summands)
                                     for u in t.quiver.vertices}, (str(w), v)
            checked += 1
            longer += w.length > 4
    assert checked > 380 and longer > 150


def test_exactness_defect_names_the_condition():
    t = build_table(alg_n2())
    incl, cover = omega_sequence(t, word("a"))
    assert exactness_defect(incl, cover) == ""
    zero = RepMap(incl.source, incl.target,
                  {v: [{} for _ in range(n)] for v, n in incl.source.dims.items()})
    assert exactness_defect(zero, cover) == "left map not injective"
    assert exactness_defect(incl, RepMap(cover.source, cover.target,
                                         {v: [{} for _ in range(n)] for v, n in
                                          cover.source.dims.items()})) \
        == "right map not surjective"
    # the cover with its block at vertex 1 zeroed no longer commutes with a
    broken = {**cover.blocks, "1": [{} for _ in cover.blocks["1"]]}
    assert exactness_defect(incl, RepMap(cover.source, cover.target, broken)) \
        == "right map does not intertwine"
    with pytest.raises(ValueError):
        exactness_defect(incl, omega_sequence(build_table(alg_n2()), word("a"))[1])


WITNESSED = ("tau-syzygy-oracle", "ar-sequence-exactness", "cone-oracle")


@pytest.mark.parametrize("fixture", [alg_n2, alg_l2], ids=lambda f: f.__name__)
def test_witnessed_checks_ask_no_oracle(fixture, monkeypatch):
    """Every sweep check passes with the Hom solver and the isomorphism
    search patched to raise: the bricks checks read Hom with a simple off
    the word."""
    def asked(*args):
        raise AssertionError("an oracle was asked")

    for name in ("hom", "kernel_of_map", "syzygy", "mapping_cone_rep",
                 "strip_projectives", "_hull_embedding", "is_isomorphic",
                 "find_isomorphism"):
        monkeypatch.setattr(f"biserial.reps.{name}", asked)
    results = biserial.sweep.run_sweep(fixture(), 4)["results"]
    result = {r["check"]: r for r in results}
    for name in WITNESSED:
        assert result[name] == {"check": name, "pass": True, "detail": "[]"}
    assert [r for r in results if not r["pass"]] == []
    # the patch took: the oracle itself solves Hom
    t = build_table(fixture())
    S = string_module(t, StringWord.trivial("1"))
    with pytest.raises(AssertionError, match="an oracle was asked"):
        stable_hom_dim(t, S, S)


def _failing_details(fixture):
    """The sweep's witnessed checks that fail on the fixture, with their details."""
    return {r["check"]: r["detail"] for r in biserial.sweep.run_sweep(fixture(), 3)["results"]
            if not r["pass"]}


def test_planted_glue_sign_fails_the_syzygy_step_by_name(monkeypatch):
    """The glue element beta - alpha, planted as beta + alpha, is not in the kernel."""
    walk = biserial.translate._omega_walk

    def unsigned(table, word):
        omega, peaks, marks = walk(table, word)
        return omega, peaks, {k: [(i, arrows, 1) for i, arrows, _ in terms]
                              for k, terms in marks.items()}

    monkeypatch.setattr(biserial.translate, "_omega_walk", unsigned)
    failing = _failing_details(alg_l2)
    assert list(failing) == ["tau-syzygy-oracle"]
    assert ": Omega w: composite is not zero" in failing["tau-syzygy-oracle"]


def test_planted_left_map_sign_fails_the_ar_check_by_name(monkeypatch):
    """The left map with the sign of its left-op middle flipped is no
    kernel of the right map."""
    def unsigned(table, word):
        f, g = ar_right_map(table, word)
        minus_one = table.field.neg(table.field.one)
        blocks = {v: [{j: abs(x) if x == minus_one else x for j, x in row.items()}
                      for row in rows] for v, rows in f.blocks.items()}
        return RepMap(f.source, f.target, blocks), g

    monkeypatch.setattr(biserial.sweep, "ar_right_map", unsigned)
    failing = _failing_details(alg_l2)
    assert list(failing) == ["ar-sequence-exactness"]
    assert ": composite is not zero" in failing["ar-sequence-exactness"]


def test_planted_wrong_summand_fails_the_cone_check_by_name(monkeypatch):
    """A calculus summand swapped for a word of another module no longer
    names a piece of the witnessed sequence."""
    def wrong(table, word):
        cone = cone_of_canonical_map(table, word)
        first = cone.summands[0]
        other = StringWord.trivial(next(v for v in table.quiver.vertices
                                        if not words_equal(table.quiver, first,
                                                           StringWord.trivial(v))))
        return biserial.translate.ConeResult(cone.case, [other, *cone.summands[1:]])

    monkeypatch.setattr(biserial.sweep, "cone_of_canonical_map", wrong)
    failing = _failing_details(alg_l2)
    assert list(failing) == ["cone-oracle"]
    assert "] != summands [" in failing["cone-oracle"]
    assert ": pieces [" in failing["cone-oracle"]


def test_planted_hull_map_sign_fails_the_cone_check_by_name(monkeypatch):
    """The first hull map j_K with its sign flipped is no longer cancelled
    by h_K, so the composite of the cone sequence is not zero."""
    def flipped(table, word):
        F, G = cone_sequence(table, word)
        kernels = biserial.translate._cone_nodes(table, word)[3]
        if not kernels:
            return F, G
        N = string_module(table, tau_inv(table, word))
        hull = projective(table, kernels[0][2])
        neg = table.field.neg
        blocks = {u: [{j: neg(x) if N.dims[u] <= j < N.dims[u] + hull.dims[u] else x
                       for j, x in row.items()} for row in rows]
                  for u, rows in F.blocks.items()}
        return RepMap(F.source, F.target, blocks), G

    monkeypatch.setattr(biserial.sweep, "cone_sequence", flipped)
    failing = _failing_details(alg_l2)
    assert list(failing) == ["cone-oracle"]
    assert ": composite is not zero" in failing["cone-oracle"]
