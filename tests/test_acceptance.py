"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Run with ``pytest tests/test_acceptance.py -s`` to see one summary line
per criterion.  The randomized pools are seeded and deterministic.
"""

import pytest

import biserial.linalg as la
from biserial.bricks import (check_orthogonal_system,
                             endpoint_multiplicity_check)
from biserial.checks import (check_one_in_one_out, check_special_biserial,
                             check_stably_biserial)
from biserial.core import build_table, check_selfinjective_symmetric
from biserial.fields import Field
from biserial.instances import (acceptance_pool, alg_l2, alg_l2d, alg_n2,
                                alg_a3z, loop_algebra, random_node_presentation,
                                random_standard_data)
from biserial.nodes import (detect_nodes, nonprojective_simple_count,
                            split_nodes)
from biserial.normalizer import build_from_standard_data, normalize
from biserial.reps import (direct_sum, exactness_defect, hom, is_isomorphic,
                           kernel_of_map, mapping_cone_rep, projective,
                           stable_hom_dim, strip_projectives, syzygy)
from biserial.strings import (StringWord, canonical_form, enumerate_strings,
                              reverse_word, words_equal)
from biserial.strings import string_module as smod
from biserial.translate import (LocalNakayamaExcluded, ar_right_map,
                                canonical_map_to_tau_inv,
                                check_tau_period_one_exclusions,
                                cone_of_canonical_map, tau, tau_inv)
from table_reference import socle_deformed

MAX_LEN = 12

# deformation-eligible random data for the normalizer criterion
DEFORM_SEEDS = (8, 12, 13, 23, 24, 33, 38)


@pytest.fixture(scope="module")
def named_fixtures():
    out = []
    for name, pres in (("ALG-N2", alg_n2()), ("ALG-L2", alg_l2())):
        out.append((name, pres, build_table(pres)))
    return out


@pytest.fixture(scope="module")
def random_pool():
    out = []
    for label, pres, data in acceptance_pool():
        out.append((label, pres, build_table(pres), data))
    return out


def test_criterion_1_tau_oracle(named_fixtures, random_pool):
    """tau agrees with the squared syzygy on every symmetric fixture."""
    fixtures = [(n, t) for n, _, t in named_fixtures]
    fixtures += [(n, t) for n, _, t, _ in random_pool]
    assert len(fixtures) >= 12
    failures = []
    total = 0
    for name, table in fixtures:
        assert check_selfinjective_symmetric(table).verdict == "symmetric"
        for c in enumerate_strings(table, MAX_LEN):
            total += 1
            M = smod(table, c)
            T = smod(table, tau(table, c))
            if not is_isomorphic(table, T, syzygy(table, syzygy(table, M))):
                failures.append((name, str(c)))
    assert not failures, failures
    print(f"\nACCEPTANCE 1 PASS tau = Omega^2 on {total} strings over "
          f"{len(fixtures)} symmetric fixtures, zero failures")


def _almost_split_check(table, words):
    """Exact, non-split and right-almost-split against all enumerated X."""
    X_list = [(w, smod(table, w)) for w in words]
    X_list += [(None, projective(table, v)) for v in table.quiver.vertices]
    checked = 0
    for c in words:
        f, g = ar_right_map(table, c)
        assert exactness_defect(f, g) == "", str(c)
        K, _ = kernel_of_map(g)
        assert g.is_surjective(), str(c)
        assert is_isomorphic(table, K, smod(table, tau(table, c))), str(c)
        for xw, X in X_list:
            target_maps = hom(table, X, g.target)
            if not target_maps:
                continue
            comps = [h.compose(g).flatten() for h in hom(table, X, g.source)]
            rank = la.span_rank(comps, table.field)
            same = xw is not None and words_equal(
                table.quiver, xw, canonical_form(table.quiver, c))
            # image of Hom(X, E) -> Hom(X, M) is exactly the non-retractions
            assert rank == len(target_maps) - (1 if same else 0), (str(c), str(xw))
            checked += 1
    return checked


def test_criterion_2_almost_split(named_fixtures):
    pairs = 0
    strings = 0
    small_random = []
    for seed in (4, 5):
        quiver, pi, mult = random_standard_data(seed)
        pres = build_from_standard_data(quiver, pi, mult, [], Field(3))
        small_random.append((f"rand-{seed}", pres, build_table(pres)))
    for name, pres, table in list(named_fixtures) + small_random:
        words = enumerate_strings(table, MAX_LEN)
        strings += len(words)
        pairs += _almost_split_check(table, words)
    print(f"\nACCEPTANCE 2 PASS almost-split sequences verified for {strings} "
          f"strings ({pairs} module pairs), zero failures")


def test_criterion_3_ext_bound_and_cones(named_fixtures, random_pool):
    fixtures = [(n, t) for n, _, t in named_fixtures]
    fixtures += [(n, t) for n, _, t, _ in random_pool[:6]]
    bound_checked = 0
    for name, table in fixtures:
        simples = [StringWord.trivial(v) for v in table.quiver.vertices]
        mods = {v: smod(table, StringWord.trivial(v))
                for v in table.quiver.vertices}
        for m in simples:
            tm = smod(table, tau_inv(table, m))
            forward = sum(stable_hom_dim(table, tm, mods[v])
                          for v in table.quiver.vertices)
            backward = sum(stable_hom_dim(
                table, smod(table, tau_inv(table, StringWord.trivial(v))),
                mods[m.vertex]) for v in table.quiver.vertices)
            assert forward <= 2 and backward <= 2, (name, str(m))
            bound_checked += 1
    from biserial.strings import directed_runs
    cones = 0
    for name, table in [(n, t) for n, _, t in named_fixtures] + \
            [(n, t) for n, _, t, _ in random_pool[:3]]:
        for c in enumerate_strings(table, 8):
            fmap = canonical_map_to_tau_inv(table, c)
            cone = cone_of_canonical_map(table, c)
            # structurally a sum of at most two maximal directed strings
            assert len(cone.summands) <= 2
            for s in cone.summands:
                assert len(directed_runs(s)) <= 1, (name, str(c), str(s))
            reduced, _ = strip_projectives(table,
                                           mapping_cone_rep(table, fmap))
            expected = direct_sum(*[smod(table, s) for s in cone.summands])
            assert is_isomorphic(table, reduced, expected), (name, str(c))
            cones += 1
    print(f"\nACCEPTANCE 3 PASS stable-hom bound <= 2 at {bound_checked} "
          f"simples; {cones} cones match the linear-algebra mapping cone")


def test_criterion_4_tau_period_exclusions(named_fixtures, random_pool):
    count = 0
    for name, table in [(n, t) for n, _, t in named_fixtures] + \
            [(n, t) for n, _, t, _ in random_pool]:
        report = check_tau_period_one_exclusions(table)
        assert report["all_pass"], name
        count += 1
    with pytest.raises(LocalNakayamaExcluded):
        check_tau_period_one_exclusions(build_table(loop_algebra()))
    print(f"\nACCEPTANCE 4 PASS no tau-fixed simple or P/soc on {count} "
          f"fixtures; local Nakayama input rejected")


def test_criterion_5_endpoints_and_nodes(named_fixtures, random_pool):
    systems = 0
    for name, table in [(n, t) for n, _, t in named_fixtures] + \
            [(n, t) for n, _, t, _ in random_pool]:
        simples = [StringWord.trivial(v) for v in table.quiver.vertices]
        ok, _ = check_orthogonal_system(table, simples)
        assert ok, name
        mult_ok, counts, _ = endpoint_multiplicity_check(table, simples)
        assert mult_ok, (name, counts)
        systems += 1
    # node surgery: fixture plus randomized node-bearing presentations
    node_runs = 0
    for pres in [alg_a3z()] + [random_node_presentation(s) for s in range(6)]:
        table = build_table(pres)
        report = detect_nodes(table)
        assert report.nodes
        split = split_nodes(table)
        split_table = build_table(split)
        assert detect_nodes(split_table).nodes == []
        assert (nonprojective_simple_count(split_table)
                == nonprojective_simple_count(table))
        assert check_special_biserial(split_table).is_special_biserial
        node_runs += 1
    print(f"\nACCEPTANCE 5 PASS endpoint multiplicity <= 2 on {systems} "
          f"systems; node splitting clean on {node_runs} presentations")


def test_criterion_6_normalizer():
    runs = []
    for seed in DEFORM_SEEDS:
        for char in (0, 3, 2):
            pres, defs = socle_deformed(seed, Field(char))
            table = build_table(pres)
            out = normalize(table)  # replay isomorphism verified inside
            base_table = build_table(out.base)
            assert base_table.dim == table.dim
            assert check_special_biserial(base_table).is_special_biserial
            if char == 2:
                assert sorted(out.deformations) == sorted(defs), seed
            else:
                assert out.deformations == []
            runs.append((seed, char))
    assert len(runs) >= 20
    # golden case over the rationals and over F2
    pres = alg_l2d()
    out = normalize(build_table(pres))
    assert [s for s in out.substitutions if s.coeff is not None][0].path == ("b",)
    assert out.deformations == []
    out2 = normalize(build_table(alg_l2d(Field(2))))
    assert out2.deformations == [("a", 1)]
    print(f"\nACCEPTANCE 6 PASS normalizer exact on {len(runs)} randomized "
          f"deformed runs over Q, F3, F2 plus the golden fixture")


def test_criterion_7_recognizer_coherence(random_pool):
    checked = 0
    for name, pres, table, data in random_pool:
        rep = check_special_biserial(table)
        assert rep.is_special_biserial, name
        assert rep.is_stably_biserial, name
        assert check_selfinjective_symmetric(table).verdict == "symmetric"
        stb = check_stably_biserial(table)
        assert stb.is_stably_biserial
        ok, _ = check_one_in_one_out(pres.quiver)
        assert ok, name
        checked += 1
    print(f"\nACCEPTANCE 7 PASS recognizers coherent on {checked} "
          f"constructed standard algebras")


def test_criterion_8_string_basics(named_fixtures):
    t_n2 = named_fixtures[0][2]
    words = enumerate_strings(t_n2, 10)
    assert len(words) == 4
    assert {str(w) for w in words} == {"@1", "@2", "a", "b"}
    count = 0
    for name, pres, table in named_fixtures:
        q = table.quiver
        for c in enumerate_strings(table, 8):
            cc = canonical_form(q, c)
            assert canonical_form(q, cc) == cc
            M = smod(table, c)
            assert M.total_dim == c.length + 1
            assert is_isomorphic(table, M, smod(table, reverse_word(c)))
            count += 1
    print(f"\nACCEPTANCE 8 PASS canonical forms, reverse isomorphisms and "
          f"dimensions on {count} strings; exactly 4 strings over ALG-N2")
