import itertools
import random

import pytest

import biserial.linalg as la
import biserial.reps
from biserial.checks import NotSelfinjective
from biserial.core import build_table, check_selfinjective_symmetric
from biserial.fields import Field
from biserial.instances import (alg_a3z, alg_l2, alg_l2d, alg_n2, loop_algebra,
                                random_standard_data)
from biserial.normalizer import build_from_standard_data
from biserial.presentations import parse_presentation
from biserial.reps import (ModuleRep, RepMap, Undecided, cokernel_of_map,
                           decompose_rad_mod_soc, direct_sum, find_isomorphism,
                           hom, injective_hull, is_isomorphic, kernel_of_map,
                           mapping_cone_rep, projective, projective_cover, stable_hom_dim,
                           strip_projectives, syzygy)
from biserial.strings import Letter, StringWord, enumerate_strings, string_module
from biserial.sweep import run_sweep
from biserial.translate import canonical_map_to_tau_inv
from table_reference import cosyzygy, reference_strip_projectives, top_dims

FIELDS = [Field(0), Field(2), Field(3), Field(5)]
FIXTURES = {"n2": alg_n2, "l2d": alg_l2d, "a3z": alg_a3z}


def word(*toks):
    return StringWord(tuple(Letter(t[:-1], True) if t.endswith("-") else Letter(t)
                            for t in toks))


def test_projectives():
    t = build_table(alg_n2())
    P1 = projective(t, "1")
    assert P1.dim_vector() == {"1": 2, "2": 1}
    t2 = build_table(alg_l2())
    assert projective(t2, "1").total_dim == 4
    t3 = build_table(loop_algebra())
    assert projective(t3, "1").total_dim == 2


def test_hom_examples():
    t = build_table(alg_n2())
    S1 = string_module(t, StringWord.trivial("1"))
    S2 = string_module(t, StringWord.trivial("2"))
    Ma = string_module(t, word("a"))
    assert len(hom(t, S1, S1)) == 1
    assert len(hom(t, S1, S2)) == 0
    assert len(hom(t, Ma, projective(t, "1"))) == 1
    for f in hom(t, Ma, Ma):
        assert f.intertwines()


def test_projective_cover_syzygies():
    t = build_table(alg_n2())
    S1 = string_module(t, StringWord.trivial("1"))
    P, cover, K, incl = projective_cover(t, S1)
    assert P.dim_vector() == {"1": 2, "2": 1}
    assert cover.is_surjective()
    assert incl.intertwines() and incl.is_injective()
    # Omega(S1) is the string module of "b" (the radical of P1)
    assert is_isomorphic(t, K, string_module(t, word("b")))
    # Omega(M_b) = S2
    Mb = string_module(t, word("b"))
    assert is_isomorphic(t, syzygy(t, Mb), string_module(t, StringWord.trivial("2")))
    # Omega(P1) = 0
    assert syzygy(t, projective(t, "1")).is_zero()


def test_cover_minimality():
    t = build_table(alg_n2())
    for w in (word("a"), word("b"), StringWord.trivial("1")):
        M = string_module(t, w)
        P, cover, K, incl = projective_cover(t, M)
        # minimal covers match the top dimension summand by summand
        tops = top_dims(M)
        assert P.total_dim == sum(projective(t, v).total_dim * d
                                  for v, d in tops.items())
        assert cover.is_surjective()


def test_injective_hull_and_cosyzygy():
    t = build_table(alg_n2())
    S2 = string_module(t, StringWord.trivial("2"))
    I, emb, coker, proj_map = injective_hull(t, S2)
    assert emb.is_injective() and emb.intertwines()
    assert I.dim_vector() == {"1": 1, "2": 2}  # P2 in disguise
    # P2 / soc P2 is the string module of "b"
    assert is_isomorphic(t, coker, string_module(t, word("b")))
    # Omega^{-1} Omega = identity on non-projectives
    S1 = string_module(t, StringWord.trivial("1"))
    assert is_isomorphic(t, cosyzygy(t, syzygy(t, S1)), S1)
    assert cosyzygy(t, projective(t, "1")).is_zero()


def test_injective_hull_needs_selfinjective_table():
    # the class the CLI reports as a domain error (exit 1)
    t = build_table(alg_a3z())
    with pytest.raises(NotSelfinjective):
        injective_hull(t, string_module(t, StringWord.trivial("1")))


def test_stable_hom_examples():
    t = build_table(alg_n2())
    Ma = string_module(t, word("a"))
    S1 = string_module(t, StringWord.trivial("1"))
    assert stable_hom_dim(t, Ma, Ma) == 1
    assert stable_hom_dim(t, Ma, S1) == 1
    for v in t.quiver.vertices:
        P = projective(t, v)
        assert stable_hom_dim(t, P, Ma) == 0
        assert stable_hom_dim(t, Ma, P) == 0
    assert stable_hom_dim(t, Ma, Ma) <= len(hom(t, Ma, Ma))


NAKAYAMA_RAD2_TEXT = """
field Q
vertex 1 2
arrow a : 1 -> 2
arrow b : 2 -> 1
rel a b = 0
rel b a = 0
"""

# tables per group: the fixtures over every field; the selfinjective but
# not symmetric Nakayama algebra with rad^2 = 0; seeded standard algebras
# over F3; and a3z, which is not selfinjective
STABLE_HOM_TABLES = {
    "fixtures": lambda: [build_table(alg(f)) for alg in (alg_n2, alg_l2, alg_l2d)
                         for f in FIELDS],
    "nakayama-rad2": lambda: [build_table(parse_presentation(NAKAYAMA_RAD2_TEXT))],
    "standard-f3": lambda: [
        build_table(build_from_standard_data(*random_standard_data(seed), [], Field(3)))
        for seed in range(8)],
    "a3z": lambda: [build_table(alg_a3z())],
}


def factoring_via_injective_hull(t, M):
    """N -> the composites M -> I(M) -> N."""
    I, emb, _, _ = injective_hull(t, M)
    return lambda N: [emb.compose(h) for h in hom(t, I, N)]


def factoring_via_whole_cover(t, M):
    """N -> the composites M -> P -> N through the whole projective cover P of N.

    The reference: one Hom(M, P) over the whole cover instead of one
    Hom(M, e_v A) per top vertex.
    """
    def through_cover(N):
        P, cover, _, _ = projective_cover(t, N)
        return [h.compose(cover) for h in hom(t, M, P)]
    return through_cover


@pytest.mark.parametrize("group", STABLE_HOM_TABLES)
def test_stable_hom_via_injective_side(group):
    # stable Hom through the cover's generator maps must agree with the
    # factoring maps through I(M) on selfinjective tables, and with Hom(M, P)
    # through the whole cover P of N on a3z
    for t in STABLE_HOM_TABLES[group]():
        selfinjective = check_selfinjective_symmetric(t).verdict != "not-selfinjective"
        assert selfinjective == (group != "a3z")
        modules = [string_module(t, w) for w in enumerate_strings(t, 2)]
        modules += [projective(t, v) for v in t.quiver.vertices]
        for M in modules:
            factoring = (factoring_via_injective_hull if selfinjective
                         else factoring_via_whole_cover)(t, M)
            for N in modules:
                vectors = [g.flatten() for g in factoring(N)]
                expected = len(hom(t, M, N)) - la.span_rank(vectors, t.field)
                assert stable_hom_dim(t, M, N) == expected


def test_is_isomorphic():
    t = build_table(alg_n2())
    Ma = string_module(t, word("a"))
    Mrev = string_module(t, word("a-"))
    assert is_isomorphic(t, Ma, Mrev)
    S1 = string_module(t, StringWord.trivial("1"))
    S2 = string_module(t, StringWord.trivial("2"))
    assert not is_isomorphic(t, S1, S2)
    # M_a is rad P2
    P2 = projective(t, "2")
    from biserial.reps import radical_rows, sub_rep
    R, _ = sub_rep(P2, radical_rows(P2))
    assert is_isomorphic(t, Ma, R)
    # decomposable case needs combinations
    assert is_isomorphic(t, direct_sum(S1, S2), direct_sum(S2, S1))


def test_decompose_rad_mod_soc():
    t = build_table(alg_n2())
    words = decompose_rad_mod_soc(t, "1")
    assert [str(x) for x in words] == ["@2"]
    t2 = build_table(alg_l2())
    words = decompose_rad_mod_soc(t2, "1")
    assert [str(x) for x in words] == ["@1", "@1"]
    t3 = build_table(loop_algebra())
    assert decompose_rad_mod_soc(t3, "1") == []


def test_strip_projectives():
    t = build_table(alg_n2())
    S1 = string_module(t, StringWord.trivial("1"))
    C = direct_sum(S1, projective(t, "1"), projective(t, "2"))
    reduced, stripped = strip_projectives(t, C)
    assert sorted(stripped) == ["1", "2"]
    assert is_isomorphic(t, reduced, S1)
    reduced2, stripped2 = strip_projectives(t, S1)
    assert not stripped2 and is_isomorphic(t, reduced2, S1)


def test_kernel_cokernel_roundtrip():
    t = build_table(alg_n2())
    P, cover, K, incl = projective_cover(t, string_module(t, word("b")))
    Q, proj_map = cokernel_of_map(incl)
    assert is_isomorphic(t, Q, string_module(t, word("b")))
    K2, _ = kernel_of_map(cover)
    assert is_isomorphic(t, K2, K)


def change_of_basis(M: ModuleRep, rng: random.Random) -> ModuleRep:
    """M with every vertex space in a seeded random basis: N_a = T_s M_a T_t^-1."""
    f = M.field
    T = {}
    for v, n in M.dims.items():
        while True:
            m = [{j: x for j in range(n) if (x := f.of(rng.randrange(-3, 4)))}
                 for _ in range(n)]
            if la.is_invertible(m, f):
                T[v] = m
                break
    mats = {a.name: la.mat_mul(la.mat_mul(T[a.source], M.mats[a.name], f),
                               la.inverse(T[a.target], f), f)
            for a in M.table.quiver.arrows}
    return ModuleRep(M.table, M.dims, mats)


@pytest.mark.parametrize("seed, field, max_len", [(15, Field(3), 4), (78, Field(0), 3)])
def test_sweep_passes_where_a_capped_search_gave_up(seed, field, max_len):
    pres = build_from_standard_data(*random_standard_data(seed), [], field)
    payload = run_sweep(pres, max_len)
    assert payload["all_pass"], [r for r in payload["results"] if not r["pass"]]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("name", FIXTURES)
def test_witness_for_a_change_of_basis(name, field):
    t = build_table(FIXTURES[name](field))
    words = enumerate_strings(t, 3)
    for seed in range(8):
        rng = random.Random(seed)
        M = direct_sum(*[string_module(t, rng.choice(words))
                         for _ in range(rng.randint(2, 4))])
        N = change_of_basis(M, rng)
        g = find_isomorphism(t, M, N)
        assert g is not None and g.source is M and g.target is N
        assert g.intertwines()
        assert all(la.is_invertible(g.blocks[v], field)
                   for v in t.quiver.vertices if M.dims[v])


def test_many_summands_over_f2_are_never_called_non_isomorphic():
    # six pairwise non-isomorphic string summands: a random combination of
    # Hom(M, N) is invertible with probability 2^-6 only
    t = build_table(alg_l2d(Field(2)))
    M = direct_sum(*[string_module(t, w) for w in enumerate_strings(t, 3)[:6]])
    assert len(hom(t, M, M)) == 82
    for seed in range(6):
        N = change_of_basis(M, random.Random(seed))
        try:
            assert is_isomorphic(t, M, N)
        except Undecided:
            pass


@pytest.mark.parametrize("field", [Field(0), Field(3)], ids=repr)
def test_strip_projectives_splits_every_projective_summand(field):
    t = build_table(alg_n2(field))
    rng = random.Random(4)
    X = direct_sum(string_module(t, word("a")), string_module(t, StringWord.trivial("2")))
    C = direct_sum(projective(t, "2"), X, projective(t, "1"), projective(t, "2"))
    reduced, stripped = strip_projectives(t, change_of_basis(C, rng))
    assert stripped == ["1", "2", "2"]
    g = find_isomorphism(t, reduced, X)
    assert g is not None and g.intertwines()
    # a module with no projective summand comes back whole
    reduced, stripped = strip_projectives(t, X)
    assert stripped == [] and reduced is X


def _cones(t, max_len):
    """(word, mapping cone of its canonical map to tau^-1) for every string."""
    return [(w, mapping_cone_rep(t, canonical_map_to_tau_inv(t, w)))
            for w in enumerate_strings(t, max_len)]


@pytest.mark.parametrize("field", [Field(3), Field(0)], ids=repr)
def test_strip_projectives_matches_the_hom_route(field):
    stripping = 0
    for seed in range(20):
        t = build_table(build_from_standard_data(*random_standard_data(seed), [], field))
        for w, C in _cones(t, 3):
            reduced, stripped = strip_projectives(t, C)
            ref_reduced, ref_stripped = reference_strip_projectives(t, C)
            assert stripped == ref_stripped, (seed, str(w))
            g = find_isomorphism(t, reduced, ref_reduced)
            assert g is not None and g.intertwines(), (seed, str(w))
            stripping += bool(stripped)
    assert stripping > 100      # the pool exercises the split, not only C itself


def test_strip_projectives_solves_no_hom(monkeypatch):
    def no_hom(*args):
        raise AssertionError("strip_projectives solved a Hom")

    stripping = 0
    for alg in (alg_n2, alg_l2):
        t = build_table(alg())
        cones = _cones(t, 6)
        with monkeypatch.context() as m:
            m.setattr(biserial.reps, "hom", no_hom)
            results = [strip_projectives(t, C) for _, C in cones]
        for (w, C), (reduced, stripped) in zip(cones, results):
            ref_reduced, ref_stripped = reference_strip_projectives(t, C)
            assert stripped == ref_stripped, str(w)
            assert is_isomorphic(t, reduced, ref_reduced), str(w)
            stripping += bool(stripped)
    assert stripping        # the l2 cones carry projective summands


def test_strip_projectives_needs_selfinjective_table():
    t = build_table(alg_a3z())
    with pytest.raises(NotSelfinjective):
        strip_projectives(t, projective(t, "1"))


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_non_isomorphic_modules_with_equal_dimension_vectors(field):
    pairs = 0
    for alg in (alg_n2, alg_l2, alg_l2d, alg_a3z):
        t = build_table(alg(field))
        words = enumerate_strings(t, 3)
        # distinct canonical strings give non-isomorphic string modules
        mods = [string_module(t, w) for w in words]
        sums = [direct_sum(mods[i], mods[j])
                for i, j in itertools.combinations_with_replacement(range(len(mods)), 2)]
        for family in (mods, sums):
            for M, N in itertools.combinations(family, 2):
                if M.dim_vector() == N.dim_vector():
                    pairs += 1
                    assert find_isomorphism(t, M, N) is None
    assert pairs > 50


def misshapen_rows(matrix, n_rows: int, n_cols: int) -> bool:
    """Is matrix other than n_rows sparse rows over n_cols columns, no zero stored?"""
    return len(matrix) != n_rows or any(
        not all(row.values()) or any(type(j) is not int or not 0 <= j < n_cols for j in row)
        for row in matrix)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("fixture", [alg_n2, alg_l2, alg_l2d, alg_a3z],
                         ids=lambda f: f.__name__)
def test_every_stored_row_is_sparse_and_in_shape(monkeypatch, fixture, field):
    """The rows of every module and map a sweep builds, after the sweep.

    RepMap.intertwines compares rows with ==, and sub_multiple needs rows
    without a zero entry, so both rest on this invariant.
    """
    modules, maps = [], []
    module_init, map_init = ModuleRep.__init__, RepMap.__init__

    def record_module(self, *args):
        module_init(self, *args)
        modules.append(self)

    def record_map(self, *args):
        map_init(self, *args)
        maps.append(self)

    monkeypatch.setattr(ModuleRep, "__init__", record_module)
    monkeypatch.setattr(RepMap, "__init__", record_map)
    run_sweep(fixture(field), max_len=3)
    assert modules and maps
    bad = [(a.name, M.dims) for M in modules for a in M.table.quiver.arrows
           if misshapen_rows(M.mats[a.name], M.dims[a.source], M.dims[a.target])]
    bad += [(v, g.source.dims, g.target.dims) for g in maps for v in g.source.dims
            if misshapen_rows(g.blocks[v], g.source.dims[v], g.target.dims[v])]
    assert bad == []
