import pytest

from biserial.checks import NotSelfinjective
from biserial.core import build_table
from biserial.instances import alg_a3z, alg_l2, alg_n2, loop_algebra
from biserial.reps import (cokernel_of_map, cosyzygy, decompose_rad_mod_soc,
                           direct_sum, hom, injective_hull, is_isomorphic,
                           kernel_of_map, projective, projective_cover,
                           stable_hom_dim, strip_projectives, syzygy)
from biserial.strings import Letter, StringWord, string_module


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
    from biserial.reps import top_dims
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


def test_stable_hom_via_injective_side():
    # the factoring subspace computed through I(M) must agree in dimension
    t = build_table(alg_l2())
    import biserial.linalg as la
    words = [word("a"), word("a", "b-"), StringWord.trivial("1")]
    for w1 in words:
        for w2 in words:
            M = string_module(t, w1)
            N = string_module(t, w2)
            direct = stable_hom_dim(t, M, N)
            I, emb, _, _ = injective_hull(t, M)
            vecs = []
            for h in hom(t, I, N):
                v = emb.compose(h).flatten()
                if any(x != t.field.zero for x in v):
                    vecs.append(v)
            through_inj = len(hom(t, M, N)) - (la.span_rank(vecs, t.field)
                                               if vecs else 0)
            assert direct == through_inj


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
