from itertools import chain

import pytest

import biserial.bricks
from biserial.bricks import (_deep_vertices, _hom_with_simple,
                             check_bounded_maximality, check_orthogonal_system,
                             endpoint_multiplicity_check, is_stable_brick,
                             omega_word, s_projective, stable_hom_of_words,
                             verify_shape_lemmas)
from biserial.cli import main
from biserial.core import build_table, check_selfinjective_symmetric
from biserial.fields import Field
from biserial.instances import (ALG_A3Z_TEXT, ALG_N2_TEXT, alg_a3z, alg_l2, alg_n2,
                                random_standard_data)
from biserial.normalizer import build_from_standard_data
from biserial.presentations import parse_presentation
from biserial.reps import is_isomorphic, stable_hom_dim, syzygy
from biserial.strings import (Letter, StringWord, enumerate_strings,
                              string_module, words_equal)
from biserial.translate import NotSelfinjectiveSB, tau_inv
from table_reference import nakayama, reference_deep_vertices, socle_deformed


def word(*toks):
    return StringWord(tuple(Letter(t[:-1], True) if t.endswith("-") else Letter(t)
                            for t in toks))


def simples(table):
    return [StringWord.trivial(v) for v in table.quiver.vertices]


def test_stable_bricks():
    t = build_table(alg_n2())
    assert is_stable_brick(t, word("a"))
    assert is_stable_brick(t, StringWord.trivial("1"))
    t2 = build_table(alg_l2())
    # tau-period one, excluded despite End = k
    assert not is_stable_brick(t2, word("a"))


def test_orthogonal_system():
    t = build_table(alg_n2())
    ok, _ = check_orthogonal_system(t, simples(t))
    assert ok
    bad, violation = check_orthogonal_system(t, [StringWord.trivial("1"), word("a")])
    assert not bad and violation[0] == "nonzero stable hom"
    ok_single, _ = check_orthogonal_system(t, [StringWord.trivial("1")])
    assert ok_single


def test_bounded_maximality():
    t = build_table(alg_n2())
    ok, _ = check_bounded_maximality(t, simples(t), 10)
    assert ok
    partial, witness = check_bounded_maximality(t, [StringWord.trivial("1")], 10)
    assert not partial and witness == "@2"
    empty_ok, _ = check_bounded_maximality(t, [], 10)
    assert not empty_ok


def test_omega_word():
    t = build_table(alg_n2())
    assert str(omega_word(t, StringWord.trivial("1"))) == "b"
    # against the oracle on non-simples
    for c in enumerate_strings(t, 6):
        ow = omega_word(t, c)
        K = syzygy(t, string_module(t, c))
        if ow is None:
            assert K.is_zero()
        else:
            assert is_isomorphic(t, string_module(t, ow), K)


def test_s_projective_fixture():
    t = build_table(alg_n2())
    sys_words = simples(t)
    info = s_projective(t, sys_words, StringWord.trivial("1"))
    assert str(info.word) == "a"
    assert str(info.s_top) == "@1"
    assert [str(r) for r in info.s_rad] == ["@2"]
    # N = tau^{-1} Omega(M) and stable Hom(N, sum of members) = 1
    n_mod = string_module(t, info.word)
    total = sum(stable_hom_dim(t, n_mod, string_module(t, m)) for m in sys_words)
    assert total == 1
    # s-rad summands have simple s-top
    for r in info.s_rad:
        r_mod = string_module(t, r)
        assert sum(stable_hom_dim(t, r_mod, string_module(t, m))
                   for m in sys_words) == 1


def test_s_projective_realization():
    t = build_table(alg_n2())
    m = StringWord.trivial("1")
    info = s_projective(t, simples(t), m)
    assert words_equal(t.quiver, info.word, tau_inv(t, omega_word(t, m)))


def test_endpoint_multiplicity():
    t = build_table(alg_n2())
    ok, twice, once = endpoint_multiplicity_check(t, simples(t))
    assert ok
    assert twice == {"1": 2, "2": 2}
    assert once == {"1": 1, "2": 1}
    ok_empty, twice_empty, _ = endpoint_multiplicity_check(t, [])
    assert ok_empty and twice_empty == {}
    # a non-trivial word contributes both endpoints once
    _, counts, _ = endpoint_multiplicity_check(t, [word("a")])
    assert counts == {"1": 1, "2": 1}


def test_shape_lemmas_fixtures():
    for pres in (alg_n2(), alg_l2()):
        t = build_table(pres)
        report = verify_shape_lemmas(t, simples(t))
        for entry in report:
            assert all(entry["checks"].values()), entry


def test_stable_hom_bound_with_simples():
    # dim stable Hom(tau^{-1}M, sum of simples) <= 2 and dually
    for pres in (alg_n2(), alg_l2()):
        t = build_table(pres)
        sys_words = simples(t)
        mods = {str(w): string_module(t, w) for w in sys_words}
        for m in sys_words:
            tm = string_module(t, tau_inv(t, m))
            out = sum(stable_hom_dim(t, tm, mods[str(s)]) for s in sys_words)
            into = sum(stable_hom_dim(t, string_module(t, tau_inv(t, s)),
                                      mods[str(m)]) for s in sys_words)
            assert out <= 2 and into <= 2


def test_deep_vertices_match_the_scan():
    """The deeps read as the peaks of the turned-round word are the nodes
    a scan finds no arrow leaving, on every string up to length 6."""
    compared = 0
    for seed in range(40):
        t = build_table(build_from_standard_data(*random_standard_data(seed), [],
                                                 Field(3)))
        for w in enumerate_strings(t, 6):
            assert _deep_vertices(t.quiver, w) == reference_deep_vertices(t.quiver, w), \
                (seed, str(w))
            compared += 1
    assert compared > 4000


# -- stable Hom with a simple, read off the word ------------------------------

READ_LEN = 4


def standard_tables():
    """Standard seeds 0-39 over F3, Q and F2, of dimension at most 24."""
    for field in (Field(3), Field(0), Field(2)):
        for seed in range(40):
            t = build_table(build_from_standard_data(*random_standard_data(seed), [],
                                                     field))
            if t.dim <= 24:
                yield t


def nakayama_tables():
    """Cyclic Nakayama tables on 1-5 vertices with relations of length 2-6."""
    for field in (Field(3), Field(2)):
        for n in range(1, 6):
            for length in range(2, 7):
                yield build_table(nakayama(n, length, field))


def deformed_tables():
    """Socle-deformed standard seeds 0-39 over F2 and F3."""
    for field in (Field(2), Field(3)):
        for seed in range(40):
            yield build_table(socle_deformed(seed, field)[0])


def oracle_mismatches(tables, reading):
    """(number of pairs compared, the pairs where reading(table, m, n)
    differs from stable_hom_dim), over every pair of a string up to
    READ_LEN with a simple, in both directions."""
    compared, bad = 0, []
    for t in tables:
        for w in enumerate_strings(t, READ_LEN):
            for s in simples(t):
                for m, n in ((w, s), (s, w)):
                    expected = stable_hom_dim(t, string_module(t, m), string_module(t, n))
                    if reading(t, m, n) != expected:
                        bad.append((str(m), str(n)))
                    compared += 1
    return compared, bad


def test_stable_hom_with_a_simple_is_read_off_the_word():
    """Peaks against a simple target, deeps from a simple source, on the
    selfinjective special biserial ranges."""
    compared, bad = oracle_mismatches(chain(standard_tables(), nakayama_tables()),
                                      stable_hom_of_words)
    assert bad == []
    assert compared > 12800
    # a simple projective has no stable maps
    isolated = build_table(parse_presentation(
        ALG_N2_TEXT.replace("vertex 1 2", "vertex 1 2 3")))
    assert oracle_mismatches([isolated], stable_hom_of_words) == (30, [])
    assert stable_hom_of_words(isolated, word("a"), StringWord.trivial("3")) == 0


def test_the_reading_holds_on_selfinjective_deformed_tables():
    """The deformed tables are not special biserial, so the entry point
    refuses them; the word count still equals the oracle on every one that
    is selfinjective, as the theorem needs."""
    tables = []
    for t in deformed_tables():
        simple = StringWord.trivial(t.quiver.vertices[0])
        with pytest.raises(NotSelfinjectiveSB):
            stable_hom_of_words(t, simple, simple)
        if check_selfinjective_symmetric(t).verdict != "not-selfinjective":
            tables.append(t)
    assert len(tables) >= 77
    compared, bad = oracle_mismatches(tables, lambda t, m, n: _hom_with_simple(t.quiver, m, n))
    assert bad == []
    assert compared > 27000


def test_swapped_peaks_and_deeps_fail_the_comparison(monkeypatch):
    monkeypatch.setattr(biserial.bricks, "_peak_vertices", biserial.bricks._deep_vertices)
    monkeypatch.setattr(biserial.bricks, "_deep_vertices", biserial.bricks._peak_vertices)
    assert any(oracle_mismatches([t], stable_hom_of_words)[1] for t in standard_tables())


def test_the_reading_needs_a_selfinjective_special_biserial_table(tmp_path, capsys):
    t = build_table(alg_a3z())
    with pytest.raises(NotSelfinjectiveSB,
                       match="operation requires a selfinjective special biserial table"):
        stable_hom_of_words(t, StringWord.trivial("1"), StringWord.trivial("2"))
    path = tmp_path / "a3z.alg"
    path.write_text(ALG_A3Z_TEXT)
    assert main(["bricks", str(path), "--set", "@1,@2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: operation requires a selfinjective special biserial table\n"
