import pytest

from biserial.core import build_table
from biserial.fields import Field
from biserial.instances import (alg_a3z, alg_l2, alg_l2d, alg_n2, loop_algebra,
                                random_standard_data)
from biserial.normalizer import build_from_standard_data
from biserial.reps import projective
from biserial.strings import (BadComposition, InverseAdjacent, Letter,
                              StringWord, SubwordInSocleOrZero, canonical_form,
                              enumerate_strings, is_band, is_valid_string,
                              reverse_word, string_module, validate_string,
                              word_key, words_equal)


def w(*tokens):
    letters = []
    for tok in tokens:
        if tok.endswith("-"):
            letters.append(Letter(tok[:-1], True))
        else:
            letters.append(Letter(tok))
    return StringWord(tuple(letters))


def test_validate_basic():
    t = build_table(alg_n2())
    validate_string(t, w("a"))
    validate_string(t, StringWord.trivial("1"))
    with pytest.raises(SubwordInSocleOrZero):
        validate_string(t, w("a", "b"))  # ab lies in the socle
    with pytest.raises(InverseAdjacent):
        validate_string(t, w("a", "a-"))
    with pytest.raises(BadComposition):
        validate_string(t, w("a", "a"))  # a ends at 2, starts at 1


def test_validate_l2():
    t = build_table(alg_l2())
    validate_string(t, w("a", "b-"))
    assert not is_valid_string(t, w("a", "a"))      # a^2 = 0
    assert not is_valid_string(t, w("a", "b"))      # ab in socle
    assert is_valid_string(t, w("a", "b-", "a", "b-"))


def test_socle_letter_invalid():
    t = build_table(loop_algebra())
    assert not is_valid_string(t, w("a"))  # the loop lies in the socle


def test_canonical_form():
    t = build_table(alg_n2())
    q = t.quiver
    assert canonical_form(q, w("a-")) == w("a")
    assert canonical_form(q, StringWord.trivial("1")) == StringWord.trivial("1")
    c = w("a", "b-")
    assert canonical_form(q, canonical_form(q, c)) == canonical_form(q, c)
    q2 = build_table(alg_l2()).quiver
    assert canonical_form(q2, w("a", "b-")) == w("a", "b-")
    assert canonical_form(q2, w("b", "a-")) == w("a", "b-")


def reference_canonical_form(quiver, word):
    """The definition: the smaller of the word and its reverse by word_key."""
    rev = reverse_word(word)
    return word if word_key(quiver, word) <= word_key(quiver, rev) else rev


def canonical_form_tables():
    """The fixtures, and the standard algebras of seeds 0-59 over F3 up to dimension 40."""
    for make in (alg_n2, alg_l2, alg_l2d, alg_a3z):
        yield build_table(make())
    for seed in range(60):
        table = build_table(build_from_standard_data(*random_standard_data(seed), [],
                                                     Field(3)))
        if table.dim <= 40:
            yield table


def test_canonical_form_matches_the_reference():
    compared, differ = 0, []
    for t in canonical_form_tables():
        q = t.quiver
        for c in enumerate_strings(t, 6):
            for x in (c, reverse_word(c)):
                compared += 1
                if canonical_form(q, x) != reference_canonical_form(q, x):
                    differ.append(str(x))
    assert compared >= 8000
    assert differ == []


def test_letters_and_words_are_immutable_tuples():
    a, b = Letter("a"), Letter("b", True)
    c = StringWord((a, b))
    assert (str(a), repr(a)) == ("a", "Letter(arrow='a', inverse=False)")
    assert (str(b), repr(b)) == ("b^-1", "Letter(arrow='b', inverse=True)")
    assert str(c) == "a b^-1"
    assert repr(c) == ("StringWord(letters=(Letter(arrow='a', inverse=False), "
                       "Letter(arrow='b', inverse=True)), vertex=None)")
    e = StringWord.trivial("1")
    assert (str(e), repr(e)) == ("@1", "StringWord(letters=(), vertex='1')")
    for x, y in ((a, Letter("a", False)), (c, w("a", "b-")), (e, StringWord((), "1"))):
        assert x == y and hash(x) == hash(y) and x is not y
    assert len({c, w("a", "b-"), reverse_word(reverse_word(c))}) == 1
    assert a != a.inv() and c != reverse_word(c) and e != StringWord.trivial("2")
    for obj, attr in ((a, "inverse"), (c, "letters"), (e, "vertex")):
        with pytest.raises(AttributeError):
            setattr(obj, attr, None)


def test_string_module_shapes():
    t = build_table(alg_n2())
    M = string_module(t, w("a"))
    assert M.dim_vector() == {"1": 1, "2": 1}
    assert M.mats["a"] == [{0: t.field.one}]
    assert M.mats["b"] == [{}]
    S = string_module(t, StringWord.trivial("1"))
    assert S.dim_vector() == {"1": 1, "2": 0}
    t2 = build_table(alg_l2())
    M3 = string_module(t2, w("a", "b-"))
    assert M3.total_dim == 3
    assert M3.satisfies_relations()


def test_string_module_respects_deformed_relations():
    t = build_table(alg_l2d())
    M = string_module(t, w("a", "b-"))
    assert M.satisfies_relations()


def test_enumerate_n2():
    t = build_table(alg_n2())
    words = enumerate_strings(t, 10)
    assert len(words) == 4
    labels = {str(x) for x in words}
    assert labels == {"@1", "@2", "a", "b"}
    assert enumerate_strings(t, 2) == words


def test_enumerate_loop_algebra():
    t = build_table(loop_algebra())
    words = enumerate_strings(t, 3)
    assert [str(x) for x in words] == ["@1"]


def test_enumerate_deterministic_and_canonical():
    t = build_table(alg_l2())
    words = enumerate_strings(t, 6)
    assert words == enumerate_strings(t, 6)
    for word in words:
        assert canonical_form(t.quiver, word) == word
    keys = [word_key(t.quiver, x) for x in words]
    assert len(set(keys)) == len(keys)


def test_is_band():
    t = build_table(alg_l2())
    assert is_band(t, w("a", "b-"))
    assert not is_band(t, w("a", "b-", "a", "b-"))  # proper power
    assert not is_band(t, w("a"))                   # square dies
    t2 = build_table(alg_n2())
    assert not is_band(t2, w("a"))                  # not cyclic
    for word in enumerate_strings(t2, 8):
        if not word.is_trivial():
            assert not is_band(t2, word)


def test_maximal_directed_extensions():
    from biserial.strings import EMPTY, maximal_directed_extensions
    t = build_table(alg_n2())
    # the trivial string at 1 carries a co-hook on one side only
    ext = maximal_directed_extensions(t, StringWord.trivial("1"))
    kinds = {ext["right"][1], ext["left"][1]}
    assert kinds == {"cohook", "hook-delete"}
    attached = ext["right"] if ext["right"][1] == "cohook" else ext["left"]
    assert str(attached[0]) in ("a", "a^-1")
    # "a" has no co-hook on either side; one deletion empties the diagram
    ext2 = maximal_directed_extensions(t, w("a"))
    assert ext2["right"][1] == "hook-delete" and ext2["left"][1] == "hook-delete"
    words = {str(x[0]) for x in ext2.values()}
    assert str(EMPTY) in words  # one side is empty, the other trivial
    assert words - {str(EMPTY)} <= {"@1", "@2"}


def test_extension_commutation():
    # applying the two sides in either order agrees when both are defined
    from biserial.strings import EMPTY, EmptyWord, left_op, right_op
    for pres in (alg_n2(), alg_l2()):
        t = build_table(pres)
        for word in enumerate_strings(t, 5):
            if word.is_trivial():
                continue
            r = right_op(t, word, "tau")
            l = left_op(t, word, "tau")
            if isinstance(r.word, EmptyWord) or isinstance(l.word, EmptyWord):
                continue
            if r.word.is_trivial() or l.word.is_trivial():
                continue
            a = left_op(t, r.word, "tau").word
            b = right_op(t, l.word, "tau").word
            if not isinstance(a, EmptyWord) and not isinstance(b, EmptyWord):
                assert words_equal(t.quiver, a, b), str(word)


def test_reverse_is_involution():
    t = build_table(alg_l2())
    for word in enumerate_strings(t, 5):
        assert reverse_word(reverse_word(word)) == word
        assert words_equal(t.quiver, word, reverse_word(word))


# -- the per-table string-module cache ------------------------------------

@pytest.mark.parametrize("field", [Field(0), Field(3)], ids=["Q", "F3"])
@pytest.mark.parametrize("fixture", [alg_n2, alg_l2, alg_l2d, alg_a3z],
                         ids=lambda f: f.__name__)
def test_cached_string_modules_are_never_changed(swept_tables, fixture, field):
    """After a sweep, each cached module equals one built on a fresh table."""
    tables = swept_tables(fixture(field), max_len=3)
    # the string-dimension check built the module of every string
    assert len(tables[0]._string_modules) >= len(enumerate_strings(tables[0], 3))
    for t in tables:
        fresh = build_table(t.pres)
        for word, M in t._string_modules.items():
            N = string_module(fresh, word)
            assert M.dims == N.dims, str(word)
            assert M.mats == N.mats, str(word)
            assert M.node_positions == N.node_positions, str(word)


@pytest.mark.parametrize("field", [Field(0), Field(3)], ids=["Q", "F3"])
@pytest.mark.parametrize("fixture", [alg_n2, alg_l2, alg_l2d, alg_a3z],
                         ids=lambda f: f.__name__)
def test_cached_projectives_and_regular_actions_are_never_changed(swept_tables, fixture,
                                                                  field):
    """After a sweep, each cached e_v A equals one built on a fresh table.

    A projective's matrices share their rows with the table's regular
    action, and linalg.sub_multiple changes a row in place, so a row passed
    to it as the row being updated would show here.
    """
    tables = swept_tables(fixture(field), max_len=3)
    assert tables[0]._regular
    # the oracle checks that build projectives run on the symmetric tables
    assert tables[0]._projective_cache or fixture in (alg_l2d, alg_a3z)
    for t in tables:
        fresh = build_table(t.pres)
        for v, P in t._projective_cache.items():
            Q = projective(fresh, v)
            assert (P.dims, P.mats) == (Q.dims, Q.mats), v
        for v, action in t._regular.items():
            assert action == fresh.regular_action(v), v


def test_string_module_is_shared():
    t = build_table(alg_l2())
    for word in enumerate_strings(t, 4):
        assert string_module(t, word) is string_module(t, word)
        assert string_module(t, reverse_word(word)) is string_module(t, reverse_word(word))
    assert string_module(build_table(alg_l2()), w("a")) is not string_module(t, w("a"))


def test_invalid_word_raises_on_every_call():
    t = build_table(alg_n2())
    invalid = [(w("a", "b"), SubwordInSocleOrZero),     # ab lies in the socle
               (w("a", "a-"), InverseAdjacent),
               (w("a", "a"), BadComposition),
               (w("z"), BadComposition),
               (StringWord.trivial("9"), BadComposition)]

    def raise_each():
        for word, error in invalid:
            for _ in range(2):
                with pytest.raises(error):
                    string_module(t, word)
                with pytest.raises(error):
                    validate_string(t, word)

    raise_each()
    for word in enumerate_strings(t, 4):
        string_module(t, word)
        string_module(t, reverse_word(word))
    raise_each()
    assert all(word not in t._string_modules for word, _ in invalid)
