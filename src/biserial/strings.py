"""String words over an algebra table: validity, canonical forms, modules.

A string is a reduced walk of arrows and formal inverses whose directed
runs avoid the socle; trivial strings carry a base vertex.  The hook and
co-hook surgeries that drive the translation calculus also live here, as
one-sided operations with alignment metadata.  Letters are the quiver's
own (``core.Letter``, re-exported here): reversal, enumeration and the
surgeries look them up, and ``make_word`` builds their words.
"""

from __future__ import annotations

from collections import namedtuple

from .core import AlgebraTable, DomainError, Letter, Quiver, Record


class StringError(DomainError):
    pass


class BadComposition(StringError):
    pass


class InverseAdjacent(StringError):
    pass


class SubwordInSocleOrZero(StringError):
    pass


class StringWord(namedtuple("StringWord", ("letters", "vertex"), defaults=(None,))):
    """A tuple of letters, or a base vertex for a trivial string; immutable.

    ``vertex`` is the base vertex of a trivial string and None otherwise.
    """

    __slots__ = ()

    @staticmethod
    def trivial(vertex: str) -> "StringWord":
        return StringWord((), vertex)

    @property
    def length(self) -> int:
        return len(self.letters)

    def is_trivial(self) -> bool:
        return not self.letters

    def __str__(self) -> str:
        if self.is_trivial():
            return f"@{self.vertex}"
        return " ".join(str(l) for l in self.letters)


def make_word(letters: tuple) -> StringWord:
    """A nontrivial word, skipping the Python-level namedtuple ``__new__``."""
    return tuple.__new__(StringWord, (letters, None))


class EmptyWord:
    """Result marker for hook deletions that consume the whole diagram."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "<empty>"


EMPTY = EmptyWord()


def letter_source(quiver: Quiver, letter: Letter) -> str:
    a = quiver.arrow_by_name[letter.arrow]
    return a.target if letter.inverse else a.source


def letter_target(quiver: Quiver, letter: Letter) -> str:
    a = quiver.arrow_by_name[letter.arrow]
    return a.source if letter.inverse else a.target


def word_source(quiver: Quiver, word: StringWord) -> str:
    return word.vertex if word.is_trivial() else letter_source(quiver, word.letters[0])


def word_target(quiver: Quiver, word: StringWord) -> str:
    return word.vertex if word.is_trivial() else letter_target(quiver, word.letters[-1])


def reverse_word(quiver: Quiver, word: StringWord) -> StringWord:
    """The walk run backwards: each letter's inverse, last first."""
    if not word.letters:
        return word
    return make_word(tuple(map(quiver.inverse.__getitem__, reversed(word.letters))))


def directed_runs(word: StringWord):
    """Maximal same-direction segments as (start, end, inverse) triples."""
    runs = []
    i = 0
    n = word.length
    while i < n:
        j = i
        while j + 1 < n and word.letters[j + 1].inverse == word.letters[i].inverse:
            j += 1
        runs.append((i, j, word.letters[i].inverse))
        i = j + 1
    return runs


def validate_string(table: AlgebraTable, word: StringWord) -> StringWord:
    """Check all string axioms against the table; return the word."""
    q = table.quiver
    if word.is_trivial():
        if word.vertex not in set(q.vertices):
            raise BadComposition(f"unknown vertex {word.vertex!r}")
        return word
    for l in word.letters:
        if l.arrow not in q.arrow_by_name:
            raise BadComposition(f"unknown arrow {l.arrow!r}")
    for a, b in zip(word.letters, word.letters[1:]):
        if letter_target(q, a) != letter_source(q, b):
            raise BadComposition(f"letters {a} and {b} do not compose")
        if b == q.inverse[a]:
            raise InverseAdjacent(f"letters {a} {b} cancel")
    for start, end, inverse in directed_runs(word):
        arrows = tuple(l.arrow for l in word.letters[start:end + 1])[::-1 if inverse else 1]
        if not table.off_socle(arrows):
            raise SubwordInSocleOrZero(
                f"directed subword {' '.join(arrows)} is zero or lies in the socle")
    return word


def is_valid_string(table: AlgebraTable, word: StringWord) -> bool:
    try:
        validate_string(table, word)
        return True
    except StringError:
        return False


def word_key(quiver: Quiver, word: StringWord):
    if word.is_trivial():
        return (0, quiver.vertices.index(word.vertex))
    return (1, tuple((quiver.arrow_index[l.arrow], 1 if l.inverse else 0)
                     for l in word.letters))


def canonical_form(quiver: Quiver, word) -> StringWord:
    """Deterministic representative of {c, c^-1}: the smaller by word_key.

    Letter i of the reverse is the inverse of letter n-1-i, so the two
    keys are compared in place and the reverse is built only when it wins.
    """
    if isinstance(word, EmptyWord):
        return word
    letters = word.letters
    for a, b in zip(letters, reversed(letters)):
        if a.arrow != b.arrow:
            index = quiver.arrow_index
            return word if index[a.arrow] < index[b.arrow] else reverse_word(quiver, word)
        if a.inverse == b.inverse:
            # same arrow: the direct letter has the smaller key
            return reverse_word(quiver, word) if a.inverse else word
    return word


def words_equal(quiver: Quiver, w1, w2) -> bool:
    if isinstance(w1, EmptyWord) or isinstance(w2, EmptyWord):
        return isinstance(w1, EmptyWord) and isinstance(w2, EmptyWord)
    return canonical_form(quiver, w1) == canonical_form(quiver, w2)


def node_vertices(quiver: Quiver, word: StringWord):
    """Vertices of the diagram basis z_0..z_n."""
    if word.is_trivial():
        return [word.vertex]
    out = [letter_source(quiver, word.letters[0])]
    for l in word.letters:
        out.append(letter_target(quiver, l))
    return out


def string_module(table: AlgebraTable, word: StringWord):
    """The string module: z_i.a = z_{i-1} if c_i = a^{-1}, z_{i+1} if c_{i+1} = a.

    Built once per word and table, then shared: every call with the same
    word returns the same module, which callers must not change.  An
    invalid word raises on every call.
    """
    cached = table._string_modules.get(word)
    if cached is not None:
        return cached
    from .reps import ModuleRep
    validate_string(table, word)
    q = table.quiver
    verts = node_vertices(q, word)
    positions = {}
    dims = {v: 0 for v in q.vertices}
    for i, v in enumerate(verts):
        positions[i] = (v, dims[v])
        dims[v] += 1
    f = table.field
    mats = {a.name: [{} for _ in range(dims[a.source])] for a in q.arrows}
    n = word.length
    for i in range(n + 1):
        v, row = positions[i]
        if i >= 1 and word.letters[i - 1].inverse:
            a = word.letters[i - 1].arrow
            w, col = positions[i - 1]
            mats[a][row][col] = f.one
        if i < n and not word.letters[i].inverse:
            a = word.letters[i].arrow
            w, col = positions[i + 1]
            mats[a][row][col] = f.one
    rep = ModuleRep(table, dims, mats)
    if not rep.satisfies_relations():
        raise SubwordInSocleOrZero(
            f"string module of {word} violates a relation of the table")
    rep.node_positions = positions
    table._string_modules[word] = rep
    return rep


def _can_append(table: AlgebraTable, word: StringWord, letter: Letter) -> bool:
    """Does the word followed by ``letter``, drawn from ``quiver.letters_from``
    at its end, stay a string: no cancellation, the trailing run off the socle?"""
    letters = word.letters
    arrow, inverse = letter
    if letters and letters[-1] == table.quiver.inverse[letter]:
        return False
    # only the trailing run changes: read it off the letters, in arrow direction
    i = len(letters)
    while i > 0 and letters[i - 1].inverse == inverse:
        i -= 1
    run = [l.arrow for l in letters[i:]]
    run.append(arrow)
    if inverse:
        run.reverse()
    return table.off_socle(tuple(run))


def enumerate_strings(table: AlgebraTable, max_len: int):
    """All canonical valid strings of length <= max_len, sorted and unique.

    Each is recorded as validated: ``_can_append`` checks every axiom on
    what a letter changes, and the reverse of a string is a string.
    """
    q = table.quiver
    frontier = [StringWord.trivial(v) for v in q.vertices]
    found = set(frontier)
    length = 0
    while frontier and length < max_len:
        nxt = []
        for w in frontier:
            for letter in q.letters_from[word_target(q, w)]:
                if _can_append(table, w, letter):
                    w2 = make_word(w.letters + (letter,))
                    nxt.append(w2)
                    found.add(canonical_form(q, w2))
        frontier = nxt
        length += 1
    table._valid_words |= found
    return sorted(found, key=lambda c: word_key(q, c))


def is_band(table: AlgebraTable, word: StringWord) -> bool:
    """Cyclic-string test: rotations and the square stay valid, primitive."""
    q = table.quiver
    if word.is_trivial() or word.length == 0:
        return False
    if word_target(q, word) != word_source(q, word):
        return False
    letters = word.letters
    n = len(letters)
    for d in range(1, n):
        if n % d == 0 and letters == letters[d:] + letters[:d]:
            return False  # proper power
    for r in range(n):
        rot = make_word(letters[r:] + letters[:r])
        if not is_valid_string(table, rot):
            return False
    if not is_valid_string(table, make_word(letters + letters)):
        return False
    return True


# -- one-sided surgeries -------------------------------------------------

class SideOp(Record, frozen=True):
    """Result of a one-sided surgery with alignment metadata.

    kind: 'cohook' | 'hook' (letters attached) or 'hook-delete' |
    'cohook-delete' (letters removed).  ``segment`` holds the attached or
    removed letters in the order of the word the right surgery ran on:
    for ``right_op`` the word itself, for ``left_op`` its reverse.
    ``word`` is the resulting word or EMPTY.  Results are memoized per
    table and shared, so callers must not change them.
    """

    __slots__ = ("word", "kind", "segment")

    def __init__(self, word, kind: str, segment: tuple):
        self.word = word
        self.kind = kind
        self.segment = segment


def _attach(table: AlgebraTable, word: StringWord, inverse: bool, exclude=None):
    """Append one letter of the given direction and a maximal run of the
    other, if valid: a co-hook (direct letter, inverse climb) or a hook
    (inverse letter, direct descent)."""
    q = table.quiver
    for first in q.letters_from[word_target(q, word)]:
        if first.inverse != inverse or (not word.letters and first.arrow == exclude):
            continue
        if not _can_append(table, word, first):
            continue
        segment = (first, *_tail(table, first))
        return SideOp(make_word(word.letters + segment),
                      "hook" if inverse else "cohook", segment)
    return None


def _tail(table: AlgebraTable, first: Letter) -> tuple:
    """The maximal run of the other direction after ``first``, memoized per table.

    The run depends on ``first`` alone: each step's reversal check sees
    only the letter before it, and its trailing run starts after ``first``.
    """
    tail = table._tails.get(first)
    if tail is None:
        q = table.quiver
        w = make_word((first,))
        while True:
            for cand in q.letters_from[word_target(q, w)]:
                if cand.inverse != first.inverse and _can_append(table, w, cand):
                    w = make_word(w.letters + (cand,))
                    break
            else:
                break
        tail = table._tails[first] = w.letters[1:]
    return tail


def _delete(table: AlgebraTable, word: StringWord, inverse: bool) -> SideOp:
    """Remove the last letter of the given direction and the run after it:
    a hook (inverse letter, direct run) or a co-hook (direct letter,
    inverse run)."""
    kind = "hook-delete" if inverse else "cohook-delete"
    letters = word.letters
    m = next((i for i in range(len(letters) - 1, -1, -1) if letters[i].inverse == inverse),
             None)
    if m is None:
        return SideOp(EMPTY, kind, letters)
    # the first m letters, or the trivial word at the source when m is 0
    kept = make_word(letters[:m]) if m else StringWord.trivial(word_source(table.quiver, word))
    return SideOp(kept, kind, letters[m:])


def right_op(table: AlgebraTable, word: StringWord, mode: str, exclude=None) -> SideOp:
    """The (-)^r surgery: mode 'tau' co-hooks, else deletes a hook; mode
    'tauinv' hooks, else deletes a co-hook.  Memoized per table."""
    key = ("right", mode, word, exclude)
    op = table._side_ops.get(key)
    if op is None:
        if mode not in ("tau", "tauinv"):
            raise ValueError(f"unknown mode {mode!r}")
        inverse = mode == "tauinv"
        op = (_attach(table, word, inverse, exclude)
              or _delete(table, word, not inverse))
        table._side_ops[key] = op
    return op


def left_op(table: AlgebraTable, word: StringWord, mode: str, exclude=None) -> SideOp:
    """The ^l(-) surgery, by reversal of the right one; the segment stays
    as the right one gave it.  Memoized per table."""
    key = ("left", mode, word, exclude)
    op = table._side_ops.get(key)
    if op is None:
        q = table.quiver
        res = right_op(table, reverse_word(q, word), mode, exclude)
        out_word = res.word if isinstance(res.word, EmptyWord) else reverse_word(q, res.word)
        op = table._side_ops[key] = SideOp(out_word, res.kind, res.segment)
    return op


def side_ops(table: AlgebraTable, word: StringWord, mode: str):
    """Both one-sided surgeries; on trivial words the two ends must use
    different attaching arrows, so the left op excludes the right one's."""
    right = right_op(table, word, mode)
    exclude = None
    if word.is_trivial() and right.kind in ("cohook", "hook") and right.segment:
        exclude = right.segment[0].arrow
    left = left_op(table, word, mode, exclude)
    return right, left


def maximal_directed_extensions(table: AlgebraTable, word: StringWord) -> dict:
    """The two one-sided translate surgeries of a valid string.

    Each side carries a co-hook when one exists and deletes its hook
    otherwise (possibly down to the empty marker).
    """
    validate_string(table, word)
    right, left = side_ops(table, word, "tau")
    return {
        "right": (right.word, right.kind),
        "left": (left.word, left.kind),
    }
