"""Orthogonal systems of stable bricks and s-projective bookkeeping.

Members are canonical string words over a fixed table.  Stable brickness
and orthogonality are decided by ``stable_hom_of_words``: a pair with a
simple side is read off the other word's peaks or deeps, which needs a
selfinjective table, and any other pair goes to the stable-hom oracle.
Maximality is only ever certified up to an explicit length bound.
"""

from __future__ import annotations

from .core import AlgebraTable, DomainError, Record
from .linalg import multiple_of
from .strings import (Letter, StringWord, _can_append, canonical_form,
                      directed_runs, enumerate_strings, node_vertices,
                      reverse_word, string_module, validate_string, word_key,
                      word_source, word_target, words_equal)
from .translate import (_peaks, ar_sequence, omega_word,
                        require_selfinjective_sb, tau, tau_inv)


class BadSystemMember(DomainError):
    """A word that is not a member of the system."""


def stable_hom_of_words(table: AlgebraTable, m: StringWord, n: StringWord) -> int:
    """dim of the stable Hom from M(m) to M(n), for valid string words.

    A pair with a simple side is read off the other word
    (``_hom_with_simple``), which needs a selfinjective table; any other
    pair goes to ``reps.stable_hom_dim`` on the string modules.
    """
    require_selfinjective_sb(table)
    if m.is_trivial() or n.is_trivial():
        return _hom_with_simple(table.quiver, m, n)
    from .reps import stable_hom_dim
    return stable_hom_dim(table, string_module(table, m), string_module(table, n))


def _hom_with_simple(quiver, m: StringWord, n: StringWord) -> int:
    """The stable Hom dimension from M(m) to M(n), one of them simple.

    Over a selfinjective algebra no nonzero map from an indecomposable
    non-projective M to a simple S_v, or from S_v to M, factors through a
    projective: a map S_v -> P lands in soc P, and a map P -> M nonzero
    there is injective, so P would split off M; the top is the dual case
    (Auslander-Reiten-Smalo 1995).  So against n = S_v the dimension is
    the number of peaks of m at v, from m = S_v the number of deeps of n
    at v, and 0 when the simple is projective.
    """
    simple = n if n.is_trivial() else m
    if not quiver.out_arrows[simple.vertex]:
        return 0
    if n.is_trivial():
        return _peak_vertices(quiver, m).count(n.vertex)
    return _deep_vertices(quiver, n).count(m.vertex)


def is_stable_brick(table: AlgebraTable, word: StringWord) -> bool:
    """One-dimensional stable endomorphisms and tau-period > 1."""
    if stable_hom_of_words(table, word, word) != 1:
        return False
    return not words_equal(table.quiver, tau(table, word), word)


def check_orthogonal_system(table: AlgebraTable, words):
    """All members stable bricks, pairwise stably orthogonal.

    Returns (ok, violation) where violation names the offending member or
    pair.
    """
    canon = [canonical_form(table.quiver, w) for w in words]
    keys = [word_key(table.quiver, w) for w in canon]
    if len(set(keys)) != len(keys):
        return False, ("duplicate member",)
    for w in canon:
        if not is_stable_brick(table, w):
            return False, ("not a stable brick", str(w))
    for i, m in enumerate(canon):
        for j, n in enumerate(canon):
            if i != j and stable_hom_of_words(table, m, n) != 0:
                return False, ("nonzero stable hom", str(m), str(n))
    return True, None


def check_bounded_maximality(table: AlgebraTable, words, max_len: int):
    """Every candidate string up to max_len admits stable maps to and from
    the system.  Explicitly a bounded check, not a proof of maximality."""
    canon = [canonical_form(table.quiver, w) for w in words]
    for w in canon:
        validate_string(table, w)
    for cand in enumerate_strings(table, max_len):
        if words_equal(table.quiver, tau(table, cand), cand):
            continue  # tau-period one, excluded from the quantifier
        if not any(stable_hom_of_words(table, m, cand) > 0 for m in canon):
            return False, str(cand)
        if not any(stable_hom_of_words(table, cand, m) > 0 for m in canon):
            return False, str(cand)
    return True, None


class SProjectiveInfo(Record):
    __slots__ = ("word",    # N = tau^{-1} Omega(M)
                 "s_top",   # the member M
                 "s_rad")   # up to two words


def s_projective(table: AlgebraTable, system, member: StringWord) -> SProjectiveInfo:
    """The s-projective cover data of a system member."""
    q = table.quiver
    member = canonical_form(q, member)
    keys = {word_key(q, canonical_form(q, w)) for w in system}
    if word_key(q, member) not in keys:
        raise BadSystemMember(f"{member} is not a system member")
    n_word = tau_inv(table, omega_word(table, member))
    seq = ar_sequence(table, n_word)
    return SProjectiveInfo(n_word, member, list(seq.middle_strings))


def endpoint_multiplicity_check(table: AlgebraTable, system):
    """Each vertex occurs at most twice among the diagram endpoints.

    Trivial strings contribute their vertex twice; the once-counted
    multiset is reported alongside for transparency.
    """
    q = table.quiver
    twice = {}
    once = {}
    for w in system:
        s, e = word_source(q, w), word_target(q, w)
        if w.is_trivial():
            twice[s] = twice.get(s, 0) + 2
            once[s] = once.get(s, 0) + 1
        else:
            for v in (s, e):
                twice[v] = twice.get(v, 0) + 1
                once[v] = once.get(v, 0) + 1
    ok = all(c <= 2 for c in twice.values())
    return ok, twice, once


# -- shape-lemma verification ----------------------------------------------

def _end_shapes(word: StringWord):
    """('deep'|'peak', 'deep'|'peak') for the left and right ends.

    The left end is a deep when the word starts with an inverse letter
    (the first arrow points back into it); dually on the right.
    """
    if word.is_trivial():
        return ("deep", "deep")
    left = "deep" if word.letters[0].inverse else "peak"
    right = "deep" if not word.letters[-1].inverse else "peak"
    return (left, right)


def _diagram_case(word: StringWord) -> str:
    left, right = _end_shapes(word)
    if left == "deep" and right == "deep":
        return "1"
    if left == "peak" and right == "peak":
        return "2"
    return "3"


def _deep_vertices(quiver, word: StringWord):
    """Vertices of the deeps of the diagram, endpoints included, in order.

    A deep is a node no arrow leaves: a peak of the word with every letter
    turned round.
    """
    verts = node_vertices(quiver, word)
    turned = StringWord(tuple(l.inv() for l in word.letters), word.vertex)
    return [verts[i] for i, _, _ in _peaks(turned)]


def _peak_vertices(quiver, word: StringWord):
    verts = node_vertices(quiver, word)
    return [verts[i] for i, _, _ in _peaks(word)]


def _maximal_directed(table: AlgebraTable, word: StringWord, side: str) -> bool:
    """Is the directed run touching the given end maximal as a string?"""
    w = word if side == "right" else reverse_word(word)
    q = table.quiver
    end = word_target(q, w)
    if w.is_trivial():
        cands = [Letter(a.name) for a in q.out_arrows[end]]
        cands += [Letter(a.name, True) for a in q.in_arrows[end]]
    elif w.letters[-1].inverse:
        cands = [Letter(a.name, True) for a in q.in_arrows[end]]
    else:
        cands = [Letter(a.name) for a in q.out_arrows[end]]
    return not any(_can_append(table, w, c) for c in cands)


def verify_shape_lemmas(table: AlgebraTable, system):
    """Structural predicates on the s-projectives of the system members.

    Per member: end-run maximality of N, the count and placement of the
    peaks of N against the deeps of M, and proportionality of the two
    maximal paths at every peak vertex of M (wedge conditions).
    """
    q = table.quiver
    report = []
    for m in system:
        m = canonical_form(q, m)
        case = _diagram_case(m)
        if case == "2" and len(directed_runs(m)) < 3:
            # single or double run starting and ending on peaks is the
            # 'maximal directed' degenerate shape; treat as case 3 data
            case = "3"
        info = s_projective(table, [m], m)
        n_word = info.word
        checks = {}
        checks["n_end_runs_maximal"] = (_maximal_directed(table, n_word, "left")
                                        and _maximal_directed(table, n_word, "right"))
        # the peaks of N sit where the deeps of M sit, endpoints included
        deeps_m = _deep_vertices(q, m)
        peaks_n = _peak_vertices(q, n_word)
        checks["peak_count_matches"] = len(peaks_n) == len(deeps_m)
        checks["peak_vertices_match"] = (peaks_n == deeps_m or
                                         peaks_n == list(reversed(deeps_m)))
        wedge_ok = True
        for x in _peak_vertices(q, m):
            arms = table.arms(x)
            if len(arms) == 2:
                v1 = table.nf_vector(arms[0].arrows)
                v2 = table.nf_vector(arms[1].arrows)
                if not v1 or multiple_of(v1, v2, table.field) is None:
                    wedge_ok = False
        checks["wedge_paths_proportional"] = wedge_ok
        report.append({"member": str(m), "case": case,
                       "s_projective": str(n_word),
                       "s_rad": [str(r) for r in info.s_rad],
                       "checks": checks})
    return report
