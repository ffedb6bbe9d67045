"""Orthogonal systems of stable bricks and s-projective bookkeeping.

Members are canonical string words over a fixed table.  Stable brickness
and orthogonality are decided by the stable-hom oracle; maximality is
only ever certified up to an explicit length bound.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import AlgebraTable, DomainError
from .linalg import multiple_of
from .reps import is_isomorphic, projective_cover, stable_hom_dim
from .strings import (Letter, StringWord, _can_append, canonical_form,
                      directed_runs, enumerate_strings, node_vertices,
                      reverse_word, string_module, word_key, word_source,
                      word_target, words_equal)
from .translate import ar_sequence, rad_word, tau, tau_inv


class UnclassifiableDiagram(DomainError):
    pass


class BadSystemMember(DomainError):
    """A word that is not a member of the system, or has no s-projective cover."""


def is_stable_brick(table: AlgebraTable, word: StringWord) -> bool:
    """One-dimensional stable endomorphisms and tau-period > 1."""
    M = string_module(table, word)
    if stable_hom_dim(table, M, M) != 1:
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
    mods = [string_module(table, w) for w in canon]
    for i in range(len(mods)):
        for j in range(len(mods)):
            if i == j:
                continue
            if stable_hom_dim(table, mods[i], mods[j]) != 0:
                return False, ("nonzero stable hom", str(canon[i]), str(canon[j]))
    return True, None


def check_bounded_maximality(table: AlgebraTable, words, max_len: int):
    """Every candidate string up to max_len admits stable maps to and from
    the system.  Explicitly a bounded check, not a proof of maximality."""
    canon = [canonical_form(table.quiver, w) for w in words]
    mods = [string_module(table, w) for w in canon]
    for cand in enumerate_strings(table, max_len):
        if words_equal(table.quiver, tau(table, cand), cand):
            continue  # tau-period one, excluded from the quantifier
        N = string_module(table, cand)
        if not any(stable_hom_dim(table, m, N) > 0 for m in mods):
            return False, str(cand)
        if not any(stable_hom_dim(table, N, m) > 0 for m in mods):
            return False, str(cand)
    return True, None


def omega_word(table: AlgebraTable, word: StringWord):
    """The syzygy of a string module as a string word (None if projective).

    Simples map straight to rad P; other kernels are identified against
    the bounded string enumeration.
    """
    q = table.quiver
    if word.is_trivial():
        return canonical_form(q, rad_word(table, word.vertex))
    M = string_module(table, word)
    _, _, K, _ = projective_cover(table, M)
    if K.total_dim == 0:
        return None
    target_dims = K.dim_vector()
    for cand in enumerate_strings(table, K.total_dim - 1):
        if cand.length != K.total_dim - 1:
            continue
        C = string_module(table, cand)
        if C.dim_vector() == target_dims and is_isomorphic(table, C, K):
            return cand
    raise UnclassifiableDiagram(f"syzygy of {word} is not a bounded string")


@dataclass
class SProjectiveInfo:
    word: StringWord            # N = tau^{-1} Omega(M)
    s_top: StringWord           # the member M
    s_rad: list                 # up to two words


def s_projective(table: AlgebraTable, system, member: StringWord) -> SProjectiveInfo:
    """The s-projective cover data of a system member."""
    q = table.quiver
    member = canonical_form(q, member)
    keys = {word_key(q, canonical_form(q, w)) for w in system}
    if word_key(q, member) not in keys:
        raise BadSystemMember(f"{member} is not a system member")
    om = omega_word(table, member)
    if om is None:
        raise BadSystemMember(f"{member} has projective cover kernel zero")
    n_word = tau_inv(table, om)
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
    """Vertices of the deeps of the diagram, endpoints included, in order."""
    verts = node_vertices(quiver, word)
    if word.is_trivial():
        return [word.vertex]
    out = []
    n = word.length
    for i in range(n + 1):
        # a deep: no arrow leaves z_i within the diagram
        leaves = (i < n and not word.letters[i].inverse) or \
                 (i >= 1 and word.letters[i - 1].inverse)
        if not leaves:
            out.append(verts[i])
    return out


def _peak_vertices(quiver, word: StringWord):
    verts = node_vertices(quiver, word)
    if word.is_trivial():
        return [word.vertex]
    out = []
    n = word.length
    for i in range(n + 1):
        enters = (i >= 1 and not word.letters[i - 1].inverse) or \
                 (i < n and word.letters[i].inverse)
        if not enters:
            out.append(verts[i])
    return out


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
