"""Auslander-Reiten translation for string modules, by hook surgery.

tau is computed by adding co-hooks where possible and deleting hooks
otherwise, on both ends; tau-inverse dually by adding hooks and deleting
co-hooks.  Quotients P/soc P and radicals rad P are recognized first and
routed through the projective-middle sequence.  The canonical diagram
map M -> tau^{-1}M is classified into the mono / epi / mixed / radical
cases and its mapping cone is returned as two explicit string words.
Two exact sequences are built as pairs of maps, by node correspondence:
``omega_sequence`` gives 0 -> Omega M -> P -> M -> 0 and ``ar_right_map``
the almost split sequence 0 -> tau M -> E -> M -> 0, both maps from one
walk over the middle summands, so ``reps.exactness_defect`` can witness
each.  The functions that build module maps import ``reps`` when they
run, so tau, tau^{-1}, the cone and most AR sequences load no oracle.
"""

from __future__ import annotations

from . import linalg as la
from .checks import check_special_biserial, is_local_nakayama
from .core import AlgebraTable, DomainError, Record, check_selfinjective_symmetric
from .strings import (EMPTY, EmptyWord, Letter, StringWord, canonical_form,
                      directed_runs, left_op, letter_target, node_vertices,
                      reverse_word, right_op, side_ops, string_module,
                      validate_string, word_key, word_source, word_target,
                      words_equal)


class NotSelfinjectiveSB(DomainError):
    pass


class LocalNakayamaExcluded(DomainError):
    pass


class ProjectiveInput(DomainError):
    pass


class NotDirected(DomainError):
    """A word that is not a directed string with an injective hull arm."""


def require_selfinjective_sb(table: AlgebraTable):
    if table._sb_selfinjective is None:
        report = check_special_biserial(table)
        verdict = check_selfinjective_symmetric(table).verdict
        table._sb_selfinjective = (report.is_special_biserial
                                   and verdict != "not-selfinjective")
    if not table._sb_selfinjective:
        raise NotSelfinjectiveSB("operation requires a selfinjective special biserial table")


# -- projective landmarks ------------------------------------------------

def proj_quotient_word(table: AlgebraTable, vertex: str) -> StringWord:
    """String word of P_v / soc P_v."""
    arms = table.arms(vertex)
    if not arms:
        raise ProjectiveInput(f"vertex {vertex} has no outgoing arrows")
    if len(arms) == 1:
        arrows = arms[0].arrows[:-1]
        if not arrows:
            return StringWord.trivial(vertex)
        return StringWord(tuple(Letter(a) for a in arrows))
    a1, a2 = arms[0].arrows, arms[1].arrows
    letters = [Letter(a1[j], True) for j in range(len(a1) - 2, -1, -1)]
    letters += [Letter(a2[j]) for j in range(len(a2) - 1)]
    return StringWord(tuple(letters))


def _quotient_node(arms, idx: int, j: int) -> int:
    """Node of proj_quotient_word at the length-j prefix of arm ``idx``.

    With two arms the word climbs arm 0 back to the vertex, which is node
    len(arm 0) - 1, and then descends arm 1.
    """
    if len(arms) == 1:
        return j
    top = len(arms[0].arrows) - 1
    return top - j if idx == 0 else top + j


def rad_word(table: AlgebraTable, vertex: str) -> StringWord:
    """String word of rad P_v."""
    arms = table.arms(vertex)
    if not arms:
        raise ProjectiveInput(f"vertex {vertex} has no outgoing arrows")
    if len(arms) == 1:
        arrows = arms[0].arrows[1:]
        if not arrows:
            return StringWord.trivial(table.quiver.target(arms[0].arrows[0]))
        return StringWord(tuple(Letter(a) for a in arrows))
    a1, a2 = arms[0].arrows, arms[1].arrows
    letters = [Letter(a1[j]) for j in range(1, len(a1))]
    letters += [Letter(a2[j], True) for j in range(len(a2) - 1, 0, -1)]
    if not letters:
        return StringWord.trivial(table.quiver.target(a1[0]))
    return StringWord(tuple(letters))


def _landmarks(table: AlgebraTable):
    if table._landmark_words is None:
        q = table.quiver
        quotients = {}
        rads = {}
        # an arrow-less vertex has a simple projective and no landmarks
        for v in (v for v in q.vertices if q.out_arrows[v]):
            quotients[word_key(q, canonical_form(q, proj_quotient_word(table, v)))] = v
            rads[word_key(q, canonical_form(q, rad_word(table, v)))] = v
        table._landmark_words = (quotients, rads)
    return table._landmark_words


def as_proj_quotient(table: AlgebraTable, word: StringWord):
    """Vertex v with word ~ P_v/soc P_v, or None."""
    q = table.quiver
    return _landmarks(table)[0].get(word_key(q, canonical_form(q, word)))


def as_rad_of_projective(table: AlgebraTable, word: StringWord):
    """Vertex v with word ~ rad P_v, or None."""
    q = table.quiver
    return _landmarks(table)[1].get(word_key(q, canonical_form(q, word)))


# -- two-sided surgery ----------------------------------------------------

class Surgery(Record):
    """A full two-sided surgery with node-alignment data.

    Node i of the input word lands at node i + shift of the result, when
    that node exists: on each side a surgery only attaches or only
    deletes letters, so a node survives iff its target index is in range.
    """

    __slots__ = ("word", "right_kind", "left_kind", "shift")

    def __init__(self, word, right_kind: str, left_kind: str, shift: int = 0):
        self.word = word                # StringWord or EMPTY
        self.right_kind = right_kind
        self.left_kind = left_kind
        self.shift = shift              # letters attached on the left minus letters deleted there


def _left_shift(op) -> int:
    """How far a left surgery moves the nodes it keeps."""
    n = len(op.segment)
    return n if op.kind in ("hook", "cohook") else -n


def _two_sided(table: AlgebraTable, word: StringWord, mode: str):
    """Apply both one-sided surgeries; prefer the deterministic route.

    A route degenerates when its first step deletes the word down to a
    trivial string: the second attachment would then lose the adjacency
    constraints of the deleted letters, so the other order is used (it is
    deterministic whenever the input is not a projective landmark).
    """
    right, left = side_ops(table, word, mode)

    def route(first, then):
        """``first``, then the other side's surgery on its result."""
        if isinstance(first.word, EmptyWord):
            return Surgery(EMPTY, right.kind, left.kind)
        if first.word.is_trivial() and not word.is_trivial():
            return None
        second = then(table, first.word, mode)
        r, l = (first, second) if then is left_op else (second, first)
        return Surgery(second.word, r.kind, l.kind, _left_shift(l))

    candidates = [r for r in (route(right, left_op), route(left, right_op))
                  if r is not None]
    if not candidates:
        raise RuntimeError(f"both surgery routes degenerate on {word}")
    words = [r for r in candidates if not isinstance(r.word, EmptyWord)]
    if not words:
        return candidates[0]
    if len(words) == 2 and not words_equal(table.quiver, words[0].word, words[1].word):
        raise RuntimeError(f"one-sided surgeries disagree on {word}")
    return words[0]


# -- tau and tau-inverse ---------------------------------------------------

def _require_input(table: AlgebraTable, word: StringWord):
    """The precondition shared by tau, tau_inv and the AR and cone maps.

    A selfinjective special biserial table and a valid string that is not
    a simple projective module.  A word is validated once per table; a
    word that raises is never recorded.
    """
    require_selfinjective_sb(table)
    if word not in table._valid_words:
        validate_string(table, word)
        table._valid_words.add(word)
    if word.is_trivial() and not table.quiver.out_arrows[word.vertex]:
        raise ProjectiveInput(f"{word} is the simple projective module at the "
                              f"arrow-less vertex {word.vertex}; it has no AR "
                              f"translate")


def tau(table: AlgebraTable, word: StringWord) -> StringWord:
    """AR translate of the string module M_word."""
    return _translate(table, "tau", word)


def tau_inv(table: AlgebraTable, word: StringWord) -> StringWord:
    """Inverse AR translate of the string module M_word."""
    return _translate(table, "tauinv", word)


def _translate(table: AlgebraTable, mode: str, word: StringWord) -> StringWord:
    """tau (mode 'tau') or tau^{-1} (mode 'tauinv'), memoized per table.

    A landmark (P/soc P for tau, rad P for tau^{-1}) goes to its partner;
    any other string goes through the two-sided surgery.
    """
    key = (mode, word)
    out = table._translates.get(key)
    if out is not None:
        return out
    _require_input(table, word)
    if mode == "tau":
        v, partner = as_proj_quotient(table, word), rad_word
    else:
        v, partner = as_rad_of_projective(table, word), proj_quotient_word
    if v is not None:
        out = partner(table, v)
    else:
        res = _two_sided(table, word, mode)
        if isinstance(res.word, EmptyWord):
            name, landmark = (("tau", "P/soc P") if mode == "tau"
                              else ("tau-inverse", "rad P"))
            raise RuntimeError(f"{name} of {word} vanished; module should be {landmark}")
        out = res.word
    out = table._translates[key] = canonical_form(table.quiver, out)
    return out


class ARSequence(Record):
    __slots__ = ("left", "middle_strings", "middle_projective", "right")


def ar_sequence(table: AlgebraTable, word: StringWord) -> ARSequence:
    """The almost split sequence terminating at M_word."""
    _require_input(table, word)
    q = table.quiver
    v = as_proj_quotient(table, word)
    if v is not None:
        from .reps import decompose_rad_mod_soc
        middles = [canonical_form(q, w) for w in decompose_rad_mod_soc(table, v)]
        return ARSequence(canonical_form(q, rad_word(table, v)), middles, v,
                          canonical_form(q, word))
    right, left = side_ops(table, word, "tau")
    middles = [canonical_form(q, s.word) for s in (right, left)
               if not isinstance(s.word, EmptyWord)]
    return ARSequence(tau(table, word), middles, None, canonical_form(q, word))


# -- the canonical map to tau^{-1} and its cone ----------------------------

class CanonicalMap(Record):
    __slots__ = ("case",          # 'i' | 'ii' | 'iii' | "iii'" | 'iv' | 'iv-uniserial'
                 "rep_map")       # RepMap from M to tau^{-1} M


class ConeResult(Record):
    __slots__ = ("case",
                 "summands")      # up to two StringWords


def _single_run(word: StringWord) -> bool:
    return len(directed_runs(word)) <= 1


def _classify(word, right_kind, left_kind) -> str:
    kinds = (right_kind, left_kind)
    if kinds == ("hook", "hook"):
        return "i"
    if kinds == ("cohook-delete", "cohook-delete"):
        return "ii"
    return "iii'" if _single_run(word) else "iii"


def _added_piece(segment, quiver) -> StringWord:
    """The new maximal directed string carried by a hook added on the right."""
    rest = segment[1:]
    if rest:
        return StringWord(tuple(rest))
    return StringWord.trivial(letter_target(quiver, segment[0]))


def _deleted_piece(word: StringWord, segment, quiver) -> StringWord:
    """The kernel piece of a right co-hook deletion, as a directed string word.

    A successful deletion removes one direct letter plus the trailing
    inverse run; the run (without the direct letter's node) is the kernel
    piece.  When no direct letter exists the deletion empties the diagram
    and the whole word is the piece.
    """
    if segment and not segment[0].inverse:
        return _added_piece(segment, quiver)
    return word


def _word_as_directed_path(table: AlgebraTable, word: StringWord):
    """(path arrows in arrow direction, end vertex) of a single-run word."""
    q = table.quiver
    if word.is_trivial():
        return (), word.vertex
    dirs = {l.inverse for l in word.letters}
    if len(dirs) != 1:
        raise NotDirected(f"{word} is not a directed string")
    if word.letters[0].inverse:
        arrows = tuple(l.arrow for l in reversed(word.letters))
        return arrows, word_source(q, word)
    arrows = tuple(l.arrow for l in word.letters)
    return arrows, word_target(q, word)


def omega_inv_word(table: AlgebraTable, piece: StringWord) -> StringWord:
    """Cosyzygy of a directed string, computed inside its injective hull."""
    q = table.quiver
    p_arrows, p_end = _word_as_directed_path(table, piece)
    k = len(p_arrows)
    hit = None
    for v in q.vertices:
        for idx, arm in enumerate(table.arms(v)):
            if k == 0:
                if arm.target == p_end:
                    hit = (v, idx, arm)
                    break
            elif len(arm.arrows) > k and arm.arrows[-k:] == p_arrows:
                hit = (v, idx, arm)
                break
        if hit:
            break
    if hit is None:
        raise NotDirected(f"no injective hull arm extends {piece}")
    t, idx, arm = hit
    arms = table.arms(t)
    q_len = len(arm.arrows) - k
    letters = [Letter(arm.arrows[j], True) for j in range(q_len - 2, -1, -1)]
    if len(arms) == 2:
        other = arms[1 - idx]
        letters += [Letter(other.arrows[j]) for j in range(len(other.arrows) - 1)]
    if not letters:
        return StringWord.trivial(t)
    return StringWord(tuple(letters))


def _node_map(S, T, pairs, what: str, c=1):
    """The diagram map S -> T sending basis vectors of S to c times nodes of T.

    ``pairs`` holds (source position (vertex, row), target node j); a pair
    whose j is not a node of T sends its vector to zero.
    """
    from .reps import RepMap
    blocks = {u: [{} for _ in range(S.dims[u])] for u in S.table.quiver.vertices}
    for (u, row), j in pairs:
        node = T.node_positions.get(j)
        if node is None:
            continue
        if node[0] != u:
            raise RuntimeError(f"node alignment failed for {what}")
        blocks[u][row][node[1]] = c
    return RepMap(S, T, blocks)


def reversal_map(table: AlgebraTable, word: StringWord):
    """The isomorphism M(w) -> M(w^-1) sending node i to node n - i.

    The reversed word walks the same n + 1 nodes backwards, so this
    permutation of basis vectors is the known witness that a string and
    its reverse give one module.
    """
    n = word.length
    M = string_module(table, word)
    return _node_map(M, string_module(table, reverse_word(word)),
                     ((pos, n - i) for i, pos in M.node_positions.items()),
                     f"the reversal of {word}")


def canonical_map_to_tau_inv(table: AlgebraTable, word: StringWord) -> CanonicalMap:
    """The diagram-intersection morphism M -> tau^{-1}M with its case tag."""
    _require_input(table, word)
    v = as_rad_of_projective(table, word)
    if v is not None:
        # rad P -> P/soc P killing all but the first arm: the image is one
        # indecomposable summand of rad P / soc P
        arms = table.arms(v)
        qword = proj_quotient_word(table, v)
        M = string_module(table, rad_word(table, v))
        # node i of rad P is the arm-0 prefix of length i + 1
        fmap = _node_map(M, string_module(table, qword),
                         ((M.node_positions[i], _quotient_node(arms, 0, i + 1))
                          for i in range(len(arms[0].arrows) - 1)),
                         f"the radical map at {v}")
        if not fmap.intertwines():
            raise RuntimeError(f"radical canonical map failed for {v}")
        case = "iv-uniserial" if len(arms) == 1 else "iv"
        return CanonicalMap(case, fmap)
    surg = _two_sided(table, word, "tauinv")
    if isinstance(surg.word, EmptyWord):
        raise RuntimeError(f"tau-inverse of {word} is empty")
    case = _classify(word, surg.right_kind, surg.left_kind)
    M = string_module(table, word)
    fmap = _node_map(M, string_module(table, surg.word),
                     ((pos, i + surg.shift) for i, pos in M.node_positions.items()),
                     f"the canonical map of {word}")
    if not fmap.intertwines():
        raise RuntimeError(f"canonical map construction failed for {word}")
    return CanonicalMap(case, fmap)


def cone_of_canonical_map(table: AlgebraTable, word: StringWord) -> ConeResult:
    """Mapping cone of the canonical map, as two directed string summands."""
    _require_input(table, word)
    q = table.quiver
    v = as_rad_of_projective(table, word)
    if v is not None:
        arms = table.arms(v)
        if len(arms) == 1:
            summands = [proj_quotient_word(table, v), StringWord.trivial(v)]
            case = "iv-uniserial"
        else:
            summands = []
            for arm in arms:
                arrows = arm.arrows[:-1]
                summands.append(StringWord(tuple(Letter(a) for a in arrows))
                                if arrows else StringWord.trivial(v))
            case = "iv"
        return ConeResult(case, [canonical_form(q, s) for s in summands])
    right, left = side_ops(table, word, "tauinv")
    case = _classify(word, right.kind, left.kind)
    # the left piece is the right piece of the reversed word: summands are
    # canonical, and omega_inv_word reads a directed word either way
    mirrored = tuple(l.inv() for l in reversed(left.segment))
    summands = []
    for w, kind, segment in ((word, right.kind, right.segment),
                             (reverse_word(word), left.kind, mirrored)):
        if kind == "hook":
            summands.append(_added_piece(segment, q))
        else:
            summands.append(omega_inv_word(table, _deleted_piece(w, segment, q)))
    return ConeResult(case, [canonical_form(q, s) for s in summands])


# -- witnessed sequences: the syzygy and the almost split sequence ---------

def _path_row(table: AlgebraTable, v: str, arrows, vertex: str, c) -> dict:
    """c times the path ``arrows`` from v, as a row of e_v A at ``vertex``."""
    if table.quiver.target(arrows[-1]) != vertex:
        raise RuntimeError(f"node alignment failed at the path {' '.join(arrows)}")
    f = table.field
    by_vertex = table.regular_action(v)[0][vertex]
    pos = {b: t for t, b in enumerate(by_vertex)}
    return {pos[b]: f.mul(c, x) for b, x in table.nf_vector(arrows).items()}


def _offsets(modules, vertices) -> list:
    """For each module of a direct sum, its first coordinate at each vertex."""
    out, shift = [], dict.fromkeys(vertices, 0)
    for N in modules:
        out.append(dict(shift))
        for v in vertices:
            shift[v] += N.dims[v]
    return out


def _peaks(word: StringWord):
    """(node, left run, right run) of each peak of the word, left to right.

    A peak is a node no letter points into; its left run is the inverse
    run ending there and its right run the direct run starting there, as
    letter counts.
    """
    letters = word.letters
    n = len(letters)
    out = []
    for i in range(n + 1):
        if (i and not letters[i - 1].inverse) or (i < n and letters[i].inverse):
            continue
        left = right = 0
        while left < i and letters[i - 1 - left].inverse:
            left += 1
        while i + right < n and not letters[i + right].inverse:
            right += 1
        out.append((i, left, right))
    return out


def _omega_walk(table: AlgebraTable, word: StringWord):
    """The syzygy word of a string, read off its peaks.

    Returns (word, peaks, marks).  ``peaks`` holds (node, vertex) of each
    peak, left to right: the projective cover is the sum of the e_peak A.
    ``marks`` sends node 0 and every node entered by an inverse letter to
    its designated element of the cover, a list of (peak index, path,
    sign); the inclusion maps such a node to a multiple of it, and every
    other node to the product of its left neighbour with the letter.

    At peak i the runs l and r are prefixes of two arms alpha, beta of
    e_p A (an unused side takes the other arm).  The kernel there is
    spanned by alpha[:l+1] A and beta[:r+1] A, which meet in the socle:
    the word V_i descends alpha[l+1:] to the socle and climbs beta[r+1:]
    back.  At the deep between peaks i-1 and i the element
    beta_{i-1}[:r] - alpha_i[:l] lies in the kernel, joined to its
    neighbours by the letters beta_{i-1}[r]^-1 and alpha_i[l].
    """
    q = table.quiver
    letters = word.letters
    vertices = node_vertices(q, word)
    out, peaks, marks = [], [], {}
    previous = None              # (peak index, beta, r) of the last peak
    for i, (node, l, r) in enumerate(_peaks(word)):
        p = vertices[node]
        peaks.append((node, p))
        arms = {arm.arrows[0]: arm.arrows for arm in table.arms(p)}
        alpha = arms.pop(letters[node - 1].arrow) if l else None
        beta = arms.pop(letters[node].arrow) if r else None
        rest = list(arms.values())
        alpha = alpha or (rest.pop(0) if rest else None)
        beta = beta or (rest.pop(0) if rest else None)
        if previous is None:
            marks[0] = [(i, alpha[:l + 1] if alpha else beta, 1)]
        else:
            j, prev_beta, prev_r = previous
            out.append(Letter(prev_beta[prev_r], True))
            marks[len(out)] = [(j, prev_beta[:prev_r], 1), (i, alpha[:l], -1)]
            out.append(Letter(alpha[l]))
        if alpha:
            out += [Letter(a) for a in alpha[l + 1:]]
        if beta:
            for k in range(len(beta) - 1, r, -1):
                out.append(Letter(beta[k], True))
                marks[len(out)] = [(i, beta[:k], 1)]
        previous = (i, beta, r)
    if out:
        return StringWord(tuple(out)), peaks, marks
    (_, arrows, _), = marks[0]
    return StringWord.trivial(q.target(arrows[-1])), peaks, marks


def omega_word(table: AlgebraTable, word: StringWord) -> StringWord:
    """The syzygy of M_word as a canonical string word, memoized per table.

    Over a selfinjective special biserial algebra the syzygy of a
    non-projective string module is a string module (Wald-Waschbusch
    1985); ``omega_sequence`` witnesses it.
    """
    key = ("omega", word)
    out = table._translates.get(key)
    if out is None:
        _require_input(table, word)
        out = table._translates[key] = canonical_form(
            table.quiver, _omega_walk(table, word)[0])
    return out


def omega_sequence(table: AlgebraTable, word: StringWord):
    """(inclusion, cover) of 0 -> M(Omega w) -> P(w) -> M(w) -> 0.

    The cover sends the summand e_p A of each peak to its node.  The
    inclusion walks the syzygy word: a node entered by a direct letter goes
    to the product of its left neighbour's image with the letter, and a
    marked node to its designated element, scaled so that the letter
    before it carries it onto its left neighbour's image.
    """
    from .reps import RepMap, _generator_map, projective, vstack_maps
    _require_input(table, word)
    f = table.field
    omega, peaks, marks = _omega_walk(table, word)
    M = string_module(table, word)
    cover = vstack_maps([_generator_map(table, M, p, {M.node_positions[node][1]: 1})
                         for node, p in peaks], M)
    P = cover.source
    vertices = table.quiver.vertices
    offsets = _offsets([projective(table, p) for _, p in peaks], vertices)
    K = string_module(table, omega)
    images = []
    for k in range(omega.length + 1):
        u = K.node_positions[k][0]
        if k not in marks:
            images.append(la.row_vec_mul(images[-1], P.mats[omega.letters[k - 1].arrow], f))
            continue
        image = {}
        for i, arrows, sign in marks[k]:
            image.update((offsets[i][u] + t, x) for t, x in
                         _path_row(table, peaks[i][1], arrows, u, sign).items())
        if k:
            c = la.multiple_of(images[-1],
                               la.row_vec_mul(image, P.mats[omega.letters[k - 1].arrow], f), f)
            if c is None:
                raise RuntimeError(f"the syzygy inclusion of {word} breaks at node {k}")
            image = la.sub_multiple({}, f.neg(c), image, f)
        images.append(image)
    blocks = {u: [None] * K.dims[u] for u in vertices}
    for k, (u, row) in K.node_positions.items():
        blocks[u][row] = images[k]
    return RepMap(K, P, blocks), cover


def ar_right_map(table: AlgebraTable, word: StringWord):
    """(f, g) of the almost split sequence 0 -> M(tau w) -> E -> M_word -> 0.

    One walk over the middle summands S builds both of S's parts: g's
    S -> M and f's M(tau w) -> S, stacked through the one middle term
    E = g.source.  Off the landmarks the middles are the one-sided
    surgeries: a node of S goes to its node of M, moved back where a left
    surgery moved it, and node k of the surgery word goes to node
    k - shift of the right-op middle and to minus node k of the left-op
    middle.  For w ~ P_v/soc P_v the middles are the rad/soc summands and
    P_v, which maps onto P_v/soc P_v through its path basis; the left term
    rad P_v goes to its arm prefixes in P_v, scaled along the second arm
    to meet the first at the socle, and to minus the same multiple of
    their nodes in the rad/soc summands.
    """
    from .reps import RepMap, _rad_mod_soc_words, projective, stack_maps, vstack_maps
    _require_input(table, word)
    f = table.field
    q = table.quiver
    parts = []                   # (f's part into S, g's part out of S) per summand
    v = as_proj_quotient(table, word)
    if v is None:
        surg = _two_sided(table, word, "tau")
        L, M = string_module(table, surg.word), string_module(table, word)
        right, left = side_ops(table, word, "tau")
        what = f"the middle of {word}"
        # a left surgery moved the nodes it kept; move them back
        for op, f_shift, g_shift, sign in ((right, surg.shift, 0, 1),
                                           (left, 0, -_left_shift(left), f.neg(1))):
            if isinstance(op.word, EmptyWord):
                continue
            S = string_module(table, op.word)
            parts.append((_node_map(L, S, ((pos, k - f_shift)
                                           for k, pos in L.node_positions.items()),
                                    what, sign),
                          _node_map(S, M, ((pos, j + g_shift)
                                           for j, pos in S.node_positions.items()), what)))
    else:
        arms = table.arms(v)
        L = string_module(table, rad_word(table, v))
        M = string_module(table, proj_quotient_word(table, v))
        # node k of rad P_v is the prefix of length k + 1 of arm 0, then
        # the word climbs arm 1 from the socle
        prefixes = [(0, m) for m in range(1, len(arms[0].arrows) + 1)]
        scale = [1]
        if len(arms) == 2:
            prefixes += [(1, m) for m in range(len(arms[1].arrows) - 1, 0, -1)]
            scale.append(la.multiple_of(table.nf_vector(arms[0].arrows),
                                        table.nf_vector(arms[1].arrows), f))
            if not scale[1]:
                raise RuntimeError(f"the arms at {v} do not meet in the socle")
        # node j of a rad/soc summand is its arm's prefix of length j + 1
        what = f"the rad/soc summand at {v}"
        for idx, inner in _rad_mod_soc_words(table, v):
            S = string_module(table, inner)
            parts.append((_node_map(L, S, ((L.node_positions[k], m - 1)
                                           for k, (i, m) in enumerate(prefixes) if i == idx),
                                    what, f.neg(scale[idx])),
                          _node_map(S, M, ((pos, _quotient_node(arms, idx, j + 1))
                                           for j, pos in S.node_positions.items()), what)))
        P = projective(table, v)
        blocks = {u: [None] * L.dims[u] for u in q.vertices}
        for k, (idx, m) in enumerate(prefixes):
            u, row = L.node_positions[k]
            blocks[u][row] = _path_row(table, v, arms[idx].arrows[:m], u, scale[idx])
        # P_v maps onto P_v/soc P_v through its path basis; the socle path
        # has no node and dies
        by_vertex = table.regular_action(v)[0]
        node = {arm.arrows[:j]: _quotient_node(arms, idx, j)
                for idx, arm in enumerate(arms) for j in range(len(arm.arrows))}
        parts.append((RepMap(L, P, blocks),
                      _node_map(P, M, (((u, t), node.get(table.basis[b].arrows))
                                       for u in q.vertices
                                       for t, b in enumerate(by_vertex[u])),
                                f"the projective at {v}")))
    g = vstack_maps([part for _, part in parts], M)
    return stack_maps([part for part, _ in parts], g.source), g


# -- tau-period-one exclusions ---------------------------------------------

def check_tau_period_one_exclusions(table: AlgebraTable) -> dict:
    """No simple and no P/soc P may be tau-fixed (local Nakayama excluded)."""
    require_selfinjective_sb(table)
    if is_local_nakayama(table):
        raise LocalNakayamaExcluded("local Nakayama algebras are excluded")
    if not table.quiver.is_connected():
        raise LocalNakayamaExcluded("check requires an indecomposable (connected) algebra")
    q = table.quiver
    report = {}
    for v in q.vertices:
        s = StringWord.trivial(v)
        pq = canonical_form(q, proj_quotient_word(table, v))
        tau_s = tau(table, s)
        tau_pq = tau(table, pq)
        report[v] = {
            "tau_simple": str(tau_s),
            "simple_moved": not words_equal(q, tau_s, s),
            "tau_proj_quotient": str(tau_pq),
            "proj_quotient_moved": not words_equal(q, tau_pq, pq),
        }
    report["all_pass"] = all(r["simple_moved"] and r["proj_quotient_moved"]
                             for v, r in report.items() if v != "all_pass")
    return report
