"""Auslander-Reiten translation for string modules, by hook surgery.

tau is computed by adding co-hooks where possible and deleting hooks
otherwise, on both ends; tau-inverse dually by adding hooks and deleting
co-hooks.  Quotients P/soc P and radicals rad P are recognized first and
routed through the projective-middle sequence.  The canonical diagram
map M -> tau^{-1}M is classified into the mono / epi / mixed / radical
cases and its mapping cone is returned as two explicit string words.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg as la
from .checks import check_special_biserial
from .core import AlgebraTable, DomainError, check_selfinjective_symmetric
from .strings import (EMPTY, EmptyWord, Letter, StringWord, canonical_form,
                      directed_runs, is_band, left_op, letter_source,
                      letter_target, right_op, side_ops, string_module,
                      validate_string, word_key, word_source, word_target,
                      words_equal)


class BandInput(DomainError):
    pass


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
        report = check_special_biserial(table.pres, table)
        verdict = check_selfinjective_symmetric(table).verdict
        table._sb_selfinjective = (report.is_special_biserial
                                   and verdict != "not-selfinjective")
    if not table._sb_selfinjective:
        raise NotSelfinjectiveSB("operation requires a selfinjective special biserial table")


def is_local_nakayama(table: AlgebraTable) -> bool:
    return len(table.quiver.vertices) == 1 and len(table.quiver.arrows) == 1


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

@dataclass
class Surgery:
    """A full two-sided surgery with node-alignment data.

    Nodes of the input word survive iff drop_left <= i <= n - drop_right,
    landing at index i - drop_left + add_left in the result.
    """

    word: object                 # StringWord or EMPTY
    right_kind: str
    left_kind: str
    drop_left: int = 0
    add_left: int = 0
    drop_right: int = 0
    add_right: int = 0


def _two_sided(table: AlgebraTable, word: StringWord, mode: str):
    """Apply both one-sided surgeries; prefer the deterministic route.

    A route degenerates when its first step deletes the word down to a
    trivial string: the second attachment would then lose the adjacency
    constraints of the deleted letters, so the other order is used (it is
    deterministic whenever the input is not a projective landmark).
    """
    right, left = side_ops(table, word, mode)

    def fill(surg, op, side):
        n = len(op.segment)
        if side == "right":
            if op.kind in ("hook", "cohook"):
                surg.add_right = n
            else:
                surg.drop_right = n
        else:
            if op.kind in ("hook", "cohook"):
                surg.add_left = n
            else:
                surg.drop_left = n

    # route A: right first, then left on the result
    result_a = None
    if isinstance(right.word, EmptyWord):
        result_a = Surgery(EMPTY, right.kind, left.kind)
    elif not (right.word.is_trivial() and not word.is_trivial()):
        second = left_op(table, right.word, mode)
        surg = Surgery(second.word, right.kind, second.kind)
        fill(surg, right, "right")
        fill(surg, second, "left")
        result_a = surg
    # route B: left first, then right on the result
    result_b = None
    if isinstance(left.word, EmptyWord):
        result_b = Surgery(EMPTY, right.kind, left.kind)
    elif not (left.word.is_trivial() and not word.is_trivial()):
        second = right_op(table, left.word, mode)
        surg = Surgery(second.word, second.kind, left.kind)
        fill(surg, left, "left")
        fill(surg, second, "right")
        result_b = surg

    candidates = [r for r in (result_a, result_b) if r is not None]
    if not candidates:
        raise RuntimeError(f"both surgery routes degenerate on {word}")
    words = [r for r in candidates if not isinstance(r.word, EmptyWord)]
    if not words:
        return candidates[0]
    if len(words) == 2 and not words_equal(table.quiver, words[0].word, words[1].word):
        raise RuntimeError(f"one-sided surgeries disagree on {word}")
    return words[0]


# -- tau and tau-inverse ---------------------------------------------------

def _require_input(table: AlgebraTable, word: StringWord, cyclic: bool = False):
    """The precondition shared by tau, tau_inv and the AR and cone maps.

    A selfinjective special biserial table and a valid string that is
    neither a band (when cyclic) nor a simple projective module.
    """
    require_selfinjective_sb(table)
    validate_string(table, word)
    if cyclic and is_band(table, word):
        raise BandInput("band modules have tau-period one and are excluded")
    if word.is_trivial() and not table.quiver.out_arrows[word.vertex]:
        raise ProjectiveInput(f"{word} is the simple projective module at the "
                              f"arrow-less vertex {word.vertex}; it has no AR "
                              f"translate")


def tau(table: AlgebraTable, word: StringWord, cyclic: bool = False) -> StringWord:
    """AR translate of the string module M_word."""
    return _translate(table, "tau", word, cyclic)


def tau_inv(table: AlgebraTable, word: StringWord, cyclic: bool = False) -> StringWord:
    """Inverse AR translate of the string module M_word."""
    return _translate(table, "tauinv", word, cyclic)


def _translate(table: AlgebraTable, mode: str, word: StringWord,
               cyclic: bool) -> StringWord:
    """tau (mode 'tau') or tau^{-1} (mode 'tauinv'), memoized per table.

    A landmark (P/soc P for tau, rad P for tau^{-1}) goes to its partner;
    any other string goes through the two-sided surgery.
    """
    key = (mode, word, cyclic)
    out = table._translates.get(key)
    if out is not None:
        return out
    _require_input(table, word, cyclic)
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


@dataclass
class ARSequence:
    left: StringWord
    middle_strings: list
    middle_projective: str | None
    right: StringWord


def ar_sequence(table: AlgebraTable, word: StringWord, cyclic: bool = False) -> ARSequence:
    """The almost split sequence terminating at M_word."""
    _require_input(table, word, cyclic)
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

@dataclass
class CanonicalMap:
    case: str                  # 'i' | 'ii' | 'iii' | "iii'" | 'iv' | 'iv-uniserial'
    rep_map: object            # RepMap from M to tau^{-1} M
    target_word: object        # StringWord (or the quotient landmark word)


@dataclass
class ConeResult:
    case: str
    summands: list             # up to two StringWords


def _single_run(word: StringWord) -> bool:
    return len(directed_runs(word)) <= 1


def _classify(word, right_kind, left_kind) -> str:
    kinds = (right_kind, left_kind)
    if kinds == ("hook", "hook"):
        return "i"
    if kinds == ("cohook-delete", "cohook-delete"):
        return "ii"
    return "iii'" if _single_run(word) else "iii"


def _deleted_piece(word: StringWord, side: str, segment, quiver) -> StringWord:
    """The kernel piece of a co-hook deletion, as a directed string word.

    A successful right deletion removes one direct letter plus the
    trailing inverse run; the run (without the direct letter's node) is
    the kernel piece.  When no direct letter exists the deletion empties
    the diagram and the whole word is the piece.  Mirrored on the left.
    """
    if side == "right":
        if segment and not segment[0].inverse:
            run = segment[1:]
            if run:
                return StringWord(tuple(run))
            return StringWord.trivial(letter_target(quiver, segment[0]))
        return word
    if segment and segment[-1].inverse:
        run = segment[:-1]
        if run:
            return StringWord(tuple(run))
        return StringWord.trivial(letter_source(quiver, segment[-1]))
    return word


def _added_piece(side: str, segment, quiver) -> StringWord:
    """The new maximal directed string carried by an added hook."""
    if side == "right":
        rest = segment[1:]
        if rest:
            return StringWord(tuple(rest))
        return StringWord.trivial(letter_target(quiver, segment[0]))
    rest = segment[:-1]
    if rest:
        return StringWord(tuple(rest))
    return StringWord.trivial(letter_source(quiver, segment[0]))


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


def canonical_map_to_tau_inv(table: AlgebraTable, word: StringWord,
                             cyclic: bool = False) -> CanonicalMap:
    """The diagram-intersection morphism M -> tau^{-1}M with its case tag."""
    _require_input(table, word, cyclic)
    from .reps import RepMap
    q = table.quiver
    v = as_rad_of_projective(table, word)
    if v is not None:
        # rad P -> P/soc P killing all but the first arm: the image is one
        # indecomposable summand of rad P / soc P
        arms = table.arms(v)
        rword = rad_word(table, v)
        qword = proj_quotient_word(table, v)
        M = string_module(table, rword)
        T = string_module(table, qword)
        f = table.field
        blocks = {u: la.zeros(M.dims[u], T.dims[u], f) for u in q.vertices}
        k = len(arms[0].arrows)
        for i in range(k - 1):
            # M node i is the arm-1 prefix of length i+1
            j = i + 1 if len(arms) == 1 else k - 2 - i
            u, row = M.node_positions[i]
            u2, col = T.node_positions[j]
            if u != u2:
                raise RuntimeError(f"radical map alignment failed at {v}")
            blocks[u][row][col] = f.one
        fmap = RepMap(M, T, blocks)
        if not fmap.intertwines():
            raise RuntimeError(f"radical canonical map failed for {v}")
        case = "iv-uniserial" if len(arms) == 1 else "iv"
        return CanonicalMap(case, fmap, canonical_form(q, qword))
    surg = _two_sided(table, word, "tauinv")
    if isinstance(surg.word, EmptyWord):
        raise RuntimeError(f"tau-inverse of {word} is empty")
    case = _classify(word, surg.right_kind, surg.left_kind)
    M = string_module(table, word)
    T = string_module(table, surg.word)
    f = table.field
    blocks = {u: la.zeros(M.dims[u], T.dims[u], f) for u in q.vertices}
    n = word.length
    for i in range(n + 1):
        if i < surg.drop_left or i > n - surg.drop_right:
            continue
        j = i - surg.drop_left + surg.add_left
        u, row = M.node_positions[i]
        u2, col = T.node_positions[j]
        if u != u2:
            raise RuntimeError(f"node alignment failed for {word}")
        blocks[u][row][col] = f.one
    fmap = RepMap(M, T, blocks)
    if not fmap.intertwines():
        raise RuntimeError(f"canonical map construction failed for {word}")
    return CanonicalMap(case, fmap, canonical_form(q, surg.word))


def cone_of_canonical_map(table: AlgebraTable, word: StringWord,
                          cyclic: bool = False) -> ConeResult:
    """Mapping cone of the canonical map, as two directed string summands."""
    _require_input(table, word, cyclic)
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
    summands = []
    for side, op in (("right", right), ("left", left)):
        if op.kind == "hook":
            summands.append(_added_piece(side, op.segment, q))
        else:
            piece = _deleted_piece(word, side, op.segment, q)
            summands.append(omega_inv_word(table, piece))
    return ConeResult(case, [canonical_form(q, s) for s in summands])


def ar_right_map(table: AlgebraTable, word: StringWord):
    """The almost split sequence with an explicit right map E -> M_word.

    Returns (sequence, right RepMap); its kernel realizes the left term.
    Middle summands embed or project onto M_word by node correspondence,
    and a projective middle maps through its path basis.
    """
    _require_input(table, word)
    from .reps import RepMap, projective, vstack_maps
    q = table.quiver
    f = table.field
    seq = ar_sequence(table, word)
    v = as_proj_quotient(table, word)
    comps = []
    if v is not None:
        qword = proj_quotient_word(table, v)
        M_real = string_module(table, qword)
        arms = table.arms(v)
        # rad/soc summands, by their position along the quotient word
        for idx, arm in enumerate(arms):
            k = len(arm.arrows)
            if k < 2:
                continue
            inner = arm.arrows[1:-1]
            S = string_module(table, StringWord(tuple(Letter(a) for a in inner))
                              if inner else StringWord.trivial(q.target(arm.arrows[0])))
            blocks = {u: la.zeros(S.dims[u], M_real.dims[u], f) for u in q.vertices}
            for j in range(k - 1):
                # S node j is the arm prefix of length j+1
                if len(arms) == 1:
                    tgt = j + 1
                else:
                    tgt = (k - 2 - j) if idx == 0 else (len(arms[0].arrows) - 1) + (j + 1)
                u, row = S.node_positions[j]
                u2, col = M_real.node_positions[tgt]
                if u != u2:
                    raise RuntimeError(f"rad/soc alignment failed at {v}")
                blocks[u][row][col] = f.one
            comps.append(RepMap(S, M_real, blocks))
        # the projective P_v maps onto P_v/soc through its path basis
        P = projective(table, v)
        blocks = {u: la.zeros(P.dims[u], M_real.dims[u], f) for u in q.vertices}
        k1 = len(arms[0].arrows)
        pos = {(): k1 - 1 if len(arms) == 2 else 0}
        for idx, arm in enumerate(arms):
            for j in range(1, len(arm.arrows)):
                if len(arms) == 1:
                    pos[arm.arrows[:j]] = j
                else:
                    pos[arm.arrows[:j]] = (k1 - 1 - j) if idx == 0 else (k1 - 1) + j
        for u in q.vertices:
            for t, bidx in enumerate(P.projective_basis[u]):
                arrows = table.basis[bidx].arrows
                tgt = pos.get(arrows)
                if tgt is None:
                    continue  # the socle class dies in P/soc
                u2, col = M_real.node_positions[tgt]
                if u2 != u:
                    raise RuntimeError(f"projective alignment failed at {v}")
                blocks[u][t][col] = f.one
        comps.append(RepMap(P, M_real, blocks))
    else:
        M_real = string_module(table, word)
        right, left = side_ops(table, word, "tau")
        n = word.length
        for side, op in (("right", right), ("left", left)):
            if isinstance(op.word, EmptyWord):
                continue
            S = string_module(table, op.word)
            blocks = {u: la.zeros(S.dims[u], M_real.dims[u], f) for u in q.vertices}
            added = len(op.segment) if op.kind == "cohook" else 0
            removed = len(op.segment) if op.kind != "cohook" else 0
            for j in range(op.word.length + 1):
                if side == "right":
                    tgt = j
                    if tgt > n:
                        continue
                else:
                    tgt = j - added + removed
                    if tgt < 0 or tgt > n:
                        continue
                u, row = S.node_positions[j]
                u2, col = M_real.node_positions[tgt]
                if u != u2:
                    raise RuntimeError(f"middle alignment failed for {word}")
                blocks[u][row][col] = f.one
            comps.append(RepMap(S, M_real, blocks))
    g = vstack_maps(comps, M_real)
    if not g.intertwines():
        raise RuntimeError(f"right map construction failed for {word}")
    return seq, g


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
