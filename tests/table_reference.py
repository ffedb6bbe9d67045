"""Brute-force references for the table's own exact methods, and inputs.

``verify_associativity`` checks every basis triple, O(dim^3) products;
``dense_socle`` solves soc(e_v A) from dense fiber-by-fiber matrices of
right multiplication by each arrow.  Both are the routes the library
took before ``AlgebraTable.certify`` and ``AlgebraTable.socle`` read the
right regular representation; the tests compare the two, on a seeded
family of random presentations and on three presentations whose tables
``build_table`` gets wrong.  ``reference_normal_form`` and
``reference_basis`` rewrite by the linear scan of every rule at every
position that ``AlgebraTable.normal_form`` made before it looked rules up
by their first arrow.  ``reference_arms``, ``reference_continuations`` and
the two ``reference_*_witnesses`` test "nonzero and outside the socle" on
``nf_vector`` and ``in_socle`` by hand, as the library did before
``AlgebraTable.off_socle`` answered it.  ``reference_strip_projectives``
splits off projective summands by solving Hom(C, e_v A) at every vertex,
as ``reps.strip_projectives`` did before it read the rank of the socle
line.  ``reference_tau_syzygy`` and ``reference_ar_exact`` are the
``tau-syzygy-oracle`` and ``ar-sequence-exactness`` sweep checks by
kernels and an isomorphism search, as the sweep made them before it
checked witnessed exact sequences, and ``reference_cone_matches`` is the
``cone-oracle`` check by the cokernel of (f, iota) into tau^{-1}M (+) I(M),
``strip_projectives`` and an isomorphism search, as the sweep made it
before it checked ``translate.cone_sequence``.  ``reference_deep_vertices`` scans a
word for the nodes no arrow leaves, as ``bricks`` did before it read the
deeps as the peaks of the word turned round.  ``reference_reverse_word``
and ``reference_letters_from`` build every letter afresh, as ``strings``
did before the quiver owned its letters.  ``top_dims``, ``cosyzygy``
and ``stable_class_is_zero`` are module queries that only tests ask.
``random_presentation_text``, ``nakayama``, ``quantum_exterior`` and
``socle_deformed`` make inputs.
"""

import itertools
import random

from biserial.core import AlgebraPresentation, EqualityRelation, Quiver, ZeroRelation
from biserial.fields import Field
from biserial.instances import random_standard_data
from biserial.linalg import Echelon, row_nullspace
from biserial.normalizer import build_from_standard_data
from biserial.reps import (_factoring_maps, _top_generators, direct_sum, hom,
                           injective_hull, is_isomorphic, kernel_of_map,
                           mapping_cone_rep, projective, stack_maps,
                           strip_projectives, syzygy)
from biserial.strings import Letter, StringWord, node_vertices, string_module
from biserial.translate import (ar_right_map, canonical_map_to_tau_inv,
                                cone_of_canonical_map, tau)


def verify_associativity(table) -> bool:
    """(x y) z == x (y z) on every triple of basis classes."""
    f = table.field

    def linear(vec, times):
        """The sum of c * times(t) over the terms c t of vec."""
        out = {}
        for t, c in vec.items():
            for u, d in times(t).items():
                s = f.add(out.get(u, f.zero), f.mul(c, d))
                if s == f.zero:
                    out.pop(u, None)
                else:
                    out[u] = s
        return out

    for i, j, k in itertools.product(range(table.dim), repeat=3):
        left = linear(table.mult_basis(i, j), lambda t: table.mult_basis(t, k))
        right = linear(table.mult_basis(j, k), lambda t: table.mult_basis(i, t))
        if left != right:
            return False
    return True


def _right_mult_matrix(table, v, arrow):
    """Matrix of right multiplication by arrow on the e_v A fiber."""
    fiber = table.by_source[v]
    col_pos = {b: t for t, b in enumerate(fiber)}
    mat = [[table.field.zero] * len(fiber) for _ in fiber]
    for r, bi in enumerate(fiber):
        if table.basis[bi].target != arrow.source:
            continue
        for k, c in table.nf_vector(table.basis[bi].arrows + (arrow.name,),
                                    table.basis[bi].source).items():
            mat[r][col_pos[k]] = c
    return mat


def dense_socle(table) -> dict:
    """Per-vertex basis of soc(e_v A) over the fiber, from dense matrices."""
    out = {}
    for v in table.quiver.vertices:
        mats = [_right_mult_matrix(table, v, a) for a in table.quiver.arrows]
        stacked = [list(itertools.chain.from_iterable(m[r] for m in mats))
                   for r in range(len(table.by_source[v]))]
        out[v] = row_nullspace([{j: x for j, x in enumerate(row) if x} for row in stacked],
                               table.field)
    return out


def reference_normal_form(table, arrows) -> dict:
    """``table.normal_form(arrows)`` by a linear scan of the table's rules.

    At each position, leftmost first, it tries every zero rule, then every
    substitution, then every deformation, each kind in insertion order,
    and rewrites with the first that matches.  Nothing is memoized and no
    step is counted, so call it only on paths whose rewriting ends.
    """
    f = table.field
    kinds = (("zero", table._zero_rules), ("subst", table._subst_rules),
             ("deform", table._deformations))

    def first_match(p):
        for pos in range(len(p)):
            for kind, rules in kinds:
                for lhs, payload in rules.items():
                    if p[pos:pos + len(lhs)] == lhs:
                        return pos, kind, lhs, payload
        return None

    result = {}
    work = [(f.one, tuple(arrows))]
    while work:
        coeff, p = work.pop()
        match = first_match(p)
        if match is None:
            total = f.add(result.get(p, f.zero), coeff)
            if total:
                result[p] = total
            else:
                result.pop(p, None)
            continue
        pos, kind, lhs, payload = match
        if kind == "zero":
            continue
        x, y = p[:pos], p[pos + len(lhs):]
        c, rhs = payload
        if kind == "subst":
            work.append((f.mul(coeff, c), x + rhs + y))
        elif not y:     # a deformed product followed by an arrow is zero
            work.append((f.mul(coeff, c), x + rhs))
    return result


def reference_basis(table) -> set:
    """The paths that ``reference_normal_form`` keeps, grown arrow by arrow."""
    q = table.quiver
    frontier = [q.path((), v) for v in q.vertices]
    basis = set(frontier)
    while frontier:
        grown = []
        for p in frontier:
            for a in q.out_arrows[p.target]:
                arrows = p.arrows + (a.name,)
                if reference_normal_form(table, arrows) == {arrows: table.field.one}:
                    grown.append(q.path(arrows))
        basis.update(grown)
        frontier = grown
    return basis


def reference_arms(table, vertex) -> tuple:
    """``table.arms(vertex)``, unmemoized, from vectors and ``in_socle``."""
    q = table.quiver
    out = []
    for start in q.out_arrows[vertex]:
        arrows = [start.name]
        vec = table.nf_vector(tuple(arrows))
        if not vec:
            continue
        while not table.in_socle(vec):
            best = None
            for a in q.out_arrows[q.target(arrows[-1])]:
                cand = table.nf_vector(tuple(arrows) + (a.name,))
                if not cand:
                    continue
                if not table.in_socle(cand):
                    best = (a.name, cand)
                    break
                if best is None:
                    best = (a.name, cand)
            if best is None:
                break
            arrows.append(best[0])
            vec = best[1]
        out.append(q.path(tuple(arrows)))
    return tuple(out)


def reference_continuations(table, arrow, socle_free, before=False) -> list:
    """Arrows b with arrow*b (b*arrow when before) nonzero, and outside
    the socle if socle_free, from vectors and ``in_socle``."""
    q = table.quiver
    out = []
    for b in (q.in_arrows[q.source(arrow)] if before else q.out_arrows[q.target(arrow)]):
        vec = table.nf_vector((b.name, arrow) if before else (arrow, b.name))
        if vec and not (socle_free and table.in_socle(vec)):
            out.append(b.name)
    return out


def _reference_continuation_witnesses(table, socle_free, suffix):
    out = []
    for a in table.quiver.arrows:
        conts = reference_continuations(table, a.name, socle_free)
        if len(conts) > 1:
            out.append((a.name, "right-continuations" + suffix, tuple(conts)))
        coconts = reference_continuations(table, a.name, socle_free, before=True)
        if len(coconts) > 1:
            out.append((a.name, "left-continuations" + suffix, tuple(coconts)))
    return out


def reference_special_biserial_witnesses(table) -> list:
    """The witnesses of ``checks.check_special_biserial``: each vertex of
    degree above 2, then each arrow's right and left continuations."""
    witnesses = [(f"vertex {v}", "degree", (i, o))
                 for v, (i, o) in table.quiver.degrees().items() if i > 2 or o > 2]
    return witnesses + _reference_continuation_witnesses(table, False, "")


def reference_stably_biserial_witnesses(table) -> list:
    """The witnesses of ``checks._stably_biserial_conditions``."""
    bounded = all(i <= 2 and o <= 2 for i, o in table.quiver.degrees().values())
    witnesses = [] if bounded else [("quiver", "degree", None)]
    return witnesses + _reference_continuation_witnesses(table, True, "-mod-socle")


def reference_strip_projectives(table, C):
    """``reps.strip_projectives`` by Hom(C, e_v A); (reduced, vertices).

    Hom(P_v, C) ~ C_v, and a composite P_v -> C -> P_v is invertible iff
    its coefficient at e_v is nonzero (e_v A e_v is local with residue
    field k).  So the multiplicity of P_v in C is the rank of the pairing
    C_v x Hom(C, P_v) -> k, x, g |-> coefficient of e_v in g(x), and the
    Hom(C, P_v) basis maps with independent pairing columns, stacked over
    all vertices, give G: C -> (+) P_v^{m_v} whose composite with the
    matching maps out of the projectives is invertible modulo the radical.
    G is then a split epimorphism, and ker G is the projective-free
    complement.
    """
    chosen, stripped = [], []
    for v in table.quiver.vertices:
        P = projective(table, v)
        if not C.dims[v] or P.total_dim > C.total_dim:
            continue
        top = next(t for t, i in enumerate(table.regular_action(v)[0][v])
                   if not table.basis[i].length)
        pairing = Echelon(table.field)
        for g in hom(table, C, P):
            column = {i: row[top] for i, row in enumerate(g.blocks[v]) if top in row}
            if pairing.add(column):
                chosen.append(g)
                stripped.append(v)
    if not chosen:
        return C, []
    reduced, _ = kernel_of_map(stack_maps(chosen, direct_sum(*[g.target for g in chosen])))
    return reduced, stripped


def reference_tau_syzygy(table, word) -> bool:
    """Whether M(tau w) ~ Omega^2 M(w), by two projective covers and Hom."""
    M = string_module(table, word)
    return is_isomorphic(table, string_module(table, tau(table, word)),
                         syzygy(table, syzygy(table, M)))


def reference_ar_exact(table, word) -> bool:
    """Whether ``ar_right_map``'s right map is a module map onto M(w) with
    kernel M(tau w), by Hom."""
    _, g = ar_right_map(table, word)
    if not g.intertwines():
        return False
    K, _ = kernel_of_map(g)
    return g.is_surjective() and is_isomorphic(
        table, K, string_module(table, tau(table, word)))


def reference_cone_matches(table, word) -> bool:
    """Whether the cokernel of (f, iota): M -> tau^{-1}M (+) I(M), stripped
    of its projective summands, is the sum of the cone's summands, by an
    isomorphism search."""
    fmap = canonical_map_to_tau_inv(table, word)
    reduced, _ = strip_projectives(table, mapping_cone_rep(table, fmap))
    expected = direct_sum(*[string_module(table, s)
                            for s in cone_of_canonical_map(table, word).summands])
    return is_isomorphic(table, reduced, expected)


def reference_deep_vertices(quiver, word):
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


def reference_reverse_word(word):
    """The walk run backwards, each letter built as the inverse of one."""
    if word.is_trivial():
        return word
    return StringWord(tuple([Letter(a, not inv) for a, inv in reversed(word.letters)]))


def reference_letters_from(quiver, vertex) -> list:
    """The letters leaving a vertex, in the order enumeration tries them:
    direct letters of the out-arrows, then inverse letters of the in-arrows."""
    return ([Letter(a.name) for a in quiver.out_arrows[vertex]]
            + [Letter(a.name, True) for a in quiver.in_arrows[vertex]])


def top_dims(M) -> dict:
    """Vertex -> dimension of the top of M at that vertex."""
    tops = {v: 0 for v in M.table.quiver.vertices}
    for v, _ in _top_generators(M):
        tops[v] += 1
    return tops


def cosyzygy(table, M):
    """The cokernel of the injective hull of M."""
    return injective_hull(table, M)[2]


def stable_class_is_zero(table, fmap) -> bool:
    """Does a hom vanish in the stable category?"""
    vec = fmap.flatten()
    if not vec:
        return True
    factoring = [g.flatten() for g in _factoring_maps(table, fmap.source, fmap.target)]
    return not Echelon(table.field, factoring).reduce(vec)


def random_presentation_text(seed: int) -> str:
    """A seeded small presentation in the file syntax, often not confluent.

    One or two vertices, two or three arrows, every path of length L zero
    (L = 3 or 4), and one to four relations among shorter paths: zero
    paths, and equalities of parallel paths with a random scalar (0 and
    multiples of p included), which the parser reads as socle deformations
    when the left side has length 2 and shares its first arrow with the
    right.  Some draws are rejected by ``build_table``.
    """
    rng = random.Random(seed)
    n = rng.choice((1, 1, 2))
    arrows = [(name, str(rng.randint(1, n)), str(rng.randint(1, n)))
              for name in "xyz"[:rng.randint(2, 3)]]
    nilpotency = rng.choice((3, 4, 4)) if len(arrows) == 2 else 3
    paths = [(a,) for a in arrows]
    by_length = {1: paths}
    for length in range(2, nilpotency + 1):
        by_length[length] = [p + (a,) for p in by_length[length - 1]
                             for a in arrows if p[-1][2] == a[1]]
    lines = [f"field {rng.choice(('Q', 'F2', 'F3', 'F5'))}",
             "vertex " + " ".join(str(i + 1) for i in range(n))]
    lines += [f"arrow {a} : {s} -> {t}" for a, s, t in arrows]
    names = lambda p: " ".join(a[0] for a in p)
    short = [p for length in range(2, nilpotency) for p in by_length[length]]
    lefts = rng.sample(short, min(len(short), rng.randint(1, 4)))
    if rng.random() < 0.5:      # length-2 left sides only: more deformations
        lefts = [p for p in lefts if len(p) == 2] or lefts[:1]
    for left in lefts:
        parallel = [p for p in short if p not in lefts and p[0][1] == left[0][1]
                    and p[-1][2] == left[-1][2]]
        # a length-2 left side and a right side with its first arrow is a
        # socle deformation; prefer those to exercise the tail drop
        deform = [p for p in parallel if len(left) == 2 and p[0] == left[0]]
        if deform and rng.random() < 0.9:
            parallel = deform
        if not parallel or rng.random() < 0.2:
            lines.append(f"rel {names(left)} = 0")
            continue
        scalar = rng.choice(("", "", "2 ", "-1 ", "3 ", "0 "))
        lines.append(f"rel {names(left)} = {scalar}{names(rng.choice(parallel))}")
    lines += [f"rel {names(p)} = 0" for p in by_length[nilpotency]]
    return "\n".join(lines) + "\n"


# The true quotient is 4-dimensional (x^3 = x y^2 = 0, so y x = 0), but
# directed rewriting without critical-pair completion keeps 6 classes and a
# non-associative product.  build_table does not notice; certify and the
# sweep do.  See README, Limits.
NON_CONFLUENT_TEXT = """
field Q
vertex 1
arrow x : 1 -> 1
arrow y : 1 -> 1
rel x y = 0
rel x x = y y
rel y x = x x x
"""

# An associative table that is too large: c c = c c c forces c c = c^4 = 0,
# so c a = c c b = 0 and the true algebra has dimension 5, not 6.
ASSOCIATIVE_BUT_WRONG_TEXT = """
field Q
vertex 1 2
arrow a : 1 -> 2
arrow b : 1 -> 2
arrow c : 1 -> 1
rel c c = c c c
rel c b = 0
rel c c b = c a
rel c c c c = 0
"""

# Every e_v A satisfies the relations, but normal_form drops x y x to 0
# while (x y) x = x x x is a basis path: only the tail check fails.
TAIL_DROP_TEXT = ("field Q\nvertex 1\narrow x : 1 -> 1\narrow y : 1 -> 1\nrel x y = x x\n"
                  + "".join(f"rel {' '.join(w)} = 0\n"
                            for w in itertools.product("xy", repeat=4)))


# The rules x y -> y x and x y y -> 0 both start with x and both match
# x y y at its first arrow; the zero rule comes first although its
# relation comes second, so x y y is 0 (the substitution would leave y y x).
ZERO_BEFORE_SUBSTITUTION_TEXT = (
    "field Q\nvertex 1\narrow y : 1 -> 1\narrow x : 1 -> 1\n"
    "rel x y = y x\nrel x y y = 0\n"
    + "".join(f"rel {' '.join(w)} = 0\n" for w in itertools.product("xy", repeat=4)))


def nakayama(n: int, length: int, field: Field) -> AlgebraPresentation:
    """The cyclic Nakayama algebra on n vertices with every path of the length zero."""
    q = Quiver([str(i) for i in range(n)],
               [(f"a{i}", str(i), str((i + 1) % n)) for i in range(n)])
    rels = [ZeroRelation(q.path([f"a{(i + t) % n}" for t in range(length)]))
            for i in range(n)]
    return AlgebraPresentation(field, q, rels)


def quantum_exterior(q, field: Field) -> AlgebraPresentation:
    """The quantum exterior algebra k<a, b>/(a a, b b, a b - q b a) on one vertex.

    It is selfinjective with socle a b, and for q not 1 not symmetric:
    the socle paths a b and b a of its two arms differ by the ratio q.
    """
    quiver = Quiver(["1"], [("a", "1", "1"), ("b", "1", "1")])
    path = quiver.path
    return AlgebraPresentation(field, quiver, [
        ZeroRelation(path(["a", "a"])), ZeroRelation(path(["b", "b"])),
        EqualityRelation(path(["a", "b"]), q, path(["b", "a"]))])


def socle_deformed(seed: int, field: Field):
    """(presentation, deformations) of seeded standard data with a loop,
    its chosen loops deformed by socle scalars drawn from the seed."""
    quiver, pi, mult = random_standard_data(seed, require_loop=True)
    rng = random.Random(seed + 101)
    loops = [a.name for a in quiver.arrows
             if a.source == a.target and pi[a.name] != a.name]
    chosen = [l for l in loops if rng.random() < 0.8] or [loops[0]]
    scalars = {l: rng.choice((1, 2, 3, -1)) for l in chosen}
    defs = [(l, field.of(c)) for l, c in scalars.items() if field.of(c) != field.zero]
    if not defs:
        defs = [(chosen[0], field.one)]
    return build_from_standard_data(quiver, pi, mult, defs, field), defs
