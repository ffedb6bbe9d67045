"""The exact linear-algebra oracle for right modules over an AlgebraTable.

Representations assign a dimension to each vertex and a matrix to each
arrow, in the one matrix format of ``linalg``: a list of sparse rows
``{column: coeff}``, one per basis vector of the arrow's source, over the
basis of its target.  The vertex dimensions carry the shapes.  Row vectors
at the source map to row vectors at the target, so x . mat is the action.
A map of representations holds one such block per vertex.  All
elimination runs on ``linalg.Echelon`` over the exact field; dimensions
stay at desk scale.

Isomorphism verdicts are never guesses.  ``find_isomorphism`` returns a
witness (a hom checked invertible at every vertex), or None only with a
proof of non-isomorphism, and raises ``Undecided`` otherwise.  The
proofs are: different dimension vectors; Hom(M, N) = 0; a one-dimensional
Hom(M, N) spanned by a singular map; dim Hom(M, N), dim End M, dim End N
and dim Hom(N, M) not all equal; or an identity outside the span of the
composites M -> N -> M (or N -> M -> N), so that M is not a summand of a
sum of copies of N (or N of M).  ``is_isomorphic`` is its yes/no form.

Stable Hom is Hom(M, N) modulo the span of the composites of Hom(M, e_v A)
with the generator maps e_v A -> N of the projective cover of N.
"""

from __future__ import annotations

import random

from . import linalg as la
from .checks import NotSelfinjective
from .core import (AlgebraTable, DomainError, Record, _socle_lines, broken_relation,
                   build_table, check_selfinjective_symmetric, opposite_presentation)


class ModuleRep:
    """A finite-dimensional right module in matrix form.

    mats[a] holds dims[source] sparse rows over dims[target] columns.
    Read-only by contract: nothing changes dims, mats or a row of them
    after construction, so a module may be shared, as string modules and
    projectives are through their table's caches, and may cache what is
    derived from it.
    """

    def __init__(self, table: AlgebraTable, dims: dict, mats: dict):
        self.table = table
        self.field = table.field
        self.dims = {v: dims.get(v, 0) for v in table.quiver.vertices}
        self.mats = {a.name: mats[a.name] for a in table.quiver.arrows}
        # filled on first use by _factoring_maps
        self._hom_to_projective = {}     # vertex -> basis of Hom(M, e_v A)

    @property
    def total_dim(self) -> int:
        return sum(self.dims.values())

    def dim_vector(self) -> dict:
        return dict(self.dims)

    def satisfies_relations(self) -> bool:
        return broken_relation(self.table, self.mats, self.table.pres.relations) is None

    def is_zero(self) -> bool:
        return self.total_dim == 0


class RepMap(Record):
    """A homomorphism of representations as per-vertex blocks.

    blocks[v] holds source.dims[v] sparse rows over target.dims[v] columns.
    """

    __slots__ = ("source", "target", "blocks")

    def __init__(self, source: ModuleRep, target: ModuleRep, blocks: dict):
        self.source = source
        self.target = target
        self.blocks = blocks

    def intertwines(self) -> bool:
        f = self.source.field
        return all(la.mat_mul(self.source.mats[a.name], self.blocks[a.target], f)
                   == la.mat_mul(self.blocks[a.source], self.target.mats[a.name], f)
                   for a in self.source.table.quiver.arrows)

    def flatten(self) -> dict:
        """The blocks as one sparse vector, row after row, vertex by vertex."""
        out = {}
        shift = 0
        for v in self.source.table.quiver.vertices:
            for row in self.blocks[v]:
                out.update((shift + j, x) for j, x in row.items())
                shift += self.target.dims[v]
        return out

    def compose(self, other: "RepMap") -> "RepMap":
        """self: M->N composed with other: N->L gives M->L."""
        f = self.source.field
        blocks = {v: la.mat_mul(self.blocks[v], other.blocks[v], f)
                  for v in self.source.table.quiver.vertices}
        return RepMap(self.source, other.target, blocks)

    def rank(self) -> int:
        return sum(la.rank(self.blocks[v], self.source.field)
                   for v in self.source.table.quiver.vertices)

    def is_injective(self) -> bool:
        return self.rank() == self.source.total_dim

    def is_surjective(self) -> bool:
        return self.rank() == self.target.total_dim

    def is_bijective(self) -> bool:
        """Whether every block is invertible; for a module map, whether it is an isomorphism."""
        f = self.source.field
        return self.source.dims == self.target.dims and all(
            la.is_invertible(block, f)
            for v, block in self.blocks.items() if self.source.dims[v])


def zero_rep(table: AlgebraTable) -> ModuleRep:
    return ModuleRep(table, {}, {a.name: [] for a in table.quiver.arrows})


def direct_sum(*reps: ModuleRep) -> ModuleRep:
    reps = [r for r in reps if r is not None]
    table = reps[0].table
    dims = {v: sum(r.dims[v] for r in reps) for v in table.quiver.vertices}
    mats = {}
    for a in table.quiver.arrows:
        m, shift = [], 0
        for r in reps:
            m.extend({shift + j: x for j, x in row.items()} for row in r.mats[a.name])
            shift += r.dims[a.target]
        mats[a.name] = m
    return ModuleRep(table, dims, mats)


def projective(table: AlgebraTable, vertex: str) -> ModuleRep:
    """The right regular summand e_v A with its path basis (cached)."""
    cache = table._projective_cache
    if vertex in cache:
        return cache[vertex]
    by_vertex, mats = table.regular_action(vertex)
    rep = ModuleRep(table, {w: len(idxs) for w, idxs in by_vertex.items()}, mats)
    cache[vertex] = rep
    return rep


def hom(table: AlgebraTable, M: ModuleRep, N: ModuleRep):
    """Basis of Hom(M, N): solve the intertwining system exactly.

    The unknown block x_v has one variable per cell (v, i, j), numbered
    vertex by vertex, then row by row.
    """
    f = table.field
    q = table.quiver
    cells, base = [], {}
    for v in q.vertices:
        base[v] = len(cells)
        cells += [(v, i, j) for i in range(M.dims[v]) for j in range(N.dims[v])]
    equations = []
    for a in q.arrows:
        s, e = a.source, a.target
        bs, be, ns, ne = base[s], base[e], N.dims[s], N.dims[e]
        columns = la.transpose(N.mats[a.name], ne)
        for i, m_row in enumerate(M.mats[a.name]):
            for j, column in enumerate(columns):
                # (Ma x_e - x_s Na)[i][j]; its two sums meet only on a loop
                row = {be + t * ne + j: c for t, c in m_row.items()}
                la.sub_multiple(row, 1, {bs + i * ns + t: c for t, c in column.items()}, f)
                if row:
                    equations.append(row)
    maps = []
    for sol in la.sparse_nullspace(equations, len(cells), f):
        blocks = {v: [{} for _ in range(M.dims[v])] for v in q.vertices}
        for k, c in sol.items():
            v, i, j = cells[k]
            blocks[v][i][j] = c
        maps.append(RepMap(M, N, blocks))
    return maps


def sub_rep(N: ModuleRep, rows_per_vertex: dict):
    """Submodule spanned by the given row vectors (must be arrow-stable).

    The rows may be any spanning set; they are reduced to a basis first.
    """
    table = N.table
    f = N.field
    spaces = {v: la.Echelon(f, rows_per_vertex.get(v, []))
              for v in table.quiver.vertices}
    # the reduced rows are the basis, so a member's coordinates are its
    # entries at the pivots
    bases = {v: [space.rows[p] for p in space.pivots] for v, space in spaces.items()}
    dims = {v: len(bases[v]) for v in bases}
    mats = {}
    for a in table.quiver.arrows:
        target = spaces[a.target]
        coordinate = {p: k for k, p in enumerate(target.pivots)}
        m = []
        for row in bases[a.source]:
            img = la.row_vec_mul(row, N.mats[a.name], f)
            if target.reduce(img):
                raise ValueError("rows do not span a submodule")
            m.append({coordinate[p]: c for p, c in img.items() if p in coordinate})
        mats[a.name] = m
    S = ModuleRep(table, dims, mats)
    return S, RepMap(S, N, bases)


def quotient_rep(N: ModuleRep, rows_per_vertex: dict):
    """Quotient of N by the submodule spanned by the given rows."""
    table = N.table
    f = N.field
    spaces = {v: la.Echelon(f, rows_per_vertex.get(v, []))
              for v in table.quiver.vertices}
    # the non-pivot axes span a complement of the submodule
    axes = {v: [j for j in range(N.dims[v]) if j not in spaces[v].rows]
            for v in table.quiver.vertices}
    dims = {v: len(axes[v]) for v in axes}
    coordinate = {v: {j: k for k, j in enumerate(axes[v])} for v in axes}

    def coords(v, row):
        """Coordinates of row + W_v over the complement's axes.

        A residue modulo the reduced rows vanishes at every pivot.
        """
        return {coordinate[v][j]: c for j, c in spaces[v].reduce(row).items()}

    mats = {a.name: [coords(a.target, N.mats[a.name][j]) for j in axes[a.source]]
            for a in table.quiver.arrows}
    Q = ModuleRep(table, dims, mats)
    proj_blocks = {v: [coords(v, {i: 1}) for i in range(N.dims[v])]
                   for v in table.quiver.vertices}
    return Q, RepMap(N, Q, proj_blocks)


def kernel_of_map(fmap: RepMap):
    """Kernel submodule of a hom, with its inclusion."""
    M = fmap.source
    rows = {v: la.row_nullspace(fmap.blocks[v], M.field)
            for v in M.table.quiver.vertices}
    return sub_rep(M, rows)


def cokernel_of_map(fmap: RepMap):
    """Cokernel quotient of a hom, with its projection."""
    return quotient_rep(fmap.target, fmap.blocks)


def exactness_defect(f: RepMap, g: RepMap) -> str:
    """Why 0 -> L -f-> E -g-> R -> 0 is not short exact, or "" if it is.

    f must map into the module g maps out of.  The sequence is exact iff
    dim E = dim L + dim R, f and g intertwine, f g = 0, f is injective and
    g is surjective: then f(L) lies in ker g and both have dimension
    dim E - dim R, so L ~ ker g.  Each defect disproves exactness.
    """
    if f.target is not g.source:
        raise ValueError("the two maps do not meet at one module")
    if g.source.total_dim != f.source.total_dim + g.target.total_dim:
        return "dimensions do not add up"
    if not f.intertwines():
        return "left map does not intertwine"
    if not g.intertwines():
        return "right map does not intertwine"
    if any(row for rows in f.compose(g).blocks.values() for row in rows):
        return "composite is not zero"
    if not f.is_injective():
        return "left map not injective"
    if not g.is_surjective():
        return "right map not surjective"
    return ""


def radical_rows(M: ModuleRep) -> dict:
    """Per-vertex spanning rows of rad(M) = sum of arrow images."""
    table = M.table
    rows = {v: [] for v in table.quiver.vertices}
    for a in table.quiver.arrows:
        rows[a.target].extend(M.mats[a.name])
    return rows


def _top_generators(M: ModuleRep):
    """(vertex, unit row) for each generator of the top of M.

    Vertex order, then the non-pivot axes of rad(M) at that vertex.
    """
    rad = radical_rows(M)
    gens = []
    for v in M.table.quiver.vertices:
        pivots = la.Echelon(M.field, rad[v]).rows
        gens.extend((v, {j: 1}) for j in range(M.dims[v]) if j not in pivots)
    return gens


def _generator_map(table: AlgebraTable, M: ModuleRep, v: str, row) -> RepMap:
    """The map e_v A -> M sending e_v to row, so each basis path b to row . b.

    The basis is prefix-closed and in length order, so every image is built
    from its parent path's.
    """
    f = table.field
    blocks = {w: [] for w in table.quiver.vertices}
    images = {}
    for i in table.by_source[v]:
        path = table.basis[i]
        if path.length:
            last = path.arrows[-1]
            image = la.row_vec_mul(images[path.arrows[:-1]], M.mats[last], f)
        else:
            image = row
        images[path.arrows] = image
        blocks[path.target].append(image)
    return RepMap(projective(table, v), M, blocks)


def _cover_map(table: AlgebraTable, M: ModuleRep) -> RepMap:
    """The projective cover P -> M: one summand e_v A per top generator,
    in _top_generators order, each sent to its generator."""
    gens = _top_generators(M)
    if not gens and M.total_dim:
        raise ValueError("nonzero module with zero top")
    return vstack_maps([_generator_map(table, M, v, row) for v, row in gens], M)


def projective_cover(table: AlgebraTable, M: ModuleRep):
    """Minimal projective cover (P, cover map, kernel, kernel inclusion)."""
    cover = _cover_map(table, M)
    K, incl = kernel_of_map(cover)
    return cover.source, cover, K, incl


def opposite_table(table: AlgebraTable) -> AlgebraTable:
    if table._op_table is None:
        table._op_table = build_table(opposite_presentation(table.pres))
        table._op_table._op_table = table
    return table._op_table


def dual_rep(table_op: AlgebraTable, M: ModuleRep) -> ModuleRep:
    """Standard-coordinate dual: a module over the opposite table."""
    mats = {a.name: la.transpose(M.mats[a.name], M.dims[a.target])
            for a in M.table.quiver.arrows}
    return ModuleRep(table_op, dict(M.dims), mats)


def _hull_embedding(table: AlgebraTable, M: ModuleRep) -> RepMap:
    """The injective hull M -> I(M), the dual of a projective cover over
    the opposite table.

    Requires a selfinjective table (injectives coincide with projectives).
    """
    if check_selfinjective_symmetric(table).verdict == "not-selfinjective":
        raise NotSelfinjective("injective hulls computed only over selfinjective tables")
    opT = opposite_table(table)
    cover = _cover_map(opT, dual_rep(opT, M))
    blocks = {v: la.transpose(cover.blocks[v], M.dims[v]) for v in M.dims}
    return RepMap(M, dual_rep(table, cover.source), blocks)


def injective_hull(table: AlgebraTable, M: ModuleRep):
    """Minimal injective copresentation (I, embedding, cokernel, projection)."""
    embedding = _hull_embedding(table, M)
    coker, projection = cokernel_of_map(embedding)
    return embedding.target, embedding, coker, projection


def syzygy(table: AlgebraTable, M: ModuleRep) -> ModuleRep:
    return projective_cover(table, M)[2]


def _factoring_maps(table: AlgebraTable, M: ModuleRep, N: ModuleRep):
    """Spanning set of the maps M -> N that factor through a projective.

    Such a map factors through the projective cover of N, so the composites
    of Hom(M, e_v A) with the cover's generator maps e_v A -> N span them.
    Each Hom(M, e_v A) is solved once per module and kept on M.
    """
    to_projective = M._hom_to_projective
    maps = []
    for v, row in _top_generators(N):
        if v not in to_projective:
            to_projective[v] = hom(table, M, projective(table, v))
        g = _generator_map(table, N, v, row)
        maps.extend(h.compose(g) for h in to_projective[v])
    return maps


def stable_hom_dim(table: AlgebraTable, M: ModuleRep, N: ModuleRep) -> int:
    """dim Hom(M,N) minus the dimension of maps factoring through projectives."""
    maps = hom(table, M, N)
    if not maps:
        return 0
    factoring = [g.flatten() for g in _factoring_maps(table, M, N)]
    return len(maps) - la.span_rank(factoring, table.field)


# random combinations of a Hom(M, N) basis tried after the basis maps
ISO_TRIALS = 64


class Undecided(DomainError):
    """Neither an isomorphism nor a proof of non-isomorphism was found."""


def _invertible_combination(maps, coeffs):
    """sum(c * g) over the maps if it is invertible at every vertex, else None.

    Blocks are built and tested one vertex at a time, so a singular vertex
    stops the work early.
    """
    M, N = maps[0].source, maps[0].target
    f = M.field
    terms = [(f.neg(c), g) for c, g in zip(coeffs, maps) if c]
    blocks = {}
    for v in M.table.quiver.vertices:
        block = [{} for _ in range(M.dims[v])]
        for minus_c, g in terms:
            for row, g_row in zip(block, g.blocks[v]):
                la.sub_multiple(row, minus_c, g_row, f)
        if block and not la.is_invertible(block, f):
            return None
        blocks[v] = block
    return RepMap(M, N, blocks)


def _identity_in_span(out, back) -> bool:
    """Whether id_X is a combination of the composites X -> Y -> X.

    out and back are bases of Hom(X, Y) and Hom(Y, X), and dim End X is
    len(out).
    """
    X = out[0].source
    f = X.field
    span = la.Echelon(f)
    for g in out:
        for h in back:
            span.add(g.compose(h).flatten())
        if span.rank == len(out):
            return True      # the composites span End X
    identity = RepMap(X, X, {v: la.identity(n) for v, n in X.dims.items()})
    return not span.reduce(identity.flatten())


def find_isomorphism(table: AlgebraTable, M: ModuleRep, N: ModuleRep):
    """An isomorphism M -> N, None if provably none exists, else Undecided.

    The basis maps of Hom(M, N) are tried first, then ISO_TRIALS random
    combinations drawn from a generator seeded afresh on every call:
    uniform coefficients over F_p, and integers from a range wider than
    8 * dim M over Q, where the determinant of a combination is a nonzero
    polynomial of degree dim M when M ~ N, so by Schwartz-Zippel one trial
    misses with probability at most 1/8.  Over a small field a module with
    many summands can defeat every trial (over F_2 a trial succeeds with
    probability 2^-s on s pairwise non-isomorphic summands); when no proof
    of non-isomorphism applies, Undecided is raised.
    """
    if M.dim_vector() != N.dim_vector():
        return None
    vertices = table.quiver.vertices
    if M.total_dim == 0:
        return RepMap(M, N, {v: [] for v in vertices})
    maps = hom(table, M, N)
    if not maps:
        return None
    f = table.field
    for g in maps:
        if g.is_bijective():
            return g
    r = len(maps)
    if r == 1:
        return None          # every map M -> N is a multiple of a singular one
    rng = random.Random(0)
    lo, hi = (0, f.char - 1) if f.char else (-4 * M.total_dim, 4 * M.total_dim)
    for _ in range(ISO_TRIALS):
        witness = _invertible_combination(maps, [rng.randint(lo, hi) for _ in maps])
        if witness is not None:
            return witness
    # an isomorphism makes the four hom spaces isomorphic, and puts both
    # identities in the span of the composites through the other module
    back = hom(table, N, M)
    if len(back) != r or any(len(hom(table, X, X)) != r for X in (M, N)):
        return None
    if not (_identity_in_span(maps, back) and _identity_in_span(back, maps)):
        return None
    raise Undecided(f"no isomorphism among the {r} basis maps and {ISO_TRIALS} "
                    f"random combinations of Hom(M, N), and no invariant "
                    f"separates the modules (dimension vector {M.dims})")


def is_isomorphic(table: AlgebraTable, M: ModuleRep, N: ModuleRep) -> bool:
    """Whether M ~ N; raises Undecided as find_isomorphism does."""
    return find_isomorphism(table, M, N) is not None


def strip_projectives(table: AlgebraTable, C: ModuleRep):
    """Split off every projective summand in one step; return (reduced, vertices).

    Over a selfinjective table e_v A is injective with a one-line socle
    k s_v in e_v A e_nu(v) (``core._socle_lines``), so a map e_v A -> C
    splits iff it is nonzero on s_v.  The multiplicity of e_v A in C is
    the rank of the action of s_v, C_v -> C_nu(v), and the unit vectors
    of C_v with independent images generate copies of e_v A.  nu permutes
    the vertices, so the socles of all these copies stay independent: they
    span an injective submodule, and C modulo it is the projective-free
    complement.
    """
    lines = _socle_lines(table)
    if lines is None:
        raise NotSelfinjective("projective summands split off only over selfinjective tables")
    f = table.field
    rows, stripped = {}, []
    for v, s in lines.items():
        n = C.dims[v]
        images = [{} for _ in range(n)]      # row i: the unit vector i times s_v
        for k, c in s.items():
            action = la.identity(n)
            for a in table.basis[k].arrows:
                action = la.mat_mul(action, C.mats[a], f)
            for image, part in zip(images, action):
                la.sub_multiple(image, f.neg(c), part, f)
        independent = la.Echelon(f)
        for i, image in enumerate(images):
            if independent.add(image):
                for w, block in _generator_map(table, C, v, {i: 1}).blocks.items():
                    rows.setdefault(w, []).extend(block)
                stripped.append(v)
    if not stripped:
        return C, []
    reduced, _ = quotient_rep(C, rows)
    return reduced, stripped


def stack_maps(maps, target: ModuleRep) -> RepMap:
    """(f1, ..., fn): M -> target from maps with a common source, where
    target is the sum N1 (+) ... (+) Nn of their targets."""
    M = maps[0].source
    blocks = {}
    for v, n in M.dims.items():
        rows, shift = [{} for _ in range(n)], 0
        for m in maps:
            for row, part in zip(rows, m.blocks[v]):
                row.update((shift + j, x) for j, x in part.items())
            shift += m.target.dims[v]
        blocks[v] = rows
    return RepMap(M, target, blocks)


def vstack_maps(maps, target: ModuleRep) -> RepMap:
    """Maps with a common target, stacked into one map out of their sum."""
    table = target.table
    E = direct_sum(*[m.source for m in maps]) if maps else zero_rep(table)
    blocks = {v: [row for m in maps for row in m.blocks[v]] for v in table.quiver.vertices}
    return RepMap(E, target, blocks)


def mapping_cone_rep(table: AlgebraTable, fmap: RepMap):
    """Cone of a stable map: coker of (f, iota) into N (+) I(M).

    The result represents the cone only up to projective summands; use
    strip_projectives before comparing with a combinatorial answer.
    """
    maps = (fmap, _hull_embedding(table, fmap.source))
    stacked = stack_maps(maps, direct_sum(*[m.target for m in maps]))
    cone, _ = cokernel_of_map(stacked)
    return cone


def _rad_mod_soc_words(table: AlgebraTable, vertex: str):
    """(arm index, word) for each uniserial summand of rad(P_v)/soc(P_v).

    The summand of an arm of length at least 2 is its inner word: the arm
    without its first and last arrows, trivial at the first arrow's target.
    """
    from .strings import StringWord
    q = table.quiver
    for idx, arm in enumerate(table.arms(vertex)):
        if arm.length >= 2:
            inner = arm.arrows[1:-1]
            yield idx, (StringWord.from_arrows(inner) if inner
                        else StringWord.trivial(q.target(arm.arrows[0])))


def decompose_rad_mod_soc(table: AlgebraTable, vertex: str):
    """String words of the uniserial summands of rad(P_v)/soc(P_v)."""
    return [word for _, word in _rad_mod_soc_words(table, vertex)]
