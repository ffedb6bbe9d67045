"""The exact linear-algebra oracle for right modules over an AlgebraTable.

Representations assign a dimension to each vertex and a matrix to each
arrow; row vectors at the source map to row vectors at the target, so
x . mat is the action.  All elimination runs on ``linalg.Echelon`` over
the exact field; dimensions stay at desk scale.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import linalg as la
from .checks import NotSelfinjective
from .core import (NOT_COMPUTED, AlgebraTable, EqualityRelation,
                   SocleDeformation, ZeroRelation, build_table,
                   opposite_presentation)


class ModuleRep:
    """A finite-dimensional right module in matrix form."""

    def __init__(self, table: AlgebraTable, dims: dict, mats: dict):
        self.table = table
        self.field = table.field
        self.dims = {v: dims.get(v, 0) for v in table.quiver.vertices}
        self.mats = {}
        for a in table.quiver.arrows:
            m = mats.get(a.name)
            rows, cols = self.dims[a.source], self.dims[a.target]
            # canonical shapes when a fiber is zero-dimensional
            if m is None or rows == 0 or cols == 0:
                m = la.zeros(rows, cols, self.field)
            self.mats[a.name] = m

    @property
    def total_dim(self) -> int:
        return sum(self.dims.values())

    def dim_vector(self) -> dict:
        return dict(self.dims)

    def path_matrix(self, arrows, source_vertex=None):
        """Matrix of the action of a path (product of arrow matrices)."""
        if not arrows:
            n = self.dims[source_vertex]
            return la.identity(n, self.field)
        q = self.table.quiver
        m = self.mats[arrows[0]]
        for a in arrows[1:]:
            m = la.mat_mul(m, self.mats[a], self.field, cols=self.dims[q.target(a)])
        return m

    def satisfies_relations(self) -> bool:
        f = self.field
        for rel in self.table.pres.relations:
            if isinstance(rel, ZeroRelation):
                if not la.is_zero_matrix(self.path_matrix(rel.path.arrows), f):
                    return False
            elif isinstance(rel, (EqualityRelation, SocleDeformation)):
                left = self.path_matrix(rel.left.arrows)
                right = self.path_matrix(rel.right.arrows)
                c = f.of(rel.coeff)
                if left != la.mat_scale(right, c, f):
                    return False
        return True

    def is_zero(self) -> bool:
        return self.total_dim == 0


@dataclass
class RepMap:
    """A homomorphism of representations as per-vertex blocks."""

    source: ModuleRep
    target: ModuleRep
    blocks: dict

    def intertwines(self) -> bool:
        f = self.source.field
        for a in self.source.table.quiver.arrows:
            cols = self.target.dims[a.target]
            left = la.mat_mul(self.source.mats[a.name], self.blocks[a.target], f, cols=cols)
            right = la.mat_mul(self.blocks[a.source], self.target.mats[a.name], f, cols=cols)
            if left != right:
                return False
        return True

    def flatten(self):
        out = []
        for v in self.source.table.quiver.vertices:
            for row in self.blocks[v]:
                out.extend(row)
        return out

    def compose(self, other: "RepMap") -> "RepMap":
        """self: M->N composed with other: N->L gives M->L."""
        f = self.source.field
        blocks = {v: la.mat_mul(self.blocks[v], other.blocks[v], f,
                                cols=other.target.dims[v])
                  for v in self.source.table.quiver.vertices}
        return RepMap(self.source, other.target, blocks)

    def rank(self) -> int:
        return sum(la.rank(self.blocks[v], self.source.field)
                   for v in self.source.table.quiver.vertices if self.blocks[v])

    def is_injective(self) -> bool:
        return self.rank() == self.source.total_dim

    def is_surjective(self) -> bool:
        return self.rank() == self.target.total_dim


def zero_rep(table: AlgebraTable) -> ModuleRep:
    return ModuleRep(table, {}, {})


def simple_rep(table: AlgebraTable, vertex: str) -> ModuleRep:
    return ModuleRep(table, {vertex: 1}, {})


def direct_sum(*reps: ModuleRep) -> ModuleRep:
    reps = [r for r in reps if r is not None]
    table = reps[0].table
    f = table.field
    dims = {v: sum(r.dims[v] for r in reps) for v in table.quiver.vertices}
    mats = {}
    for a in table.quiver.arrows:
        rows = dims[a.source]
        cols = dims[a.target]
        m = la.zeros(rows, cols, f)
        r_pos, c_pos = 0, 0
        for r in reps:
            block = r.mats[a.name]
            for i in range(r.dims[a.source]):
                for j in range(r.dims[a.target]):
                    m[r_pos + i][c_pos + j] = block[i][j]
            r_pos += r.dims[a.source]
            c_pos += r.dims[a.target]
        mats[a.name] = m
    return ModuleRep(table, dims, mats)


def projective(table: AlgebraTable, vertex: str) -> ModuleRep:
    """The right regular summand e_v A with its path basis (cached)."""
    cache = table._projective_cache
    if vertex in cache:
        return cache[vertex]
    fiber = table.by_source[vertex]
    by_vertex = {w: [] for w in table.quiver.vertices}
    for i in fiber:
        by_vertex[table.basis[i].target].append(i)
    pos = {}
    for w, idxs in by_vertex.items():
        for t, i in enumerate(idxs):
            pos[i] = t
    dims = {w: len(idxs) for w, idxs in by_vertex.items()}
    f = table.field
    mats = {}
    for a in table.quiver.arrows:
        m = la.zeros(dims[a.source], dims[a.target], f)
        for i in by_vertex[a.source]:
            prod = table.nf_vector(table.basis[i].arrows + (a.name,),
                                   table.basis[i].source)
            for k, c in prod.items():
                m[pos[i]][pos[k]] = c
        mats[a.name] = m
    rep = ModuleRep(table, dims, mats)
    rep.projective_basis = by_vertex  # basis indices per vertex, in fiber order
    rep.projective_vertex = vertex
    cache[vertex] = rep
    return rep


def hom(table: AlgebraTable, M: ModuleRep, N: ModuleRep):
    """Basis of Hom(M, N): solve the intertwining system exactly."""
    f = table.field
    q = table.quiver
    var_index = {}
    for v in q.vertices:
        for i in range(M.dims[v]):
            for j in range(N.dims[v]):
                var_index[(v, i, j)] = len(var_index)
    n_vars = len(var_index)
    if n_vars == 0:
        return []
    equations = []
    for a in q.arrows:
        s, e = a.source, a.target
        Ma, Na = M.mats[a.name], N.mats[a.name]
        for i in range(M.dims[s]):
            for j in range(N.dims[e]):
                row = {}
                for t in range(M.dims[e]):
                    c = Ma[i][t]
                    if c != f.zero:
                        k = var_index[(e, t, j)]
                        row[k] = f.add(row.get(k, f.zero), c)
                for t in range(N.dims[s]):
                    c = Na[t][j]
                    if c != f.zero:
                        k = var_index[(s, i, t)]
                        row[k] = f.sub(row.get(k, f.zero), c)
                if row:
                    equations.append(row)
    if equations:
        solutions = la.sparse_nullspace(equations, n_vars, f)
    else:
        solutions = [[f.one if i == j else f.zero for j in range(n_vars)]
                     for i in range(n_vars)]
    maps = []
    for sol in solutions:
        blocks = {v: la.zeros(M.dims[v], N.dims[v], f) for v in q.vertices}
        for (v, i, j), k in var_index.items():
            blocks[v][i][j] = sol[k]
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
    bases = {v: [la.dense(space.rows[p], N.dims[v]) for p in space.pivots]
             for v, space in spaces.items()}
    dims = {v: len(bases[v]) for v in bases}
    mats = {}
    for a in table.quiver.arrows:
        target = spaces[a.target]
        pivots = target.pivots
        m = []
        for row in bases[a.source]:
            img = la.row_vec_mul(row, N.mats[a.name], f, cols=N.dims[a.target])
            if target.reduce(la.sparse(img)):
                raise ValueError("rows do not span a submodule")
            m.append([img[p] for p in pivots])
        mats[a.name] = m
    inclusion_blocks = {v: [list(r) for r in bases[v]] for v in bases}
    S = ModuleRep(table, dims, mats)
    return S, RepMap(S, N, inclusion_blocks)


def quotient_rep(N: ModuleRep, rows_per_vertex: dict):
    """Quotient of N by the submodule spanned by the given rows."""
    table = N.table
    f = N.field
    spaces = {v: la.Echelon(f, rows_per_vertex.get(v, []))
              for v in table.quiver.vertices}
    # the non-pivot axes span a complement of the submodule
    reps = {v: [j for j in range(N.dims[v]) if j not in spaces[v].rows]
            for v in table.quiver.vertices}
    dims = {v: len(reps[v]) for v in reps}

    def coords(v, row):
        """Coordinates of row + W_v over the complement's axes."""
        res = spaces[v].reduce(row)
        return [res.get(j, 0) for j in reps[v]]

    mats = {}
    for a in table.quiver.arrows:
        mats[a.name] = [coords(a.target, la.sparse(N.mats[a.name][j]))
                        for j in reps[a.source]]
    Q = ModuleRep(table, dims, mats)
    proj_blocks = {v: [coords(v, {i: 1}) for i in range(N.dims[v])]
                   for v in table.quiver.vertices}
    return Q, RepMap(N, Q, proj_blocks)


def kernel_of_map(fmap: RepMap):
    """Kernel submodule of a hom, with its inclusion."""
    M = fmap.source
    rows = {}
    for v in M.table.quiver.vertices:
        block = fmap.blocks[v]
        if M.dims[v] == 0:
            rows[v] = []
        elif not block or not block[0]:
            rows[v] = [r for r in la.identity(M.dims[v], M.field)]
        else:
            rows[v] = la.row_nullspace(block, M.field)
    return sub_rep(M, rows)


def cokernel_of_map(fmap: RepMap):
    """Cokernel quotient of a hom, with its projection."""
    N = fmap.target
    rows = {v: [list(r) for r in fmap.blocks[v]] for v in N.table.quiver.vertices}
    return quotient_rep(N, rows)


def radical_rows(M: ModuleRep) -> dict:
    """Per-vertex spanning rows of rad(M) = sum of arrow images."""
    table = M.table
    rows = {v: [] for v in table.quiver.vertices}
    for a in table.quiver.arrows:
        for r in M.mats[a.name]:
            rows[a.target].append(list(r))
    return rows


def top_dims(M: ModuleRep) -> dict:
    f = M.field
    rows = radical_rows(M)
    return {v: M.dims[v] - la.Echelon(f, rows[v]).rank
            for v in M.table.quiver.vertices}


def socle_rows(M: ModuleRep) -> dict:
    """Per-vertex basis rows of soc(M) = joint kernel of all arrows."""
    f = M.field
    table = M.table
    out = {}
    for v in table.quiver.vertices:
        if M.dims[v] == 0:
            out[v] = []
            continue
        stacked = []
        for i in range(M.dims[v]):
            row = []
            for a in table.quiver.out_arrows[v]:
                row.extend(M.mats[a.name][i])
            stacked.append(row)
        if not stacked[0]:
            out[v] = [r for r in la.identity(M.dims[v], f)]
        else:
            out[v] = la.row_nullspace(stacked, f)
    return out


def projective_cover(table: AlgebraTable, M: ModuleRep):
    """Minimal projective cover (P, cover map, kernel inclusion)."""
    f = table.field
    rad = radical_rows(M)
    summands = []   # (vertex, representative row in M_v)
    for v in table.quiver.vertices:
        pivots = la.Echelon(f, rad[v]).rows
        for j in range(M.dims[v]):
            if j not in pivots:
                unit = [f.zero] * M.dims[v]
                unit[j] = f.one
                summands.append((v, unit))
    if not summands:
        if M.total_dim != 0:
            raise ValueError("nonzero module with zero top")
        P = zero_rep(table)
        zero_map = RepMap(P, M, {v: [] for v in table.quiver.vertices})
        K, incl = kernel_of_map(zero_map)
        return P, zero_map, K, incl
    projs = [projective(table, v) for v, _ in summands]
    P = direct_sum(*projs)
    # cover blocks: the image of each path-basis element of e_v A is built
    # incrementally from its parent path (the basis is prefix-closed)
    blocks = {v: la.zeros(P.dims[v], M.dims[v], f) for v in table.quiver.vertices}
    offsets = {v: 0 for v in table.quiver.vertices}
    for (v, gen_row), proj in zip(summands, projs):
        positions = {}
        for w in table.quiver.vertices:
            for t, bidx in enumerate(proj.projective_basis[w]):
                positions[bidx] = (w, offsets[w] + t)
        images = {(): list(gen_row)}
        for bidx in sorted(positions, key=lambda i: table.basis[i].length):
            path = table.basis[bidx]
            if path.length == 0:
                row = images[()]
            else:
                parent = images[path.arrows[:-1]]
                last = path.arrows[-1]
                row = la.row_vec_mul(parent, M.mats[last], f,
                                     cols=M.dims[table.quiver.target(last)])
                images[path.arrows] = row
            w, pos = positions[bidx]
            blocks[w][pos] = row
        for w in table.quiver.vertices:
            offsets[w] += proj.dims[w]
    cover = RepMap(P, M, blocks)
    K, incl = kernel_of_map(cover)
    return P, cover, K, incl


def opposite_table(table: AlgebraTable) -> AlgebraTable:
    if table._op_table is None:
        table._op_table = build_table(opposite_presentation(table.pres))
        table._op_table._op_table = table
    return table._op_table


def dual_rep(table_op: AlgebraTable, M: ModuleRep) -> ModuleRep:
    """Standard-coordinate dual: a module over the opposite table."""
    mats = {a.name: la.transpose(M.mats[a.name]) for a in M.table.quiver.arrows}
    return ModuleRep(table_op, dict(M.dims), mats)


def dual_map(table_op: AlgebraTable, fmap: RepMap) -> RepMap:
    blocks = {v: la.transpose(fmap.blocks[v]) for v in fmap.source.table.quiver.vertices}
    return RepMap(dual_rep(table_op, fmap.target), dual_rep(table_op, fmap.source), blocks)


def injective_hull(table: AlgebraTable, M: ModuleRep):
    """Minimal injective copresentation (I, embedding, cokernel, projection).

    Requires a selfinjective table (injectives coincide with projectives);
    computed by dualizing a projective cover over the opposite algebra.
    """
    from .core import check_selfinjective_symmetric
    if check_selfinjective_symmetric(table).verdict == "not-selfinjective":
        raise NotSelfinjective("injective hulls computed only over selfinjective tables")
    opT = opposite_table(table)
    DM = dual_rep(opT, M)
    P, cover, K, incl = projective_cover(opT, DM)
    I = dual_rep(table, P)
    embedding = dual_map(table, cover)     # M -> I in standard coordinates
    embedding = RepMap(M, I, embedding.blocks)
    coker = dual_rep(table, K)
    projection = dual_map(table, incl)
    projection = RepMap(I, coker, projection.blocks)
    return I, embedding, coker, projection


def syzygy(table: AlgebraTable, M: ModuleRep) -> ModuleRep:
    return projective_cover(table, M)[2]


def cosyzygy(table: AlgebraTable, M: ModuleRep) -> ModuleRep:
    return injective_hull(table, M)[2]


def _fast_hom_to_projective(table: AlgebraTable, M: ModuleRep, vertex: str, proj: ModuleRep):
    """Basis of Hom(M, e_v A) over a table with a symmetrizing form.

    Uses the perfect pairing phi(x.b) between e_v A and A e_v: a map is
    determined by the functional m |-> phi(f(m) b) = xi(m.b).
    """
    f = table.field
    phi = table._frobenius
    fiber_rows = proj.projective_basis  # vertex -> basis indices of e_v A
    # paths ending at v, grouped by source vertex
    cols_by_w = {w: [] for w in table.quiver.vertices}
    for i in table.by_target[vertex]:
        cols_by_w[table.basis[i].source].append(i)
    gram_inv = {}
    for w in table.quiver.vertices:
        rows = fiber_rows[w]
        cols = cols_by_w[w]
        if len(rows) != len(cols):
            return None
        if not rows:
            gram_inv[w] = []
            continue
        g = [[f.zero] * len(cols) for _ in rows]
        for ri, x in enumerate(rows):
            for ci, b in enumerate(cols):
                val = f.zero
                for k, c in table.mult_basis(x, b).items():
                    p = phi.get(k)
                    if p is not None:
                        val = f.add(val, f.mul(c, p))
                g[ri][ci] = val
        gram_inv[w] = la.inverse(g, f)
        if gram_inv[w] is None:
            return None
    maps = []
    mv = M.dims[vertex]
    # cache action matrices M(b) for b ending at v
    action = {}
    for w in table.quiver.vertices:
        for b in cols_by_w[w]:
            action[b] = M.path_matrix(table.basis[b].arrows, w)
    for r in range(mv):
        blocks = {}
        for w in table.quiver.vertices:
            block = la.zeros(M.dims[w], len(fiber_rows[w]), f)
            if fiber_rows[w]:
                for i in range(M.dims[w]):
                    # the coefficients x solve x . g = rhs, so x = rhs . g^-1
                    rhs = [action[b][i][r] for b in cols_by_w[w]]
                    block[i] = la.row_vec_mul(rhs, gram_inv[w], f)
            blocks[w] = block
        maps.append(RepMap(M, proj, blocks))
    return maps


def _factoring_maps(table: AlgebraTable, M: ModuleRep, N: ModuleRep):
    """Spanning set of the maps M -> N that factor through a projective."""
    from .core import frobenius_form
    P, cover, _, _ = projective_cover(table, N)
    if P.total_dim == 0:
        return []
    if table._frobenius is NOT_COMPUTED:
        table._frobenius = frobenius_form(table)
    # rebuild the summand list exactly as projective_cover chose it
    tops = top_dims(N)
    vertex_list = []
    for v in table.quiver.vertices:
        vertex_list.extend([v] * tops[v])
    composites = []
    if table._frobenius is not None:
        offset = {w: 0 for w in table.quiver.vertices}
        for v in vertex_list:
            proj = projective(table, v)
            fast = _fast_hom_to_projective(table, M, v, proj)
            if fast is None:
                composites = None
                break
            # restrict the cover to this summand's rows
            blocks_cover = {}
            for w in table.quiver.vertices:
                rows = []
                base = offset[w]
                for t in range(proj.dims[w]):
                    rows.append(cover.blocks[w][base + t])
                blocks_cover[w] = rows if rows else la.zeros(0, N.dims[w], table.field)
            cov_piece = RepMap(proj, N, blocks_cover)
            for fmap in fast:
                composites.append(fmap.compose(cov_piece))
            for w in table.quiver.vertices:
                offset[w] += proj.dims[w]
        if composites is not None:
            return composites
    # fallback: solve Hom(M, P) directly
    composites = []
    for fmap in hom(table, M, P):
        composites.append(fmap.compose(cover))
    return composites


def stable_hom_dim(table: AlgebraTable, M: ModuleRep, N: ModuleRep) -> int:
    """dim Hom(M,N) minus the dimension of maps factoring through projectives."""
    maps = hom(table, M, N)
    if not maps:
        return 0
    factoring = _factoring_maps(table, M, N)
    total = len(maps)
    vectors = [g.flatten() for g in factoring if any(x != table.field.zero for x in g.flatten())]
    fact_dim = la.span_rank(vectors, table.field) if vectors else 0
    return total - fact_dim


def stable_class_is_zero(table: AlgebraTable, fmap: RepMap) -> bool:
    """Does a hom vanish in the stable category?"""
    vec = la.sparse(fmap.flatten())
    if not vec:
        return True
    factoring = [g.flatten() for g in _factoring_maps(table, fmap.source, fmap.target)]
    return not la.Echelon(table.field, factoring).reduce(vec)


def is_isomorphic(table: AlgebraTable, M: ModuleRep, N: ModuleRep) -> bool:
    """Exact isomorphism test via deterministic combinations of a hom basis."""
    if M.dim_vector() != N.dim_vector():
        return False
    if M.total_dim == 0:
        return True
    maps = hom(table, M, N)
    if not maps:
        return False
    f = table.field

    def invertible(fmap):
        return all(la.is_invertible(fmap.blocks[v], f)
                   for v in table.quiver.vertices if M.dims[v])

    for fmap in maps:
        if invertible(fmap):
            return True
    r = len(maps)
    if r == 1:
        return False
    bound = min(M.total_dim + 2, 8) if f.char == 0 else f.char
    values = [f.of(v) for v in range(bound)]
    attempts = 0
    for combo in itertools.product(values, repeat=r):
        attempts += 1
        if attempts > 6000:
            break
        if all(c == f.zero for c in combo):
            continue
        blocks = {v: la.zeros(M.dims[v], N.dims[v], f) for v in table.quiver.vertices}
        for c, fmap in zip(combo, maps):
            if c == f.zero:
                continue
            for v in table.quiver.vertices:
                for i in range(M.dims[v]):
                    for j in range(N.dims[v]):
                        blocks[v][i][j] = f.add(blocks[v][i][j], f.mul(c, fmap.blocks[v][i][j]))
        if all(la.is_invertible(blocks[v], f) for v in table.quiver.vertices if M.dims[v]):
            return True
    return False


def _split_one_projective(table: AlgebraTable, C: ModuleRep):
    """Find a split projective summand; return the complement or None.

    A summand P_v splits off iff some basis pair u: P_v -> C, p: C -> P_v
    has invertible composite (the unit parts pair bilinearly, so basis
    pairs suffice over a local endomorphism ring).
    """
    f = table.field
    for v in table.quiver.vertices:
        P = projective(table, v)
        if P.total_dim > C.total_dim:
            continue
        ups = hom(table, P, C)
        downs = hom(table, C, P)
        for u in ups:
            for p in downs:
                phi = u.compose(p)
                if all(la.is_invertible(phi.blocks[w], f)
                       for w in table.quiver.vertices if P.dims[w]):
                    inv_blocks = {w: la.inverse(phi.blocks[w], f) or []
                                  for w in table.quiver.vertices}
                    phi_inv = RepMap(P, P, inv_blocks)
                    e = p.compose(phi_inv).compose(u)   # idempotent on C
                    rows = {}
                    for w in table.quiver.vertices:
                        ident = la.identity(C.dims[w], f)
                        rows[w] = [[f.sub(x, y) for x, y in zip(ri, re)]
                                   for ri, re in zip(ident, e.blocks[w])]
                    complement, _ = sub_rep(C, rows)
                    return complement, v
    return None


def strip_projectives(table: AlgebraTable, C: ModuleRep):
    """Split off projective direct summands; return (reduced, vertices)."""
    stripped = []
    current = C
    while True:
        hit = _split_one_projective(table, current)
        if hit is None:
            return current, stripped
        current, v = hit
        stripped.append(v)


def stack_maps(f1: RepMap, f2: RepMap) -> RepMap:
    """(f1, f2): M -> N1 (+) N2 from maps with a common source."""
    M = f1.source
    T = direct_sum(f1.target, f2.target)
    f = M.field
    blocks = {}
    for v in M.table.quiver.vertices:
        b = la.zeros(M.dims[v], T.dims[v], f)
        for i in range(M.dims[v]):
            b[i] = list(f1.blocks[v][i]) + list(f2.blocks[v][i])
        blocks[v] = b
    return RepMap(M, T, blocks)


def vstack_maps(maps, target: ModuleRep) -> RepMap:
    """Maps with a common target, stacked into one map out of their sum."""
    table = target.table
    f = target.field
    E = direct_sum(*[m.source for m in maps]) if maps else zero_rep(table)
    blocks = {}
    for v in table.quiver.vertices:
        rows = []
        for m in maps:
            rows.extend(list(r) for r in m.blocks[v])
        blocks[v] = rows if rows else la.zeros(0, target.dims[v], f)
    return RepMap(E, target, blocks)


def mapping_cone_rep(table: AlgebraTable, fmap: RepMap):
    """Cone of a stable map: coker of (f, iota) into N (+) I(M).

    The result represents the cone only up to projective summands; use
    strip_projectives before comparing with a combinatorial answer.
    """
    _, emb, _, _ = injective_hull(table, fmap.source)
    stacked = stack_maps(fmap, emb)
    cone, _ = cokernel_of_map(stacked)
    return cone


def decompose_rad_mod_soc(table: AlgebraTable, vertex: str):
    """String words of the uniserial summands of rad(P_v)/soc(P_v)."""
    from .strings import StringWord
    words = []
    for arm in table.arms(vertex):
        if arm.length >= 2:
            inner = arm.arrows[1:-1]
            if inner:
                words.append(StringWord.from_arrows(table.quiver, inner))
            else:
                words.append(StringWord.trivial(table.quiver.target(arm.arrows[0])))
    return words
