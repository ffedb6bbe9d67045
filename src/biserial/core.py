"""Quivers, path-algebra presentations and the finite-dimensional quotient.

The table builder turns a presentation with relations of three kinds
(zero paths, scaled equalities between parallel paths, and socle
deformations of length-2 products) into an explicit basis of path
classes with exact structure constants.  Normal forms are computed by a
directed rewriting discipline; full Groebner machinery is deliberately
out of scope.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .fields import Field
from .linalg import Echelon, row_nullspace, sparse_nullspace


class DomainError(Exception):
    """Base class for every error the library raises about its input."""


class PresentationError(DomainError):
    """Base class for errors raised while building an algebra table."""


class NonAdmissible(PresentationError):
    pass


class InconsistentRelations(PresentationError):
    pass


class UnsupportedRelation(PresentationError):
    pass


@dataclass(frozen=True)
class Arrow:
    name: str
    source: str
    target: str


class Quiver:
    """A finite quiver. Arrow declaration order fixes all canonical orders."""

    def __init__(self, vertices, arrows):
        self.vertices = list(vertices)
        self.arrows = [Arrow(*a) if not isinstance(a, Arrow) else a for a in arrows]
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex ids")
        names = [a.name for a in self.arrows]
        if len(set(names)) != len(names):
            raise ValueError("duplicate arrow ids")
        vs = set(self.vertices)
        for a in self.arrows:
            if a.source not in vs or a.target not in vs:
                raise ValueError(f"arrow {a.name} has undeclared endpoint")
        self.arrow_by_name = {a.name: a for a in self.arrows}
        self.arrow_index = {a.name: i for i, a in enumerate(self.arrows)}
        self.out_arrows = {v: [a for a in self.arrows if a.source == v] for v in self.vertices}
        self.in_arrows = {v: [a for a in self.arrows if a.target == v] for v in self.vertices}

    def source(self, arrow_name: str) -> str:
        return self.arrow_by_name[arrow_name].source

    def target(self, arrow_name: str) -> str:
        return self.arrow_by_name[arrow_name].target

    def degrees(self):
        return {v: (len(self.in_arrows[v]), len(self.out_arrows[v])) for v in self.vertices}

    def is_connected(self) -> bool:
        if not self.vertices:
            return True
        adj = {v: set() for v in self.vertices}
        for a in self.arrows:
            adj[a.source].add(a.target)
            adj[a.target].add(a.source)
        seen = {self.vertices[0]}
        stack = [self.vertices[0]]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self.vertices)

    def path(self, arrow_names, base_vertex=None) -> "Path":
        """Build a path from arrow names, validating composability."""
        arrow_names = tuple(arrow_names)
        if not arrow_names:
            if base_vertex is None or base_vertex not in set(self.vertices):
                raise ValueError("trivial path needs a declared base vertex")
            return Path((), base_vertex, base_vertex)
        for a, b in zip(arrow_names, arrow_names[1:]):
            if self.target(a) != self.source(b):
                raise ValueError(f"arrows {a} and {b} do not compose")
        return Path(arrow_names, self.source(arrow_names[0]), self.target(arrow_names[-1]))


@dataclass(frozen=True)
class Path:
    arrows: tuple
    source: str
    target: str

    @property
    def length(self) -> int:
        return len(self.arrows)

    def __str__(self) -> str:
        return " ".join(self.arrows) if self.arrows else f"e_{self.source}"


@dataclass(frozen=True)
class ZeroRelation:
    path: Path


@dataclass(frozen=True)
class EqualityRelation:
    """left = coeff * right for parallel paths with distinct first arrows."""

    left: Path
    coeff: object
    right: Path


@dataclass(frozen=True)
class SocleDeformation:
    """A length-2 product equal to a multiple of an admissible socle path."""

    left: Path
    coeff: object
    right: Path


@dataclass
class AlgebraPresentation:
    field: Field
    quiver: Quiver
    relations: list


class AlgebraElement:
    """A formal linear combination of paths with exact coefficients."""

    def __init__(self, field: Field, terms=None):
        self.field = field
        self.terms = {}
        for path, coeff in (terms or {}).items():
            if coeff != field.zero:
                self.terms[path] = coeff

    def __eq__(self, other) -> bool:
        return isinstance(other, AlgebraElement) and self.terms == other.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"{self.field.format(c)}*{p}" for p, c in sorted(
            self.terms.items(), key=lambda t: (t[0].length, t[0].arrows)))

    def is_zero(self) -> bool:
        return not self.terms


_MAX_REWRITE_STEPS = 200_000
_MAX_MULTIPLICITY = 8     # scales the cap on basis path length


class AlgebraTable:
    """Finite basis of nonzero path classes with exact structure constants."""

    def __init__(self, pres: AlgebraPresentation):
        self.pres = pres
        self.field = pres.field
        self.quiver = pres.quiver
        self._zero_rules = {}        # lhs tuple -> None
        self._subst_rules = {}       # lhs tuple -> (coeff, rhs tuple)
        self._deformations = {}      # length-2 tuple -> (coeff, rhs tuple)
        self._nf_cache = {}
        self._mult_cache = {}
        self._compile_rules()
        self._build_basis()
        self._socle = None
        self._socle_spaces = None
        # caches filled on first use by the functions named
        self._symmetry_report = None     # check_selfinjective_symmetric
        self._projective_cache = {}      # reps.projective: vertex -> module
        self._op_table = None            # reps.opposite_table
        self._sb_selfinjective = None    # translate.require_selfinjective_sb
        self._landmark_words = None      # translate._landmarks

    # -- rule compilation ------------------------------------------------

    def _path_key(self, arrows):
        idx = self.quiver.arrow_index
        return (len(arrows), tuple(idx[a] for a in arrows))

    def _compile_rules(self):
        f = self.field
        for rel in self.pres.relations:
            if isinstance(rel, ZeroRelation):
                if rel.path.length < 2:
                    raise NonAdmissible(f"relation {rel.path} is not in rad^2")
                self._add_zero(rel.path.arrows)
            elif isinstance(rel, EqualityRelation):
                self._check_parallel(rel)
                c = f.of(rel.coeff)
                if c == f.zero:
                    self._add_zero(rel.left.arrows)
                    continue
                lk, rk = self._path_key(rel.left.arrows), self._path_key(rel.right.arrows)
                if lk == rk:
                    if c != f.one:
                        self._add_zero(rel.left.arrows)
                    continue
                if lk > rk:
                    self._add_subst(rel.left.arrows, c, rel.right.arrows)
                else:
                    self._add_subst(rel.right.arrows, f.inv(c), rel.left.arrows)
            elif isinstance(rel, SocleDeformation):
                if rel.left.length != 2:
                    raise UnsupportedRelation("deformation left side must have length 2")
                if rel.right.length < 2:
                    raise NonAdmissible(f"relation rhs {rel.right} is not in rad^2")
                self._check_parallel(rel)
                c = f.of(rel.coeff)
                if c == f.zero:
                    self._add_zero(rel.left.arrows)
                else:
                    key = rel.left.arrows
                    if key in self._deformations or key in self._zero_rules or key in self._subst_rules:
                        raise InconsistentRelations(f"conflicting relations on {rel.left}")
                    self._deformations[key] = (c, rel.right.arrows)
            else:
                raise UnsupportedRelation(f"unsupported relation {rel!r}")
        for key in self._deformations:
            if key in self._zero_rules or key in self._subst_rules:
                raise InconsistentRelations(f"conflicting relations on {' '.join(key)}")

    def _check_parallel(self, rel):
        if (rel.left.source != rel.right.source) or (rel.left.target != rel.right.target):
            raise UnsupportedRelation(f"sides of {rel!r} are not parallel")
        if rel.left.length < 2 or rel.right.length < 2:
            raise NonAdmissible(f"relation {rel!r} is not in rad^2")

    def _add_zero(self, arrows):
        if arrows in self._subst_rules:
            raise InconsistentRelations(f"conflicting relations on {' '.join(arrows)}")
        self._zero_rules[arrows] = None

    def _add_subst(self, lhs, coeff, rhs):
        if lhs in self._zero_rules:
            raise InconsistentRelations(f"conflicting relations on {' '.join(lhs)}")
        existing = self._subst_rules.get(lhs)
        if existing is not None and existing != (coeff, rhs):
            raise InconsistentRelations(f"conflicting relations on {' '.join(lhs)}")
        self._subst_rules[lhs] = (coeff, rhs)

    # -- normal forms ------------------------------------------------------

    def _match_at(self, arrows, pos):
        """First rule whose left side starts at pos; deterministic order."""
        n = len(arrows)
        for rules, tag in ((self._zero_rules, "zero"), (self._subst_rules, "subst"),
                           (self._deformations, "deform")):
            for lhs in rules:
                ln = len(lhs)
                if pos + ln <= n and arrows[pos:pos + ln] == lhs:
                    return tag, lhs, rules[lhs]
        return None

    def normal_form(self, arrows) -> dict:
        """Class of a path as {basis arrow-tuple: coeff}; memoized."""
        arrows = tuple(arrows)
        cached = self._nf_cache.get(arrows)
        if cached is not None:
            return dict(cached)
        f = self.field
        result = {}
        work = [(f.one, arrows)]
        steps = 0
        while work:
            steps += 1
            if steps > _MAX_REWRITE_STEPS:
                raise NonAdmissible("rewriting did not terminate (non-admissible input?)")
            coeff, p = work.pop()
            match = None
            for pos in range(len(p)):
                match = self._match_at(p, pos)
                if match is not None:
                    break
            if match is None:
                result[p] = f.add(result.get(p, f.zero), coeff)
                if result[p] == f.zero:
                    del result[p]
                continue
            tag, lhs, payload = match
            if tag == "zero":
                continue
            x, y = p[:pos], p[pos + len(lhs):]
            if tag == "subst":
                c, rhs = payload
                work.append((f.mul(coeff, c), x + rhs + y))
            else:  # deformation: lhs = coeff * socle path
                c, rhs = payload
                if y:
                    continue  # socle path times an arrow is zero
                work.append((f.mul(coeff, c), x + rhs))
        self._nf_cache[arrows] = dict(result)
        return result

    # -- basis -----------------------------------------------------------

    def _build_basis(self):
        q = self.quiver
        cap = 4 * max(1, len(q.arrows)) * _MAX_MULTIPLICITY
        basis_paths = []
        frontier = []
        for v in q.vertices:
            p = q.path((), v)
            basis_paths.append(p)
            frontier.append(p)
        seen = {p.arrows for p in basis_paths}
        while frontier:
            nxt = []
            for p in frontier:
                for a in q.out_arrows[p.target]:
                    arrows = p.arrows + (a.name,)
                    if arrows in seen:
                        continue
                    nf = self.normal_form(arrows)
                    if list(nf.items()) == [(arrows, self.field.one)]:
                        if len(arrows) >= cap:
                            raise NonAdmissible(
                                f"path of length {len(arrows)} survives the cap {cap}")
                        new_path = q.path(arrows)
                        basis_paths.append(new_path)
                        nxt.append(new_path)
                        seen.add(arrows)
                        if len(basis_paths) > 20_000:
                            raise NonAdmissible("basis exceeds the size cap")
            frontier = nxt
        basis_paths.sort(key=lambda p: (p.length, self._path_key(p.arrows)[1],
                                        self.quiver.vertices.index(p.source)))
        self.basis = basis_paths
        self.dim = len(basis_paths)
        # trivial paths share arrows=(), so key them by vertex
        self.index = {p.arrows if p.length else ("e", p.source): i
                      for i, p in enumerate(basis_paths)}
        self.by_source = {v: [i for i, p in enumerate(basis_paths) if p.source == v]
                          for v in q.vertices}
        self.by_target = {v: [i for i, p in enumerate(basis_paths) if p.target == v]
                          for v in q.vertices}
        self.loewy_length = max((p.length for p in basis_paths), default=0) + 1
        self._verify_relations()

    def nf_vector(self, arrows, source=None) -> dict:
        """Normal form of a path as {basis index: coeff}."""
        if not arrows:
            return {self.index[("e", source)]: self.field.one}
        out = {}
        for p, c in self.normal_form(tuple(arrows)).items():
            i = self.index.get(p)
            if i is None:
                raise InconsistentRelations(
                    f"path {' '.join(p)} reduces outside the basis")
            out[i] = c
        return out

    # -- multiplication ----------------------------------------------------

    def mult_basis(self, i: int, j: int) -> dict:
        """Product of basis classes i and j as {basis index: coeff}."""
        key = (i, j)
        cached = self._mult_cache.get(key)
        if cached is not None:
            return dict(cached)
        pi, pj = self.basis[i], self.basis[j]
        if pi.target != pj.source:
            out = {}
        elif pj.length == 0:
            out = {i: self.field.one}
        elif pi.length == 0:
            out = {j: self.field.one}
        else:
            out = self.nf_vector(pi.arrows + pj.arrows)
        self._mult_cache[key] = dict(out)
        return out

    def mult_vec(self, x: dict, y: dict) -> dict:
        f = self.field
        out = {}
        for i, ci in x.items():
            for j, cj in y.items():
                for k, ck in self.mult_basis(i, j).items():
                    c = f.mul(f.mul(ci, cj), ck)
                    s = f.add(out.get(k, f.zero), c)
                    if s == f.zero:
                        out.pop(k, None)
                    else:
                        out[k] = s
        return out

    def vec_of_element(self, elem: AlgebraElement) -> dict:
        f = self.field
        out = {}
        for path, coeff in elem.terms.items():
            for i, c in self.nf_vector(path.arrows, path.source).items():
                s = f.add(out.get(i, f.zero), f.mul(coeff, c))
                if s == f.zero:
                    out.pop(i, None)
                else:
                    out[i] = s
        return out

    def element_of_vec(self, vec: dict) -> AlgebraElement:
        return AlgebraElement(self.field, {self.basis[i]: c for i, c in vec.items()})

    def identity_vec(self) -> dict:
        return {self.index[("e", v)]: self.field.one for v in self.quiver.vertices}

    def _verify_relations(self):
        f = self.field
        for rel in self.pres.relations:
            if isinstance(rel, ZeroRelation):
                if self.nf_vector(rel.path.arrows):
                    raise InconsistentRelations(f"relation {rel.path} = 0 fails in the table")
            else:
                lhs = self.nf_vector(rel.left.arrows)
                rhs = self.nf_vector(rel.right.arrows)
                c = f.of(rel.coeff)
                scaled = {i: f.mul(c, v) for i, v in rhs.items()}
                if lhs != scaled:
                    raise InconsistentRelations(f"relation {rel!r} fails in the table")

    def verify_associativity(self) -> bool:
        """Exact check of associativity on all basis triples (test hook)."""
        for i in range(self.dim):
            for j in range(self.dim):
                ij = self.mult_basis(i, j)
                for k in range(self.dim):
                    left = {}
                    f = self.field
                    for t, c in ij.items():
                        for u, d in self.mult_basis(t, k).items():
                            s = f.add(left.get(u, f.zero), f.mul(c, d))
                            if s == f.zero:
                                left.pop(u, None)
                            else:
                                left[u] = s
                    jk = self.mult_basis(j, k)
                    right = {}
                    for t, c in jk.items():
                        for u, d in self.mult_basis(i, t).items():
                            s = f.add(right.get(u, f.zero), f.mul(c, d))
                            if s == f.zero:
                                right.pop(u, None)
                            else:
                                right[u] = s
                    if left != right:
                        return False
        return True

    # -- socle -------------------------------------------------------------

    def _right_mult_matrix(self, v: str, arrow: Arrow):
        """Matrix of right multiplication by arrow on the e_v A fiber."""
        rows = self.by_source[v]
        cols = self.by_source[v]
        col_pos = {b: t for t, b in enumerate(cols)}
        f = self.field
        mat = [[f.zero] * len(cols) for _ in rows]
        for r, bi in enumerate(rows):
            if self.basis[bi].target != arrow.source:
                continue
            prod = self.nf_vector(self.basis[bi].arrows + (arrow.name,),
                                  self.basis[bi].source)
            for k, c in prod.items():
                mat[r][col_pos[k]] = c
        return mat

    def socle(self) -> dict:
        """Per-vertex basis of soc(e_v A), as vectors over the e_v A fiber."""
        if self._socle is not None:
            return self._socle
        out = {}
        spaces = {}
        for v in self.quiver.vertices:
            fiber = self.by_source[v]
            mats = [self._right_mult_matrix(v, a) for a in self.quiver.arrows]
            stacked = [list(itertools.chain.from_iterable(m[r] for m in mats))
                       for r in range(len(fiber))]
            out[v] = row_nullspace(stacked, self.field)
            spaces[v] = Echelon(self.field, out[v])
        self._socle = out
        self._socle_spaces = spaces
        return out

    def socle_dims(self) -> dict:
        return {v: len(rows) for v, rows in self.socle().items()}

    def in_socle(self, vec: dict) -> bool:
        """Is a basis-indexed vector in the right socle?"""
        if not vec:
            return True
        self.socle()
        by_v = {}
        for i, c in vec.items():
            by_v.setdefault(self.basis[i].source, {})[i] = c
        for v, part in by_v.items():
            pos = {b: t for t, b in enumerate(self.by_source[v])}
            if self._socle_spaces[v].reduce({pos[i]: c for i, c in part.items()}):
                return False
        return True

    def arms(self, vertex: str) -> list:
        """Maximal nonzero paths out of a vertex, one per outgoing arrow.

        Continuations prefer the unique non-socle product; once the value
        falls into the socle the path cannot be extended further.
        """
        out = []
        for start in self.quiver.out_arrows[vertex]:
            arrows = [start.name]
            vec = self.nf_vector(tuple(arrows))
            if not vec:
                continue
            while not self.in_socle(vec):
                end = self.quiver.target(arrows[-1])
                best = None
                for a in self.quiver.out_arrows[end]:
                    cand = self.nf_vector(tuple(arrows) + (a.name,))
                    if not cand:
                        continue
                    if not self.in_socle(cand):
                        best = (a.name, cand)
                        break
                    if best is None:
                        best = (a.name, cand)
                if best is None:
                    break
                arrows.append(best[0])
                vec = best[1]
            out.append(self.quiver.path(tuple(arrows)))
        return out


def build_table(pres: AlgebraPresentation) -> AlgebraTable:
    return AlgebraTable(pres)


def multiply(table: AlgebraTable, x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    return table.element_of_vec(table.mult_vec(table.vec_of_element(x),
                                               table.vec_of_element(y)))


@dataclass
class SymmetryReport:
    verdict: str         # not-selfinjective | selfinjective | symmetric
    form: dict | None    # basis index -> scalar, a symmetrizing functional phi


def check_selfinjective_symmetric(table: AlgebraTable) -> SymmetryReport:
    """Classify the table as not-selfinjective, selfinjective, or symmetric."""
    if table._symmetry_report is None:
        table._symmetry_report = _classify_symmetry(table)
    return table._symmetry_report


def _socle_lines(table: AlgebraTable):
    """v -> s_v as {basis index: coeff}, or None if not selfinjective.

    Selfinjective means: every soc(e_v A) is a line k s_v inside e_v A e_w
    for one vertex w = nu(v), and nu permutes the vertices.
    """
    lines = {}
    nu = set()
    for v, rows in table.socle().items():
        if len(rows) != 1:
            return None
        fiber = table.by_source[v]
        s = {fiber[t]: c for t, c in enumerate(rows[0]) if c}
        targets = {table.basis[k].target for k in s}
        if len(targets) != 1:
            return None
        nu |= targets
        lines[v] = s
    return lines if len(nu) == len(lines) else None


def _classify_symmetry(table: AlgebraTable) -> SymmetryReport:
    """Exact criterion (Skowronski-Yamagata 2011, Frobenius Algebras I).

    On a selfinjective table a functional phi is nondegenerate iff
    phi(s_v) != 0 at every vertex v.  The symmetric functionals (those
    vanishing on every commutator) of a symmetric algebra are phi_0(z .)
    for central z, so their socle values (phi(s_v))_v form one line per
    connected component, nonzero at each of its vertices.  Hence the table
    is symmetric iff the sum of the reduced echelon rows of those values is
    nonzero at every vertex, and the sum's recipe is a symmetrizing form.
    """
    lines = _socle_lines(table)
    if lines is None:
        return SymmetryReport("not-selfinjective", None)
    f = table.field
    commutators = []
    for i in range(table.dim):
        for j in range(i + 1, table.dim):
            eq = dict(table.mult_basis(i, j))
            for k, c in table.mult_basis(j, i).items():
                eq[k] = f.sub(eq.get(k, 0), c)
            if any(eq.values()):
                commutators.append(eq)
    functionals = sparse_nullspace(commutators, table.dim, f)
    width = len(lines)
    ech = Echelon(f, width=width)
    for r, phi in enumerate(functionals):
        values = {col: _apply(f, phi, s) for col, s in enumerate(lines.values())}
        values[width + r] = 1
        ech.add(values)
    total = {}
    for row in ech.rows.values():
        for j, c in row.items():
            total[j] = f.add(total.get(j, 0), c)
    if not all(total.get(col) for col in range(width)):
        return SymmetryReport("selfinjective", None)
    form = {}
    for r, phi in enumerate(functionals):
        c = total.get(width + r)
        if c:
            for k, x in enumerate(phi):
                form[k] = f.add(form.get(k, 0), f.mul(c, x))
    return SymmetryReport("symmetric", {k: x for k, x in form.items() if x})


def _apply(f: Field, phi, vec: dict):
    """phi(vec) for a dense functional and a {basis index: coeff} vector."""
    val = 0
    for k, c in vec.items():
        val = f.add(val, f.mul(phi[k], c))
    return val


def frobenius_form(table: AlgebraTable):
    """A nondegenerate functional on the table, or None if not selfinjective.

    This is the symmetrizing form when there is one; otherwise phi(s_v) = 1
    at one basis index per vertex, nondegenerate by the socle criterion of
    ``_classify_symmetry``.  The library no longer calls it; the
    benchmark's tracer (perfbench/tracer.py) binds it.
    """
    report = check_selfinjective_symmetric(table)
    if report.verdict != "selfinjective":
        return report.form
    form = {}
    for s in _socle_lines(table).values():
        k = min(s)
        form[k] = table.field.inv(s[k])
    return form


def opposite_presentation(pres: AlgebraPresentation) -> AlgebraPresentation:
    """Reverse all arrows and relation paths."""
    q = pres.quiver
    op_q = Quiver(q.vertices, [(a.name, a.target, a.source) for a in q.arrows])

    def rev(path: Path) -> Path:
        if path.length == 0:
            return op_q.path((), path.source)
        return op_q.path(tuple(reversed(path.arrows)))

    rels = []
    for rel in pres.relations:
        if isinstance(rel, ZeroRelation):
            rels.append(ZeroRelation(rev(rel.path)))
        elif isinstance(rel, EqualityRelation):
            rels.append(EqualityRelation(rev(rel.left), rel.coeff, rev(rel.right)))
        elif isinstance(rel, SocleDeformation):
            rels.append(SocleDeformation(rev(rel.left), rel.coeff, rev(rel.right)))
        else:
            raise UnsupportedRelation(f"unsupported relation {rel!r}")
    return AlgebraPresentation(pres.field, op_q, rels)
