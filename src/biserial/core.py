"""Quivers, path-algebra presentations and the finite-dimensional quotient.

The table builder turns a presentation with relations of three kinds
(zero paths, scaled equalities between parallel paths, and socle
deformations of length-2 products) into an explicit basis of path
classes with exact structure constants.  Normal forms are computed by a
directed rewriting discipline; full Groebner machinery is deliberately
out of scope.  Rewriting without completion can build a wrong table from
a non-confluent presentation, so ``AlgebraTable.certify`` checks a built
table exactly on its right regular representation (``regular_action``,
the one construction of the e_v A that the socle and ``reps.projective``
share) and raises ``InconsistentRelations`` unless it is associative.
"""

from __future__ import annotations

from .errors import DomainError
from .fields import Field
from .linalg import Echelon, dot, mat_mul, sparse_nullspace, sub_multiple


class Record:
    """A plain record over its ``__slots__``, compared like a dataclass.

    The constructor takes the fields in slot order.  Records are equal
    when they have the same class and equal fields, and print as
    ``Name(field=value, ...)``.  A subclass declared with ``frozen=True``
    is hashed by its fields, so callers must not change its fields; any
    other is unhashable.  Records built in hot loops define their own
    ``__init__``, which is faster than this one.
    """

    __slots__ = ()

    def __init_subclass__(cls, frozen=False):
        super().__init_subclass__()
        if not frozen:
            cls.__hash__ = None

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes the fields "
                            f"{', '.join(self.__slots__)}; got {len(values)} values")
        for name, value in zip(self.__slots__, values):
            setattr(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _record_values(self) == _record_values(other)

    def __hash__(self):
        return hash(_record_values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


def _record_values(record: Record) -> tuple:
    return tuple([getattr(record, name) for name in record.__slots__])


class PresentationError(DomainError):
    """Base class for errors raised while building an algebra table."""


class QuiverError(PresentationError):
    """A quiver or path that does not match its declarations."""


class NonAdmissible(PresentationError):
    pass


class InconsistentRelations(PresentationError):
    pass


class UnsupportedRelation(PresentationError):
    pass


class Arrow(Record, frozen=True):
    __slots__ = ("name", "source", "target")

    def __init__(self, name: str, source: str, target: str):
        self.name = name
        self.source = source
        self.target = target


class Quiver:
    """A finite quiver. Arrow declaration order fixes all canonical orders."""

    def __init__(self, vertices, arrows):
        self.vertices = list(vertices)
        self.arrows = [Arrow(*a) if not isinstance(a, Arrow) else a for a in arrows]
        if len(set(self.vertices)) != len(self.vertices):
            raise QuiverError("duplicate vertex ids")
        names = [a.name for a in self.arrows]
        if len(set(names)) != len(names):
            raise QuiverError("duplicate arrow ids")
        vs = set(self.vertices)
        for a in self.arrows:
            if a.source not in vs or a.target not in vs:
                raise QuiverError(f"arrow {a.name} has undeclared endpoint")
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
                raise QuiverError("trivial path needs a declared base vertex")
            return Path((), base_vertex, base_vertex)
        for a, b in zip(arrow_names, arrow_names[1:]):
            if self.target(a) != self.source(b):
                raise QuiverError(f"arrows {a} and {b} do not compose")
        return Path(arrow_names, self.source(arrow_names[0]), self.target(arrow_names[-1]))


class Path(Record, frozen=True):
    __slots__ = ("arrows", "source", "target")

    def __init__(self, arrows: tuple, source: str, target: str):
        self.arrows = arrows
        self.source = source
        self.target = target

    @property
    def length(self) -> int:
        return len(self.arrows)

    def __str__(self) -> str:
        return " ".join(self.arrows) if self.arrows else f"e_{self.source}"


class ZeroRelation(Record, frozen=True):
    __slots__ = ("path",)


class EqualityRelation(Record, frozen=True):
    """left = coeff * right for parallel paths with distinct first arrows."""

    __slots__ = ("left", "coeff", "right")


class SocleDeformation(Record, frozen=True):
    """A length-2 product equal to a multiple of an admissible socle path."""

    __slots__ = ("left", "coeff", "right")


class AlgebraPresentation(Record):
    __slots__ = ("field", "quiver", "relations")


def format_relation(rel, field: Field) -> str:
    """A relation in the presentation file syntax, without the 'rel' keyword."""
    if isinstance(rel, ZeroRelation):
        return f"{rel.path} = 0"
    c = field.of(rel.coeff)
    scalar = "" if c == field.one else field.format(c) + " "
    return f"{rel.left} = {scalar}{rel.right}"


def broken_relation(table: "AlgebraTable", mats: dict, relations):
    """The first (relation, row) at which a representation breaks a relation.

    ``mats`` holds one matrix per arrow; rows act on the left, so a path
    acts by the product of its arrows' matrices.  The row indexes the basis
    at the relation's source.  Returns None when every relation holds.
    """
    f = table.field

    def act(path):
        m = mats[path.arrows[0]]
        for a in path.arrows[1:]:
            m = mat_mul(m, mats[a], f)
        return m

    for rel in relations:
        if isinstance(rel, ZeroRelation):
            for r, row in enumerate(act(rel.path)):
                if row:
                    return rel, r
        else:
            c = f.of(rel.coeff)
            for r, (row, right) in enumerate(zip(act(rel.left), act(rel.right))):
                if sub_multiple(dict(row), c, right, f):
                    return rel, r
    return None


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
        self._rules_from = self._index_rules()   # arrow -> rules starting with it
        self._build_basis()
        self._socle = None
        self._socle_spaces = None
        # caches filled on first use by the functions named.  A table does
        # not change once built, so no entry goes stale; entries are shared
        # and read-only, and an input that raises is never stored.
        self._regular = {}               # regular_action: vertex -> e_v A
        self._symmetry_report = None     # check_selfinjective_symmetric
        self._projective_cache = {}      # reps.projective: vertex -> module
        self._op_table = None            # reps.opposite_table
        self._sb_selfinjective = None    # translate.require_selfinjective_sb
        self._landmark_words = None      # translate._landmarks
        self._arms = {}                  # arms: vertex -> tuple of paths
        self._run_verdicts = {}          # off_socle: arrow tuple -> bool
        self._valid_words = set()        # translate._require_input: words that passed
        self._string_modules = {}        # strings.string_module: word -> module
        self._translates = {}            # translate: (mode, word) -> tau/tau_inv/omega_word/_cone_nodes
        self._side_ops = {}              # strings.right_op/left_op: (side, mode, word, exclude) -> SideOp
        self._tails = {}                 # strings._tail: first letter of a hook or co-hook -> the run after it

    # -- rule compilation ------------------------------------------------

    def _path_key(self, arrows):
        idx = self.quiver.arrow_index
        return (len(arrows), tuple(idx[a] for a in arrows))

    def _compile_rules(self):
        f = self.field
        deformation_of = {}     # left side -> its SocleDeformation
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
                    deformation_of[key] = rel
            else:
                raise UnsupportedRelation(f"unsupported relation {rel!r}")
        for key in self._deformations:
            if key in self._zero_rules or key in self._subst_rules:
                raise InconsistentRelations(f"conflicting relations on {' '.join(key)}")
        # a deformation whose right side is another's left side rewrites into
        # it; a cycle of them would rewrite a path forever
        for key in self._deformations:
            chain = [key]
            rhs = self._deformations[key][1]
            while rhs in self._deformations and rhs not in chain:
                chain.append(rhs)
                rhs = self._deformations[rhs][1]
            if rhs in chain:
                cycle = chain[chain.index(rhs):]
                names = " and ".join(format_relation(deformation_of[k], f) for k in cycle)
                raise NonAdmissible(f"socle deformations {names} rewrite into each other")

    def _index_rules(self):
        """First arrow of a left side -> tuple of (kind, lhs, payload).

        Each tuple lists the zero rules, then the substitutions, then the
        deformations, each kind in insertion order: the order in which
        ``normal_form`` tries the rules at a position.
        """
        buckets = {}
        for kind, rules in (("zero", self._zero_rules), ("subst", self._subst_rules),
                            ("deform", self._deformations)):
            for lhs, payload in rules.items():
                buckets.setdefault(lhs[0], []).append((kind, lhs, payload))
        return {a: tuple(rules) for a, rules in buckets.items()}

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

    def _leftmost_match(self, p):
        """(pos, kind, lhs, payload) of the first rule at the leftmost
        position where one matches, or None when p is a normal word."""
        rules_from = self._rules_from
        for pos, a in enumerate(p):
            for kind, lhs, payload in rules_from.get(a, ()):
                if p[pos:pos + len(lhs)] == lhs:
                    return pos, kind, lhs, payload
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
            match = self._leftmost_match(p)
            if match is None:
                result[p] = f.add(result.get(p, f.zero), coeff)
                if result[p] == f.zero:
                    del result[p]
                continue
            pos, kind, lhs, payload = match
            if kind == "zero":
                continue
            x, y = p[:pos], p[pos + len(lhs):]
            if kind == "subst":
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
        # the frontier holds distinct paths of one length, so no extension repeats
        while frontier:
            nxt = []
            for p in frontier:
                for a in q.out_arrows[p.target]:
                    arrows = p.arrows + (a.name,)
                    nf = self.normal_form(arrows)
                    if list(nf.items()) == [(arrows, self.field.one)]:
                        if len(arrows) >= cap:
                            raise NonAdmissible(
                                f"path of length {len(arrows)} survives the cap {cap}")
                        new_path = Path(arrows, p.source, a.target)
                        basis_paths.append(new_path)
                        nxt.append(new_path)
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
            minus_ci = f.neg(ci)
            for j, cj in y.items():
                prod = self.mult_basis(i, j)
                if prod:
                    sub_multiple(out, f.mul(minus_ci, cj), prod, f)
        return out

    def identity_vec(self) -> dict:
        return {self.index[("e", v)]: self.field.one for v in self.quiver.vertices}

    def _verify_relations(self):
        f = self.field
        for rel in self.pres.relations:
            if isinstance(rel, ZeroRelation):
                lhs, rhs = self.nf_vector(rel.path.arrows), {}
            else:
                c = f.of(rel.coeff)
                lhs = self.nf_vector(rel.left.arrows)
                rhs = {i: y for i, x in self.nf_vector(rel.right.arrows).items()
                       if (y := f.mul(c, x))}
            if lhs != rhs:
                raise InconsistentRelations(
                    f"relation {format_relation(rel, f)} fails in the table")

    # -- the right regular representation ------------------------------------

    def regular_action(self, v: str):
        """e_v A as (vertex -> basis indices, arrow name -> matrix); cached.

        The basis indices at each vertex w are those of the paths from v to
        w, in fiber order.  Row r of an arrow's matrix is the product of the
        r-th path at the arrow's source with the arrow, as a sparse row over
        the paths at its target.  The matrices are shared with the
        projective modules built on them, so they are read-only.
        """
        cached = self._regular.get(v)
        if cached is not None:
            return cached
        by_vertex = {w: [] for w in self.quiver.vertices}
        for i in self.by_source[v]:
            by_vertex[self.basis[i].target].append(i)
        pos = {i: t for idxs in by_vertex.values() for t, i in enumerate(idxs)}
        mats = {a.name: [{pos[k]: c for k, c in
                          self.nf_vector(self.basis[i].arrows + (a.name,)).items()}
                         for i in by_vertex[a.source]]
                for a in self.quiver.arrows}
        self._regular[v] = (by_vertex, mats)
        return self._regular[v]

    def certify(self):
        """Raise InconsistentRelations unless the table is associative.

        A path p acts on V, the sum of the e_v A, by the product rho(p) of
        its arrows' matrices (``regular_action``).  Two exact checks:

        - rho kills every relation, on every row of every e_v A;
        - for each socle deformation x y = c s (c != 0) and each arrow a
          out of the end of s, rho(s a) = 0.

        Why they imply associativity.  Every step of ``normal_form``
        replaces a path by terms with the same action: zero, substitution
        and deformation steps by the first check, and the tail drop
        x y a -> 0 by the second, since rho(x y a) = c rho(s a).  So
        rho(p) = rho(nf(p)) for every path p.  The basis is prefix-closed,
        so a basis path b is e rho(b) for the idempotent e at its source,
        and b rho(p) = e rho(b p) = e rho(nf(b p)) = nf(b p).  Hence the
        table's product is x y = x rho(y), with rho(x y) = rho(x) rho(y),
        and (x y) z = x rho(y) rho(z) = x (y z).  The table is then the
        quotient of the path algebra by the kernel of rho, which contains
        the ideal, so it is never larger than A; it is A when every s a
        lies in the ideal, as it does when s is a socle path.  ``build_table``
        does not run this check, for its cost.
        """
        f = self.field
        q = self.quiver
        implied = {}    # the zero relation s a -> the deformation it comes from
        for rel in self.pres.relations:
            if isinstance(rel, SocleDeformation) and f.of(rel.coeff):
                for a in q.out_arrows[rel.right.target]:
                    implied[ZeroRelation(q.path(rel.right.arrows + (a.name,)))] = rel
        for v in q.vertices:
            by_vertex, mats = self.regular_action(v)
            failure = broken_relation(self, mats, [*self.pres.relations, *implied])
            if failure is None:
                continue
            rel, r = failure
            source = rel.path.source if isinstance(rel, ZeroRelation) else rel.left.source
            text = format_relation(rel, f)
            if rel in implied:
                text += f", implied by the socle deformation {format_relation(implied[rel], f)},"
            raise InconsistentRelations(
                f"relation {text} fails in the table at basis path "
                f"{self.basis[by_vertex[source][r]]}")

    # -- socle -------------------------------------------------------------

    def socle(self) -> dict:
        """Per-vertex basis of soc(e_v A), as vectors over the e_v A fiber.

        At each vertex w it is the common kernel of the arrows out of w on
        the paths from v to w.  Each column of an arrow's matrix is one
        equation on the rows at its source, so one nullspace over the fiber
        solves every vertex at once.
        """
        if self._socle is not None:
            return self._socle
        out = {}
        spaces = {}
        for v in self.quiver.vertices:
            by_vertex, mats = self.regular_action(v)
            pos = {i: t for t, i in enumerate(self.by_source[v])}
            equations = []
            for a in self.quiver.arrows:
                columns = {}
                for i, row in zip(by_vertex[a.source], mats[a.name]):
                    for k, c in row.items():
                        columns.setdefault(k, {})[pos[i]] = c
                equations.extend(columns.values())
            out[v] = sparse_nullspace(equations, len(pos), self.field)
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

    def off_socle(self, arrows: tuple) -> bool:
        """Is the path nonzero and outside the socle?  Memoized per table."""
        verdict = self._run_verdicts.get(arrows)
        if verdict is None:
            vec = self.nf_vector(arrows)
            verdict = self._run_verdicts[arrows] = bool(vec) and not self.in_socle(vec)
        return verdict

    def arms(self, vertex: str) -> tuple:
        """Maximal nonzero paths out of a vertex, one per outgoing arrow.

        Continuations prefer the unique non-socle product; once the value
        falls into the socle the path cannot be extended further.
        """
        cached = self._arms.get(vertex)
        if cached is not None:
            return cached
        out = []
        for start in self.quiver.out_arrows[vertex]:
            arrows = (start.name,)
            if not self.nf_vector(arrows):
                continue
            while self.off_socle(arrows):
                best = None
                for a in self.quiver.out_arrows[self.quiver.target(arrows[-1])]:
                    cand = arrows + (a.name,)
                    if self.off_socle(cand):
                        best = cand
                        break
                    if best is None and self.nf_vector(cand):
                        best = cand
                if best is None:
                    break
                arrows = best
            out.append(self.quiver.path(arrows))
        self._arms[vertex] = tuple(out)
        return self._arms[vertex]


def build_table(pres: AlgebraPresentation) -> AlgebraTable:
    return AlgebraTable(pres)


class SymmetryReport(Record):
    __slots__ = ("verdict",   # not-selfinjective | selfinjective | symmetric
                 "form")      # basis index -> scalar, a symmetrizing functional phi, or None


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
        s = {fiber[t]: c for t, c in rows[0].items()}
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
            eq = sub_multiple(table.mult_basis(i, j), 1, table.mult_basis(j, i), f)
            if eq:
                commutators.append(eq)
    functionals = sparse_nullspace(commutators, table.dim, f)
    width = len(lines)
    ech = Echelon(f, width=width)
    for r, phi in enumerate(functionals):
        values = {col: dot(phi, s, f) for col, s in enumerate(lines.values())}
        values[width + r] = 1
        ech.add(values)
    minus_one = f.neg(1)
    total = {}
    for row in ech.rows.values():
        sub_multiple(total, minus_one, row, f)
    if not all(total.get(col) for col in range(width)):
        return SymmetryReport("selfinjective", None)
    form = {}
    for r, phi in enumerate(functionals):
        sub_multiple(form, f.neg(total.get(width + r, 0)), phi, f)
    return SymmetryReport("symmetric", form)


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
