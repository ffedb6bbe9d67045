"""Normalization of symmetric stably biserial presentations.

The pipeline constructs the arrow permutation (successor of each arrow
along its socle cycle), measures cycle multiplicities from maximal
nonzero powers, rescales generators so that all socle values of the
symmetrizing form are one, and then eliminates socle relations by
generator substitutions.  In characteristic two the loop deformations
that cannot be removed are returned alongside the clean permutation
data; the inverse constructor rebuilds a presentation from that data.
"""

from __future__ import annotations

from . import linalg as la
from .checks import (_continuations, _stably_biserial_conditions,
                     is_local_nakayama)
from .core import (AlgebraPresentation, AlgebraTable, DomainError,
                   EqualityRelation, Quiver, Record, SocleDeformation,
                   ZeroRelation, build_table, check_selfinjective_symmetric)
from .fields import Field


class NotSymmetric(DomainError):
    pass


class NotStablyBiserial(DomainError):
    pass


class ExcludedLocalCase(DomainError):
    pass


class MultiplicityMismatch(DomainError):
    pass


class RootNotInField(DomainError):
    pass


class InvalidPermutation(DomainError):
    pass


class InvalidDeformation(DomainError):
    pass


class PiData(Record):
    __slots__ = ("pi",          # arrow -> arrow
                 "cycles",      # list of arrow tuples
                 "mult",        # cycle tuple -> positive integer m
                 "n",           # arrow -> its cycle length
                 "k",           # arrow -> maximal nonzero power length
                 "sc",          # arrow -> socle path (tuple of arrows)
                 "case_trace")


class Substitution(Record):
    """One generator substitution: arrow <- scale*arrow - coeff*path."""

    __slots__ = ("arrow", "scale", "coeff", "path")

    def describe(self, fmt) -> str:
        parts = []
        if self.scale is not None:
            parts.append(f"{self.arrow} -> ({fmt(self.scale)})*{self.arrow}")
        if self.coeff is not None:
            parts.append(f"{self.arrow} -> {self.arrow} - ({fmt(self.coeff)})*"
                         f"{' '.join(self.path)}")
        return "; ".join(parts)


class NormalizedOutput(Record):
    __slots__ = ("base",            # standard presentation from (Q, pi, m)
                 "pi_data",
                 "deformations",    # [(loop arrow, scalar)]
                 "substitutions",   # Substitution log, in application order
                 "images")          # arrow -> vector over the input table


def _require_symmetric_stably_biserial(table: AlgebraTable):
    report = check_selfinjective_symmetric(table)
    if report.verdict != "symmetric":
        raise NotSymmetric(f"table is {report.verdict}")
    ok, witnesses = _stably_biserial_conditions(table)
    if not ok:
        raise NotStablyBiserial(f"witnesses: {witnesses}")
    if is_local_nakayama(table):
        raise ExcludedLocalCase("the one-loop local algebra is excluded")
    return report


def construct_pi(table: AlgebraTable) -> PiData:
    """The successor permutation on arrows, by the soc-membership cases."""
    _require_symmetric_stably_biserial(table)
    q = table.quiver
    pi = {}
    trace = {}
    pending = []
    for a in q.arrows:
        nonsocle = _continuations(table, a.name, True)
        socle = [b for b in _continuations(table, a.name, False) if b not in nonsocle]
        if len(nonsocle) > 1:
            raise NotStablyBiserial(f"arrow {a.name} has two continuations off the socle")
        if nonsocle:
            pi[a.name] = nonsocle[0]
            trace[a.name] = "I"
        else:
            pending.append((a.name, socle))
    for name, socle in pending:
        if name in pi:
            continue
        if not socle:
            raise ExcludedLocalCase(f"arrow {name} annihilates the radical")
        if len(socle) == 2:
            _case_two(table, pi, trace, name, socle)
        else:
            pi[name] = socle[0]
            trace.setdefault(name, "III")
    _validate_pi(table, pi)
    cycles = _cycles_of(pi, [a.name for a in q.arrows])
    n = {a: len(cyc) for cyc in cycles for a in cyc}
    return PiData(pi, cycles, {}, n, {}, {}, trace)


def _assign(pi, trace, key, value, tag):
    if key in pi and pi[key] != value:
        raise InvalidPermutation(
            f"conflicting assignments pi({key}) = {pi[key]} / {value}")
    pi[key] = value
    trace.setdefault(key, tag)


def _case_two(table: AlgebraTable, pi, trace, alpha, betas):
    q = table.quiver
    n_vertices = len(q.vertices)
    if n_vertices == 1:
        # two loops; alpha is the one with both products in the socle
        beta = betas[0] if betas[0] != alpha else betas[1]
        if not table.nf_vector((beta, beta)):
            _assign(pi, trace, alpha, beta, "II|Q0|=1:beta^2=0")
            _assign(pi, trace, beta, alpha, "II|Q0|=1:beta^2=0")
        else:
            _assign(pi, trace, alpha, alpha, "II|Q0|=1:beta^2!=0")
            _assign(pi, trace, beta, beta, "II|Q0|=1:beta^2!=0")
        return
    if n_vertices > 2:
        sa, ea = q.source(alpha), q.target(alpha)
        gammas = [g.name for g in q.out_arrows[sa]
                  if g.name != alpha and q.target(g.name) != ea]
        deltas = [d.name for d in q.in_arrows[ea]
                  if d.name != alpha and q.source(d.name) != sa]
        if len(gammas) != 1 or len(deltas) != 1:
            raise NotStablyBiserial(f"case-II shape fails at arrow {alpha}")
        gamma, delta = gammas[0], deltas[0]
        chosen = None
        for i, b in enumerate(betas):
            if table.off_socle((delta, b)) and table.off_socle((b, gamma)):
                chosen = i
                break
        if chosen is None:
            raise NotStablyBiserial(f"case-II continuation missing at {alpha}")
        other = betas[1 - chosen]
        _assign(pi, trace, alpha, other, "II|Q0|>2")
        _assign(pi, trace, other, alpha, "II|Q0|>2")
        return
    # two vertices: an auxiliary arrow alpha2 separates beta_1 and beta_2
    f = table.field
    b1, b2 = betas
    v1 = table.nf_vector((b1, alpha))
    v2 = table.nf_vector((b2, alpha))
    if not v1 or not v2:
        raise NotStablyBiserial(f"case-II symmetry fails at {alpha}")
    c = la.multiple_of(v1, v2, f)
    if c is None:
        raise NotStablyBiserial(f"case-II proportionality fails at {alpha}")
    alpha2 = None
    for a2 in q.out_arrows[q.target(b1)]:
        if a2.name == alpha:
            continue
        w1 = table.nf_vector((b1, a2.name))
        if la.sub_multiple(w1, c, table.nf_vector((b2, a2.name)), f):
            alpha2 = a2.name
            break
    if alpha2 is None:
        raise NotStablyBiserial(f"case-II auxiliary arrow missing at {alpha}")
    prods = [table.nf_vector((b, alpha2)) for b in (b1, b2)]
    in_soc = [not table.off_socle((b, alpha2)) for b in (b1, b2)]
    zero_i = [i for i in (0, 1) if not prods[i]]
    if zero_i:
        i = zero_i[0]
        tag = "II|Q0|=2:zero"
    elif in_soc[0] and not in_soc[1]:
        i, tag = 0, "II|Q0|=2:off-socle"
    elif in_soc[1] and not in_soc[0]:
        i, tag = 1, "II|Q0|=2:off-socle"
    elif in_soc[0] and in_soc[1]:
        i, tag = 0, "II|Q0|=2:free"
    else:
        raise NotStablyBiserial(f"case-II socle condition fails at {alpha}")
    chosen, other = (b1, b2) if i == 0 else (b2, b1)
    _assign(pi, trace, chosen, alpha, tag)
    _assign(pi, trace, alpha, chosen, tag)
    _assign(pi, trace, other, alpha2, tag)
    _assign(pi, trace, alpha2, other, tag)


def _validate_pi(table: AlgebraTable, pi: dict):
    q = table.quiver
    names = [a.name for a in q.arrows]
    if sorted(pi) != sorted(names) or sorted(pi.values()) != sorted(names):
        raise InvalidPermutation(f"pi is not a permutation: {pi}")
    for a in names:
        if q.target(a) != q.source(pi[a]):
            raise InvalidPermutation(f"e({a}) != s(pi({a}))")
        if not table.nf_vector((a, pi[a])):
            raise InvalidPermutation(f"property (1) fails: {a}*pi({a}) = 0")
        for b in q.out_arrows[q.target(a)]:
            if b.name != pi[a] and table.off_socle((a, b.name)):
                raise InvalidPermutation(f"property (2) fails at {a}*{b.name}")


def _cycles_of(pi: dict, names):
    seen = set()
    cycles = []
    for a in names:
        if a in seen:
            continue
        cyc = [a]
        seen.add(a)
        cur = pi[a]
        while cur != a:
            cyc.append(cur)
            seen.add(cur)
            cur = pi[cur]
        cycles.append(tuple(cyc))
    return cycles


def socle_paths(table: AlgebraTable, pi_data: PiData) -> PiData:
    """Fill in k, m and the socle paths; verify k = n*m on every arrow."""
    q = table.quiver
    for a in [x.name for x in q.arrows]:
        walk = [a]
        cur = a
        while True:
            nxt = pi_data.pi[cur]
            if not table.nf_vector(tuple(walk) + (nxt,)):
                break
            walk.append(nxt)
            cur = nxt
        vec = table.nf_vector(tuple(walk))
        if not vec or not table.in_socle(vec):
            raise MultiplicityMismatch(f"socle path of {a} is not in the socle")
        pi_data.k[a] = len(walk)
        pi_data.sc[a] = tuple(walk)
    for cyc in pi_data.cycles:
        ks = {pi_data.k[a] for a in cyc}
        if len(ks) != 1:
            raise MultiplicityMismatch(f"cycle {cyc} has unequal power lengths {ks}")
        k = ks.pop()
        n = len(cyc)
        if k % n != 0:
            raise MultiplicityMismatch(f"cycle {cyc}: k={k} not divisible by n={n}")
        pi_data.mult[cyc] = k // n
    return pi_data


def _image_of_path(table: AlgebraTable, images: dict, arrows):
    vec = None
    for a in arrows:
        av = images[a]
        vec = av if vec is None else table.mult_vec(vec, av)
    return vec if vec is not None else table.identity_vec()


def rescale_to_unit_socle(table: AlgebraTable, pi_data: PiData, phi: dict,
                          images: dict):
    """Scale one arrow per cycle so the form takes value 1 on socle paths.

    Mutates the generator images in place and returns the substitutions.
    """
    f = table.field
    subs = []
    for cyc in pi_data.cycles:
        rep = cyc[0]
        c = la.dot(_image_of_path(table, images, pi_data.sc[rep]), phi, f)
        if c == f.zero:
            raise MultiplicityMismatch(f"form vanishes on the socle path of {rep}")
        if c == f.one:
            continue
        m = pi_data.mult[cyc]
        root = f.nth_root(c, m)
        if root is None:
            raise RootNotInField(
                f"needs an {m}-th root of {f.format(c)} to rescale cycle {cyc}")
        images[rep] = {k: f.div(v, root) for k, v in images[rep].items()}
        subs.append(Substitution(rep, f.inv(root), None, ()))
    return subs


def _scan_socle_relations(table: AlgebraTable, pi_data: PiData, images: dict):
    """Nonzero coefficients l with beta*gamma = l*sc(beta), in arrow order."""
    f = table.field
    q = table.quiver
    found = []
    for b in q.arrows:
        sc_vec = None
        for g in q.out_arrows[b.target]:
            if g.name == pi_data.pi[b.name]:
                continue
            val = table.mult_vec(images[b.name], images[g.name])
            if not val:
                continue
            if sc_vec is None:
                sc_vec = _image_of_path(table, images, pi_data.sc[b.name])
            l = la.multiple_of(val, sc_vec, f)
            if l is None:
                raise NotStablyBiserial(
                    f"product {b.name}*{g.name} is not a socle multiple")
            found.append((b.name, g.name, l))
    return found


def eliminate_socle_relations(table: AlgebraTable, pi_data: PiData) -> NormalizedOutput:
    """Make the presentation special biserial by generator substitutions.

    Over characteristic two, loops with pi(a) != a keep their square
    deformations; everything else is eliminated.  The generator images
    over the input table witness the isomorphism.
    """
    f = table.field
    q = table.quiver
    report = check_selfinjective_symmetric(table)
    if report.form is None:
        raise NotSymmetric("no symmetrizing form found")
    images = {a.name: dict(table.nf_vector((a.name,))) for a in q.arrows}
    substitutions = []
    substitutions.extend(
        rescale_to_unit_socle(table, pi_data, report.form, images))
    char2 = f.char == 2
    max_rounds = 4 * (len(q.arrows) ** 2 + 4)
    for _ in range(max_rounds):
        found = _scan_socle_relations(table, pi_data, images)
        workable = [(b, g, l) for (b, g, l) in found
                    if not (char2 and b == g)]
        if not workable:
            break
        b, g, l = workable[0]
        p = pi_data.sc[b][1:]
        p_img = _image_of_path(table, images, p)
        if b != g:
            coeff = l
        else:
            coeff = f.div(l, f.of(2))
        images[g] = la.sub_multiple(dict(images[g]), coeff, p_img, f)
        substitutions.append(Substitution(g, None, coeff, p))
        # co-starting socle values can drift in the small-quiver cases
        substitutions.extend(
            rescale_to_unit_socle(table, pi_data, report.form, images))
    else:
        raise NotStablyBiserial("socle-relation elimination did not terminate")
    deformations = []
    if char2:
        for b, g, l in _scan_socle_relations(table, pi_data, images):
            if b != g:
                raise NotStablyBiserial(
                    f"char-2 residue at distinct arrows {b}, {g}")
            if pi_data.pi[b] == b:
                raise InvalidDeformation(
                    f"loop {b} with pi({b}) = {b} kept a deformation")
            deformations.append((b, l))
    base = build_from_standard_data(q, pi_data.pi,
                                    {cyc: m for cyc, m in pi_data.mult.items()},
                                    [], f)
    return NormalizedOutput(base, pi_data, deformations, substitutions, images)


def normalize(table: AlgebraTable) -> NormalizedOutput:
    """Full pipeline: pi, multiplicities, rescaling, elimination."""
    pi_data = socle_paths(table, construct_pi(table))
    out = eliminate_socle_relations(table, pi_data)
    verify_normalization(table, out)
    return out


def deformed_presentation(out: NormalizedOutput) -> AlgebraPresentation:
    """The base presentation with the residual deformations reinstated."""
    base = out.base
    if not out.deformations:
        return base
    return build_from_standard_data(base.quiver, out.pi_data.pi, out.pi_data.mult,
                                    out.deformations, base.field)


def verify_normalization(table: AlgebraTable, out: NormalizedOutput):
    """Exact structure-constant check of the substitution isomorphism."""
    f = table.field
    target = build_table(deformed_presentation(out))
    if target.dim != table.dim:
        raise NotStablyBiserial(
            f"normalization changed the dimension: {table.dim} != {target.dim}")
    image_vecs = []
    for p in target.basis:
        if p.length == 0:
            vec = {table.index[("e", p.source)]: f.one}
        else:
            vec = _image_of_path(table, out.images, p.arrows)
        image_vecs.append(vec)
    span = la.Echelon(f)
    for vec in image_vecs:
        span.add(vec)
    if span.rank != table.dim:
        raise NotStablyBiserial("substitution images are not a basis")
    for i in range(target.dim):
        for j in range(target.dim):
            # the product of the images minus the image of the product
            diff = table.mult_vec(image_vecs[i], image_vecs[j])
            for k, c in target.mult_basis(i, j).items():
                la.sub_multiple(diff, c, image_vecs[k], f)
            if diff:
                raise NotStablyBiserial(
                    f"structure constants differ at basis pair ({i}, {j})")
    return True


def build_from_standard_data(quiver: Quiver, pi: dict, mult: dict,
                             deformations, field: Field) -> AlgebraPresentation:
    """Presentation of the (deformed) standard algebra of (Q, pi, m).

    Relations: every composable product off the permutation vanishes
    (deformed loops get their socle value instead), co-starting cycle
    powers agree, and cycle powers die against one more arrow at
    one-in-one-out vertices.
    """
    names = [a.name for a in quiver.arrows]
    if sorted(pi) != sorted(names) or sorted(pi.values()) != sorted(names):
        raise InvalidPermutation("pi must permute the arrows")
    for a in names:
        if quiver.target(a) != quiver.source(pi[a]):
            raise InvalidPermutation(f"e({a}) != s(pi({a}))")
    cycles = _cycles_of(pi, names)
    pi_inverse = {b: a for a, b in pi.items()}
    by_arrows = {frozenset(cyc): cyc for cyc in cycles}
    given = {}              # cycle -> multiplicity, matched on arrow sets
    for key, m in mult.items():
        cyc = by_arrows.get(frozenset(key))
        if cyc is None:
            raise InvalidPermutation(
                f"multiplicity entry {' '.join(key)!r} names no cycle of pi")
        if cyc in given:
            raise InvalidPermutation(f"cycle {cyc} is given a multiplicity twice")
        given[cyc] = m
    socle_length = {}       # arrow -> multiplicity times cycle length
    for cyc in cycles:
        if cyc not in given:
            raise InvalidPermutation(f"no multiplicity given for cycle {cyc}")
        m = given[cyc]
        if m < 1:
            raise InvalidPermutation(f"multiplicity of {cyc} must be positive")
        for a in cyc:
            socle_length[a] = m * len(cyc)
    for v in quiver.vertices:
        outs = quiver.out_arrows[v]
        if len(outs) == 2:
            for a in outs:
                if socle_length[a.name] < 2:
                    raise InvalidPermutation(
                        f"arm of {a.name} at {v} would place an arrow in the socle")
    deform = {}
    for arrow, c in deformations:
        if quiver.source(arrow) != quiver.target(arrow):
            raise InvalidDeformation(f"{arrow} is not a loop")
        if pi[arrow] == arrow:
            raise InvalidDeformation(f"{arrow} is fixed by pi")
        if arrow in deform:
            raise InvalidDeformation(f"{arrow} is deformed twice")
        c = field.of(c)
        if c == field.zero:
            raise InvalidDeformation(f"deformation scalar of {arrow} is zero")
        deform[arrow] = c

    def socle_path(a: str):
        walk = [a]
        cur = a
        while len(walk) < socle_length[a]:
            cur = pi[cur]
            walk.append(cur)
        return tuple(walk)

    relations = []
    for a in names:
        for b in quiver.out_arrows[quiver.target(a)]:
            if b.name == pi[a]:
                continue
            path = quiver.path((a, b.name))
            if a == b.name and a in deform:
                relations.append(SocleDeformation(path, deform[a],
                                                  quiver.path(socle_path(a))))
            else:
                relations.append(ZeroRelation(path))
    seen_pairs = set()
    for a in names:
        for b in quiver.out_arrows[quiver.source(a)]:
            if b.name == a:
                continue
            pair = tuple(sorted((a, b.name)))
            if pair in seen_pairs:
                continue
            seen_pairs.add(pair)
            relations.append(EqualityRelation(quiver.path(socle_path(a)),
                                              field.one,
                                              quiver.path(socle_path(b.name))))
    # socle boundary relations for every arrow; mostly redundant, but they
    # keep the directed rewriting complete whichever way the co-starting
    # equalities get oriented
    seen_zero = set()
    for a in names:
        sc = socle_path(a)
        for path in (sc + (a,), (pi_inverse[a],) + sc):
            if path not in seen_zero:
                seen_zero.add(path)
                relations.append(ZeroRelation(quiver.path(path)))
    return AlgebraPresentation(field, quiver, relations)

