"""Recognizers for special biserial and stably biserial presentations.

All conditions are decided semantically on the built table: degree
bounds on the quiver, uniqueness of nonzero continuations per arrow, and
the socle-membership relaxation for the stably biserial case.  Witnesses
are collected exhaustively for diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import (AlgebraPresentation, AlgebraTable, DomainError, Quiver,
                   check_selfinjective_symmetric)


class NotSelfinjective(DomainError):
    pass


@dataclass
class ClassReport:
    is_special_biserial: bool
    is_stably_biserial: bool
    witnesses: list = field(default_factory=list)
    in_out_degrees: dict = field(default_factory=dict)


def _product(table: AlgebraTable, a: str, b: str):
    q = table.quiver
    if q.target(a) != q.source(b):
        return {}
    return table.nf_vector((a, b))


def _continuations(table: AlgebraTable, arrow: str, socle_free: bool):
    """Arrows b with arrow*b nonzero (and outside the socle if socle_free)."""
    q = table.quiver
    out = []
    for b in q.out_arrows[q.target(arrow)]:
        vec = _product(table, arrow, b.name)
        if not vec:
            continue
        if socle_free and table.in_socle(vec):
            continue
        out.append(b.name)
    return out


def _cocontinuations(table: AlgebraTable, arrow: str, socle_free: bool):
    q = table.quiver
    out = []
    for b in q.in_arrows[q.source(arrow)]:
        vec = _product(table, b.name, arrow)
        if not vec:
            continue
        if socle_free and table.in_socle(vec):
            continue
        out.append(b.name)
    return out


def check_arrow_bound(quiver: Quiver) -> bool:
    """Degree <= 2 in and out at every vertex."""
    return all(i <= 2 and o <= 2 for i, o in quiver.degrees().values())


def is_local_nakayama(table: AlgebraTable) -> bool:
    return len(table.quiver.vertices) == 1 and len(table.quiver.arrows) == 1


def check_special_biserial(pres: AlgebraPresentation, table: AlgebraTable) -> ClassReport:
    """Degrees <= 2 and unique nonzero continuation on both sides per arrow.

    The stably biserial flag reports the relation-level socle conditions,
    independent of selfinjectivity.
    """
    q = table.quiver
    witnesses = []
    degrees = q.degrees()
    sb = True
    for v, (i, o) in degrees.items():
        if i > 2 or o > 2:
            sb = False
            witnesses.append((f"vertex {v}", "degree", (i, o)))
    for a in q.arrows:
        conts = _continuations(table, a.name, socle_free=False)
        if len(conts) > 1:
            sb = False
            witnesses.append((a.name, "right-continuations", tuple(conts)))
        coconts = _cocontinuations(table, a.name, socle_free=False)
        if len(coconts) > 1:
            sb = False
            witnesses.append((a.name, "left-continuations", tuple(coconts)))
    stb = _stably_biserial_conditions(table)[0]
    return ClassReport(sb, stb, witnesses, degrees)


def _stably_biserial_conditions(table: AlgebraTable):
    """Socle-relaxed continuation conditions with witnesses."""
    q = table.quiver
    witnesses = []
    ok = check_arrow_bound(q)
    if not ok:
        witnesses.append(("quiver", "degree", None))
    for a in q.arrows:
        conts = _continuations(table, a.name, socle_free=True)
        if len(conts) > 1:
            ok = False
            witnesses.append((a.name, "right-continuations-mod-socle", tuple(conts)))
        coconts = _cocontinuations(table, a.name, socle_free=True)
        if len(coconts) > 1:
            ok = False
            witnesses.append((a.name, "left-continuations-mod-socle", tuple(coconts)))
    return ok, witnesses


def check_stably_biserial(pres: AlgebraPresentation, table: AlgebraTable) -> ClassReport:
    """Stably biserial test; requires a selfinjective table."""
    verdict = check_selfinjective_symmetric(table).verdict
    if verdict == "not-selfinjective":
        raise NotSelfinjective("stably biserial algebras are selfinjective by definition")
    stb, witnesses = _stably_biserial_conditions(table)
    sb = check_special_biserial(pres, table).is_special_biserial
    return ClassReport(sb, stb, witnesses, table.quiver.degrees())


def check_one_in_one_out(quiver: Quiver, table: AlgebraTable):
    """One arrow enters a vertex iff one arrow leaves it; with witnesses."""
    witnesses = []
    for v, (i, o) in quiver.degrees().items():
        if (i == 1) != (o == 1):
            witnesses.append((v, (i, o)))
    return not witnesses, witnesses
