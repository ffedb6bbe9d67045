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


def _continuations(table: AlgebraTable, arrow: str, socle_free: bool, before: bool = False):
    """Arrows b with arrow*b (b*arrow when before) nonzero, and outside the
    socle if socle_free."""
    q = table.quiver
    test = table.off_socle if socle_free else table.nf_vector
    if before:
        return [b.name for b in q.in_arrows[q.source(arrow)] if test((b.name, arrow))]
    return [b.name for b in q.out_arrows[q.target(arrow)] if test((arrow, b.name))]


def _continuation_witnesses(table: AlgebraTable, socle_free: bool):
    """Per arrow, its right and then its left continuations, where there
    are more than one."""
    suffix = "-mod-socle" if socle_free else ""
    witnesses = []
    for a in table.quiver.arrows:
        for side, before in (("right", False), ("left", True)):
            conts = _continuations(table, a.name, socle_free, before)
            if len(conts) > 1:
                witnesses.append((a.name, f"{side}-continuations{suffix}", tuple(conts)))
    return witnesses


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
    degrees = table.quiver.degrees()
    witnesses = [(f"vertex {v}", "degree", (i, o))
                 for v, (i, o) in degrees.items() if i > 2 or o > 2]
    witnesses += _continuation_witnesses(table, socle_free=False)
    stb = _stably_biserial_conditions(table)[0]
    return ClassReport(not witnesses, stb, witnesses, degrees)


def _stably_biserial_conditions(table: AlgebraTable):
    """Socle-relaxed continuation conditions with witnesses."""
    witnesses = [] if check_arrow_bound(table.quiver) else [("quiver", "degree", None)]
    witnesses += _continuation_witnesses(table, socle_free=True)
    return not witnesses, witnesses


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
