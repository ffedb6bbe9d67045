"""Reading and writing the line-oriented presentation file format.

    field Q | field F<p>
    vertex <id> ...
    arrow <id> : <v> -> <v>
    rel <path> = 0
    rel <path> = <scalar> <path>

Paths are whitespace-separated arrow ids; scalars are integers or
fractions n/d; '#' starts a comment.  A relation whose left side has
length two and shares its first arrow with the right side is a socle
deformation (the two sides are forced to be proportional socle data),
every other two-sided relation is a scaled equality of parallel paths.
"""

from __future__ import annotations

from fractions import Fraction

from .core import (AlgebraPresentation, DomainError, EqualityRelation,
                   Quiver, SocleDeformation, ZeroRelation)
from .fields import Field


class ParseError(DomainError):
    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}" if line_no else message)


def _parse_scalar(tok: str) -> Fraction:
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad scalar {tok!r}") from exc


def parse_presentation(text: str) -> AlgebraPresentation:
    field = None
    vertices: list[str] = []
    arrows: list[tuple] = []
    raw_rels: list[tuple] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        head = toks[0]
        if head == "field":
            if len(toks) != 2:
                raise ParseError("expected 'field Q' or 'field F<p>'", line_no)
            spec = toks[1]
            if spec == "Q":
                field = Field(0)
            elif spec.startswith("F") and spec[1:].isdigit():
                try:
                    field = Field(int(spec[1:]))
                except ValueError as exc:
                    raise ParseError(str(exc), line_no)
            else:
                raise ParseError(f"unknown field {spec!r}", line_no)
        elif head == "vertex":
            if len(toks) < 2:
                raise ParseError("vertex line needs at least one id", line_no)
            vertices.extend(toks[1:])
        elif head == "arrow":
            # arrow <id> : <v> -> <v>
            if len(toks) != 6 or toks[2] != ":" or toks[4] != "->":
                raise ParseError("expected 'arrow <id> : <v> -> <v>'", line_no)
            arrows.append((toks[1], toks[3], toks[5]))
        elif head == "rel":
            if "=" not in toks:
                raise ParseError("relation needs '='", line_no)
            eq = toks.index("=")
            lhs = toks[1:eq]
            rhs = toks[eq + 1:]
            if not lhs or not rhs:
                raise ParseError("empty relation side", line_no)
            raw_rels.append((lhs, rhs, line_no))
        else:
            raise ParseError(f"unknown directive {head!r}", line_no)
    if field is None:
        raise ParseError("missing 'field' line")
    if not vertices:
        raise ParseError("missing vertices")
    try:
        quiver = Quiver(vertices, arrows)
    except ValueError as exc:
        raise ParseError(str(exc))

    relations = []
    arrow_names = set(quiver.arrow_by_name)
    for lhs, rhs, line_no in raw_rels:
        for tok in lhs:
            if tok not in arrow_names:
                raise ParseError(f"unknown arrow {tok!r} in relation", line_no)
        try:
            left = quiver.path(lhs)
        except ValueError as exc:
            raise ParseError(str(exc), line_no)
        if rhs == ["0"]:
            relations.append(ZeroRelation(left))
            continue
        first = rhs[0]
        if first in arrow_names:
            coeff = Fraction(1)
            path_toks = rhs
        else:
            try:
                coeff = _parse_scalar(first)
            except ValueError as exc:
                raise ParseError(str(exc), line_no)
            path_toks = rhs[1:]
        if not path_toks:
            raise ParseError("relation right side needs a path", line_no)
        for tok in path_toks:
            if tok not in arrow_names:
                raise ParseError(f"unknown arrow {tok!r} in relation", line_no)
        try:
            right = quiver.path(path_toks)
        except ValueError as exc:
            raise ParseError(str(exc), line_no)
        if left.length == 2 and right.length >= 2 and left.arrows[0] == right.arrows[0] \
                and left.arrows != right.arrows:
            relations.append(SocleDeformation(left, field.of(coeff), right))
        else:
            relations.append(EqualityRelation(left, field.of(coeff), right))
    return AlgebraPresentation(field, quiver, relations)


def load_presentation(path: str) -> AlgebraPresentation:
    with open(path, encoding="utf-8") as fh:
        return parse_presentation(fh.read())


def format_presentation(pres: AlgebraPresentation) -> str:
    lines = []
    f = pres.field
    lines.append("field Q" if f.char == 0 else f"field F{f.char}")
    lines.append("vertex " + " ".join(pres.quiver.vertices))
    for a in pres.quiver.arrows:
        lines.append(f"arrow {a.name} : {a.source} -> {a.target}")
    for rel in pres.relations:
        if isinstance(rel, ZeroRelation):
            lines.append(f"rel {' '.join(rel.path.arrows)} = 0")
        else:
            coeff = f.of(rel.coeff)
            c = "" if coeff == f.one else f.format(coeff) + " "
            lines.append(f"rel {' '.join(rel.left.arrows)} = {c}{' '.join(rel.right.arrows)}")
    return "\n".join(lines) + "\n"
