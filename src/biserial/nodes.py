"""Node detection and removal by vertex splitting.

A node is a simple module, neither projective nor injective, with every
length-two path through its vertex vanishing; splitting replaces it by a
sink and a source, preserving the count of non-projective simples.
"""

from __future__ import annotations

from .core import (AlgebraPresentation, AlgebraTable, EqualityRelation,
                   Quiver, QuiverError, Record, SocleDeformation, ZeroRelation)


class NodeReport(Record):
    __slots__ = ("nodes",
                 "evidence")   # vertex -> {non_projective, non_injective, compositions_vanish}


def detect_nodes(table: AlgebraTable) -> NodeReport:
    q = table.quiver
    nodes = []
    evidence = {}
    for v in q.vertices:
        non_proj = len(table.by_source[v]) > 1
        non_inj = len(table.by_target[v]) > 1
        vanish = all(not table.nf_vector((b.name, a.name))
                     for b in q.in_arrows[v] for a in q.out_arrows[v])
        evidence[v] = {"non_projective": non_proj, "non_injective": non_inj,
                       "compositions_vanish": vanish}
        if non_proj and non_inj and vanish:
            nodes.append(v)
    return NodeReport(nodes, evidence)


def split_nodes(table: AlgebraTable) -> AlgebraPresentation:
    """Replace each node vertex of table.pres by a sink (incoming) and a
    source (outgoing); table.pres itself when the table has no node."""
    pres = table.pres
    report = detect_nodes(table)
    if not report.nodes:
        return pres
    node_set = set(report.nodes)
    q = table.quiver
    vertices = []
    for v in q.vertices:
        if v in node_set:
            vertices.extend([f"{v}_in", f"{v}_out"])
        else:
            vertices.append(v)
    arrows = []
    for a in q.arrows:
        src = f"{a.source}_out" if a.source in node_set else a.source
        tgt = f"{a.target}_in" if a.target in node_set else a.target
        arrows.append((a.name, src, tgt))
    new_q = Quiver(vertices, arrows)

    def rebuild(path):
        if path.length == 0:
            v = path.source
            return new_q.path((), f"{v}_in" if v in node_set else v)
        return new_q.path(path.arrows)

    relations = []
    for rel in pres.relations:
        if isinstance(rel, ZeroRelation):
            try:
                relations.append(ZeroRelation(rebuild(rel.path)))
            except QuiverError:
                continue  # the path ran through a split node and is vacuous
        elif isinstance(rel, (EqualityRelation, SocleDeformation)):
            try:
                left = rebuild(rel.left)
            except QuiverError:
                left = None
            try:
                right = rebuild(rel.right)
            except QuiverError:
                right = None
            if left is not None and right is not None:
                relations.append(type(rel)(left, rel.coeff, right))
            elif left is not None and left.length >= 2:
                relations.append(ZeroRelation(left))
            elif right is not None and right.length >= 2:
                relations.append(ZeroRelation(right))
    return AlgebraPresentation(pres.field, new_q, relations)


def nonprojective_simple_count(table: AlgebraTable) -> int:
    """Number of vertices whose projective cover is not simple."""
    return sum(1 for v in table.quiver.vertices if len(table.by_source[v]) > 1)
