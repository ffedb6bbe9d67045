"""Shared fixture presentations and the randomized instance generators.

The named fixtures:

* ``alg_n2``  -- two vertices, arrows a:1->2, b:2->1, relations aba=0, bab=0
  (symmetric Nakayama of Loewy length 3, dimension 6).
* ``alg_l2``  -- one vertex, loops a, b with a^2=0, b^2=0, ab=ba
  (symmetric special biserial, pi = (a b), multiplicity 1).
* ``alg_l2d`` -- alg_l2 with a^2=0 replaced by the socle deformation a^2=ab.
* ``alg_a3z`` -- vertices 1,2,3 with a:1->2, b:2->3 and ab=0
  (not selfinjective; vertex 2 is a node).

Random generators return data from which standard symmetric special
biserial presentations and node-bearing string presentations are built.
"""

from __future__ import annotations

import random

from .core import AlgebraPresentation, Quiver, ZeroRelation
from .fields import Field
from .normalizer import build_from_standard_data
from .presentations import parse_presentation

ALG_N2_TEXT = """
field Q
vertex 1 2
arrow a : 1 -> 2
arrow b : 2 -> 1
rel a b a = 0
rel b a b = 0
"""

ALG_L2_TEXT = """
field Q
vertex 1
arrow a : 1 -> 1
arrow b : 1 -> 1
rel a a = 0
rel b b = 0
rel a b = b a
"""

ALG_L2D_TEXT = """
field Q
vertex 1
arrow a : 1 -> 1
arrow b : 1 -> 1
rel a a = a b
rel b b = 0
rel a b = b a
"""

ALG_A3Z_TEXT = """
field Q
vertex 1 2 3
arrow a : 1 -> 2
arrow b : 2 -> 3
rel a b = 0
"""


def _with_field(text: str, field: Field | None) -> AlgebraPresentation:
    pres = parse_presentation(text)
    if field is not None and field != pres.field:
        spec = "Q" if field.char == 0 else f"F{field.char}"
        pres = parse_presentation(text.replace("field Q", f"field {spec}"))
    return pres


def alg_n2(field: Field | None = None) -> AlgebraPresentation:
    return _with_field(ALG_N2_TEXT, field)


def alg_l2(field: Field | None = None) -> AlgebraPresentation:
    return _with_field(ALG_L2_TEXT, field)


def alg_l2d(field: Field | None = None) -> AlgebraPresentation:
    return _with_field(ALG_L2D_TEXT, field)


def alg_a3z(field: Field | None = None) -> AlgebraPresentation:
    return _with_field(ALG_A3Z_TEXT, field)


def loop_algebra(field: Field | None = None) -> AlgebraPresentation:
    """k[a]/a^2: one vertex, one loop, a^2 = 0 (the excluded local case)."""
    return _with_field("""
field Q
vertex 1
arrow a : 1 -> 1
rel a a = 0
""", field)


def random_standard_data(seed: int, max_vertices: int = 6, max_mult: int = 3,
                         require_loop: bool = False):
    """Random (quiver, pi, mult) data for a connected symmetric SSB algebra.

    Arrows are partitioned into pi-cycles and distributed over vertices with
    out-degree 1 or 2; targets are forced by e(a) = s(pi(a)), which makes
    in-degrees match out-degrees automatically.
    """
    rng = random.Random(seed)
    for _ in range(400):
        n_arrows = rng.randint(2, 2 * max_vertices)
        names = [f"a{i}" for i in range(n_arrows)]
        # partition into cycles
        order = names[:]
        rng.shuffle(order)
        cycles = []
        i = 0
        while i < len(order):
            size = rng.randint(1, min(4, len(order) - i))
            cycles.append(order[i:i + size])
            i += size
        # distribute arrow sources over vertices in groups of 1 or 2
        n_vertices = 0
        source_of = {}
        pool = names[:]
        rng.shuffle(pool)
        while pool:
            take = 2 if (len(pool) >= 2 and rng.random() < 0.6) else 1
            if n_vertices + 1 > max_vertices:
                break
            v = str(n_vertices + 1)
            n_vertices += 1
            for _ in range(take):
                source_of[pool.pop()] = v
        if pool:
            continue
        pi = {}
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                pi[a] = b
        vertices = [str(i + 1) for i in range(n_vertices)]
        arrows = [(a, source_of[a], source_of[pi[a]]) for a in names]
        quiver = Quiver(vertices, arrows)
        if not quiver.is_connected():
            continue
        if len(quiver.arrows) == 1:
            continue  # local Nakayama, excluded
        mult = {}
        for cyc in cycles:
            weights = [1, 1, 1, 1, 2] + ([3] if max_mult >= 3 else [])
            m = rng.choice([w for w in weights if w <= max_mult])
            if len(cyc) == 1:
                m = max(m, 2)  # a fixed loop with m=1 would sit in the socle
            mult[tuple(sorted(cyc))] = m
        # keep the dimension at desk scale
        dim_bound = sum(len(cyc) * mult[tuple(sorted(cyc))] for cyc in cycles) * 2
        if dim_bound > 120:
            continue
        if require_loop and not any(a.source == a.target and pi[a.name] != a.name
                                    for a in quiver.arrows):
            continue
        return quiver, pi, mult
    raise RuntimeError(f"could not generate standard data for seed {seed}")


# seeds whose string counts stay small enough for exhaustive length-12
# sweeps; diverse in vertex count, cycle shapes and multiplicities
ACCEPTANCE_SEEDS = (0, 1, 3, 5, 12, 14, 17, 19, 30, 33, 34)


def acceptance_pool():
    """Deterministic randomized symmetric SSB instances for the test suite.

    Returns (label, presentation, (quiver, pi, mult)) triples; two run over
    the rationals, the rest over small prime fields.
    """
    out = []
    for i, seed in enumerate(ACCEPTANCE_SEEDS):
        quiver, pi, mult = random_standard_data(seed)
        if i < 2:
            field = Field(0)
        else:
            field = Field(3) if i % 2 else Field(5)
        pres = build_from_standard_data(quiver, pi, mult, [], field)
        out.append((f"rand-{seed}-{field!r}", pres, (quiver, pi, mult)))
    return out


def random_node_presentation(seed: int, field: Field | None = None) -> AlgebraPresentation:
    """A random special biserial string presentation with at least one node.

    Built as a linear quiver with optional branches where all length-2
    compositions through some interior vertices vanish.
    """
    rng = random.Random(seed)
    field = field or Field(0)
    n = rng.randint(3, 6)
    vertices = [str(i + 1) for i in range(n)]
    arrows = [(f"a{i}", str(i + 1), str(i + 2)) for i in range(n - 1)]
    quiver = Quiver(vertices, arrows)
    # the quiver is acyclic, so any set of zero relations is admissible;
    # an interior vertex whose unique composition dies is a node
    interior = list(range(1, n - 1))
    chosen = [i for i in interior if rng.random() < 0.7] or [rng.choice(interior)]
    rels = [ZeroRelation(quiver.path((f"a{i - 1}", f"a{i}"))) for i in sorted(chosen)]
    return AlgebraPresentation(field, quiver, rels)
