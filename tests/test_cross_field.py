"""Metamorphic check: the string calculus does not depend on the field.

The standard algebra of the same (Q, pi, m) data is built over Q, F3 and
F5.  Its multiplication is monomial with coefficients 1, so the verdict,
the strings, their translates, AR middles and stable Hom dimensions must
agree across the three fields.  The seed range is contiguous and
instances are admitted by size only.
"""

from biserial.core import build_table, check_selfinjective_symmetric
from biserial.fields import Field
from biserial.instances import random_standard_data
from biserial.normalizer import build_from_standard_data
from biserial.reps import stable_hom_dim
from biserial.strings import enumerate_strings, string_module
from biserial.translate import ar_sequence, tau, tau_inv

SEEDS = range(24)
MAX_DIM = 16
FIELDS = (Field(0), Field(3), Field(5))


def outcome(fn, *args):
    """fn(*args), or the name of the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc).__name__


def invariants(table) -> dict:
    words = enumerate_strings(table, 3)

    def ar_middles(w):
        seq = ar_sequence(table, w)
        return [str(m) for m in seq.middle_strings], seq.middle_projective

    short = [w for w in words if w.length <= 1]
    modules = {str(w): string_module(table, w) for w in short}
    return {
        "verdict": check_selfinjective_symmetric(table).verdict,
        "strings": [str(w) for w in words],
        "tau": [str(outcome(tau, table, w)) for w in words],
        "tau_inv": [str(outcome(tau_inv, table, w)) for w in words],
        "ar_middles": [outcome(ar_middles, w) for w in words],
        "stable_hom": {(m, n): outcome(stable_hom_dim, table, modules[m], modules[n])
                       for m in modules for n in modules},
    }


def test_calculus_agrees_over_q_f3_and_f5():
    compared = 0
    for seed in SEEDS:
        quiver, pi, mult = random_standard_data(seed)
        tables = [build_table(build_from_standard_data(quiver, pi, mult, [], f))
                  for f in FIELDS]
        if tables[0].dim > MAX_DIM:
            continue
        over_q, *over_fp = [invariants(t) for t in tables]
        for other in over_fp:
            assert other == over_q, seed
        compared += 1
    assert compared >= 10
