"""The full invariant suite over one algebra, bounded by a string length.

Every check prints one pass/fail line through the CLI; the payload keeps
machine-readable results.  Checks that do not apply to the given algebra
(e.g. the translation oracle on a non-symmetric table) are skipped with
a note rather than failed.  An exception inside a check fails that check
with repr(exc) in its detail, and the sweep goes on.
"""

from __future__ import annotations

from contextlib import contextmanager

from .bricks import (check_bounded_maximality, check_orthogonal_system,
                     endpoint_multiplicity_check, stable_hom_of_words,
                     verify_shape_lemmas)
from .checks import (check_one_in_one_out, check_special_biserial,
                     is_local_nakayama)
from .core import AlgebraPresentation, build_table, check_selfinjective_symmetric
from .nodes import detect_nodes, nonprojective_simple_count, split_nodes
from .normalizer import normalize
from .reps import exactness_defect, opposite_table
from .strings import (canonical_form, directed_runs, enumerate_strings, node_vertices,
                      reverse_word, string_module as string_module_fn, words_equal)
from .translate import (_cone_nodes, ar_right_map, ar_sequence, as_rad_of_projective,
                        check_tau_period_one_exclusions, cone_of_canonical_map,
                        cone_pieces, cone_sequence, omega_sequence, omega_word,
                        reversal_map, tau, tau_inv)


def run_sweep(pres: AlgebraPresentation, max_len: int = 12) -> dict:
    results = []

    def record(name, ok, detail=""):
        results.append({"check": name, "pass": bool(ok), "detail": str(detail)})

    def skip(name, why):
        results.append({"check": name, "pass": True, "detail": f"skipped: {why}"})

    @contextmanager
    def guarded(name):
        """Fail the check name with repr(exc) if the block raises, and go on.

        A block records at most its own check, as its last statement.
        """
        try:
            yield
        except Exception as exc:
            record(name, False, repr(exc))

    table = build_table(pres)
    q = table.quiver
    record("table-built", True, f"dim {table.dim}")
    with guarded("associativity"):
        table.certify()
        record("associativity", True)
    # the opposite presentation must give a table of the same dimension
    op = opposite_table(table)
    record("opposite-dimension", op.dim == table.dim, f"{op.dim} vs {table.dim}")

    sym = check_selfinjective_symmetric(table)
    record("classify", True, sym.verdict)
    report = check_special_biserial(table)
    record("degree-bound", all(i <= 2 and o <= 2
                               for i, o in report.in_out_degrees.values()))

    words = enumerate_strings(table, max_len)
    record("strings-enumerated", True, f"{len(words)} up to length {max_len}")

    def check_words(name, holds, listed=True):
        """Record whether holds(w) for every word.

        holds returns a bool, or a string naming what fails ("" when
        nothing does), which a listed check reports with the word.  An
        exception fails only its word and is reported with it, so a domain
        error or a bug cannot abort the sweep.  Listed checks report every
        failing word; the others only the exceptions.
        """
        bad, errors = [], []
        for w in words:
            try:
                verdict = holds(w)
            except Exception as exc:
                errors.append(f"{w}: {exc!r}")
                continue
            if isinstance(verdict, str):
                if verdict:
                    bad.append(f"{w}: {verdict}")
            elif not verdict:
                bad.append(str(w))
        record(name, not bad and not errors,
               bad + errors if listed else "; ".join(errors))

    check_words("canonical-idempotent",
                lambda w: canonical_form(q, canonical_form(q, w)) == canonical_form(q, w)
                and words_equal(q, w, reverse_word(q, w)), listed=False)
    check_words("string-dimension",
                lambda w: string_module_fn(table, w).total_dim == w.length + 1,
                listed=False)

    def reversal_is_isomorphism(w):
        g = reversal_map(table, w)
        return g.intertwines() and g.is_bijective()
    check_words("string-reverse-isomorphism", reversal_is_isomorphism, listed=False)

    selfinj_sb = (report.is_special_biserial
                  and sym.verdict != "not-selfinjective")
    if selfinj_sb:
        with guarded("one-in-one-out"):
            record("one-in-one-out", *check_one_in_one_out(q))
    else:
        skip("one-in-one-out", "not a selfinjective special biserial table")

    if selfinj_sb and not is_local_nakayama(table) and q.is_connected():
        with guarded("tau-period-exclusions"):
            record("tau-period-exclusions",
                   check_tau_period_one_exclusions(table)["all_pass"])
        check_words("tau-roundtrip",
                    lambda w: words_equal(q, tau_inv(table, tau(table, w)),
                                          canonical_form(q, w)), listed=False)
        if sym.verdict == "symmetric":
            steps = {}

            def omega_step(x):
                """(Omega x, the defect of its witnessed sequence), once per word."""
                if x not in steps:
                    steps[x] = (omega_word(table, x),
                                exactness_defect(*omega_sequence(table, x)))
                return steps[x]

            def tau_is_syzygy_squared(w):
                once, defect = omega_step(w)
                if defect:
                    return f"Omega w: {defect}"
                twice, defect = omega_step(once)
                if defect:
                    return f"Omega Omega w: {defect}"
                return "" if words_equal(q, twice, tau(table, w)) else "Omega(Omega w) != tau w"
            check_words("tau-syzygy-oracle", tau_is_syzygy_squared)
        else:
            skip("tau-syzygy-oracle", "table not symmetric")

        def ar_matches(w):
            """The defect of the witnessed almost split sequence, or a term whose
            dimension vector is not that of ar_sequence's words, counted off
            their node vertices (and the paths of e_v A in a projective middle)."""
            f, g = ar_right_map(table, w)
            defect = exactness_defect(f, g)
            if defect:
                return defect
            seq = ar_sequence(table, w)
            middle = [u for x in seq.middle_strings for u in node_vertices(q, x)]
            if seq.middle_projective is not None:
                middle += [table.basis[b].target for b in table.by_source[seq.middle_projective]]
            for name, module, nodes in (("left", f.source, node_vertices(q, seq.left)),
                                        ("middle", g.source, middle),
                                        ("right", g.target, node_vertices(q, seq.right))):
                if module.dims != {u: nodes.count(u) for u in q.vertices}:
                    return f"{name} term has dimensions {module.dims}, ar_sequence's nodes {nodes}"
            return ""
        check_words("ar-sequence-exactness", ar_matches)

        def cone_case(w):
            """The cone's case read off its node map: rad P_v is iv (iv-uniserial
            with one arm), no kernel run i, no cokernel run ii, and otherwise
            iii' or iii by the directed runs of w."""
            v = as_rad_of_projective(table, w)
            if v is not None:
                return "iv" if len(table.arms(v)) == 2 else "iv-uniserial"
            kernels, cokernels = _cone_nodes(table, w)[3:]
            if kernels and cokernels:
                return "iii'" if len(directed_runs(w)) <= 1 else "iii"
            return "ii" if kernels else "i"

        def cone_matches(w):
            """The defect of the witnessed cone sequence, or a mismatch of its
            pieces or its case with the calculus's cone."""
            defect = exactness_defect(*cone_sequence(table, w))
            if defect:
                return defect
            cone = cone_of_canonical_map(table, w)
            pieces = sorted(str(s) for s in cone_pieces(table, w))
            summands = sorted(str(s) for s in cone.summands)
            if pieces != summands:
                return f"pieces {pieces} != summands {summands}"
            expected = cone_case(w)
            return "" if cone.case == expected else f"case {cone.case} != {expected} by nodes"
        check_words("cone-oracle", cone_matches)

        simples = [canonical_form(q, w) for w in words if w.is_trivial()]
        sys_ok = False
        with guarded("simples-orthogonal-system"):
            sys_ok, violation = check_orthogonal_system(table, simples)
            record("simples-orthogonal-system", sys_ok, violation)
        if sys_ok:
            with guarded("simples-bounded-maximality"):
                record("simples-bounded-maximality",
                       *check_bounded_maximality(table, simples, max_len))
            with guarded("endpoint-multiplicity"):
                emult_ok, twice, _ = endpoint_multiplicity_check(table, simples)
                record("endpoint-multiplicity", emult_ok, twice)
            with guarded("stable-hom-bound"):
                bound_bad = []
                for m in simples:
                    total = sum(stable_hom_of_words(table, tau_inv(table, m), s)
                                for s in simples)
                    dual = sum(stable_hom_of_words(table, tau_inv(table, s), m)
                               for s in simples)
                    if total > 2 or dual > 2:
                        bound_bad.append((str(m), total, dual))
                record("stable-hom-bound", not bound_bad, bound_bad)
            with guarded("shape-lemmas"):
                shapes = verify_shape_lemmas(table, simples)
                record("shape-lemmas",
                       all(all(r["checks"].values()) for r in shapes),
                       [r for r in shapes if not all(r["checks"].values())])
    else:
        skip("translation-suite", "needs a connected selfinjective special "
                                  "biserial table that is not local Nakayama")

    nodes = []
    with guarded("node-detection"):
        nodes = detect_nodes(table).nodes
        record("node-detection", True, nodes)
    if nodes:
        split_table = None
        with guarded("split-removes-nodes"):
            split_table = build_table(split_nodes(table))
            record("split-removes-nodes", not detect_nodes(split_table).nodes)
        if split_table is not None:
            with guarded("split-preserves-count"):
                record("split-preserves-count",
                       nonprojective_simple_count(split_table)
                       == nonprojective_simple_count(table))
            if report.is_special_biserial:
                with guarded("split-preserves-special-biserial"):
                    record("split-preserves-special-biserial",
                           check_special_biserial(split_table).is_special_biserial)

    if sym.verdict == "symmetric" and report.is_stably_biserial \
            and not is_local_nakayama(table):
        out = None
        with guarded("normalizer-isomorphism"):
            out = normalize(table)
            record("normalizer-isomorphism", True,
                   f"{len(out.substitutions)} substitutions, "
                   f"{len(out.deformations)} deformations")
        if out is not None:
            with guarded("normalizer-base-special-biserial"):
                record("normalizer-base-special-biserial",
                       check_special_biserial(build_table(out.base))
                       .is_special_biserial)
            if pres.field.char != 2:
                record("normalizer-deformation-free", not out.deformations)
    else:
        skip("normalizer", "needs a symmetric stably biserial table")

    payload = {
        "max_len": max_len,
        "results": results,
        "all_pass": all(r["pass"] for r in results),
    }
    return payload
