"""The full invariant suite over one algebra, bounded by a string length.

Every check prints one pass/fail line through the CLI; the payload keeps
machine-readable results.  Checks that do not apply to the given algebra
(e.g. the translation oracle on a non-symmetric table) are skipped with
a note rather than failed.
"""

from __future__ import annotations

from .bricks import (check_bounded_maximality, check_orthogonal_system,
                     endpoint_multiplicity_check, verify_shape_lemmas)
from .checks import check_one_in_one_out, check_special_biserial
from .core import (AlgebraPresentation, build_table,
                   check_selfinjective_symmetric, opposite_presentation)
from .nodes import detect_nodes, nonprojective_simple_count, split_nodes
from .reps import (direct_sum, is_isomorphic, kernel_of_map, mapping_cone_rep,
                   stable_hom_dim, strip_projectives, syzygy)
from .strings import (canonical_form, enumerate_strings, reverse_word,
                      string_module as string_module_fn, words_equal)
from .translate import (ar_right_map, canonical_map_to_tau_inv,
                        check_tau_period_one_exclusions, cone_of_canonical_map,
                        is_local_nakayama, tau, tau_inv)


def run_sweep(pres: AlgebraPresentation, max_len: int = 12) -> dict:
    results = []

    def record(name, ok, detail=""):
        results.append({"check": name, "pass": bool(ok), "detail": str(detail)})

    def skip(name, why):
        results.append({"check": name, "pass": True, "detail": f"skipped: {why}"})

    table = build_table(pres)
    q = table.quiver
    record("table-built", True, f"dim {table.dim}")
    if table.dim <= 32:
        record("associativity", table.verify_associativity())
    else:
        skip("associativity", f"dim {table.dim} > 32")
    op = build_table(opposite_presentation(pres))
    record("opposite-dimension", op.dim == table.dim, f"{op.dim} vs {table.dim}")

    sym = check_selfinjective_symmetric(table)
    record("classify", True, sym.verdict)
    report = check_special_biserial(pres, table)
    record("degree-bound", all(i <= 2 and o <= 2
                               for i, o in report.in_out_degrees.values()))

    words = enumerate_strings(table, max_len)
    record("strings-enumerated", True, f"{len(words)} up to length {max_len}")

    def check_words(name, holds, listed=True):
        """Record whether holds(w) for every word.

        An exception fails only its word and is reported with it, so an
        Undecided oracle verdict or a bug cannot abort the sweep.  Listed
        checks report every failing word; the others only the exceptions.
        """
        bad, errors = [], []
        for w in words:
            try:
                if not holds(w):
                    bad.append(str(w))
            except Exception as exc:
                errors.append(f"{w}: {exc!r}")
        record(name, not bad and not errors,
               bad + errors if listed else "; ".join(errors))

    check_words("canonical-idempotent",
                lambda w: canonical_form(q, canonical_form(q, w)) == canonical_form(q, w)
                and words_equal(q, w, reverse_word(w)), listed=False)
    check_words("string-dimension",
                lambda w: string_module_fn(table, w).total_dim == w.length + 1,
                listed=False)
    check_words("string-reverse-isomorphism",
                lambda w: is_isomorphic(table, string_module_fn(table, w),
                                        string_module_fn(table, reverse_word(w))),
                listed=False)

    selfinj_sb = (report.is_special_biserial
                  and sym.verdict != "not-selfinjective")
    if selfinj_sb:
        oio, wit = check_one_in_one_out(q, table)
        record("one-in-one-out", oio, wit)
    else:
        skip("one-in-one-out", "not a selfinjective special biserial table")

    if selfinj_sb and not is_local_nakayama(table) and q.is_connected():
        per = check_tau_period_one_exclusions(table)
        record("tau-period-exclusions", per["all_pass"])
        check_words("tau-roundtrip",
                    lambda w: words_equal(q, tau_inv(table, tau(table, w)),
                                          canonical_form(q, w)), listed=False)
        if sym.verdict == "symmetric":
            def tau_is_syzygy_squared(w):
                M = string_module_fn(table, w)
                O2 = syzygy(table, syzygy(table, M))
                return is_isomorphic(table, string_module_fn(table, tau(table, w)), O2)
            check_words("tau-syzygy-oracle", tau_is_syzygy_squared)
        else:
            skip("tau-syzygy-oracle", "table not symmetric")

        def ar_exact(w):
            seq, g = ar_right_map(table, w)
            K, _ = kernel_of_map(g)
            return g.is_surjective() and is_isomorphic(
                table, K, string_module_fn(table, tau(table, w)))
        check_words("ar-sequence-exactness", ar_exact)

        def cone_matches(w):
            cm = canonical_map_to_tau_inv(table, w)
            cone = cone_of_canonical_map(table, w)
            reduced, _ = strip_projectives(table, mapping_cone_rep(table, cm.rep_map))
            expected = direct_sum(*[string_module_fn(table, s) for s in cone.summands])
            return is_isomorphic(table, reduced, expected)
        check_words("cone-oracle", cone_matches)

        simples = [canonical_form(q, w) for w in words if w.is_trivial()]
        sys_ok, violation = check_orthogonal_system(table, simples)
        record("simples-orthogonal-system", sys_ok, violation)
        if sys_ok:
            max_ok, witness = check_bounded_maximality(table, simples, max_len)
            record("simples-bounded-maximality", max_ok, witness)
            emult_ok, twice, _ = endpoint_multiplicity_check(table, simples)
            record("endpoint-multiplicity", emult_ok, twice)
            bound_bad = []
            for m in simples:
                Tm = string_module_fn(table, tau_inv(table, m))
                total = sum(stable_hom_dim(table, Tm, string_module_fn(table, s))
                            for s in simples)
                dual = sum(stable_hom_dim(table, string_module_fn(table,
                                                                  tau_inv(table, s)),
                                          string_module_fn(table, m))
                           for s in simples)
                if total > 2 or dual > 2:
                    bound_bad.append((str(m), total, dual))
            record("stable-hom-bound", not bound_bad, bound_bad)
            shapes = verify_shape_lemmas(table, simples)
            record("shape-lemmas",
                   all(all(r["checks"].values()) for r in shapes),
                   [r for r in shapes if not all(r["checks"].values())])
    else:
        skip("translation-suite", "needs a connected selfinjective special "
                                  "biserial table that is not local Nakayama")

    node_rep = detect_nodes(pres, table)
    record("node-detection", True, node_rep.nodes)
    if node_rep.nodes:
        split = split_nodes(pres)
        split_table = build_table(split)
        record("split-removes-nodes",
               not detect_nodes(split, split_table).nodes)
        record("split-preserves-count",
               nonprojective_simple_count(split_table)
               == nonprojective_simple_count(table))
        if report.is_special_biserial:
            record("split-preserves-special-biserial",
                   check_special_biserial(split, split_table).is_special_biserial)

    if sym.verdict == "symmetric" and report.is_stably_biserial \
            and not is_local_nakayama(table):
        from .normalizer import normalize
        try:
            out = normalize(pres, table)
            record("normalizer-isomorphism", True,
                   f"{len(out.substitutions)} substitutions, "
                   f"{len(out.deformations)} deformations")
            base_table = build_table(out.base)
            record("normalizer-base-special-biserial",
                   check_special_biserial(out.base, base_table).is_special_biserial)
            if pres.field.char != 2:
                record("normalizer-deformation-free", not out.deformations)
        except Exception as exc:
            record("normalizer-isomorphism", False, repr(exc))
    else:
        skip("normalizer", "needs a symmetric stably biserial table")

    payload = {
        "max_len": max_len,
        "results": results,
        "all_pass": all(r["pass"] for r in results),
    }
    return payload
