"""Command-line front end.

Subcommands: check, basis, hom, tau, ar, cone, bricks, nodes, normalize,
ssb, strings, sweep.  Output is a stable human-readable listing or, with
--json, a documented tree with exact scalars rendered as strings.
Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import bricks as bricks_mod
from . import nodes as nodes_mod
from .checks import (check_arrow_bound, check_one_in_one_out,
                     check_special_biserial)
from .core import (AlgebraPresentation, DomainError, build_table,
                   check_selfinjective_symmetric)
from .normalizer import (NormalizedOutput, build_from_standard_data,
                         deformed_presentation, normalize)
from .presentations import format_presentation, load_presentation
from .reps import hom, projective, stable_hom_dim
from .strings import (Letter, StringWord, enumerate_strings, string_module,
                      validate_string)
from .translate import (ar_sequence, canonical_map_to_tau_inv,
                        cone_of_canonical_map, tau, tau_inv)


class CliError(DomainError):
    pass


def parse_string_arg(quiver, text: str) -> StringWord:
    """CLI string syntax: arrow ids with ^-1 suffixes, or @vertex."""
    text = text.strip()
    if text.startswith("@"):
        v = text[1:]
        if v not in set(quiver.vertices):
            raise CliError(f"unknown vertex {v!r}")
        return StringWord.trivial(v)
    letters = []
    for tok in text.split():
        if tok.endswith("^-1"):
            letters.append(Letter(tok[:-3], True))
        else:
            letters.append(Letter(tok))
    if not letters:
        raise CliError("empty string argument")
    for l in letters:
        if l.arrow not in quiver.arrow_by_name:
            raise CliError(f"unknown arrow {l.arrow!r}")
    return StringWord(tuple(letters))


def _emit(payload: dict, as_json: bool):
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return
    def walk(obj, indent=0):
        pad = "  " * indent
        if isinstance(obj, dict):
            for k in obj:
                v = obj[k]
                if isinstance(v, (dict, list)):
                    print(f"{pad}{k}:")
                    walk(v, indent + 1)
                else:
                    print(f"{pad}{k}: {v}")
        elif isinstance(obj, list):
            for v in obj:
                if isinstance(v, (dict, list)):
                    walk(v, indent + 1)
                else:
                    print(f"{pad}- {v}")
    walk(payload)


def _load(path: str) -> AlgebraPresentation:
    try:
        return load_presentation(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(str(exc))


def cmd_check(args) -> dict:
    pres = _load(args.file)
    table = build_table(pres)
    table.certify()
    sym = check_selfinjective_symmetric(table)
    report = check_special_biserial(pres, table)
    payload = {
        "dimension": table.dim,
        "loewy_length": table.loewy_length,
        "selfinjectivity": sym.verdict,
        "special_biserial": report.is_special_biserial,
        "stably_biserial_conditions": report.is_stably_biserial,
        "arrow_bound": check_arrow_bound(pres.quiver),
        "witnesses": [list(map(str, w)) for w in report.witnesses],
        "in_out_degrees": {v: list(d) for v, d in report.in_out_degrees.items()},
    }
    if sym.verdict != "not-selfinjective":
        ok, wit = check_one_in_one_out(pres.quiver, table)
        payload["one_in_one_out"] = ok
    return payload


def cmd_basis(args) -> dict:
    pres = _load(args.file)
    table = build_table(pres)
    return {
        "dimension": table.dim,
        "loewy_length": table.loewy_length,
        "basis": [str(p) for p in table.basis],
        "socle_dimensions": table.socle_dims(),
    }


def _resolve_module(table, spec: str):
    if spec.startswith("proj:"):
        v = spec[5:]
        if v not in set(table.quiver.vertices):
            raise CliError(f"unknown vertex {v!r}")
        return projective(table, v), f"proj:{v}"
    word = parse_string_arg(table.quiver, spec)
    validate_string(table, word)
    return string_module(table, word), str(word)


def cmd_hom(args) -> dict:
    pres = _load(args.file)
    table = build_table(pres)
    M, mname = _resolve_module(table, args.source)
    N, nname = _resolve_module(table, args.target)
    payload = {"from": mname, "to": nname, "hom_dim": len(hom(table, M, N))}
    if args.stable:
        payload["stable_hom_dim"] = stable_hom_dim(table, M, N)
    return payload


def cmd_tau(args) -> dict:
    pres = _load(args.file)
    table = build_table(pres)
    word = parse_string_arg(pres.quiver, args.string)
    validate_string(table, word)
    op = tau_inv if args.inverse else tau
    return {"input": str(word), "inverse": bool(args.inverse),
            "result": str(op(table, word))}


def cmd_ar(args) -> dict:
    pres = _load(args.file)
    table = build_table(pres)
    word = parse_string_arg(pres.quiver, args.string)
    validate_string(table, word)
    seq = ar_sequence(table, word)
    return {
        "left": str(seq.left),
        "middle_strings": [str(m) for m in seq.middle_strings],
        "middle_projective": seq.middle_projective,
        "right": str(seq.right),
    }


def cmd_cone(args) -> dict:
    pres = _load(args.file)
    table = build_table(pres)
    word = parse_string_arg(pres.quiver, args.string)
    validate_string(table, word)
    cm = canonical_map_to_tau_inv(table, word)
    cone = cone_of_canonical_map(table, word)
    return {
        "case": cone.case,
        "tau_inverse": str(cm.target_word),
        "summands": [str(s) for s in cone.summands],
    }


def cmd_strings(args) -> dict:
    pres = _load(args.file)
    table = build_table(pres)
    words = enumerate_strings(table, args.max_len)
    return {"max_len": args.max_len, "count": len(words),
            "strings": [str(w) for w in words]}


def cmd_bricks(args) -> dict:
    pres = _load(args.file)
    table = build_table(pres)
    words = [parse_string_arg(pres.quiver, tok) for tok in args.set.split(",")]
    for w in words:
        validate_string(table, w)
    ok, violation = bricks_mod.check_orthogonal_system(table, words)
    payload = {"orthogonal_system": ok}
    if violation:
        payload["violation"] = [str(x) for x in violation]
    if ok:
        maximal, witness = bricks_mod.check_bounded_maximality(table, words,
                                                               args.max_len)
        payload["bounded_maximality"] = maximal
        payload["max_len"] = args.max_len
        if witness:
            payload["witness"] = witness
        mult_ok, twice, once = bricks_mod.endpoint_multiplicity_check(table, words)
        payload["endpoint_multiplicity_ok"] = mult_ok
        payload["endpoint_multiset"] = twice
        payload["endpoint_multiset_once"] = once
    return payload


def cmd_nodes(args) -> dict:
    pres = _load(args.file)
    table = build_table(pres)
    report = nodes_mod.detect_nodes(pres, table)
    payload = {
        "nodes": report.nodes,
        "evidence": report.evidence,
        "nonprojective_simple_count": nodes_mod.nonprojective_simple_count(table),
    }
    if args.split:
        split = nodes_mod.split_nodes(pres)
        split_table = build_table(split)
        payload["split"] = {
            "vertices": split.quiver.vertices,
            "nodes_after": nodes_mod.detect_nodes(split, split_table).nodes,
            "nonprojective_simple_count":
                nodes_mod.nonprojective_simple_count(split_table),
        }
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(format_presentation(split))
            payload["split"]["written_to"] = args.output
    return payload


def _normalized_payload(pres, out: NormalizedOutput) -> dict:
    f = pres.field
    return {
        "pi": dict(sorted(out.pi_data.pi.items())),
        "cycles": [list(c) for c in out.pi_data.cycles],
        "multiplicities": {" ".join(c): m for c, m in out.pi_data.mult.items()},
        "socle_paths": {a: " ".join(p) for a, p in sorted(out.pi_data.sc.items())},
        "case_trace": dict(sorted(out.pi_data.case_trace.items())),
        "deformations": [[a, f.format(c)] for a, c in out.deformations],
        "substitutions": [s.describe(f.format) for s in out.substitutions],
        "base_presentation": format_presentation(out.base).splitlines(),
    }


def cmd_normalize(args) -> dict:
    pres = _load(args.file)
    table = build_table(pres)
    out = normalize(pres, table)
    payload = _normalized_payload(pres, out)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(format_presentation(deformed_presentation(out)))
        payload["written_to"] = args.output
    return payload


def cmd_ssb(args) -> dict:
    pres = _load(args.quiver)
    pi = dict(args.pi)
    mult = {}
    names = set(pres.quiver.arrow_by_name)
    for cyc, m in args.mult:
        arrows = tuple(cyc.split())
        if len(arrows) == 1 and arrows[0] not in names \
                and all(ch in names for ch in arrows[0]):
            arrows = tuple(arrows[0])  # compact form for one-letter arrows
        mult[arrows] = m
    deformations = []
    for a, c in args.deform:
        if a not in names:
            raise CliError(f"unknown arrow {a!r} in --deform")
        try:
            deformations.append((a, pres.field.of(c)))
        except ZeroDivisionError as exc:
            raise CliError(f"deformation scalar of {a!r}: {exc}")
    built = build_from_standard_data(pres.quiver, pi, mult, deformations,
                                     pres.field)
    table = build_table(built)
    payload = {
        "dimension": table.dim,
        "selfinjectivity": check_selfinjective_symmetric(table).verdict,
        "special_biserial":
            check_special_biserial(built, table).is_special_biserial,
        "presentation": format_presentation(built).splitlines(),
    }
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(format_presentation(built))
        payload["written_to"] = args.output
    return payload


def cmd_sweep(args) -> dict:
    from .sweep import run_sweep
    pres = _load(args.file)
    payload = run_sweep(pres, max_len=args.max_len)
    if not args.json:
        lines = []
        for r in payload["results"]:
            status = "PASS" if r["pass"] else "FAIL"
            detail = f"  ({r['detail']})" if r["detail"] else ""
            lines.append(f"{status} {r['check']}{detail}")
        payload = {"sweep": lines, "all_pass": payload["all_pass"]}
    return payload


def string_length(text: str) -> int:
    """A --max-len value: a nonnegative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _entries(text: str, sep: str, example: str, parse, what: str) -> list:
    """Comma-separated 'name<sep>value' entries, each value read by parse."""
    out = []
    for tok in text.split(","):
        name, found, value = tok.rpartition(sep)
        if not found:
            raise argparse.ArgumentTypeError(
                f"expected entries like {example!r}, got {tok!r}")
        try:
            out.append((name.strip(), parse(value.strip())))
        except (ValueError, ZeroDivisionError):
            raise argparse.ArgumentTypeError(
                f"expected {what}, got {value.strip()!r} in {tok!r}")
    return out


def pi_entries(text: str) -> list:
    """A --pi value: 'a>b' entries."""
    return _entries(text, ">", "a>b", str, "an arrow")


def mult_entries(text: str) -> list:
    """A --mult value: 'cycle:m' entries with an integer multiplicity m."""
    return _entries(text, ":", "a b:1", int, "an integer multiplicity")


def deform_entries(text: str) -> list:
    """A --deform value: 'arrow:c' entries with a scalar c (n or n/d)."""
    return _entries(text, ":", "a:1", Fraction, "a scalar n or n/d")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="biserial",
        description="string combinatorics for special and stably biserial algebras")
    ap.add_argument("--json", action="store_true", help="emit JSON output")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="class membership and symmetry report")
    p.add_argument("file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("basis", help="basis and dimension of the algebra")
    p.add_argument("file")
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("hom", help="hom space dimensions")
    p.add_argument("file")
    p.add_argument("--from", dest="source", required=True,
                   help="string word or proj:<vertex>")
    p.add_argument("--to", dest="target", required=True)
    p.add_argument("--stable", action="store_true")
    p.set_defaults(func=cmd_hom)

    p = sub.add_parser("tau", help="AR translate of a string")
    p.add_argument("file")
    p.add_argument("--string", required=True)
    p.add_argument("--inverse", action="store_true")
    p.set_defaults(func=cmd_tau)

    p = sub.add_parser("ar", help="almost split sequence ending at a string")
    p.add_argument("file")
    p.add_argument("--string", required=True)
    p.set_defaults(func=cmd_ar)

    p = sub.add_parser("cone", help="cone of the canonical map to tau^{-1}")
    p.add_argument("file")
    p.add_argument("--string", required=True)
    p.set_defaults(func=cmd_cone)

    p = sub.add_parser("strings", help="enumerate canonical strings")
    p.add_argument("file")
    p.add_argument("--max-len", type=string_length, default=12)
    p.set_defaults(func=cmd_strings)

    p = sub.add_parser("bricks", help="orthogonal stable brick system checks")
    p.add_argument("file")
    p.add_argument("--set", required=True, help="comma-separated string words")
    p.add_argument("--max-len", type=string_length, default=12)
    p.set_defaults(func=cmd_bricks)

    p = sub.add_parser("nodes", help="detect (and split) nodes")
    p.add_argument("file")
    p.add_argument("--split", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_nodes)

    p = sub.add_parser("normalize", help="normalize a symmetric stably biserial algebra")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("ssb", help="build a standard algebra from (Q, pi, m)")
    p.add_argument("--quiver", required=True,
                   help="presentation file providing field and quiver")
    p.add_argument("--pi", required=True, type=pi_entries, help="e.g. 'a>b,b>a'")
    p.add_argument("--mult", required=True, type=mult_entries, help="e.g. 'a b:1'")
    p.add_argument("--deform", type=deform_entries, default=[], help="e.g. 'a:1'")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_ssb)

    p = sub.add_parser("sweep", help="run the full invariant suite on a file")
    p.add_argument("file")
    p.add_argument("--max-len", type=string_length, default=12)
    p.set_defaults(func=cmd_sweep)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        payload = args.func(args)
    except DomainError as exc:     # anything else escaping is a bug
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(payload, args.json)
    return 0 if payload.get("all_pass", True) else 1


if __name__ == "__main__":
    sys.exit(main())
