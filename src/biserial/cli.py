"""Command-line front end.

Subcommands: check, basis, hom, tau, ar, cone, bricks, nodes, normalize,
ssb, strings, sweep.  Output is a stable human-readable listing or, with
--json, a documented tree with exact scalars rendered as strings.
Exit codes: 0 success, 1 domain error, 2 usage error.

Each process runs one subcommand, so at module level this imports only
what parsing, loading a presentation and reporting need; each ``cmd_*``
imports the layers it runs.  Beyond ``core`` and its helpers: ``basis``
loads nothing more; ``check`` loads ``checks``; ``nodes`` ``nodes``;
``strings`` ``strings``; ``normalize`` and ``ssb`` ``checks`` and
``normalizer``; ``hom`` ``checks``, ``strings`` and ``reps``; ``tau``,
``ar`` and ``cone`` ``checks``, ``strings`` and ``translate``;
``bricks`` loads those and ``bricks``, and ``reps`` only for a pair of
members neither of which is simple; ``sweep`` loads every layer but
``instances``.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .core import (AlgebraPresentation, DomainError, build_table,
                   check_selfinjective_symmetric)
from .presentations import format_presentation, load_presentation


class CliError(DomainError):
    pass


def parse_string_arg(quiver, text: str):
    """CLI string syntax: arrow ids with ^-1 suffixes, or @vertex."""
    from .strings import StringWord
    text = text.strip()
    if text.startswith("@"):
        v = text[1:]
        if v not in set(quiver.vertices):
            raise CliError(f"unknown vertex {v!r}")
        return StringWord.trivial(v)
    letters = []
    for tok in text.split():
        inverse = tok.endswith("^-1")
        arrow = tok[:-3] if inverse else tok
        if arrow not in quiver.letters:
            raise CliError(f"unknown arrow {arrow!r}")
        letters.append(quiver.letters[arrow][inverse])
    if not letters:
        raise CliError("empty string argument")
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


def _table(args):
    """The built table of the presentation file args.file."""
    return build_table(_load(args.file))


def _word(table, text: str):
    """A CLI string argument, parsed and validated on the table."""
    from .strings import validate_string
    word = parse_string_arg(table.quiver, text)
    validate_string(table, word)
    return word


def _write(path: str, pres: AlgebraPresentation):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(format_presentation(pres))
    except OSError as exc:
        raise CliError(str(exc))


def cmd_check(args) -> dict:
    from .checks import (check_arrow_bound, check_one_in_one_out,
                         check_special_biserial)
    table = _table(args)
    table.certify()
    sym = check_selfinjective_symmetric(table)
    report = check_special_biserial(table)
    payload = {
        "dimension": table.dim,
        "loewy_length": table.loewy_length,
        "selfinjectivity": sym.verdict,
        "special_biserial": report.is_special_biserial,
        "stably_biserial_conditions": report.is_stably_biserial,
        "arrow_bound": check_arrow_bound(table.quiver),
        "witnesses": [list(map(str, w)) for w in report.witnesses],
        "in_out_degrees": {v: list(d) for v, d in report.in_out_degrees.items()},
    }
    if sym.verdict != "not-selfinjective":
        payload["one_in_one_out"] = check_one_in_one_out(table.quiver)[0]
    return payload


def cmd_basis(args) -> dict:
    table = _table(args)
    return {
        "dimension": table.dim,
        "loewy_length": table.loewy_length,
        "basis": [str(p) for p in table.basis],
        "socle_dimensions": table.socle_dims(),
    }


def _resolve_module(table, spec: str):
    from .reps import projective
    from .strings import string_module
    if spec.startswith("proj:"):
        v = spec[5:]
        if v not in set(table.quiver.vertices):
            raise CliError(f"unknown vertex {v!r}")
        return projective(table, v), f"proj:{v}"
    word = _word(table, spec)
    return string_module(table, word), str(word)


def cmd_hom(args) -> dict:
    from .reps import hom, stable_hom_dim
    table = _table(args)
    M, mname = _resolve_module(table, args.source)
    N, nname = _resolve_module(table, args.target)
    payload = {"from": mname, "to": nname, "hom_dim": len(hom(table, M, N))}
    if args.stable:
        payload["stable_hom_dim"] = stable_hom_dim(table, M, N)
    return payload


def cmd_tau(args) -> dict:
    from .translate import tau, tau_inv
    table = _table(args)
    word = _word(table, args.string)
    op = tau_inv if args.inverse else tau
    return {"input": str(word), "inverse": bool(args.inverse),
            "result": str(op(table, word))}


def cmd_ar(args) -> dict:
    from .translate import ar_sequence
    table = _table(args)
    word = _word(table, args.string)
    seq = ar_sequence(table, word)
    return {
        "left": str(seq.left),
        "middle_strings": [str(m) for m in seq.middle_strings],
        "middle_projective": seq.middle_projective,
        "right": str(seq.right),
    }


def cmd_cone(args) -> dict:
    from .translate import cone_of_canonical_map, tau_inv
    table = _table(args)
    word = _word(table, args.string)
    cone = cone_of_canonical_map(table, word)
    return {
        "case": cone.case,
        "tau_inverse": str(tau_inv(table, word)),
        "summands": [str(s) for s in cone.summands],
    }


def cmd_strings(args) -> dict:
    from .strings import enumerate_strings
    table = _table(args)
    words = enumerate_strings(table, args.max_len)
    return {"max_len": args.max_len, "count": len(words),
            "strings": [str(w) for w in words]}


def cmd_bricks(args) -> dict:
    from .bricks import (check_bounded_maximality, check_orthogonal_system,
                         endpoint_multiplicity_check)
    table = _table(args)
    words = [_word(table, tok) for tok in args.set.split(",")]
    ok, violation = check_orthogonal_system(table, words)
    payload = {"orthogonal_system": ok}
    if violation:
        payload["violation"] = [str(x) for x in violation]
    if ok:
        maximal, witness = check_bounded_maximality(table, words, args.max_len)
        payload["bounded_maximality"] = maximal
        payload["max_len"] = args.max_len
        if witness:
            payload["witness"] = witness
        mult_ok, twice, once = endpoint_multiplicity_check(table, words)
        payload["endpoint_multiplicity_ok"] = mult_ok
        payload["endpoint_multiset"] = twice
        payload["endpoint_multiset_once"] = once
    return payload


def cmd_nodes(args) -> dict:
    from .nodes import detect_nodes, nonprojective_simple_count, split_nodes
    table = _table(args)
    report = detect_nodes(table)
    payload = {
        "nodes": report.nodes,
        "evidence": report.evidence,
        "nonprojective_simple_count": nonprojective_simple_count(table),
    }
    if args.split:
        split = split_nodes(table)
        split_table = build_table(split)
        payload["split"] = {
            "vertices": split.quiver.vertices,
            "nodes_after": detect_nodes(split_table).nodes,
            "nonprojective_simple_count": nonprojective_simple_count(split_table),
        }
        if args.output:
            _write(args.output, split)
            payload["split"]["written_to"] = args.output
    return payload


def _normalized_payload(out) -> dict:
    """The --json tree of a normalizer.NormalizedOutput."""
    f = out.base.field
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
    from .normalizer import deformed_presentation, normalize
    out = normalize(_table(args))
    payload = _normalized_payload(out)
    if args.output:
        _write(args.output, deformed_presentation(out))
        payload["written_to"] = args.output
    return payload


def cmd_ssb(args) -> dict:
    from .checks import check_special_biserial
    from .normalizer import build_from_standard_data
    pres = _load(args.quiver)
    pi = {}
    for a, b in args.pi:
        if a in pi:
            raise CliError(f"arrow {a!r} is mapped twice in --pi")
        pi[a] = b
    mult = {}
    names = set(pres.quiver.arrow_by_name)
    for cyc, m in args.mult:
        arrows = tuple(cyc.split())
        if len(arrows) == 1 and arrows[0] not in names \
                and all(ch in names for ch in arrows[0]):
            arrows = tuple(arrows[0])  # compact form for one-letter arrows
        if arrows in mult:
            raise CliError(f"cycle {' '.join(arrows)!r} is named twice in --mult")
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
        "special_biserial": check_special_biserial(table).is_special_biserial,
        "presentation": format_presentation(built).splitlines(),
    }
    if args.output:
        _write(args.output, built)
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
