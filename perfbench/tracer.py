"""Outside-in tracing of the biserial layers.

The library is not edited.  ``Tracer.install`` replaces each traced
function by a wrapper in every loaded module namespace that binds it
(``sweep``, ``cli``, ``translate`` and friends use ``from .x import y``,
so patching the defining module alone would miss their calls), wraps
``AlgebraTable.normal_form`` on the class, and counts ``Field`` arithmetic
on the class.  ``uninstall`` restores every binding.

Spans (name, start, end, parent span, work item) are kept in flat arrays
while the traced pass runs; self times and the per-layer metrics are
computed from them afterwards.  A span's self time is its duration minus
the durations of its direct children, which never overlap because the
library is single threaded.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

# module -> functions that get a span.  Allocation helpers such as
# linalg.zeros/identity/transpose are left out on purpose: they are called
# far more often than they cost, so their time stays in the caller.
SPANNED = {
    "linalg": ("mat_mul", "mat_add", "mat_scale", "row_vec_mul", "rref",
               "rank", "row_nullspace", "solve_row", "det", "inverse",
               "is_invertible", "sparse_nullspace", "span_rank",
               "express_in_basis"),
    "core": ("build_table", "check_selfinjective_symmetric",
             "frobenius_form", "opposite_presentation"),
    "reps": ("hom", "projective", "projective_cover", "injective_hull",
             "syzygy", "stable_hom_dim", "is_isomorphic",
             "strip_projectives", "kernel_of_map", "mapping_cone_rep",
             "direct_sum", "decompose_rad_mod_soc"),
    "strings": ("enumerate_strings", "string_module", "validate_string"),
    "translate": ("tau", "tau_inv", "ar_sequence", "cone_of_canonical_map",
                  "ar_right_map", "canonical_map_to_tau_inv",
                  "check_tau_period_one_exclusions"),
    "bricks": ("check_bounded_maximality", "check_orthogonal_system",
               "verify_shape_lemmas", "endpoint_multiplicity_check"),
    "normalizer": ("normalize", "build_from_standard_data"),
    "checks": ("check_special_biserial", "check_stably_biserial",
               "check_one_in_one_out"),
    "nodes": ("detect_nodes", "split_nodes"),
    "sweep": ("run_sweep",),
    "presentations": ("parse_presentation", "format_presentation"),
    "cli": ("main",),
}

LAYERS = tuple(SPANNED)

FIELD_OPS = ("add", "sub", "mul", "neg", "inv", "div", "of", "nth_root")

# spans whose (table, argument) key is recorded to size what a cache could serve
REPEAT_KEYED = ("core.normal_form", "reps.projective", "strings.string_module",
                "translate.tau")


def percentile(values, q):
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_col = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.item_col = array("i")
        self.item = -1
        self._stack = []
        self.depth = []
        self.field_ops = [0, 0]          # arithmetic calls, zero/one reads
        self.counters = {}
        self._seen = {name: set() for name in REPEAT_KEYED}
        self.repeats = {name: 0 for name in REPEAT_KEYED}
        self._table_serial = {}
        self._tables = []                # keeps ids stable for the pass
        self._restore = []
        self.wall_s = 0.0

    # -- span bookkeeping ------------------------------------------------

    def _nid(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.depth.append(0)
        return nid

    def _open(self, nid):
        idx = len(self.start)
        self.name_col.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.item_col.append(self.item)
        self.end.append(0.0)
        self._stack.append(idx)
        self.depth[nid] += 1
        self.start.append(perf_counter())
        return idx

    def _close(self, idx, nid):
        self.end[idx] = perf_counter()
        self._stack.pop()
        self.depth[nid] -= 1

    def _count(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    def _table_key(self, table):
        serial = self._table_serial.get(id(table))
        if serial is None:
            serial = self._table_serial[id(table)] = len(self._tables)
            self._tables.append(table)
        return serial

    def _note_key(self, name, table, arg):
        try:
            key = (self._table_key(table), arg)
            hash(key)
        except TypeError:
            key = (self._table_key(table), repr(arg))
        seen = self._seen[name]
        if key in seen:
            self.repeats[name] += 1
        else:
            seen.add(key)

    # -- per-function hooks ------------------------------------------------

    def _hooks(self, name):
        """(pre(args), post(result)) callbacks recording the counted facts."""
        pre = post = None
        if name in REPEAT_KEYED:
            def pre(args, name=name):
                self._note_key(name, args[0], tuple(
                    tuple(a) if isinstance(a, list) else a for a in args[1:]))
        if name == "linalg.rref":
            def pre(args):
                a = args[0]
                self._count(name + ".cells", len(a) * len(a[0]) if a else 0)
        elif name == "linalg.sparse_nullspace":
            def pre(args):
                self._count(name + ".vars", args[1])
        elif name == "linalg.is_invertible":
            iso = self._nid("reps.is_isomorphic")

            def pre(args):
                if self.depth[iso]:
                    self._count("reps.is_isomorphic.invertibility_tests")
        elif name == "reps.hom":
            strip = self._nid("reps.strip_projectives")

            def pre(args):
                M, N = args[1], args[2]
                self._count(name + ".vars",
                            sum(M.dims[v] * N.dims[v] for v in M.dims))
                if self.depth[strip]:
                    self._count("reps.strip_projectives.hom_calls")
        elif name == "reps.is_isomorphic":
            def post(result):
                if not result:
                    self._count(name + ".false")
        return pre, post

    def _wrap(self, name, fn):
        nid = self._nid(name)
        pre, post = self._hooks(name)
        open_, close = self._open, self._close

        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(args)
            idx = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx, nid)
            if post is not None:
                post(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- install / uninstall ---------------------------------------------

    def _rebind_everywhere(self, orig, wrapper):
        for mod in list(sys.modules.values()):
            namespace = getattr(mod, "__dict__", None)
            if not namespace:
                continue
            for attr, value in list(namespace.items()):
                if value is orig:
                    setattr(mod, attr, wrapper)
                    self._restore.append((mod, attr, orig))

    def _patch_class(self, cls, attr, new):
        self._restore.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, new)

    def install(self):
        import importlib
        for layer, funcs in SPANNED.items():
            mod = importlib.import_module(f"biserial.{layer}")
            for fname in funcs:
                orig = getattr(mod, fname)
                self._rebind_everywhere(orig, self._wrap(f"{layer}.{fname}", orig))

        from biserial.core import AlgebraTable
        self._patch_class(AlgebraTable, "normal_form",
                          self._wrap("core.normal_form",
                                     AlgebraTable.__dict__["normal_form"]))

        from biserial.fields import Field
        counts = self.field_ops
        for op in FIELD_OPS:
            orig = Field.__dict__[op]

            def counted(*args, _orig=orig):
                counts[0] += 1
                return _orig(*args)
            self._patch_class(Field, op, counted)
        for prop in ("zero", "one"):
            getter = Field.__dict__[prop].fget

            def counted_get(field, _get=getter):
                counts[1] += 1
                return _get(field)
            self._patch_class(Field, prop, property(counted_get))

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def run(self, fn):
        """Run fn() with tracing installed; record the traced wall time."""
        self.install()
        try:
            t0 = perf_counter()
            try:
                return fn()
            finally:
                self.wall_s = perf_counter() - t0
        finally:
            self.uninstall()

    # -- results ---------------------------------------------------------

    def write_spans(self, path):
        """Write all spans as tab-separated lines (times in microseconds)."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart_us\tend_us\tparent\titem\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.names[self.name_col[i]]}\t"
                         f"{(self.start[i] - t0) * 1e6:.1f}\t"
                         f"{(self.end[i] - t0) * 1e6:.1f}\t"
                         f"{self.parent[i]}\t{self.item_col[i]}\n")

    def self_times(self):
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        return [self.end[i] - self.start[i] - child[i] for i in range(n)]

    def metrics(self) -> dict:
        """Per-layer metrics of the traced pass, keyed by metric name."""
        selfs = self.self_times()
        calls = {}
        self_s = {}
        layer_self = {layer: 0.0 for layer in LAYERS}
        layer_entries = {layer: 0 for layer in LAYERS}
        iso_ms = []
        top_level = 0.0
        for i in range(len(selfs)):
            name = self.names[self.name_col[i]]
            layer = name.split(".", 1)[0]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + selfs[i]
            layer_self[layer] += selfs[i]
            p = self.parent[i]
            if p < 0:
                top_level += self.end[i] - self.start[i]
            if p < 0 or not self.names[self.name_col[p]].startswith(layer + "."):
                layer_entries[layer] += 1
            if name == "reps.is_isomorphic":
                iso_ms.append((self.end[i] - self.start[i]) * 1e3)

        out = {
            "fields.ops": self.field_ops[0],
            "fields.zero_one": self.field_ops[1],
            "linalg.calls": layer_entries["linalg"],
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer]
        for name in ("linalg.rref", "linalg.sparse_nullspace",
                     "linalg.mat_mul", "reps.is_isomorphic",
                     "reps.strip_projectives", "reps.hom",
                     "reps.stable_hom_dim", "reps.syzygy", "core.build_table",
                     "core.normal_form", "strings.enumerate_strings",
                     "strings.string_module", "strings.validate_string",
                     "translate.tau", "translate.tau_inv",
                     "translate.ar_sequence", "translate.cone_of_canonical_map",
                     "translate.ar_right_map",
                     "translate.canonical_map_to_tau_inv",
                     "bricks.check_bounded_maximality",
                     "bricks.check_orthogonal_system",
                     "bricks.verify_shape_lemmas", "normalizer.normalize",
                     "checks.check_special_biserial", "nodes.detect_nodes",
                     "sweep.run_sweep", "presentations.parse_presentation",
                     "cli.main"):
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
        out["linalg.is_invertible.calls"] = calls.get("linalg.is_invertible", 0)
        out["reps.projective.calls"] = calls.get("reps.projective", 0)
        out["core.classify.self_s"] = (
            self_s.get("core.check_selfinjective_symmetric", 0.0)
            + self_s.get("core.frobenius_form", 0.0))
        for key in ("linalg.rref.cells", "linalg.sparse_nullspace.vars",
                    "reps.hom.vars", "reps.is_isomorphic.false",
                    "reps.is_isomorphic.invertibility_tests",
                    "reps.strip_projectives.hom_calls"):
            out[key] = self.counters.get(key, 0)
        out["reps.is_isomorphic.p50_ms"] = percentile(iso_ms, 0.50)
        out["reps.is_isomorphic.p99_ms"] = percentile(iso_ms, 0.99)
        for name in REPEAT_KEYED:
            n = calls.get(name, 0)
            out[f"{name}.repeat_ratio"] = self.repeats[name] / n if n else 0.0
        out["trace.spans"] = len(selfs)
        out["trace.wall_s"] = self.wall_s
        out["trace.self_sum_s"] = sum(selfs)
        out["trace.outside_s"] = self.wall_s - top_level
        return out
