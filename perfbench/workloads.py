"""Workloads of the biserial benchmark: inputs, timed passes, output checks.

Every workload takes a seed and walks instance seeds upward from it.  An
instance is admitted by the size of its input only (algebra dimension and
string count at the workload's string bound), never by what the program
answers on it.  Each pass starts from presentations, so every table-level
cache of the library starts cold, as in a user's run.

* ``calculus`` -- build_table, enumerate_strings, then tau, tau_inv,
  ar_sequence and cone_of_canonical_map per string, over Q.  No oracle.
* ``cli`` -- a fixed mix of fresh ``python -m biserial.cli --json``
  processes on generated ``.alg`` files over Q, F3 and F2.
* ``sweep-fp`` -- run_sweep (the invariant suite with the linear-algebra
  oracle) over F3 on the first 72 algebras of dimension at most 7 with at
  most 8 strings at max_len 3.
* ``sweep-q`` -- the same instances and string bound over Q (run by hand).

BENCHMARK.json lists calculus, cli and sweep-fp.  The dimension cap of
calculus is 12: a string of one of the rarer larger algebras (dimension
14-36) costs several times as much, so with them the items_per_s of a
window would hinge on how many it holds (IQR/median 0.15 over windows
100 seeds apart, against 0.05 with the cap).  The dimension cap of the
sweeps is 7 because the capped combination search in
``reps.is_isomorphic`` fails spuriously or runs for many seconds on larger
algebras: over F3 every local algebra of dimension 8 or 12 times out or
reports a cone-oracle FAIL at max_len 2, as do some two-vertex algebras of
dimension 12.  The string cap leaves out the local algebras of dimension 5
and 6 (10 and 13 strings), which take 3 and 10 times as long as the rest
and are about a tenth of the admitted seeds, so the item_p90_ms of a
window would hinge on how many of them it holds.  The admitted algebras
fall into cost clusters (over F3: local of dimension 4, 60-130 ms;
two-vertex of dimension 7, 40-70 ms; two-vertex of dimension 6,
14-23 ms), and the median lies between two of them, so with 48
instances a window's item_p50_ms hinged on its mix (IQR/median
0.07-0.10 over windows 37-50 seeds apart, against 0.03 with 72).

sweep-q is not listed.  Over Q the same search is far slower: a local
algebra of dimension 4 takes 0.6-3.7 s even at max_len 1 (1.6-5.2 s at
max_len 3), a two-vertex one of dimension 6 or 7 0.04-0.3 s, and the
local one of seed 78 (dimension 5) 13 s with a cone-oracle FAIL (seeds
0-148).  Most admitted seeds are local, so a pass of a few instances
outlasts a run, and a window's figures hinge on which local algebras it
holds.  Fraction arithmetic is measured by calculus and cli.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from time import perf_counter

from biserial import cli
from biserial.core import AlgebraPresentation, build_table
from biserial.fields import Field
from biserial.instances import random_node_presentation, random_standard_data
from biserial.normalizer import build_from_standard_data
from biserial.presentations import format_presentation
from biserial.strings import enumerate_strings, words_equal
from biserial.sweep import run_sweep
from biserial.translate import (ar_sequence, cone_of_canonical_map, tau,
                                tau_inv)

# Sizes of the default runs.  Tests shrink them through the overrides of
# make_workload; the runs of BENCHMARK.json always use these.
DEFAULTS = {
    "sweep-q": {"instances": 72, "max_len": 3, "dim_cap": 7, "strings_cap": 8},
    "sweep-fp": {"instances": 72, "max_len": 3, "dim_cap": 7, "strings_cap": 8},
    "calculus": {"instances": 64, "max_len": 8, "dim_cap": 12, "strings_cap": 150,
                 "per_instance": 16},
    "cli": {"instances": 3, "max_len": 4, "dim_cap": 24, "strings_cap": 60},
}

# The round-trip check calls tau and tau_inv through this dict.  The tracer
# rebinds module attributes only, so the check stays untraced and only the
# timed query bundle gives spans.
_CHECK = {"tau": tau, "tau_inv": tau_inv}

# a walk gives up after this many rejected seeds per admitted instance
_WALK_PATIENCE = 200


@dataclass
class Instance:
    seed: int
    pres: AlgebraPresentation
    dim: int
    strings: int


@dataclass
class PassResult:
    items: int = 0
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    unit_s: list = field(default_factory=list)        # per instance or call
    latencies_ms: list = field(default_factory=list)  # per item
    answers: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    def fail(self, what):
        self.failed += 1
        self.failures.append(what)

    def digest(self) -> str:
        blob = json.dumps(self.answers, sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _standard(seed, field_, require_loop=False):
    quiver, pi, mult = random_standard_data(seed, require_loop=require_loop)
    return quiver, pi, mult, build_from_standard_data(quiver, pi, mult, [], field_)


def seed_walk(start, count, field_, max_len, dim_cap, strings_cap):
    """The first `count` standard algebras from seed `start` upward that fit the caps."""
    out = []
    seed = start
    while len(out) < count:
        if seed - start > _WALK_PATIENCE * count:
            raise RuntimeError(f"no {count} instances within the size caps "
                               f"from seed {start}")
        pres = _standard(seed, field_)[3]
        table = build_table(pres)
        if table.dim <= dim_cap:
            n = len(enumerate_strings(table, max_len))
            if n <= strings_cap:
                out.append(Instance(seed, pres, table.dim, n))
        seed += 1
    return out


def describe(instances) -> str:
    return " ".join(f"{i.seed}:d{i.dim}/s{i.strings}" for i in instances)


class Sweep:
    """run_sweep on each instance; every FAIL result is a failed check.

    Items are strings; the latency samples are whole run_sweep calls, one
    per instance, since a pass has too few strings to time them apart.
    """

    def __init__(self, seed, field_, instances, max_len, dim_cap, strings_cap):
        self.max_len = max_len
        self.instances = seed_walk(seed, instances, field_, max_len, dim_cap,
                                   strings_cap)

    def describe(self):
        return f"max_len {self.max_len}; seed:dim/strings {describe(self.instances)}"

    def run_pass(self, tracer=None) -> PassResult:
        res = PassResult()
        t0 = perf_counter()
        for k, inst in enumerate(self.instances):
            if tracer is not None:
                tracer.item = k
            start = perf_counter()
            try:
                payload = run_sweep(inst.pres, self.max_len)
            except Exception as exc:
                payload = None
                error = exc
            res.unit_s.append(perf_counter() - start)
            res.latencies_ms.append(res.unit_s[-1] * 1e3)
            if payload is None:
                res.attempted += 1
                res.fail(f"seed {inst.seed}: {error!r}")
                res.answers.append([inst.seed, repr(error)])
                continue
            res.items += inst.strings
            for r in payload["results"]:
                res.attempted += 1
                if not r["pass"]:
                    res.fail(f"seed {inst.seed}: FAIL {r['check']}")
            res.answers.append([inst.seed, payload["results"]])
        res.wall_s = perf_counter() - t0
        return res


class Calculus:
    """The string calculus per string, checked by tau/tau_inv round trips.

    Each pass queries the same seeded sample of at most `per_instance`
    strings of every algebra, so each algebra weighs about the same and a
    window's figures do not hinge on its two or three largest algebras.
    """

    def __init__(self, seed, instances, max_len, dim_cap, strings_cap,
                 per_instance):
        self.max_len = max_len
        self.instances = seed_walk(seed, instances, Field(0), max_len, dim_cap,
                                   strings_cap)
        self.picks = [sorted(random.Random(i.seed).sample(
                          range(i.strings), min(per_instance, i.strings)))
                      for i in self.instances]

    def describe(self):
        return f"max_len {self.max_len}; seed:dim/strings {describe(self.instances)}"

    def run_pass(self, tracer=None) -> PassResult:
        res = PassResult()
        t0 = perf_counter()
        item = 0
        for inst, picks in zip(self.instances, self.picks):
            if tracer is not None:
                tracer.item = item    # the table is built for the next string
            unit_start = perf_counter()
            check_s = 0.0
            table = build_table(inst.pres)
            q = table.quiver
            words = enumerate_strings(table, self.max_len)
            for w in (words[k] for k in picks):
                if tracer is not None:
                    tracer.item = item
                item += 1
                res.attempted += 1
                try:
                    start = perf_counter()
                    t = tau(table, w)
                    ti = tau_inv(table, w)
                    seq = ar_sequence(table, w)
                    cone = cone_of_canonical_map(table, w)
                    checking = perf_counter()
                    res.latencies_ms.append((checking - start) * 1e3)
                    ok = (words_equal(q, _CHECK["tau_inv"](table, t), w)
                          and words_equal(q, _CHECK["tau"](table, ti), w))
                    check_s += perf_counter() - checking
                except Exception as exc:
                    res.fail(f"seed {inst.seed} {w}: {exc!r}")
                    continue
                if not ok:
                    res.fail(f"seed {inst.seed} {w}: tau round trip")
                res.items += 1
                res.answers.append([inst.seed, str(w), str(t), str(ti),
                                    [str(m) for m in seq.middle_strings],
                                    seq.middle_projective, cone.case,
                                    [str(s) for s in cone.summands]])
            res.unit_s.append(perf_counter() - unit_start - check_s)
        res.wall_s = perf_counter() - t0
        return res


_CLI_FIELDS = (Field(0), Field(3), Field(2))


def _deformed(seed, field_):
    """Socle-deformed standard data, built as in the normalizer acceptance test."""
    quiver, pi, mult = random_standard_data(seed, require_loop=True)
    rng = random.Random(seed + 101)
    loops = [a.name for a in quiver.arrows
             if a.source == a.target and pi[a.name] != a.name]
    chosen = [l for l in loops if rng.random() < 0.8] or [loops[0]]
    scalars = {l: rng.choice((1, 2, 3, -1)) for l in chosen}
    defs = [(l, field_.of(c)) for l, c in scalars.items()
            if field_.of(c) != field_.zero]
    if not defs:
        defs = [(chosen[0], field_.one)]
    return build_from_standard_data(quiver, pi, mult, defs, field_)


class CliMix:
    """A fixed mix of CLI commands: ten per generated algebra."""

    def __init__(self, seed, instances, max_len, dim_cap, strings_cap, root):
        self.root = root
        self.dir = os.path.join(root, ".perfbench", f"cli-{os.getpid()}")
        os.makedirs(self.dir, exist_ok=True)
        self.commands = []
        self.admitted = []
        s = seed - 1
        while len(self.admitted) < instances:
            s += 1
            if s - seed > _WALK_PATIENCE * instances:
                raise RuntimeError(f"no {instances} CLI inputs within the size "
                                   f"caps from seed {seed}")
            field_ = _CLI_FIELDS[len(self.admitted) % len(_CLI_FIELDS)]
            quiver, pi, mult, pres = _standard(s, field_)
            table = build_table(pres)
            if table.dim > dim_cap:
                continue
            deformed = _deformed(s, field_)
            ddim = build_table(deformed).dim
            words = enumerate_strings(table, max_len)
            if ddim <= dim_cap and len(words) <= strings_cap:
                self._add(len(self.admitted), s, field_, quiver, pi, mult,
                          pres, words, deformed, max_len)
                self.admitted.append((s, repr(field_), table.dim, ddim,
                                      len(words)))

    def _write(self, name, pres):
        path = os.path.join(self.dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(format_presentation(pres))
        return path

    def _add(self, j, seed, field_, quiver, pi, mult, pres, words, deformed,
             max_len):
        ssb = self._write(f"ssb-{j}.alg", pres)
        quiv = self._write(f"quiver-{j}.alg", AlgebraPresentation(field_, quiver, []))
        dfm = self._write(f"deformed-{j}.alg", deformed)
        node = self._write(f"nodes-{j}.alg", random_node_presentation(seed, field_))
        rng = random.Random(seed)
        longer = [w for w in words if w.length] or words
        w1, w2 = str(rng.choice(longer)), str(rng.choice(words))
        pi_arg = ",".join(f"{a}>{b}" for a, b in sorted(pi.items()))
        mult_arg = ",".join(f"{' '.join(c)}:{m}" for c, m in sorted(mult.items()))
        ssb_cmd = ["ssb", "--quiver", quiv, "--pi", pi_arg, "--mult", mult_arg]
        loops = [a.name for a in quiver.arrows
                 if a.source == a.target and pi[a.name] != a.name]
        if loops:
            ssb_cmd += ["--deform", f"{loops[0]}:1"]
        self.commands += [
            ["check", ssb],
            ["basis", ssb],
            ["normalize", dfm],
            ssb_cmd,
            ["tau", ssb, "--string", w1],
            ["ar", ssb, "--string", w1],
            ["cone", ssb, "--string", w1],
            ["hom", ssb, "--from", w1, "--to", w2, "--stable"],
            ["strings", ssb, "--max-len", str(max_len)],
            ["nodes", node, "--split"],
        ]

    def describe(self):
        return "seed/field/dim/deformed-dim/strings " + " ".join(
            f"{s}/{f}/{d}/{dd}/{n}" for s, f, d, dd, n in self.admitted)

    def _shown(self, argv):
        """The command with file paths relative to the input directory."""
        return " ".join(os.path.relpath(a, self.dir) if a.startswith(self.dir)
                        else a for a in argv)

    def _check(self, res, argv, code, out, err):
        shown = self._shown(argv)
        if code not in (0, 1, 2):
            res.fail(f"{shown}: exit {code}")
        elif "Traceback" in err:
            res.fail(f"{shown}: traceback")
        elif code == 0:
            try:
                json.loads(out)
            except ValueError:
                res.fail(f"{shown}: non-JSON output")
        res.answers.append([shown, code, out])

    def run_pass(self) -> PassResult:
        """Each command in a fresh interpreter, one at a time."""
        res = PassResult()
        env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        t0 = perf_counter()
        for argv in self.commands:
            start = perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "biserial.cli", "--json", *argv],
                cwd=self.root, env=env, capture_output=True, text=True,
                timeout=120)
            res.unit_s.append(perf_counter() - start)
            res.latencies_ms.append(res.unit_s[-1] * 1e3)
            res.attempted += 1
            res.items += 1
            self._check(res, argv, proc.returncode, proc.stdout, proc.stderr)
        res.wall_s = perf_counter() - t0
        return res

    def run_pass_in_process(self, tracer=None) -> PassResult:
        """The same commands through cli.main in this process (for tracing)."""
        res = PassResult()
        t0 = perf_counter()
        for k, argv in enumerate(self.commands):
            if tracer is not None:
                tracer.item = k
            out, err = io.StringIO(), io.StringIO()
            start = perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(["--json", *argv])
            except Exception as exc:
                res.attempted += 1
                res.fail(f"{self._shown(argv)}: {exc!r}")
                continue
            res.latencies_ms.append((perf_counter() - start) * 1e3)
            res.attempted += 1
            res.items += 1
            self._check(res, argv, code, out.getvalue(), err.getvalue())
        res.wall_s = perf_counter() - t0
        return res

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


def make_workload(name, seed, root, **overrides):
    params = dict(DEFAULTS[name])
    params.update({k: v for k, v in overrides.items() if v is not None})
    if name == "sweep-q":
        return Sweep(seed, Field(0), **params)
    if name == "sweep-fp":
        return Sweep(seed, Field(3), **params)
    if name == "calculus":
        return Calculus(seed, **params)
    return CliMix(seed, root=root, **params)
