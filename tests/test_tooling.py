"""Checks on the library's shape that no single module test covers.

The benchmark's tracer (perfbench/tracer.py) wraps every function its
SPANNED table names, AlgebraTable.normal_form and the Field arithmetic,
so each must exist in the library.  The CLI reports every DomainError as
a domain error (exit 1), so every exception class the library defines
must derive from it.  Table-level caches live in one place: every private
attribute the library reads or writes on a table is declared in
AlgebraTable.__init__, and every one on a module in ModuleRep.__init__;
no module binds a mutable container that could serve as a second cache.
No module imports a name it never reads, no function takes a parameter
it never reads, and no private function or method is left without a
caller; a public function of ``linalg`` has a caller in the library or a
span in the tracer.  ``import biserial`` loads no submodule: the package
resolves its public names on first access.
"""

import ast
import importlib
import importlib.util
import inspect
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import biserial
from biserial.core import AlgebraTable, DomainError
from biserial.fields import Field

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
LIBRARY = Path(biserial.__file__).resolve().parent


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = load_tracer()
    missing = [f"{layer}.{name}" for layer, names in tracer.SPANNED.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"biserial.{layer}"),
                                       name, None))]
    assert not missing
    assert "normal_form" in AlgebraTable.__dict__
    assert all(op in Field.__dict__ for op in (*tracer.FIELD_OPS, "zero", "one"))


def test_every_library_exception_is_a_domain_error():
    defined = []
    for info in pkgutil.iter_modules(biserial.__path__):
        module = importlib.import_module(f"biserial.{info.name}")
        defined += [cls for _, cls in inspect.getmembers(module, inspect.isclass)
                    if issubclass(cls, Exception) and cls.__module__ == module.__name__]
    assert len(defined) >= 25
    assert [cls for cls in defined if not issubclass(cls, DomainError)] == []


def _declared(tree, cls_name):
    """Private attributes a class assigns in __init__, and its methods."""
    cls = next(node for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef) and node.name == cls_name)
    names = {node.name for node in cls.body if isinstance(node, ast.FunctionDef)}
    init = next(node for node in cls.body
                if isinstance(node, ast.FunctionDef) and node.name == "__init__")
    for node in ast.walk(init):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store) \
                and isinstance(node.value, ast.Name) and node.value.id == "self":
            names.add(node.attr)
    return names


def _private_uses(tree):
    """(owner, attribute, line) for every private attribute outside self/cls.

    The owner is "table" when the receiver is named table (or is a table
    attribute itself, as in table._op_table._op_table) and "module"
    otherwise; receivers bound by an import are skipped.
    """
    imported = {alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    uses = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and not node.attr.startswith("__")):
            continue
        receiver = node.value
        if isinstance(receiver, ast.Name) and receiver.id in ("self", "cls", *imported):
            continue
        named = receiver.id if isinstance(receiver, ast.Name) else getattr(receiver, "attr", "")
        table_attr = (isinstance(receiver, ast.Attribute) and isinstance(receiver.value, ast.Name)
                      and receiver.value.id == "table")
        owner = "table" if named == "table" or table_attr else "module"
        uses.append((owner, node.attr, node.lineno))
    return uses


def test_private_caches_are_declared_in_init():
    core = ast.parse((LIBRARY / "core.py").read_text(encoding="utf-8"))
    reps = ast.parse((LIBRARY / "reps.py").read_text(encoding="utf-8"))
    declared = {"table": _declared(core, "AlgebraTable"),
                "module": _declared(reps, "ModuleRep")}
    assert {"_string_modules", "_run_verdicts", "_arms", "_translates",
            "_side_ops", "_regular", "_projective_cache",
            "_valid_words"} <= declared["table"]
    assert "_hom_to_projective" in declared["module"]
    seen, undeclared = set(), []
    for path in sorted(LIBRARY.glob("*.py")):
        for owner, attr, line in _private_uses(ast.parse(path.read_text(encoding="utf-8"))):
            seen.add((owner, attr))
            if attr not in declared[owner]:
                undeclared.append(f"{path.name}:{line} {owner}.{attr}")
    assert undeclared == []
    # the scan sees the caches the calculus and the oracle fill
    assert {("table", "_string_modules"), ("table", "_translates"),
            ("module", "_hom_to_projective")} <= seen


MUTABLE_CONSTRUCTORS = {"dict", "list", "set", "bytearray", "defaultdict",
                        "OrderedDict", "Counter", "deque", "ChainMap"}


def _module_level(body):
    """Statements run at import: the body, descending into if/try/with blocks."""
    for node in body:
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for field in ("body", "orelse", "finalbody", "handlers"):
                yield from _module_level(getattr(node, field, []))


def _is_mutable_container(value):
    if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp,
                          ast.SetComp)):
        return True
    if isinstance(value, ast.Call):
        func = value.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
        return name in MUTABLE_CONSTRUCTORS
    return False


def _mutable_bindings(tree):
    """Lines that bind a module-level name other than __all__ to a mutable container."""
    lines = []
    for node in _module_level(tree.body):
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets, value = [node.target], node.value
        else:
            continue
        names = {t.id for t in targets if isinstance(t, ast.Name)}
        if names != {"__all__"} and _is_mutable_container(value):
            lines.append(node.lineno)
    return lines


def test_no_module_binds_a_mutable_container():
    """Caches live on tables and modules, never in a module-level dict."""
    found = [f"{path.name}:{line}" for path in sorted(LIBRARY.glob("*.py"))
             for line in _mutable_bindings(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []
    # the scan sees a planted container, also inside a block
    planted = ("CACHE = {}\nif True:\n    SEEN = set()\n__all__ = []\n"
               "def f():\n    local = []\nTABLE: dict = dict()\n")
    assert _mutable_bindings(ast.parse(planted)) == [1, 3, 7]


def _unused_imports(tree):
    """Names a module imports and never reads, with the import's line.

    A name counts as read when it appears as a name anywhere in the
    module, annotations included; ``from __future__`` imports bind nothing.
    """
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    unused.append((name, node.lineno))
    return unused


def test_no_module_imports_an_unused_name():
    found = [f"{path.name}:{line} {name}" for path in sorted(LIBRARY.glob("*.py"))
             if path.name != "__init__.py"
             for name, line in _unused_imports(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []
    # the scan sees an unused name, also in a function-local import
    planted = ("from __future__ import annotations\nimport os.path\n"
               "from dataclasses import dataclass, field\n"
               "def f() -> dataclass:\n    from .x import y as z\n    return os\n")
    assert _unused_imports(ast.parse(planted)) == [("field", 3), ("z", 5)]


def _unused_parameters(tree):
    """(function, parameter, line) for each parameter its body never reads.

    Functions, methods, nested functions and lambdas are all scanned; a
    read in a nested body counts for the enclosing one, and ``self`` and
    ``cls`` are exempt.
    """
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [p for p in (*args.posonlyargs, *args.args, args.vararg,
                              *args.kwonlyargs, args.kwarg) if p]
        body = [node.body] if isinstance(node, ast.Lambda) else node.body
        read = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
        unused += [(getattr(node, "name", "<lambda>"), p.arg, node.lineno) for p in params
                   if p.arg not in ("self", "cls", *read)]
    return sorted(unused, key=lambda u: u[2])


def test_no_function_takes_an_unused_parameter():
    found = [f"{path.name}:{line} {name}({param})" for path in sorted(LIBRARY.glob("*.py"))
             for name, param, line
             in _unused_parameters(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []
    # the scan sees a planted parameter in a function, a method, a nested
    # function and a lambda, also a keyword-only one and *args; a read in a
    # nested body counts, and a default that names the parameter does not
    planted = ("def f(used, unused):\n    return used\n"
               "class C:\n    def m(self, x, *args, key=None):\n        return x\n"
               "    @classmethod\n    def k(cls):\n        pass\n"
               "def outer(a, b):\n    def inner(c):\n        return a\n    return inner\n"
               "g = lambda u, v: u\n"
               "def h(n=0, m=n):\n    return n\n")
    assert _unused_parameters(ast.parse(planted)) == [
        ("f", "unused", 1), ("m", "args", 4), ("m", "key", 4), ("outer", "b", 9),
        ("inner", "c", 10), ("<lambda>", "v", 13), ("h", "m", 14)]


def _private_definitions(tree):
    """(name, first line, last line) of each private module-level function and method."""
    bodies = [tree.body] + [node.body for node in tree.body if isinstance(node, ast.ClassDef)]
    return [(node.name, node.lineno, node.end_lineno) for body in bodies for node in body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name.startswith("_") and not node.name.startswith("__")]


def _references(tree):
    """(name, line) for every name read, attribute taken or name imported."""
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            refs.append((node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            refs += [(alias.name, node.lineno) for alias in node.names]
    return refs


def _unreferenced(refs, module, definitions):
    """The (name, first line, last line) definitions of a module that no
    code outside their own body references, as "module:line name"."""
    return [f"{module}:{first} {name}" for name, first, last in definitions
            if not any(ref == name and (where != module or not first <= line <= last)
                       for where, found in refs.items() for ref, line in found)]


def _orphans(sources):
    """Private functions and methods no code outside their own body references."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    refs = {name: _references(tree) for name, tree in trees.items()}
    return [orphan for name, tree in trees.items()
            for orphan in _unreferenced(refs, name, _private_definitions(tree))]


def test_every_private_function_has_a_caller():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(LIBRARY.glob("*.py"))}
    assert _orphans(sources) == []
    # the scan sees a planted orphan, a private method and a function that
    # only calls itself; a caller in another module counts
    planted = {"a.py": ("def _used():\n    pass\n"
                        "def _orphan():\n    pass\n"
                        "def _recursive(n):\n    return _recursive(n - 1)\n"
                        "class C:\n    def _method(self):\n        pass\n"
                        "    def __init__(self):\n        pass\n"),
               "b.py": "from .a import _used\n"}
    assert _orphans(planted) == ["a.py:3 _orphan", "a.py:5 _recursive", "a.py:8 _method"]


def _uncalled_public(sources, module, spanned):
    """Public functions of one module that the tracer does not span and
    that no code outside their own body references."""
    refs = {name: _references(ast.parse(text)) for name, text in sources.items()}
    public = [(node.name, node.lineno, node.end_lineno)
              for node in ast.parse(sources[module]).body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
              and node.name not in spanned]
    return _unreferenced(refs, module, public)


def test_every_public_linalg_function_has_a_caller_or_a_span():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(LIBRARY.glob("*.py"))}
    spanned = load_tracer().SPANNED["linalg"]
    assert _uncalled_public(sources, "linalg.py", spanned) == []
    # the scan sees a planted helper left behind, also one that only calls
    # itself; a spanned name, a private one and a caller elsewhere count
    planted = {"linalg.py": ("def used():\n    pass\n"
                             "def traced():\n    pass\n"
                             "def dense(row):\n    pass\n"
                             "def _kernel():\n    pass\n"
                             "def zeros(n):\n    return zeros(n - 1)\n"),
               "reps.py": "from . import linalg as la\nla.used()\n"}
    assert _uncalled_public(planted, "linalg.py", ("traced",)) == [
        "linalg.py:5 dense", "linalg.py:9 zeros"]


def _eager_imports(tree):
    """Lines of the statements run at import that import a biserial submodule."""
    return [node.lineno for node in _module_level(tree.body)
            if isinstance(node, ast.ImportFrom)
            and (node.level or (node.module or "").split(".")[0] == "biserial")
            or isinstance(node, ast.Import)
            and any(alias.name.split(".")[0] == "biserial" for alias in node.names)]


def test_package_init_is_lazy():
    init = ast.parse((LIBRARY / "__init__.py").read_text(encoding="utf-8"))
    assert _eager_imports(init) == []
    # the scan sees a planted eager import, also inside a block, and leaves
    # the standard library and function-local imports alone
    planted = ("import os\nfrom . import core\nif True:\n"
               "    from .strings import tau\nimport biserial.reps\n"
               "def __getattr__(name):\n    from .translate import tau\n")
    assert _eager_imports(ast.parse(planted)) == [2, 4, 5]
    # and a fresh interpreter loads no submodule on import biserial
    probe = ("import sys, json, biserial\n"
             "print(json.dumps(sorted(m for m in sys.modules if m.startswith('biserial.'))))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         cwd=LIBRARY.parent, check=True).stdout
    assert json.loads(out) == []


def test_package_names_resolve_to_their_definitions():
    table = [(module, name) for module, names in biserial._LAZY for name in names]
    assert sorted(name for _, name in table) == sorted(biserial.__all__)
    assert len(set(biserial.__all__)) == len(biserial.__all__)
    for module, name in table:
        defined = getattr(importlib.import_module(f"biserial.{module}"), name)
        assert getattr(biserial, name) is defined, name
        # a resolved name is looked up again on every access, never stored
        assert name not in vars(biserial)
    assert set(biserial.__all__) <= set(dir(biserial))
    namespace = {}
    exec("from biserial import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(biserial.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        biserial.no_such_name
    assert not hasattr(biserial, "reversal_map")


def _imported_modules(tree):
    """(module, line) for every import statement, function-local ones too."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(alias.name, node.lineno) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.append((node.module, node.lineno))
    return found


def test_no_module_imports_dataclasses():
    """Records are __slots__ classes over core.Record: dataclasses loads
    inspect and ast and compiles generated methods at import, which every
    CLI process would pay."""
    found = [f"{path.name}:{line}" for path in sorted(LIBRARY.glob("*.py"))
             for module, line in _imported_modules(ast.parse(path.read_text(encoding="utf-8")))
             if module.split(".")[0] == "dataclasses"]
    assert found == []
    # the scan sees both import forms, also inside a function
    planted = ("import json\nfrom dataclasses import dataclass\n"
               "def f():\n    import dataclasses as dc\n    from .core import Record\n")
    assert _imported_modules(ast.parse(planted)) == [
        ("json", 1), ("dataclasses", 2), ("dataclasses", 4)]
