"""Checks on the library's shape that no single module test covers.

The benchmark's tracer (perfbench/tracer.py) wraps every function its
SPANNED table names, AlgebraTable.normal_form and the Field arithmetic,
so each must exist in the library.  The CLI reports every DomainError as
a domain error (exit 1), so every exception class the library defines
must derive from it.
"""

import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import biserial
from biserial.core import AlgebraTable, DomainError
from biserial.fields import Field

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
