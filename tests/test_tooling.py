"""The benchmark's tracer (perfbench/tracer.py) binds library names.

It wraps every function its SPANNED table names, AlgebraTable.normal_form
and the Field arithmetic, so each must exist in the library.
"""

import importlib
import importlib.util
from pathlib import Path

from biserial.core import AlgebraTable
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
