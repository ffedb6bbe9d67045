"""String combinatorics and exact linear algebra for biserial algebras.

The package pairs a combinatorial calculus (string words, translation by
hook surgery, brick systems, node splitting, presentation normalization)
with an exact linear-algebra oracle over the rationals or prime fields,
so that every combinatorial formula can be cross-checked on explicit
module representations.

``import biserial`` loads no submodule.  Each public name is imported
from its defining module on first access (PEP 562) and is not stored
here, so ``biserial.tau is biserial.translate.tau`` always holds.
"""

__all__ = [
    "AlgebraPresentation", "AlgebraTable", "Arrow", "EqualityRelation",
    "Field", "InconsistentRelations", "Letter", "NonAdmissible", "Path", "QQ",
    "Quiver", "SocleDeformation", "StringWord", "UnsupportedRelation",
    "ZeroRelation", "EMPTY", "ar_sequence",
    "build_table", "canonical_form", "canonical_map_to_tau_inv",
    "check_selfinjective_symmetric", "check_tau_period_one_exclusions",
    "cone_of_canonical_map", "enumerate_strings", "format_presentation",
    "is_band", "load_presentation", "maximal_directed_extensions",
    "opposite_presentation", "parse_presentation", "string_module", "tau",
    "tau_inv", "validate_string",
]

__version__ = "0.1.0"

# defining module -> the public names it provides
_LAZY = (
    ("core", ("AlgebraPresentation", "AlgebraTable", "Arrow", "EqualityRelation",
              "InconsistentRelations", "NonAdmissible", "Path", "Quiver",
              "SocleDeformation", "UnsupportedRelation", "ZeroRelation",
              "build_table", "check_selfinjective_symmetric",
              "opposite_presentation")),
    ("fields", ("Field", "QQ")),
    ("presentations", ("format_presentation", "load_presentation",
                       "parse_presentation")),
    ("strings", ("EMPTY", "Letter", "StringWord", "canonical_form",
                 "enumerate_strings", "is_band", "maximal_directed_extensions",
                 "string_module", "validate_string")),
    ("translate", ("ar_sequence", "canonical_map_to_tau_inv",
                   "check_tau_period_one_exclusions", "cone_of_canonical_map",
                   "tau", "tau_inv")),
)


def __getattr__(name):
    for module, names in _LAZY:
        if name in names:
            from importlib import import_module
            return getattr(import_module(f"{__name__}.{module}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
