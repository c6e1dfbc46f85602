"""Algebraic property graphs.

Typed graphs whose elements carry values drawn from algebraic data types
(sums, products, primitives, and references to labeled elements), with a
schema assigning a type to every label and a conformance law tying the two
together.  On top of the core model: categorical constructions (products,
coproducts, equalizers, coequalizers, pushout merges), key-based integration,
schema-mapping migration, a shape taxonomy for labels, and bridges to
N-Triples, relational tables, and key-value pairs.

Each public name and each submodule is loaded on first use (PEP 562), so
`import apg` alone loads only this module, and a command loads only the
modules its verb runs.
"""

from importlib import import_module

# submodule -> the public names the package root gives from it
_EXPORTS = {
    "adt": (
        "Atom", "Class", "ElementId", "Enc", "Inl", "Inr", "Lbl", "Left", "One", "Pair",
        "PairId", "Prim", "PrimRegistry", "PrimVal", "Prod", "Ref", "Right", "Sum",
        "TypeExpr", "Unit", "Value", "Zero", "check_value", "label_free", "parse_id",
        "parse_type", "render_id", "render_type", "render_value", "transport_type",
        "transport_value",
    ),
    "bridges": (
        "TableSet", "export_kv", "export_rdf", "export_relational", "import_relational",
        "read_tableset", "write_tableset",
    ),
    "catops": (
        "ConstructionResult", "case_analysis", "coequalizer", "coproduct", "disjoint_union",
        "equalizer", "initial_graph", "pair", "product", "pushout", "terminal_graph",
        "unique_morphism",
    ),
    "errors": ("ApgError", "ParseError", "PreconditionError", "ValidationFailure"),
    "files": (
        "read_graph", "read_mapping", "read_morphism", "write_graph", "write_mapping",
        "write_morphism",
    ),
    "graph": (
        "UNLABELED", "Element", "Finding", "Graph", "Schema", "ValidationReport",
        "check_primary_key", "check_unique_property", "validate_graph", "validate_schema",
    ),
    "integrate": ("match_by_key", "merge_by_key"),
    "migrate": (
        "SchemaMapping", "Term", "delta_migrate", "enumerate_values", "eval_term",
        "normalize_term", "parse_term", "render_term", "typecheck_mapping",
    ),
    "morphism": (
        "Morphism", "check_morphism", "check_sigma_preserving", "check_upsilon_natural",
        "compose", "identity",
    ),
    "taxonomy": ("classify_graph", "classify_label", "describe"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted([*_HOME, *_EXPORTS])


def __getattr__(name: str):
    """A public name, looked up in its submodule on every use, so it is the
    submodule's current binding; or a submodule, such as apg.files or
    apg.fixtures, which the import binds here.  A private name, such as a
    probe for __wrapped__, imports nothing."""
    if name in _HOME:
        return getattr(import_module(f".{_HOME[name]}", __name__), name)
    if name.isidentifier() and not name.startswith("_"):
        try:
            return import_module(f".{name}", __name__)
        except ModuleNotFoundError as err:
            if err.name != f"{__name__}.{name}":  # the submodule exists; something it needs does not
                raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
