"""Decision procedure and proof workbench for intuitionistic Strong Löb logic.

The package is lazy (PEP 562): ``import islt`` loads only ``formula`` and
``sequent``, and each other name below loads its submodule on first use, so
a command-line run pays only for the modules it needs.
"""

from importlib import import_module

# The function ``sequent`` shadows the submodule of the same name. Loading a
# submodule binds it on the package, whoever imports it, so the submodule is
# loaded here and the function bound over it; later imports find the
# submodule in ``sys.modules`` and leave the package attribute alone.
sequent = import_module(f"{__name__}.sequent").sequent

__version__ = "0.1.0"

# public name -> the submodule that defines it
_HOME = {
    **dict.fromkeys(
        ("Derivation", "RuleId", "SchemaError", "Violation", "check", "expand", "height", "node", "premises_of",
         "uses_cut"),
        "calculus",
    ),
    **dict.fromkeys(("CutError", "CutInstance", "cut_admissible", "eliminate"), "cut"),
    **dict.fromkeys(
        ("And", "Bot", "Box", "Formula", "Imp", "Or", "ParseError", "Var", "parse_formula", "print_formula", "weight"),
        "formula",
    ),
    **dict.fromkeys(("AxiomId", "HilbertNode", "axiom_instance", "bridge_check", "check_hilbert"), "hilbert"),
    **dict.fromkeys(("shortlex_less", "theta"), "measure"),
    **dict.fromkeys(("BudgetExceeded", "Proved", "Unprovable", "decide", "prove"), "search"),
    **dict.fromkeys(
        ("ENUMERATION_BOUND", "KripkeModel", "enumerate_models", "find_countermodel", "forces", "valid",
         "validate_model"),
        "semantics",
    ),
    **dict.fromkeys(("Multiset", "Sequent", "parse_sequent", "partition_boxed", "print_sequent", "sequent"), "sequent"),
    **dict.fromkeys(
        ("TransformError", "box_imp_lir", "contract", "id_general", "imp_imp_lil", "imp_imp_lir", "imp_left", "invert",
         "unbox_left", "weaken"),
        "structural",
    ),
}
_SUBMODULES = frozenset(_HOME.values())

__all__ = sorted(_HOME.keys() | _SUBMODULES)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{home}"), name)
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | set(__all__))
