"""The generalised Hilbert calculus for intuitionistic Strong Löb logic.

Consecutions are context-conclusion pairs with the context a finite set.
Four rules: Ax closes with an axiom instance, El closes with a context
member, Nec boxes a conclusion derived under the empty context, and MP
combines minor and major premises sharing the context. Instantiating the
axiom schemas over depth-bounded formulas and feeding them to the sequent
prover doubles as a cross-check between the two proof systems.
"""

from __future__ import annotations

import json
from enum import Enum
from typing import Mapping, Optional

from .calculus import Violation, _field, walk
from .formula import And, Bot, Box, Formula, Imp, Or, Var, _Record, parse_formula, print_formula, variables


class AxiomId(str, Enum):
    A1 = "A1"
    A2 = "A2"
    A3 = "A3"
    A4 = "A4"
    A5 = "A5"
    A6 = "A6"
    A7 = "A7"
    A8 = "A8"
    A9 = "A9"
    A10 = "A10"
    A11 = "A11"


_PHI = Var("phi")
_PSI = Var("psi")
_CHI = Var("chi")

_SCHEMAS: dict[AxiomId, Formula] = {
    AxiomId.A1: Imp(_PHI, Imp(_PSI, _PHI)),
    AxiomId.A2: Imp(Imp(_PHI, Imp(_PSI, _CHI)), Imp(Imp(_PHI, _PSI), Imp(_PHI, _CHI))),
    AxiomId.A3: Imp(_PHI, Or(_PHI, _PSI)),
    AxiomId.A4: Imp(_PSI, Or(_PHI, _PSI)),
    AxiomId.A5: Imp(Imp(_PHI, _CHI), Imp(Imp(_PSI, _CHI), Imp(Or(_PHI, _PSI), _CHI))),
    AxiomId.A6: Imp(And(_PHI, _PSI), _PHI),
    AxiomId.A7: Imp(And(_PHI, _PSI), _PSI),
    AxiomId.A8: Imp(Imp(_PHI, _PSI), Imp(Imp(_PHI, _CHI), Imp(_PHI, And(_PSI, _CHI)))),
    AxiomId.A9: Imp(Bot(), _PHI),
    AxiomId.A10: Imp(Box(Imp(_PHI, _PSI)), Imp(Box(_PHI), Box(_PSI))),
    AxiomId.A11: Imp(Imp(Box(_PHI), _PHI), _PHI),
}


def metavariables(a: AxiomId) -> tuple[str, ...]:
    """The schema's metavariable names in canonical order."""
    return tuple(sorted(variables(_SCHEMAS[a]), key=("phi", "psi", "chi").index))


class SubstitutionError(ValueError):
    """A schema metavariable was left without a substitute."""


def axiom_instance(a: AxiomId, subst: Mapping[str, Formula]) -> Formula:
    """Substitute formulas for the schema's metavariables. There are no
    binders, so substitution is plain replacement."""
    def apply(f: Formula) -> Formula:
        if isinstance(f, Var):
            return subst[f.name]
        return type(f)(*map(apply, f._fields()))  # Bot() is the one falsum

    try:
        return apply(_SCHEMAS[a])
    except KeyError:
        missing = [v for v in metavariables(a) if v not in subst]
        raise SubstitutionError(f"{a.value} needs substitutes for {', '.join(missing)}") from None


class HilbertRule(str, Enum):
    Ax = "Ax"
    El = "El"
    Nec = "Nec"
    MP = "MP"


class HilbertNode(_Record):
    """One consecution: context |- conclusion, justified by a rule. Ax
    nodes carry their axiom and substitution so checking can rebuild the
    instance."""

    __slots__ = __match_args__ = ("context", "conclusion", "rule", "axiom", "subst", "children")

    def __init__(
        self,
        context: frozenset[Formula],
        conclusion: Formula,
        rule: HilbertRule,
        axiom: Optional[AxiomId] = None,
        subst: Optional[tuple[tuple[str, Formula], ...]] = None,
        children: tuple[HilbertNode, ...] = (),
    ) -> None:
        for setter, value in zip(_SETTERS, (context, conclusion, rule, axiom, subst, children)):
            setter(self, value)

    def __str__(self) -> str:
        ctx = ", ".join(sorted(print_formula(f) for f in self.context))
        return f"{ctx} |- {print_formula(self.conclusion)}"


# slot setters that bypass the immutability guard, for construction only
_SETTERS = tuple(getattr(HilbertNode, name).__set__ for name in HilbertNode.__slots__)


def ax(context: frozenset[Formula], a: AxiomId, subst: Mapping[str, Formula]) -> HilbertNode:
    items = tuple(sorted(subst.items()))
    return HilbertNode(frozenset(context), axiom_instance(a, subst), HilbertRule.Ax, a, items)


def el(context: frozenset[Formula], f: Formula) -> HilbertNode:
    return HilbertNode(frozenset(context), f, HilbertRule.El)


def nec(context: frozenset[Formula], child: HilbertNode) -> HilbertNode:
    return HilbertNode(frozenset(context), Box(child.conclusion), HilbertRule.Nec, children=(child,))


def mp(minor: HilbertNode, major: HilbertNode) -> HilbertNode:
    if not isinstance(major.conclusion, Imp):
        raise ValueError("major premise must conclude an implication")
    return HilbertNode(
        major.context, major.conclusion.right, HilbertRule.MP, children=(minor, major)
    )


def check_hilbert(d: HilbertNode) -> Optional[Violation]:
    """None when every node satisfies its rule's side conditions;
    otherwise the first violation in walk order, with its path from the root."""
    for n, path in walk(d):
        bad = _check_node(n)
        if bad is not None:
            return Violation(path, bad)
    return None


def _check_node(n: HilbertNode) -> Optional[str]:
    if n.rule is HilbertRule.Ax:
        if n.children:
            return "Ax takes no premises"
        if n.axiom is None or n.subst is None:
            return "Ax must name its axiom and substitution"
        try:
            want = axiom_instance(n.axiom, dict(n.subst))
        except SubstitutionError as e:
            return str(e)
        if n.conclusion != want:
            return (
                f"conclusion {print_formula(n.conclusion)} is not the named "
                f"{n.axiom.value} instance {print_formula(want)}"
            )
        return None
    if n.rule is HilbertRule.El:
        if n.children:
            return "El takes no premises"
        if n.conclusion not in n.context:
            return f"El conclusion {print_formula(n.conclusion)} is not in the context"
        return None
    if n.rule is HilbertRule.Nec:
        if len(n.children) != 1:
            return "Nec takes exactly one premise"
        child = n.children[0]
        if child.context:
            return "Nec premise must have an empty context"
        if not isinstance(n.conclusion, Box):
            return "Nec conclusion must be boxed"
        if child.conclusion != n.conclusion.body:
            return "Nec premise must conclude the body of the boxed conclusion"
        return None
    if n.rule is HilbertRule.MP:
        if len(n.children) != 2:
            return "MP takes exactly two premises"
        first, second = n.children
        for c in (first, second):
            if c.context != n.context:
                return "MP premises must share the conclusion's context"
        for minor, major in ((first, second), (second, first)):
            if major.conclusion == Imp(minor.conclusion, n.conclusion):
                return None
        return (
            "MP premises must conclude some f and f -> g with g the conclusion; got "
            f"{print_formula(first.conclusion)} and {print_formula(second.conclusion)}"
        )
    return f"unknown rule {n.rule!r}"


def bridge_check(a: AxiomId, subst: Mapping[str, Formula]) -> bool:
    """Axiom instances must be sequent-provable; the two calculi agree on
    theorems."""
    from .search import Proved, decide

    return isinstance(decide(axiom_instance(a, subst)), Proved)


def hilbert_to_json(d: HilbertNode) -> dict:
    out: dict = {
        "context": sorted(print_formula(f) for f in d.context),
        "conclusion": print_formula(d.conclusion),
        "rule": d.rule.value,
    }
    if d.rule is HilbertRule.Ax:
        out["axiom"] = d.axiom.value if d.axiom else None
        out["subst"] = {k: print_formula(v) for k, v in (d.subst or ())}
    if d.children:
        out["children"] = [hilbert_to_json(c) for c in d.children]
    return out


def hilbert_from_json(data: dict) -> HilbertNode:
    """Inverse of hilbert_to_json; ValueError on a wrong shape."""
    if not isinstance(data, dict):
        raise ValueError(f"certificate node must be an object, got {type(data).__name__}")
    texts = _field(data, "context", list, required=False) or []
    if not all(isinstance(t, str) for t in texts):
        raise ValueError("certificate 'context' must hold only strings")
    context = frozenset(parse_formula(t) for t in texts)
    conclusion = parse_formula(_field(data, "conclusion", str))
    rule = HilbertRule(_field(data, "rule", str))
    # hilbert_to_json writes a null axiom for an Ax node without one
    axiom = None if data.get("axiom") is None else _field(data, "axiom", str)
    subst_raw = _field(data, "subst", dict, required=False)
    if subst_raw is not None and not all(isinstance(v, str) for v in subst_raw.values()):
        raise ValueError("certificate 'subst' must map to strings")
    subst = tuple(sorted((k, parse_formula(v)) for k, v in subst_raw.items())) if subst_raw is not None else None
    children = tuple(hilbert_from_json(c) for c in _field(data, "children", list, required=False) or [])
    return HilbertNode(context, conclusion, rule, AxiomId(axiom) if axiom else None, subst, children)


def dumps(d: HilbertNode) -> str:
    return json.dumps(hilbert_to_json(d), indent=2, sort_keys=True)


def loads(text: str) -> HilbertNode:
    return hilbert_from_json(json.loads(text))
