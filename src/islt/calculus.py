"""Sequent calculus rules, backward expansion, and certificate checking.

Rules are read backward: expand(s) lists every instance whose conclusion is
s, one instance per (rule, principal value) pair, from one scan of s
(_principals) that both modes of search read too. The split of an antecedent
into non-boxed and boxed parts for BoxImpL and SLtR is always the maximal
one, and check() rejects anything else.

This module is the one place that says what each rule does to its
conclusion. Each rule's shape is stated once, in the tables below, and
expand, premises_of, replacements and the rule sets read it there.
premises_of gives the premises of an instance, replacements what each
premise of a context-keeping left rule puts in the principal's place. The
transforms and cut elimination read their premise shapes from these two
rather than restating them.
"""

from __future__ import annotations

import json
from enum import Enum
from functools import reduce
from typing import Iterator, Optional

from .formula import And, Bot, Box, Formula, Imp, Or, Var, _Record, parse_formula, print_formula, sort_key
from .sequent import Multiset, Sequent, unbox_one_level

sort_key = sort_key  # bench/tracer.py counts calls through this name; nothing here calls it


class RuleId(str, Enum):
    BotL = "BotL"
    IdP = "IdP"
    AndL = "AndL"
    AndR = "AndR"
    OrL = "OrL"
    OrR1 = "OrR1"
    OrR2 = "OrR2"
    AtomImpL = "AtomImpL"
    ImpR = "ImpR"
    AndImpL = "AndImpL"
    OrImpL = "OrImpL"
    ImpImpL = "ImpImpL"
    BoxImpL = "BoxImpL"
    SLtR = "SLtR"
    Cut = "Cut"


# the members as module globals, which cost about a tenth of RuleId.X to read
(_BotL, _IdP, _AndL, _AndR, _OrL, _OrR1, _OrR2, _AtomImpL, _ImpR, _AndImpL, _OrImpL, _ImpImpL, _BoxImpL, _SLtR,
 _Cut) = RuleId

# the left rule a principal selects by its connective or, for an implication,
# by its antecedent's (Dyckhoff's G4ip); an implication out of # is inert
_LEFT_OF = {And: RuleId.AndL, Or: RuleId.OrL}
_IMP_LEFT_OF = {Var: RuleId.AtomImpL, And: RuleId.AndImpL, Or: RuleId.OrImpL, Imp: RuleId.ImpImpL, Box: RuleId.BoxImpL}
# the right rules a succedent selects by its connective
_RIGHT_OF = {And: (RuleId.AndR,), Or: (RuleId.OrR1, RuleId.OrR2), Imp: (RuleId.ImpR,), Box: (RuleId.SLtR,)}
# what a rule says of a principal or succedent of the wrong shape
_WRONG_SHAPE = {
    RuleId.AndL: "AndL principal must be a conjunction",
    RuleId.OrL: "OrL principal must be a disjunction",
    RuleId.AtomImpL: "AtomImpL principal must be an implication with atomic antecedent",
    RuleId.AndImpL: "AndImpL principal must have a conjunction antecedent",
    RuleId.OrImpL: "OrImpL principal must have a disjunction antecedent",
    RuleId.ImpImpL: "ImpImpL principal must have an implication antecedent",
    RuleId.BoxImpL: "BoxImpL principal must have a boxed antecedent",
    RuleId.AndR: "AndR needs a conjunction succedent",
    RuleId.OrR1: "OrR1 needs a disjunction succedent",
    RuleId.OrR2: "OrR2 needs a disjunction succedent",
    RuleId.ImpR: "ImpR needs an implication succedent",
    RuleId.SLtR: "SLtR needs a boxed succedent",
}
LEFT_RULES = frozenset(_LEFT_OF.values()) | frozenset(_IMP_LEFT_OF.values())
# rules whose every premise is derivable whenever the conclusion is
# (structural.invert); ImpImpL and BoxImpL have this only for the right premise
INVERTIBLE = frozenset(
    {RuleId.AndL, RuleId.AndR, RuleId.OrL, RuleId.ImpR, RuleId.AtomImpL, RuleId.AndImpL, RuleId.OrImpL}
)
# rules whose right premise is derivable whenever the conclusion is
# (structural.imp_imp_lir, structural.box_imp_lir), but not the left one
RIGHT_INVERTIBLE = frozenset({RuleId.ImpImpL, RuleId.BoxImpL})
# the invertible left rules: each premise keeps the conclusion's context and
# succedent and puts pieces of the principal in its place (replacements)
INVERTIBLE_LEFT = INVERTIBLE & LEFT_RULES
# rules that act on the succedent or close a leaf: they take no principal
_NO_PRINCIPAL = frozenset(RuleId) - LEFT_RULES - {RuleId.Cut}


def _left_rule(f: Optional[Formula]) -> Optional[RuleId]:
    """The left rule whose principal has f's shape, if any."""
    if type(f) is Imp:
        return _IMP_LEFT_OF.get(type(f.left))
    return _LEFT_OF.get(type(f))


class SchemaError(ValueError):
    """Raised when (rule, conclusion, principal) match no rule schema."""


class RuleInstance(_Record):
    """A rule applied backward at its conclusion."""

    __slots__ = __match_args__ = ("rule", "conclusion", "principal")
    _DEFAULTS = {"principal": None}

    @property
    def premises(self) -> tuple[Sequent, ...]:
        """premises_of this instance, built anew on each access."""
        return premises_of(self.rule, self.conclusion, self.principal)


class Derivation(_Record):
    """A proof tree node: root sequent, rule, principal (None for rules
    that take none) and premise proofs."""

    __slots__ = __match_args__ = ("root", "rule", "principal", "children")


class Violation(_Record):
    """Where a check failed, as a path of premise indices from the root,
    and why."""

    __slots__ = __match_args__ = ("path", "reason")

    def __str__(self) -> str:
        where = "/".join(str(i) for i in self.path) or "root"
        return f"at {where}: {self.reason}"


def _shaped(rule: RuleId, f: Optional[Formula]) -> Formula:
    """f, when it has the shape rule acts on: the principal of a left rule,
    the succedent of a right rule. SchemaError with rule's message if not."""
    if rule is _left_rule(f) or rule in _RIGHT_OF.get(type(f), ()):
        return f
    raise SchemaError(_WRONG_SHAPE[rule])


def replacements(rule: RuleId, p: Optional[Formula]) -> tuple[tuple[Formula, ...], ...]:
    """For AndL, OrL, AtomImpL, AndImpL or OrImpL with principal p: the
    formulas each premise puts in p's place, premise by premise, in schema
    order. SchemaError when p has the wrong shape for the rule."""
    if rule not in INVERTIBLE_LEFT:
        raise SchemaError(f"{rule.value} does not replace its principal in place")
    a, b = _shaped(rule, p).left, p.right
    if rule is _AndL:
        return ((a, b),)
    if rule is _OrL:
        return ((a,), (b,))
    if rule is _AtomImpL:
        return ((b,),)
    if rule is _AndImpL:
        return ((Imp(a.left, Imp(a.right, b)),),)
    return ((Imp(a.left, b), Imp(a.right, b)),)  # OrImpL


def premises_of(rule: RuleId, conclusion: Sequent, principal: Optional[Formula]) -> tuple[Sequent, ...]:
    """The unique premise list of a rule instance, or SchemaError."""
    if principal is not None and rule in _NO_PRINCIPAL:
        raise SchemaError(f"{rule.value} takes no principal formula")
    ant, suc = conclusion.ant, conclusion.suc
    if rule is _BotL:
        if Bot() not in ant:
            raise SchemaError("BotL needs # in the antecedent")
        return ()
    if rule is _IdP:
        if not isinstance(suc, Var) or suc not in ant:
            raise SchemaError("IdP needs an atomic succedent present in the antecedent")
        return ()
    if rule in LEFT_RULES:
        if principal is None:
            raise SchemaError(f"{rule.value} needs a principal formula")
        if principal not in ant:
            raise SchemaError(f"principal {print_formula(principal)} not in the antecedent")
        if rule in INVERTIBLE_LEFT:
            parts = replacements(rule, principal)
            if rule is _AtomImpL and principal.left not in ant:
                raise SchemaError("AtomImpL needs the atom alongside the implication")
            rest = ant.remove(principal)
            return tuple(Sequent(reduce(Multiset.add, pieces, rest), suc) for pieces in parts)
        # ImpImpL or BoxImpL: the right premise puts b in the principal's place
        a, b = _shaped(rule, principal).left, principal.right
        rest = ant.remove(principal)
        if rule is _ImpImpL:
            left = Sequent(rest.add(Imp(a.right, b)), a)
        else:
            left = Sequent(unbox_one_level(rest).add(b).add(a), a.body)
        return (left, Sequent(rest.add(b), suc))
    if rule is _Cut:
        raise SchemaError("no schema for rule Cut")
    _shaped(rule, suc)
    if rule is _AndR:
        return (Sequent(ant, suc.left), Sequent(ant, suc.right))
    if rule is _OrR1:
        return (Sequent(ant, suc.left),)
    if rule is _OrR2:
        return (Sequent(ant, suc.right),)
    if rule is _ImpR:
        return (Sequent(ant.add(suc.left), suc.right),)
    return (Sequent(unbox_one_level(ant).add(suc), suc.body),)  # SLtR


def _principals(s: Sequent) -> dict[RuleId, list[Optional[Formula]]]:
    """Each rule that applies backward at s, with the principals s offers
    it in antecedent (sort_key) order, or [None] for a rule that takes
    none: one pass over the antecedent's distinct formulas, in a dict that
    also answers membership."""
    present, suc = dict.fromkeys(s.ant.entries), s.suc
    out: dict[RuleId, list[Optional[Formula]]] = {_BotL: [None]} if Bot() in present else {}
    if type(suc) is Var and suc in present:
        out[_IdP] = [None]
    for f in present:
        rule = _left_rule(f)
        if rule is not None and (rule is not _AtomImpL or f.left in present):
            out.setdefault(rule, []).append(f)
    for rule in _RIGHT_OF.get(type(suc), ()):
        out[rule] = [None]
    return out


def expand(s: Sequent) -> list[RuleInstance]:
    """All backward rule instances at s, in RuleId order, and the instances
    of one rule in antecedent order."""
    offers = _principals(s)
    return [RuleInstance(rule, s, p) for rule in RuleId if rule in offers for p in offers[rule]]


def node(rule: RuleId, conclusion: Sequent, principal: Optional[Formula], *children: Derivation) -> Derivation:
    return Derivation(conclusion, rule, principal, tuple(children))


def walk(d: Derivation) -> Iterator[tuple[Derivation, tuple[int, ...]]]:
    """Every node of the tree under d with its path of premise indices from
    the root: a node before its premises, premises last to first, with an
    explicit stack rather than recursion. Hilbert derivations list their
    premises in children too, so check_hilbert walks them with this."""
    stack = [(d, ())]
    while stack:
        n, path = stack.pop()
        yield n, path
        for i, c in enumerate(n.children):
            stack.append((c, path + (i,)))


def check(d: Derivation, allow_cut: bool = False) -> Optional[Violation]:
    """None when every node re-matches its schema and every leaf closes;
    otherwise the first violation in walk order, with its path from the root."""
    for n, path in walk(d):
        if n.rule is _Cut:
            if not allow_cut:
                return Violation(path, "Cut node in a cut-free certificate")
            if n.principal is not None:
                return Violation(path, "Cut takes no principal formula")
            if len(n.children) != 2:
                return Violation(path, "Cut needs exactly two premises")
            left, right = n.children
            cut_formula = left.root.suc
            if left.root.ant != n.root.ant:
                return Violation(path, "Cut left premise must keep the conclusion context")
            if right.root != Sequent(n.root.ant.add(cut_formula), n.root.suc):
                return Violation(path, "Cut right premise must be context plus the cut formula")
        else:
            try:
                want = premises_of(n.rule, n.root, n.principal)
            except SchemaError as e:
                return Violation(path, str(e))
            got = tuple(c.root for c in n.children)
            if got != want:
                return Violation(
                    path,
                    f"{n.rule.value} premises do not match the schema: "
                    f"expected [{'; '.join(map(str, want))}], got [{'; '.join(map(str, got))}]",
                )
    return None


def height(d: Derivation) -> int:
    """Nodes on the longest root-to-leaf path; a leaf has height 1."""
    return 1 + max(len(path) for _, path in walk(d))


def uses_cut(d: Derivation) -> bool:
    return any(n.rule is RuleId.Cut for n, _ in walk(d))


def _sequent_to_json(s: Sequent) -> dict:
    return {"ant": [print_formula(f) for f in s.ant], "suc": print_formula(s.suc)}


_JSON_KIND = {dict: "an object", list: "an array", str: "a string"}


def _field(obj: dict, key: str, kind: type, required: bool = True):
    """obj[key], checked to be of the given JSON kind; ValueError if not.
    An optional key that is absent gives None."""
    if key not in obj:
        if required:
            raise ValueError(f"certificate lacks {key!r}")
        return None
    value = obj[key]
    if not isinstance(value, kind):
        raise ValueError(f"certificate {key!r} must be {_JSON_KIND[kind]}, got {type(value).__name__}")
    return value


def _sequent_from_json(obj: dict) -> Sequent:
    texts = _field(obj, "ant", list)
    if not all(isinstance(t, str) for t in texts):
        raise ValueError("certificate 'ant' must hold only strings")
    ant = Multiset.from_iterable(parse_formula(t) for t in texts)
    return Sequent(ant, parse_formula(_field(obj, "suc", str)))


def derivation_to_json(d: Derivation) -> dict:
    out = {"sequent": _sequent_to_json(d.root), "rule": d.rule.value}
    if d.principal is not None:
        out["principal"] = print_formula(d.principal)
    out["premises"] = [derivation_to_json(c) for c in d.children]
    return out


def derivation_from_json(obj: dict) -> Derivation:
    """Inverse of derivation_to_json; ValueError on a wrong shape."""
    if not isinstance(obj, dict):
        raise ValueError(f"certificate node must be an object, got {type(obj).__name__}")
    rule = RuleId(_field(obj, "rule", str))
    principal = _field(obj, "principal", str, required=False)
    premises = _field(obj, "premises", list, required=False) or []
    children = tuple(derivation_from_json(c) for c in premises)
    sequent = _sequent_from_json(_field(obj, "sequent", dict))
    return Derivation(sequent, rule, None if principal is None else parse_formula(principal), children)


def dumps(d: Derivation) -> str:
    return json.dumps(derivation_to_json(d), indent=2)


def loads(text: str) -> Derivation:
    return derivation_from_json(json.loads(text))


def render_text(d: Derivation) -> str:
    """One line a node, indented by depth, premises first to last."""
    lines: list[str] = []
    stack = [(d, 0)]
    while stack:
        n, depth = stack.pop()
        tag = n.rule.value
        if n.principal is not None:
            tag += f" on {print_formula(n.principal)}"
        lines.append("  " * depth + f"{n.root}   [{tag}]")
        stack.extend((c, depth + 1) for c in reversed(n.children))
    return "\n".join(lines) + "\n"


def render_dot(d: Derivation) -> str:
    """Nodes in render_text's order; the edge into a node waits on the stack
    under the node's premises, so it follows the node's subtree."""
    lines = ["digraph proof {", '  node [shape=box, fontname="monospace"];']
    stack: list = [(d, None)]
    me = 0
    while stack:
        top = stack.pop()
        if isinstance(top, str):
            lines.append(top)
            continue
        n, parent = top
        label = str(n.root).replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  n{me} [label="{label}\\n{n.rule.value}"];')
        if parent is not None:
            stack.append(f"  n{parent} -> n{me};")
        stack.extend((c, me) for c in reversed(n.children))
        me += 1
    lines.append("}")
    return "\n".join(lines) + "\n"
