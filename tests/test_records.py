"""The value semantics every immutable record class of the package shares:
repr text, equality and hash by value within one class only, pickling and
copying, and no assignment or deletion after construction."""

import copy
import pickle

import pytest

from islt.calculus import Derivation, RuleId, RuleInstance, Violation
from islt.cut import CutInstance
from islt.formula import Var
from islt.hilbert import HilbertNode, HilbertRule
from islt.search import BudgetExceeded, Proved, Unprovable
from islt.semantics import KripkeModel
from islt.sequent import Multiset, Sequent

p = Var("p")


def _ant():
    return Multiset(((p, 1),))


def _seq():
    return Sequent(_ant(), p)


def _leaf():
    return Derivation(_seq(), RuleId.IdP, None, ())


_SEQ = "Sequent(ant=Multiset(entries=((Var('p'), 1),)), suc=Var('p'))"
_LEAF = f"Derivation(root={_SEQ}, rule=<RuleId.IdP: 'IdP'>, principal=None, children=())"

# (build, repr text, field names); build makes a new, equal value each call
CASES = {
    "Multiset": (lambda: Multiset(((p, 2),)), "Multiset(entries=((Var('p'), 2),))", ("entries",)),
    "Sequent": (_seq, _SEQ, ("ant", "suc")),
    "RuleInstance": (
        lambda: RuleInstance(RuleId.IdP, _seq()),
        f"RuleInstance(rule=<RuleId.IdP: 'IdP'>, conclusion={_SEQ}, principal=None)",
        ("rule", "conclusion", "principal"),
    ),
    "Derivation": (
        lambda: Derivation(_seq(), RuleId.Cut, None, (_leaf(), _leaf())),
        f"Derivation(root={_SEQ}, rule=<RuleId.Cut: 'Cut'>, principal=None, children=({_LEAF}, {_LEAF}))",
        ("root", "rule", "principal", "children"),
    ),
    "Violation": (lambda: Violation((0, 1), "bad"), "Violation(path=(0, 1), reason='bad')", ("path", "reason")),
    "Proved": (lambda: Proved(_leaf()), f"Proved(proof={_LEAF})", ("proof",)),
    "Unprovable": (lambda: Unprovable(3), "Unprovable(explored=3)", ("explored",)),
    "BudgetExceeded": (lambda: BudgetExceeded(3), "BudgetExceeded(explored=3)", ("explored",)),
    "CutInstance": (
        lambda: CutInstance(_leaf(), _leaf()),
        f"CutInstance(left={_LEAF}, right={_LEAF})",
        ("left", "right"),
    ),
    "HilbertNode": (
        lambda: HilbertNode(
            frozenset({p}), p, HilbertRule.MP, children=(HilbertNode(frozenset({p}), p, HilbertRule.El),)
        ),
        "HilbertNode(context=frozenset({Var('p')}), conclusion=Var('p'), rule=<HilbertRule.MP: 'MP'>, "
        "axiom=None, subst=None, children=(HilbertNode(context=frozenset({Var('p')}), conclusion=Var('p'), "
        "rule=<HilbertRule.El: 'El'>, axiom=None, subst=None, children=()),))",
        ("context", "conclusion", "rule", "axiom", "subst", "children"),
    ),
    "KripkeModel": (
        lambda: KripkeModel(1, frozenset({(0, 0)}), frozenset(), {"p": frozenset({0})}),
        "KripkeModel(worlds=1, leq=frozenset({(0, 0)}), r=frozenset(), valuation={'p': frozenset({0})})",
        ("worlds", "leq", "r", "valuation"),
    ),
}


@pytest.mark.parametrize("name", CASES)
def test_record_value_semantics(name):
    build, text, fields = CASES[name]
    a, b = build(), build()
    assert type(a).__name__ == name
    assert repr(a) == text

    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    values = tuple(getattr(a, f) for f in fields)
    assert a != values and values != a
    # Unprovable(3) and BudgetExceeded(3) hold the same field values
    for other_name, (other_build, _, _) in CASES.items():
        if other_name != name:
            assert a != other_build() and other_build() != a, other_name

    for twin in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert type(twin) is type(a) and twin == a and hash(twin) == hash(a) and repr(twin) == text

    for field in fields:
        with pytest.raises(AttributeError):
            setattr(a, field, None)
        with pytest.raises(AttributeError):
            delattr(a, field)
    with pytest.raises(AttributeError):
        a.extra = None
    assert a == b and repr(a) == text

