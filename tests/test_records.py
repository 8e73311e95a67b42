"""The value semantics every immutable record class of the package shares:
repr text, equality and hash by value within one class only, pickling and
copying, and no assignment or deletion after construction."""

import copy
import inspect
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
    return Multiset((p,))


def _seq():
    return Sequent(_ant(), p)


def _leaf():
    return Derivation(_seq(), RuleId.IdP, None, ())


_SEQ = "Sequent(ant=Multiset(entries=(Var('p'),)), suc=Var('p'))"
_LEAF = f"Derivation(root={_SEQ}, rule=<RuleId.IdP: 'IdP'>, principal=None, children=())"

# (build, repr text, field names); build makes a new, equal value each call
CASES = {
    "Multiset": (lambda: Multiset((p, p)), "Multiset(entries=(Var('p'), Var('p')))", ("entries",)),
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


# The constructors as written by hand before _Record wrote them: each
# parameter's name and default, in order; _REQUIRED marks one without.
_REQUIRED = inspect.Parameter.empty
SIGNATURES = {
    RuleInstance: (("rule", _REQUIRED), ("conclusion", _REQUIRED), ("principal", None)),
    Derivation: (("root", _REQUIRED), ("rule", _REQUIRED), ("principal", _REQUIRED), ("children", _REQUIRED)),
    Violation: (("path", _REQUIRED), ("reason", _REQUIRED)),
    Proved: (("proof", _REQUIRED),),
    Unprovable: (("explored", _REQUIRED),),
    BudgetExceeded: (("explored", _REQUIRED),),
    CutInstance: (("left", _REQUIRED), ("right", _REQUIRED)),
    HilbertNode: (
        ("context", _REQUIRED),
        ("conclusion", _REQUIRED),
        ("rule", _REQUIRED),
        ("axiom", None),
        ("subst", None),
        ("children", ()),
    ),
    Multiset: (("entries", ()),),
    Sequent: (("ant", _REQUIRED), ("suc", _REQUIRED)),
}


@pytest.mark.parametrize("cls", SIGNATURES, ids=lambda cls: cls.__name__)
def test_written_constructor_keeps_the_hand_written_signature(cls):
    if cls is not Multiset:  # a tuple, built by its own __new__ (below)
        assert cls.__init__.__code__.co_filename == "<string>"
    params = inspect.signature(cls).parameters.values()
    assert [(p.name, p.kind, p.default) for p in params] == [
        (name, inspect.Parameter.POSITIONAL_OR_KEYWORD, default) for name, default in SIGNATURES[cls]
    ]

    a = CASES[cls.__name__][0]()
    values = {name: getattr(a, name) for name, _ in SIGNATURES[cls]}
    assert cls(**values) == a
    required = {name: values[name] for name, default in SIGNATURES[cls] if default is _REQUIRED}
    assert cls(**required)._fields() == tuple(
        values[name] if default is _REQUIRED else default for name, default in SIGNATURES[cls]
    )

    positional = list(values.values())
    with pytest.raises(TypeError):
        cls(*positional, None)
    with pytest.raises(TypeError):
        cls(**values, extra=None)
    if required:
        with pytest.raises(TypeError):
            cls(*list(required.values())[:-1])


def test_kripke_model_multiset_and_formulas_keep_their_own_constructors():
    assert "__init__" not in Var.__dict__ and Var.__new__.__code__.co_filename == inspect.getfile(Var)
    assert Var("p") is p
    assert KripkeModel.__init__.__code__.co_filename == inspect.getfile(KripkeModel)
    assert Multiset.__new__.__code__.co_filename == inspect.getfile(Multiset)
    # Sequent's equality and hash are the base's; its __init__, which _Record
    # sets on the class, is checked with the written constructors above
    assert not {"__eq__", "__hash__", "_hash"} & Sequent.__dict__.keys()
    # the valuation is copied
    valuation = {"p": frozenset({0})}
    m = KripkeModel(worlds=1, leq=frozenset({(0, 0)}), r=frozenset(), valuation=valuation)
    assert m.valuation == valuation and m.valuation is not valuation
