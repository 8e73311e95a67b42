"""Hilbert-system checking and the bridge to the sequent prover."""

import random

import pytest
from genlib import formula

from islt.formula import And, Box, Imp, Var, parse_formula
from islt.hilbert import (
    AxiomId,
    HilbertNode,
    HilbertRule,
    SubstitutionError,
    ax,
    axiom_instance,
    bridge_check,
    check_hilbert,
    dumps,
    el,
    loads,
    metavariables,
    mp,
    nec,
)

p, q, r = Var("p"), Var("q"), Var("r")


def inst(a, text, **subst):
    got = axiom_instance(a, {k: parse_formula(v) for k, v in subst.items()})
    assert got == parse_formula(text), (a, got)


def test_axiom_instance_oracles():
    inst(AxiomId.A1, "p -> q -> p", phi="p", psi="q")
    inst(
        AxiomId.A2,
        "(p -> q -> r) -> (p -> q) -> p -> r",
        phi="p", psi="q", chi="r",
    )
    inst(AxiomId.A5, "(p -> r) -> (q -> r) -> p \\/ q -> r", phi="p", psi="q", chi="r")
    inst(AxiomId.A8, "(p -> q) -> (p -> r) -> p -> q /\\ r", phi="p", psi="q", chi="r")
    inst(AxiomId.A9, "# -> [](q -> q)", phi="[](q -> q)")
    inst(AxiomId.A10, "[](p -> q) -> []p -> []q", phi="p", psi="q")
    inst(AxiomId.A11, "([](p /\\ q) -> p /\\ q) -> p /\\ q", phi="p /\\ q")


def test_metavariables():
    assert metavariables(AxiomId.A1) == ("phi", "psi")
    assert metavariables(AxiomId.A2) == ("phi", "psi", "chi")
    assert metavariables(AxiomId.A9) == ("phi",)
    assert metavariables(AxiomId.A11) == ("phi",)


def test_missing_substitute():
    with pytest.raises(SubstitutionError):
        axiom_instance(AxiomId.A2, {"phi": p, "psi": q})


def p_implies_p():
    # the A1/A2 route to p -> p
    pp = Imp(p, p)
    a2 = ax(frozenset(), AxiomId.A2, {"phi": p, "psi": pp, "chi": p})
    a1a = ax(frozenset(), AxiomId.A1, {"phi": p, "psi": pp})
    a1b = ax(frozenset(), AxiomId.A1, {"phi": p, "psi": p})
    return mp(a1b, mp(a1a, a2))


def test_check_accepts_classic_derivations():
    d = p_implies_p()
    assert d.conclusion == Imp(p, p)
    assert check_hilbert(d) is None
    # necessitation under any outer context, premise closed
    boxed = nec(frozenset({q}), p_implies_p())
    assert boxed.conclusion == Box(Imp(p, p))
    assert check_hilbert(boxed) is None
    # element rule
    assert check_hilbert(el(frozenset({q, p}), q)) is None


def test_mp_accepts_both_premise_orders():
    minor = el(frozenset({p, Imp(p, q)}), p)
    major = el(frozenset({p, Imp(p, q)}), Imp(p, q))
    for pair in ((minor, major), (major, minor)):
        d = HilbertNode(major.context, q, HilbertRule.MP, children=pair)
        assert check_hilbert(d) is None


def test_mp_constructor_rejects_non_implication_major():
    with pytest.raises(ValueError):
        mp(el(frozenset({p}), p), el(frozenset({p}), p))


@pytest.mark.parametrize(
    "build, fragment, path",
    [
        (
            lambda: HilbertNode(frozenset(), Imp(p, q), HilbertRule.Ax, AxiomId.A1,
                                (("phi", p), ("psi", q))),
            "is not the named A1 instance",
            (),
        ),
        (
            lambda: HilbertNode(frozenset(), Imp(p, Imp(q, p)), HilbertRule.Ax, None, None),
            "must name its axiom",
            (),
        ),
        (lambda: el(frozenset({q}), p), "not in the context", ()),
        (
            lambda: nec(frozenset(), el(frozenset({p}), p)),
            "empty context",
            (),
        ),
        (
            lambda: HilbertNode(frozenset(), p, HilbertRule.Nec,
                                children=(p_implies_p(),)),
            "must be boxed",
            (),
        ),
        (
            lambda: HilbertNode(frozenset(), Box(q), HilbertRule.Nec,
                                children=(p_implies_p(),)),
            "body of the boxed conclusion",
            (),
        ),
        (
            lambda: HilbertNode(frozenset({p}), q, HilbertRule.MP,
                                children=(el(frozenset({p}), p),
                                          el(frozenset({q, Imp(p, q)}), Imp(p, q)))),
            "share the conclusion's context",
            (),
        ),
        (
            lambda: HilbertNode(frozenset({p, q}), r, HilbertRule.MP,
                                children=(el(frozenset({p, q}), p),
                                          el(frozenset({p, q}), q))),
            "some f and f -> g",
            (),
        ),
        # both El leaves are bad; premises are checked last to first
        (
            lambda: HilbertNode(frozenset(), q, HilbertRule.MP,
                                children=(el(frozenset(), p), el(frozenset(), Imp(p, q)))),
            "El conclusion p -> q is not in the context",
            (1,),
        ),
    ],
)
def test_check_rejections(build, fragment, path):
    v = check_hilbert(build())
    assert v is not None
    assert fragment in v.reason
    assert v.path == path


def _raised(text):
    with pytest.raises(ValueError) as e:
        loads(text)
    return e.value


# (run, message): every rejection of check_hilbert and its codec that the
# rest of the suite does not reach
@pytest.mark.parametrize(
    "run, message",
    [
        (
            lambda: check_hilbert(HilbertNode(frozenset({p}), Imp(p, Imp(q, p)), HilbertRule.Ax, AxiomId.A1,
                                              (("phi", p), ("psi", q)), children=(el(frozenset({p}), p),))),
            "at root: Ax takes no premises",
        ),
        (
            lambda: check_hilbert(HilbertNode(frozenset(), Imp(p, Imp(q, p)), HilbertRule.Ax, AxiomId.A1,
                                              (("phi", p),))),
            "at root: A1 needs substitutes for psi",
        ),
        (
            lambda: check_hilbert(HilbertNode(frozenset({p}), p, HilbertRule.El, children=(el(frozenset({p}), p),))),
            "at root: El takes no premises",
        ),
        (
            lambda: check_hilbert(HilbertNode(frozenset(), Box(p), HilbertRule.Nec)),
            "at root: Nec takes exactly one premise",
        ),
        (
            lambda: check_hilbert(HilbertNode(frozenset({p}), p, HilbertRule.MP, children=(el(frozenset({p}), p),))),
            "at root: MP takes exactly two premises",
        ),
        (lambda: check_hilbert(HilbertNode(frozenset({p}), p, "Rule")), "at root: unknown rule 'Rule'"),
        (
            lambda: _raised('{"context": [1], "conclusion": "p", "rule": "El"}'),
            "certificate 'context' must hold only strings",
        ),
        (
            lambda: _raised('{"conclusion": "p", "rule": "Ax", "axiom": "A1", "subst": {"phi": 1}}'),
            "certificate 'subst' must map to strings",
        ),
    ],
)
def test_rejection_messages(run, message):
    assert str(run()) == message


def test_violation_path_points_into_tree():
    good = p_implies_p()
    # same conclusion so the root's MP shape still fits, forged justification
    forged = HilbertNode(frozenset(), good.children[0].conclusion,
                         HilbertRule.Ax, AxiomId.A9, (("phi", p),))
    tampered = HilbertNode(good.context, good.conclusion, good.rule,
                           children=(forged, good.children[1]))
    v = check_hilbert(tampered)
    assert v is not None
    assert v.path == (0,)
    assert "is not the named A9 instance" in v.reason


def test_bridge_all_axioms():
    rng = random.Random(29)
    for a in AxiomId:
        for _ in range(3):
            subst = {v: formula(rng, rng.randrange(3)) for v in metavariables(a)}
            assert bridge_check(a, subst), (a, subst)


def test_repr_lists_the_context_in_sort_key_order():
    formulas = [Box(q), p, Imp(p, q), And(q, p), r]
    want = (
        "HilbertNode(context=frozenset({Var('p'), Var('r'), And(Var('q'), Var('p')), Imp(Var('p'), Var('q')), "
        "Box(Var('q'))}), conclusion=Var('r'), rule=<HilbertRule.El: 'El'>, axiom=None, subst=None, children=())"
    )
    for order in (formulas, formulas[::-1]):
        assert repr(el(frozenset(order), r)) == want
    assert repr(el(frozenset(), r)).startswith("HilbertNode(context=frozenset(), conclusion=Var('r'), ")


def test_json_roundtrip():
    for d in (p_implies_p(), nec(frozenset({q}), p_implies_p()),
              el(frozenset({p, q}), q)):
        assert loads(dumps(d)) == d
        assert check_hilbert(loads(dumps(d))) is None


def test_json_tamper_detected():
    import json

    obj = json.loads(dumps(p_implies_p()))
    obj["conclusion"] = "p -> q"
    v = check_hilbert(loads(json.dumps(obj)))
    assert v is not None
