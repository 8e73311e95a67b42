"""Admissible transforms: height bounds, checker acceptance, root shapes."""

import random

import pytest
from genlib import formula, proved_proofs, random_sequent

from islt.calculus import RuleId, check, expand, height
from islt.formula import And, Bot, Box, Imp, Or, Var, parse_formula
from islt.search import Proved, prove
from islt.sequent import Multiset, Sequent, parse_sequent
from islt.structural import (
    TransformError,
    box_imp_lir,
    contract,
    id_general,
    imp_imp_lil,
    imp_imp_lir,
    imp_left,
    invert,
    unbox_left,
    weaken,
)

_INVERTIBLE = (
    RuleId.AndR,
    RuleId.AndL,
    RuleId.OrL,
    RuleId.ImpR,
    RuleId.AtomImpL,
    RuleId.AndImpL,
    RuleId.OrImpL,
)


def proved(text):
    r = prove(parse_sequent(text))
    assert isinstance(r, Proved), text
    return r.proof


def assert_ok(d):
    v = check(d)
    assert v is None, v


def test_id_general_hand_cases():
    for text in ("p", "#", "p /\\ q", "p \\/ q", "p -> q", "[]p", "([]p -> p) -> p"):
        f = parse_formula(text)
        d = id_general(f)
        assert_ok(d)
        assert d.root == Sequent(Multiset.of(f), f)
    assert id_general(Var("p")).rule is RuleId.IdP
    assert id_general(Bot()).rule is RuleId.BotL


def test_id_general_random_with_context():
    rng = random.Random(5)
    for _ in range(60):
        f = formula(rng, rng.randrange(4))
        ctx = Multiset.from_iterable(
            formula(rng, rng.randrange(2)) for _ in range(rng.randrange(3))
        )
        d = id_general(f, ctx)
        assert_ok(d)
        assert d.root == Sequent(ctx.add(f), f)


def test_weaken_random():
    rng = random.Random(6)
    for d in proved_proofs(rng, 40, depth=2):
        f = formula(rng, rng.randrange(3))
        w = weaken(d, f)
        assert_ok(w)
        assert w.root == Sequent(d.root.ant.add(f), d.root.suc)
        assert height(w) <= height(d)


def test_weaken_many():
    # weakening by several formulas, a boxed one and a repeat among them,
    # one at a time
    d = proved("=> p -> p")
    w = d
    for f in (Var("q"), Box(Var("p")), Var("q")):
        w = weaken(w, f)
    assert_ok(w)
    assert w.root == parse_sequent("q, []p, q => p -> p")
    assert height(w) <= height(d)


def test_unbox_left_random():
    rng = random.Random(7)
    hits = 0
    for d in proved_proofs(rng, 120, depth=2):
        boxed = [f for f in d.root.ant if isinstance(f, Box)]
        if not boxed:
            continue
        hits += 1
        des = boxed[: rng.randrange(1, len(boxed) + 1)]
        u = unbox_left(d, des)
        assert_ok(u)
        want = d.root.ant.remove_all(Multiset.from_iterable(des)).union(
            Multiset.from_iterable(f.body for f in des)
        )
        assert u.root == Sequent(want, d.root.suc)
        assert height(u) <= height(d)
    assert hits >= 10


def test_unbox_left_empty_designation_is_identity():
    d = proved("[]p, q => q")
    assert unbox_left(d, []) is d


def test_unbox_left_rejects():
    d = proved("[]p, q => q")
    with pytest.raises(TransformError):
        unbox_left(d, [Var("q")])
    with pytest.raises(TransformError):
        unbox_left(d, [Box(Var("r"))])


def test_invert_matches_rule_premises():
    # inversion of any applicable instance at the root must land exactly on
    # that instance's premises, whether or not the proof ends with the rule
    rng = random.Random(8)
    hand = [
        proved("p /\\ q -> r, p, q => r"),
        proved("p \\/ q -> r, q => r"),
        proved("p -> q, p, p /\\ p => q \\/ r"),
    ]
    seen = set()
    for d in hand + proved_proofs(rng, 150, depth=2):
        for inst in expand(d.root):
            if inst.rule not in _INVERTIBLE:
                continue
            seen.add(inst.rule)
            got = invert(inst.rule, d, inst.principal)
            assert tuple(g.root for g in got) == inst.premises
            for g in got:
                assert_ok(g)
                assert height(g) <= height(d)
    assert seen == set(_INVERTIBLE)


def test_invert_rejects():
    d = proved("p => p")
    with pytest.raises(TransformError):
        invert(RuleId.ImpImpL, d, parse_formula("(p -> p) -> p"))
    with pytest.raises(TransformError):
        invert(RuleId.AndL, d, parse_formula("p /\\ q"))
    with pytest.raises(TransformError):
        invert(RuleId.AndL, proved("p /\\ q => p"), parse_formula("q /\\ p"))


def _proofs_with_antecedent(rng, count, make_principal, depth=2):
    """Provable sequents whose antecedent holds a formula of the wanted shape."""
    out = []
    guard = 0
    while len(out) < count:
        guard += 1
        assert guard < count * 200, "wanted antecedent shape too rare"
        pi = make_principal(rng)
        s = random_sequent(rng, depth, max_ant=2)
        s = Sequent(s.ant.add(pi), s.suc)
        r = prove(s)
        if isinstance(r, Proved):
            out.append((r.proof, pi))
    return out


def test_box_imp_lir_random():
    rng = random.Random(9)
    mk = lambda rng: Imp(Box(formula(rng, 1)), formula(rng, rng.randrange(2)))
    for d, pi in _proofs_with_antecedent(rng, 25, mk):
        out = box_imp_lir(d, pi)
        assert_ok(out)
        assert out.root == Sequent(d.root.ant.remove(pi).add(pi.right), d.root.suc)
        assert height(out) <= height(d)


def test_imp_imp_lir_and_lil_random():
    rng = random.Random(10)
    mk = lambda rng: Imp(
        Imp(formula(rng, 1), formula(rng, 1)), formula(rng, rng.randrange(2))
    )
    for d, pi in _proofs_with_antecedent(rng, 25, mk):
        a, b, c = pi.left.left, pi.left.right, pi.right
        r = imp_imp_lir(d, pi)
        assert_ok(r)
        assert r.root == Sequent(d.root.ant.remove(pi).add(c), d.root.suc)
        assert height(r) <= height(d)
        l = imp_imp_lil(d, pi)
        assert_ok(l)
        want = d.root.ant.remove(pi).add(a).add(Imp(b, c)).add(Imp(b, c))
        assert l.root == Sequent(want, d.root.suc)


def test_lir_rejects_wrong_shape():
    d = proved("p => p")
    with pytest.raises(TransformError):
        box_imp_lir(d, parse_formula("p -> q"))
    with pytest.raises(TransformError):
        imp_imp_lir(d, parse_formula("[]p -> q"))
    d2 = proved("[]p -> q, q -> p => p")
    with pytest.raises(TransformError):
        box_imp_lir(d2, parse_formula("[]p -> r"))


def test_contract_after_weaken_roundtrip():
    rng = random.Random(11)
    for d in proved_proofs(rng, 50, depth=2):
        f = formula(rng, rng.randrange(3))
        doubled = weaken(weaken(d, f), f)
        back = contract(doubled, f)
        assert_ok(back)
        assert back.root == Sequent(d.root.ant.add(f), d.root.suc)


def test_contract_principal_duplicates():
    # duplicated compound antecedents force the principal-position cases
    rng = random.Random(12)
    done = 0
    guard = 0
    while done < 40:
        guard += 1
        assert guard < 4000
        f = formula(rng, rng.randrange(1, 3))
        s = random_sequent(rng, 2, max_ant=1)
        s = Sequent(s.ant.add(f).add(f), s.suc)
        r = prove(s)
        if not isinstance(r, Proved):
            continue
        done += 1
        out = contract(r.proof, f)
        assert_ok(out)
        assert out.root == Sequent(s.ant.remove(f), s.suc)


def test_contract_boxed_and_nested_implication():
    for text, f in (
        ("[]p, []p, q => q", "[]p"),
        ("[](p -> q), [](p -> q), []p => []q", "[](p -> q)"),
        ("(p -> q) -> r, (p -> q) -> r, p, q => r", "(p -> q) -> r"),
        ("[]p -> q, []p -> q => []p -> q", "[]p -> q"),
    ):
        d = proved(text)
        out = contract(d, parse_formula(f))
        assert_ok(out)
        assert out.root == Sequent(d.root.ant.remove(parse_formula(f)), d.root.suc)


def test_contract_needs_two_occurrences():
    with pytest.raises(TransformError):
        contract(proved("p => p"), Var("p"))


def test_imp_left_random_pairs():
    rng = random.Random(13)
    done = 0
    guard = 0
    while done < 30:
        guard += 1
        assert guard < 6000
        base = random_sequent(rng, 2, max_ant=2)
        r1 = prove(base)
        if not isinstance(r1, Proved):
            continue
        g = formula(rng, rng.randrange(2))
        chi = formula(rng, rng.randrange(3))
        second = Sequent(base.ant.add(g), chi)
        r2 = prove(second)
        if not isinstance(r2, Proved):
            continue
        done += 1
        out = imp_left(r1.proof, r2.proof)
        assert_ok(out)
        assert out.root == Sequent(base.ant.add(Imp(base.suc, g)), chi)


def test_imp_left_rejects_mismatched_contexts():
    p1 = proved("q => p -> p")
    p2 = proved("r, s, q => q")
    with pytest.raises(TransformError):
        imp_left(p1, p2)
    with pytest.raises(TransformError):
        imp_left(p1, proved("p => p"))
