"""Cut admissibility and elimination: acceptance, descent logs, rejection."""

import random
import sys

import pytest
from genlib import formula, inject_cut, random_sequent

from islt.calculus import Derivation, RuleId, check, node, uses_cut
from islt.cut import CutError, CutInstance, cut_admissible, eliminate
from islt.measure import shortlex_less
from islt.search import Proved, prove
from islt.sequent import Sequent, parse_sequent
from islt.structural import id_general


def proved(text):
    r = prove(parse_sequent(text))
    assert isinstance(r, Proved), text
    return r.proof


def measure_less(a, b):
    if a[0] != b[0]:
        return a[0] < b[0]
    return shortlex_less(a[1], b[1])


def assert_descending(log):
    assert log
    for parent, own in log:
        if parent is not None:
            assert measure_less(own, parent), (parent, own)


def run(instance):
    log = []
    out = cut_admissible(instance, debug=True, log=log)
    assert check(out) is None
    assert not uses_cut(out)
    assert out.root == instance.conclusion
    assert_descending(log)
    return out


def test_hand_instances():
    run(CutInstance(proved("p => p /\\ p"), proved("p, p /\\ p => p")))
    run(CutInstance(proved("p => p"), proved("p, p => q -> p")))
    run(CutInstance(proved("# => #"), proved("#, # => q")))
    run(CutInstance(proved("=> p -> p"), proved("p -> p => (p -> p) \\/ q")))
    run(CutInstance(proved("[]p => [][]p"), proved("[]p, [][]p => []p")))
    # strong-completeness shape: boxed cut formula consumed by a left box rule
    run(CutInstance(proved("p => []p"), proved("p, []p => [](p \\/ q)")))


def random_instances(rng, count, depth=2):
    out = []
    guard = 0
    while len(out) < count:
        guard += 1
        assert guard < count * 120, "cut instances too rare at these settings"
        s1 = random_sequent(rng, depth, max_ant=2)
        r1 = prove(s1)
        if not isinstance(r1, Proved):
            continue
        chi = formula(rng, rng.randrange(1, depth + 1))
        r2 = prove(Sequent(s1.ant.add(s1.suc), chi))
        if not isinstance(r2, Proved):
            continue
        out.append(CutInstance(r1.proof, r2.proof))
    return out


def test_random_instances():
    rng = random.Random(17)
    for instance in random_instances(rng, 200):
        run(instance)


def test_validate_rejects_mismatched_context():
    with pytest.raises(CutError):
        CutInstance(proved("q => p -> p"), proved("p -> p => p -> p")).validate()
    with pytest.raises(CutError):
        cut_admissible(CutInstance(proved("=> p -> p"), proved("q, p -> p => q")))


def test_validate_rejects_cut_bearing_premise():
    left = proved("p => p /\\ p")
    right = proved("p, p /\\ p => p")
    conclusion = Sequent(left.root.ant, right.root.suc)
    cut_node = node(RuleId.Cut, conclusion, None, left, right)
    outer_right = id_general(Sequent(conclusion.ant, conclusion.suc).suc, conclusion.ant)
    with pytest.raises(CutError, match="not cut-free"):
        CutInstance(cut_node, outer_right).validate()


def test_validate_rejects_broken_premise():
    left = proved("p => p /\\ p")
    broken = Derivation(parse_sequent("p, p /\\ p => q"), RuleId.IdP, None, ())
    with pytest.raises(CutError, match="fails checking"):
        CutInstance(left, broken).validate()


def test_eliminate_injected_cuts():
    rng = random.Random(19)
    done = 0
    guard = 0
    while done < 50:
        guard += 1
        assert guard < 4000
        s = random_sequent(rng, 2, max_ant=2)
        r = prove(s)
        if not isinstance(r, Proved):
            continue
        done += 1
        d = r.proof
        for _ in range(rng.randrange(1, 4)):
            d = inject_cut(rng, d)
        assert uses_cut(d)
        assert check(d, allow_cut=True) is None
        log = []
        out = eliminate(d, debug=True, log=log)
        assert out.root == s
        assert not uses_cut(out)
        assert check(out) is None
        assert_descending(log)


def test_eliminate_passthrough_when_cut_free():
    d = proved("p /\\ q => q /\\ p")
    out = eliminate(d)
    assert out.root == d.root
    assert check(out) is None


def test_eliminate_rejects_invalid_input():
    broken = Derivation(parse_sequent("p => q"), RuleId.IdP, None, ())
    with pytest.raises(CutError, match="fails checking"):
        eliminate(broken)


def test_cut_restores_the_callers_recursion_limit():
    base = proved("p => p \\/ q")
    right = id_general(base.root.suc, base.root.ant)
    before = sys.getrecursionlimit()
    sys.setrecursionlimit(4321)
    try:
        eliminate(node(RuleId.Cut, base.root, None, base, right))
        assert sys.getrecursionlimit() == 4321
        cut_admissible(CutInstance(base, right))
        assert sys.getrecursionlimit() == 4321
    finally:
        sys.setrecursionlimit(before)
