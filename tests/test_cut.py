"""Cut admissibility and elimination: acceptance, descent logs, rejection."""

import random
import sys

import pytest
from genlib import chain_proof, formula, inject_cut, random_sequent

from islt.calculus import Derivation, RuleId, check, node, uses_cut
from islt.cut import CutError, CutInstance, cut_admissible, eliminate
from islt.formula import Var
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


def test_cut_admissible_rejects_mismatched_context():
    with pytest.raises(CutError, match="Cut right premise must be context plus the cut formula"):
        cut_admissible(CutInstance(proved("q => p -> p"), proved("p -> p => p -> p")))
    with pytest.raises(CutError):
        cut_admissible(CutInstance(proved("=> p -> p"), proved("q, p -> p => q")))


def test_cut_admissible_removes_a_cut_inside_a_premise():
    left = proved("p => p /\\ p")
    right = proved("p, p /\\ p => p")
    conclusion = Sequent(left.root.ant, right.root.suc)
    cut_node = node(RuleId.Cut, conclusion, None, left, right)
    outer_right = id_general(conclusion.suc, conclusion.ant)
    run(CutInstance(cut_node, outer_right))


def test_cut_admissible_rejects_broken_premise():
    left = proved("p => p /\\ p")
    broken = Derivation(parse_sequent("p, p /\\ p => q"), RuleId.IdP, None, ())
    with pytest.raises(CutError, match="fails checking"):
        cut_admissible(CutInstance(left, broken))


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


class LimitLog(list):
    """A cut log that records the recursion limit at every logged cut."""

    def __init__(self):
        super().__init__()
        self.limits = set()

    def append(self, entry):
        self.limits.add(sys.getrecursionlimit())
        super().append(entry)


def test_cut_restores_the_callers_recursion_limit():
    base = proved("p => p \\/ q")
    right = id_general(base.root.suc, base.root.ant)
    before = sys.getrecursionlimit()
    sys.setrecursionlimit(4321)
    try:
        log = LimitLog()
        eliminate(node(RuleId.Cut, base.root, None, base, right), log=log)
        assert log.limits == {4321}
        assert sys.getrecursionlimit() == 4321
        log = LimitLog()
        cut_admissible(CutInstance(base, right), log=log)
        assert log.limits == {4321}
        assert sys.getrecursionlimit() == 4321
    finally:
        sys.setrecursionlimit(before)


def chain_cut(n):
    """The cut of p, p -> q1, ..., q(n-1) -> qn => qn, proved n + 1 high,
    against the identity on qn: as an instance and as a Cut node."""
    left = chain_proof(n)
    instance = CutInstance(left, id_general(left.root.suc, left.root.ant))
    return instance, node(RuleId.Cut, instance.conclusion, None, instance.left, instance.right)


def test_a_proof_too_tall_for_the_limit_is_a_cut_error():
    instance, cut = chain_cut(599)
    before = sys.getrecursionlimit()
    sys.setrecursionlimit(500)
    try:
        with pytest.raises(CutError, match="too tall"):
            cut_admissible(instance)
        with pytest.raises(CutError, match="too tall"):
            eliminate(cut)
        assert sys.getrecursionlimit() == 500
    finally:
        sys.setrecursionlimit(before)


def test_a_cut_that_contracts_a_tall_premise_is_made():
    # the left premise is an IdP leaf on the atomic cut formula r, so the
    # cut contracts r out of the 701-high right premise, one frame a level.
    # Through a list comprehension contraction took two frames a level on
    # Python 3.10 and 3.11 and failed above 495; 3.12 inlines
    # comprehensions into the calling frame, so there it passed either way
    r = Var("r")
    right = chain_proof(700, r, r)
    left = node(RuleId.IdP, Sequent(right.root.ant.remove(r), r), None)
    out = cut_admissible(CutInstance(left, right))
    assert check(out) is None and out.root == Sequent(left.root.ant, right.root.suc)


def test_a_proof_within_the_default_limit_is_cut():
    # each level of the chain costs the cut one frame
    instance, cut = chain_cut(599)
    for out in (cut_admissible(instance), eliminate(cut)):
        assert check(out) is None and out.root == instance.conclusion
