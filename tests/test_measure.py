import random
from collections import Counter

from genlib import formula, random_sequent
from islt.calculus import expand
from islt.formula import Box, weight
from islt.measure import shortlex_less, theta, weight_histogram
from islt.sequent import Multiset, Sequent, parse_sequent, unbox_one_level


def test_worked_examples():
    assert theta(parse_sequent("[](p /\\ q), p \\/ q => q -> p")) == [1, 2, 0, 0]
    assert theta(parse_sequent("[]p => p")) == [2]
    assert theta(parse_sequent("=> []p")) == [1, 0]


def test_worked_shortlex():
    assert shortlex_less([2], [1, 0])
    assert not shortlex_less([1, 0], [2])
    assert shortlex_less([1, 2, 0, 0], [2, 2, 0, 0])
    assert not shortlex_less([2], [2])
    assert shortlex_less([], [1])


def test_histogram_shape():
    ms = Multiset.from_iterable([parse_sequent("p => p").suc])  # single atom
    assert weight_histogram(ms) == [1]
    assert weight_histogram(Multiset()) == []
    # index k from the right counts formulas of weight k
    s = parse_sequent("p, p -> q => q")
    t = theta(s)
    assert len(t) == 3  # max weight is 3
    assert t[-1] == 2  # two weight-1 formulas: p and the succedent q
    assert t[0] == 1  # one weight-3 formula


def test_unboxing_feeds_the_histogram():
    # the antecedent box is opened one level before weighing
    s = parse_sequent("[][]p => p")
    # unboxed antecedent contributes []p (weight 2); succedent p (weight 1)
    assert theta(s) == [1, 1]


def test_rules_strictly_decrease_theta():
    rng = random.Random(47)
    checked = 0
    for _ in range(800):
        s = random_sequent(rng, 4)
        t = theta(s)
        for inst in expand(s):
            for prem in inst.premises:
                assert shortlex_less(theta(prem), t), (
                    f"{inst.rule.value} failed to decrease theta at {s}"
                )
                checked += 1
    assert checked > 1000


def test_without_unboxing_the_strong_rule_does_not_decrease():
    """Regression: the measure must weigh antecedents after one unboxing.
    The plain histogram fails on the strong right rule."""

    def flat_theta(s: Sequent):
        return weight_histogram(s.ant.add(s.suc))

    s = parse_sequent("=> []p")
    inst = [i for i in expand(s) if i.rule.value == "SLtR"][0]
    prem = inst.premises[0]
    assert not shortlex_less(flat_theta(prem), flat_theta(s))
    # the real measure handles it
    assert shortlex_less(theta(prem), theta(s))


def test_theta_against_the_multiset_definition():
    """theta reads the stored weights; the oracle builds the unboxed
    antecedent plus the succedent as a multiset and histograms it."""
    rng = random.Random(61)
    boxed = 0
    for _ in range(3000):
        s = random_sequent(rng, 5, max_ant=5)
        assert theta(s) == weight_histogram(unbox_one_level(s.ant).add(s.suc)), s
        boxed += sum(isinstance(f, Box) for f in s.ant)
    assert boxed > 1000


def test_weight_histogram_against_a_counter_oracle():
    rng = random.Random(67)
    assert weight_histogram([]) == []
    for _ in range(1500):
        fs = [formula(rng, rng.randrange(4)) for _ in range(rng.randrange(1, 9))]
        counts = Counter(map(weight, fs))
        top = max(counts)
        assert weight_histogram(fs) == [counts[top - i] for i in range(top)], fs
