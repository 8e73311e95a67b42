import random
from collections import Counter

import pytest

from genlib import formula, random_sequent
from islt.formula import And, Bot, Box, Imp, Or, Var, parse_formula, print_formula, sort_key
from islt.sequent import (
    Multiset,
    Sequent,
    parse_sequent,
    partition_boxed,
    print_sequent,
    sequent,
    unbox_one_level,
)

p, q, r = Var("p"), Var("q"), Var("r")


def test_multiset_counts_and_iteration():
    m = Multiset.from_iterable([q, p, q])
    assert m.count(q) == 2
    assert m.count(p) == 1
    assert m.count(r) == 0
    assert len(m) == 3
    assert p in m and r not in m
    # iteration follows the canonical formula order, with repeats
    listed = list(m)
    assert listed == sorted(listed, key=sort_key)
    assert listed.count(q) == 2


def test_multiset_is_its_sorted_tuple():
    """Counting, membership, length, iteration, equality and hash are the
    tuple's own C slots, with no forwarding layer."""
    assert issubclass(Multiset, tuple)
    for name in ("__contains__", "__len__", "__iter__", "count", "__eq__", "__hash__"):
        assert getattr(Multiset, name) is getattr(tuple, name), name
    m = Multiset.of(q, p)
    assert m == (p, q) and hash(m) == hash((p, q))
    assert m.entries == (p, q) and type(m.entries) is tuple


def test_multiset_add_remove_union():
    m = Multiset.of(p)
    m2 = m.add(q).add(q)
    assert m2.count(q) == 2 and m.count(q) == 0
    assert m2.remove(q).count(q) == 1
    with pytest.raises(KeyError):
        m.remove(q)
    u = m2.union(Multiset.of(p))
    assert u.count(p) == 2
    assert m2.remove_all(Multiset.of(q)).count(q) == 1
    with pytest.raises(KeyError):
        m.remove_all(Multiset.from_iterable([p, p]))


def test_exchange_is_identity():
    """Antecedents are canonical multisets: insertion order cannot matter."""
    rng = random.Random(5)
    for _ in range(300):
        fs = [formula(rng, rng.randrange(0, 4)) for _ in range(rng.randrange(0, 5))]
        suc = formula(rng, 2)
        shuffled = fs[:]
        rng.shuffle(shuffled)
        assert sequent(fs, suc) == sequent(shuffled, suc)


def test_partition_boxed_is_the_maximal_split():
    ant = Multiset.from_iterable(
        [Box(And(p, q)), Or(p, q), Box(Box(r)), Imp(p, q)]
    )
    phi, gamma = partition_boxed(ant)
    assert set(phi) == {Or(p, q), Imp(p, q)}
    assert set(gamma) == {And(p, q), Box(r)}
    # every boxed member went to gamma: maximality
    assert not any(isinstance(f, Box) for f in phi)


def test_unbox_one_level_strips_exactly_one_box():
    ant = Multiset.from_iterable([Box(Box(p)), Box(q), r])
    u = unbox_one_level(ant)
    assert u == Multiset.from_iterable([Box(p), q, r])
    rng = random.Random(29)
    for _ in range(300):
        a = random_sequent(rng, 3, max_ant=4).ant
        phi, gamma = partition_boxed(a)
        assert unbox_one_level(a) == phi.union(gamma), a


def test_sequent_parse_print_roundtrip():
    texts = [
        "[](p /\\ q), p \\/ q => q -> p",
        "=> []p",
        "p => p",
        "p, p, q => #",
    ]
    for text in texts:
        s = parse_sequent(text)
        assert parse_sequent(print_sequent(s)) == s
    s = parse_sequent("p, p, q => #")
    assert s.ant.count(p) == 2


def test_sequent_str_matches_print():
    s = sequent([Box(p), q], Imp(q, p))
    assert str(s) == print_sequent(s)
    assert "=>" in str(s)


def test_parse_sequent_rejects_garbage():
    from islt.formula import ParseError

    for text in ["p", "=>", "p => q => r", "p, => q"]:
        with pytest.raises(ParseError):
            parse_sequent(text)


def test_random_sequent_roundtrip():
    rng = random.Random(19)
    for _ in range(500):
        fs = [formula(rng, rng.randrange(0, 5)) for _ in range(rng.randrange(0, 4))]
        s = sequent(fs, formula(rng, rng.randrange(0, 5)))
        assert parse_sequent(print_sequent(s)) == s


def _oracle(counts: Counter) -> list:
    """The occurrences counts holds, sorted by sort_key, repeats side by side."""
    return sorted(counts.elements(), key=sort_key)


def test_multiset_against_a_counter_oracle():
    rng = random.Random(23)
    pool = list(dict.fromkeys(formula(rng, rng.randrange(0, 3)) for _ in range(12)))
    for _ in range(400):
        fs = [rng.choice(pool) for _ in range(rng.randrange(0, 7))]
        want = Counter(fs)
        m = Multiset.from_iterable(fs)
        shuffled = fs[:]
        rng.shuffle(shuffled)
        other_order = Multiset.of(*shuffled)
        assert m == other_order and hash(m) == hash(other_order)
        assert list(m) == list(m.entries) == _oracle(want)
        assert len(m) == len(fs)
        assert list(m.distinct()) == sorted(want, key=sort_key)
        for f in pool:
            assert m.count(f) == want[f] and (f in m) == (want[f] > 0)
        # built one occurrence at a time, in another order
        built = Multiset()
        for f in shuffled:
            built = built.add(f)
        assert built == m and hash(built) == hash(m)
        f = rng.choice(pool)
        assert list(m.add(f)) == _oracle(want + Counter([f]))
        if want[f]:
            assert list(m.remove(f)) == _oracle(want - Counter([f]))
        else:
            with pytest.raises(KeyError) as e:
                m.remove(f)
            assert e.value.args[0] == f"removing 1 of {print_formula(f)}, only 0 present"
        gs = [rng.choice(pool) for _ in range(rng.randrange(0, 4))]
        other = Multiset.from_iterable(gs)
        assert list(m.union(other)) == _oracle(want + Counter(gs))
        short = Counter(gs) - want
        if short:
            g = min(short, key=sort_key)
            with pytest.raises(KeyError) as e:
                m.remove_all(other)
            assert e.value.args[0] == f"removing {gs.count(g)} of {print_formula(g)}, only {want[g]} present"
        else:
            assert list(m.remove_all(other)) == _oracle(want - Counter(gs))
