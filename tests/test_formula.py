import copy
import gc
import hashlib
import pickle
import random
import weakref

import pytest

from genlib import formula
from islt import calculus
from islt.formula import (
    And,
    Bot,
    Box,
    Formula,
    Imp,
    Or,
    ParseError,
    Var,
    _TABLE,
    parse_formula,
    print_formula,
    sort_key,
    variables,
    weight,
)
from islt.sequent import Multiset, Sequent, parse_sequent

p, q, r = Var("p"), Var("q"), Var("r")


def test_parse_precedence_and_associativity():
    assert parse_formula("p -> q -> r") == Imp(p, Imp(q, r))
    assert parse_formula("p \\/ q /\\ r") == Or(p, And(q, r))
    assert parse_formula("p /\\ q -> r") == Imp(And(p, q), r)
    assert parse_formula("p \\/ q \\/ r") == Or(Or(p, q), r)
    assert parse_formula("p /\\ q /\\ r") == And(And(p, q), r)
    assert parse_formula("[]p -> p") == Imp(Box(p), p)
    assert parse_formula("[](p -> q)") == Box(Imp(p, q))
    assert parse_formula("[][]p") == Box(Box(p))


def test_negation_is_parser_sugar():
    assert parse_formula("~p") == Imp(p, Bot())
    assert parse_formula("~~p") == Imp(Imp(p, Bot()), Bot())
    assert parse_formula("~p \\/ p") == Or(Imp(p, Bot()), p)
    # printing never reintroduces the sugar
    assert print_formula(Imp(p, Bot())) == "p -> #"


def test_print_minimal_parentheses():
    assert print_formula(Imp(p, Imp(q, r))) == "p -> q -> r"
    assert print_formula(Imp(Imp(p, q), r)) == "(p -> q) -> r"
    assert print_formula(And(p, Or(q, r))) == "p /\\ (q \\/ r)"
    assert print_formula(Or(And(p, q), r)) == "p /\\ q \\/ r"
    assert print_formula(Box(Imp(p, q))) == "[](p -> q)"
    assert print_formula(Box(p)) == "[]p"
    assert print_formula(And(p, And(q, r))) == "p /\\ (q /\\ r)"


# the tokens, and two characters that are none
_TOKENS = ("p", "q", "r1", "#", "->", "\\/", "/\\", "[]", "~", "(", ")", ",", "=>", "P", "$")
SYNTAX_DIGEST = "ec8f31ae0d59a66310a064ebb5ccd5096b6880e321d7645126b68a050c7808f9"


def _parsed(parse, text: str) -> str:
    try:
        return repr(parse(text))
    except ParseError as e:
        return f"ParseError: {e}"


def test_golden_parse_and_print():
    """Pins the concrete syntax: what parse_formula and parse_sequent make
    of random token strings (the structure, or the exact error message and
    position), and what print_formula writes for random formulas, each of
    which must parse back to the same object."""
    rng = random.Random(41)
    h = hashlib.sha256()
    for _ in range(10_000):
        text = "".join(rng.choice(_TOKENS) + rng.choice(("", " ", "\t\n")) for _ in range(rng.randrange(12)))
        h.update(f"{text}\n{_parsed(parse_formula, text)}\n{_parsed(parse_sequent, text)}\n".encode())
    for _ in range(3_000):
        f = formula(rng, rng.randrange(0, 7))
        text = print_formula(f)
        assert parse_formula(text) is f
        h.update(f"{text}\n".encode())
    assert h.hexdigest() == SYNTAX_DIGEST


def test_parse_errors_carry_position():
    for text in ["", "p ->", "(p", "p q", "p export", "->", "p -> #)", "P"]:
        with pytest.raises(ParseError):
            parse_formula(text)
    try:
        parse_formula("p -> (q")
    except ParseError as e:
        assert e.pos == 7


def test_weight_base_cases():
    assert weight(p) == 1
    assert weight(Bot()) == 1
    assert weight(Or(p, q)) == 3
    assert weight(Imp(p, q)) == 3
    assert weight(And(p, q)) == 4
    assert weight(Box(p)) == 2


def test_weight_curry_inequality_hand():
    lhs = weight(Imp(p, Imp(q, r)))
    rhs = weight(Imp(And(p, q), r))
    assert lhs == 5 and rhs == 6
    assert lhs < rhs


def test_weight_curry_inequality_random():
    rng = random.Random(101)
    for _ in range(500):
        f, g, h = (formula(rng, rng.randrange(0, 5)) for _ in range(3))
        assert weight(Imp(f, Imp(g, h))) < weight(Imp(And(f, g), h))


def test_roundtrip_random():
    rng = random.Random(7)
    for _ in range(2000):
        f = formula(rng, rng.randrange(0, 7))
        assert parse_formula(print_formula(f)) == f


def test_compare_total_order():
    rng = random.Random(13)
    pool = [formula(rng, rng.randrange(0, 4)) for _ in range(120)]
    for a in pool[:40]:
        for b in pool[:40]:
            ka, kb = sort_key(a), sort_key(b)
            assert [ka < kb, ka == kb, kb < ka].count(True) == 1
            assert (ka == kb) == (a == b)
    # sorting twice is stable
    once = sorted(pool, key=sort_key)
    assert sorted(once, key=sort_key) == once


def test_compare_rank_order():
    ordered = [Bot(), p, And(p, p), Or(p, p), Imp(p, p), Box(p)]
    for i, a in enumerate(ordered):
        for b in ordered[i + 1 :]:
            assert sort_key(a) < sort_key(b)


def test_variables():
    assert variables(parse_formula("p -> ([]q /\\ #)")) == {"p", "q"}
    assert variables(Bot()) == set()


def reference_weight(f: Formula) -> int:
    """The recursive definition the stored weight must agree with."""
    if isinstance(f, (Var, Bot)):
        return 1
    if isinstance(f, (Or, Imp)):
        return reference_weight(f.left) + reference_weight(f.right) + 1
    if isinstance(f, And):
        return reference_weight(f.left) + reference_weight(f.right) + 2
    return reference_weight(f.body) + 1


_RANK = {Bot: 0, Var: 1, And: 2, Or: 3, Imp: 4, Box: 5}


def reference_sort_key(f: Formula):
    """The recursive structural key the stored key must agree with."""
    if isinstance(f, Bot):
        return (0,)
    if isinstance(f, Var):
        return (1, f.name)
    if isinstance(f, Box):
        return (5, reference_sort_key(f.body))
    return (_RANK[type(f)], reference_sort_key(f.left), reference_sort_key(f.right))


def test_equal_formulas_are_one_object():
    assert Var("p") is Var("p")
    assert Bot() is Bot()
    assert Var("p") is not Var("q")
    text = "[](p -> q) /\\ # \\/ ~r"
    built = Or(And(Box(Imp(p, q)), Bot()), Imp(r, Bot()))
    parsed = parse_formula(text)
    leaf = calculus.node(calculus.RuleId.IdP, Sequent(Multiset.of(built), built), None)
    loaded = calculus.loads(calculus.dumps(leaf)).root.suc
    assert parsed is built and loaded is built
    assert And(p, q) is not Or(p, q)
    assert pickle.loads(pickle.dumps(built)) is built
    assert copy.deepcopy(built) is built
    assert repr(Imp(p, Bot())) == "Imp(Var('p'), Bot())"


def test_the_intern_table_keeps_no_formula_alive():
    f = Imp(And(Var("fresh_a"), Var("fresh_b")), Box(Var("fresh_c")))
    refs = [weakref.ref(g) for g in (f, f.left, f.right, f.left.left, f.right.body)]
    del f
    assert [r() for r in refs] == [None] * len(refs)
    # the entries, which hold their node's children, go with the nodes,
    # even down a chain too deep to free by recursion
    gc.collect()  # so that no other formula dies in between
    before = len(_TABLE)
    f = Var("fresh_d")
    for i in range(100_000):
        f = Imp(q, f) if i % 2 else Box(f)
    assert len(_TABLE) == before + 100_001
    del f
    assert len(_TABLE) == before


def test_formulas_are_immutable():
    f = And(p, q)
    for obj, name in [(p, "name"), (f, "left"), (f, "weight"), (f, "key"), (Box(p), "body")]:
        with pytest.raises(AttributeError):
            setattr(obj, name, q)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert f.left is p and weight(f) == 4


def test_stored_weight_and_key_match_the_recursive_definitions():
    rng = random.Random(29)
    pool = [formula(rng, rng.randrange(0, 6)) for _ in range(1500)]
    for f in pool:
        assert weight(f) == reference_weight(f)
        assert sort_key(f) == reference_sort_key(f)
    assert sorted(pool, key=sort_key) == sorted(pool, key=reference_sort_key)
    for a, b in zip(pool, pool[1:]):
        ka, kb = reference_sort_key(a), reference_sort_key(b)
        assert (sort_key(a) < sort_key(b)) == (ka < kb)


def test_deep_formulas_need_no_recursion():
    f = p
    for i in range(20_000):
        f = Imp(q, f) if i % 2 else Box(f)
    assert weight(f) == 1 + 10_000 * 1 + 10_000 * 2
    assert hash(f) == hash(f) and (f == f) is True
    assert sort_key(f) == sort_key(f) and sort_key(f) > sort_key(p) and sort_key(Box(f)) > sort_key(f)
    ms = Multiset.of(p, Box(f)).add(f).add(f)
    assert ms.count(f) == 2 and len(ms) == 4
    assert ms.remove(f).count(f) == 1
    assert variables(f) == {"p", "q"}
    shared = p
    for _ in range(60):
        shared = And(shared, Imp(shared, q))  # 2**60 paths, 121 nodes
    assert variables(shared) == {"p", "q"}
