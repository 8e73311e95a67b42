"""Kripke model validation, forcing, enumeration, and countermodel search."""

import copy
import hashlib
import json
import pickle
import random
from itertools import combinations

import pytest
from genlib import formula, proved_proofs, random_sequent

from islt import semantics
from islt.formula import And, Bot, Box, Imp, Or, Var, parse_formula
from islt.semantics import (
    ENUMERATION_BOUND,
    KripkeModel,
    enumerate_models,
    evaluator,
    find_countermodel,
    forces,
    model_from_json,
    model_to_json,
    valid,
    validate_model,
)
from islt.sequent import Multiset, Sequent, parse_sequent, sequent
from islt.sequent import variables as sequent_variables


def chain2(p_at=(1,), r_pairs=((0, 1),)):
    """Two worlds, 0 below 1."""
    return KripkeModel(
        2,
        frozenset([(0, 0), (1, 1), (0, 1)]),
        frozenset(r_pairs),
        {"p": frozenset(p_at)},
    )


def forces_slow(m, w, f):
    """Forcing straight from the clauses, no sharing; oracle for evaluator."""
    if isinstance(f, Var):
        return w in m.valuation.get(f.name, frozenset())
    if isinstance(f, Bot):
        return False
    if isinstance(f, And):
        return forces_slow(m, w, f.left) and forces_slow(m, w, f.right)
    if isinstance(f, Or):
        return forces_slow(m, w, f.left) or forces_slow(m, w, f.right)
    if isinstance(f, Imp):
        return all(
            forces_slow(m, v, f.right)
            for (u, v) in m.leq
            if u == w and forces_slow(m, v, f.left)
        )
    if isinstance(f, Box):
        return all(forces_slow(m, v, f.body) for (u, v) in m.r if u == w)
    raise TypeError(f)


def test_validate_model_accepts_chain():
    assert validate_model(chain2()) == []


@pytest.mark.parametrize(
    "model, fragment",
    [
        (KripkeModel(0, frozenset(), frozenset(), {}), "at least one world"),
        (KripkeModel(1, frozenset(), frozenset(), {}), "not reflexive"),
        (
            KripkeModel(1, frozenset([(0, 0), (0, 5)]), frozenset(), {}),
            "out of range",
        ),
        (
            KripkeModel(
                3,
                frozenset([(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)]),
                frozenset(),
                {},
            ),
            "not transitive",
        ),
        (
            KripkeModel(1, frozenset([(0, 0)]), frozenset([(0, 0)]), {}),
            "not irreflexive",
        ),
        (
            KripkeModel(
                2,
                frozenset([(0, 0), (1, 1)]),
                frozenset([(0, 1)]),
                {},
            ),
            "not inside leq",
        ),
        (
            KripkeModel(
                3,
                frozenset([(0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (0, 2)]),
                frozenset([(1, 2)]),
                {},
            ),
            "escapes r",
        ),
        (chain2(p_at=(0,)), "not persistent"),
        (
            KripkeModel(1, frozenset([(0, 0)]), frozenset(), {"p": frozenset([3])}),
            "out of range",
        ),
    ],
)
def test_validate_model_rejections(model, fragment):
    problems = validate_model(model)
    assert problems, model
    assert any(fragment in msg for msg in problems), problems


def test_forcing_hand_cases():
    m = chain2()
    p = Var("p")
    assert not forces(m, 0, p)
    assert forces(m, 1, p)
    # 0 sees 1 where p holds, so p -> # fails at 0, and so does p \/ ~p
    assert not forces(m, 0, parse_formula("p \\/ ~p"))
    assert forces(m, 1, parse_formula("p \\/ ~p"))
    # every r-successor of 0 forces p, and 0 itself does not
    assert forces(m, 0, Box(p))
    assert not forces(m, 0, parse_formula("[]p -> p"))
    # no successors at the top: box is vacuous
    assert forces(m, 1, Box(Bot()))


def test_forces_world_range():
    with pytest.raises(ValueError):
        forces(chain2(), 2, Var("p"))


def valid_slow(m, s):
    return all(
        forces_slow(m, w, s.suc)
        for w in range(m.worlds)
        if all(forces_slow(m, w, f) for f in s.ant.distinct())
    )


def _variants(m):
    """m rebuilt by hand, through JSON, without its first variable, and
    with an extra variable true everywhere."""
    first = min(m.valuation)
    yield KripkeModel(m.worlds, m.leq, m.r, dict(m.valuation))
    yield model_from_json(model_to_json(m))
    yield KripkeModel(m.worlds, m.leq, m.r, {k: v for k, v in m.valuation.items() if k != first})
    yield KripkeModel(m.worlds, m.leq, m.r, {**m.valuation, "s": frozenset(range(m.worlds))})


def test_evaluator_matches_slow_forcing():
    rng = random.Random(7)
    models = [m for m in enumerate_models(2, ["p", "q"]) if rng.randrange(4) == 0]
    models += [m for m in enumerate_models(3, ["p", "q", "r"]) if rng.randrange(300) == 0]
    assert len(models) > 50 and {m.worlds for m in models} == {1, 2, 3}
    for m in models:
        for k in (m, *_variants(m)):
            ext = evaluator(k)
            for _ in range(8):
                f = formula(rng, rng.randrange(4), ("p", "q", "r", "s"))
                got = ext(f)
                for w in range(k.worlds):
                    assert bool(got >> w & 1) == forces(k, w, f) == forces_slow(k, w, f), (k, f, w)
                s = random_sequent(rng, 2, max_ant=2, variables=("p", "q", "r", "s"))
                assert valid(k, s) == valid_slow(k, s), (k, s)


def test_enumerated_and_hand_built_models_are_one_value():
    for m in enumerate_models(2, ["p", "q"]):
        evaluator(m)(Var("p"))
        hand = KripkeModel(m.worlds, m.leq, m.r, dict(m.valuation))
        forces(hand, 0, Var("p"))
        assert m == hand and hash(m) == hash(hand)
        assert repr(m) == repr(hand) and model_to_json(m) == model_to_json(hand)
        assert pickle.dumps(m) == pickle.dumps(hand)
        assert pickle.loads(pickle.dumps(m)) == m == copy.deepcopy(m)


def test_persistence_on_enumerated_models():
    rng = random.Random(11)
    fs = [formula(rng, rng.randrange(4), ("p", "q")) for _ in range(40)]
    for m in enumerate_models(2, ["p", "q"]):
        for f in fs:
            ext = evaluator(m)(f)
            for (a, b) in m.leq:
                if ext >> a & 1:
                    assert ext >> b & 1, (m, f, a, b)


def test_valid_hand_cases():
    m = chain2()
    assert valid(m, parse_sequent("p => p"))
    assert valid(m, parse_sequent("p, p -> q => q"))
    assert not valid(m, parse_sequent("=> p \\/ ~p"))
    assert not valid(m, parse_sequent("[]p => p"))
    # antecedent repeats are semantically idle
    assert valid(m, parse_sequent("p, p => p"))


def test_enumeration_counts():
    # frozen from the frame case analysis: 4 preorders on two worlds give
    # 4+6+6+2 models at one variable, plus 2 single-world ones
    assert sum(1 for _ in enumerate_models(1, ["p"])) == 2
    assert sum(1 for _ in enumerate_models(2, ["p"])) == 20
    assert sum(1 for _ in enumerate_models(1, ["p", "q"])) == 4
    assert sum(1 for _ in enumerate_models(2, ["p", "q"])) == 60
    assert sum(1 for _ in enumerate_models(3, ["p"])) == 432
    assert sum(1 for _ in enumerate_models(4, ["p"], bound=4)) == 21046


def test_enumeration_matches_brute_force():
    # raw 2-world space: every leq/r pair set x every valuation, filtered
    # only by validate_model; must agree with the structured enumeration
    pairs = [(a, b) for a in range(2) for b in range(2)]
    subsets = lambda xs: (
        frozenset(c) for k in range(len(xs) + 1) for c in combinations(xs, k)
    )
    raw = 0
    for leq in subsets(pairs):
        for r in subsets(pairs):
            for val in subsets(range(2)):
                m = KripkeModel(2, leq, r, {"p": val})
                if validate_model(m) == []:
                    raw += 1
    structured = sum(1 for m in enumerate_models(2, ["p"]) if m.worlds == 2)
    assert raw == structured == 18


def test_enumeration_no_duplicates_and_all_valid():
    ms = list(enumerate_models(2, ["p", "q"]))
    assert len(set(ms)) == len(ms)
    for m in ms:
        assert validate_model(m) == []


def test_enumeration_deterministic():
    a = list(enumerate_models(2, ["p"]))
    b = list(enumerate_models(2, ["p"]))
    assert a == b


def test_enumeration_bound():
    with pytest.raises(ValueError):
        list(enumerate_models(ENUMERATION_BOUND + 1, ["p"]))
    with pytest.raises(ValueError):
        find_countermodel(parse_sequent("=> p"), max_worlds=4)
    with pytest.raises(ValueError):
        list(enumerate_models(0, ["p"]))
    with pytest.raises(ValueError):
        find_countermodel(parse_sequent("=> p"), max_worlds=0)
    # raising the bound explicitly is allowed
    assert find_countermodel(parse_sequent("p => p"), max_worlds=1, bound=5) is None


@pytest.mark.parametrize(
    "text, worlds",
    [
        ("=> []p -> p", 2),
        ("=> ((p -> q) -> p) -> p", 2),
        ("=> p \\/ ~p", 3),
    ],
)
def test_countermodel_found_and_refutes(text, worlds):
    s = parse_sequent(text)
    got = find_countermodel(s, max_worlds=worlds)
    assert got is not None
    m, w = got
    assert validate_model(m) == []
    assert all(forces(m, w, f) for f in s.ant)
    assert not forces(m, w, s.suc)


def test_countermodel_none_for_theorems():
    for text in ("p => p", "=> (p -> p) \\/ q", "=> p -> []p"):
        assert find_countermodel(parse_sequent(text), max_worlds=2) is None


def test_countermodel_infers_variables():
    got = find_countermodel(parse_sequent("=> q"))
    assert got is not None
    m, w = got
    assert set(m.valuation) == {"q"}
    assert not forces(m, w, Var("q"))


def test_proved_sequents_valid_on_small_models():
    rng = random.Random(23)
    proofs = proved_proofs(rng, 30, depth=2, variables=("p", "q"))
    models = list(enumerate_models(2, ["p", "q"]))
    for d in proofs:
        for m in models:
            assert valid(m, d.root), (m, d.root)


def test_model_json_roundtrip():
    for m in enumerate_models(2, ["p"]):
        obj = model_to_json(m)
        assert model_from_json(obj) == m
    obj = model_to_json(chain2())
    assert obj["worlds"] == 2
    assert obj["leq"] == [[0, 0], [0, 1], [1, 1]]
    assert obj["r"] == [[0, 1]]
    assert obj["valuation"] == {"p": [1]}


# sha256 over each goal of countermodel_digest's corpus and find_countermodel's
# answer to it, recorded before frame batching: the first model in
# enumeration order and its lowest refuting world, or none
COUNTERMODEL_DIGEST = "2434db442a9e2a2588679701cb02fc2e12d427b85074bc2cd8a2a452554e379d"


def countermodel_digest(count):
    rng = random.Random(11)
    h = hashlib.sha256()
    for _ in range(count):
        s = random_sequent(rng, 3, max_ant=3, variables=("p", "q", "r"))
        got = find_countermodel(s)
        line = "none" if got is None else f"{json.dumps(model_to_json(got[0]), sort_keys=True)} {got[1]}"
        h.update(f"{s} {line}\n".encode())
    return h.hexdigest()


def test_golden_countermodels():
    assert countermodel_digest(400) == COUNTERMODEL_DIGEST


def test_narrow_batches_change_nothing(monkeypatch):
    rng = random.Random(13)
    goals = [random_sequent(rng, 3, max_ant=2, variables=("p", "q", "r")) for _ in range(24)]

    def answers():
        names = {s: tuple(sorted(sequent_variables(s))) for s in goals}
        models = {v: list(enumerate_models(3, v)) for v in set(names.values())}
        valid_in = [[valid(m, s) for m in models[names[s]] if m.worlds < 3] for s in goals]
        return [find_countermodel(s) for s in goals], models, valid_in

    wide = answers()
    # at most three valuations a batch: frames with two or three up-sets
    # batch one trailing variable, larger ones none (batches of width 1)
    monkeypatch.setattr(semantics, "_MAX_WIDTH", 3)
    assert answers() == wide
    assert None in wide[0] and len(set(wide[0])) > 2


def test_deep_formulas_evaluate_without_recursion():
    p, q = Var("p"), Var("q")
    f = p
    for i in range(20_000):
        f = Imp(q, f) if i % 2 else Box(f)
    m = chain2()
    assert forces(m, 1, f) and evaluator(m)(f) == 0b11
    assert valid(m, sequent([], f)) and not valid(m, sequent([f], q))
    assert find_countermodel(sequent([], f), max_worlds=1) is None
    m, w = find_countermodel(sequent([f], q), max_worlds=1)
    assert (m.worlds, w, m.valuation) == (1, 0, {"p": frozenset(), "q": frozenset()})
