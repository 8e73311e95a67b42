"""Acceptance suite: one test per numbered criterion, exact counts and
tolerances as stated. These are deliberately heavyweight; the unit modules
cover the same ground at commit-test speed."""

import json
import random
import time

from genlib import DEFAULT_VARS, formula, proved_proofs, random_sequent, world_masks

from islt.calculus import RuleId, check, expand, height, node, uses_cut
from islt.cli import main
from islt.cut import CutInstance, cut_admissible, eliminate
from islt.formula import And, Box, Imp, Or, parse_formula, print_formula, weight
from islt.hilbert import AxiomId, axiom_instance, metavariables
from islt.measure import shortlex_less, theta
from islt.search import BudgetExceeded, Proved, Unprovable, prove
from islt.semantics import enumerate_models, find_countermodel, forces, validate_model
from islt.sequent import Sequent, parse_sequent, variables as sequent_variables
from islt.structural import (
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


def test_criterion_01_theta_worked_values():
    assert theta(parse_sequent("[](p /\\ q), p \\/ q => q -> p")) == [1, 2, 0, 0]
    assert theta(parse_sequent("[]p => p")) == [2]
    assert theta(parse_sequent("=> []p")) == [1, 0]
    assert shortlex_less([2], [1, 0])


def test_criterion_02_theta_decreases_through_every_rule():
    rng = random.Random(101)
    start = time.monotonic()
    checked = 0
    for _ in range(10_000):
        s = random_sequent(rng, 6, max_ant=3, variables=DEFAULT_VARS)
        base = theta(s)
        for inst in expand(s):
            for premise in inst.premises:
                assert shortlex_less(theta(premise), base), (s, inst.rule, premise)
                checked += 1
    elapsed = time.monotonic() - start
    assert checked > 10_000
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_03_naive_strong_termination():
    # sequent weight capped at 22: memo-free search re-explores the proof
    # DAG exponentially, so raw size must stay moderate for a 1,000-run
    # suite; verdicts still cross-check against the memoized prover
    rng = random.Random(2024)
    for i in range(1_000):
        s = random_sequent(rng, 5, max_ant=3, variables=DEFAULT_VARS, max_weight=22)
        got = prove(s, naive=True, seed=i % 50, debug=True, budget=500_000)
        assert not isinstance(got, BudgetExceeded), s
        assert type(got) is type(prove(s)), s
    # order independence: one subset under every seed, identical verdicts
    for _ in range(60):
        s = random_sequent(rng, 5, max_ant=3, variables=DEFAULT_VARS, max_weight=18)
        kinds = {type(prove(s, naive=True, seed=seed, debug=True)) for seed in range(50)}
        assert len(kinds) == 1, s


def test_criterion_04_regression_verdicts():
    proved = [
        "([]p -> p) -> p",
        "p -> []p",
        "[]([]p -> p) -> []p",
        "[](p -> q) -> []p -> []q",
    ]
    rng = random.Random(104)
    for a in AxiomId:
        for _ in range(3):
            subst = {v: formula(rng, rng.randrange(4)) for v in metavariables(a)}
            proved.append(print_formula(axiom_instance(a, subst)))
    unprovable = ["[]p -> p", "((p -> q) -> p) -> p", "p \\/ (p -> #)", "p", "#"]
    for text in proved:
        start = time.monotonic()
        r = prove(parse_sequent(f"=> {text}"))
        assert time.monotonic() - start < 1.0, text
        assert isinstance(r, Proved), text
        assert check(r.proof) is None
    for text in unprovable:
        start = time.monotonic()
        r = prove(parse_sequent(f"=> {text}"))
        assert time.monotonic() - start < 1.0, text
        assert isinstance(r, Unprovable), text


def _models_by_subset(cache, names):
    key = tuple(sorted(names))
    if key not in cache:
        cache[key] = list(enumerate_models(3, list(key)))
    return cache[key]


def test_criterion_05_proved_sequents_semantically_valid():
    rng = random.Random(105)
    proofs = proved_proofs(rng, 500, depth=2, variables=("p", "q", "r"))
    by_subset = {}
    for d in proofs:
        by_subset.setdefault(frozenset(sequent_variables(d.root)), []).append(d.root)
    cache = {}
    for subset, roots in by_subset.items():
        formulas = [f for s in roots for f in (*s.ant.distinct(), s.suc)]
        for m in _models_by_subset(cache, subset):
            masks = world_masks(m, formulas)
            full = (1 << m.worlds) - 1
            for s in roots:
                mask = full
                for f in s.ant.distinct():
                    mask &= masks[f]
                assert not (mask & ~masks[s.suc]), (m, s)


def test_criterion_06_countermodels_for_classics():
    for text, worlds in (("=> []p -> p", 2), ("=> ((p -> q) -> p) -> p", 2),
                         ("=> p \\/ (p -> #)", 3)):
        s = parse_sequent(text)
        got = find_countermodel(s, max_worlds=worlds)
        assert got is not None, text
        m, w = got
        assert validate_model(m) == []
        assert all(forces(m, w, f) for f in s.ant)
        assert not forces(m, w, s.suc)


def test_criterion_07_persistence():
    rng = random.Random(107)
    formulas = [formula(rng, rng.randrange(4), ("p", "q")) for _ in range(1_000)]
    for m in enumerate_models(3, ["p", "q"]):
        pairs = [(a, b) for (a, b) in m.leq if a != b]
        for f, mask in world_masks(m, formulas).items():
            for a, b in pairs:
                if mask >> a & 1:
                    assert mask >> b & 1, (m, f, a, b)


def _shaped_proofs(rng, count):
    """Provable sequents salted with the antecedent shapes the left-rule
    transforms need; proofs always come from the prover."""
    shapes = [
        lambda rng: Box(formula(rng, 1)),
        lambda rng: Imp(Box(formula(rng, 1)), formula(rng, 1)),
        lambda rng: Imp(Imp(formula(rng, 1), formula(rng, 1)), formula(rng, 1)),
        lambda rng: Imp(And(formula(rng, 1), formula(rng, 1)), formula(rng, 1)),
        lambda rng: Imp(Or(formula(rng, 1), formula(rng, 1)), formula(rng, 1)),
    ]
    out = []
    guard = 0
    while len(out) < count:
        guard += 1
        assert guard < count * 300
        k = len(out)
        s = random_sequent(rng, 2, max_ant=2)
        extra = shapes[k % len(shapes)](rng)
        ant = s.ant.add(extra)
        if k % 10 == 0:
            ant = ant.add(extra)  # duplicate for contraction
        r = prove(Sequent(ant, s.suc))
        if isinstance(r, Proved):
            out.append(r.proof)
    return out


def test_criterion_08_height_preservation_and_checked_transforms():
    rng = random.Random(108)
    proofs = proved_proofs(rng, 600, depth=2) + _shaped_proofs(rng, 400)
    assert len(proofs) == 1_000
    hits = {k: 0 for k in ("weaken", "unbox", "invert", "boxlir", "implir",
                           "implil", "ctr", "imp_left", "idgen")}
    for d in proofs:
        h = height(d)
        w = weaken(d, formula(rng, rng.randrange(3)))
        assert check(w) is None and height(w) <= h
        hits["weaken"] += 1

        boxed = [f for f in d.root.ant if isinstance(f, Box)]
        if boxed:
            u = unbox_left(d, boxed[:1])
            assert check(u) is None and height(u) <= h
            hits["unbox"] += 1

        for inst in expand(d.root):
            if inst.rule not in _INVERTIBLE:
                continue
            got = invert(inst.rule, d, inst.principal)
            assert tuple(g.root for g in got) == inst.premises
            for g in got:
                assert check(g) is None and height(g) <= h
            hits["invert"] += 1

        for f in d.root.ant.distinct():
            if isinstance(f, Imp) and isinstance(f.left, Box):
                out = box_imp_lir(d, f)
                assert check(out) is None and height(out) <= h
                hits["boxlir"] += 1
            if isinstance(f, Imp) and isinstance(f.left, Imp):
                out = imp_imp_lir(d, f)
                assert check(out) is None and height(out) <= h
                hits["implir"] += 1
                out = imp_imp_lil(d, f)
                assert check(out) is None
                hits["implil"] += 1
            if d.root.ant.count(f) >= 2:
                out = contract(d, f)
                assert check(out) is None
                hits["ctr"] += 1

    pairs = 0
    for d in proofs:
        if pairs >= 60:
            break
        g = formula(rng, rng.randrange(2))
        chi = formula(rng, rng.randrange(3))
        r2 = prove(Sequent(d.root.ant.add(g), chi))
        if isinstance(r2, Proved):
            out = imp_left(d, r2.proof)
            assert check(out) is None
            assert out.root == Sequent(d.root.ant.add(Imp(d.root.suc, g)), chi)
            pairs += 1
    hits["imp_left"] = pairs

    for _ in range(200):
        f = formula(rng, rng.randrange(4))
        d = id_general(f)
        assert check(d) is None
        hits["idgen"] += 1

    assert hits["weaken"] == 1_000
    for name, n in hits.items():
        assert n >= 40, (name, n)


def _measure_less(a, b):
    if a[0] != b[0]:
        return a[0] < b[0]
    return shortlex_less(a[1], b[1])


def test_criterion_09_cut_admissibility_with_descending_measure():
    rng = random.Random(109)
    start = time.monotonic()
    built = 0
    guard = 0
    while built < 1_000:
        guard += 1
        assert guard < 150_000
        s1 = random_sequent(rng, 2, max_ant=2)
        r1 = prove(s1)
        if not isinstance(r1, Proved):
            continue
        chi = formula(rng, rng.randrange(1, 3))
        r2 = prove(Sequent(s1.ant.add(s1.suc), chi))
        if not isinstance(r2, Proved):
            continue
        built += 1
        instance = CutInstance(r1.proof, r2.proof)
        log = []
        out = cut_admissible(instance, debug=True, log=log)
        assert check(out) is None
        assert not uses_cut(out)
        assert out.root == instance.conclusion
        assert log
        for parent, own in log:
            if parent is not None:
                assert _measure_less(own, parent), (parent, own)
    elapsed = time.monotonic() - start
    assert elapsed < 300.0, f"took {elapsed:.1f}s"


def _inject_cut(rng, d):
    spots = []

    def walk(n, path):
        spots.append((path, n))
        for i, c in enumerate(n.children):
            walk(c, path + (i,))

    walk(d, ())
    path, t = spots[rng.randrange(len(spots))]
    with_cut = node(RuleId.Cut, t.root, None, t, id_general(t.root.suc, t.root.ant))

    def rebuild(n, path):
        if not path:
            return with_cut
        children = list(n.children)
        children[path[0]] = rebuild(children[path[0]], path[1:])
        return node(n.rule, n.root, n.principal, *children) if n.rule is not RuleId.Cut \
            else node(RuleId.Cut, n.root, None, *children)

    return rebuild(d, path)


def test_criterion_10_cut_elimination_on_injected_certificates():
    rng = random.Random(110)
    done = 0
    guard = 0
    while done < 200:
        guard += 1
        assert guard < 20_000
        s = random_sequent(rng, 2, max_ant=2)
        r = prove(s)
        if not isinstance(r, Proved):
            continue
        done += 1
        d = r.proof
        for _ in range(rng.randrange(1, 4)):
            d = _inject_cut(rng, d)
        assert uses_cut(d)
        out = eliminate(d)
        assert out.root == s
        assert not uses_cut(out)
        assert check(out) is None


def test_criterion_11_weight_inequality():
    rng = random.Random(111)
    for _ in range(10_000):
        f, g, h = (formula(rng, rng.randrange(5)) for _ in range(3))
        assert weight(Imp(f, Imp(g, h))) < weight(Imp(And(f, g), h))


def test_criterion_12_roundtrip_and_deterministic_cli(capsys, tmp_path):
    rng = random.Random(112)
    for _ in range(10_000):
        f = formula(rng, rng.randrange(6))
        assert parse_formula(print_formula(f)) == f

    r = prove(parse_sequent("p /\\ q => q /\\ p"))
    assert isinstance(r, Proved)
    cert = tmp_path / "cert.json"
    from islt import calculus

    cert.write_text(calculus.dumps(r.proof), encoding="utf-8")

    def run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    for argv in (
        ("theta", "[](p /\\ q), p \\/ q => q -> p"),
        ("prove", "([]p -> p) -> p"),
        ("prove", "--sequent", "--emit", "text", "p, p -> q => q"),
        ("check", str(cert)),
    ):
        assert run(*argv) == run(*argv), argv
