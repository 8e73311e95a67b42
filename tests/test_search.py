import gc
import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path
from typing import Optional

import pytest

from genlib import cap_search_work, pigeonhole, random_sequent
import islt
from islt import calculus, search
from islt.calculus import Derivation, check, dumps, expand, uses_cut
from islt.formula import Bot, parse_formula
from islt.search import _PRIORITY, BudgetExceeded, Proved, Unprovable, decide, prove
from islt.sequent import Multiset, Sequent, parse_sequent

PROVABLE = [
    "([]p -> p) -> p",
    "p -> []p",
    "[]([]p -> p) -> []p",
    "[](p -> q) -> []p -> []q",
    "p -> q -> p",
    "# -> q",
    "(p -> q -> r) -> (p -> q) -> p -> r",
]

UNPROVABLE = [
    "[]p -> p",
    "((p -> q) -> p) -> p",
    "p \\/ (p -> #)",
    "p",
    "#",
]


def reference_prove(s: Sequent) -> Optional[Derivation]:
    """Memoized search over expand() that never commits: it tries every
    instance, in the prover's priority order so that proofs coincide, and
    every premise left to right."""
    memo: dict[Sequent, Optional[Derivation]] = {}

    def search(seq: Sequent) -> Optional[Derivation]:
        if seq in memo:
            return memo[seq]
        result = None
        for inst in sorted(expand(seq), key=lambda i: _PRIORITY[i.rule]):
            children = []
            for premise in inst.premises:
                sub = search(premise)
                if sub is None:
                    break
                children.append(sub)
            else:
                result = Derivation(seq, inst.rule, inst.principal, tuple(children))
                break
        memo[seq] = result
        return result

    return search(s)


def capped_corpus(count: int, max_weight: int) -> list[Sequent]:
    rng = random.Random(7)
    return [random_sequent(rng, 5, max_ant=4, max_weight=max_weight) for _ in range(count)]


@pytest.fixture(scope="module")
def corpus():
    # weight cap: the reference search re-explores what commitment prunes
    return capped_corpus(400, 24)


def test_regression_verdicts():
    for text in PROVABLE:
        assert isinstance(decide(parse_formula(text)), Proved), text
    for text in UNPROVABLE:
        assert isinstance(decide(parse_formula(text)), Unprovable), text


def test_proofs_check_and_match_the_goal():
    for text in PROVABLE:
        r = decide(parse_formula(text))
        assert r.proof.root == Sequent(Multiset(), parse_formula(text))
        assert check(r.proof) is None
        assert not uses_cut(r.proof)


def test_strong_loeb_proof_shape():
    """The three-rule derivation: ImpR, then the modal left rule closing
    with the atom on both premises."""
    r = decide(parse_formula("([]p -> p) -> p"))
    d = r.proof
    assert d.rule.value == "ImpR"
    inner = d.children[0]
    assert inner.rule.value == "BoxImpL"
    assert [c.rule.value for c in inner.children] == ["IdP", "IdP"]


def test_unprovable_reports_explored_count():
    r = decide(parse_formula("[]p -> p"))
    assert isinstance(r, Unprovable)
    assert r.explored >= 1


def test_naive_agrees_with_memoized():
    # weight cap: memo-free search re-explores exponentially on fat sequents
    rng = random.Random(53)
    goals = [random_sequent(rng, 3, max_weight=20) for _ in range(150)] + capped_corpus(150, 20)
    for i, s in enumerate(goals):
        base = prove(s)
        alt = prove(s, naive=True, seed=i)
        assert type(base) is type(alt), s
        if isinstance(alt, Proved):
            assert check(alt.proof) is None
            assert alt.proof.root == s


def test_seed_reproducibility():
    s = parse_sequent("p \\/ q, q -> p => p")
    a = prove(s, naive=True, seed=99)
    b = prove(s, naive=True, seed=99)
    assert isinstance(a, Proved) and isinstance(b, Proved)
    assert a.proof == b.proof


def test_debug_mode_asserts_descent(corpus):
    rng = random.Random(59)
    for s in [random_sequent(rng, 3) for _ in range(100)] + corpus:
        prove(s, debug=True)  # must not trip the internal descent assertion


# Both debug checks, with the measure comparison patched to always fail,
# must raise even when python -O strips assert statements.
_DEBUG_UNDER_O = r"""
from islt import cut, search
from islt.cut import CutInstance, cut_admissible
from islt.search import prove
from islt.sequent import parse_sequent

if __debug__:
    raise SystemExit("not running under -O")
left = prove(parse_sequent("p => p /\\ p")).proof
right = prove(parse_sequent("p, p /\\ p => p")).proof
search.shortlex_less = cut._measure_less = lambda a, b: False
for name, call in [
    ("prove", lambda: prove(parse_sequent("p, q => p /\\ q"), debug=True)),
    ("cut_admissible", lambda: cut_admissible(CutInstance(left, right), debug=True)),
]:
    try:
        call()
    except AssertionError as e:
        print(name, "raised:", e)
    else:
        print(name, "returned")
"""


def test_debug_checks_survive_python_O():
    src = str(Path(islt.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    got = subprocess.run(
        [sys.executable, "-O", "-c", _DEBUG_UNDER_O], capture_output=True, text=True, env=env, timeout=120
    )
    assert got.returncode == 0, got.stderr
    lines = got.stdout.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("prove raised: theta failed to decrease at ")
    assert lines[1].startswith("cut_admissible raised: cut measure did not descend: ")


def test_budget_abort():
    hard = parse_sequent("=> ((p -> q) -> p) -> p")
    r = prove(hard, budget=2)
    assert isinstance(r, BudgetExceeded)
    assert r.explored == 2
    # a budget that is never hit changes nothing
    assert isinstance(prove(hard, budget=10**6), Unprovable)


def test_naive_budget_counts_revisits(monkeypatch):
    """Naive search keeps no memo, so it meets a sequent as often as its
    search tree holds it; each visit counts against the budget, which
    therefore bounds its work. Naive search on 3 pigeons in 3 holes runs
    for minutes without a budget."""
    cap_search_work(monkeypatch)
    goal = Sequent(Multiset(), pigeonhole(3, 3))
    assert prove(goal, naive=True, seed=1, budget=2000) == BudgetExceeded(2000)


def test_search_leaves_no_cyclic_garbage():
    """Each call's memo is freed on return, not by a later collection."""
    hard = parse_sequent("=> ((p -> q) -> p) -> p")
    gc.disable()
    try:
        gc.collect()
        for kwargs in ({}, {"budget": 2}, {"naive": True, "seed": 1}):
            prove(hard, **kwargs)
            prove(parse_sequent("p, q => p /\\ q"), **kwargs)
            assert gc.collect() == 0, kwargs
    finally:
        gc.enable()


def test_memoization_handles_repeats():
    # same subgoal reached along different branches
    s = parse_sequent("p /\\ q, q /\\ p => p /\\ q /\\ (q /\\ p)")
    r = prove(s)
    assert isinstance(r, Proved)
    assert check(r.proof) is None


def test_committed_search_matches_reference(corpus):
    proved = 0
    for s in corpus:
        want = reference_prove(s)
        got = prove(s)
        if want is None:
            assert isinstance(got, Unprovable), s
        else:
            assert isinstance(got, Proved), s
            assert dumps(got.proof) == dumps(want), s
            assert check(got.proof) is None
            proved += 1
    assert 0 < proved < len(corpus)


_FAILS = Sequent(Multiset(), Bot())  # no rule applies
_CLOSES = Sequent(Multiset.of(Bot()), Bot())  # BotL

# an antecedent of several AndL principals, AtomImpL with and without its
# atom, # beside other formulas, several ImpImpL and BoxImpL principals with
# no invertible rule, and AndR beside OrL
ORDER_CASES = [
    "p /\\ q, r /\\ s, q /\\ p, p -> q => r",
    "p, p -> q, r -> s, q -> r => s",
    "q -> p, s -> p => p -> q",
    "#, p /\\ q, p -> r => s",
    "#, r => r",
    "r, p => p",
    "(p -> q) -> r, []p -> q, (q -> r) -> s, []s -> p => q \\/ r",
    "[]q -> p, (r -> p) -> q, []p -> r => []s",
    "(q -> r) -> p, (p -> q) -> r => p",
    "q -> p, []r => []q",
    "p \\/ q, r \\/ s => p /\\ s",
    "s \\/ r, p \\/ q => s",
]


def tried_at(s: Sequent, monkeypatch) -> list:
    """The (rule, principal) pairs committed search tries at s when the
    first premise of every instance fails and the others close: it moves
    on until it meets an instance whose failure is final under the
    inversion lemmas."""
    real, tried = calculus.premises_of, []

    def premises_of(rule, conclusion, principal):
        premises = real(rule, conclusion, principal)
        if conclusion != s:
            return premises
        tried.append((rule, principal))
        if not premises:
            return premises
        return (_FAILS,) + (_CLOSES,) * (len(premises) - 1)

    monkeypatch.setattr(calculus, "premises_of", premises_of)
    monkeypatch.setattr(search, "premises_of", premises_of, raising=False)
    prove(s)
    monkeypatch.undo()
    return tried


def test_committed_order_is_priority_order(corpus, monkeypatch):
    """Committed search tries the instances of a sequent in the order of
    expand stably sorted by _PRIORITY, as the reference search does. It
    stops at the first leaf or invertible instance (priority 2 at most)
    and otherwise tries them all."""
    for s in [parse_sequent(t) for t in ORDER_CASES] + corpus:
        if s in (_FAILS, _CLOSES):
            continue
        want = [(i.rule, i.principal) for i in sorted(expand(s), key=lambda i: _PRIORITY[i.rule])]
        tried = tried_at(s, monkeypatch)
        if want and _PRIORITY[want[0][0]] <= 2:
            want = want[:1]
        assert tried == want, s


# sha256 of the lines below over the corpus fixture, recorded before formulas
# were hash-consed; any change to the canonical order, the rule order or the
# search strategy changes it
GOLDEN_SHA256 = "070177e1ba728c060384cb2a88c2c91ca878264af4ad6178e5aa5308f7ccc625"


def test_golden_verdicts_and_certificates(corpus):
    h = hashlib.sha256()
    for s in corpus:
        r = prove(s)
        body = dumps(r.proof) if isinstance(r, Proved) else str(r.explored)
        h.update(f"{s}\t{type(r).__name__}\t{body}\n".encode())
    assert h.hexdigest() == GOLDEN_SHA256
