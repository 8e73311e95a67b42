"""Seeded inputs: random formulas and sequents, the README and regression
goals with their hand-written verdicts, and cut injection.

The random generator draws formulas with the same shape probabilities as
the test suite's generator, so ``random_sequent(Random(seed), 5, max_ant=4)``
samples the corpus distribution the ROADMAP names. A weight cap rejects a
candidate as soon as its running weight exceeds the cap; the accepted
sequents have the same distribution as full rejection sampling.
"""

from __future__ import annotations

import random
from typing import Optional

from islt import calculus, hilbert, structural
from islt.formula import And, Bot, Box, Formula, Imp, Or, Var
from islt.sequent import Sequent, parse_sequent, sequent

VARS4 = ("p", "q", "r", "s")
VARS3 = ("p", "q", "r")


class _TooHeavy(Exception):
    pass


class _Weigher:
    """Running weight of the formulas drawn so far; raises once over cap."""

    def __init__(self, cap: Optional[int]):
        self.cap = cap
        self.total = 0

    def add(self, w: int) -> None:
        self.total += w
        if self.cap is not None and self.total > self.cap:
            raise _TooHeavy()


def _formula(rng: random.Random, depth: int, variables, wt: _Weigher) -> Formula:
    # weights follow islt.formula.weight: atoms 1, and 2, other binaries 1, box 1
    if depth <= 0:
        wt.add(1)
        if rng.randrange(5) == 0:
            return Bot()
        return Var(rng.choice(variables))
    k = rng.randrange(7)
    if k == 0:
        wt.add(1)
        return Var(rng.choice(variables))
    if k == 1:
        wt.add(2)
        return And(_formula(rng, depth - 1, variables, wt), _formula(rng, depth - 1, variables, wt))
    if k == 2:
        wt.add(1)
        return Or(_formula(rng, depth - 1, variables, wt), _formula(rng, depth - 1, variables, wt))
    if k in (3, 4):
        wt.add(1)
        return Imp(_formula(rng, depth - 1, variables, wt), _formula(rng, depth - 1, variables, wt))
    wt.add(1)
    return Box(_formula(rng, depth - 1, variables, wt))


def formula(rng: random.Random, depth: int, variables=VARS4) -> Formula:
    return _formula(rng, depth, variables, _Weigher(None))


def random_sequent(
    rng: random.Random,
    depth: int,
    max_ant: int = 3,
    variables=VARS4,
    max_weight: Optional[int] = None,
) -> Sequent:
    while True:
        wt = _Weigher(max_weight)
        try:
            n = rng.randrange(0, max_ant + 1)
            ant = [_formula(rng, rng.randrange(1, depth + 1), variables, wt) for _ in range(n)]
            suc = _formula(rng, rng.randrange(1, depth + 1), variables, wt)
        except _TooHeavy:
            continue
        return sequent(ant, suc)


# README examples and the acceptance suite's criterion-04 regression list,
# with verdicts written by hand: True for provable, False for unprovable.
README_GOALS = (
    ("=> ([]p -> p) -> p", True),
    ("p, p -> q => q", True),
    ("=> p -> []p", True),
    ("[](p -> q), []p => []q", True),
    ("p => p /\\ p", True),
    ("p, p /\\ p => p", True),
    ("=> []p -> p", False),
    ("[](p /\\ q), p \\/ q => q -> p", False),
)

_CRITERION_04_PROVED = (
    "([]p -> p) -> p",
    "p -> []p",
    "[]([]p -> p) -> []p",
    "[](p -> q) -> []p -> []q",
)
_CRITERION_04_UNPROVABLE = ("[]p -> p", "((p -> q) -> p) -> p", "p \\/ (p -> #)", "p", "#")


def regression_goals() -> list[tuple[Sequent, bool]]:
    """README goals, then criterion 04: four named theorems, three seeded
    instances of every Hilbert axiom, five named non-theorems."""
    out = [(parse_sequent(t), v) for t, v in README_GOALS]
    out += [(parse_sequent(f"=> {t}"), True) for t in _CRITERION_04_PROVED]
    rng = random.Random(104)
    for a in hilbert.AxiomId:
        for _ in range(3):
            subst = {v: formula(rng, rng.randrange(4)) for v in hilbert.metavariables(a)}
            out.append((sequent([], hilbert.axiom_instance(a, subst)), True))
    out += [(parse_sequent(f"=> {t}"), False) for t in _CRITERION_04_UNPROVABLE]
    return out


def inject_cut(rng: random.Random, d: calculus.Derivation, id_general=structural.id_general) -> calculus.Derivation:
    """Replace one random subproof t by Cut(t, id_general(t's succedent)):
    the same root, one more Cut node to eliminate."""
    spots: list[tuple[tuple[int, ...], calculus.Derivation]] = []
    todo = [((), d)]
    while todo:
        path, n = todo.pop()
        spots.append((path, n))
        todo.extend((path + (i,), c) for i, c in enumerate(n.children))
    spots.sort(key=lambda e: e[0])
    path, t = spots[rng.randrange(len(spots))]
    replacement = calculus.node(
        calculus.RuleId.Cut, t.root, None, t, id_general(t.root.suc, t.root.ant)
    )
    return _replace(d, path, replacement)


def _replace(n: calculus.Derivation, path: tuple[int, ...], new: calculus.Derivation) -> calculus.Derivation:
    if not path:
        return new
    children = list(n.children)
    children[path[0]] = _replace(children[path[0]], path[1:], new)
    return calculus.Derivation(n.root, n.rule, n.principal, tuple(children))


def hilbert_identity(f: Formula) -> hilbert.HilbertNode:
    """|- [](f -> f): the S K K derivation of f -> f, then necessitation."""
    empty: frozenset = frozenset()
    ff = Imp(f, f)
    a1 = hilbert.ax(empty, hilbert.AxiomId.A1, {"phi": f, "psi": ff})
    a2 = hilbert.ax(empty, hilbert.AxiomId.A2, {"phi": f, "psi": ff, "chi": f})
    step = hilbert.mp(a1, a2)
    a1b = hilbert.ax(empty, hilbert.AxiomId.A1, {"phi": f, "psi": f})
    return hilbert.nec(empty, hilbert.mp(a1b, step))

