"""Seeded random generators shared across the test suite, and one tall
proof.

Every test that needs random data builds its own random.Random with an
explicit seed so failures reproduce exactly.
"""

import random
from typing import Optional

from islt import semantics
from islt.calculus import Derivation, RuleId, height, node
from islt.formula import And, Bot, Box, Formula, Imp, Or, Var, weight
from islt.search import Proved, prove
from islt.sequent import Sequent, sequent
from islt.structural import id_general

DEFAULT_VARS = ("p", "q", "r", "s")


def world_masks(m: semantics.KripkeModel, formulas) -> dict[Formula, int]:
    """Per distinct formula f, the worlds of m that force f as a bitmask
    (bit w for world w), read off m's batch."""
    batch, c = semantics._batch_of(m)
    masks = {}
    for f in formulas:
        if f not in masks:
            got = 0
            for w, x in enumerate(batch.ext(f)):
                got |= (x >> c & 1) << w
            masks[f] = got
    return masks


def formula(rng: random.Random, depth: int, variables=DEFAULT_VARS) -> Formula:
    if depth <= 0:
        if rng.randrange(5) == 0:
            return Bot()
        return Var(rng.choice(variables))
    k = rng.randrange(7)
    if k == 0:
        return Var(rng.choice(variables))
    if k == 1:
        return And(formula(rng, depth - 1, variables), formula(rng, depth - 1, variables))
    if k == 2:
        return Or(formula(rng, depth - 1, variables), formula(rng, depth - 1, variables))
    if k in (3, 4):
        return Imp(formula(rng, depth - 1, variables), formula(rng, depth - 1, variables))
    return Box(formula(rng, depth - 1, variables))


def random_sequent(
    rng: random.Random,
    depth: int,
    max_ant: int = 3,
    variables=DEFAULT_VARS,
    max_weight: Optional[int] = None,
) -> Sequent:
    """max_weight rejection-samples on total sequent weight; memo-free search
    is exponential in re-exploration, so naive-mode suites must cap it."""
    while True:
        n = rng.randrange(0, max_ant + 1)
        ant = [formula(rng, rng.randrange(1, depth + 1), variables) for _ in range(n)]
        suc = formula(rng, rng.randrange(1, depth + 1), variables)
        s = sequent(ant, suc)
        if max_weight is None or sum(weight(f) for f in s.ant) + weight(s.suc) <= max_weight:
            return s


def chain_proof(n: int, *extra: Formula) -> Derivation:
    """The proof of p, p -> q1, ..., q(n-1) -> qn, extra => qn that the
    prover finds: n AtomImpL steps over an IdP leaf, n + 1 high."""
    atoms = [Var("p"), *(Var(f"q{i}") for i in range(1, n + 1))]
    r = prove(sequent([atoms[0], *map(Imp, atoms, atoms[1:]), *extra], atoms[-1]))
    assert isinstance(r, Proved) and height(r.proof) == n + 1
    return r.proof


def proved_proofs(rng: random.Random, count: int, depth: int = 3, variables=DEFAULT_VARS):
    """Prover-generated proofs of random provable sequents."""
    out = []
    guard = 0
    while len(out) < count:
        guard += 1
        assert guard < count * 80, "provable sequents too rare at these settings"
        s = random_sequent(rng, depth, max_ant=2, variables=variables)
        r = prove(s)
        if isinstance(r, Proved):
            out.append(r.proof)
    return out


def _paths(d, prefix=()):
    yield prefix, d
    for i, c in enumerate(d.children):
        yield from _paths(c, prefix + (i,))


def _replace(d, path, new):
    if not path:
        return new
    i = path[0]
    children = list(d.children)
    children[i] = _replace(children[i], path[1:], new)
    return Derivation(d.root, d.rule, d.principal, tuple(children))


def inject_cut(rng, d):
    """Wrap a random subtree t in a Cut on t's own conclusion formula."""
    spots = list(_paths(d))
    path, t = spots[rng.randrange(len(spots))]
    right = id_general(t.root.suc, t.root.ant)
    cut_node = node(RuleId.Cut, t.root, None, t, right)
    return _replace(d, path, cut_node)
