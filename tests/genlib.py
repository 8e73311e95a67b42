"""Seeded random generators shared across the test suite, one tall proof,
and the search families at small sizes.

Every test that needs random data builds its own random.Random with an
explicit seed so failures reproduce exactly.
"""

import random
from functools import reduce
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


# Search families after the ILTP library (Raths, Otten & Kreitz, JAR 2007),
# small sizes only. An empty disjunction is #.


def _disj(fs) -> Formula:
    return reduce(Or, fs) if fs else Bot()


def de_bruijn(m: int) -> Formula:
    """(/\\_i ((p_i <-> p_(i+1 mod m)) -> c)) -> c with c = p_0 /\\ ... /\\
    p_(m-1): valid at odd m, invalid at even m."""
    ps = [Var(f"p{i}") for i in range(m)]
    c = reduce(And, ps)
    iffs = [And(Imp(a, b), Imp(b, a)) for a, b in zip(ps, ps[1:] + ps[:1])]
    return Imp(reduce(And, [Imp(e, c) for e in iffs]), c)


def pigeonhole(pigeons: int, holes: int, boxed: bool = False) -> Formula:
    """(/\\_i \\/_j o_ij) -> \\/_j \\/_(i<k) (o_ij /\\ o_kj): every pigeon in
    a hole forces two pigeons into one. Valid when pigeons > holes. Boxed
    puts each pigeon's disjunction and the goal under []."""
    o = [[Var(f"o{i}_{j}") for j in range(holes)] for i in range(pigeons)]
    wrap = Box if boxed else (lambda f: f)
    sits = reduce(And, [wrap(_disj(row)) for row in o])
    clash = _disj([And(o[i][j], o[k][j]) for j in range(holes) for i in range(pigeons) for k in range(i + 1, pigeons)])
    return Imp(sits, wrap(clash))


def schwichtenberg(n: int) -> Formula:
    """(p_0 /\\ /\\_i (p_i -> p_i -> p_(i+1))) -> p_n, valid."""
    ps = [Var(f"p{i}") for i in range(n + 1)]
    return Imp(reduce(And, [ps[0], *(Imp(a, Imp(a, b)) for a, b in zip(ps, ps[1:]))]), ps[n])


def valid_family_goals() -> dict[str, Formula]:
    """Valid family members by name, de Bruijn at m <= 5, pigeonhole at
    n + 1 pigeons in n <= 3 holes."""
    return {
        **{f"de_bruijn({m})": de_bruijn(m) for m in (1, 3, 5)},
        **{f"pigeonhole({n + 1},{n})": pigeonhole(n + 1, n) for n in (1, 2, 3)},
        **{f"boxed_pigeonhole({n + 1},{n})": pigeonhole(n + 1, n, boxed=True) for n in (1, 2, 3)},
        **{f"schwichtenberg({n})": schwichtenberg(n) for n in (1, 2, 3, 29)},
    }


def invalid_family_goals() -> dict[str, Formula]:
    """Invalid family members by name: de Bruijn at even m <= 4, and n
    pigeons in n <= 3 holes."""
    return {
        **{f"de_bruijn({m})": de_bruijn(m) for m in (2, 4)},
        **{f"pigeonhole({n},{n})": pigeonhole(n, n) for n in (1, 2, 3)},
    }
