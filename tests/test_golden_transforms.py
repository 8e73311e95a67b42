"""Golden digest of the structural transforms and of cut elimination.

Every transform and both cut entry points run on prover proofs and on
naive-mode proofs of the same seeded roots, and the sha256 of their
certificates and descent logs must not move. Naive search tries rules in a
shuffled order, so its proofs end in rules the prover ranks late (ImpImpL
or BoxImpL under an implication or conjunction succedent): right inversion
and the cut commutations reach branches there that prover proofs never do.
"""

import hashlib
import random

from genlib import formula, inject_cut, random_sequent

from islt.calculus import INVERTIBLE, LEFT_RULES, RuleId, check, dumps, expand
from islt.cut import CutInstance, cut_admissible, eliminate
from islt.formula import And, Box, Imp
from islt.search import Proved, prove
from islt.sequent import Sequent
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

ROOTS = 80


def _root(rng):
    """A random sequent; two roots in three get an ImpImpL or a BoxImpL
    principal on the left and an implication or conjunction on the right,
    and half of all roots repeat one antecedent formula, so that
    contraction meets a principal occurrence with a copy beside it."""
    s = random_sequent(rng, 2, max_ant=3, max_weight=18)
    k = rng.randrange(3)
    if k:
        head = Imp(formula(rng, 1), formula(rng, 1)) if k == 1 else Box(formula(rng, 1))
        suc = Imp(formula(rng, 1), s.suc) if rng.randrange(2) else And(s.suc, formula(rng, 1))
        s = Sequent(s.ant.add(Imp(head, formula(rng, 1))), suc)
    if s.ant.entries and rng.randrange(2):
        s = Sequent(s.ant.add(rng.choice(list(s.ant.distinct()))), s.suc)
    return s


def _corpus():
    """A prover proof and a naive proof of each provable root."""
    rng = random.Random(2024)
    out = []
    while len(out) < 2 * ROOTS:
        s = _root(rng)
        r = prove(s)
        if not isinstance(r, Proved):
            continue
        naive = prove(s, naive=True, seed=len(out), budget=3000)
        if not isinstance(naive, Proved):
            continue
        out.append(r.proof)
        out.append(naive.proof)
    return rng, out


def _right_inversion_meets(d):
    """(rule, succedent class) of every ImpImpL or BoxImpL node that right
    inversion at the root of d passes through."""
    if not isinstance(d.root.suc, (Imp, And)):
        return set()
    met, todo = set(), [d]
    while todo:
        n = todo.pop()
        if n.rule in (RuleId.ImpImpL, RuleId.BoxImpL):
            met.add((n.rule, type(n.root.suc)))
            todo.append(n.children[1])
        elif n.rule in LEFT_RULES:
            todo.extend(n.children)
    return met


def _outputs(rng, d):
    """(label, derivation or descent log) for every transform at d."""
    ant, suc = d.root.ant, d.root.suc
    f = formula(rng, rng.randrange(3))
    yield "weaken", weaken(d, f)
    yield "weaken-box", weaken(d, Box(f))
    boxed = [g for g in ant if isinstance(g, Box)]
    if boxed:
        yield "unbox_left", unbox_left(d, boxed[:1])
        yield "unbox_left-all", unbox_left(d, boxed)
    for inst in expand(d.root):
        if inst.rule in INVERTIBLE:
            for g in invert(inst.rule, d, inst.principal):
                yield f"invert-{inst.rule.value}", g
        elif inst.rule is RuleId.BoxImpL:
            yield "box_imp_lir", box_imp_lir(d, inst.principal)
        elif inst.rule is RuleId.ImpImpL:
            yield "imp_imp_lir", imp_imp_lir(d, inst.principal)
            yield "imp_imp_lil", imp_imp_lil(d, inst.principal)
    for g in ant.distinct():
        if ant.count(g) >= 2:
            yield "contract", contract(d, g)
    yield "contract-weakened", contract(weaken(weaken(d, f), f), f)
    g = formula(rng, rng.randrange(2))
    yield "imp_left", imp_left(d, id_general(g, ant))
    chi = formula(rng, rng.randrange(1, 3))
    right = prove(Sequent(ant.add(suc), chi))
    right = right.proof if isinstance(right, Proved) else id_general(suc, ant)
    log: list = []
    yield "cut_admissible", cut_admissible(CutInstance(d, right), debug=True, log=log)
    yield "cut_admissible-log", log
    with_cuts = d
    for _ in range(rng.randrange(1, 3)):
        with_cuts = inject_cut(rng, with_cuts)
    log = []
    yield "eliminate", eliminate(with_cuts, debug=True, log=log)
    yield "eliminate-log", log


# sha256 of the lines below, recorded before the transforms were rebuilt on
# the calculus's premise shapes; any change to a transform's output moves it
GOLDEN_SHA256 = "b94744ce14ede70d3c4a0c595cd1a732e61da6a07318bee90708a42b529cc2a8"


def test_golden_transforms_and_cut():
    rng, proofs = _corpus()
    h = hashlib.sha256()
    met = set()
    for d in proofs:
        for label, out in _outputs(rng, d):
            if isinstance(out, list):
                body = repr(out)
            else:
                assert check(out) is None, (label, d.root)
                body = dumps(out)
            h.update(f"{d.root}\t{label}\t{body}\n".encode())
        met |= _right_inversion_meets(d)
    # inverting ImpR and AndR commutes past both right-invertible rules
    assert met == {(r, c) for r in (RuleId.ImpImpL, RuleId.BoxImpL) for c in (Imp, And)}
    assert h.hexdigest() == GOLDEN_SHA256
