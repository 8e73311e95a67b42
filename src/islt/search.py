"""Backward proof search.

Depth-first search over expand(); termination is structural, because every
rule instance strictly reduces theta upwards, so any order of instances and
premises decides the goal.

The default search memoizes canonical sequents and commits where the
paper's inversion lemmas allow it. AndL, AndR, OrL, ImpR, AtomImpL, AndImpL
and OrImpL are invertible (structural.invert): each premise is derivable
whenever the conclusion is, so when one of their premises fails the
sequent is unprovable and no other instance is tried. ImpImpL and BoxImpL
are invertible in their right premise only (imp_imp_lir, box_imp_lir):
that premise is searched first and its failure is final, while a failed
left premise moves on to the next instance. Committing only cuts branches
that cannot succeed, so every verdict and every proof is the one the full
search finds, but Unprovable.explored and the count a budget abort reports
are smaller than a full search would give.

Naive mode turns memoization off, shuffles the rule order with a seed and
never commits: it is the memo-free, any-strategy search whose termination
the paper proves, and it must reach the same verdicts.
"""

from __future__ import annotations

import random
from typing import Optional, Union

from .calculus import INVERTIBLE, RIGHT_INVERTIBLE, Derivation, RuleId, expand
from .formula import Formula, _Record
from .measure import shortlex_less, theta
from .sequent import Multiset, Sequent


class Proved(_Record):
    """The goal and its proof."""

    __slots__ = __match_args__ = ("proof",)

    def __init__(self, proof: Derivation) -> None:
        _set_proof(self, proof)


class _Explored(_Record):
    """A result without a proof; explored counts the distinct sequents
    visited."""

    __slots__ = __match_args__ = ("explored",)

    def __init__(self, explored: int) -> None:
        _set_explored(self, explored)


class Unprovable(_Explored):
    """The goal has no proof."""

    __slots__ = ()


class BudgetExceeded(_Explored):
    """The budget ran out before a verdict."""

    __slots__ = ()


# slot setters that bypass the immutability guard, for construction only
_set_proof, _set_explored = Proved.proof.__set__, _Explored.explored.__set__


SearchResult = Union[Proved, Unprovable, BudgetExceeded]

# zero-premise, then single-premise invertible, then branching, then SLtR;
# a heuristic only, any order must give the same verdict
_PRIORITY = {
    RuleId.BotL: 0,
    RuleId.IdP: 0,
    RuleId.AndL: 1,
    RuleId.ImpR: 1,
    RuleId.AtomImpL: 1,
    RuleId.AndImpL: 1,
    RuleId.OrImpL: 1,
    RuleId.AndR: 2,
    RuleId.OrL: 2,
    RuleId.OrR1: 3,
    RuleId.OrR2: 3,
    RuleId.ImpImpL: 3,
    RuleId.BoxImpL: 3,
    RuleId.SLtR: 4,
}


def _plan(rule: RuleId, n: int) -> tuple[tuple[int, ...], int]:
    """Committed search order of a rule's n premises, and how many of the
    leading ones are invertible: the failure of one of those is final."""
    if rule in INVERTIBLE:
        return tuple(range(n)), n
    if rule in RIGHT_INVERTIBLE:
        return (1, 0), 1
    return tuple(range(n)), 0


class _Budget(Exception):
    pass


def prove(
    s: Sequent,
    naive: bool = False,
    seed: Optional[int] = None,
    budget: Optional[int] = None,
    debug: bool = False,
) -> SearchResult:
    """Decide s. naive=True disables memoization and commitment and shuffles
    rule order using seed; budget caps the number of distinct sequents
    visited."""
    rng = random.Random(seed) if naive else None
    # every sequent visited: None on entry, then its result once decided
    # (not in naive mode). Theta falls strictly along every branch, so a
    # sequent in progress is never met again below itself.
    seen: dict[Sequent, Optional[Derivation]] = {}

    def order(instances):
        if rng is not None:
            instances = list(instances)
            rng.shuffle(instances)
            return instances
        return sorted(instances, key=lambda i: _PRIORITY[i.rule])

    def search(seq: Sequent, parent_theta) -> Optional[Derivation]:
        if seq not in seen:
            if budget is not None and len(seen) >= budget:
                raise _Budget()
            seen[seq] = None
        elif not naive:
            return seen[seq]
        own_theta = None
        if debug:
            own_theta = theta(seq)
            # strict decrease against the immediate parent rules out loops
            assert parent_theta is None or shortlex_less(own_theta, parent_theta), (
                f"theta failed to decrease at {seq}"
            )
        result: Optional[Derivation] = None
        for inst in order(expand(seq)):
            premises = inst.premises
            if naive:
                plan, final = range(len(premises)), 0
            else:
                plan, final = _plan(inst.rule, len(premises))
            children: list[Optional[Derivation]] = [None] * len(premises)
            refuted = False
            for k, i in enumerate(plan):
                sub = search(premises[i], own_theta)
                if sub is None:
                    refuted = k < final
                    break
                children[i] = sub
            else:
                result = Derivation(seq, inst.rule, inst.principal, tuple(children))
                break
            if refuted:
                break
        if not naive:
            seen[seq] = result
        return result

    try:
        found = search(s, None)
    except _Budget:
        return BudgetExceeded(len(seen))
    if found is None:
        return Unprovable(len(seen))
    return Proved(found)


def decide(f: Formula, **kwargs) -> SearchResult:
    return prove(Sequent(Multiset(), f), **kwargs)
