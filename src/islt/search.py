"""Backward proof search.

Depth-first search over the rule instances at each sequent; termination is
structural, because every rule instance strictly reduces theta upwards, so
any order of instances and premises decides the goal.

Both modes read one scan of each sequent (calculus._principals) and hand
each (rule, principal) pair to premises_of, building no other instance.
Naive mode lists the pairs in RuleId order, which is expand's order,
shuffles them with a seed, keeps no memo and never commits: it is the
memo-free, any-strategy search whose termination the paper proves, and it
must reach the same verdicts. One count of visits is both the budget and
explored: the default search visits each distinct sequent once, while
naive search counts every revisit too, so that its budget bounds its work.

The default search closes a sequent by BotL or IdP, or else takes the
pairs in priority order, memoizes decided sequents and commits where the
paper's inversion lemmas allow it. AndL, AndR, OrL, ImpR, AtomImpL,
AndImpL and OrImpL are invertible (structural.invert): each premise is
derivable whenever the conclusion is, so when one of their premises fails
the sequent is unprovable and no other instance is tried. ImpImpL and
BoxImpL are invertible in their right premise only (imp_imp_lir,
box_imp_lir): that premise is searched first and its failure is final,
while a failed left premise moves on to the next instance. Committing only
cuts branches that cannot succeed, so every verdict and every proof is the
one the full search finds, but Unprovable.explored and the count a budget
abort reports are smaller than a full search would give.
"""

from __future__ import annotations

import random
from typing import Optional, Union

from .calculus import INVERTIBLE, RIGHT_INVERTIBLE, Derivation, RuleId, _principals, expand, premises_of
from .formula import Bot, Formula, Var, _Record
from .measure import shortlex_less, theta
from .sequent import Multiset, Sequent

expand = expand  # bench/tracer.py wraps this name; nothing here calls it


class Proved(_Record):
    """The goal and its proof."""

    __slots__ = __match_args__ = ("proof",)


class _Explored(_Record):
    """A result without a proof; explored counts the sequents visited, each
    revisit included in naive mode."""

    __slots__ = __match_args__ = ("explored",)


class Unprovable(_Explored):
    """The goal has no proof."""

    __slots__ = ()


class BudgetExceeded(_Explored):
    """The budget ran out before a verdict."""

    __slots__ = ()


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


_ORDER = sorted((rule for rule in RuleId if rule in _PRIORITY), key=_PRIORITY.get)  # stable: ties in RuleId order
# committed search's order of each rule's premises (one unless set below),
# and how many leading ones are invertible, so that their failure is final
_PLAN = {rule: ((0,), int(rule in INVERTIBLE)) for rule in _ORDER}
_PLAN.update({RuleId.BotL: ((), 0), RuleId.IdP: ((), 0), RuleId.AndR: ((0, 1), 2), RuleId.OrL: ((0, 1), 2)})
_PLAN.update(dict.fromkeys(RIGHT_INVERTIBLE, ((1, 0), 1)))
_UNSEEN, _BOT, _BOTL, _IDP = object(), Bot(), RuleId.BotL, RuleId.IdP


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
    rule order using seed; budget caps the number of sequents visited."""
    order, rng = (RuleId, random.Random(seed)) if naive else (_ORDER, None)
    # decided results only, and none in naive mode: theta falls strictly
    # along every branch, so a sequent in progress is never met below itself
    memo: dict[Sequent, Optional[Derivation]] = {}
    visits = 0

    def search(seq: Sequent, parent_theta) -> Optional[Derivation]:
        nonlocal visits
        result = memo.get(seq, _UNSEEN)
        if result is not _UNSEEN:
            return result
        if budget is not None and visits >= budget:
            raise _Budget()
        visits += 1
        own_theta = None
        if debug:
            own_theta = theta(seq)
            # strict decrease against the immediate parent rules out loops
            if parent_theta is not None and not shortlex_less(own_theta, parent_theta):
                raise AssertionError(f"theta failed to decrease at {seq}")
        result = None
        # fast path beside _principals: without it small proved goals take 17-23 % longer
        if not naive and seq.ant and seq.ant[0] is _BOT:  # # sorts first
            pairs = ((_BOTL, None),)
        elif not naive and type(seq.suc) is Var and seq.suc in seq.ant:
            pairs = ((_IDP, None),)
        else:
            offers = _principals(seq)
            pairs = [(rule, p) for rule in order if rule in offers for p in offers[rule]]
            if naive:
                rng.shuffle(pairs)
        for rule, principal in pairs:
            premises = premises_of(rule, seq, principal)
            plan, final = (range(len(premises)), 0) if naive else _PLAN[rule]
            children: list[Optional[Derivation]] = [None] * len(premises)
            refuted = False
            for k, i in enumerate(plan):
                sub = search(premises[i], own_theta)
                if sub is None:
                    refuted = k < final
                    break
                children[i] = sub
            else:
                result = Derivation(seq, rule, principal, tuple(children))
                break
            if refuted:
                break
        if not naive:
            memo[seq] = result
        return result

    try:
        found = search(s, None)
    except _Budget:
        return BudgetExceeded(visits)
    finally:
        del search  # it refers to itself: break the cycle, so memo is freed now
    if found is None:
        return Unprovable(visits)
    return Proved(found)


def decide(f: Formula, **kwargs) -> SearchResult:
    return prove(Sequent(Multiset(), f), **kwargs)
