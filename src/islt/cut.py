"""Cut admissibility and elimination.

A cut joins a proof of G => f with a proof of G, f => chi into a proof of
G => chi. The construction recurses on the pair (weight of the cut
formula, ordering measure of the conclusion), lexicographically: every
recursive cut either has a strictly lighter cut formula or the same
formula with a strictly smaller conclusion measure. With debug enabled
that descent is asserted at every step and exposed through the log.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from typing import Optional

from .calculus import (
    INVERTIBLE_LEFT,
    LEFT_RULES,
    RIGHT_INVERTIBLE,
    Derivation,
    RuleId,
    check,
    node,
    uses_cut,
)
from .formula import Formula, Imp, _Record, print_formula, weight
from .measure import Theta, shortlex_less, theta
from .sequent import Multiset, Sequent, boxed_occurrences
from .structural import (
    box_imp_lir,
    contract,
    id_general,
    imp_imp_lil,
    imp_imp_lir,
    invert,
    unbox_left,
    weaken,
)


class CutError(ValueError):
    """A malformed cut instance."""


Measure = tuple[int, Theta]


def _measure_less(a: Measure, b: Measure) -> bool:
    if a[0] != b[0]:
        return a[0] < b[0]
    return shortlex_less(a[1], b[1])


class CutInstance(_Record):
    """Two cut-free premises sharing a context: left proves context => cut
    formula, right proves context, cut formula => goal."""

    __slots__ = __match_args__ = ("left", "right")

    def __init__(self, left: Derivation, right: Derivation) -> None:
        _set_left(self, left)
        _set_right(self, right)

    @property
    def context(self) -> Multiset:
        return self.left.root.ant

    @property
    def cut_formula(self) -> Formula:
        return self.left.root.suc

    @property
    def goal(self) -> Formula:
        return self.right.root.suc

    @property
    def conclusion(self) -> Sequent:
        return Sequent(self.context, self.goal)

    def validate(self) -> None:
        expected = self.context.add(self.cut_formula)
        if self.right.root.ant != expected:
            raise CutError(
                "right antecedent must be the left antecedent plus the cut formula; "
                f"got {self.right.root.ant} expecting {expected}"
            )
        for name, d in (("left", self.left), ("right", self.right)):
            if uses_cut(d):
                raise CutError(f"{name} premise is not cut-free")
            bad = check(d)
            if bad is not None:
                raise CutError(f"{name} premise fails checking: {bad}")


# slot setters that bypass the immutability guard, for construction only
_set_left, _set_right = CutInstance.left.__set__, CutInstance.right.__set__


@contextmanager
def _recursion_limit(depth: int):
    """Raise the interpreter's recursion limit to at least depth for the
    block, since the construction recurses on proof height, and give the
    caller's limit back afterwards."""
    before = sys.getrecursionlimit()
    sys.setrecursionlimit(max(before, depth))
    try:
        yield
    finally:
        sys.setrecursionlimit(before)


def cut_admissible(instance: CutInstance, debug: bool = False, log: Optional[list] = None) -> Derivation:
    """A cut-free proof of the instance's conclusion."""
    instance.validate()
    with _recursion_limit(100000):
        return _cut(instance.left, instance.right, None, debug, log)


def _enter(d1: Derivation, d2: Derivation, parent: Optional[Measure], debug: bool, log) -> Optional[Measure]:
    """The measure of the cut about to be made, logged and checked against
    its parent's; None, and nothing computed, when nobody reads it."""
    if not debug and log is None:
        return None
    own = (weight(d1.root.suc), theta(Sequent(d1.root.ant, d2.root.suc)))
    if log is not None:
        log.append((parent, own))
    if debug and parent is not None:
        assert _measure_less(own, parent), (
            f"cut measure did not descend: {own} under {parent} "
            f"(cut formula {print_formula(d1.root.suc)})"
        )
    return own


def _cut(
    d1: Derivation,
    d2: Derivation,
    parent: Optional[Measure],
    debug: bool,
    log,
) -> Derivation:
    own = _enter(d1, d2, parent, debug, log)

    def go(a: Derivation, b: Derivation) -> Derivation:
        return _cut(a, b, own, debug, log)

    ctx = d1.root.ant
    phi = d1.root.suc
    goal = d2.root.suc
    conclusion = Sequent(ctx, goal)
    r1 = d1.rule

    # the cut formula never became principal on the left
    if r1 is RuleId.IdP:
        return contract(d2, phi)
    if r1 is RuleId.BotL:
        return node(RuleId.BotL, conclusion, None)
    if r1 in LEFT_RULES:
        pi = d1.principal
        if r1 in RIGHT_INVERTIBLE:
            lir = imp_imp_lir if r1 is RuleId.ImpImpL else box_imp_lir
            return node(r1, conclusion, pi, d1.children[0], go(d1.children[1], lir(d2, pi)))
        mirrored = invert(r1, d2, pi)
        return node(r1, conclusion, pi, *(go(c, m) for c, m in zip(d1.children, mirrored)))

    # principal on the left: the cut formula was just introduced
    if r1 is RuleId.AndR:
        b = phi.right
        opened = invert(RuleId.AndL, d2, phi)[0]
        after_a = go(weaken(d1.children[0], b), opened)
        return go(d1.children[1], after_a)
    if r1 in (RuleId.OrR1, RuleId.OrR2):
        branches = invert(RuleId.OrL, d2, phi)
        side = branches[0] if r1 is RuleId.OrR1 else branches[1]
        return go(d1.children[0], side)
    if r1 is RuleId.ImpR:
        return _cut_imp_r(d1, d2, go)
    if r1 is RuleId.SLtR:
        return _cut_sltr(d1, d2, go)
    raise CutError(f"unexpected left rule {r1.value}")


def _cut_imp_r(d1: Derivation, d2: Derivation, go) -> Derivation:
    """Left premise ends in ImpR; the cut formula is an implication."""
    ctx = d1.root.ant
    phi = d1.root.suc
    p0, p1 = phi.left, phi.right
    d1p = d1.children[0]
    r2 = d2.rule

    if r2 in LEFT_RULES and d2.principal == phi:
        # principal on both sides: reduce through phi's antecedent rule,
        # chosen by the shape of p0
        if r2 is RuleId.AtomImpL:
            stripped = contract(d1p, p0)
            return go(stripped, d2.children[0])
        if r2 is RuleId.AndImpL:
            a, b = p0.left, p0.right
            opened = invert(RuleId.AndL, d1p, p0)[0]
            s1 = node(RuleId.ImpR, Sequent(ctx.add(a), Imp(b, p1)), None, opened)
            s2 = node(RuleId.ImpR, Sequent(ctx, Imp(a, Imp(b, p1))), None, s1)
            return go(s2, d2.children[0])
        if r2 is RuleId.OrImpL:
            a, b = p0.left, p0.right
            ia, ib = invert(RuleId.OrL, d1p, p0)
            sa = node(RuleId.ImpR, Sequent(ctx, Imp(a, p1)), None, ia)
            sb = node(RuleId.ImpR, Sequent(ctx, Imp(b, p1)), None, ib)
            first = go(weaken(sa, Imp(b, p1)), d2.children[0])
            return go(sb, first)
        if r2 is RuleId.ImpImpL:
            a, b = p0.left, p0.right
            c = p1
            bc = Imp(b, c)
            left2, right2 = d2.children
            cut_ab = go(left2, weaken(d1p, bc))
            inner = node(
                RuleId.ImpR,
                Sequent(ctx.add(b), p0),
                None,
                id_general(b, ctx.add(a)),
            )
            cut_b = go(inner, weaken(d1p, b))
            curried = node(RuleId.ImpR, Sequent(ctx, bc), None, cut_b)
            cut_c = go(curried, cut_ab)
            return go(cut_c, right2)
        if r2 is RuleId.BoxImpL:
            # phi = []x -> y; rebuild []x under the strong rule, then cut twice
            left2, right2 = d2.children
            s1 = unbox_left(d1p, boxed_occurrences(ctx))
            s2 = go(s1, left2)
            s3 = node(RuleId.SLtR, Sequent(ctx, p0), None, s2)
            s4 = go(s3, d1p)
            return go(s4, right2)
        raise CutError(f"implication cut formula principal under {r2.value}")

    return _commute_right_rule(d1, d2, go)


def _cut_sltr(d1: Derivation, d2: Derivation, go) -> Derivation:
    """Left premise ends in SLtR; the cut formula is boxed."""
    ctx = d1.root.ant
    phi = d1.root.suc
    goal = d2.root.suc
    conclusion = Sequent(ctx, goal)
    loop = d1.children[0]
    r2 = d2.rule

    if r2 is RuleId.BoxImpL:
        pi = d2.principal
        left2, right2 = d2.children
        rest = ctx.remove(pi)
        rest_boxed = boxed_occurrences(rest)
        # left branch: derive the unboxed premise by two nested cuts
        x2 = unbox_left(d1, rest_boxed)
        x3 = weaken(x2, pi.left)
        x4 = box_imp_lir(x3, pi)
        x6 = weaken(loop, pi.left)
        x7 = box_imp_lir(x6, pi)
        x8 = weaken(left2, phi)
        pi1 = go(x7, x8)
        pi0 = go(x4, pi1)
        # right branch
        x9 = box_imp_lir(d1, pi)
        xb = go(x9, right2)
        return node(RuleId.BoxImpL, conclusion, pi, pi0, xb)

    if r2 is RuleId.SLtR:
        p2 = d2.children[0]
        stripped = unbox_left(d1, boxed_occurrences(ctx))
        a = weaken(stripped, goal)
        b = weaken(loop, goal)
        c = weaken(p2, phi)
        d = go(b, c)
        e = go(a, d)
        return node(RuleId.SLtR, conclusion, None, e)

    return _commute_right_rule(d1, d2, go)


def _commute_right_rule(d1: Derivation, d2: Derivation, go) -> Derivation:
    """The right premise's last rule does not touch the cut formula:
    push the cut into its premises and replay the rule."""
    ctx = d1.root.ant
    phi = d1.root.suc
    goal = d2.root.suc
    conclusion = Sequent(ctx, goal)
    r2 = d2.rule

    if r2 in (RuleId.IdP, RuleId.BotL, RuleId.AndR, RuleId.OrR1, RuleId.OrR2):
        # the premises keep the antecedent, so the cut moves into each one
        return node(r2, conclusion, None, *(go(d1, c) for c in d2.children))
    if r2 is RuleId.ImpR:
        sub = go(weaken(d1, goal.left), d2.children[0])
        return node(RuleId.ImpR, conclusion, None, sub)
    if r2 in INVERTIBLE_LEFT:
        pi = d2.principal
        mirrored = invert(r2, d1, pi)
        subs = [go(m, c) for m, c in zip(mirrored, d2.children)]
        return node(r2, conclusion, pi, *subs)
    if r2 is RuleId.ImpImpL:
        pi = d2.principal
        y, z = pi.left.right, pi.right
        yz = Imp(y, z)
        left2, right2 = d2.children
        rest = ctx.remove(pi)
        nb = go(imp_imp_lir(d1, pi), right2)
        spread = contract(imp_imp_lil(d1, pi), yz)
        opened = invert(RuleId.ImpR, left2)[0]
        inner = go(spread, opened)
        na = node(RuleId.ImpR, Sequent(rest.add(yz), pi.left), None, inner)
        return node(RuleId.ImpImpL, conclusion, pi, na, nb)
    if r2 is RuleId.BoxImpL:
        # reached only for a non-boxed cut formula
        assert isinstance(phi, Imp), print_formula(phi)
        pi = d2.principal
        left2, right2 = d2.children
        rest = ctx.remove(pi)
        nb = go(box_imp_lir(d1, pi), right2)
        c0 = invert(RuleId.ImpR, d1)[0]
        c1 = weaken(c0, pi.left)
        c2 = box_imp_lir(c1, pi)
        c3 = unbox_left(c2, boxed_occurrences(rest))
        rebuilt = node(
            RuleId.ImpR,
            Sequent(left2.root.ant.remove(phi), phi),
            None,
            c3,
        )
        na = go(rebuilt, left2)
        return node(RuleId.BoxImpL, conclusion, pi, na, nb)
    if r2 is RuleId.SLtR:
        assert isinstance(phi, Imp), print_formula(phi)
        p2 = d2.children[0]
        stripped = unbox_left(d1, boxed_occurrences(ctx))
        sub = go(weaken(stripped, goal), p2)
        return node(RuleId.SLtR, conclusion, None, sub)
    raise CutError(f"unexpected right rule {r2.value}")


def eliminate(d: Derivation, debug: bool = False, log: Optional[list] = None) -> Derivation:
    """Rewrite every Cut node bottom-up through cut_admissible; the result
    is cut-free with the same root sequent."""
    bad = check(d, allow_cut=True)
    if bad is not None:
        raise CutError(f"input fails checking: {bad}")
    with _recursion_limit(100000):
        out = _eliminate(d, debug, log)
    assert out.root == d.root
    return out


def _eliminate(d: Derivation, debug: bool, log) -> Derivation:
    children = [_eliminate(c, debug, log) for c in d.children]
    if d.rule is RuleId.Cut:
        return _cut(children[0], children[1], None, debug, log)
    if not d.children:
        return d
    return node(d.rule, d.root, d.principal, *children)
