"""Cut admissibility and elimination.

A cut joins two proofs: a proof of G => f and a proof of G, f => chi make a
proof of G => chi. The construction recurses on the pair (weight of the cut
formula, ordering measure of the conclusion), lexicographically: every
recursive cut either has a strictly lighter cut formula or the same
formula with a strictly smaller conclusion measure. With debug enabled
that descent is checked at every step, under python -O too, and exposed
through the log.

There is one way into the construction. ``eliminate`` checks a derivation
that may hold Cut nodes through ``calculus.check``, the one statement of
the Cut rule, then replaces each Cut node bottom-up; ``cut_admissible`` is
``eliminate`` on the Cut node its instance makes.

The construction recurses on proof height within the caller's recursion
limit and never changes that limit. When a proof is too tall for it,
``cut_admissible`` and ``eliminate`` raise ``CutError``; a caller who
needs taller proofs raises the interpreter's limit itself before the call.
"""

from __future__ import annotations

import operator
from functools import partial
from itertools import repeat
from typing import Optional

from .calculus import (
    INVERTIBLE_LEFT,
    LEFT_RULES,
    RIGHT_INVERTIBLE,
    Derivation,
    check,
    node,
)
# the rule ids as module globals, which cost about a tenth of RuleId.X to read
from .calculus import _AndImpL, _AndL, _AndR, _AtomImpL, _BotL, _BoxImpL, _Cut, _IdP, _ImpImpL, _ImpR, _OrImpL, _OrL
from .calculus import _OrR1, _OrR2, _SLtR
from .formula import Imp, _Record, print_formula, weight
from .measure import Theta, shortlex_less, theta
from .sequent import Sequent, boxed_occurrences
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
    """Input that fails checking, or a proof too tall for the recursion limit."""


_TOO_TALL = "proof too tall for the recursion limit; raise the limit to cut it"


Measure = tuple[int, Theta]


def _measure_less(a: Measure, b: Measure) -> bool:
    if a[0] != b[0]:
        return a[0] < b[0]
    return shortlex_less(a[1], b[1])


class CutInstance(_Record):
    """Two premises to cut: left proves G => f, right proves G, f => chi."""

    __slots__ = __match_args__ = ("left", "right")

    @property
    def conclusion(self) -> Sequent:
        return Sequent(self.left.root.ant, self.right.root.suc)


def cut_admissible(instance: CutInstance, debug: bool = False, log: Optional[list] = None) -> Derivation:
    """A cut-free proof of the instance's conclusion: eliminate on the Cut
    node the instance makes, so its premises may hold cuts too."""
    return eliminate(node(_Cut, instance.conclusion, None, instance.left, instance.right), debug, log)


def _enter(d1: Derivation, d2: Derivation, parent: Optional[Measure], debug: bool, log) -> Optional[Measure]:
    """The measure of the cut about to be made, logged and checked against
    its parent's; None, and nothing computed, when nobody reads it."""
    if not debug and log is None:
        return None
    own = (weight(d1.root.suc), theta(Sequent(d1.root.ant, d2.root.suc)))
    if log is not None:
        log.append((parent, own))
    if debug and parent is not None and not _measure_less(own, parent):
        raise AssertionError(
            f"cut measure did not descend: {own} under {parent} "
            f"(cut formula {print_formula(d1.root.suc)})"
        )
    return own


def _cut(
    parent: Optional[Measure],
    debug: bool,
    log,
    d1: Derivation,
    d2: Derivation,
) -> Derivation:
    # go(a, b) makes a recursive cut. A partial, not a closure, and map, not
    # a generator, so that each level of recursion costs one Python frame.
    go = partial(_cut, _enter(d1, d2, parent, debug, log), debug, log)

    ctx = d1.root.ant
    phi = d1.root.suc
    goal = d2.root.suc
    conclusion = Sequent(ctx, goal)
    r1 = d1.rule

    # the cut formula never became principal on the left
    if r1 is _IdP:
        return contract(d2, phi)
    if r1 is _BotL:
        return node(_BotL, conclusion, None)
    if r1 in LEFT_RULES:
        pi = d1.principal
        if r1 in RIGHT_INVERTIBLE:
            lir = imp_imp_lir if r1 is _ImpImpL else box_imp_lir
            return node(r1, conclusion, pi, d1.children[0], go(d1.children[1], lir(d2, pi)))
        mirrored = invert(r1, d2, pi)
        return node(r1, conclusion, pi, *map(go, d1.children, mirrored))

    # principal on the left: the cut formula was just introduced
    if r1 is _AndR:
        b = phi.right
        opened = invert(_AndL, d2, phi)[0]
        after_a = go(weaken(d1.children[0], b), opened)
        return go(d1.children[1], after_a)
    if r1 in (_OrR1, _OrR2):
        branches = invert(_OrL, d2, phi)
        side = branches[0] if r1 is _OrR1 else branches[1]
        return go(d1.children[0], side)
    r2 = d2.rule
    if r1 is _ImpR and r2 in LEFT_RULES and d2.principal == phi:
        return _cut_imp_r(d1, d2, go)
    if r1 is _SLtR and r2 in (_BoxImpL, _SLtR):
        return _cut_sltr(d1, d2, go)
    if r1 not in (_ImpR, _SLtR):
        raise CutError(f"unexpected left rule {r1.value}")

    # the right premise's last rule does not touch the cut formula: push the
    # cut into its premises and replay the rule (here, not in a helper, so
    # that this descent too costs one frame a level)
    if r2 in (_IdP, _BotL, _AndR, _OrR1, _OrR2):
        # the premises keep the antecedent, so the cut moves into each one
        return node(r2, conclusion, None, *map(go, repeat(d1), d2.children))
    if r2 is _ImpR:
        sub = go(weaken(d1, goal.left), d2.children[0])
        return node(_ImpR, conclusion, None, sub)
    if r2 in INVERTIBLE_LEFT:
        pi = d2.principal
        mirrored = invert(r2, d1, pi)
        return node(r2, conclusion, pi, *map(go, mirrored, d2.children))
    if r2 is _ImpImpL:
        pi = d2.principal
        y, z = pi.left.right, pi.right
        yz = Imp(y, z)
        left2, right2 = d2.children
        rest = ctx.remove(pi)
        nb = go(imp_imp_lir(d1, pi), right2)
        spread = contract(imp_imp_lil(d1, pi), yz)
        opened = invert(_ImpR, left2)[0]
        inner = go(spread, opened)
        na = node(_ImpR, Sequent(rest.add(yz), pi.left), None, inner)
        return node(_ImpImpL, conclusion, pi, na, nb)
    if r2 is _BoxImpL:
        # reached only for a non-boxed cut formula
        assert isinstance(phi, Imp), print_formula(phi)
        pi = d2.principal
        left2, right2 = d2.children
        rest = ctx.remove(pi)
        nb = go(box_imp_lir(d1, pi), right2)
        c0 = invert(_ImpR, d1)[0]
        c1 = weaken(c0, pi.left)
        c2 = box_imp_lir(c1, pi)
        c3 = unbox_left(c2, boxed_occurrences(rest))
        rebuilt = node(
            _ImpR,
            Sequent(left2.root.ant.remove(phi), phi),
            None,
            c3,
        )
        na = go(rebuilt, left2)
        return node(_BoxImpL, conclusion, pi, na, nb)
    if r2 is _SLtR:
        assert isinstance(phi, Imp), print_formula(phi)
        p2 = d2.children[0]
        stripped = unbox_left(d1, boxed_occurrences(ctx))
        sub = go(weaken(stripped, goal), p2)
        return node(_SLtR, conclusion, None, sub)
    raise CutError(f"unexpected right rule {r2.value}")


def _cut_imp_r(d1: Derivation, d2: Derivation, go) -> Derivation:
    """Left premise ends in ImpR, right premise in a left rule on the cut
    formula, an implication: principal on both sides."""
    ctx = d1.root.ant
    phi = d1.root.suc
    p0, p1 = phi.left, phi.right
    d1p = d1.children[0]
    r2 = d2.rule

    # reduce through phi's antecedent rule, chosen by the shape of p0
    if r2 is _AtomImpL:
        stripped = contract(d1p, p0)
        return go(stripped, d2.children[0])
    if r2 is _AndImpL:
        a, b = p0.left, p0.right
        opened = invert(_AndL, d1p, p0)[0]
        s1 = node(_ImpR, Sequent(ctx.add(a), Imp(b, p1)), None, opened)
        s2 = node(_ImpR, Sequent(ctx, Imp(a, Imp(b, p1))), None, s1)
        return go(s2, d2.children[0])
    if r2 is _OrImpL:
        a, b = p0.left, p0.right
        ia, ib = invert(_OrL, d1p, p0)
        sa = node(_ImpR, Sequent(ctx, Imp(a, p1)), None, ia)
        sb = node(_ImpR, Sequent(ctx, Imp(b, p1)), None, ib)
        first = go(weaken(sa, Imp(b, p1)), d2.children[0])
        return go(sb, first)
    if r2 is _ImpImpL:
        a, b = p0.left, p0.right
        c = p1
        bc = Imp(b, c)
        left2, right2 = d2.children
        cut_ab = go(left2, weaken(d1p, bc))
        inner = node(
            _ImpR,
            Sequent(ctx.add(b), p0),
            None,
            id_general(b, ctx.add(a)),
        )
        cut_b = go(inner, weaken(d1p, b))
        curried = node(_ImpR, Sequent(ctx, bc), None, cut_b)
        cut_c = go(curried, cut_ab)
        return go(cut_c, right2)
    if r2 is _BoxImpL:
        # phi = []x -> y; rebuild []x under the strong rule, then cut twice
        left2, right2 = d2.children
        s1 = unbox_left(d1p, boxed_occurrences(ctx))
        s2 = go(s1, left2)
        s3 = node(_SLtR, Sequent(ctx, p0), None, s2)
        s4 = go(s3, d1p)
        return go(s4, right2)
    raise CutError(f"implication cut formula principal under {r2.value}")


def _cut_sltr(d1: Derivation, d2: Derivation, go) -> Derivation:
    """Left premise ends in SLtR, right premise in BoxImpL or SLtR; the cut
    formula is boxed."""
    ctx = d1.root.ant
    phi = d1.root.suc
    goal = d2.root.suc
    conclusion = Sequent(ctx, goal)
    loop = d1.children[0]
    r2 = d2.rule

    if r2 is _BoxImpL:
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
        return node(_BoxImpL, conclusion, pi, pi0, xb)

    # SLtR on both sides
    p2 = d2.children[0]
    stripped = unbox_left(d1, boxed_occurrences(ctx))
    a = weaken(stripped, goal)
    b = weaken(loop, goal)
    c = weaken(p2, phi)
    d = go(b, c)
    e = go(a, d)
    return node(_SLtR, conclusion, None, e)


def eliminate(d: Derivation, debug: bool = False, log: Optional[list] = None) -> Derivation:
    """Check d, Cut nodes allowed, then replace every Cut node bottom-up by
    the cut of its rewritten premises; the result is cut-free with the same
    root sequent. A node none of whose premises changed is kept as it is."""
    bad = check(d, allow_cut=True)
    if bad is not None:
        raise CutError(f"input fails checking: {bad}")

    def rewrite(n: Derivation) -> Derivation:
        children = tuple(map(rewrite, n.children))
        if n.rule is _Cut:
            return _cut(None, debug, log, *children)
        if all(map(operator.is_, children, n.children)):
            return n
        return node(n.rule, n.root, n.principal, *children)

    try:
        out = rewrite(d)
    except RecursionError:
        raise CutError(_TOO_TALL) from None
    assert out.root == d.root
    return out
