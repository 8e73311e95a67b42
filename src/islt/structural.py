"""Admissible proof transformations implemented as structural recursions.

Each transform consumes checker-valid proofs and produces a checker-valid
proof of the transformed sequent. weaken, unbox_left, box_imp_lir,
imp_imp_lir and the invert family never increase height; contract,
imp_imp_lil, imp_left and id_general may. Exchange needs no transform at
all: antecedents are canonical multisets.

Throughout, a principal occurrence is designated by formula value; under
multiset semantics equal occurrences are interchangeable, so nothing more
precise exists to designate.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from .calculus import (
    INVERTIBLE,
    LEFT_RULES,
    ZERO_PREMISE,
    Derivation,
    RuleId,
    botl,
    idp,
    node,
)
from .formula import And, Bot, Box, Formula, Imp, Or, Var, print_formula
from .sequent import Multiset, Sequent, unbox_one_level

HEIGHT_PRESERVING = {
    "weaken": True,
    "unbox_left": True,
    "invert": True,
    "box_imp_lir": True,
    "imp_imp_lir": True,
    "imp_imp_lil": False,
    "contract": False,
    "imp_left": False,
    "id_general": False,
}


class TransformError(ValueError):
    """A transform was applied outside its precondition."""


def weaken(p: Derivation, f: Formula) -> Derivation:
    """Add one antecedent occurrence of f; height preserving. Under SLtR
    and the left premise of BoxImpL a boxed f arrives unboxed."""
    target = Sequent(p.root.ant.add(f), p.root.suc)
    rule = p.rule
    if rule in ZERO_PREMISE:
        return node(rule, target, None)
    if rule is RuleId.SLtR:
        inner = f.body if isinstance(f, Box) else f
        return node(rule, target, None, weaken(p.children[0], inner))
    if rule is RuleId.BoxImpL:
        inner = f.body if isinstance(f, Box) else f
        return node(
            rule, target, p.principal, weaken(p.children[0], inner), weaken(p.children[1], f)
        )
    return node(rule, target, p.principal, *(weaken(c, f) for c in p.children))


def weaken_many(p: Derivation, fs: Iterable[Formula]) -> Derivation:
    for f in fs:
        p = weaken(p, f)
    return p


def unbox_left(p: Derivation, designated: Iterable[Formula]) -> Derivation:
    """Strip the box from the designated boxed antecedent occurrences;
    height preserving. Empty designation returns p unchanged."""
    des = Multiset.from_iterable(designated)
    if len(des) == 0:
        return p
    for f in des.distinct():
        if not isinstance(f, Box):
            raise TransformError(f"cannot unbox non-boxed {print_formula(f)}")
    try:
        stripped = p.root.ant.remove_all(des)
    except KeyError as e:
        raise TransformError(str(e)) from None
    bodies = [f.body for f in des]
    target = Sequent(stripped.union(Multiset.from_iterable(bodies)), p.root.suc)
    rule = p.rule
    if rule in ZERO_PREMISE:
        return node(rule, target, None)
    # in unboxed premise positions the designated occurrences already lost
    # one box; only still-boxed bodies need further stripping there
    deeper = [b for b in bodies if isinstance(b, Box)]
    if rule is RuleId.SLtR:
        return node(rule, target, None, unbox_left(p.children[0], deeper))
    if rule is RuleId.BoxImpL:
        left = unbox_left(p.children[0], deeper)
        right = unbox_left(p.children[1], des)
        return node(rule, target, p.principal, left, right)
    return node(rule, target, p.principal, *(unbox_left(c, des) for c in p.children))


def _commute_replace(
    p: Derivation,
    pi: Formula,
    pieces: list[Formula],
    on_principal: Callable[[Derivation], Derivation],
) -> Derivation:
    """Replace one antecedent occurrence of the non-boxed composite pi by
    pieces everywhere above, handing nodes where pi is principal to
    on_principal. Height preserving whenever on_principal is."""
    target = Sequent(
        p.root.ant.remove(pi).union(Multiset.from_iterable(pieces)), p.root.suc
    )
    rule = p.rule
    if rule in ZERO_PREMISE:
        # pi is neither falsum nor an atom, so the closing condition survives
        return node(rule, target, None)
    if rule in LEFT_RULES and p.principal == pi:
        return on_principal(p)
    boxed_pieces = [x for x in pieces if isinstance(x, Box)]
    if rule is RuleId.SLtR:
        child = _commute_replace(p.children[0], pi, pieces, on_principal)
        return node(rule, target, None, unbox_left(child, boxed_pieces))
    if rule is RuleId.BoxImpL:
        left = _commute_replace(p.children[0], pi, pieces, on_principal)
        left = unbox_left(left, boxed_pieces)
        right = _commute_replace(p.children[1], pi, pieces, on_principal)
        return node(rule, target, p.principal, left, right)
    children = (_commute_replace(c, pi, pieces, on_principal) for c in p.children)
    return node(rule, target, p.principal, *children)


def _commute_right(
    p: Derivation,
    extra: list[Formula],
    new_suc: Formula,
    recurse: Callable[[Derivation], Derivation],
) -> Derivation:
    """Rebuild p's root left rule at (ant + extra => new_suc), recursing
    into succedent-carrying premises and weakening the side premises."""
    target = Sequent(p.root.ant.union(Multiset.from_iterable(extra)), new_suc)
    rule = p.rule
    if rule is RuleId.BotL:
        return botl(target)
    if rule is RuleId.ImpImpL:
        left = weaken_many(p.children[0], extra)
        return node(rule, target, p.principal, left, recurse(p.children[1]))
    if rule is RuleId.BoxImpL:
        left = p.children[0]
        for x in extra:
            left = weaken(left, x.body if isinstance(x, Box) else x)
        return node(rule, target, p.principal, left, recurse(p.children[1]))
    if rule in LEFT_RULES:
        return node(rule, target, p.principal, *(recurse(c) for c in p.children))
    raise TransformError(f"cannot commute past {rule.value} here")


def _invert_imp_r(p: Derivation) -> Derivation:
    """From a proof of G => a -> b to a proof of G, a => b."""
    suc = p.root.suc
    if not isinstance(suc, Imp):
        raise TransformError("succedent is not an implication")
    if p.rule is RuleId.ImpR:
        return p.children[0]
    return _commute_right(p, [suc.left], suc.right, _invert_imp_r)


def _invert_and_r(p: Derivation, which: int) -> Derivation:
    """From a proof of G => a /\\ b to a proof of G => a (or => b)."""
    suc = p.root.suc
    if not isinstance(suc, And):
        raise TransformError("succedent is not a conjunction")
    if p.rule is RuleId.AndR:
        return p.children[which]
    part = suc.left if which == 0 else suc.right
    return _commute_right(p, [], part, lambda c: _invert_and_r(c, which))


def invert(rule: RuleId, p: Derivation, principal: Optional[Formula] = None) -> list[Derivation]:
    """Height-preserving inversion: proofs of every premise of the given
    rule instance at p's root. Only the invertible rules qualify."""
    if rule not in INVERTIBLE:
        raise TransformError(f"{rule.value} is not invertible")
    if rule is RuleId.AndR:
        return [_invert_and_r(p, 0), _invert_and_r(p, 1)]
    if rule is RuleId.ImpR:
        return [_invert_imp_r(p)]
    if principal is None or principal not in p.root.ant:
        raise TransformError("left inversion needs a principal occurrence in the antecedent")
    first_child = lambda n: n.children[0]
    if rule is RuleId.AndL:
        if not isinstance(principal, And):
            raise TransformError("AndL inversion needs a conjunction")
        return [_commute_replace(p, principal, [principal.left, principal.right], first_child)]
    if rule is RuleId.OrL:
        if not isinstance(principal, Or):
            raise TransformError("OrL inversion needs a disjunction")
        return [
            _commute_replace(p, principal, [principal.left], lambda n: n.children[0]),
            _commute_replace(p, principal, [principal.right], lambda n: n.children[1]),
        ]
    if rule is RuleId.AtomImpL:
        if not (isinstance(principal, Imp) and isinstance(principal.left, Var)):
            raise TransformError("AtomImpL inversion needs an atomic implication")
        return [_commute_replace(p, principal, [principal.right], first_child)]
    if rule is RuleId.AndImpL:
        if not (isinstance(principal, Imp) and isinstance(principal.left, And)):
            raise TransformError("AndImpL inversion needs a conjunction-headed implication")
        curried = Imp(principal.left.left, Imp(principal.left.right, principal.right))
        return [_commute_replace(p, principal, [curried], first_child)]
    if rule is RuleId.OrImpL:
        if not (isinstance(principal, Imp) and isinstance(principal.left, Or)):
            raise TransformError("OrImpL inversion needs a disjunction-headed implication")
        pieces = [Imp(principal.left.left, principal.right), Imp(principal.left.right, principal.right)]
        return [_commute_replace(p, principal, pieces, first_child)]
    raise TransformError(f"{rule.value} is not invertible")


def box_imp_lir(p: Derivation, principal: Formula) -> Derivation:
    """Replace one occurrence of []a -> b by b on the left; height
    preserving (inversion into the right premise of BoxImpL)."""
    if not (isinstance(principal, Imp) and isinstance(principal.left, Box)):
        raise TransformError("needs a box-headed implication")
    if principal not in p.root.ant:
        raise TransformError("principal occurrence missing")
    return _commute_replace(p, principal, [principal.right], lambda n: n.children[1])


def imp_imp_lir(p: Derivation, principal: Formula) -> Derivation:
    """Replace one occurrence of (a -> b) -> c by c on the left; height
    preserving (inversion into the right premise of ImpImpL)."""
    if not (isinstance(principal, Imp) and isinstance(principal.left, Imp)):
        raise TransformError("needs an implication-headed implication")
    if principal not in p.root.ant:
        raise TransformError("principal occurrence missing")
    return _commute_replace(p, principal, [principal.right], lambda n: n.children[1])


def imp_imp_lil(p: Derivation, principal: Formula) -> Derivation:
    """Replace one occurrence of (a -> b) -> c by a, b -> c, b -> c on the
    left. Not height preserving: where the occurrence is principal the
    rebuild goes through imp_left."""
    if not (isinstance(principal, Imp) and isinstance(principal.left, Imp)):
        raise TransformError("needs an implication-headed implication")
    if principal not in p.root.ant:
        raise TransformError("principal occurrence missing")
    a, b, c = principal.left.left, principal.left.right, principal.right
    bc = Imp(b, c)

    def on_principal(n: Derivation) -> Derivation:
        premise_goal = _invert_imp_r(n.children[0])
        side = weaken(weaken(n.children[1], a), bc)
        return imp_left(premise_goal, side)

    return _commute_replace(p, principal, [a, bc, bc], on_principal)


def id_general(f: Formula, context: Multiset = Multiset()) -> Derivation:
    """A proof of f, context => f for arbitrary f, closing at atoms."""
    target = Sequent(context.add(f), f)
    if isinstance(f, Var):
        return idp(target)
    if isinstance(f, Bot):
        return botl(target)
    if isinstance(f, And):
        a, b = f.left, f.right
        la = node(RuleId.AndL, Sequent(context.add(f), a), f, id_general(a, context.add(b)))
        lb = node(RuleId.AndL, Sequent(context.add(f), b), f, id_general(b, context.add(a)))
        return node(RuleId.AndR, target, None, la, lb)
    if isinstance(f, Or):
        a, b = f.left, f.right
        pa = node(RuleId.OrR1, Sequent(context.add(a), f), None, id_general(a, context))
        pb = node(RuleId.OrR2, Sequent(context.add(b), f), None, id_general(b, context))
        return node(RuleId.OrL, target, f, pa, pb)
    if isinstance(f, Imp):
        return node(RuleId.ImpR, target, None, _curry_elim([f.left], f.right, context))
    if isinstance(f, Box):
        prem = id_general(f.body, unbox_one_level(context).add(f))
        return node(RuleId.SLtR, target, None, prem)
    raise TransformError(f"not a formula: {f!r}")


def _curry(gammas: list[Formula], goal: Formula) -> Formula:
    out = goal
    for g in reversed(gammas):
        out = Imp(g, out)
    return out


def _curry_elim(gammas: list[Formula], goal: Formula, ctx: Multiset) -> Derivation:
    """A proof of curried chain, arguments, ctx => goal; the workhorse
    behind id_general's implication case."""
    if not gammas:
        return id_general(goal, ctx)
    head, rest = gammas[0], gammas[1:]
    chain = _curry(gammas, goal)
    tail = _curry(rest, goal)
    target = Sequent(ctx.add(chain).union(Multiset.from_iterable(gammas)), goal)
    if isinstance(head, Var):
        prem = _curry_elim(rest, goal, ctx.add(head))
        return node(RuleId.AtomImpL, target, chain, prem)
    if isinstance(head, Bot):
        return botl(target)
    if isinstance(head, And):
        a, b = head.left, head.right
        inner = _curry_elim([a, b] + rest, goal, ctx)
        mid = Sequent(target.ant.remove(head).add(a).add(b), goal)
        return node(RuleId.AndL, target, head, node(RuleId.AndImpL, mid, chain, inner))
    if isinstance(head, Or):
        a, b = head.left, head.right
        a_tail, b_tail = Imp(a, tail), Imp(b, tail)
        branch_a = Sequent(target.ant.remove(head).add(a), goal)
        branch_b = Sequent(target.ant.remove(head).add(b), goal)
        inner_a = _curry_elim([a] + rest, goal, ctx.add(b_tail))
        inner_b = _curry_elim([b] + rest, goal, ctx.add(a_tail))
        return node(
            RuleId.OrL,
            target,
            head,
            node(RuleId.OrImpL, branch_a, chain, inner_a),
            node(RuleId.OrImpL, branch_b, chain, inner_b),
        )
    if isinstance(head, Imp):
        left = id_general(head, ctx.add(Imp(head.right, tail)).union(Multiset.from_iterable(rest)))
        right = _curry_elim(rest, goal, ctx.add(head))
        return node(RuleId.ImpImpL, target, chain, left, right)
    if isinstance(head, Box):
        rest_ms = Multiset.from_iterable(rest)
        left = id_general(
            head.body, unbox_one_level(ctx.union(rest_ms)).add(tail).add(head)
        )
        right = _curry_elim(rest, goal, ctx.add(head))
        return node(RuleId.BoxImpL, target, chain, left, right)
    raise TransformError(f"not a formula: {head!r}")


def imp_left(p1: Derivation, p2: Derivation) -> Derivation:
    """From proofs of G => f and G, g => chi build G, f -> g => chi. Not
    height preserving; recursion on f with an inner recursion on p1."""
    ctx = p1.root.ant
    f = p1.root.suc
    try:
        diff = p2.root.ant.remove_all(ctx)
    except KeyError:
        raise TransformError("p2's antecedent must extend p1's") from None
    if len(diff) != 1:
        raise TransformError("p2's antecedent must extend p1's by exactly one formula")
    g = next(iter(diff))
    chi = p2.root.suc
    fg = Imp(f, g)
    target = Sequent(ctx.add(fg), chi)

    if isinstance(f, Imp):
        return node(RuleId.ImpImpL, target, fg, weaken(p1, Imp(f.right, g)), p2)
    if isinstance(f, And):
        pa, pb = invert(RuleId.AndR, p1)
        inner = imp_left(pb, p2)
        return node(RuleId.AndImpL, target, fg, imp_left(pa, inner))

    rule = p1.rule
    if rule is RuleId.BotL:
        return botl(target)
    if rule is RuleId.IdP:
        return node(RuleId.AtomImpL, target, fg, p2)
    if rule in (RuleId.OrR1, RuleId.OrR2):
        sub = imp_left(p1.children[0], p2)
        other = Imp(f.right, g) if rule is RuleId.OrR1 else Imp(f.left, g)
        return node(RuleId.OrImpL, target, fg, weaken(sub, other))
    if rule is RuleId.SLtR:
        return node(RuleId.BoxImpL, target, fg, weaken(p1.children[0], g), p2)

    # commute past p1's left rule, adjusting p2 into the same context
    pi = p1.principal
    if rule in (RuleId.AndL, RuleId.OrL, RuleId.AtomImpL, RuleId.AndImpL, RuleId.OrImpL):
        adjusted = invert(rule, p2, pi)
        subs = [imp_left(c, adj) for c, adj in zip(p1.children, adjusted)]
        return node(rule, target, pi, *subs)
    if rule is RuleId.ImpImpL:
        adj = imp_imp_lir(p2, pi)
        sub = imp_left(p1.children[1], adj)
        return node(RuleId.ImpImpL, target, pi, weaken(p1.children[0], fg), sub)
    if rule is RuleId.BoxImpL:
        adj = box_imp_lir(p2, pi)
        sub = imp_left(p1.children[1], adj)
        return node(RuleId.BoxImpL, target, pi, weaken(p1.children[0], fg), sub)
    raise TransformError(f"cannot commute imp_left past {rule.value}")


def contract(p: Derivation, f: Formula) -> Derivation:
    """Merge two antecedent occurrences of f into one. Not height
    preserving; recursion on (weight of f, then proof height)."""
    ant = p.root.ant
    if ant.count(f) < 2:
        raise TransformError(f"need two occurrences of {print_formula(f)} to contract")
    target = Sequent(ant.remove(f), p.root.suc)
    rule = p.rule
    if rule in ZERO_PREMISE:
        return node(rule, target, None)
    if rule in LEFT_RULES and p.principal == f:
        return _contract_principal(p, f, target)
    if rule is RuleId.SLtR:
        inner = f.body if isinstance(f, Box) else f
        return node(rule, target, None, contract(p.children[0], inner))
    if rule is RuleId.BoxImpL:
        inner = f.body if isinstance(f, Box) else f
        left = contract(p.children[0], inner)
        right = contract(p.children[1], f)
        return node(rule, target, p.principal, left, right)
    return node(rule, target, p.principal, *(contract(c, f) for c in p.children))


def _contract_principal(p: Derivation, f: Formula, target: Sequent) -> Derivation:
    """f is principal at the root and a second copy sits in the context:
    invert the copy inside the premises, contract the strictly lighter
    pieces, and reapply the rule."""
    rule = p.rule
    if rule is RuleId.AndL:
        a, b = f.left, f.right
        inv = invert(RuleId.AndL, p.children[0], f)[0]
        return node(rule, target, f, contract(contract(inv, a), b))
    if rule is RuleId.OrL:
        a, b = f.left, f.right
        ia = invert(RuleId.OrL, p.children[0], f)[0]
        ib = invert(RuleId.OrL, p.children[1], f)[1]
        return node(rule, target, f, contract(ia, a), contract(ib, b))
    if rule is RuleId.AtomImpL:
        c = f.right
        inv = invert(RuleId.AtomImpL, p.children[0], f)[0]
        return node(rule, target, f, contract(inv, c))
    if rule is RuleId.AndImpL:
        piece = Imp(f.left.left, Imp(f.left.right, f.right))
        inv = invert(RuleId.AndImpL, p.children[0], f)[0]
        return node(rule, target, f, contract(inv, piece))
    if rule is RuleId.OrImpL:
        g1, g2 = Imp(f.left.left, f.right), Imp(f.left.right, f.right)
        inv = invert(RuleId.OrImpL, p.children[0], f)[0]
        return node(rule, target, f, contract(contract(inv, g1), g2))
    if rule is RuleId.ImpImpL:
        a, b, c = f.left.left, f.left.right, f.right
        bc = Imp(b, c)
        opened = _invert_imp_r(p.children[0])
        spread = imp_imp_lil(opened, f)
        spread = contract(contract(contract(spread, a), bc), bc)
        rest = target.ant.remove(f)
        left = node(RuleId.ImpR, Sequent(rest.add(bc), f.left), None, spread)
        right = contract(imp_imp_lir(p.children[1], f), c)
        return node(rule, target, f, left, right)
    if rule is RuleId.BoxImpL:
        d = f.right
        left = contract(box_imp_lir(p.children[0], f), d)
        right = contract(box_imp_lir(p.children[1], f), d)
        return node(rule, target, f, left, right)
    raise TransformError(f"{rule.value} cannot have a principal occurrence")
