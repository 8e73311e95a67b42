"""Admissible proof transformations implemented as structural recursions.

Each transform consumes checker-valid proofs and produces a checker-valid
proof of the transformed sequent. weaken, unbox_left, box_imp_lir,
imp_imp_lir and the invert family never increase height; contract,
imp_imp_lil, imp_left and id_general may. Exchange needs no transform at
all: antecedents are canonical multisets.

Premise shapes come from the calculus: a node is rebuilt at its new
conclusion by recursing into its premises, where the only rule-specific
fact is whether premise i strips a box (_strips_box); left inversion takes
its pieces from calculus.replacements and right inversion its targets from
calculus.premises_of.

Throughout, a principal occurrence is designated by formula value; under
multiset semantics equal occurrences are interchangeable, so nothing more
precise exists to designate.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

from .calculus import (
    INVERTIBLE,
    INVERTIBLE_LEFT,
    LEFT_RULES,
    RIGHT_INVERTIBLE,
    Derivation,
    RuleId,
    SchemaError,
    _left_rule,
    node,
    premises_of,
    replacements,
)
from .formula import And, Bot, Box, Formula, Imp, Or, Var, print_formula
from .sequent import Multiset, Sequent, unbox_one_level

class TransformError(ValueError):
    """A transform was applied outside its precondition."""


_BOX_STRIPPING = frozenset({RuleId.SLtR, RuleId.BoxImpL})


def _strips_box(rule: RuleId, i: int) -> bool:
    """Whether premise i of rule holds the conclusion's boxed antecedent
    occurrences one box down: the premise of SLtR, the left one of BoxImpL."""
    return i == 0 and rule in _BOX_STRIPPING


def weaken(p: Derivation, f: Formula) -> Derivation:
    """Add one antecedent occurrence of f; height preserving. In premises
    that strip a box a boxed f arrives unboxed."""
    target = Sequent(p.root.ant.add(f), p.root.suc)
    inner = f.body if isinstance(f, Box) else f
    children = [weaken(c, inner if _strips_box(p.rule, i) else f) for i, c in enumerate(p.children)]
    return Derivation(target, p.rule, p.principal, tuple(children))


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
    # in premises that strip a box the designated occurrences already lost
    # one; only still-boxed bodies need further stripping there
    deeper = [b for b in bodies if isinstance(b, Box)]
    children = [unbox_left(c, deeper if _strips_box(p.rule, i) else des) for i, c in enumerate(p.children)]
    return Derivation(target, p.rule, p.principal, tuple(children))


def _commute_replace(
    p: Derivation,
    pi: Formula,
    pieces: Sequence[Formula],
    on_principal: Callable[[Derivation], Derivation],
) -> Derivation:
    """Replace one antecedent occurrence of the non-boxed composite pi by
    pieces everywhere above, handing nodes where pi is principal to
    on_principal. Height preserving whenever on_principal is."""
    target = Sequent(
        p.root.ant.remove(pi).union(Multiset.from_iterable(pieces)), p.root.suc
    )
    rule = p.rule
    if rule in LEFT_RULES and p.principal == pi:
        return on_principal(p)
    # pi is neither falsum nor an atom, so a leaf's closing condition
    # survives; in premises that strip a box boxed pieces arrive unboxed
    children = []
    for i, c in enumerate(p.children):
        c = _commute_replace(c, pi, pieces, on_principal)
        if _strips_box(rule, i):
            c = unbox_left(c, [x for x in pieces if isinstance(x, Box)])
        children.append(c)
    return Derivation(target, rule, p.principal, tuple(children))


def _replace_into(p: Derivation, pi: Formula, pieces: Sequence[Formula], i: int) -> Derivation:
    """Replace one antecedent occurrence of pi by pieces, taking premise i
    where pi is principal: inversion into premise i of pi's left rule."""
    if pi not in p.root.ant:
        raise TransformError("principal occurrence missing")
    return _commute_replace(p, pi, pieces, lambda n: n.children[i])


def _invert_right(p: Derivation, rule: RuleId, i: int) -> Derivation:
    """Premise i of the ImpR or AndR instance at p's root. Where p ends in
    that rule this is p's own premise; else p's left rule is rebuilt at it,
    inverting the premises that keep p's succedent in turn and weakening the
    side premise of ImpImpL or BoxImpL by what premise i adds on the left."""
    if p.rule is rule:
        return p.children[i]
    if p.rule not in LEFT_RULES and p.rule is not RuleId.BotL:
        raise TransformError(f"cannot commute past {p.rule.value} here")
    target = premises_of(rule, p.root, None)[i]
    side = p.rule in RIGHT_INVERTIBLE
    children = [c if side and k == 0 else _invert_right(c, rule, i) for k, c in enumerate(p.children)]
    if side:
        for x in target.ant.remove_all(p.root.ant):
            children[0] = weaken(children[0], x.body if isinstance(x, Box) and _strips_box(p.rule, 0) else x)
    return Derivation(target, p.rule, p.principal, tuple(children))


def invert(rule: RuleId, p: Derivation, principal: Optional[Formula] = None) -> list[Derivation]:
    """Height-preserving inversion: proofs of every premise of the given
    rule instance at p's root. Only the invertible rules qualify."""
    if rule not in INVERTIBLE:
        raise TransformError(f"{rule.value} is not invertible")
    try:
        if rule in LEFT_RULES:
            parts = replacements(rule, principal)
            return [_replace_into(p, principal, pieces, i) for i, pieces in enumerate(parts)]
        if p.rule is rule:
            return list(p.children)
        n = len(premises_of(rule, p.root, None))
    except SchemaError as e:
        raise TransformError(str(e)) from None
    return [_invert_right(p, rule, i) for i in range(n)]


def box_imp_lir(p: Derivation, principal: Formula) -> Derivation:
    """Replace one occurrence of []a -> b by b on the left; height
    preserving (inversion into the right premise of BoxImpL)."""
    if _left_rule(principal) is not RuleId.BoxImpL:
        raise TransformError("needs a box-headed implication")
    return _replace_into(p, principal, [principal.right], 1)


def imp_imp_lir(p: Derivation, principal: Formula) -> Derivation:
    """Replace one occurrence of (a -> b) -> c by c on the left; height
    preserving (inversion into the right premise of ImpImpL)."""
    if _left_rule(principal) is not RuleId.ImpImpL:
        raise TransformError("needs an implication-headed implication")
    return _replace_into(p, principal, [principal.right], 1)


def imp_imp_lil(p: Derivation, principal: Formula) -> Derivation:
    """Replace one occurrence of (a -> b) -> c by a, b -> c, b -> c on the
    left. Not height preserving: where the occurrence is principal the
    rebuild goes through imp_left."""
    if _left_rule(principal) is not RuleId.ImpImpL:
        raise TransformError("needs an implication-headed implication")
    if principal not in p.root.ant:
        raise TransformError("principal occurrence missing")
    a, b, c = principal.left.left, principal.left.right, principal.right
    bc = Imp(b, c)

    def on_principal(n: Derivation) -> Derivation:
        premise_goal = invert(RuleId.ImpR, n.children[0])[0]
        side = weaken(weaken(n.children[1], a), bc)
        return imp_left(premise_goal, side)

    return _commute_replace(p, principal, [a, bc, bc], on_principal)


def id_general(f: Formula, context: Multiset = Multiset()) -> Derivation:
    """A proof of f, context => f for arbitrary f, closing at atoms."""
    target = Sequent(context.add(f), f)
    if isinstance(f, Var):
        return node(RuleId.IdP, target, None)
    if isinstance(f, Bot):
        return node(RuleId.BotL, target, None)
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
        return node(RuleId.BotL, target, None)
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
        return node(RuleId.BotL, target, None)
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
    if rule in INVERTIBLE_LEFT:
        adjusted = invert(rule, p2, pi)
        subs = [imp_left(c, adj) for c, adj in zip(p1.children, adjusted)]
        return node(rule, target, pi, *subs)
    if rule in RIGHT_INVERTIBLE:
        lir = imp_imp_lir if rule is RuleId.ImpImpL else box_imp_lir
        sub = imp_left(p1.children[1], lir(p2, pi))
        return node(rule, target, pi, weaken(p1.children[0], fg), sub)
    raise TransformError(f"cannot commute imp_left past {rule.value}")


def contract(p: Derivation, f: Formula) -> Derivation:
    """Merge two antecedent occurrences of f into one. Not height
    preserving; recursion on (weight of f, then proof height)."""
    ant = p.root.ant
    if ant.count(f) < 2:
        raise TransformError(f"need two occurrences of {print_formula(f)} to contract")
    target = Sequent(ant.remove(f), p.root.suc)
    rule = p.rule
    if rule in LEFT_RULES and p.principal == f:
        return _contract_principal(p, f, target)
    inner = f.body if isinstance(f, Box) else f
    children = [contract(c, inner if _strips_box(rule, i) else f) for i, c in enumerate(p.children)]
    return Derivation(target, rule, p.principal, tuple(children))


def _contract_principal(p: Derivation, f: Formula, target: Sequent) -> Derivation:
    """f is principal at the root and a second copy sits in the context:
    invert the copy inside the premises, contract the strictly lighter
    pieces, and reapply the rule."""
    rule = p.rule
    if rule in INVERTIBLE_LEFT:
        subs = []
        for i, pieces in enumerate(replacements(rule, f)):
            sub = _replace_into(p.children[i], f, pieces, i)
            for x in pieces:
                sub = contract(sub, x)
            subs.append(sub)
        return node(rule, target, f, *subs)
    # ImpImpL or BoxImpL: the right premise replaced f by f.right and still
    # holds the copy; invert that into f.right as well and contract
    right = contract(_replace_into(p.children[1], f, [f.right], 1), f.right)
    if rule is RuleId.BoxImpL:
        left = contract(box_imp_lir(p.children[0], f), f.right)
        return node(rule, target, f, left, right)
    a, b = f.left.left, f.left.right
    bc = Imp(b, f.right)
    opened = invert(RuleId.ImpR, p.children[0])[0]
    spread = imp_imp_lil(opened, f)
    spread = contract(contract(contract(spread, a), bc), bc)
    rest = target.ant.remove(f)
    left = node(RuleId.ImpR, Sequent(rest.add(bc), f.left), None, spread)
    return node(rule, target, f, left, right)
