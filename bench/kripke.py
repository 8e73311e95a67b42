"""An independent countermodel search, used only to verify outputs.

It sweeps the same model space as ``islt.semantics.enumerate_models``:
every labelled preorder on 1..max_worlds worlds, every modal relation
that is transitive, irreflexive, inside the preorder and closed under
(leq ; r), and every assignment of an upward-closed set to each variable.
Instead of one forcing evaluation per model it evaluates a formula once
per frame, over all valuations of that frame at once: bit c of a world's
mask says whether the formula holds there under valuation number c.
A returned model is re-verified by the caller with the program's own
``validate_model`` and ``valid``.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Optional

from islt.formula import And, Bot, Box, Formula, Imp, Or, Var
from islt.semantics import KripkeModel
from islt.sequent import Sequent


def _preorders(n: int) -> list[frozenset]:
    diagonal = {(w, w) for w in range(n)}
    offdiag = [(a, b) for a in range(n) for b in range(n) if a != b]
    found = []
    for bits in product((False, True), repeat=len(offdiag)):
        rel = diagonal | {p for p, keep in zip(offdiag, bits) if keep}
        if all((a, d) in rel for (a, b) in rel for (c, d) in rel if b == c):
            found.append(frozenset(rel))
    return found


def _modal_relations(leq: frozenset) -> list[frozenset]:
    strict = sorted(p for p in leq if p[0] != p[1])
    found = []
    for k in range(len(strict) + 1):
        for chosen in combinations(strict, k):
            r = frozenset(chosen)
            if all((a, d) in r for (a, b) in r for (c, d) in r if b == c) and all(
                (a, d) in r for (a, b) in leq for (c, d) in r if b == c
            ):
                found.append(r)
    return found


def _upsets(n: int, leq: frozenset) -> list[int]:
    """Upward-closed world sets as bitmasks."""
    out = []
    for mask in range(1 << n):
        if all(mask >> b & 1 for (a, b) in leq if mask >> a & 1):
            out.append(mask)
    return out


class _Frame:
    def __init__(self, n: int, leq: frozenset, r: frozenset):
        self.n = n
        self.leq = leq
        self.r = r
        self.up = [[b for (a, b) in sorted(leq) if a == w] for w in range(n)]
        self.succ = [[b for (a, b) in sorted(r) if a == w] for w in range(n)]
        self.upsets = _upsets(n, leq)
        self._var_masks: dict[int, list[list[int]]] = {}

    def var_masks(self, k: int) -> list[list[int]]:
        """masks[i][w]: valuations (numbered in base len(upsets), variable i
        the i-th digit) whose set for variable i contains world w."""
        got = self._var_masks.get(k)
        if got is None:
            u = len(self.upsets)
            got = []
            for i in range(k):
                stride, period = u**i, u ** (i + 1)
                # a block of one period, then the same block repeated by
                # multiplying with 1 + 2**period + 2**(2 period) + ...
                repeat = ((1 << u**k) - 1) // ((1 << period) - 1)
                ones = (1 << stride) - 1
                per_world = []
                for w in range(self.n):
                    block = 0
                    for d, upset in enumerate(self.upsets):
                        if upset >> w & 1:
                            block |= ones << (d * stride)
                    per_world.append(block * repeat)
                got.append(per_world)
            self._var_masks[k] = got
        return got


class Sweeper:
    """Frames up to max_worlds worlds, built once and reused per sequent."""

    def __init__(self, max_worlds: int = 3):
        self.frames = [
            _Frame(n, leq, r)
            for n in range(1, max_worlds + 1)
            for leq in sorted(_preorders(n), key=sorted)
            for r in sorted(_modal_relations(leq), key=sorted)
        ]

    def model_count(self, k: int) -> int:
        return sum(len(f.upsets) ** k for f in self.frames)

    def countermodel(self, s: Sequent) -> Optional[tuple[KripkeModel, int]]:
        """A (model, world) forcing every antecedent formula but not the
        succedent, or None when no model in the space has one."""
        names = sorted(variables(s))
        for frame in self.frames:
            found = _refute(frame, names, s)
            if found is not None:
                return found
        return None


def variables(s: Sequent) -> set[str]:
    out: set[str] = set()
    todo = [s.suc, *s.ant.distinct()]
    while todo:
        f = todo.pop()
        if isinstance(f, Var):
            out.add(f.name)
        elif isinstance(f, Box):
            todo.append(f.body)
        elif isinstance(f, (And, Or, Imp)):
            todo.extend((f.left, f.right))
    return out


def _refute(frame: _Frame, names: list[str], s: Sequent) -> Optional[tuple[KripkeModel, int]]:
    n, k = frame.n, len(names)
    u = len(frame.upsets)
    full = (1 << u**k) - 1
    masks = frame.var_masks(k)
    env = {name: masks[i] for i, name in enumerate(names)}
    cache: dict[Formula, list[int]] = {}

    def ext(g: Formula) -> list[int]:
        got = cache.get(g)
        if got is not None:
            return got
        if isinstance(g, Var):
            out = env[g.name]
        elif isinstance(g, Bot):
            out = [0] * n
        elif isinstance(g, And):
            a, b = ext(g.left), ext(g.right)
            out = [a[w] & b[w] for w in range(n)]
        elif isinstance(g, Or):
            a, b = ext(g.left), ext(g.right)
            out = [a[w] | b[w] for w in range(n)]
        elif isinstance(g, Imp):
            a, b = ext(g.left), ext(g.right)
            ok = [(full & ~a[v]) | b[v] for v in range(n)]
            out = []
            for w in range(n):
                m = full
                for v in frame.up[w]:
                    m &= ok[v]
                out.append(m)
        elif isinstance(g, Box):
            b = ext(g.body)
            out = []
            for w in range(n):
                m = full
                for v in frame.succ[w]:
                    m &= b[v]
                out.append(m)
        else:
            raise TypeError(f"not a formula: {g!r}")
        cache[g] = out
        return out

    suc = ext(s.suc)
    ants = [ext(f) for f in s.ant.distinct()]
    for w in range(n):
        bad = full & ~suc[w]
        for a in ants:
            bad &= a[w]
        if bad:
            c = (bad & -bad).bit_length() - 1
            valuation = {
                name: frozenset(
                    x for x in range(n) if frame.upsets[(c // u**i) % u] >> x & 1
                )
                for i, name in enumerate(names)
            }
            return KripkeModel(n, frame.leq, frame.r, valuation), w
    return None
