"""Finite Kripke models: validation, forcing, exhaustive enumeration,
bounded countermodel search.

Frames carry an intuitionistic preorder leq and a transitive irreflexive
modal relation r with (leq ; r) contained in r and r contained in leq; the
two containments make forcing persistent and keep the box a strong Loeb
modality on finite frames. r empty recovers plain intuitionistic models.
``validate_model`` is the one statement of these conditions and of
persistent valuations: enumeration lists candidate relations and up-sets
and keeps those it accepts. Absence of a countermodel within the world
bound proves nothing.

Forcing is computed a frame at a time. A batch evaluates each subformula
once on one frame under many valuations together: the extension of a
formula is one integer per world, whose bit c says whether that world
forces the formula under valuation c. The models that one
``enumerate_models`` call builds on one frame share that frame's batches,
and each model records its batch and its valuation number, so ``forces``,
``valid`` and ``evaluator`` only read bits, and ``find_countermodel`` scans
whole batches and builds a model only for the first hit. A batch ranges
over every valuation of the trailing variables, as many of them as keep it
within ``_MAX_WIDTH`` valuations; the leading variables are fixed per
batch and looped over outside, in enumeration order. A model built by
hand, or by ``model_from_json``, is evaluated through a batch of width 1
made on first use. Batches evaluate with their own stack, so the depth of
a formula is not bounded by Python's recursion limit.
"""

from __future__ import annotations

import functools
from itertools import islice, product
from typing import Callable, Iterator, Optional, Sequence

from .formula import And, Bot, Box, Formula, Imp, Or, Var, _Record
from .sequent import Sequent
from .sequent import variables as sequent_variables

ENUMERATION_BOUND = 3

# Valuations per batch at most: a batch's integers have this many bits.
# A frame with u up-sets and k variables has u**k valuations (8**10 on a
# three-world antichain), so only the trailing variables are batched.
_MAX_WIDTH = 4096


class KripkeModel(_Record):
    """A finite model; immutable, the valuation included. Its fields live
    in the instance dict, so that enumeration can fill that dict without
    running __init__, beside the batch the model may carry. The batch is
    not part of its value: equality, hashing, repr, pickling and copying
    read only the fields."""

    __match_args__ = ("worlds", "leq", "r", "valuation")

    def __init__(
        self,
        worlds: int,
        leq: frozenset[tuple[int, int]],
        r: frozenset[tuple[int, int]],
        valuation: dict[str, frozenset[int]],
    ) -> None:
        _set_dict(self, {"worlds": worlds, "leq": leq, "r": r, "valuation": dict(valuation)})

    def __hash__(self):
        # the valuation is a dict, which does not hash
        return hash((self.worlds, self.leq, self.r, tuple(sorted(self.valuation.items()))))


# the instance dict's setter, which bypasses the immutability guard
_set_dict = KripkeModel.__dict__["__dict__"].__set__


def validate_model(m: KripkeModel) -> list[str]:
    """Empty list when m satisfies every frame and valuation condition."""
    problems: list[str] = []
    if m.worlds < 1:
        problems.append("a model needs at least one world")
    for rel, name in ((m.leq, "leq"), (m.r, "r")):
        for (a, b) in rel:
            if not (0 <= a < m.worlds and 0 <= b < m.worlds):
                problems.append(f"{name} mentions world pair ({a},{b}) out of range")
    for w in range(m.worlds):
        if (w, w) not in m.leq:
            problems.append(f"leq not reflexive at {w}")
    for (a, b) in m.leq:
        for (c, d) in m.leq:
            if b == c and (a, d) not in m.leq:
                problems.append(f"leq not transitive: ({a},{b}) and ({c},{d})")
    for (a, b) in m.r:
        if a == b:
            problems.append(f"r not irreflexive at {a}")
        if (a, b) not in m.leq:
            problems.append(f"r not inside leq: ({a},{b})")
    for (a, b) in m.r:
        for (c, d) in m.r:
            if b == c and (a, d) not in m.r:
                problems.append(f"r not transitive: ({a},{b}) and ({c},{d})")
    for (a, b) in m.leq:
        for (c, d) in m.r:
            if b == c and (a, d) not in m.r:
                problems.append(f"leq;r escapes r: {a} leq {b} r {d}")
    for name, worlds in m.valuation.items():
        for w in worlds:
            if not (0 <= w < m.worlds):
                problems.append(f"valuation of {name} mentions world {w} out of range")
        for (a, b) in m.leq:
            if a in worlds and b not in worlds:
                problems.append(f"valuation of {name} not persistent: {a} leq {b}")
    return problems


class _Frame:
    """Worlds 0..n-1 with leq and r, and, for an enumerated frame, its
    up-sets in enumeration order."""

    __slots__ = ("n", "leq", "r", "up", "succ", "upsets", "_digits")

    def __init__(self, n: int, leq, r, upsets: Sequence[frozenset[int]] = ()):
        self.n, self.leq, self.r, self.upsets = n, leq, r, upsets
        self.up = [[b for (a, b) in leq if a == w and 0 <= b < n] for w in range(n)]
        self.succ = [[b for (a, b) in r if a == w and 0 <= b < n] for w in range(n)]
        self._digits: dict[int, list[list[int]]] = {}

    def digit_masks(self, j: int) -> list[list[int]]:
        """masks[i][w] has bit c set, for c < u**j with u up-sets, when the
        i-th of the j base-u digits of c (the last one least significant)
        names an up-set holding world w: the extensions of j variables
        under all u**j valuations, numbered in `product` order."""
        got = self._digits.get(j)
        if got is None:
            u = len(self.upsets)
            width = u**j
            got = []
            for i in range(j):
                stride = u ** (j - 1 - i)
                # one period of digit i, then repeated across the width
                repeat = ((1 << width) - 1) // ((1 << stride * u) - 1)
                ones = (1 << stride) - 1
                per_world = []
                for w in range(self.n):
                    block = 0
                    for d, upset in enumerate(self.upsets):
                        if w in upset:
                            block |= ones << d * stride
                    per_world.append(block * repeat)
                got.append(per_world)
            self._digits[j] = got
        return got


class _Batch:
    """Forcing on one frame under a block of valuations at once. The
    leading variables take the up-sets in `prefix`; valuation c gives the
    trailing ones the up-sets that the base-u digits of c name. `env` maps
    a variable to its extension; a variable it lacks holds nowhere."""

    __slots__ = ("frame", "names", "prefix", "full", "env", "_ext", "_refuted")

    def __init__(self, frame: _Frame, env: dict[str, list[int]], full: int, names=(), prefix=()):
        self.frame, self.env, self.full = frame, env, full
        self.names, self.prefix = names, prefix
        self._ext: dict[Formula, list[int]] = {}
        self._refuted: dict[tuple, int] = {}

    def ext(self, f: Formula) -> list[int]:
        """Per world, the valuations under which it forces f."""
        cache = self._ext
        got = cache.get(f)
        if got is not None:
            return got
        frame, full = self.frame, self.full
        todo = [f]
        while todo:
            g = todo[-1]
            if g in cache:
                todo.pop()
                continue
            if isinstance(g, Var):
                out = self.env.get(g.name) or [0] * frame.n
            elif isinstance(g, Bot):
                out = [0] * frame.n
            elif isinstance(g, Box):
                b = cache.get(g.body)
                if b is None:
                    todo.append(g.body)
                    continue
                out = []
                for succ in frame.succ:
                    x = full
                    for v in succ:
                        x &= b[v]
                    out.append(x)
            elif isinstance(g, (And, Or, Imp)):
                a, b = cache.get(g.left), cache.get(g.right)
                if a is None or b is None:
                    if a is None:
                        todo.append(g.left)
                    if b is None:
                        todo.append(g.right)
                    continue
                if isinstance(g, And):
                    out = [x & y for x, y in zip(a, b)]
                elif isinstance(g, Or):
                    out = [x | y for x, y in zip(a, b)]
                else:
                    ok = [full & ~x | y for x, y in zip(a, b)]
                    out = []
                    for up in frame.up:
                        x = full
                        for v in up:
                            x &= ok[v]
                        out.append(x)
            else:
                raise TypeError(f"not a formula: {g!r}")
            cache[g] = out
            todo.pop()
        return cache[f]

    def failing(self, s: Sequent) -> list[int]:
        """Per world, the valuations under which it forces the whole
        antecedent but not the succedent."""
        full = self.full
        bad = [full & ~x for x in self.ext(s.suc)]
        for f in s.ant.distinct():
            bad = [x & y for x, y in zip(bad, self.ext(f))]
        return bad

    def refuted(self, s: Sequent) -> int:
        """The valuations under which some world refutes s; cached."""
        key = (s.suc, s.ant.entries)
        got = self._refuted.get(key)
        if got is None:
            got = 0
            for x in self.failing(s):
                got |= x
            self._refuted[key] = got
        return got

    def models(self, start: int = 0) -> Iterator[KripkeModel]:
        """The models of valuations start, start + 1, ... in enumeration
        order, each evaluated through this batch."""
        frame, names, prefix = self.frame, self.names, self.prefix
        trailing = product(frame.upsets, repeat=len(names) - len(prefix))
        for c, chosen in enumerate(islice(trailing, start, None), start):
            # past __init__, which would copy the valuation again
            m = object.__new__(KripkeModel)
            _set_dict(
                m,
                {
                    "worlds": frame.n,
                    "leq": frame.leq,
                    "r": frame.r,
                    "valuation": dict(zip(names, prefix + chosen)),
                    "_batch": self,
                    "_column": c,
                },
            )
            yield m


def _batch_of(m: KripkeModel) -> tuple[_Batch, int]:
    """m's batch and valuation number; a width-1 batch for a model that
    was not enumerated, made once and kept on the model."""
    fields = m.__dict__
    batch = fields.get("_batch")
    if batch is None:
        n = m.worlds
        env = {name: [1 if w in ws else 0 for w in range(n)] for name, ws in m.valuation.items()}
        batch = fields["_batch"] = _Batch(_Frame(n, m.leq, m.r), env, 1)
        fields["_column"] = 0
    return batch, fields["_column"]


def evaluator(m: KripkeModel) -> Callable[[Formula], int]:
    """Forcing extensions as world bitmasks: bit w of ext(f) says whether
    world w forces f. Each subformula is evaluated once per batch, for
    every model sharing m's batch; this only extracts m's bits, once per
    formula."""
    batch, c = _batch_of(m)
    column = 1 << c
    cache: dict[Formula, int] = {}

    def ext(f: Formula) -> int:
        got = cache.get(f)
        if got is None:
            got, world = 0, 1
            for x in batch.ext(f):
                if x & column:
                    got |= world
                world <<= 1
            cache[f] = got
        return got

    return ext


def forces(m: KripkeModel, w: int, f: Formula) -> bool:
    if not (0 <= w < m.worlds):
        raise ValueError(f"world {w} out of range")
    batch, c = _batch_of(m)
    return bool(batch.ext(f)[w] >> c & 1)


def valid(m: KripkeModel, s: Sequent) -> bool:
    """Every world forcing the whole antecedent forces the succedent."""
    batch, c = _batch_of(m)
    return not (batch.refuted(s) >> c & 1)


def _subsets(items: Sequence) -> Iterator[frozenset]:
    """Every subset of items, in `product` order: the first item varies slowest."""
    for bits in product((False, True), repeat=len(items)):
        yield frozenset(x for x, keep in zip(items, bits) if keep)


def _is_model(n: int, leq, r, valuation) -> bool:
    return not validate_model(KripkeModel(n, leq, r, valuation))


@functools.cache
def _frames(n: int) -> list[_Frame]:
    """The frames on n worlds in enumeration order, built on first use:
    each leq that validate_model accepts, sorted, with the up-sets it
    accepts as a valuation, then each r inside leq that it accepts, sorted."""
    worlds = range(n)
    diagonal = frozenset((w, w) for w in worlds)
    offdiag = [(a, b) for a in worlds for b in worlds if a != b]
    candidates = (diagonal | pairs for pairs in _subsets(offdiag))
    preorders = [leq for leq in candidates if _is_model(n, leq, frozenset(), {})]
    frames = []
    for leq in sorted(preorders, key=sorted):
        ups = [up for up in _subsets(worlds) if _is_model(n, leq, frozenset(), {"p": up})]
        strict = sorted(pair for pair in leq if pair[0] != pair[1])
        for r in sorted((r for r in _subsets(strict) if _is_model(n, leq, r, {})), key=sorted):
            frames.append(_Frame(n, leq, r, ups))
    return frames


def _batches(max_worlds: int, variables: Sequence[str], bound: int) -> Iterator[_Batch]:
    """Batches covering every model of `enumerate_models`, in its order."""
    if max_worlds > bound:
        raise ValueError(f"max_worlds {max_worlds} exceeds the enumeration bound {bound}")
    if max_worlds < 1:
        raise ValueError(f"max_worlds {max_worlds} is not positive")
    names = tuple(variables)
    for n in range(1, max_worlds + 1):
        for frame in _frames(n):
            u = len(frame.upsets)
            j = 0
            while j < len(names) and u ** (j + 1) <= _MAX_WIDTH:
                j += 1
            lead = len(names) - j
            full = (1 << u**j) - 1
            digits = frame.digit_masks(j)
            for prefix in product(frame.upsets, repeat=lead):
                env = {name: [full if w in ws else 0 for w in range(n)] for name, ws in zip(names, prefix)}
                env.update(zip(names[lead:], digits))
                yield _Batch(frame, env, full, names, prefix)


def enumerate_models(
    max_worlds: int, variables: Sequence[str], bound: int = ENUMERATION_BOUND
) -> Iterator[KripkeModel]:
    """Every model with 1..max_worlds worlds over the given variables, up to
    canonical world indexing, in a deterministic order."""
    for batch in _batches(max_worlds, variables, bound):
        yield from batch.models()


def find_countermodel(
    s: Sequent,
    max_worlds: int = 3,
    bound: int = ENUMERATION_BOUND,
) -> Optional[tuple[KripkeModel, int]]:
    """First (model, world) forcing the antecedent but not the succedent:
    the first such model in `enumerate_models` order over the sequent's
    own variables, sorted, and its lowest such world. None only means
    nothing within the bound, not provability."""
    for batch in _batches(max_worlds, sorted(sequent_variables(s)), bound):
        hit = batch.refuted(s)
        if hit:
            c = (hit & -hit).bit_length() - 1
            return next(batch.models(c)), next(w for w, x in enumerate(batch.failing(s)) if x >> c & 1)
    return None


def model_to_json(m: KripkeModel) -> dict:
    return {
        "worlds": m.worlds,
        "leq": sorted([a, b] for (a, b) in m.leq),
        "r": sorted([a, b] for (a, b) in m.r),
        "valuation": {name: sorted(ws) for name, ws in sorted(m.valuation.items())},
    }


def model_from_json(obj: dict) -> KripkeModel:
    return KripkeModel(
        obj["worlds"],
        frozenset((a, b) for a, b in obj["leq"]),
        frozenset((a, b) for a, b in obj["r"]),
        {name: frozenset(ws) for name, ws in obj["valuation"].items()},
    )
