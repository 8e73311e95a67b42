"""Sequents over canonical multisets.

Antecedents are multisets kept in a sorted canonical form, so structurally
equal sequents compare and hash equal and exchange is a non-operation.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .formula import Box, Formula, _Parser, _Record, print_formula, sort_key
from .formula import variables as formula_variables


Entries = tuple[tuple[Formula, int], ...]


def _put(entries: Entries, f: Formula, n: int) -> Entries:
    """entries with n more occurrences of f (n < 0 removes), found by
    bisection on the stored keys; removing more than present is an error."""
    key = f.key
    lo, hi = 0, len(entries)
    while lo < hi:
        mid = (lo + hi) // 2
        g = entries[mid][0]
        if g is f:
            lo = mid
            break
        if g.key < key:
            lo = mid + 1
        else:
            hi = mid
    if lo < len(entries) and entries[lo][0] is f:
        have, rest = entries[lo][1], entries[lo + 1 :]
    else:
        have, rest = 0, entries[lo:]
    total = have + n
    if total < 0:
        raise KeyError(f"removing {-n} of {print_formula(f)}, only {have} present")
    if total == 0:
        return entries[:lo] + rest
    return entries[:lo] + ((f, total),) + rest


class Multiset(_Record):
    """Multiset of formulas as (formula, count) entries sorted by sort_key."""

    __slots__ = __match_args__ = ("entries",)

    def __init__(self, entries: Entries = ()) -> None:
        _set_entries(self, entries)

    # the base's equality and hash, without its generic field tuple
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.entries == other.entries
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.entries,))

    @staticmethod
    def of(*formulas: Formula) -> "Multiset":
        return Multiset.from_iterable(formulas)

    @staticmethod
    def from_iterable(formulas: Iterable[Formula]) -> "Multiset":
        counts: dict[Formula, int] = {}
        for f in formulas:
            counts[f] = counts.get(f, 0) + 1
        return Multiset(tuple((f, counts[f]) for f in sorted(counts, key=sort_key)))

    def count(self, f: Formula) -> int:
        for g, n in self.entries:
            if g is f:
                return n
        return 0

    def __contains__(self, f: Formula) -> bool:
        return self.count(f) > 0

    def __len__(self) -> int:
        return sum(n for _, n in self.entries)

    def __iter__(self) -> Iterator[Formula]:
        for f, n in self.entries:
            for _ in range(n):
                yield f

    def distinct(self) -> Iterator[Formula]:
        for f, _ in self.entries:
            yield f

    def add(self, f: Formula, n: int = 1) -> "Multiset":
        return Multiset(_put(self.entries, f, n))

    def remove(self, f: Formula) -> "Multiset":
        """Drop one occurrence; absence is an error."""
        return Multiset(_put(self.entries, f, -1))

    def remove_all(self, other: "Multiset") -> "Multiset":
        entries = self.entries
        for f, n in other.entries:
            entries = _put(entries, f, -n)
        return Multiset(entries)

    def union(self, other: "Multiset") -> "Multiset":
        entries = self.entries
        for f, n in other.entries:
            entries = _put(entries, f, n)
        return Multiset(entries)


def partition_boxed(a: Multiset) -> tuple[Multiset, Multiset]:
    """Maximal split (phi, gamma): phi holds the non-boxed occurrences and
    gamma the bodies of the boxed ones, one box level only. Boxes sort by
    their bodies, so gamma keeps the order of a."""
    return (
        Multiset(tuple(e for e in a.entries if not isinstance(e[0], Box))),
        Multiset(tuple((f.body, n) for f, n in a.entries if isinstance(f, Box))),
    )


def boxed_occurrences(a: Multiset) -> list[Formula]:
    """The boxed occurrences of a, repeats included, in canonical order."""
    return [f for f in a if isinstance(f, Box)]


def unbox_one_level(a: Multiset) -> Multiset:
    """Strip one box from every boxed occurrence, keep the rest."""
    phi, gamma = partition_boxed(a)
    return phi.union(gamma)


class Sequent(_Record):
    """ant => suc. The hash is computed on first use and kept, since search
    hashes each sequent it visits several times."""

    __slots__ = ("ant", "suc", "_hash")
    __match_args__ = ("ant", "suc")

    def __init__(self, ant: Multiset, suc: Formula) -> None:
        _set_ant(self, ant)
        _set_suc(self, suc)
        _set_hash(self, None)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.suc is other.suc and self.ant == other.ant
        return NotImplemented

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.ant, self.suc))
            _set_hash(self, h)
        return h

    def __str__(self) -> str:
        return print_sequent(self)


# slot setters that bypass the immutability guard, for construction only
_set_entries = Multiset.entries.__set__
_set_ant, _set_suc, _set_hash = Sequent.ant.__set__, Sequent.suc.__set__, Sequent._hash.__set__


def sequent(ant: Iterable[Formula], suc: Formula) -> Sequent:
    return Sequent(Multiset.from_iterable(ant), suc)


def print_sequent(s: Sequent) -> str:
    left = ", ".join(print_formula(f) for f in s.ant)
    if left:
        return f"{left} => {print_formula(s.suc)}"
    return f"=> {print_formula(s.suc)}"


def parse_sequent(text: str) -> Sequent:
    """Parse ``f1, ..., fn => g``; the antecedent may be empty."""
    p = _Parser(text)
    ant: list[Formula] = []
    if p.peek() != "seq":
        ant.append(p.formula())
        while p.peek() == "comma":
            p.next()
            ant.append(p.formula())
    p.expect("seq")
    return sequent(ant, p.finish(p.formula()))


def variables(s: Sequent) -> set[str]:
    vs = formula_variables(s.suc)
    for f in s.ant.distinct():
        vs |= formula_variables(f)
    return vs
