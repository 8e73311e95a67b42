"""Sequents over canonical multisets.

An antecedent is a Multiset, a tuple subclass: the tuple of its formula
occurrences, sorted by sort_key with repeats side by side. Structurally
equal antecedents are therefore equal tuples, so sequents compare and hash
equal and exchange is a non-operation. Counting, membership, length,
iteration, equality and hash are tuple's own C slots, with no forwarding
layer; add and remove find their place by bisection on sort_key.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Iterator

from .formula import Box, Formula, _Parser, _Record, print_formula, sort_key
from .formula import variables as formula_variables


# tuple's own constructor: the library builds multisets through it, past
# the Python-level Multiset.__new__ that a direct call goes through
_new = tuple.__new__


def _remove(entries: tuple[Formula, ...], f: Formula, n: int) -> tuple[Formula, ...]:
    """entries without n occurrences of f; removing more than present is an
    error."""
    i = bisect_left(entries[:], f.key, key=sort_key)
    if entries[i : i + n].count(f) < n:
        raise KeyError(f"removing {n} of {print_formula(f)}, only {entries.count(f)} present")
    return entries[:i] + entries[i + n :]


class Multiset(_Record, tuple):
    """Multiset of formulas: the tuple of its occurrences sorted by
    sort_key, repeats side by side, and equal to that tuple. A direct call
    of the constructor must pass them in that order, which of and
    from_iterable establish. Slicing and + give plain tuples."""

    __slots__ = ()
    __match_args__ = ("entries",)
    # tuple's own, ahead of the base's field-tuple equality and hash
    __eq__, __hash__ = tuple.__eq__, tuple.__hash__

    def __new__(cls, entries: Iterable[Formula] = ()) -> "Multiset":
        return tuple.__new__(cls, entries)

    @property
    def entries(self) -> tuple[Formula, ...]:
        """The occurrences as a plain tuple, for the repr and pickling."""
        return tuple(self)

    @staticmethod
    def of(*formulas: Formula) -> "Multiset":
        return Multiset.from_iterable(formulas)

    @staticmethod
    def from_iterable(formulas: Iterable[Formula]) -> "Multiset":
        return _new(Multiset, sorted(formulas, key=sort_key))

    def distinct(self) -> Iterator[Formula]:
        return iter(dict.fromkeys(self))

    def add(self, f: Formula) -> "Multiset":
        i = bisect_left(self[:], f.key, key=sort_key)
        return _new(Multiset, self[:i] + (f,) + self[i:])

    def remove(self, f: Formula) -> "Multiset":
        """Drop one occurrence; absence is an error."""
        return _new(Multiset, _remove(self, f, 1))

    def remove_all(self, other: "Multiset") -> "Multiset":
        entries = self
        for f in other.distinct():
            entries = _remove(entries, f, other.count(f))
        return _new(Multiset, entries)

    def union(self, other: "Multiset") -> "Multiset":
        return _new(Multiset, sorted(self + other, key=sort_key))


def partition_boxed(a: Multiset) -> tuple[Multiset, Multiset]:
    """Maximal split (phi, gamma): phi holds the non-boxed occurrences and
    gamma the bodies of the boxed ones, one box level only. Boxes sort by
    their bodies, so gamma keeps the order of a."""
    return (
        _new(Multiset, [f for f in a if not isinstance(f, Box)]),
        _new(Multiset, [f.body for f in a if isinstance(f, Box)]),
    )


def boxed_occurrences(a: Multiset) -> list[Formula]:
    """The boxed occurrences of a, repeats included, in canonical order."""
    return [f for f in a if isinstance(f, Box)]


def unbox_one_level(a: Multiset) -> Multiset:
    """Strip one box from every boxed occurrence, keep the rest."""
    return Multiset.from_iterable(f.body if isinstance(f, Box) else f for f in a)


class Sequent(_Record):
    """ant => suc."""

    __slots__ = __match_args__ = ("ant", "suc")

    def __str__(self) -> str:
        return print_sequent(self)


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
