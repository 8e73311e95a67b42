"""Shortlex-ordered weight histograms used as the termination measure.

theta(s) strips one box from every boxed antecedent occurrence, throws in the
succedent, and histograms the weights of the resulting topmost formulas.
Every backward rule step strictly reduces it, which is exactly what the
search and cut recursions lean on.
"""

from __future__ import annotations

from typing import Iterable

from .formula import Box, Formula, weight
from .sequent import Sequent

Theta = list[int]


def weight_histogram(formulas: Iterable[Formula]) -> Theta:
    """List of length max-weight; position k from the right (1-indexed)
    counts the occurrences of weight k. No formulas give []."""
    weights = list(map(weight, formulas))
    if not weights:
        return []
    top = max(weights)
    out = [0] * top
    for w in weights:
        out[top - w] += 1
    return out


def theta(s: Sequent) -> Theta:
    """weight_histogram(unbox_one_level(s.ant).add(s.suc)), without building
    and sorting that multiset."""
    return weight_histogram([f.body if isinstance(f, Box) else f for f in s.ant] + [s.suc])


def shortlex_less(a: Theta, b: Theta) -> bool:
    """Shorter lists first; equal lengths compare lexicographically."""
    if len(a) != len(b):
        return len(a) < len(b)
    return a < b
