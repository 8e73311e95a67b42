"""Formula syntax: AST, weight, total order, parser and printer.

The language has propositional variables, falsum, conjunction, disjunction,
implication and a single box modality. There is no diamond and no primitive
negation; ``~a`` is accepted by the parser as sugar for ``a -> #``.

The binding table of the concrete syntax lives on the classes: And, Or and
Imp each state their binding level, grouping and spelling, ``_UNARY`` is the
level of ``[]``, ``~``, variables and ``#``, and ``_INFIX`` maps tokens to
connectives. The precedence-climbing parser and the printer both read it.

Formulas are hash-consed (Filliatre and Conchon, "Type-safe modular
hash-consing", 2006): the constructors return the one live node of each
structure, so structurally equal formulas are the same object and ``==``
and ``hash`` work by identity. Nodes are immutable. Each node stores its
``weight`` and its structural ``key`` once, built from its children's, so
neither ``weight`` nor ``sort_key`` recurses. ``sort_key`` is the total
order on formulas. Comparing two keys still descends in C along the spine
the two formulas share, and raises RecursionError when that is deeper than
the recursion limit.
"""

from __future__ import annotations

import re
from weakref import ref


def _immutable(self, *args):
    """__setattr__ and __delattr__ of the package's immutable classes, which
    set their slots through the slot descriptors' own __set__ instead."""
    raise AttributeError(f"{type(self).__name__} is immutable")


class _Record:
    """Base of the package's immutable value classes, with the behaviour of
    a frozen dataclass. A subclass names its fields in __match_args__, in
    __init__ order, and sets its slots through the slot descriptors' __set__;
    a subclass may instead keep its fields in its instance dict.
    The base gives it: no assignment or deletion; equality and hash by the
    field values, an instance of another class never being equal; the repr
    Name(field=value, ...); and pickling and copying through __init__."""

    __slots__ = ()

    __setattr__ = __delattr__ = _immutable

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__name__}({shown})"

    def __reduce__(self):
        return type(self), self._fields()


_UNARY = 3  # [], ~, variables and #: tighter than every binary connective


class Formula(_Record):
    """Base class; concrete shapes are Var, Bot, And, Or, Imp, Box."""

    __slots__ = ("weight", "key", "__weakref__")
    _LEVEL = _UNARY

    # hash-consed, so structurally equal formulas are one object
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(map(repr, self._fields()))})"

    def __str__(self) -> str:
        return print_formula(self)


# Intern table: (class, name) for a variable and (class, id of each child)
# otherwise -> weak reference to the node. A live node keeps its children
# and so their ids, so an entry always names the right children; a node's
# entry is dropped when the node dies.
_TABLE: dict[tuple, ref] = {}


class _Ref(ref):
    __slots__ = ("entry",)


def _forget(r: _Ref) -> None:
    if _TABLE.get(r.entry) is r:
        del _TABLE[r.entry]


def _intern(entry: tuple, node: Formula, w: int, key: tuple) -> Formula:
    """Give a new node its weight and key and enter it in the table."""
    _set_weight(node, w)
    _set_key(node, key)
    r = _TABLE[entry] = _Ref(node, _forget)
    r.entry = entry
    return node


class Var(Formula):
    __slots__ = __match_args__ = ("name",)

    def __new__(cls, name: str) -> Var:
        entry = (cls, name)
        r = _TABLE.get(entry)
        if r is not None:
            node = r()
            if node is not None:
                return node
        node = object.__new__(cls)
        _set_name(node, name)
        return _intern(entry, node, 1, (1, name))


class Bot(Formula):
    __slots__ = __match_args__ = ()

    def __new__(cls) -> Bot:
        return _BOT


class _Binary(Formula):
    __slots__ = __match_args__ = ("left", "right")
    _RANK: int
    _WEIGHT: int  # added to the weights of the two children
    _LEVEL: int  # binding level in the concrete syntax; higher binds tighter
    _GROUPS_RIGHT: bool
    _SPELLING: str
    _FLOORS: tuple[int, int]  # the least level of each operand that needs no parentheses

    def __init_subclass__(cls) -> None:
        # the operand on the side the connective groups toward may bind as
        # loosely as the connective itself; the other must bind tighter
        cls._FLOORS = (cls._LEVEL + cls._GROUPS_RIGHT, cls._LEVEL + (not cls._GROUPS_RIGHT))

    def __new__(cls, left: Formula, right: Formula):
        entry = (cls, id(left), id(right))
        r = _TABLE.get(entry)
        if r is not None:
            node = r()
            if node is not None:
                return node
        node = object.__new__(cls)
        _set_left(node, left)
        _set_right(node, right)
        return _intern(entry, node, left.weight + right.weight + cls._WEIGHT, (cls._RANK, left.key, right.key))


class And(_Binary):
    __slots__ = ()
    _RANK, _WEIGHT = 2, 2
    _LEVEL, _GROUPS_RIGHT, _SPELLING = 2, False, "/\\"


class Or(_Binary):
    __slots__ = ()
    _RANK, _WEIGHT = 3, 1
    _LEVEL, _GROUPS_RIGHT, _SPELLING = 1, False, "\\/"


class Imp(_Binary):
    __slots__ = ()
    _RANK, _WEIGHT = 4, 1
    _LEVEL, _GROUPS_RIGHT, _SPELLING = 0, True, "->"


class Box(Formula):
    __slots__ = __match_args__ = ("body",)

    def __new__(cls, body: Formula) -> Box:
        entry = (cls, id(body))
        r = _TABLE.get(entry)
        if r is not None:
            node = r()
            if node is not None:
                return node
        node = object.__new__(cls)
        _set_body(node, body)
        return _intern(entry, node, body.weight + 1, (5, body.key))


# slot setters that bypass the immutability guard, for construction only
_set_weight, _set_key = Formula.weight.__set__, Formula.key.__set__
_set_name, _set_body = Var.name.__set__, Box.body.__set__
_set_left, _set_right = _Binary.left.__set__, _Binary.right.__set__

_BOT = object.__new__(Bot)
_set_weight(_BOT, 1)
_set_key(_BOT, (0,))


def weight(f: Formula) -> int:
    """Termination weight; conjunction counts one extra so that
    w(a -> (b -> c)) < w((a /\\ b) -> c)."""
    return f.weight


def sort_key(f: Formula) -> tuple:
    """Injective key giving a total structural order on formulas: (0,) for
    falsum, (1, name) for a variable, (5, key of body) for a box and
    (rank, key of left, key of right) with ranks 2, 3, 4 for and, or, imp.

    Keys of equal rank always have the same shape, so nested tuple
    comparison never mixes types.
    """
    return f.key


def variables(f: Formula) -> set[str]:
    """The variable names in f, visiting each shared subformula once."""
    out: set[str] = set()
    seen: set[Formula] = set()
    todo = [f]
    while todo:
        g = todo.pop()
        if g in seen:
            continue
        seen.add(g)
        if isinstance(g, Var):
            out.add(g.name)
        else:
            todo += g._fields()
    return out


class ParseError(ValueError):
    """Syntax error with a character position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<arrow>->)|(?P<seq>=>)|(?P<or>\\/)|(?P<and>/\\)"
    r"|(?P<box>\[\])|(?P<neg>~)|(?P<bot>\#)|(?P<lpar>\()|(?P<rpar>\))"
    r"|(?P<comma>,)|(?P<ident>[a-z][a-zA-Z0-9_]*)|(?P<eof>\Z)|(?P<bad>.))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, position) of each token, up to and including eof."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m[kind]!r}", m.start(kind))
        tokens.append((kind, m[kind], m.start(kind)))
        if kind == "eof":
            break
    return tokens


# token kind of each binary connective -> its class
_INFIX = {"arrow": Imp, "or": Or, "and": And}


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> str:
        return self.tokens[self.i][0]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    _SPELLING = {"seq": "'=>'", "rpar": "')'"}

    def expect(self, kind: str) -> None:
        tok = self.next()
        if tok[0] != kind:
            shown = self._SPELLING[kind]
            raise ParseError(f"expected {shown}, found {tok[1] or 'end of input'!r}", tok[2])

    def finish(self, result):
        """result, provided nothing but the end of input is left."""
        kind, value, pos = self.next()
        if kind != "eof":
            raise ParseError(f"trailing input {value!r}", pos)
        return result

    def formula(self, floor: int = 0) -> Formula:
        """Precedence climbing: a unary formula, then each binary connective
        that binds at least at floor, with its right operand parsed at that
        connective's right floor."""
        f = self.unary()
        while (cls := _INFIX.get(self.peek())) is not None and cls._LEVEL >= floor:
            self.next()
            f = cls(f, self.formula(cls._FLOORS[1]))
        return f

    def unary(self) -> Formula:
        kind, value, pos = self.next()
        if kind == "box":
            return Box(self.unary())
        if kind == "neg":
            return Imp(self.unary(), Bot())
        if kind == "ident":
            return Var(value)
        if kind == "bot":
            return Bot()
        if kind == "lpar":
            f = self.formula()
            self.expect("rpar")
            return f
        raise ParseError(f"expected a formula, found {value or 'end of input'!r}", pos)


def parse_formula(text: str) -> Formula:
    p = _Parser(text)
    return p.finish(p.formula())


def _emit(f: Formula, demand: int) -> str:
    """f's text, parenthesized when it binds more loosely than demand."""
    if isinstance(f, Var):
        text = f.name
    elif isinstance(f, Bot):
        text = "#"
    elif isinstance(f, Box):
        text = f"[]{_emit(f.body, _UNARY)}"
    else:
        left, right = f._FLOORS
        text = f"{_emit(f.left, left)} {f._SPELLING} {_emit(f.right, right)}"
    if f._LEVEL < demand:
        return f"({text})"
    return text


def print_formula(f: Formula) -> str:
    """Canonical ASCII rendering with the fewest parentheses; a fixed point
    of parse_formula (negation sugar is input-only)."""
    return _emit(f, 0)
