"""Algebraic types, values, and element identifiers.

The data model is a tiny algebraic one: types are built from the empty type
``0``, the unit type ``1``, binary sums and products, named primitive types,
and references to labels; values mirror the type constructors, with element
references standing in for label-typed positions.  A plain id is its text;
all else is an immutable Record, compared structurally and safe to share or
use as a dict key; composite ids compute their hash once, when made.

This module also owns the concrete syntax: type expressions ("User * String"),
canonical element-id renderings ("(p1,q1)", "L:a", "E:record:@e1"), and the
value renderings embedded in encoded ids.  Rendering is injective and every
rendering parses back to the structure it came from.
"""

from __future__ import annotations

import json
import math
import re
from abc import ABC
from operator import attrgetter
from typing import Callable, Iterator, Mapping, TypeAlias, Union

from .errors import ParseError, PreconditionError

# ---------------------------------------------------------------------------
# Primitive type registry

# kind -> the test that a literal lies in the domain of that kind
_IN_DOMAIN = {
    "string": lambda x: isinstance(x, str),
    "nat": lambda x: isinstance(x, int) and not isinstance(x, bool) and x >= 0,
    "integer": lambda x: isinstance(x, int) and not isinstance(x, bool),
    "double": lambda x: isinstance(x, float) and math.isfinite(x),
    "boolean": lambda x: isinstance(x, bool),
}
_NOWHERE = lambda x: False  # the domain of a name no registry holds


class PrimRegistry:
    """Maps primitive type names to one of five value domains.

    The domains are: text strings, natural numbers (>= 0), signed integers,
    finite IEEE doubles, and booleans.  Doubles are kept finite because the
    file format is JSON and structural equality must stay reflexive.
    """

    def __init__(self, kinds: Mapping[str, str]):
        for name, kind in kinds.items():
            if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
                raise ParseError(f"bad primitive type name {name!r}")
            if kind not in _IN_DOMAIN:
                raise ParseError(f"unknown primitive kind {kind!r} for {name}")
        self._kinds = dict(kinds)

    def __contains__(self, name: str) -> bool:
        return name in self._kinds

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._kinds))

    def kind(self, name: str) -> str:
        return self._kinds[name]

    def check_literal(self, name: str, literal: object) -> bool:
        """True when the literal lies in the domain registered under name."""
        return self.domain(name)(literal)

    def domain(self, name: str) -> Callable[[object], bool]:
        """The test of check_literal for name, looked up once; the domain of
        an unregistered name is empty."""
        return _IN_DOMAIN.get(self._kinds.get(name), _NOWHERE)

    def coerce(self, name: str, raw: object) -> object:
        """Normalize a literal fresh from JSON: ints are legal double text, but
        one too large for a float stays an int, which check_literal rejects."""
        if self._kinds.get(name) == "double" and _IN_DOMAIN["integer"](raw):
            try:
                return float(raw)
            except OverflowError:
                pass
        return raw

    def items(self):
        return sorted(self._kinds.items())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimRegistry) and self._kinds == other._kinds

    def __repr__(self) -> str:
        return f"PrimRegistry({self._kinds!r})"


DEFAULT_KINDS = {
    "String": "string",
    "Nat": "nat",
    "Integer": "integer",
    "Double": "double",
    "Boolean": "boolean",
}

DEFAULT_REGISTRY = PrimRegistry(DEFAULT_KINDS)


# ---------------------------------------------------------------------------
# Records

_OMITTED = object()  # the default of an optional field's parameter


def _constructor(cls):
    """The __init__ of cls, written out from its fields: one parameter per
    field, the factory in _defaults for each optional one left out, each
    field stored through its slot's own setter, and, for a composite id, the
    hash of (cls, *fields) stored once."""
    scope = {"_cls": cls, "_defaults": cls._defaults, "_OMITTED": _OMITTED}
    params = [f"{f}=_OMITTED" if f in cls._defaults else f for f in ("self", *cls._fields)]
    body = []
    for name in cls._fields:
        scope["_set_" + name] = getattr(cls, name).__set__
        if name in cls._defaults:
            body.append(f"if {name} is _OMITTED: {name} = _defaults[{name!r}]()")
        body.append(f"_set_{name}(self, {name})")
    if hasattr(cls, "_hash"):
        scope["_set__hash"] = cls._hash.__set__
        body.append(f"_set__hash(self, hash((_cls, {', '.join(cls._fields)})))")
    exec(f"def __init__({', '.join(params)}):\n    " + "\n    ".join(body), scope)
    scope["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"  # named in its TypeErrors
    return scope["__init__"]


class Record:
    """Base of the package's records: compared and hashed by class and
    fields, printed like dataclasses, immutable unless declared frozen=False
    (then also unhashable).  __slots__ maps each field to its type's text.
    Each class with fields is built by one constructor that its first build
    writes out from its fields (see _constructor): it takes them by position
    or keyword, with a factory in _defaults for each optional one.
    """

    __slots__ = ()
    _fields: tuple = ()
    _defaults: dict = {}

    def __init_subclass__(cls, frozen: bool = True):
        cls._fields = cls.__match_args__ = tuple(cls.__dict__.get("__slots__", cls._fields))
        # One C call reads the fields: the value of one, a tuple of several.
        cls._key = attrgetter(*cls._fields or ["__class__"])
        if "__init__" not in cls.__dict__:  # so no class builds with its parent's constructor
            cls.__init__ = Record.__init__ if cls._fields else object.__init__
        if not frozen:
            cls.__setattr__, cls.__delattr__, cls.__hash__ = object.__setattr__, object.__delattr__, None

    def __init__(self, *args, **kwargs):
        """Write out the class's own constructor, keep it, and build with it."""
        cls = type(self)
        cls.__init__ = _constructor(cls)
        cls.__init__(self, *args, **kwargs)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot change field {name!r}")

    __delattr__ = __setattr__


# ---------------------------------------------------------------------------
# Types

class Zero(Record):
    """The empty type; no value inhabits it."""
    __slots__ = ()


class One(Record):
    """The unit type, inhabited only by Unit."""
    __slots__ = ()


def _shape(t) -> tuple:
    """The (kind, name) of each node in walk order; node arities are fixed,
    so equal shapes mean equal types, and no recursion compares them."""
    return tuple((type(node), getattr(node, "name", None)) for node in type_nodes(t))


class Sum(Record):
    __slots__ = {"left": "TypeExpr", "right": "TypeExpr"}

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self is other or _shape(self) == _shape(other)

    def __hash__(self):
        return hash(_shape(self))


class Prod(Record):
    __slots__ = {"left": "TypeExpr", "right": "TypeExpr"}
    __eq__, __hash__ = Sum.__eq__, Sum.__hash__


class Prim(Record):
    """A primitive type, named into some registry."""

    __slots__ = {"name": "str"}


class Lbl(Record):
    """A reference to a label; its values are references to elements."""

    __slots__ = {"name": "str"}


TypeExpr: TypeAlias = Union[Zero, One, Sum, Prod, Prim, Lbl]


def type_nodes(t: TypeExpr) -> Iterator[TypeExpr]:
    """Every node of the type, parents first and left before right.

    The walk keeps its own stack, so a type of any depth can be walked.
    """
    stack = [t]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (Sum, Prod)):
            stack.append(node.right)
            stack.append(node.left)


def label_free(t: TypeExpr) -> bool:
    """True when no label reference occurs anywhere in the type."""
    return not any(isinstance(node, Lbl) for node in type_nodes(t))


def labels_in(t: TypeExpr) -> set[str]:
    return {node.name for node in type_nodes(t) if isinstance(node, Lbl)}


# ---------------------------------------------------------------------------
# Values and element identifiers (mutually recursive)

class Unit(Record):
    """The sole value of the unit type."""
    __slots__ = ()


class Inl(Record):
    __slots__ = {"inner": "Value"}


class Inr(Record):
    __slots__ = {"inner": "Value"}


class Pair(Record):
    __slots__ = {"first": "Value", "second": "Value"}


class PrimVal(Record):
    """A primitive literal tagged with its primitive type name.

    Two primitive values are equal exactly when both the name and the
    literal agree, so Nat 0 and Integer 0 stay distinct.
    """

    __slots__ = {"prim": "str", "literal": "Union[str, int, float, bool]"}


class Ref(Record):
    """A reference to an element, the value form of a label type."""

    __slots__ = {"element": "ElementId"}


Value: TypeAlias = Union[Unit, Inl, Inr, Pair, PrimVal, Ref]


_ATOM_RE = re.compile(r"[A-Za-z0-9_.\-⊤]+")


class Atom(ABC):
    """A plain element id such as "p1" is its text: Atom(text) checks the text
    and returns it as an exact str.  Every str, checked or not, is an Atom."""

    def __new__(cls, text: str) -> str:
        if not (isinstance(text, str) and _ATOM_RE.fullmatch(text)):
            raise ParseError(f"bad element id {text!r}")
        return str(text)


Atom.register(str)


class _Composite(Record):
    """An id made of parts and hashed once, when made."""

    __slots__ = {"_hash": "int"}

    def __hash__(self):
        return self._hash


class PairId(_Composite):
    """The id of a paired element, rendered "(a,b)"."""

    __slots__ = {"first": "ElementId", "second": "ElementId"}


class Left(_Composite):
    """A left-tagged id from a disjoint union, rendered "L:a"."""

    __slots__ = {"inner": "ElementId"}


class Right(_Composite):
    __slots__ = {"inner": "ElementId"}


class Class(_Composite):
    """The id of an equivalence class, named by its least member."""

    __slots__ = {"rep": "ElementId"}


class Enc(_Composite):
    """An id minted from a label and a witness value, rendered "E:l:v".

    Migration creates one output element per (label, witness) pair; keeping
    the label in the id keeps ids unique when two labels share a witness.
    """

    __slots__ = {"label": "str", "witness": "Value"}


ElementId: TypeAlias = Union[Atom, PairId, Left, Right, Class, Enc]


# ---------------------------------------------------------------------------
# Canonical renderings

# The renderers test exact classes, plain ids first, then the commonest:
# a chain of isinstance tests costs more than the text it picks.

def render_id(e: ElementId) -> str:
    if isinstance(e, str):
        return e
    kind = type(e)
    if kind is PairId:
        first, second = e.first, e.second
        return (f"({first if type(first) is str else render_id(first)},"
                f"{second if type(second) is str else render_id(second)})")
    if kind is Enc:
        return f"E:{e.label}:{render_value(e.witness)}"
    if kind is Left:
        return "L:" + render_id(e.inner)
    if kind is Right:
        return "R:" + render_id(e.inner)
    if kind is Class:
        return "C:" + render_id(e.rep)
    raise PreconditionError(f"cannot render a non-id {kind.__name__} as an element id")


def render_value(v: Value) -> str:
    kind = type(v)
    if kind is Pair:
        return f"({render_value(v.first)},{render_value(v.second)})"
    if kind is Inl or kind is Inr:
        return f"{'inl' if kind is Inl else 'inr'}({render_value(v.inner)})"
    if kind is Unit:
        return "()"
    if kind is PrimVal:
        return f"{v.prim}={json.dumps(v.literal)}"
    return "@" + render_id(v.element)


_SPACE_RE = re.compile(r"\s*")
_JSON = json.JSONDecoder()


class _Scanner:
    """The cursor every parser of concrete syntax reads with.  It reads ids
    and values; a grammar that lexes by token() subclasses it with a TOKEN
    pattern, a bad_token hook and its rules as methods: _TypeScanner here for
    type expressions, migrate._TermScanner for terms."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.pos)

    def token(self) -> tuple[str, str, int]:
        """The next token as (kind, text, position); kind is the name of the
        group of TOKEN that matched, else the symbol's own text, or "end".
        Text at `at` that starts no token raises bad_token(start, at), where
        start is where the previous token ended."""
        start = self.pos
        at = self.skip()
        m = self.TOKEN.match(self.text, at)
        if m:
            self.pos = m.end()
            return m.lastgroup or m.group(), m.group(), at
        if at == len(self.text):
            return "end", "", at
        raise self.bad_token(start, at)

    def unexpected(self, word: str, at: int, what: str) -> ParseError:
        """The error for a token that cannot start a `what` here."""
        return ParseError(f"expected a {what}, found {word!r}" if word else f"unexpected end of {what}", at)

    def whole(self, result, what: str):
        """result, which must be the whole `what`: a token after it is refused."""
        kind, rest, at = self.token()
        if kind != "end":
            raise ParseError(f"trailing characters {rest!r} in {what}", at)
        return result

    def skip(self) -> int:
        """Move past whitespace and return the new position."""
        self.pos = _SPACE_RE.match(self.text, self.pos).end()
        return self.pos

    def sym(self, symbol: str) -> bool:
        """Take symbol if it comes next after whitespace.  The cursor moves
        only when it does, so a fault found next is reported where it was."""
        at = _SPACE_RE.match(self.text, self.pos).end()
        if not self.text.startswith(symbol, at):
            return False
        self.pos = at + len(symbol)
        return True

    def take(self, expected: str):
        if not self.text.startswith(expected, self.pos):
            raise self.error(f"expected {expected!r}")
        self.pos += len(expected)

    def atom_run(self) -> str:
        m = _ATOM_RE.match(self.text, self.pos)
        if not m:
            raise self.error("expected a name")
        self.pos = m.end()
        return m.group()

    def literal(self, end: int | None = None):
        """The JSON scalar at the cursor; when end is given, its text must
        stop there.  A number must be a finite double: NaN, Infinity and a
        number past a double's range render as text no parser reads back."""
        try:
            literal, stop = _JSON.raw_decode(self.text, self.pos)
        except ValueError:
            raise self.error("bad literal") from None
        if (end is not None and stop != end
                or isinstance(literal, float) and not math.isfinite(literal)):
            raise self.error("bad literal")
        self.pos = stop
        if not isinstance(literal, (str, int, float, bool)):
            raise self.error("literal must be a scalar")
        return literal

    def id_(self) -> ElementId:
        if self.text.startswith("(", self.pos):
            self.take("(")
            first = self.id_()
            self.take(",")
            second = self.id_()
            self.take(")")
            return PairId(first, second)
        for prefix, ctor in (("L:", Left), ("R:", Right), ("C:", Class)):
            if self.text.startswith(prefix, self.pos):
                self.pos += 2
                return ctor(self.id_())
        if self.text.startswith("E:", self.pos):
            self.pos += 2
            label = self.label_name()
            self.take(":")
            return Enc(label, self.value())
        return self.atom_run()

    def label_name(self) -> str:
        """A label name: an atom run, a prefixed name, or a comma pair."""
        if self.text.startswith("(", self.pos):
            self.take("(")
            first = self.label_name()
            self.take(",")
            second = self.label_name()
            self.take(")")
            return f"({first},{second})"
        for prefix in ("L:", "R:", "C:"):
            if self.text.startswith(prefix, self.pos):
                self.pos += 2
                return prefix + self.label_name()
        return self.atom_run()

    def value(self) -> Value:
        if self.text.startswith("(", self.pos):
            self.take("(")
            if self.text.startswith(")", self.pos):
                self.take(")")
                return Unit()
            first = self.value()
            self.take(",")
            second = self.value()
            self.take(")")
            return Pair(first, second)
        if self.text.startswith("@", self.pos):
            self.take("@")
            return Ref(self.id_())
        for word, ctor in (("inl(", Inl), ("inr(", Inr)):
            if self.text.startswith(word, self.pos):
                self.pos += 4
                inner = self.value()
                self.take(")")
                return ctor(inner)
        name = self.atom_run()
        self.take("=")
        return PrimVal(name, self.literal())


def parse_id(text: str) -> ElementId:
    if _ATOM_RE.fullmatch(text):  # no structured id is a single atom run
        return text
    s = _Scanner(text)
    result = s.id_()
    if s.pos != len(text):
        raise s.error("trailing characters in element id")
    return result


def is_id(e) -> bool:
    """True when e is an element id whose text parses back to it, as the key
    of a written element must."""
    try:
        return parse_id(render_id(e)) == e
    except (ParseError, PreconditionError, RecursionError, AttributeError, TypeError, ValueError):
        return False


class IdTable(dict):
    """Id text -> parsed ElementId, filled on first lookup.

    A reader keeps one table per document, so each distinct text is parsed
    once and every occurrence of it maps to one shared object.  A bad text
    raises the ParseError of parse_id and is not stored.
    """

    def __missing__(self, text: str) -> ElementId:
        e = self[text] = parse_id(text)
        return e


# ---------------------------------------------------------------------------
# Type expression syntax
#
#   sum  := prod ('+' sum)?           (right associative, lowest precedence)
#   prod := atom ('*' prod)?          (binds tighter than '+')
#   atom := '0' | '1' | NAME | '(' sum ')'
#
# NAME is an identifier, resolved against the schema's labels first and the
# primitive registry second.  Graphs produced by the categorical operations
# carry structured label names ("L:driver", "(knows,⊤)"), so the token() of
# _TypeScanner, whose methods are the rules, reads prefixed names and
# whitespace-free parenthesized pairs as one name before it tries TOKEN.


class _TypeScanner(_Scanner):
    """The scanner of one type expression and of the names that resolve it."""

    TOKEN = re.compile(r"(?P<name>[A-Za-z_⊤][A-Za-z0-9_⊤]*)|[+*()]|[01](?!\w)")

    def __init__(self, text: str, labels, registry: PrimRegistry):
        super().__init__(text)
        self.labels, self.registry = labels, registry
        self.unnamed = set()  # starts where label_name failed, so each is tried once

    def label_name(self) -> str:
        start = self.pos
        try:
            return super().label_name()
        except ParseError:
            self.unnamed.add(start)
            raise

    def token(self) -> tuple[str, str, int]:
        at = self.skip()
        if at not in self.unnamed and self.text.startswith(("(", "L:", "R:", "C:"), at):
            try:
                return "name", self.label_name(), at
            except ParseError:
                if self.text[at] != "(":
                    raise
                self.pos = at  # a plain parenthesis, which TOKEN reads
        return super().token()

    def bad_token(self, start: int, at: int) -> ParseError:
        c = self.text[at]
        if c in "01":  # TOKEN refuses a 0 or 1 run into a word character, as in 0x
            return ParseError(f"bad token starting at {self.text[at:at + 8]!r}", at)
        return ParseError(f"unexpected character {c!r}", at)

    def sum(self) -> TypeExpr:
        t = self.prod()
        return Sum(t, self.sum()) if self.sym("+") else t

    def prod(self) -> TypeExpr:
        t = self.atom()
        return Prod(t, self.prod()) if self.sym("*") else t

    def atom(self) -> TypeExpr:
        kind, word, at = self.token()
        if kind == "0":
            return Zero()
        if kind == "1":
            return One()
        if kind == "name":
            if word in self.labels:
                return Lbl(word)
            if word in self.registry:
                return Prim(word)
            raise ParseError(f"unknown type name {word!r}", at)
        if kind == "(":
            t = self.sum()
            if not self.sym(")"):
                raise ParseError("expected ')'", self.token()[2])
            return t
        raise self.unexpected(word, at, "type")


def parse_type(text: str, labels, registry: PrimRegistry = DEFAULT_REGISTRY) -> TypeExpr:
    """Parse a type expression, resolving names label-first.

    labels is the set (or mapping) of label names in scope.  A name that is
    neither a label nor a registered primitive is a parse error.
    """
    s = _TypeScanner(text, labels, registry)
    return s.whole(s.sum(), "type expression")


def render_type(t: TypeExpr) -> str:
    """Render with minimal parentheses; parse_type round-trips the output."""
    return _render_type(t, 0)


def _render_type(t: TypeExpr, level: int) -> str:
    """t rendered inside a context that binds at level: 1 under +, 2 under *."""
    if isinstance(t, Zero):
        return "0"
    if isinstance(t, One):
        return "1"
    if isinstance(t, (Prim, Lbl)):
        return t.name
    if isinstance(t, Sum):
        s = f"{_render_type(t.left, 1)} + {_render_type(t.right, 0)}"
        return f"({s})" if level > 0 else s
    s = f"{_render_type(t.left, 2)} * {_render_type(t.right, 1)}"
    return f"({s})" if level > 1 else s


# ---------------------------------------------------------------------------
# Structural transports
#
# A label map f induces a rewrite of types (replace each label reference);
# together with an element map g it induces a rewrite of values (replace each
# element reference).  These carry schemas and stored values across the
# categorical constructions without touching primitive data.

def transport_type(f: Mapping[str, TypeExpr], t: TypeExpr) -> TypeExpr:
    if isinstance(t, Lbl):
        try:
            return f[t.name]
        except KeyError:
            raise PreconditionError(f"label {t.name!r} outside the transport domain") from None
    if isinstance(t, (Sum, Prod)):
        return type(t)(transport_type(f, t.left), transport_type(f, t.right))
    return t


def transport_value(
    g: Union[Mapping[ElementId, Value], Callable[[ElementId], Value]],
    v: Value,
) -> Value:
    """Rewrite every reference in v through g, a callable or a mapping.

    Typing is the caller's side: if v checks against a type t and g sends
    each element of label l to a value of type f[l], the result checks
    against transport_type(f, t).  The recursion is directed by the value
    alone.
    """
    if callable(g):
        return _transport(v, g)

    def look(e: ElementId) -> Value:
        try:
            return g[e]
        except KeyError:
            raise PreconditionError(
                f"element {render_id(e)} outside the transport domain"
            ) from None

    return _transport(v, look)


def _transport(v: Value, g: Callable[[ElementId], Value]) -> Value:
    """v itself when no reference below it changes, so nothing is rebuilt."""
    kind = type(v)
    if kind is Ref:
        return g(v.element)
    if kind is Unit or kind is PrimVal:
        return v
    if kind is Inl or kind is Inr:
        inner = _transport(v.inner, g)
        return v if inner is v.inner else kind(inner)
    first, second = _transport(v.first, g), _transport(v.second, g)
    return v if first is v.first and second is v.second else Pair(first, second)


# ---------------------------------------------------------------------------
# Bidirectional value checking

class Mismatch(Record):
    """A single point of disagreement between a value and a type."""

    __slots__ = {"path": "tuple[str, ...]", "message": "str"}

    def path_text(self) -> str:
        return "".join("." + step for step in self.path)

    def __str__(self) -> str:
        where = self.path_text() or "root"
        return f"at {where}: {self.message}"


_DESCRIBED = {Unit: "()", Pair: "a pair", Inl: "a left injection", Inr: "a right injection"}
_IDS = (str, _Composite)  # the classes of ElementId


def _describe(v: Value) -> str:
    if isinstance(v, PrimVal):
        return f"a {v.prim} literal"
    if isinstance(v, Ref):
        e = v.element
        return "a reference to " + (render_id(e) if isinstance(e, _IDS)
                                    else f"a non-id {type(e).__name__}")
    return _DESCRIBED.get(type(v), f"a non-value {type(v).__name__}")


def check_value(value: Value, expected: TypeExpr, schema, label_of) -> Mismatch | None:
    """Check value against expected, returning the first mismatch found.

    schema supplies the primitive registry; label_of maps element ids to
    label names (a mapping or a callable) and is consulted at reference
    positions.  Returns None when the value inhabits the type.
    """
    look = label_of if callable(label_of) else label_of.get
    return checker(expected, schema.registry)(value, look)


def checker(t: TypeExpr, registry: PrimRegistry):
    """The check of values against t, built once: check(v, look) is None when
    v inhabits t, else the first Mismatch, written only then.  look(e) is the
    label of element e, or None.  Each node's check is built knowing its path
    from the root, so a misfit at any depth makes one Mismatch."""
    return _checker(t, registry, ())


def _checker(t: TypeExpr, registry: PrimRegistry, path: tuple):
    """checker(t, registry) for the node t at path, a chain as unwind_path
    reads it: the nodes share their common steps, so the build is linear."""
    if isinstance(t, Lbl):
        name = t.name
        return lambda v, look: (None if type(v) is Ref and look(v.element) == name
                                else _mismatch(t, v, look, path))
    if isinstance(t, Prim):
        name, inside = t.name, registry.domain(t.name)
        return lambda v, look: (None if type(v) is PrimVal and v.prim == name and inside(v.literal)
                                else _mismatch(t, v, look, path))
    if not isinstance(t, (Sum, Prod)):
        return lambda v, look: (None if type(v) is Unit and isinstance(t, One)
                                else _mismatch(t, v, look, path))
    pair = isinstance(t, Prod)
    left = _checker(t.left, registry, ("fst" if pair else "inl", path))  # a frame per level
    right = _checker(t.right, registry, ("snd" if pair else "inr", path))
    if pair:
        return lambda v, look: (left(v.first, look) or right(v.second, look) if type(v) is Pair
                                else _mismatch(t, v, look, path))
    return lambda v, look: (left(v.inner, look) if type(v) is Inl
                            else right(v.inner, look) if type(v) is Inr
                            else _mismatch(t, v, look, path))


def unwind_path(chain: tuple) -> tuple:
    """The steps, outermost first, of the place that chain names: (innermost
    step, chain of the parent), () at the root; places below one share it."""
    steps = []
    while chain:
        step, chain = chain
        steps.append(step)
    return tuple(reversed(steps))


def _mismatch(t: TypeExpr, v: Value, look, chain: tuple) -> Mismatch:
    """Why the node t refuses the value v, whose parts it has not checked;
    chain is t's path as _checker holds it."""
    path = unwind_path(chain)
    if isinstance(t, Lbl):
        if not isinstance(v, Ref) or not isinstance(v.element, _IDS):
            return Mismatch(path, f"expected a reference to {t.name}, found {_describe(v)}")
        target_label = look(v.element)
        if target_label is None:
            return Mismatch(path, f"reference to missing element {render_id(v.element)}")
        return Mismatch(path, f"expected a reference to {t.name}, found one to "
                              f"{render_id(v.element)} labeled {target_label}")
    if isinstance(t, Prim):
        if not isinstance(v, PrimVal):
            return Mismatch(path, f"expected a {t.name} literal, found {_describe(v)}")
        if v.prim != t.name:
            return Mismatch(path, f"expected a {t.name} literal, found a {v.prim} literal")
        return Mismatch(path, f"literal {v.literal!r} is outside the {v.prim} domain")
    if isinstance(t, One):
        return Mismatch(path, f"expected (), found {_describe(v)}")
    if isinstance(t, (Sum, Prod)):
        return Mismatch(path, f"expected {render_type(t)}, found {_describe(v)}")
    return Mismatch(path, "no value inhabits the empty type 0")
