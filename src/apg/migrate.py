"""Schema mappings and data migration.

A mapping sends each source label to a type over the target schema and to a
term that rebuilds a source-shaped value from a target-side witness.  Terms
are a tiny first-order language: the migration variable x, pairing and
injections, projections, case analysis, primitive literals, and a lookup
form phi(t) that dereferences a target element to its stored value.

Migrating a target graph materializes, for every source label, one element
per witness of the mapped type.  Witness enumeration covers the fragment
built from 1, sums, products, and label references; primitive types would
mean enumerating infinite domains, so mappings must stay inside the
enumerable fragment.
"""

from __future__ import annotations

import itertools
import json
import re
from operator import attrgetter, itemgetter
from typing import Mapping, TypeAlias, Union, get_args

from .adt import (
    Enc,
    Inl,
    Inr,
    Lbl,
    One,
    Pair,
    Prim,
    PrimVal,
    Prod,
    Record,
    Ref,
    Sum,
    TypeExpr,
    Unit,
    Value,
    Zero,
    _Scanner,
    labels_in,
    render_id,
    render_type,
    transport_type,
    type_nodes,
)
from .errors import ApgError, ParseError, PreconditionError
from .graph import Element, Graph, Schema, ValidationReport, validate_graph

# ---------------------------------------------------------------------------
# Terms

class Var(Record):
    __slots__ = {"name": "str"}


class UnitT(Record):
    __slots__ = ()


class PairT(Record):
    __slots__ = {"first": "Term", "second": "Term"}


class InlT(Record):
    __slots__ = {"inner": "Term"}


class InrT(Record):
    __slots__ = {"inner": "Term"}


class Fst(Record):
    __slots__ = {"inner": "Term"}


class Snd(Record):
    __slots__ = {"inner": "Term"}


class CaseT(Record):
    __slots__ = {"scrutinee": "Term", "left_name": "str", "left_body": "Term",
                 "right_name": "str", "right_body": "Term"}


class Phi(Record):
    """Dereference: the stored value of the element a term refers to."""

    __slots__ = {"inner": "Term"}


class Lit(Record):
    __slots__ = {"prim": "str", "literal": "Union[str, int, float, bool]"}


Term: TypeAlias = Union[Var, UnitT, PairT, InlT, InrT, Fst, Snd, CaseT, Phi, Lit]
_TERMS = get_args(Term)


class TermTypeError(ApgError):
    pass


class RewriteLimit(ApgError):
    pass


# ---------------------------------------------------------------------------
# Term syntax
#
#   term := 'case' term 'of' '{' 'inl' NAME '->' term ';' 'inr' NAME '->' term '}'
#         | ('fst'|'snd'|'inl'|'inr'|'phi') term
#         | '()' | '(' term ')' | '(' term ',' term ')'
#         | NAME literal        (a primitive literal: Integer 0, String "hi", Boolean true)
#         | NAME                (a variable)

_WRAPPERS = {"fst": Fst, "snd": Snd, "inl": InlT, "inr": InrT, "phi": Phi}
_KEYWORD_OF = {cls: word for word, cls in _WRAPPERS.items()}
_KEYWORDS = {*_WRAPPERS, "case", "of"}


class _TermScanner(_Scanner):
    """The scanner of one term; each rule of the grammar above is a method."""

    TOKEN = re.compile(
        r"(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
        r"|(?P<number>-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)"
        r'|(?P<string>"(?:[^"\\]|\\.)*")'
        r"|->|[(){};,]"
    )

    def bad_token(self, start: int, at: int) -> ParseError:
        """A bad token is reported from where the previous token ended."""
        return ParseError(f"bad token {self.text[start:start + 8]!r}", start)

    def expect(self, word: str):
        _, got, at = self.token()
        if got != word:
            raise ParseError(f"expected {word!r}, found {got!r}", at)

    def name(self) -> str:
        kind, got, at = self.token()
        if kind != "ident" or got in _KEYWORDS:
            raise ParseError(f"expected a name, found {got!r}", at)
        return got

    def branch(self, *words: str) -> tuple[str, Term]:
        """The words, then one case branch: NAME '->' term."""
        for word in words:
            self.expect(word)
        bound = self.name()
        self.expect("->")
        return bound, self.term()

    def term(self) -> Term:
        kind, word, at = self.token()
        if word == "case":
            scrutinee = self.term()
            left = self.branch("of", "{", "inl")
            right = self.branch(";", "inr")
            self.expect("}")
            return CaseT(scrutinee, *left, *right)
        if word in _WRAPPERS:
            return _WRAPPERS[word](self.term())
        if word == "(":
            if self.sym(")"):
                return UnitT()
            first = self.term()
            _, got, at = self.token()
            if got == ")":
                return first
            if got == ",":
                second = self.term()
                self.expect(")")
                return PairT(first, second)
            raise ParseError(f"expected ',' or ')', found {got!r}", at)
        if kind == "ident" and word not in _KEYWORDS:
            mark = self.pos
            kind, got, at = self.token()
            if kind in ("number", "string") or got in ("true", "false"):
                self.pos = at  # the token must be one JSON scalar: not 01, not "\x"
                return Lit(word, self.literal(at + len(got)))
            self.pos = mark
            return Var(word)
        raise self.unexpected(word, at, "term")


def parse_term(text: str) -> Term:
    s = _TermScanner(text)
    return s.whole(s.term(), "term")


def render_term(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, UnitT):
        return "()"
    if isinstance(t, PairT):
        return f"({render_term(t.first)}, {render_term(t.second)})"
    if type(t) in _KEYWORD_OF:
        return f"{_KEYWORD_OF[type(t)]} {render_term(t.inner)}"
    if isinstance(t, CaseT):
        return (
            f"case {render_term(t.scrutinee)} of "
            f"{{ inl {t.left_name} -> {render_term(t.left_body)} ; "
            f"inr {t.right_name} -> {render_term(t.right_body)} }}"
        )
    return f"{t.prim} {json.dumps(t.literal)}"


# ---------------------------------------------------------------------------
# Typing

def infer_term(t: Term, env: Mapping[str, TypeExpr], schema: Schema) -> TypeExpr:
    """Synthesize a type, or raise TermTypeError.  Injections and unit-free
    forms that only check are rejected here with a clear message."""
    if isinstance(t, Var):
        if t.name not in env:
            raise TermTypeError(f"unbound variable {t.name!r}")
        return env[t.name]
    if isinstance(t, UnitT):
        return One()
    if isinstance(t, Lit):
        if t.prim not in schema.registry:
            raise TermTypeError(f"unknown primitive type {t.prim!r}")
        if not schema.registry.check_literal(t.prim, t.literal):
            raise TermTypeError(f"literal {t.literal!r} is outside the {t.prim} domain")
        return Prim(t.prim)
    if isinstance(t, PairT):
        return Prod(infer_term(t.first, env, schema), infer_term(t.second, env, schema))
    if isinstance(t, (Fst, Snd)):
        inner = infer_term(t.inner, env, schema)
        if not isinstance(inner, Prod):
            raise TermTypeError(f"{_KEYWORD_OF[type(t)]} applied to {render_type(inner)}")
        return inner.left if isinstance(t, Fst) else inner.right
    if isinstance(t, Phi):
        inner = infer_term(t.inner, env, schema)
        if not isinstance(inner, Lbl):
            raise TermTypeError(f"phi applied to {render_type(inner)}, not a label")
        if inner.name not in schema.labels:
            raise TermTypeError(f"phi dereferences undeclared label {inner.name!r}")
        return schema.labels[inner.name]
    if isinstance(t, CaseT):
        scrutinee = infer_term(t.scrutinee, env, schema)
        if not isinstance(scrutinee, Sum):
            raise TermTypeError(f"case scrutinee has type {render_type(scrutinee)}, not a sum")
        left = infer_term(t.left_body, {**env, t.left_name: scrutinee.left}, schema)
        check_term(t.right_body, left, {**env, t.right_name: scrutinee.right}, schema)
        return left
    raise TermTypeError(f"cannot infer a type for {render_term(t)}; annotate by context")


def check_term(t: Term, expected: TypeExpr, env: Mapping[str, TypeExpr], schema: Schema):
    """Check t against expected, raising TermTypeError on the first problem."""
    if isinstance(t, (InlT, InrT)):
        if not isinstance(expected, Sum):
            raise TermTypeError(
                f"{_KEYWORD_OF[type(t)]} produces a sum, but {render_type(expected)} was expected")
        check_term(t.inner, expected.left if isinstance(t, InlT) else expected.right, env, schema)
        return
    if isinstance(t, PairT):
        if not isinstance(expected, Prod):
            raise TermTypeError(f"a pair produces a product, but {render_type(expected)} was expected")
        check_term(t.first, expected.left, env, schema)
        check_term(t.second, expected.right, env, schema)
        return
    if isinstance(t, UnitT):
        if not isinstance(expected, One):
            raise TermTypeError(f"() has type 1, but {render_type(expected)} was expected")
        return
    if isinstance(t, CaseT):
        scrutinee = infer_term(t.scrutinee, env, schema)
        if not isinstance(scrutinee, Sum):
            raise TermTypeError(f"case scrutinee has type {render_type(scrutinee)}, not a sum")
        check_term(t.left_body, expected, {**env, t.left_name: scrutinee.left}, schema)
        check_term(t.right_body, expected, {**env, t.right_name: scrutinee.right}, schema)
        return
    found = infer_term(t, env, schema)
    if found != expected:
        raise TermTypeError(
            f"term has type {render_type(found)}, but {render_type(expected)} was expected"
        )


# ---------------------------------------------------------------------------
# Rewriting

def _parts(t: Term) -> list[Term]:
    """The fields of t that hold terms, in field order."""
    return [v for v in map(t.__getattribute__, t._fields) if isinstance(v, _TERMS)]


def _remake(t: Term, parts) -> Term:
    """t with its term fields replaced by parts, in field order; names and literals stay."""
    parts = iter(parts)
    return type(t)(*(next(parts) if isinstance(v, _TERMS) else v
                     for v in map(t.__getattribute__, t._fields)))


def free_vars(t: Term) -> set[str]:
    if isinstance(t, Var):
        return {t.name}
    if isinstance(t, CaseT):
        return (free_vars(t.scrutinee) | (free_vars(t.left_body) - {t.left_name})
                | (free_vars(t.right_body) - {t.right_name}))
    return set().union(*map(free_vars, _parts(t)))


def _fresh(base: str, avoid: set[str]) -> str:
    for i in itertools.count(1):
        candidate = f"{base}_{i}"
        if candidate not in avoid:
            return candidate


def substitute(t: Term, name: str, replacement: Term) -> Term:
    """Capture-avoiding substitution of replacement for the free variable."""
    if isinstance(t, Var):
        return replacement if t.name == name else t
    if isinstance(t, CaseT):
        scrutinee = substitute(t.scrutinee, name, replacement)
        ln, lb = _subst_branch(t.left_name, t.left_body, name, replacement)
        rn, rb = _subst_branch(t.right_name, t.right_body, name, replacement)
        return CaseT(scrutinee, ln, lb, rn, rb)
    return _remake(t, [substitute(part, name, replacement) for part in _parts(t)])


def _subst_branch(binder: str, body: Term, name: str, replacement: Term):
    if binder == name:
        return binder, body
    if binder in free_vars(replacement):
        fresh = _fresh(binder, free_vars(replacement) | free_vars(body))
        body = substitute(body, binder, Var(fresh))
        binder = fresh
    return binder, substitute(body, name, replacement)


def _reduce_root(t: Term) -> Term | None:
    if isinstance(t, Fst) and isinstance(t.inner, PairT):
        return t.inner.first
    if isinstance(t, Snd) and isinstance(t.inner, PairT):
        return t.inner.second
    if isinstance(t, CaseT) and isinstance(t.scrutinee, InlT):
        return substitute(t.left_body, t.left_name, t.scrutinee.inner)
    if isinstance(t, CaseT) and isinstance(t.scrutinee, InrT):
        return substitute(t.right_body, t.right_name, t.scrutinee.inner)
    return None


def has_redex(t: Term) -> bool:
    return _reduce_root(t) is not None or any(map(has_redex, _parts(t)))


def term_size(t: Term) -> int:
    return 1 + sum(map(term_size, _parts(t)))


def normalize_term(t: Term, step_limit: int | None = None) -> Term:
    """Rewrite projections of pairs and cases of injections to exhaustion.

    The optional step limit bounds the number of contractions; exceeding it
    raises RewriteLimit instead of looping.
    """
    return _norm(t, step_limit, itertools.count(1))


def _norm(t: Term, step_limit: int | None, steps: itertools.count) -> Term:
    """normalize_term of t; next(steps) numbers the contractions made so far."""
    t = _remake(t, [_norm(part, step_limit, steps) for part in _parts(t)])
    reduced = _reduce_root(t)
    if reduced is None:
        return t
    if step_limit is not None and next(steps) > step_limit:
        raise RewriteLimit(f"no normal form within {step_limit} steps")
    return _norm(reduced, step_limit, steps)


# ---------------------------------------------------------------------------
# Schema mappings

class SchemaMapping(Record):
    __slots__ = {"source": "Schema", "target": "Schema",
                 "on_labels": "dict[str, TypeExpr]", "on_terms": "dict[str, Term]"}


def typecheck_mapping(m: SchemaMapping) -> ValidationReport:
    """Per-label diagnostics: every source label needs a target type and a
    term sending a witness of that type to a transported source value, and
    every entry must name a source label."""
    report = ValidationReport()
    for where, entries in (("onLabels", m.on_labels), ("onTerms", m.on_terms)):
        for label in sorted(entries.keys() - m.source.labels.keys()):
            report.add(label, "", f"{where} entry for a label the source schema does not declare")
    for label in m.source.sorted_labels():
        if label not in m.on_labels:
            report.add(label, "", "no target type given")
            continue
        if label not in m.on_terms:
            report.add(label, "", "no term given")
            continue
        witness_type = m.on_labels[label]
        for name in sorted(labels_in(witness_type)):
            if name not in m.target.labels:
                report.add(label, "", f"target type references undeclared label {name!r}")
        try:
            expected = transport_type(m.on_labels, m.source.labels[label])
        except PreconditionError as err:
            report.add(label, "", str(err))
            continue
        try:
            check_term(m.on_terms[label], expected, {"x": witness_type}, m.target)
        except TermTypeError as err:
            report.add(label, "", str(err))
    return report


# ---------------------------------------------------------------------------
# Witness enumeration and evaluation

def enumerate_values(t: TypeExpr, graph: Graph) -> list[Value]:
    """All values of t over the graph, in a deterministic order.

    Unit contributes one value; a label contributes a reference per element,
    in canonical id order; sums list all left values then all right values;
    products pair left-major.  Primitive types are refused: their domains are
    not finite.
    """
    return _enumerate(t, _refs_by_label(graph, labels_in(t)))


def _refs_by_label(graph: Graph, labels) -> dict[str, list[Ref]]:
    """A Ref to each element of the labels, by label in id order: one sorted pass."""
    groups: dict[str, list[Ref]] = {label: [] for label in labels}
    for e in sorted((e for e, el in graph.elements.items() if el.label in groups), key=render_id):
        groups[graph.elements[e].label].append(Ref(e))
    return groups


def _enumerate(t: TypeExpr, refs: dict[str, list[Ref]]) -> list[Value]:
    """enumerate_values over grouped refs; each factor is enumerated once."""
    if isinstance(t, Prim):
        raise PreconditionError(f"cannot enumerate the primitive type {t.name}")
    if isinstance(t, Zero):
        return []
    if isinstance(t, One):
        return [Unit()]
    if isinstance(t, Lbl):
        return refs[t.name]
    if isinstance(t, Sum):
        return [Inl(v) for v in _enumerate(t.left, refs)] + [
            Inr(v) for v in _enumerate(t.right, refs)
        ]
    left = _enumerate(t.left, refs)
    right = _enumerate(t.right, refs) if left else []  # 0 * String has no values
    return [Pair(a, b) for a in left for b in right]


def compile_term(t: Term, graph: Graph):
    """t as a function of the witness bound to x, compiled once: each form
    is a closure, each variable an index into the tuple of bound values, and
    a fault raises its PreconditionError only when it is reached."""
    go = _compile(t, graph.elements, ("x",))
    return lambda binding: go((binding,))


def eval_term(t: Term, binding: Value, graph: Graph) -> Value:
    """Evaluate a closed-but-for-x term against a witness over a graph."""
    return compile_term(t, graph)(binding)


def _compile(t: Term, elements, scope: tuple):
    """The closure of t over env, the values bound to scope's names in order."""
    if isinstance(t, Var):
        if t.name in scope:
            return itemgetter(len(scope) - 1 - scope[::-1].index(t.name))  # the innermost binding
        return _fault(f"unbound variable {t.name!r}")
    if isinstance(t, (UnitT, Lit)):
        value = Unit() if isinstance(t, UnitT) else PrimVal(t.prim, t.literal)
        return lambda env: value
    if isinstance(t, PairT):
        first, second = _compile(t.first, elements, scope), _compile(t.second, elements, scope)
        return lambda env: Pair(first(env), second(env))
    if isinstance(t, CaseT):
        scrutinee = _compile(t.scrutinee, elements, scope)
        branches = {Inl: _compile(t.left_body, elements, scope + (t.left_name,)),
                    Inr: _compile(t.right_body, elements, scope + (t.right_name,))}

        def case(env):
            v = scrutinee(env)
            branch = branches.get(type(v))
            if branch is None:
                raise PreconditionError("case of a non-injection value")
            return branch(env + (v.inner,))
        return case
    if not isinstance(t, (InlT, InrT, Fst, Snd, Phi)):
        return _fault(f"cannot evaluate {t!r}")
    inner = _compile(t.inner, elements, scope)
    if isinstance(t, (InlT, InrT)):
        make = Inl if isinstance(t, InlT) else Inr
        return lambda env: make(inner(env))
    if isinstance(t, Phi):
        def deref(env):
            v = inner(env)
            if not isinstance(v, Ref):
                raise PreconditionError("phi of a non-reference value")
            if v.element not in elements:
                raise PreconditionError(f"phi dereferences missing element {render_id(v.element)}")
            return elements[v.element].value
        return deref
    word, part = _KEYWORD_OF[type(t)], attrgetter("first" if isinstance(t, Fst) else "second")

    def project(env):
        v = inner(env)
        if not isinstance(v, Pair):
            raise PreconditionError(f"{word} of a non-pair value")
        return part(v)
    return project


def _fault(message: str):
    """The closure of a term that cannot run: it raises when it is reached."""
    def fault(env):
        raise PreconditionError(message)
    return fault


# ---------------------------------------------------------------------------
# Migration

def delta_migrate(m: SchemaMapping, graph: Graph, validate: bool = True) -> Graph:
    """Pull a target graph back through a mapping, yielding a source graph.

    For each source label l and each witness w of its mapped type, the term
    for l, compiled once, runs with x bound to w; at each label position of
    its result, the minting of l's source type (_minting, built once per
    label) puts the element minted for the witness found there.  Each
    witness's Enc id and Ref are made once: the Enc keys the element and
    every reference to it is that Ref.  validate=False skips the check of
    graph, for a caller that has validated it (read_graph does); a fault in
    the term or a result that does not fit its type, which only an invalid
    graph can give, is then reported by the validator, as validate=True
    would report it.
    """
    report = typecheck_mapping(m)
    if not report.ok:
        raise PreconditionError(f"mapping does not typecheck:\n{report}")
    if graph.schema != m.target:
        raise PreconditionError("graph is not on the mapping's target schema")
    if validate:
        _require_valid(graph)
    for label in m.source.sorted_labels():
        if any(isinstance(node, Prim) for node in type_nodes(m.on_labels[label])):
            raise PreconditionError(
                f"mapped type of {label!r} is outside the enumerable fragment: "
                + render_type(m.on_labels[label])
            )

    refs = _refs_by_label(graph, set().union(*map(labels_in, m.on_labels.values())))
    minted = {label: {w: Ref(Enc(label, w)) for w in _enumerate(m.on_labels[label], refs)}
              for label in m.source.sorted_labels()}
    elements = {}
    try:
        for label in m.source.sorted_labels():
            run, mint = compile_term(m.on_terms[label], graph), _minting(m.source.labels[label], minted)
            for w, ref in minted[label].items():
                value = run(w) if mint is None else mint(run(w))
                elements[ref.element] = Element(label, value)
    except (PreconditionError, KeyError, AttributeError, TypeError):
        _require_valid(graph)
        raise
    return Graph(m.source, elements)


def _require_valid(graph: Graph):
    report = validate_graph(graph)
    if not report.ok:
        raise PreconditionError(f"input graph is not valid:\n{report}") from None


def _minting(t: TypeExpr, minted: dict):
    """v with minted[name][x] put at each position x where t holds the label
    name, as a function of v, or None when t is label-free; label-free parts
    are kept as they are.  Only a value that does not fit t makes it raise:
    a KeyError, AttributeError or TypeError."""
    if isinstance(t, Lbl):
        return minted[t.name].__getitem__
    if not isinstance(t, (Sum, Prod)):
        return None
    left, right = _minting(t.left, minted), _minting(t.right, minted)
    if left is None and right is None:
        return None
    left, right = left or _kept, right or _kept
    if isinstance(t, Prod):
        return lambda v: Pair(left(v.first), right(v.second))
    return lambda v: Inl(left(v.inner)) if type(v) is Inl else Inr(right(v.inner))


def _kept(v: Value) -> Value:
    return v
