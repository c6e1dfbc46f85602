"""Seeded random schemas, graphs, morphisms, terms, and mutations.

Everything here is driven by an explicit random.Random so failures reproduce.
Random schemas are acyclic (labels only reference earlier labels) and random
graphs give every inhabitable label at least one element, which keeps
reference positions fillable.  The mutation generator produces single edits
that are guaranteed to break validation, for the conformance suite.
"""

from __future__ import annotations

import random
import string

from apg.adt import (
    Atom,
    Class,
    ElementId,
    Enc,
    Inl,
    Inr,
    Lbl,
    Left,
    One,
    Pair,
    PairId,
    Prim,
    PrimVal,
    Prod,
    Ref,
    Right,
    Sum,
    TypeExpr,
    Unit,
    Value,
    Zero,
    render_id,
    transport_type,
    transport_value,
)
from apg.graph import Element, Graph, Schema, validate_graph
from apg.migrate import (
    CaseT,
    Fst,
    InlT,
    InrT,
    Lit,
    PairT,
    Phi,
    SchemaMapping,
    Snd,
    Term,
    UnitT,
    Var,
    typecheck_mapping,
)
from apg.morphism import Morphism, compose

PRIM_NAMES = ("String", "Nat", "Integer", "Double", "Boolean")


def schema_of(types: dict[str, str]) -> Schema:
    from apg.adt import parse_type

    names = set(types)
    registry = Schema({}).registry
    return Schema({l: parse_type(t, names, registry) for l, t in types.items()})


def graph_of(types: dict[str, str], elements: dict[str, tuple[str, Value]]) -> Graph:
    s = schema_of(types)
    return Graph(s, {Atom(e): Element(label, v) for e, (label, v) in elements.items()})


def random_literal(rng: random.Random, name: str):
    if name == "String":
        return "".join(rng.choices(string.ascii_letters + string.digits + " -", k=rng.randrange(0, 8)))
    if name == "Nat":
        return rng.randrange(0, 1000)
    if name == "Integer":
        return rng.randrange(-1000, 1000)
    if name == "Double":
        return rng.choice([0.0, -1.5, 3.25, 37.78, -122.42, 1e6, rng.randrange(-64, 64) / 8])
    return rng.choice([True, False])


def random_type(rng: random.Random, labels: list[str], depth: int, allow_zero: bool = True) -> TypeExpr:
    choices = ["one", "prim"]
    if labels:
        choices += ["lbl", "lbl"]
    if depth > 0:
        choices += ["sum", "prod", "prod"]
    if allow_zero and depth > 0:
        choices.append("zero-sum")
    pick = rng.choice(choices)
    if pick == "one":
        return One()
    if pick == "prim":
        return Prim(rng.choice(PRIM_NAMES))
    if pick == "lbl":
        return Lbl(rng.choice(labels))
    if pick == "sum":
        return Sum(random_type(rng, labels, depth - 1, allow_zero),
                   random_type(rng, labels, depth - 1, allow_zero))
    if pick == "prod":
        return Prod(random_type(rng, labels, depth - 1, allow_zero),
                    random_type(rng, labels, depth - 1, allow_zero))
    # A sum with an uninhabited side still has values on the other side.
    dead = Zero()
    alive = random_type(rng, labels, depth - 1, False)
    return Sum(dead, alive) if rng.random() < 0.5 else Sum(alive, dead)


def _inhabited(t: TypeExpr, counts: dict[str, int]) -> bool:
    if isinstance(t, Zero):
        return False
    if isinstance(t, Lbl):
        return counts.get(t.name, 0) > 0
    if isinstance(t, Sum):
        return _inhabited(t.left, counts) or _inhabited(t.right, counts)
    if isinstance(t, Prod):
        return _inhabited(t.left, counts) and _inhabited(t.right, counts)
    return True


def random_value(rng: random.Random, t: TypeExpr, graph: Graph) -> Value:
    counts = {l: len(graph.ids_of(l)) for l in graph.schema.labels}
    assert _inhabited(t, counts), "caller must pick an inhabited type"

    def go(t: TypeExpr) -> Value:
        if isinstance(t, One):
            return Unit()
        if isinstance(t, Prim):
            return PrimVal(t.name, random_literal(rng, t.name))
        if isinstance(t, Lbl):
            return Ref(rng.choice(graph.ids_of(t.name)))
        if isinstance(t, Prod):
            return Pair(go(t.left), go(t.right))
        sides = []
        if _inhabited(t.left, counts):
            sides.append(lambda: Inl(go(t.left)))
        if _inhabited(t.right, counts):
            sides.append(lambda: Inr(go(t.right)))
        return rng.choice(sides)()

    return go(t)


def random_id(rng: random.Random, depth: int) -> ElementId:
    """An id of every shape, nested up to depth."""
    pick = rng.randrange(0, 6 if depth else 1)
    if pick == 0:
        return Atom("".join(rng.choices("abc123_.-", k=rng.randrange(1, 5))))
    if pick == 1:
        return PairId(random_id(rng, depth - 1), random_id(rng, depth - 1))
    if pick == 2:
        return Left(random_id(rng, depth - 1))
    if pick == 3:
        return Right(random_id(rng, depth - 1))
    if pick == 4:
        return Class(random_id(rng, depth - 1))
    return Enc("lbl", random_witness(rng, depth - 1))


def random_witness(rng: random.Random, depth: int) -> Value:
    """A value of every shape, as the witness of an E: id; its parts and the
    ids it references nest up to depth."""
    pick = rng.randrange(0, 6 if depth else 2)
    if pick == 0:
        return Unit()
    if pick == 1:
        return PrimVal(*rng.choice([("Nat", rng.randrange(9)), ("String", "a)b,c")]))
    if pick == 2:
        return Ref(random_id(rng, depth - 1))
    if pick == 3:
        return Pair(random_witness(rng, depth - 1), random_witness(rng, depth - 1))
    return (Inl if pick == 4 else Inr)(random_witness(rng, depth - 1))


def random_graph(rng: random.Random, max_labels: int = 4, max_elements: int = 8) -> Graph:
    n_labels = rng.randrange(1, max_labels + 1)
    names = [f"l{i}" for i in range(n_labels)]
    labels: dict[str, TypeExpr] = {}
    for i, name in enumerate(names):
        labels[name] = random_type(rng, names[:i], depth=2)
    schema = Schema(labels)
    graph = Graph(schema, {})
    counter = 0
    budget = rng.randrange(n_labels, max_elements + 1)
    for name in names:
        counts = {l: len(graph.ids_of(l)) for l in schema.labels}
        if not _inhabited(labels[name], counts):
            continue
        for _ in range(max(1, rng.randrange(0, 1 + budget // n_labels))):
            value = random_value(rng, labels[name], graph)
            graph.elements[Atom(f"{name}_e{counter}")] = Element(name, value)
            counter += 1
    assert validate_graph(graph).ok
    return graph


def label_free_graph(rng: random.Random) -> Graph:
    """A graph whose declared types mention no labels, as key matching needs."""
    types = {f"l{i}": random_type(rng, [], depth=2, allow_zero=False)
             for i in range(rng.randrange(1, 4))}
    graph = Graph(Schema(types), {})
    for label, t in sorted(types.items()):
        for _ in range(rng.randrange(1, 4)):
            graph.elements[Atom(f"e{len(graph.elements)}")] = Element(label, random_value(rng, t, graph))
    return graph


# ---------------------------------------------------------------------------
# Morphisms

def permutation_morphism(rng: random.Random, graph: Graph) -> Morphism:
    """A label-preserving endomorphism shuffling elements within each label."""
    on_elements = {}
    for label in graph.schema.labels:
        ids = graph.ids_of(label)
        shuffled = ids[:]
        rng.shuffle(shuffled)
        on_elements.update(dict(zip(ids, shuffled)))
    return Morphism(graph, graph, {l: l for l in graph.schema.labels}, on_elements)


def _ref_closure(graph: Graph, seed: set) -> set:
    out = set(seed)
    frontier = list(seed)
    while frontier:
        e = frontier.pop()

        def walk(v: Value):
            if isinstance(v, Ref):
                if v.element not in out:
                    out.add(v.element)
                    frontier.append(v.element)
            elif isinstance(v, Pair):
                walk(v.first)
                walk(v.second)
            elif isinstance(v, (Inl, Inr)):
                walk(v.inner)

        walk(graph.elements[e].value)
    return out


def subgraph_inclusion(rng: random.Random, graph: Graph) -> Morphism:
    """Inclusion of a reference-closed random subgraph, on the same schema."""
    seed = {e for e in graph.elements if rng.random() < 0.5}
    keep = _ref_closure(graph, seed)
    sub = Graph(graph.schema, {e: graph.elements[e] for e in sorted(keep, key=render_id)})
    assert validate_graph(sub).ok
    return Morphism(sub, graph, {l: l for l in graph.schema.labels},
                    {e: e for e in sub.elements})


def renamed_copy(graph: Graph, prefix: str) -> tuple[Graph, Morphism]:
    """A fresh-id copy of the graph and the isomorphism onto it."""
    mapping = {e: Atom(prefix + render_id(e)) for e in graph.elements}
    elements = {}
    for e, el in graph.elements.items():
        value = transport_value(lambda x: Ref(mapping[x]), el.value)
        elements[mapping[e]] = Element(el.label, value)
    copy = Graph(graph.schema, elements)
    iso = Morphism(graph, copy, {l: l for l in graph.schema.labels}, mapping)
    return copy, iso


def parallel_pair(rng: random.Random, graph: Graph) -> tuple[Morphism, Morphism]:
    """Two morphisms A -> graph on the same schema with identity label maps."""
    include = subgraph_inclusion(rng, graph)
    shuffled = compose(permutation_morphism(rng, graph), include)
    return include, shuffled


# ---------------------------------------------------------------------------
# Mutations

def _other_prim(name: str) -> str:
    return "Nat" if name != "Nat" else "String"


def _mutate_value(rng: random.Random, v: Value, graph: Graph):
    """Yield (description, mutated value) candidates for one element's value."""
    if isinstance(v, Ref):
        others = [e for e in graph.elements if e != v.element]
        for target in others:
            yield f"retarget ref to {render_id(target)}", Ref(target)
        yield "retarget ref to a missing element", Ref(Atom("nowhere"))
    elif isinstance(v, Pair):
        yield "swap pair", Pair(v.second, v.first)
        for desc, first in _mutate_value(rng, v.first, graph):
            yield f"{desc} (in fst)", Pair(first, v.second)
        for desc, second in _mutate_value(rng, v.second, graph):
            yield f"{desc} (in snd)", Pair(v.first, second)
    elif isinstance(v, Inl):
        yield "flip injection", Inr(v.inner)
        for desc, inner in _mutate_value(rng, v.inner, graph):
            yield f"{desc} (under inl)", Inl(inner)
    elif isinstance(v, Inr):
        yield "flip injection", Inl(v.inner)
        for desc, inner in _mutate_value(rng, v.inner, graph):
            yield f"{desc} (under inr)", Inr(inner)
    elif isinstance(v, PrimVal):
        yield f"change primitive type of {v.prim}", PrimVal(_other_prim(v.prim), v.literal)


def breaking_mutations(rng: random.Random, graph: Graph, want: int):
    """At least `want` single mutations that each make the graph invalid.

    Candidates come from relabeling an element (to another declared label or
    an undeclared one) and from editing its value (retarget a reference, swap
    a pair, flip an injection, change a primitive's type); each candidate is
    kept only if validation actually rejects it, so inputs whose labels
    happen to be interchangeable don't produce vacuous cases.
    """
    out = []
    described = set()
    ghost = 0
    while len(out) < want:
        for e in graph.sorted_ids():
            el = graph.elements[e]
            candidates = []
            for label in graph.schema.sorted_labels():
                if label != el.label:
                    candidates.append((f"relabel to {label!r}", Element(label, el.value)))
            candidates.append((f"relabel to undeclared Ghost_{ghost}",
                               Element(f"Ghost_{ghost}", el.value)))
            for desc, value in _mutate_value(rng, el.value, graph):
                candidates.append((desc, Element(el.label, value)))
            for desc, mutated in candidates:
                full = f"{render_id(e)}: {desc}"
                if full in described:
                    continue
                elements = dict(graph.elements)
                elements[e] = mutated
                broken = Graph(graph.schema, elements)
                if not validate_graph(broken).ok:
                    described.add(full)
                    out.append((full, e, broken))
        ghost += 1
    return out


# ---------------------------------------------------------------------------
# Terms

def _projection_chains(x_type: TypeExpr):
    """All types reachable from x by fst/snd chains, with builder terms."""
    found: list[tuple[TypeExpr, Term]] = []

    def walk(t: TypeExpr, term: Term):
        found.append((t, term))
        if isinstance(t, Prod):
            walk(t.left, Fst(term))
            walk(t.right, Snd(term))

    walk(x_type, Var("x"))
    return found


def random_term(rng: random.Random, expected: TypeExpr, x_type: TypeExpr,
                schema: Schema, depth: int) -> Term:
    """A term of the expected type with one free variable x : x_type.

    Generation respects the bidirectional discipline: positions that must
    synthesize their type (inside projections, and the branch a case's type
    is read off) never receive an injection, which only checks.  Terms favor
    projection and case wrappers so normalization has actual work to do.
    """
    chains = _projection_chains(x_type)

    def gen(expected: TypeExpr, depth: int, synthesizing: bool = False) -> Term:
        direct = [term for t, term in chains if t == expected]
        options = []
        if direct:
            options += ["direct"] * 2
        if depth > 0:
            options += ["fst-redex", "snd-redex"]
            if any(isinstance(t, Sum) for t, _ in chains):
                options.append("case")
        phi_labels = [
            name
            for t, _ in chains
            if isinstance(t, Lbl)
            for name in [t.name]
            if schema.labels.get(name) == expected
        ]
        if phi_labels:
            options.append("phi")
        if isinstance(expected, (One, Prim, Prod)):
            options += ["intro"] * 2
        elif isinstance(expected, Sum) and not synthesizing:
            options += ["intro"] * 2
        if not options:
            # References cannot be minted and injections cannot synthesize;
            # a chain must supply such positions.
            raise ValueError("expected type unreachable from x")
        pick = rng.choice(options)
        if pick == "direct":
            return rng.choice(direct)
        if pick == "fst-redex":
            return Fst(PairT(gen(expected, depth - 1, True), UnitT()))
        if pick == "snd-redex":
            return Snd(PairT(UnitT(), gen(expected, depth - 1, True)))
        if pick == "case":
            scrutinee = rng.choice(
                [term for t, term in chains if isinstance(t, Sum)]
            )
            return CaseT(scrutinee, "a", gen(expected, depth - 1, synthesizing),
                         "b", gen(expected, depth - 1))
        if pick == "phi":
            chain = rng.choice([term for t, term in chains
                                if isinstance(t, Lbl) and t.name in phi_labels])
            return Phi(chain)
        if isinstance(expected, One):
            return UnitT()
        if isinstance(expected, Prim):
            return Lit(expected.name, random_literal(rng, expected.name))
        if isinstance(expected, Prod):
            return PairT(gen(expected.left, depth - 1, synthesizing),
                         gen(expected.right, depth - 1, synthesizing))
        side = rng.choice(["l", "r"]) if depth > 0 else "l"
        if side == "l":
            return InlT(gen(expected.left, depth - 1))
        return InrT(gen(expected.right, depth - 1))

    return gen(expected, depth)


def reachable_term_type(rng: random.Random, x_type: TypeExpr, schema: Schema,
                        depth: int) -> TypeExpr:
    """A random type every position of which the term generator can fill."""
    reachable_labels = sorted(
        {t.name for t, _ in _projection_chains(x_type) if isinstance(t, Lbl)}
    )

    def gen(depth: int) -> TypeExpr:
        choices = ["one", "prim", "prim"]
        if reachable_labels:
            choices.append("lbl")
        if depth > 0:
            choices += ["sum", "prod", "prod"]
        pick = rng.choice(choices)
        if pick == "one":
            return One()
        if pick == "prim":
            return Prim(rng.choice(PRIM_NAMES))
        if pick == "lbl":
            return Lbl(rng.choice(reachable_labels))
        if pick == "sum":
            return Sum(gen(depth - 1), gen(depth - 1))
        return Prod(gen(depth - 1), gen(depth - 1))

    return gen(depth)


# ---------------------------------------------------------------------------
# Schema mappings

def _witness_type(rng: random.Random, labels: list[str], depth: int) -> TypeExpr:
    """An enumerable type: 0, 1, label references, sums and products."""
    pick = rng.choice(["one", "zero"] + ["lbl"] * 3 * bool(labels) + ["sum", "prod", "prod"] * depth)
    if pick == "one":
        return One()
    if pick == "zero":
        return Zero()
    if pick == "lbl":
        return Lbl(rng.choice(labels))
    ctor = Sum if pick == "sum" else Prod
    return ctor(_witness_type(rng, labels, depth - 1), _witness_type(rng, labels, depth - 1))


def random_mapping(rng: random.Random, target: Graph, max_labels: int = 3) -> SchemaMapping:
    """A typechecking mapping onto the target's schema that delta_migrate can run.

    Source labels reference earlier source labels only; witness types are
    enumerable.  A source type no generated term reaches is drawn again, and
    after a few misses the label falls back to type 1 with the term ().
    """
    names = [f"s{i}" for i in range(rng.randrange(1, max_labels + 1))]
    target_labels = sorted(target.schema.labels)
    labels: dict[str, TypeExpr] = {}
    on_labels: dict[str, TypeExpr] = {}
    on_terms: dict[str, Term] = {}
    for i, name in enumerate(names):
        on_labels[name] = witness = _witness_type(rng, target_labels, rng.randrange(3))
        labels[name], on_terms[name] = One(), UnitT()
        for _ in range(5):
            t = random_type(rng, names[:i], depth=rng.randrange(3))
            expected = transport_type(on_labels, t)
            try:
                on_terms[name] = random_term(rng, expected, witness, target.schema, rng.randrange(3))
            except ValueError:
                continue
            labels[name] = t
            break
    m = SchemaMapping(Schema(labels), target.schema, on_labels, on_terms)
    assert typecheck_mapping(m).ok
    return m
