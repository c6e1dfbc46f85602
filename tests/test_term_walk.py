"""The rewriting functions of migrate, built on one structural walk over term
fields, checked against a reference: the per-form functions they replaced.
Also the compiled evaluator, checked against the interpreter it replaced."""

import itertools
import json
import random

from apg.adt import Atom, Inl, Inr, Pair, PrimVal, Ref, Unit, render_id
from apg.errors import PreconditionError
from apg.migrate import (
    CaseT,
    Fst,
    InlT,
    InrT,
    Lit,
    PairT,
    Phi,
    RewriteLimit,
    Snd,
    UnitT,
    Var,
    eval_term,
    free_vars,
    has_redex,
    normalize_term,
    parse_term,
    render_term,
    substitute,
    term_size,
)

from .generators import random_graph, random_term, random_value, reachable_term_type


def reference_render_term(t):
    if isinstance(t, Var):
        return t.name
    if isinstance(t, UnitT):
        return "()"
    if isinstance(t, PairT):
        return f"({reference_render_term(t.first)}, {reference_render_term(t.second)})"
    if isinstance(t, InlT):
        return f"inl {reference_render_term(t.inner)}"
    if isinstance(t, InrT):
        return f"inr {reference_render_term(t.inner)}"
    if isinstance(t, Fst):
        return f"fst {reference_render_term(t.inner)}"
    if isinstance(t, Snd):
        return f"snd {reference_render_term(t.inner)}"
    if isinstance(t, Phi):
        return f"phi {reference_render_term(t.inner)}"
    if isinstance(t, CaseT):
        return (
            f"case {reference_render_term(t.scrutinee)} of "
            f"{{ inl {t.left_name} -> {reference_render_term(t.left_body)} ; "
            f"inr {t.right_name} -> {reference_render_term(t.right_body)} }}"
        )
    return f"{t.prim} {json.dumps(t.literal)}"


def reference_free_vars(t):
    if isinstance(t, Var):
        return {t.name}
    if isinstance(t, (UnitT, Lit)):
        return set()
    if isinstance(t, PairT):
        return reference_free_vars(t.first) | reference_free_vars(t.second)
    if isinstance(t, (InlT, InrT, Fst, Snd, Phi)):
        return reference_free_vars(t.inner)
    out = reference_free_vars(t.scrutinee)
    out |= reference_free_vars(t.left_body) - {t.left_name}
    out |= reference_free_vars(t.right_body) - {t.right_name}
    return out


def reference_fresh(base, avoid):
    for i in itertools.count(1):
        candidate = f"{base}_{i}"
        if candidate not in avoid:
            return candidate


def reference_substitute(t, name, replacement):
    if isinstance(t, Var):
        return replacement if t.name == name else t
    if isinstance(t, (UnitT, Lit)):
        return t
    if isinstance(t, PairT):
        return PairT(reference_substitute(t.first, name, replacement),
                     reference_substitute(t.second, name, replacement))
    if isinstance(t, (InlT, InrT, Fst, Snd, Phi)):
        return type(t)(reference_substitute(t.inner, name, replacement))
    scrutinee = reference_substitute(t.scrutinee, name, replacement)
    ln, lb = reference_subst_branch(t.left_name, t.left_body, name, replacement)
    rn, rb = reference_subst_branch(t.right_name, t.right_body, name, replacement)
    return CaseT(scrutinee, ln, lb, rn, rb)


def reference_subst_branch(binder, body, name, replacement):
    if binder == name:
        return binder, body
    if binder in reference_free_vars(replacement):
        fresh = reference_fresh(binder, reference_free_vars(replacement) | reference_free_vars(body))
        body = reference_substitute(body, binder, Var(fresh))
        binder = fresh
    return binder, reference_substitute(body, name, replacement)


def reference_reduce_root(t):
    if isinstance(t, Fst) and isinstance(t.inner, PairT):
        return t.inner.first
    if isinstance(t, Snd) and isinstance(t.inner, PairT):
        return t.inner.second
    if isinstance(t, CaseT) and isinstance(t.scrutinee, InlT):
        return reference_substitute(t.left_body, t.left_name, t.scrutinee.inner)
    if isinstance(t, CaseT) and isinstance(t.scrutinee, InrT):
        return reference_substitute(t.right_body, t.right_name, t.scrutinee.inner)
    return None


def reference_has_redex(t):
    if reference_reduce_root(t) is not None:
        return True
    if isinstance(t, PairT):
        return reference_has_redex(t.first) or reference_has_redex(t.second)
    if isinstance(t, (InlT, InrT, Fst, Snd, Phi)):
        return reference_has_redex(t.inner)
    if isinstance(t, CaseT):
        return (reference_has_redex(t.scrutinee) or reference_has_redex(t.left_body)
                or reference_has_redex(t.right_body))
    return False


def reference_term_size(t):
    if isinstance(t, (Var, UnitT, Lit)):
        return 1
    if isinstance(t, PairT):
        return 1 + reference_term_size(t.first) + reference_term_size(t.second)
    if isinstance(t, (InlT, InrT, Fst, Snd, Phi)):
        return 1 + reference_term_size(t.inner)
    return (1 + reference_term_size(t.scrutinee) + reference_term_size(t.left_body)
            + reference_term_size(t.right_body))


def reference_normalize_term(t, step_limit=None):
    steps = 0

    def spend():
        nonlocal steps
        steps += 1
        if step_limit is not None and steps > step_limit:
            raise RewriteLimit(f"no normal form within {step_limit} steps")

    def norm(t):
        if isinstance(t, (Var, UnitT, Lit)):
            return t
        if isinstance(t, PairT):
            t = PairT(norm(t.first), norm(t.second))
        elif isinstance(t, (InlT, InrT, Fst, Snd, Phi)):
            t = type(t)(norm(t.inner))
        elif isinstance(t, CaseT):
            t = CaseT(norm(t.scrutinee), t.left_name, norm(t.left_body), t.right_name,
                      norm(t.right_body))
        reduced = reference_reduce_root(t)
        if reduced is None:
            return t
        spend()
        return norm(reduced)

    return norm(t)


def outcome(normalize, t, step_limit):
    """The normal form, or the message of the RewriteLimit raised instead."""
    try:
        return normalize(t, step_limit)
    except RewriteLimit as err:
        return f"RewriteLimit: {err}"


def random_terms(seed: int, count: int):
    """count well-typed terms over random schemas, with free variable x and
    case binders a and b."""
    rng = random.Random(seed)
    terms = []
    while len(terms) < count:
        schema = random_graph(rng).schema
        x_type = schema.labels[rng.choice(schema.sorted_labels())]
        try:
            wanted = reachable_term_type(rng, x_type, schema, 3)
            terms.append(random_term(rng, wanted, x_type, schema, rng.randrange(0, 7)))
        except ValueError:  # a type the generator cannot fill from x
            continue
    return terms


TERMS = random_terms(13, 600)


def test_walks_match_the_reference_on_random_terms():
    for t in TERMS:
        assert render_term(t) == reference_render_term(t)
        assert free_vars(t) == reference_free_vars(t)
        assert has_redex(t) == reference_has_redex(t)
        assert term_size(t) == reference_term_size(t)


def test_normalization_matches_the_reference_at_limits_around_its_step_count():
    raised = passed = 0
    for t in TERMS:
        steps = next(n for n in itertools.count()  # the fewest steps that reach the normal form
                     if not isinstance(outcome(reference_normalize_term, t, n), str))
        for limit in {None, steps, steps - 1, steps // 2, 0} - {-1}:
            expected = outcome(reference_normalize_term, t, limit)
            assert outcome(normalize_term, t, limit) == expected
            raised += isinstance(expected, str)
            passed += not isinstance(expected, str)
    assert raised > 100 and passed > 500


# Replacements that name a case binder of the random terms (a, b) or the
# fresh names renaming it makes (a_1), so substitution must avoid capture.
REPLACEMENTS = [Var("a"), PairT(Var("a"), Var("b")), Fst(Var("a_1")), InlT(Var("x")), UnitT(),
                CaseT(Var("x"), "a", Var("a"), "b", Var("a_1"))]


def test_substitution_matches_the_reference_fresh_names_included():
    renamed = 0
    for t in TERMS:
        for replacement in REPLACEMENTS:
            for name in ("x", "a"):
                expected = reference_substitute(t, name, replacement)
                assert substitute(t, name, replacement) == expected
                renamed += "inl a_" in reference_render_term(expected)
    assert renamed > 100


def test_substitution_renames_nested_binders_as_the_reference():
    t = parse_term("case x of { inl a -> case a of { inl a_1 -> (a, a_1) ; inr b -> y } ;"
                   " inr b -> (b, y) }")
    for replacement in (Var("a"), PairT(Var("a"), Var("a_1")), Var("b")):
        expected = reference_substitute(t, "y", replacement)
        assert substitute(t, "y", replacement) == expected
    assert render_term(substitute(t, "y", Var("a"))) == (
        "case x of { inl a_1 -> case a_1 of { inl a_1_1 -> (a_1, a_1_1) ; inr b -> a } ;"
        " inr b -> (b, a) }")



# ---------------------------------------------------------------------------
# the compiled evaluator

def reference_eval_term(t, binding, graph):
    """Evaluate a closed-but-for-x term against a witness over a graph."""

    def go(t, env):
        if isinstance(t, Var):
            if t.name not in env:
                raise PreconditionError(f"unbound variable {t.name!r}")
            return env[t.name]
        if isinstance(t, UnitT):
            return Unit()
        if isinstance(t, Lit):
            return PrimVal(t.prim, t.literal)
        if isinstance(t, PairT):
            return Pair(go(t.first, env), go(t.second, env))
        if isinstance(t, InlT):
            return Inl(go(t.inner, env))
        if isinstance(t, InrT):
            return Inr(go(t.inner, env))
        if isinstance(t, Fst):
            inner = go(t.inner, env)
            if not isinstance(inner, Pair):
                raise PreconditionError("fst of a non-pair value")
            return inner.first
        if isinstance(t, Snd):
            inner = go(t.inner, env)
            if not isinstance(inner, Pair):
                raise PreconditionError("snd of a non-pair value")
            return inner.second
        if isinstance(t, Phi):
            inner = go(t.inner, env)
            if not isinstance(inner, Ref):
                raise PreconditionError("phi of a non-reference value")
            if inner.element not in graph.elements:
                raise PreconditionError(
                    f"phi dereferences missing element {render_id(inner.element)}"
                )
            return graph.elements[inner.element].value
        if isinstance(t, CaseT):
            scrutinee = go(t.scrutinee, env)
            if isinstance(scrutinee, Inl):
                return go(t.left_body, {**env, t.left_name: scrutinee.inner})
            if isinstance(scrutinee, Inr):
                return go(t.right_body, {**env, t.right_name: scrutinee.inner})
            raise PreconditionError("case of a non-injection value")
        raise PreconditionError(f"cannot evaluate {t!r}")

    return go(t, {"x": binding})


def untyped_term(rng, depth, bound):
    """A term of any form, typed or not: variables bound by enclosing cases
    (a and b, x again when shadowed) or unbound (y), projections and phi of
    whatever comes, and phi x over references that may dangle."""
    forms = ["var", "var", "unit", "lit"] + ["pair", "inl", "inr", "fst", "snd", "phi",
                                             "case", "case"] * (depth > 0)
    form = rng.choice(forms)
    if form == "var":
        return Var(rng.choice(bound + ["y"] * (rng.random() < 0.1)))
    if form == "unit":
        return UnitT()
    if form == "lit":
        return Lit("Nat", rng.randrange(3))
    if form == "pair":
        return PairT(untyped_term(rng, depth - 1, bound), untyped_term(rng, depth - 1, bound))
    if form == "case":
        left, right = rng.choice(["a", "x"]), rng.choice(["b", "x", "a"])
        return CaseT(untyped_term(rng, depth - 1, bound),
                     left, untyped_term(rng, depth - 1, bound + [left]),
                     right, untyped_term(rng, depth - 1, bound + [right]))
    if form == "phi" and rng.random() < 0.5:
        return Phi(Var(rng.choice(bound)))
    ctor = {"inl": InlT, "inr": InrT, "fst": Fst, "snd": Snd, "phi": Phi}[form]
    return ctor(untyped_term(rng, depth - 1, bound))


def random_binding(rng, graph):
    """A value of some label's type over the graph, or a bare or wrapped
    reference to an element that may be missing."""
    pick = rng.randrange(5)
    if pick == 4 and graph.elements:
        label = graph.elements[rng.choice(list(graph.elements))].label
        return random_value(rng, graph.schema.labels[label], graph)
    ids = list(graph.elements) + [Atom("ghost")]
    ref = Ref(rng.choice(ids))
    return [ref, Inl(ref), Pair(ref, Inr(Ref(rng.choice(ids)))), Unit(), ref][pick]


def evaluated(evaluate, t, binding, graph):
    try:
        return evaluate(t, binding, graph)
    except PreconditionError as err:
        return f"PreconditionError: {err}"


def test_the_compiled_evaluator_matches_the_interpreter_on_random_terms():
    rng = random.Random("compiled terms")
    faults, values = set(), 0
    for i in range(300):
        graph = random_graph(rng)
        if i % 3 == 0:  # a well-typed term, so faults stay rare
            x_type = graph.schema.labels[rng.choice(graph.schema.sorted_labels())]
            try:
                t = random_term(rng, reachable_term_type(rng, x_type, graph.schema, 2), x_type,
                                graph.schema, rng.randrange(4))
                binding = next(random_value(rng, x_type, graph)
                               for el in graph.elements.values()
                               if graph.schema.labels[el.label] == x_type)
            except (ValueError, StopIteration):
                continue
        else:
            t, binding = untyped_term(rng, rng.randrange(1, 6), ["x"]), random_binding(rng, graph)
        expected = evaluated(reference_eval_term, t, binding, graph)
        assert evaluated(eval_term, t, binding, graph) == expected
        if isinstance(expected, str):
            faults.add(expected.split(" of ")[0].split(" element ")[0].split(" '")[0])
        values += not isinstance(expected, str)
    assert values > 150
    # each fault text the interpreter writes, and a non-term where a term belongs
    assert faults == {f"PreconditionError: {text}" for text in (
        "unbound variable", "fst", "snd", "phi", "phi dereferences missing", "case")}
    assert evaluated(eval_term, PairT(UnitT(), "junk"), Unit(), graph) == (
        evaluated(reference_eval_term, PairT(UnitT(), "junk"), Unit(), graph))
