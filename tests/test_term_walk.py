"""The rewriting functions of migrate, built on one structural walk over term
fields, checked against a reference: the per-form functions they replaced."""

import itertools
import json
import random

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
    free_vars,
    has_redex,
    normalize_term,
    parse_term,
    render_term,
    substitute,
    term_size,
)

from .generators import random_graph, random_term, reachable_term_type


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

