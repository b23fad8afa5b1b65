"""Exact rewrite-engine tests: pinned identities, algebra laws, regularity."""

import random
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakcr.algebra import (
    GEN_S,
    GEN_SD,
    GEN_T,
    GEN_TD,
    UNBOUNDED,
    BoxExpr,
    GaussRational,
    NCPoly,
    PowerProfile,
    adjoint,
    box_level,
    is_regular,
    multiply,
    normal_order,
    profile_from_membership,
    render,
)
from weakcr.errors import InconsistentOracleError, NonRegularLeafError

S = NCPoly.gen(GEN_S)
T = NCPoly.gen(GEN_T)
Sd = NCPoly.gen(GEN_SD)
Td = NCPoly.gen(GEN_TD)


# --- hypothesis strategies --------------------------------------------------

gens = st.sampled_from((GEN_S, GEN_T, GEN_SD, GEN_TD))
words = st.lists(gens, max_size=6).map(tuple)
small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=8)
coeffs = st.builds(GaussRational, small_fractions, small_fractions)
polys = st.dictionaries(words, coeffs, max_size=4).map(NCPoly)


# --- step-by-step rewriter (reference oracle) --------------------------------


def _reducible_index(word, strategy):
    """Position of an adjacent (S,T) or (S',T') pair, or None if canonical."""
    indices = range(len(word) - 1)
    if strategy == "rightmost":
        indices = reversed(indices)
    for i in indices:
        a, b = word[i], word[i + 1]
        if (a == GEN_S and b == GEN_T) or (a == GEN_SD and b == GEN_TD):
            return i
    return None


def rewrite_oracle(p, strategy="leftmost"):
    """One rule application at a time on a stack: c*(u S T v) becomes
    c*(u T S v) + c*(u v), and c*(u S' T' v) becomes c*(u T' S' v) - c*(u v).
    Exponential in the degree, so for short words only."""
    out = {}
    stack = list(p.terms.items())
    while stack:
        word, coeff = stack.pop()
        i = _reducible_index(word, strategy)
        if i is None:
            new = out.get(word, GaussRational()) + coeff
            if new:
                out[word] = new
            else:
                out.pop(word, None)
            continue
        stack.append((word[:i] + (word[i + 1], word[i]) + word[i + 2 :], coeff))
        stack.append((word[:i] + word[i + 2 :], coeff if word[i] == GEN_S else -coeff))
    return NCPoly(out)


# --- pinned rewrite identities ----------------------------------------------


def test_base_relation():
    assert normal_order(S * T) == T * S + 1


def test_daggered_base_relation():
    assert normal_order(Sd * Td) == Td * Sd - 1


def test_degree_three_identity():
    assert normal_order(S**2 * T) == T * S**2 + 2 * S


def test_degree_four_display():
    assert normal_order(S**2 * T**2) == T**2 * S**2 + 4 * T * S + 2


def test_daggered_degree_three_identity():
    assert normal_order(Sd**2 * Td) == Td * Sd**2 - 2 * Sd


def test_daggered_degree_four_display():
    # the involution image of S^2 T^2 = T^2 S^2 + 4 T S + 2: taking adjoints
    # gives S'^2 T'^2 = T'^2 S'^2 - 4 S' T' - 2, and S' T' = T' S' - 1 turns
    # the right side into T'^2 S'^2 - 4 T' S' + 2
    assert normal_order(Sd**2 * Td**2) == Td**2 * Sd**2 - 4 * Td * Sd + 2


@pytest.mark.parametrize("k", range(1, 11))
def test_general_power_pattern(k):
    assert normal_order(S**k * T) == T * S**k + k * S ** (k - 1)


@pytest.mark.parametrize("k", range(1, 11))
def test_general_power_pattern_daggered(k):
    assert normal_order(Sd**k * Td) == Td * Sd**k - k * Sd ** (k - 1)


def test_swapped_t_and_s_powers():
    # S T^2 = T^2 S + 2 T (the transpose pattern of the S-power identity)
    assert normal_order(S * T**2) == T**2 * S + 2 * T


def test_mixed_family_words_are_inert():
    p = S * Td
    assert normal_order(p) == p
    q = Td * S * Sd * T
    # only the trailing same-family pair is inert here; S Sd and Sd T mix families
    assert normal_order(q) == q


def test_already_canonical_fixed():
    p = T * S + 3 * Td * Sd
    assert normal_order(p) == p


# --- algebra laws ------------------------------------------------------------


@settings(max_examples=60)
@given(polys, polys)
def test_multiply_matches_module_function(p, q):
    assert multiply(p, q) == p * q


@settings(max_examples=40)
@given(polys, polys, polys)
def test_multiply_associative(p, q, r):
    assert (p * q) * r == p * (q * r)


@settings(max_examples=60)
@given(polys)
def test_adjoint_involution(p):
    assert adjoint(adjoint(p)) == p


@settings(max_examples=60)
@given(polys, polys)
def test_adjoint_antihomomorphism(p, q):
    assert adjoint(p * q) == adjoint(q) * adjoint(p)


def test_adjoint_examples():
    assert adjoint(S * T) == Td * Sd
    i = GaussRational(0, 1)
    assert adjoint(S * i) == Sd * GaussRational(0, -1)


@settings(max_examples=60)
@given(polys)
def test_normal_order_idempotent(p):
    q = normal_order(p)
    assert normal_order(q) == q


@settings(max_examples=40)
@given(polys, polys, coeffs, coeffs)
def test_normal_order_linear(p, q, a, b):
    lhs = normal_order(p * a + q * b)
    rhs = normal_order(p) * a + normal_order(q) * b
    assert lhs == rhs


@settings(max_examples=60)
@given(polys)
def test_normal_order_commutes_with_adjoint(p):
    # the daggered rule is the adjoint image of the undaggered one, so
    # rewriting before or after the involution reaches the same canonical form
    assert normal_order(adjoint(p)) == normal_order(adjoint(normal_order(p)))


@settings(max_examples=80)
@given(st.lists(gens, max_size=8).map(tuple))
def test_confluence_two_strategies(word):
    # the step-by-step rewriter reaches the sweep's form in either rewrite order
    p = NCPoly.from_word(word)
    assert normal_order(p) == rewrite_oracle(p, "leftmost") == rewrite_oracle(p, "rightmost")


long_words = st.lists(gens, max_size=8).map(tuple)
long_polys = st.dictionaries(long_words, coeffs, min_size=1, max_size=4).map(NCPoly)


@settings(max_examples=200, deadline=None)
@given(long_polys, st.sampled_from(("leftmost", "rightmost")))
def test_sweep_matches_step_by_step_rewriter(p, strategy):
    assert normal_order(p) == rewrite_oracle(p, strategy)


@pytest.mark.parametrize("k, r", [(20, 20), (15, 25)])
@pytest.mark.parametrize("family, sign", [((GEN_S, GEN_T), 1), ((GEN_SD, GEN_TD), -1)])
def test_block_closed_form(k, r, family, sign):
    s, t = family
    want = NCPoly({
        (t,) * (r - j) + (s,) * (k - j): factorial(j) * comb(k, j) * comb(r, j) * sign**j
        for j in range(min(k, r) + 1)
    })
    p = NCPoly.from_word((s,) * k + (t,) * r)
    assert normal_order(p) == want


def _sympy_words():
    rng = random.Random(0)
    for n in range(11):
        for _ in range(3):
            yield tuple(rng.choice((GEN_S, GEN_T)) for _ in range(n))


@pytest.mark.parametrize("word", list(_sympy_words()), ids=lambda w: "".join(w) or "1")
def test_normal_order_matches_sympy_boson(word):
    sympy = pytest.importorskip("sympy")
    from sympy.physics.quantum import Dagger
    from sympy.physics.quantum.boson import BosonOp
    from sympy.physics.quantum.operatorordering import normal_ordered_form

    a = BosonOp("a")
    op = {GEN_S: a, GEN_T: Dagger(a)}

    def product(w):
        out = sympy.Integer(1)
        for g in w:
            out = out * op[g]
        return out

    ours = sum(
        (sympy.Integer(int(c.re)) * product(w)
         for w, c in normal_order(NCPoly.from_word(word)).terms.items()),
        sympy.Integer(0),
    )
    theirs = normal_ordered_form(product(word), recursive_limit=100)
    assert sympy.expand(theirs - ours) == 0


# --- regularity and profiles --------------------------------------------------


def test_is_regular_after_reduction():
    verdict = is_regular(S**2 * T, PowerProfile((UNBOUNDED, UNBOUNDED)))
    assert verdict.ok and verdict.witness is None


def test_is_regular_mixed_word_witness():
    verdict = is_regular(S * Td, PowerProfile.unbounded())
    assert not verdict.ok
    assert verdict.witness == (GEN_S, GEN_TD)


def test_is_regular_power_bound():
    profile = PowerProfile((3, 2))
    assert is_regular(T * S**2, profile).ok
    verdict = is_regular(T * S**3, profile)
    assert not verdict.ok and verdict.witness == (GEN_T, GEN_S, GEN_S, GEN_S)


def test_is_regular_t_power_bound():
    profile = PowerProfile((2,), n0=0)
    assert is_regular(S**2, profile).ok
    assert not is_regular(T, profile).ok


def test_profile_validation():
    with pytest.raises(ValueError):
        PowerProfile((1, 2))
    with pytest.raises(ValueError):
        PowerProfile(())
    p = PowerProfile((UNBOUNDED, 3, 1))
    assert p.s_bound(0) is UNBOUNDED
    assert p.s_bound(2) == 1
    assert p.s_bound(3) is None
    assert PowerProfile.unbounded().s_bound(10 ** 6) is UNBOUNDED


def test_box_level_leaf_and_flatten():
    profile = PowerProfile.unbounded()
    leaf = BoxExpr.leaf(T * S + 1)
    assert box_level(leaf, profile) == (0, 0, T * S + 1)

    tree = BoxExpr.box(S, T)
    report = box_level(tree, profile)
    assert report.level == 1
    assert report.effective_level == 0  # flattens to T S + 1, regular
    assert normal_order(report.flattened) == T * S + 1


def test_box_level_mixed_not_flattenable():
    profile = PowerProfile.unbounded()
    report = box_level(BoxExpr.box(S, Td), profile)
    assert report.level == 1
    assert report.effective_level == 1


def test_box_level_rejects_non_regular_leaf():
    with pytest.raises(NonRegularLeafError):
        box_level(BoxExpr.leaf(S * Td), PowerProfile.unbounded())


def test_box_depth_nesting():
    inner = BoxExpr.box(S, Td)
    outer = BoxExpr.box(inner, BoxExpr.leaf(T))
    assert outer.depth == 2
    assert BoxExpr.box(T, outer).depth == 3


def test_profile_from_membership_constant_true():
    profile = profile_from_membership(lambda r, k: True, 5)
    assert profile.n0 == 5
    assert profile.m == (5, 5, 5, 5, 5, 5)


def test_profile_from_membership_constant_false():
    profile = profile_from_membership(lambda r, k: False, 5)
    assert profile.n0 == 0
    assert profile.m == (0,)


def test_profile_from_membership_budget_oracle():
    # admit T^r S^k while r + k <= 3
    profile = profile_from_membership(lambda r, k: r + k <= 3, 6)
    assert profile.n0 == 3
    assert profile.m == (3, 2, 1, 0)


def test_profile_from_membership_rejects_non_monotone():
    def member(r, k):
        return k <= 1 if r == 0 else (r <= 2 and k <= 2)

    with pytest.raises(InconsistentOracleError):
        profile_from_membership(member, 6)


# --- matrix evaluation ---------------------------------------------------------


def test_fock_eval_defining_relation():
    import numpy as np

    from weakcr.algebra import fock_eval
    from weakcr.fock import boson_pair

    evaluated = fock_eval(S * T - T * S, boson_pair(8))
    assert np.allclose(evaluated.entries[:7, :7], np.eye(7), atol=1e-14)


def test_fock_eval_respects_adjoint():
    import numpy as np

    from weakcr.algebra import fock_eval
    from weakcr.fock import swanson_pair

    pair = swanson_pair(0.4, 16)
    p = S * T + GaussRational(0, 2) * Td * S - 3 * Sd
    left = fock_eval(adjoint(p), pair).entries
    right = fock_eval(p, pair).entries.conj().T
    assert np.max(np.abs(left - right)) < 1e-12


@pytest.mark.parametrize("p", [S**3 * T**3 + 2 * Sd**2 * Td**2 + S * T, S**2 * T**2 + Sd * Td],
                         ids=["S3T3+2Sd2Td2+ST", "S2T2+SdTd"])
def test_fock_eval_ignores_term_order(p):
    # equal polynomials built with their terms in different orders evaluate
    # to the same bits, in the input and in the canonical form
    from weakcr.algebra import fock_eval
    from weakcr.fock import swanson_pair

    pair = swanson_pair(0.37, 32)
    rng = random.Random(0)
    for poly in (p, normal_order(p)):
        want = fock_eval(poly, pair).entries.tobytes()
        items = list(poly.terms.items())
        for _ in range(40):
            rng.shuffle(items)
            shuffled = NCPoly(dict(items))
            assert shuffled == poly and hash(shuffled) == hash(poly)
            assert fock_eval(shuffled, pair).entries.tobytes() == want


def test_box_expr_adjoint():
    tree = BoxExpr.box(BoxExpr.box(S, T), BoxExpr.leaf(Td))
    flipped = tree.adjoint()
    assert flipped.depth == tree.depth
    assert flipped.flatten() == adjoint(tree.flatten())


# --- rendering ---------------------------------------------------------------


def test_render_golden_lines():
    assert render(normal_order(S * T)) == "T S + 1"
    assert render(normal_order(S**2 * T**2)) == "T^2 S^2 + 4 T S + 2"
    assert render(normal_order(Sd**2 * Td)) == "T' S'^2 - 2 S'"
    assert render(NCPoly.zero()) == "0"
    assert render(NCPoly.one()) == "1"


def test_render_coefficients():
    i = GaussRational(0, 1)
    assert render(S * i) == "i S"
    assert render(S * GaussRational(Fraction(3, 2))) == "3/2 S"
    assert render(S * GaussRational(1, -2)) == "(1-2i) S"
    assert render(-T) == "-T"
    assert render(T - S) == "T - S"


def test_render_order_is_degree_then_rank():
    p = NCPoly.one() + S + T + Sd * Sd
    assert render(p) == "S'^2 + T + S + 1"
