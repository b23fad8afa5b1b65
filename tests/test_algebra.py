"""Exact rewrite-engine tests: pinned identities, algebra laws, regularity."""

import random
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weakcr.algebra import (
    GEN_S,
    GEN_SD,
    GEN_T,
    GEN_TD,
    UNBOUNDED,
    GaussRational,
    NCPoly,
    PowerProfile,
    adjoint,
    is_regular,
    normal_order,
    render,
)
from weakcr.errors import DomainParameterError

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


# --- exact coefficients: ints until a denominator appears ---------------------

mixed_parts = st.one_of(st.integers(-6, 6), small_fractions)
mixed_coeffs = st.builds(GaussRational, mixed_parts, mixed_parts)


def _value(x):
    """A GaussRational's value as a pair of Fractions, the reference type."""
    return Fraction(x.re), Fraction(x.im)


def _assert_exact(x, want):
    assert _value(x) == want
    for part in (x.re, x.im):
        assert type(part) is (int if Fraction(part).denominator == 1 else Fraction)


@settings(max_examples=300, deadline=None)
@given(mixed_coeffs, mixed_coeffs, mixed_parts)
@example(GaussRational(Fraction(1, 2), Fraction(-3, 4)), GaussRational(Fraction(1, 2), Fraction(3, 4)), Fraction(4, 2))
@example(GaussRational(Fraction(2, 3), 1), GaussRational(3, 0), Fraction(3, 2))
def test_gauss_rational_matches_a_fraction_reference(x, y, scalar):
    (a, b), (c, d), s = _value(x), _value(y), Fraction(scalar)
    _assert_exact(x, (a, b))
    _assert_exact(x + y, (a + c, b + d))
    _assert_exact(x - y, (a - c, b - d))
    _assert_exact(x * y, (a * c - b * d, a * d + b * c))
    _assert_exact(-x, (-a, -b))
    _assert_exact(x.conjugate(), (a, -b))
    _assert_exact(scalar + x, (s + a, b))
    _assert_exact(scalar - x, (s - a, -b))
    _assert_exact(scalar * x, (s * a, s * b))
    if c or d:
        den = c * c + d * d
        _assert_exact(x / y, ((a * c + b * d) / den, (b * c - a * d) / den))
    else:
        with pytest.raises(ZeroDivisionError):
            x / y
    if s:
        _assert_exact(x / scalar, (a / s, b / s))
    assert (x == y) == ((a, b) == (c, d))
    assert (x == scalar) == ((a, b) == (s, 0))
    assert hash(x) == hash((a, b))
    assert bool(x) == bool(a or b)
    assert complex(x) == complex(a, b)


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


@pytest.mark.parametrize("k", range(1, 9))
def test_commutator_with_t_power(k):
    # [S, T^k] = k T^(k-1) and [S', T'^k] = -k T'^(k-1), exactly, for every k
    assert normal_order(S * T**k - T**k * S) == k * T ** (k - 1)
    assert normal_order(Sd * Td**k - Td**k * Sd) == -k * Td ** (k - 1)


def _looped_power(base, n):
    out = NCPoly.one()
    for _ in range(n):
        out = out * base
    return out


@pytest.mark.parametrize("n", range(7))
@pytest.mark.parametrize(
    "base",
    [NCPoly({(): GaussRational(Fraction(2, 3), -1)}), GaussRational(0, 3) * S * Td, -2 * Sd**2 * T,
     S + T, NCPoly.zero()],
    ids=["scalar", "single-word", "single-word-squared", "multi-term", "zero"],
)
def test_power_matches_the_looped_product(base, n):
    got = base**n
    want = _looped_power(base, n)
    assert got == want
    for word, coeff in got.terms.items():  # exact parts: ints stay ints
        _assert_exact(coeff, _value(want.terms[word]))


def test_monomial_power_is_formed_as_one_word():
    # one S repeated 20000 times, formed as a single word rather than 20000
    # successive products of growing tuples
    from weakcr.expr import parse_to_poly

    assert parse_to_poly("S^20000") == NCPoly.from_word((GEN_S,) * 20000)
    assert parse_to_poly("(2 S T')^300") == NCPoly.from_word((GEN_S, GEN_TD) * 300, 2**300)


def test_mixed_family_words_are_inert():
    p = S * Td
    assert normal_order(p) == p
    q = Td * S * Sd * T
    # no two adjacent letters here share a family, so there is nothing to rewrite
    assert normal_order(q) == q


@pytest.mark.parametrize("p, want", [
    (Sd * S * T * Td, Sd * T * S * Td + Td * Sd - 1),
    (Sd**2 * S * T * Td**2, Sd**2 * T * S * Td**2 + Td**2 * Sd**2 - 4 * Td * Sd + 2),
    (S * Sd * Td * T, S * Td * Sd * T - T * S - 1),
], ids=["S' S T T'", "S'^2 S T T'^2", "S S' T' T"])
def test_emptied_block_joins_its_neighbours(p, want):
    # the commutator term of the inner block leaves its outer neighbours adjacent,
    # and they rewrite in turn: ordering each block of the input alone misses that
    assert normal_order(p) == want


def test_already_canonical_fixed():
    p = T * S + 3 * Td * Sd
    assert normal_order(p) == p


# --- algebra laws ------------------------------------------------------------


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


@pytest.mark.parametrize("k, r", [(20, 20), (15, 25), (300, 200)])
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


_PROFILES = [PowerProfile.unbounded(), PowerProfile((3, 2)), PowerProfile((2,), n0=0),
             PowerProfile((UNBOUNDED, 2, 1), UNBOUNDED)]


@settings(max_examples=100)
@given(polys)
def test_is_regular_reads_the_canonical_form_once(p):
    # the verdict and witness of a polynomial and of its canonical form agree,
    # whether or not the polynomial was canonical to begin with
    for profile in _PROFILES:
        assert is_regular(p, profile) == is_regular(normal_order(p), profile)


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


def _fock_eval_oracle(p, pair):
    # the per-word loop fock_eval had before it reused prefixes: every word's
    # product from its first letter, and the whole sum checked after each word
    import numpy as np

    from weakcr.algebra import _word_sort_key
    from weakcr.fock import TruncatedOperator

    S_, T_ = pair.S.entries, pair.T.entries
    mats = {GEN_S: S_, GEN_T: T_, GEN_SD: S_.conj().T, GEN_TD: T_.conj().T}
    acc = np.zeros_like(S_)
    with np.errstate(over="ignore", invalid="ignore"):
        for word in sorted(p.terms, key=_word_sort_key, reverse=True):
            m = mats[word[0]] if word else np.eye(pair.dim, dtype=complex)
            for g in word[1:]:
                m = m @ mats[g]
            acc += complex(p.terms[word]) * m
            assert np.isfinite(acc).all()
    return TruncatedOperator(acc)


# words sharing prefixes in every pattern: a stem, its prefixes, its
# extensions, and siblings branching off at every length, the empty word too
stemmed_polys = st.tuples(st.lists(gens, max_size=7).map(tuple),
                          st.lists(st.tuples(st.integers(0, 7), st.lists(gens, max_size=3).map(tuple), mixed_coeffs),
                                   min_size=1, max_size=8))


@settings(max_examples=60, deadline=None)
@given(stemmed_polys)
def test_fock_eval_matches_the_per_word_oracle_bit_for_bit(case):
    from weakcr.algebra import fock_eval
    from weakcr.fock import boson_pair, swanson_pair

    stem, branches = case
    p = NCPoly({stem[:cut] + tail: coeff for cut, tail, coeff in branches})
    for pair in (boson_pair(12), swanson_pair(0.0, 12), swanson_pair(0.37, 12)):
        for poly in (p, normal_order(p)):
            got = fock_eval(poly, pair)
            want = _fock_eval_oracle(poly, pair)
            assert got.entries.tobytes() == want.entries.tobytes()
            assert (got.band.lo, got.band.diagonals.tobytes()) == (want.band.lo, want.band.diagonals.tobytes())


def test_fock_eval_holds_at_most_one_dense_array_more_than_the_oracle():
    # a degree-100 canonical form: 51 words T^r S^r, each sharing its T-run
    # with the next, so one partial product is kept from word to word
    import tracemalloc

    from weakcr.algebra import fock_eval
    from weakcr.fock import swanson_pair

    dim = 128
    pair = swanson_pair(0.37, dim)
    q = normal_order(S**50 * T**50)
    assert q.degree == 100
    peaks = []
    for evaluate in (_fock_eval_oracle, fock_eval):
        tracemalloc.start()
        try:
            evaluate(q, pair)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    oracle, ours = peaks
    assert ours <= oracle + 16 * dim * dim


def _counting_pair(S_entries, T_entries):
    # a stand-in pair whose dense letters count the matrix products formed from them
    import types

    import numpy as np

    from weakcr.fock import TruncatedOperator

    products = []

    class Counted(np.ndarray):
        def __matmul__(self, other):
            products.append(1)
            return super().__matmul__(other)

    def letter(entries):
        op = TruncatedOperator(entries)
        return types.SimpleNamespace(entries=op.entries.view(Counted), band=op.band)

    return types.SimpleNamespace(S=letter(S_entries), T=letter(T_entries), dim=len(S_entries)), products


def test_fock_eval_starts_each_word_from_the_previous_words_prefix():
    # S^6 T^6 = sum_r c_r T^r S^r: T^r S^r starts from the T^(r-1) its
    # predecessor kept and needs r + 1 products (one for T S), 26 in all,
    # where forming each word from its first letter takes 2r - 1, 36 in all
    from weakcr.algebra import fock_eval
    from weakcr.fock import swanson_pair

    real = swanson_pair(0.37, 16)
    pair, products = _counting_pair(real.S.entries, real.T.entries)
    q = normal_order(S**6 * T**6)
    assert fock_eval(q, pair).entries.tobytes() == _fock_eval_oracle(q, real).entries.tobytes()
    assert len(products) == 26
    # four siblings S T x share the partial S T: 2 products, then 1 each
    products.clear()
    p = S * T * (Sd + Td + S + T)
    assert fock_eval(p, pair).entries.tobytes() == _fock_eval_oracle(p, real).entries.tobytes()
    assert len(products) == 5


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "p, word",
    [(S**20, "'S^20'"), (Fraction(1, 10**200) * S**14, "'S^14'"), (S**11 * T**3, "'S^11 T^3'")],
    ids=["unit-coefficient", "tiny-coefficient", "tiny-letter-after"],
)
def test_overflowing_word_stops_at_its_first_non_finite_product(p, word):
    # S has entries 1e30 on a 4 x 4 pair: the product of k copies has entries
    # 4^(k-1) 1e30k, finite up to k = 10 and past the float range at k = 11,
    # so each word fails after 10 products, however many letters it has.  A
    # tiny coefficient or a tiny letter T (entries 1e-200) after the overflow
    # keeps the term's own size small, but not its partial products.
    import numpy as np

    from weakcr.algebra import fock_eval

    pair, products = _counting_pair(np.full((4, 4), 1e30, dtype=complex), np.full((4, 4), 1e-200, dtype=complex))
    with pytest.raises(DomainParameterError, match="float range") as info:
        fock_eval(p, pair)
    assert word in str(info.value) and "dimension 4" in str(info.value)
    assert len(products) == 10


def test_fock_eval_of_mixed_coefficients_matches_a_fraction_reference():
    # the sum, in fock_eval's order, of complex(Fraction re, Fraction im)
    # times each word's matrix product, bit for bit
    import numpy as np

    from weakcr.algebra import fock_eval
    from weakcr.fock import swanson_pair

    pair = swanson_pair(0.37, 16)
    mats = {GEN_S: pair.S.entries, GEN_T: pair.T.entries}
    mats.update({GEN_SD: mats[GEN_S].conj().T, GEN_TD: mats[GEN_T].conj().T})
    rank = {GEN_T: 0, GEN_S: 1, GEN_TD: 2, GEN_SD: 3}
    p = (3 * S**2 * T + GaussRational(Fraction(1, 3), -2) * Td * S
         + GaussRational(Fraction(4, 2), Fraction(1, 7)) * Sd - Fraction(5, 2))
    for poly in (p, normal_order(p)):
        want = np.zeros((16, 16), dtype=complex)
        for word in sorted(poly.terms, key=lambda w: (-len(w), [rank[g] for g in w]), reverse=True):
            m = np.eye(16, dtype=complex)
            for g in word:
                m = m @ mats[g]
            want += complex(*_value(poly.terms[word])) * m
        assert fock_eval(poly, pair).entries.tobytes() == want.tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("p, word", [(10**310 * S, "'S'"), (10**306 * S**3 * T**3, "'S^3 T^3'"),
                                     (GaussRational(1, Fraction(10**400, 3)) * T, "'T'")],
                         ids=["coefficient", "term", "imaginary-part"])
def test_fock_eval_past_the_float_range_names_the_word(p, word):
    from weakcr.algebra import fock_eval
    from weakcr.fock import boson_pair

    with pytest.raises(DomainParameterError, match="float range") as info:
        fock_eval(p, boson_pair(32))
    assert word in str(info.value)


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
