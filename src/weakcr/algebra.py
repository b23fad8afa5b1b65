"""Exact free *-algebra over the generators S, T, S', T'.

Words are tuples of generator tokens and polynomials map words to Gaussian
rational coefficients, so every rewrite identity is decidable by exact
coefficient comparison.  Normal ordering moves T (resp. T') to the left of
S (resp. S') inside each same-family block, as the relations

    S T  =  T S + 1           S' T'  =  T' S' - 1

dictate.  It sweeps each word one letter at a time and keeps the canonical
form of what it has read as an exact {word: int} map, merging like terms as
it goes.  One letter costs one application of the boson identity
T^r S^k T = T^(r+1) S^k + k T^r S^(k-1) (-k for the primed family) per live
term, so a word costs O(letters * live terms), not the exponential number
of paths a step-by-step rewriter follows.

Adjacent generators from *different* families carry no relation and are left
in place.  Canonical words therefore consist of maximal blocks of the form
T^r S^k (or T'^r S'^k) separated by family changes; mixed words survive
verbatim, which is what keeps them out of the regular part.

A polynomial's term order carries no meaning: equality and hashing ignore
it, and the only outputs that need an order, the rendered text and
``fock_eval``'s floating-point sum, both sort the words by one key.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from .errors import InconsistentOracleError, NonRegularLeafError

GEN_S = "S"
GEN_T = "T"
GEN_SD = "S'"
GEN_TD = "T'"

GENERATORS = (GEN_T, GEN_S, GEN_TD, GEN_SD)

DAGGER = {GEN_S: GEN_SD, GEN_SD: GEN_S, GEN_T: GEN_TD, GEN_TD: GEN_T}

#: rendering / canonical-ordering rank: T < S < T' < S'
_RANK = {GEN_T: 0, GEN_S: 1, GEN_TD: 2, GEN_SD: 3}

_UNDAGGERED = frozenset((GEN_S, GEN_T))
_DAGGERED = frozenset((GEN_SD, GEN_TD))

#: marker for an unbounded power-profile entry
UNBOUNDED = math.inf

Word = tuple  # tuple of generator tokens


class GaussRational:
    """Complex scalar a + b*i with exact rational a, b."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    @classmethod
    def coerce(cls, value):
        if isinstance(value, GaussRational):
            return value
        if isinstance(value, complex):
            return cls(Fraction(value.real), Fraction(value.imag))
        return cls(value)

    @classmethod
    def _try_coerce(cls, value):
        if isinstance(value, (GaussRational, int, Fraction, float, complex)):
            return cls.coerce(value)
        return None

    def __add__(self, other):
        other = GaussRational._try_coerce(other)
        if other is None:
            return NotImplemented
        return GaussRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = GaussRational._try_coerce(other)
        if other is None:
            return NotImplemented
        return GaussRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = GaussRational._try_coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = GaussRational._try_coerce(other)
        if other is None:
            return NotImplemented
        return GaussRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = GaussRational.coerce(other)
        den = other.re * other.re + other.im * other.im
        if den == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussRational(
            (self.re * other.re + self.im * other.im) / den,
            (self.im * other.re - self.re * other.im) / den,
        )

    def __neg__(self):
        return GaussRational(-self.re, -self.im)

    def conjugate(self):
        return GaussRational(self.re, -self.im)

    def __eq__(self, other):
        try:
            other = GaussRational.coerce(other)
        except (TypeError, ValueError):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"GaussRational({self.re!r}, {self.im!r})"


_ZERO = GaussRational()
_ONE = GaussRational(1)


class NCPoly:
    """Noncommutative polynomial: finite map word -> nonzero GaussRational."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        canonical = {}
        if terms:
            for word, coeff in terms.items():
                coeff = GaussRational.coerce(coeff)
                if coeff:
                    canonical[tuple(word)] = coeff
        self.terms = canonical

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({(): _ONE})

    @classmethod
    def gen(cls, name):
        if name not in _RANK:
            raise ValueError(f"unknown generator {name!r}")
        return cls({(name,): _ONE})

    @classmethod
    def from_word(cls, word, coeff=1):
        return cls({tuple(word): GaussRational.coerce(coeff)})

    def coefficient(self, word):
        return self.terms.get(tuple(word), GaussRational())

    @property
    def degree(self):
        return max((len(w) for w in self.terms), default=0)

    def is_zero(self):
        return not self.terms

    def is_scalar(self):
        return all(len(w) == 0 for w in self.terms)

    def __add__(self, other):
        return _collect(_as_poly(other).terms.items(), dict(self.terms))

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-_as_poly(other))

    def __rsub__(self, other):
        return _as_poly(other) + (-self)

    def __neg__(self):
        result = NCPoly.__new__(NCPoly)
        result.terms = {w: -c for w, c in self.terms.items()}
        return result

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussRational, complex)):
            scalar = GaussRational.coerce(other)
            return NCPoly({w: c * scalar for w, c in self.terms.items()})
        other = _as_poly(other)
        return _collect(
            (w1 + w2, c1 * c2) for w1, c1 in self.terms.items() for w2, c2 in other.terms.items()
        )

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, GaussRational, complex)):
            return self * other
        return _as_poly(other) * self

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = NCPoly.one()
        for _ in range(n):
            out = out * self
        return out

    def adjoint(self):
        """Reverse each word, dagger each generator, conjugate coefficients."""
        return NCPoly(
            {
                tuple(DAGGER[g] for g in reversed(word)): coeff.conjugate()
                for word, coeff in self.terms.items()
            }
        )

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussRational, complex)):
            other = _as_poly(other)
        if not isinstance(other, NCPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return f"NCPoly<{render(self)}>"


def _collect(pairs, out=None):
    """The NCPoly summing (word, coefficient) pairs into ``out``: like terms
    merged, words whose sum is zero dropped."""
    out = {} if out is None else out
    for word, coeff in pairs:
        new = out.get(word, _ZERO) + coeff
        if new:
            out[word] = new
        else:
            out.pop(word, None)
    result = NCPoly.__new__(NCPoly)
    result.terms = out
    return result


def _as_poly(value):
    if isinstance(value, NCPoly):
        return value
    if isinstance(value, (int, Fraction, GaussRational, complex)):
        coeff = GaussRational.coerce(value)
        return NCPoly({(): coeff}) if coeff else NCPoly()
    raise TypeError(f"cannot interpret {value!r} as a polynomial")


def multiply(p, q):
    """Free-algebra product (bilinear extension of word concatenation)."""
    return _as_poly(p) * _as_poly(q)


def adjoint(p):
    """Involution: adjoint(p*q) = adjoint(q)*adjoint(p), exact coefficients."""
    return _as_poly(p).adjoint()


#: the letter T (resp. T') is reordered past, and the sign of that commutator
_PARTNER = {GEN_T: (GEN_S, 1), GEN_TD: (GEN_SD, -1)}


def _times_letter(state, g):
    """Canonical ``state * g``, by T^r S^k T = T^(r+1) S^k + sign*k T^r S^(k-1).

    Only the trailing S-run of g's family matters; an S is appended, and
    so is a T that finds no S of its family at the end.
    """
    if g not in _PARTNER:
        return {w + (g,): n for w, n in state.items()}
    s, sign = _PARTNER[g]
    out = {}
    for w, n in state.items():
        i = len(w)
        while i and w[i - 1] == s:
            i -= 1
        if i < len(w):
            word = w[:-1]
            out[word] = out.get(word, 0) + sign * (len(w) - i) * n
        word = w[:i] + (g,) + w[i:]
        out[word] = out.get(word, 0) + n
    return out


def normal_order(p):
    """Rewrite to canonical form: T left of S within each same-family block.

    Each word is read left to right, keeping the canonical form of the part
    read so far as an exact {word: int} map with like terms merged, and
    multiplying it on the right by the next letter with
    T^r S^k T = T^(r+1) S^k + k T^r S^(k-1) (-k for the primed family); a
    letter of the other family is simply adjoined.  Summed over a block this
    is the boson normal-ordering identity
    S^k T^r = sum_j j! C(k,j) C(r,j) (+-1)^j T^(r-j) S^(k-j).  A word costs
    O(letters * live terms) dict updates; each output word then takes one
    coefficient multiply.  The canonical form is unique, so the result does
    not depend on the order of the input terms, and its own term order
    carries no meaning.
    """
    p = _as_poly(p)
    return _collect((w, coeff * n) for word, coeff in p.terms.items() for w, n in _sweep(word).items())


def _sweep(word):
    """Canonical form of one word as an exact {word: int} map."""
    state = {(): 1}
    for g in word:
        state = _times_letter(state, g)
    return state


# ---------------------------------------------------------------------------
# power profiles and the regular part
# ---------------------------------------------------------------------------


class PowerProfile:
    """Admissible powers: at T-power r the S-power may reach m[r].

    ``m`` must be nonincreasing (m0 >= m1 >= ...); entries may be the
    UNBOUNDED marker.  ``n0`` is the largest admissible T-power; it defaults
    to len(m) - 1 and may itself be UNBOUNDED, in which case the last entry
    of ``m`` extends to every larger r.
    """

    __slots__ = ("n0", "m")

    def __init__(self, m, n0=None):
        m = tuple(m)
        if not m:
            raise ValueError("profile needs at least one entry")
        for entry in m:
            if entry is not UNBOUNDED and (not isinstance(entry, int) or entry < 0):
                raise ValueError(f"profile entry {entry!r} must be a nonnegative int or UNBOUNDED")
        for a, b in zip(m, m[1:]):
            if b > a:
                raise ValueError(f"profile must be nonincreasing, got {m}")
        if n0 is None:
            n0 = len(m) - 1
        if n0 is not UNBOUNDED and (not isinstance(n0, int) or n0 < len(m) - 1):
            raise ValueError("n0 must cover the listed entries or be UNBOUNDED")
        self.m = m
        self.n0 = n0

    @classmethod
    def unbounded(cls):
        return cls((UNBOUNDED,), UNBOUNDED)

    def s_bound(self, r):
        """Largest admissible S-power at T-power r (entries extend by the last one)."""
        if r > self.n0:
            return None
        return self.m[min(r, len(self.m) - 1)]

    def __eq__(self, other):
        if not isinstance(other, PowerProfile):
            return NotImplemented
        return self.m == other.m and self.n0 == other.n0

    def __repr__(self):
        return f"PowerProfile({self.m!r}, n0={self.n0!r})"


class Regularity(NamedTuple):
    ok: bool
    witness: tuple | None


def _word_violation(word, profile):
    """Reason a canonical word falls outside the regular part, or None."""
    letters = set(word)
    if letters <= _UNDAGGERED:
        t_tok, s_tok = GEN_T, GEN_S
    elif letters <= _DAGGERED:
        t_tok, s_tok = GEN_TD, GEN_SD
    else:
        return "mixed"
    r = 0
    while r < len(word) and word[r] == t_tok:
        r += 1
    k = len(word) - r
    if any(g != s_tok for g in word[r:]):
        return "non-canonical"
    bound = profile.s_bound(r)
    if bound is None:
        return "t-power"
    if k > bound:
        return "s-power"
    return None


def is_regular(p, profile):
    """Membership test against a power profile, on the canonical form.

    A polynomial is regular when every canonical word is a same-family block
    T^r S^k (or T'^r S'^k) with r <= n0 and k <= m[r].  Returns the first
    violating word as witness otherwise.
    """
    q = normal_order(p)
    for word in sorted(q.terms, key=_word_sort_key):
        if _word_violation(word, profile) is not None:
            return Regularity(False, word)
    return Regularity(True, None)


# ---------------------------------------------------------------------------
# box-product trees (the partial-product filtration)
# ---------------------------------------------------------------------------


class BoxExpr:
    """Binary tree whose leaves are polynomials and whose nodes are box products."""

    __slots__ = ("poly", "left", "right")

    def __init__(self, poly=None, left=None, right=None):
        if (poly is None) == (left is None or right is None):
            raise ValueError("a BoxExpr is either a leaf or has two children")
        self.poly = poly
        self.left = left
        self.right = right

    @classmethod
    def leaf(cls, poly):
        return cls(poly=_as_poly(poly))

    @classmethod
    def box(cls, left, right):
        if not isinstance(left, BoxExpr):
            left = cls.leaf(left)
        if not isinstance(right, BoxExpr):
            right = cls.leaf(right)
        return cls(left=left, right=right)

    @property
    def is_leaf(self):
        return self.poly is not None

    @property
    def depth(self):
        if self.is_leaf:
            return 0
        return 1 + max(self.left.depth, self.right.depth)

    def leaves(self):
        if self.is_leaf:
            yield self.poly
        else:
            yield from self.left.leaves()
            yield from self.right.leaves()

    def flatten(self):
        """Free product of all leaves, left to right."""
        out = NCPoly.one()
        for leaf in self.leaves():
            out = out * leaf
        return out

    def adjoint(self):
        if self.is_leaf:
            return BoxExpr.leaf(self.poly.adjoint())
        return BoxExpr(left=self.right.adjoint(), right=self.left.adjoint())


class BoxLevelReport(NamedTuple):
    level: int
    effective_level: int
    flattened: NCPoly


def box_level(expr, profile):
    """Filtration level of a box tree, with a flattening attempt.

    The structural level is the tree depth.  When the flattened free product
    of the leaves is itself regular, the element already lies at level 0 and
    the report says so via ``effective_level``.
    """
    for leaf in expr.leaves():
        verdict = is_regular(leaf, profile)
        if not verdict.ok:
            raise NonRegularLeafError(
                f"box leaf contains non-regular word {format_word(verdict.witness)!r}"
            )
    level = expr.depth
    flattened = expr.flatten()
    effective = 0 if is_regular(flattened, profile).ok else level
    return BoxLevelReport(level, effective, flattened)


def profile_from_membership(member: Callable[[int, int], bool], degree_cap: int):
    """Build a power profile from a domain-membership oracle.

    ``member(r, k)`` decides whether the domain condition for the canonical
    monomial T^r S^k holds.  m[r] is the largest k <= degree_cap accepted at
    T-power r (0 when none is), for r up to the largest accepted T-power.
    A non-monotone oracle is rejected.
    """
    if degree_cap < 0:
        raise ValueError("degree_cap must be nonnegative")
    n0 = 0
    for r in range(degree_cap, -1, -1):
        if member(r, 0):
            n0 = r
            break
    m = []
    for r in range(n0 + 1):
        best = 0
        for k in range(degree_cap, -1, -1):
            if member(r, k):
                best = k
                break
        m.append(best)
    for a, b in zip(m, m[1:]):
        if b > a:
            raise InconsistentOracleError(f"oracle produced non-monotone profile {m}")
    return PowerProfile(tuple(m), n0)


# ---------------------------------------------------------------------------
# numerical evaluation in a truncated matrix model
# ---------------------------------------------------------------------------


def fock_eval(p, pair):
    """Substitute the pair's dense matrices for the generators and evaluate.

    S' and T' are the conjugate transposes of the matrices of S and T.
    Coefficients drop to double precision here and only here.  The words are
    summed in one fixed order, the reverse of the rendered one (lowest degree
    first), so the floating-point result depends on the polynomial alone and
    not on the order in which its terms were built.
    """
    from .fock import TruncatedOperator

    p = _as_poly(p)
    S, T = pair.S.entries, pair.T.entries
    mats = {GEN_S: S, GEN_T: T, GEN_SD: S.conj().T, GEN_TD: T.conj().T}
    acc = np.zeros_like(S)
    for word in sorted(p.terms, key=_word_sort_key, reverse=True):
        coeff = p.terms[word]
        m = mats[word[0]] if word else np.eye(pair.dim, dtype=complex)
        for g in word[1:]:
            m = m @ mats[g]
        acc += complex(coeff) * m
    return TruncatedOperator(acc)


# ---------------------------------------------------------------------------
# canonical text rendering
# ---------------------------------------------------------------------------


def _word_sort_key(word):
    return (-len(word), tuple(_RANK[g] for g in word))


def format_word(word):
    """Render a word with powers collapsed: (T,T,S) -> 'T^2 S'."""
    if not word:
        return "1"
    pieces = []
    i = 0
    while i < len(word):
        j = i
        while j < len(word) and word[j] == word[i]:
            j += 1
        run = j - i
        pieces.append(word[i] if run == 1 else f"{word[i]}^{run}")
        i = j
    return " ".join(pieces)


def _format_magnitude(c):
    """Text for a coefficient already known to lead with a positive part."""
    re, im = c.re, c.im
    if im == 0:
        return str(re)
    if re == 0:
        if im == 1:
            return "i"
        if im == -1:
            return "-i"
        return f"{im}i"
    sign = "+" if im > 0 else "-"
    mag = abs(im)
    imtxt = "i" if mag == 1 else f"{mag}i"
    return f"({re}{sign}{imtxt})"


def _leading_negative(c):
    return c.re < 0 or (c.re == 0 and c.im < 0)


def render(p):
    """Deterministic canonical text: degree-descending, then T < S < T' < S'.

    The output re-parses to the same polynomial, e.g. 'T^2 S^2 + 4 T S + 2'.
    """
    p = _as_poly(p)
    if not p.terms:
        return "0"
    pieces = []
    for word in sorted(p.terms, key=_word_sort_key):
        coeff = p.terms[word]
        negative = _leading_negative(coeff)
        if negative:
            coeff = -coeff
        text = _format_magnitude(coeff)
        if word:
            wtext = format_word(word)
            term = wtext if text == "1" else f"{text} {wtext}"
        else:
            term = text
        if not pieces:
            pieces.append(f"-{term}" if negative else term)
        else:
            pieces.append(f"- {term}" if negative else f"+ {term}")
    return " ".join(pieces)
