"""Exact free *-algebra over the generators S, T, S', T'.

Words are tuples of generator tokens and polynomials map words to Gaussian
rational coefficients, so every rewrite identity is decidable by exact
coefficient comparison.  A coefficient's parts are Python ints while they
are integral, as nearly all are, and Fractions only where a denominator
remains.  Normal ordering moves T (resp. T') to the left of
S (resp. S') inside each same-family block, as the relations

    S T  =  T S + 1           S' T'  =  T' S' - 1

dictate.  ``normal_order`` reads each word one maximal run of equal letters
at a time through the boson block identity, so S^n T^n costs O(n^2), not the
exponential number of paths a step-by-step rewriter follows.

Adjacent generators from *different* families carry no relation and are left
in place.  Canonical words therefore consist of maximal blocks of the form
T^r S^k (or T'^r S'^k) separated by family changes; mixed words survive
verbatim, which is what keeps them out of the regular part.

``probe_mismatches`` checks a rewrite exactly: it compares both sides, mod a
prime, on random vectors under Bargmann's integer form of a and a*, for the
boson pair and a seeded deformed pair.  ``fock_eval`` evaluates a polynomial
in a truncated float matrix model instead.

A polynomial's term order carries no meaning: equality and hashing ignore
it, and the only outputs that need an order, the rendered text and
``fock_eval``'s floating-point sum, both sort the words by one key.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from itertools import groupby
from typing import NamedTuple

import numpy as np

from .errors import DomainParameterError

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


def _exact(x):
    """x as an exact rational: an int when its value is integral, else a Fraction."""
    if type(x) is int:
        return x
    x = x if isinstance(x, Fraction) else Fraction(x)
    return x.numerator if x.denominator == 1 else x


class GaussRational:
    """Complex scalar a + b*i with exact rational a, b.

    Each part is a Python int while its value is integral and a Fraction
    only once a denominator remains, so the integer coefficients that normal
    ordering produces never pay for Fraction arithmetic.  An int and the
    Fraction of the same value are equal, hash alike, print alike and
    convert to the same float, so the choice is invisible outside this class.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _exact(re)
        self.im = _exact(im)

    @classmethod
    def coerce(cls, value):
        if isinstance(value, GaussRational):
            return value
        if isinstance(value, complex):
            return cls(Fraction(value.real), Fraction(value.imag))
        return cls(value)

    @classmethod
    def _try_coerce(cls, value):
        if isinstance(value, GaussRational):
            return value
        if isinstance(value, (int, Fraction, float, complex)):
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
        return GaussRational(  # through Fraction: int / int would give a float
            Fraction(self.re * other.re + self.im * other.im, den),
            Fraction(self.im * other.re - self.re * other.im, den),
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
        if len(self.terms) == 1:  # (c w)^n = c^n w^n, with c^n by squaring
            ((word, coeff),) = self.terms.items()
            power, base, e = _ONE, coeff, n
            while e:
                if e & 1:
                    power = power * base
                e >>= 1
                if e:
                    base = base * base
            return NCPoly.from_word(word * n, power)
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


def adjoint(p):
    """Involution: adjoint(p*q) = adjoint(q)*adjoint(p), exact coefficients."""
    return _as_poly(p).adjoint()


#: the run T^m (resp. T'^m) is reordered past, and the sign of that commutator
_PARTNER = {GEN_T: (GEN_S, 1), GEN_TD: (GEN_SD, -1)}


def normal_order(p):
    """Rewrite to canonical form: T left of S within each same-family block.

    Each word is read left to right one maximal run at a time, keeping the
    canonical form of the part read so far as an exact {word: int} map with
    like terms merged.  A run T^m (or T'^m) meets each term's trailing S^k
    (or S'^k) through the boson identity
    S^k T^m = sum_j j! C(k,j) C(m,j) (+-1)^j T^(m-j) S^(k-j); any other run
    is appended whole.  The state stays canonical, so a block that a
    commutator term empties lets its neighbours meet:
    S' S T T' = S' T S T' + T' S' - 1.  Per run and live term, each key costs
    O(word length), so S^n T^n is quadratic in n.  The canonical form is
    unique, so the result does not depend on the order of the input terms,
    and its own term order carries no meaning.
    """
    p = _as_poly(p)
    return _collect((w, coeff * n) for word, coeff in p.terms.items() for w, n in _sweep(word).items())


def _sweep(word):
    """Canonical form of one word as an exact {word: int} map."""
    state = {(): 1}
    for g, run in groupby(word):
        run = tuple(run)
        if g not in _PARTNER:
            state = {w + run: n for w, n in state.items()}
            continue
        s, sign = _PARTNER[g]
        m = len(run)
        out = {}
        for w, n in state.items():
            i = len(w)
            while i and w[i - 1] == s:
                i -= 1
            if i == len(w):  # no S to pass: the run is appended whole
                out[w + run] = out.get(w + run, 0) + n
                continue
            k, c = len(w) - i, n
            for j in range(min(k, m) + 1):  # c = n j! C(k,j) C(m,j) sign^j
                key = w[:i] + run[j:] + w[i + j:]
                out[key] = out.get(key, 0) + c
                c = sign * c * (k - j) * (m - j) // (j + 1)
        state = out
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


#: the adjacent pairs normal ordering rewrites; a word without them is canonical
_REWRITTEN = frozenset(((GEN_S, GEN_T), (GEN_SD, GEN_TD)))


def _is_canonical(word):
    return _REWRITTEN.isdisjoint(zip(word, word[1:]))


def _word_is_regular(word, profile):
    """A canonical word, T^r S^k or T'^r S'^k, lies in the profile's regular part."""
    letters = set(word)
    if letters <= _UNDAGGERED:
        t_tok = GEN_T
    elif letters <= _DAGGERED:
        t_tok = GEN_TD
    else:  # mixed families are never regular
        return False
    r = word.count(t_tok)  # canonical, so every T leads
    bound = profile.s_bound(r)
    return bound is not None and len(word) - r <= bound


def is_regular(p, profile):
    """Membership test against a power profile, on the canonical form.

    A polynomial is regular when every canonical word is a same-family block
    T^r S^k (or T'^r S'^k) with r <= n0 and k <= m[r].  Returns the first
    violating word as witness otherwise.  A polynomial whose words are all
    canonical already is its own canonical form and is not rewritten again.
    """
    q = _as_poly(p)
    if not all(_is_canonical(word) for word in q.terms):
        q = normal_order(q)
    for word in sorted(q.terms, key=_word_sort_key):
        if not _word_is_regular(word, profile):
            return Regularity(False, word)
    return Regularity(True, None)


# ---------------------------------------------------------------------------
# exact probe check of a rewrite
# ---------------------------------------------------------------------------


#: the largest prime below 2^31 that is 5 mod 8: 2 is no square mod it, so
#: 2^((p-1)/4) is a square root of -1, and a sum of two products of residues fits in int64
PROBE_PRIME = 2147483629
_PROBE_I = pow(2, (PROBE_PRIME - 1) // 4, PROBE_PRIME)


def probe_mismatches(p, q, rng):
    """How many of two exact probes tell p and q apart as operators; 0 when p = q.

    In Bargmann's coordinates r_m = x_m / sqrt(m!) (Comm. Pure Appl. Math.
    14, 1961), a and a* are integer maps: (a r)_m = (m+1) r_(m+1) and
    (a* r)_m = r_(m-1).  With c^2 + s^2 = 1 the letters

        S = c a + i s a*    T = c a* + i s a    S' = c a* - i s a    T' = c a - i s a*

    satisfy S T - T S = 1 and S' T' - T' S' = -1.  One probe takes the boson
    pair (c, s) = (1, 0), on which S' = T; the other the point
    ((u^2 - v^2), 2uv) / (u^2 + v^2) of the circle, u and v drawn mod
    p = PROBE_PRIME with u^2 + v^2 nonzero.  Each compares y^T p x with
    y^T q x mod p, x drawn on the first D + 1 indices and y on 2D + 1, D the
    degree: no word reaches the end of the vectors, so the model is exact,
    and polynomials equal under the relations never disagree.  Nor can a
    difference hide outside x's support: a nonzero a*^j a^k of degree at most
    D shows on e_k, k <= D (on 32 indices, say, a^32 would vanish).  So a
    difference that is nonzero as an operator on either pair passes both
    probes with probability about (2D + 2) / p at most (Schwartz-Zippel; x
    and y enter with degree 2, u and v with 2D).  Words apply right to left,
    in an order where words sharing a suffix share its partial vectors.  A
    coefficient whose denominator p divides raises ``DomainParameterError``.
    """
    p, q = _as_poly(p), _as_poly(q)
    mod = PROBE_PRIME
    diff = {}  # reversed word -> residue of its coefficient in p - q
    for poly, sign in ((p, 1), (q, -1)):
        for word, coeff in poly.terms.items():
            rev = word[::-1]
            diff[rev] = (diff.get(rev, 0) + sign * _residue(word, coeff)) % mod
    words = sorted(w for w, r in diff.items() if r)
    support = max(p.degree, q.degree) + 1
    n = 2 * support - 1
    u = v = 0
    while not (u * u + v * v) % mod:
        u, v = (int(t) for t in rng.integers(0, mod, 2))
    norm = pow(u * u + v * v, -1, mod)
    steps = np.arange(1, n + 1)
    mismatches = 0
    for c, s in ((1, 0), ((u * u - v * v) * norm % mod, 2 * u * v * norm % mod)):
        i_s = _PROBE_I * s % mod
        # each letter as its a-coefficient times (m+1), and its a*-coefficient
        letters = {g: (alpha * steps % mod, beta) for g, (alpha, beta) in (
            (GEN_S, (c, i_s)), (GEN_T, (i_s, c)), (GEN_SD, (-i_s % mod, c)), (GEN_TD, (c, -i_s % mod)))}
        x = np.zeros(n, dtype=np.int64)
        x[:support] = rng.integers(0, mod, support)
        y = rng.integers(0, mod, n)
        stack, prev, total = [x], (), 0  # stack[k]: x after the first k letters of prev
        for word in words:
            del stack[_common_prefix(prev, word) + 1:]
            for g in word[len(stack) - 1:]:
                weights, beta = letters[g]
                r, out = stack[-1], np.zeros(n, dtype=np.int64)
                out[:-1] = weights[:-1] * r[1:]
                out[1:] += beta * r[:-1]
                stack.append(out % mod)
            total += diff[word] * int((y * stack[-1] % mod).sum())
            prev = word
        mismatches += total % mod != 0
    return mismatches


def _residue(word, coeff):
    """The coefficient of ``word`` mod PROBE_PRIME, i read as its square root of -1."""
    try:
        re, im = (x.numerator * pow(x.denominator, -1, PROBE_PRIME) for x in (coeff.re, coeff.im))
    except ValueError:  # no inverse: the prime divides the denominator
        raise DomainParameterError(
            f"the coefficient of {format_word(word)!r} has a denominator divisible by {PROBE_PRIME}, "
            "the prime of the exact check"
        ) from None
    return (re + _PROBE_I * im) % PROBE_PRIME


# ---------------------------------------------------------------------------
# numerical evaluation in a truncated matrix model
# ---------------------------------------------------------------------------


#: while every entry of every partial product and sum is bounded below this,
#: none can reach the float range's top (2^1024), rounding included
_FINITE_BOUND = 2.0**1000


def fock_eval(p, pair):
    """Substitute the pair's dense matrices for the generators and evaluate.

    S' and T' are the conjugate transposes of the matrices of S and T.
    Coefficients drop to double precision here and only here.  The words are
    summed in one fixed order, the reverse of the rendered one (lowest degree
    first), so the floating-point result depends on the polynomial alone and
    not on the order in which its terms were built.  Each word's product is
    formed left to right from its first letter, but starts from the partial
    product of its longest common prefix with the word before it: the same
    floating-point chain, so the same bits.  Only that one partial product
    is kept from word to word; a word sharing less with the next word than
    with the one before leaves none, and the next word starts afresh.

    A coefficient or a partial sum past the float range raises
    ``DomainParameterError`` naming its word, with no numpy warning.  Every
    entry of a word's partial products and term is at most
    max(1, |c|) * prod max(1, ||L||_F) over its letters, and the sum at most
    the sum of these bounds; while that running bound stays below 2^1000
    nothing is checked, and past it every partial product and every partial
    sum is, so an overflowing word stops at its first non-finite product.
    """
    from .fock import TruncatedOperator

    return TruncatedOperator(_word_sum(_as_poly(p), pair))  # the letters are freed by now


def _word_sum(p, pair):
    """The dense sum of ``fock_eval``, in its order and with its checks."""
    S, T = pair.S.entries, pair.T.entries
    mats = {GEN_S: S, GEN_T: T, GEN_SD: S.conj().T, GEN_TD: T.conj().T}
    words = sorted(p.terms, key=_word_sort_key, reverse=True)
    acc = np.zeros_like(S)
    bound, saved, saved_len = 0.0, None, 0
    with np.errstate(over="ignore", invalid="ignore"):  # the finiteness checks below report it
        # Frobenius norms, read off the diagonals; S' has the norm of S
        norm_s, norm_t = (max(1.0, math.sqrt(np.vdot(D, D).real))
                          for D in (pair.S.band.diagonals, pair.T.band.diagonals))
        norms = {GEN_S: norm_s, GEN_SD: norm_s, GEN_T: norm_t, GEN_TD: norm_t}
        for i, word in enumerate(words):
            try:
                coeff = complex(p.terms[word])
            except OverflowError:
                raise DomainParameterError(
                    f"the coefficient of {format_word(word)!r} is past the float range"
                ) from None
            term_bound = max(1.0, math.hypot(coeff.real, coeff.imag))
            for g in word:
                term_bound *= norms[g]
            bound += term_bound
            checked = not bound < _FINITE_BOUND  # a NaN bound is checked too
            if saved_len:
                m, k = saved, saved_len
            elif word:
                m, k = mats[word[0]], 1
            else:
                m, k = np.eye(pair.dim, dtype=complex), 0
            keep = _common_prefix(word, words[i + 1]) if i + 1 < len(words) else 0
            saved, saved_len = (m, k) if k and keep == k else (None, 0)
            for g in word[k:]:
                m = m @ mats[g]
                k += 1
                if checked and not np.isfinite(m).all():
                    _raise_past_float_range(word, pair.dim)
                if k == keep:
                    saved, saved_len = m, k
            acc += coeff * m
            if checked and not np.isfinite(acc).all():
                _raise_past_float_range(word, pair.dim)
    return acc


def _common_prefix(a, b):
    """Length of the longest common prefix of two words."""
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return n


def _raise_past_float_range(word, dim):
    raise DomainParameterError(
        f"the term in {format_word(word)!r} takes the sum past the float range at dimension {dim}"
    )


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
    for g, run in groupby(word):
        n = len(tuple(run))
        pieces.append(g if n == 1 else f"{g}^{n}")
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
    A coefficient with more digits than ``sys.get_int_max_str_digits()``
    raises DomainParameterError naming its word.
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
        try:
            text = _format_magnitude(coeff)
        except ValueError:  # str(int) past the interpreter's int/str conversion limit
            limit = sys.get_int_max_str_digits()
            msg = f"the coefficient of {format_word(word)!r} has more than {limit} digits to print"
            raise DomainParameterError(msg) from None
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
