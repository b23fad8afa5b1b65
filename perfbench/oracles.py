"""Output checks that do not trust the code they check.

Each oracle derives the expected answer from a closed form or from plain
numpy/scipy, never from the weakcr function under test, and raises
``Mismatch`` with the offending value when the output disagrees.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

UNPRIMED = ("S", "T")
PRIMED = ("S'", "T'")

#: relative tolerance of matrix soundness, against the entry scale
SOUNDNESS_REL_TOL = 1e-10
#: relative tolerance of a moment against its closed form
MOMENT_REL_TOL = 1e-7
#: an uncertainty relation holds when its gap (rhs - lhs) is above this
UR_GAP_FLOOR = -1e-8


class Mismatch(AssertionError):
    """An output disagreed with its oracle."""


class KnownFalseFail(Mismatch):
    """The program's own check failed on an output the oracles confirm.

    These are documented defects of the program (a wrong tolerance scale), not
    benchmark errors; they still count as failed operations.
    """


def _require(cond, message):
    if not cond:
        raise Mismatch(message)


def gauss(value):
    """A coefficient as an exact (re, im) pair of Fractions."""
    if isinstance(value, tuple):
        return (Fraction(value[0]), Fraction(value[1]))
    return (Fraction(value.re), Fraction(value.im))


def block_normal_form(a, b, coeff=(1, 0), family=UNPRIMED):
    """Normal form of coeff * S^a T^b as {word: (re, im)}.

    S^a T^b = sum_j j! C(a,j) C(b,j) T^(b-j) S^(a-j); the primed family,
    whose rule is S' T' -> T' S' - 1, picks up the sign (-1)^j.
    """
    s, t = family
    sign = -1 if family == PRIMED else 1
    cre, cim = gauss(coeff)
    out = {}
    for j in range(min(a, b) + 1):
        c = math.factorial(j) * math.comb(a, j) * math.comb(b, j) * sign**j
        out[(t,) * (b - j) + (s,) * (a - j)] = (cre * c, cim * c)
    return out


def terms_of(poly):
    """An NCPoly's terms as {word: (re, im)} with Fraction parts."""
    return {tuple(w): gauss(c) for w, c in poly.terms.items()}


def check_terms(poly, expected, what):
    got = terms_of(poly)
    _require(got == expected, f"{what}: got {len(got)} terms, expected {len(expected)}; "
                              f"first difference at {_first_diff(got, expected)!r}")


def _first_diff(got, expected):
    for w in sorted(set(got) | set(expected), key=lambda w: (len(w), w)):
        if got.get(w) != expected.get(w):
            return w
    return None


def merge_terms(terms):
    """Sum a list of (word, (re, im)) into {word: (re, im)}, dropping zeros."""
    out = {}
    for word, (re, im) in terms:
        pre, pim = out.get(word, (Fraction(0), Fraction(0)))
        out[word] = (pre + re, pim + im)
    return {w: c for w, c in out.items() if c != (0, 0)}


def check_canonical(poly):
    """No word keeps an S directly left of T, or S' directly left of T'."""
    for word in poly.terms:
        for x, y in zip(word, word[1:]):
            _require((x, y) not in (UNPRIMED, PRIMED), f"reducible pair in {word!r}")


def expected_regular(poly):
    """Against the unbounded profile a canonical form is regular exactly when
    every word stays in one family."""
    return all(set(w) <= set(UNPRIMED) or set(w) <= set(PRIMED) for w in poly.terms)


def check_soundness(a, b, block):
    """Leading block of two evaluations agrees relative to the entry scale."""
    _require(block >= 1, f"empty soundness block {block}")
    a, b = a[:block, :block], b[:block, :block]
    scale = max(1.0, float(np.max(np.abs(a))))
    rel = float(np.max(np.abs(a - b))) / scale
    _require(rel <= SOUNDNESS_REL_TOL, f"soundness {rel:.3e} > {SOUNDNESS_REL_TOL:g} (scale {scale:.3e})")
    return rel


# ---------------------------------------------------------------------------
# weighted L2


def rational_moment(alpha, k):
    """int x^k (1 + x^4)^-alpha dx: 0 for odd k, inf when divergent,
    else 1/2 B((k+1)/4, alpha - (k+1)/4)."""
    if k + 1 >= 4 * alpha:
        return math.inf
    if k % 2:
        return 0.0
    # imported here so that measuring set-up time never loads scipy for weakcr
    from scipy.special import beta

    p = (k + 1) / 4
    return 0.5 * float(beta(p, alpha - p))


def gaussian_moment(k):
    """int x^k exp(-x^2/2) dx = (k-1)!! sqrt(2 pi) for even k, 0 for odd k."""
    if k % 2:
        return 0.0
    return math.prod(range(k - 1, 0, -2)) * math.sqrt(2 * math.pi)


def check_moments(values, expected_fn):
    for k, got in enumerate(values):
        want = expected_fn(k)
        if math.isinf(want) or want == 0.0:
            _require(got == want, f"moment {k}: got {got!r}, expected {want!r}")
        else:
            rel = abs(got - want) / want
            _require(rel <= MOMENT_REL_TOL, f"moment {k}: relative error {rel:.3e}")


def expected_n_max(alpha):
    """Largest n with x^n, x^(n+1) and n x^(n-1) in L2: n < 2 alpha - 3/2."""
    bound = 2 * alpha - 1.5
    return math.ceil(bound) - 1


# ---------------------------------------------------------------------------
# matrices


def swanson_matrices(theta, n):
    """S = cos(t) a + i sin(t) a*, T = cos(t) a* + i sin(t) a, built here."""
    a = np.diag(np.sqrt(np.arange(1, n, dtype=float)), 1).astype(complex)
    ad = a.conj().T
    c, s = math.cos(theta), math.sin(theta)
    return c * a + 1j * s * ad, c * ad + 1j * s * a


def deltas(S, T, xi):
    """(dS, dS', dT, dT') at the expectation centres, for unit xi."""
    def spread(A, z):
        return float(np.linalg.norm(A @ xi - z * xi))

    z = complex(np.vdot(xi, S @ xi))
    w = complex(np.vdot(xi, T @ xi))
    return (spread(S, z), spread(S.conj().T, z.conjugate()),
            spread(T, w), spread(T.conj().T, w.conjugate()))


def check_close(got, want, tol, what):
    err = max(abs(g - w) for g, w in zip(got, want))
    _require(err <= tol, f"{what}: max deviation {err:.3e} > {tol:g}")


def check_ur_gap(gap, what):
    _require(gap >= UR_GAP_FLOOR, f"{what}: gap {gap:.3e} below {UR_GAP_FLOOR:g}")


def matrix2x2_deltas(s, q, t):
    """The 2x2 model at phi = (sqrt t, sqrt(1-t)): (|s| p2, |s| p1, |q| p1, |q| p2)."""
    p1, p2 = t, 1.0 - t
    return (abs(s) * p2, abs(s) * p1, abs(q) * p1, abs(q) * p2)


def check_spectrum(evals, length):
    """The number operator restricted to a ladder of length L has spectrum 0..L-1."""
    _require(len(evals) == length, f"spectrum has {len(evals)} values, ladder {length}")
    check_close(np.sort(np.real(evals)), np.arange(length), 1e-8, "restricted spectrum")
    _require(float(np.max(np.abs(np.imag(evals)))) <= 1e-8, "restricted spectrum not real")


def check_relative_defect(value, scale, tol, what):
    _require(value <= tol * max(scale, 1.0), f"{what} {value:.3e} > {tol:g} x scale {scale:.3e}")
