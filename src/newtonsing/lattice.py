"""Exact arithmetic on integer vectors and negative continued fractions.

Vectors in Z^3 are plain tuples of Python ints, so every operation here is
arbitrary precision.  This module carries the continued-fraction machinery
that turns a pair of primitive face normals into a string of
selfintersection numbers and the chain of primitive vectors between them.
"""

from math import gcd

from .errors import BudgetExceeded, EqualVectors, NonCoprime, NonPrimitiveInput

IntVec3 = tuple[int, int, int]


def content(v) -> int:
    """gcd of the absolute values of the coordinates; 0 for the zero vector."""
    return gcd(*v)


def is_primitive(v) -> bool:
    return content(v) == 1


def cross(a: IntVec3, b: IntVec3) -> IntVec3:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def dot(a, b) -> int:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def vec_add(a, b):
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def vec_sub(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def vec_scale(k, a):
    return (k * a[0], k * a[1], k * a[2])


def _check_pair(a: IntVec3, b: IntVec3) -> None:
    if not is_primitive(a):
        raise NonPrimitiveInput(f"{a} is not primitive")
    if not is_primitive(b):
        raise NonPrimitiveInput(f"{b} is not primitive")
    if tuple(a) == tuple(b):
        raise EqualVectors(f"{a} given twice")


def determinant_alpha(a: IntVec3, b: IntVec3) -> int:
    """Content of the cross product of two distinct primitive vectors."""
    _check_pair(a, b)
    alpha = content(cross(a, b))
    if alpha == 0:
        raise EqualVectors(f"{a} and {b} are parallel")
    return alpha


def _xgcd(x: int, y: int) -> tuple:
    """(g, s, t) with s*x + t*y = g = gcd(x, y) >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while y:
        q = x // y
        x, y = y, x - q * y
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return (x, s0, t0) if x >= 0 else (-x, -s0, -t0)


def _inverse_functional(a: IntVec3) -> IntVec3:
    """u with u.a = 1, for a primitive a: two extended gcds."""
    g, s, t = _xgcd(a[0], a[1])
    _, p, q = _xgcd(g, a[2])
    return (p * s, p * t, q)


def negative_cf(alpha: int, beta: int, limit=None) -> list[int]:
    """Negative continued fraction expansion [b_1, ..., b_s] of alpha/beta.

    Satisfies b_1 - 1/(b_2 - 1/(...)) = alpha/beta with b_j >= 2 for j >= 2,
    which makes the expansion unique.  Requires 0 < beta <= alpha and
    gcd(alpha, beta) = 1.  An expansion longer than `limit` raises
    BudgetExceeded before its next term: s can be as large as alpha.
    """
    if not (0 < beta <= alpha):
        raise ValueError(f"need 0 < beta <= alpha, got {alpha}/{beta}")
    if gcd(alpha, beta) != 1:
        raise NonCoprime(f"gcd({alpha},{beta}) != 1")
    terms = []
    while beta > 0:
        if len(terms) == limit:
            raise BudgetExceeded(f"negative continued fraction longer than {limit} terms")
        q = -(-alpha // beta)  # ceil
        terms.append(q)
        alpha, beta = beta, q * beta - alpha
    return terms


def pair_data(a: IntVec3, b: IntVec3, unit_choice: int = 0, limit=None):
    """(alpha, beta, selfintersection string, canonical primitive sequence).

    beta is the unique 0 <= beta < alpha with alpha | beta*a + b.  With
    u.a = 1 (`_inverse_functional`), pairing that divisibility with u gives
    beta = -u.b mod alpha, so beta costs two extended gcds; the start vector
    (beta*a + b) / alpha and the closing recursion certify it.  The string
    is empty exactly when the sequence is; for alpha = 1 with
    unit_choice = 1 it is the single term [1] = `negative_cf(1, 1)`.  A
    string longer than `limit` raises BudgetExceeded (`negative_cf`).
    """
    alpha = determinant_alpha(a, b)
    if alpha == 1:
        beta = unit_choice
        if unit_choice == 0:
            return alpha, beta, [], []
        return alpha, beta, negative_cf(1, 1, limit), [vec_add(a, b)]
    beta = -dot(_inverse_functional(a), b) % alpha
    terms = negative_cf(alpha, beta, limit)
    first = vec_add(vec_scale(beta, a), b)
    if any(x % alpha for x in first):
        raise AssertionError("canonical start vector not divisible by alpha")
    seq = [tuple(x // alpha for x in first)]
    prev = tuple(a)
    for b_i in terms[:-1]:
        nxt = vec_sub(vec_scale(b_i, seq[-1]), prev)
        prev = seq[-1]
        seq.append(nxt)
    # closing relation a_{s-1} - b_s a_s + b = 0
    tail = vec_add(vec_sub(prev, vec_scale(terms[-1], seq[-1])), b)
    if tail != (0, 0, 0):
        raise AssertionError(f"canonical sequence recursion failed for {a}, {b}")
    for v in seq:
        if not is_primitive(v):
            raise AssertionError(f"non-primitive member {v} in canonical sequence")
    return alpha, beta, terms, seq
