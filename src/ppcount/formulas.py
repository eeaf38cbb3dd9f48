"""Closed-form counts for the ten symmetry classes.

Every class is counted in one notation, that of Stanley's table (Stanley,
"Symmetries of plane partitions", JCTA 43, 1986): a product over one short
index range, each row a ratio of falling factorials ``math.perm`` or of
short runs of factors, multiplied into a numerator and a denominator that
divide exactly once at the end.
Classes 5, 7 and 9 are products of other classes' counts; class 9, the
cyclically symmetric self-complementary partitions of a 2n-cube, is the
square of class 10, the source paper's theorem CSSC(2n) =
prod_{i<n} ((3i+1)! / (n+i)!)^2.  A class counts 0 on boxes it does not
fix and where a parity obstruction rules out any invariant partition (odd
volume for complementation, odd height for transpose-complementation).
The rows run over the short sides (class 6 over the half height of a low
box), so thin boxes are immediate.

Class 1 also has MacMahon's volume generating function, the formula route
of q-enumeration (``q_box_product``).
"""

from __future__ import annotations

import math
from typing import Tuple

from .exactalg import QPoly
from .symmetry import symmetry_class


def _exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError("product formula did not divide exactly")
    return q


def _n1(a: int, b: int, c: int) -> int:
    """MacMahon's product of (i + j + c - 1) / (i + j - 1) over i <= a,
    j <= b, with a <= b the two shortest sides: the product over j is
    perm(i + b + c - 1, b) / perm(i + b - 1, b), so the work grows with ab,
    not with the longest side."""
    a, b, c = sorted((a, b, c))
    rows = range(1, a + 1)
    return _exact_div(math.prod(math.perm(i + b + c - 1, b) for i in rows),
                      math.prod(math.perm(i + b - 1, b) for i in rows))


def _n2(n: int, c: int) -> int:
    """Symmetric partitions in an n x n x c box: the product of
    (c + 2i - 1) / (2i - 1) over i <= n and of (c + i + j - 1) / (i + j - 1)
    over i < j <= n.  The product over j is perm(c + i + n - 1, n - i) /
    perm(i + n - 1, n - i).  When c < n the rows run over k <= c instead:
    perm(2n + k - 1, n) over the n factors k, k + 2, ..., k + 2n - 2.  So
    the work grows with n min(n, c), not with the longest side."""
    if c < n:
        rows = range(1, c + 1)
        return _exact_div(math.prod(math.perm(2 * n + k - 1, n) for k in rows),
                          math.prod(math.prod(range(k, k + 2 * n - 1, 2)) for k in rows))
    rows = range(1, n + 1)
    return _exact_div(math.prod((c + 2 * i - 1) * math.perm(c + i + n - 1, n - i) for i in rows),
                      math.prod((2 * i - 1) * math.perm(i + n - 1, n - i) for i in rows))


def _n3(n: int) -> int:
    """Cyclically symmetric partitions in the n-cube (Andrews): the product
    of (3i - 1) / (3i - 2) over i <= n and of (n + i + j - 1) / (2i + j - 1)
    over i <= j <= n.  The product over j is perm(2n + i - 1, n - i + 1) /
    perm(n + 2i - 1, n - i + 1)."""
    rows = range(1, n + 1)
    return _exact_div(math.prod((3 * i - 1) * math.perm(2 * n + i - 1, n - i + 1) for i in rows),
                      math.prod((3 * i - 2) * math.perm(n + 2 * i - 1, n - i + 1) for i in rows))


def _n4(n: int) -> int:
    """Totally symmetric partitions in the n-cube (Stembridge): the product
    of (i + j + n - 1) / (i + 2j - 2) over 1 <= i <= j <= n.  The product
    over j is perm(i + 2n - 1, n - i + 1) over the n - i + 1 factors
    3i - 2, 3i, ..., i + 2n - 2."""
    rows = range(1, n + 1)
    return _exact_div(math.prod(math.perm(i + 2 * n - 1, n - i + 1) for i in rows),
                      math.prod(math.prod(range(3 * i - 2, i + 2 * n - 1, 2)) for i in rows))


def _n6(a: int, b: int) -> int:
    """Transpose-complementary partitions in an a x a x 2b box, a >= 1:
    C(a + b - 1, a - 1) times the product of (2b + i + j + 1) / (i + j + 1)
    over 1 <= i <= j <= n = a - 2.  The product over j is
    perm(2b + i + a - 1, a - 1 - i) / perm(i + a - 1, a - 1 - i).  When
    b < a the rows run over the heights k <= b instead: with m(s) the number
    of pairs i <= j with i + j = s, going from 2k - 2 to 2k multiplies the
    product by t = 2k + s - 1 to the power m(s - 2) - m(s), for
    s = 2..2n + 2, and each power is -1, 0 or 1.  So the work grows with
    a min(a, b)."""
    num = math.comb(a + b - 1, a - 1)
    if b < a:
        n = a - 2
        m = [max(0, s // 2 - max(1, s - n) + 1) for s in range(2 * n + 3)]
        ups = [s - 1 for s in range(2, 2 * n + 3) if m[s - 2] > m[s]]
        downs = [s - 1 for s in range(2, 2 * n + 3) if m[s - 2] < m[s]]
        rows = range(2, 2 * b + 1, 2)  # 2k for k = 1..b
        return _exact_div(num * math.prod(math.prod(k + t for t in ups) for k in rows),
                          math.prod(math.prod(k + t for t in downs) for k in rows))
    rows = range(1, a - 1)
    num *= math.prod(math.perm(2 * b + i + a - 1, a - 1 - i) for i in rows)
    return _exact_div(num, math.prod(math.perm(i + a - 1, a - 1 - i) for i in rows))


def _n8(n: int) -> int:
    """Cyclically symmetric transpose-complementary partitions in the 2n-cube
    (Mills, Robbins and Rumsey): the product over i < n of (3i + 1) (6i)! (2i)!
    / ((4i)! (4i + 1)!) = (3i + 1) perm(6i, 2i) / perm(4i + 1, 2i + 1)."""
    rows = range(n)
    return _exact_div(math.prod((3 * i + 1) * math.perm(6 * i, 2 * i) for i in rows),
                      math.prod(math.perm(4 * i + 1, 2 * i + 1) for i in rows))


def _n10(n: int) -> int:
    """Totally symmetric self-complementary partitions in the 2n-cube
    (Andrews): the product over i < n of (3i + 1)! / (n + i)!, the number
    of n x n alternating sign matrices."""
    rows = range(n)
    return _exact_div(math.prod(math.factorial(3 * i + 1) for i in rows),
                      math.prod(math.factorial(n + i) for i in rows))


def _immediate(class_id: int, dims: Tuple[int, int, int]):
    """The count of a box that needs no product, else None: 0 on a box the
    class does not fix or where a parity obstruction rules out any invariant
    partition, and 1 on the empty height matrix of classes 6 and 7."""
    a, b, c = dims
    if not symmetry_class(class_id).box_fixed(dims):
        return 0
    if class_id == 5 and a % 2 and b % 2 and c % 2:
        return 0  # odd volume cannot be self-complementary
    if class_id in (6, 7):
        if a == 0:
            return 1  # empty height matrix, vacuously invariant
        if c % 2:
            return 0  # transpose-complement forces height c/2 on the diagonal
    if class_id in (8, 9, 10) and a % 2:
        return 0
    return None


def n_class(class_id: int, dims: Tuple[int, int, int]) -> int:
    """Exact count of class-invariant plane partitions in the given box.

    Boxes not fixed by the class, and fixed boxes with no invariant
    partition (parity obstructions), give 0.
    """
    a, b, c = dims
    if a < 0 or b < 0 or c < 0:
        raise ValueError(f"negative box side in {dims}")
    known = _immediate(class_id, dims)
    if known is not None:
        return known

    if class_id == 1:
        return _n1(a, b, c)
    if class_id == 2:
        return _n2(a, c)
    if class_id == 3:
        return _n3(a)
    if class_id == 4:
        return _n4(a)
    if class_id == 5:
        odd = a % 2 + b % 2 + c % 2
        if odd == 0:
            return _n1(a // 2, b // 2, c // 2) ** 2
        if odd == 1:
            evens = sorted(d // 2 for d in dims if d % 2 == 0)
            k = next(d // 2 for d in dims if d % 2 == 1)
            e1, e2 = evens
            return _n1(e1, e2, k) * _n1(e1, e2, k + 1)
        ev = next(d // 2 for d in dims if d % 2 == 0)
        o1, o2 = sorted(d // 2 for d in dims if d % 2 == 1)
        return _n1(o1 + 1, o2, ev) * _n1(o1, o2 + 1, ev)
    if class_id == 6:
        return _n6(a, c // 2)
    if class_id == 7:
        if a % 2 == 0:
            return _n1(a // 2, a // 2, c // 2)
        return _n1(a // 2, a // 2 + 1, c // 2)
    if class_id == 8:
        return _n8(a // 2)
    if class_id == 9:
        return _n10(a // 2) ** 2
    if class_id == 10:
        return _n10(a // 2)
    raise AssertionError


def formula_work(class_id: int, dims: Tuple[int, int, int]) -> int:
    """``n_class``'s work on one box, from the sides alone: 0 where it
    answers at once, else the square of f * bit_length(a + b + c).  A
    product formula multiplies about f factors below a + b + c into a
    numerator and a denominator and divides them exactly, in time quadratic
    in their bits.  f is the product of the two sides the formula loops
    over: the two shortest for classes 1, 5 and 7 (MacMahon's product on the
    box or its halves, ``_n1``), n * min(n, c) for class 2 on an n x n x c
    box, a * min(a, b) for class 6 on an a x a x 2b box, and a * a for the
    others, which count cubes."""
    if _immediate(class_id, dims) is not None:
        return 0
    x, y, z = sorted(dims)
    a, _, c = dims
    f = x * y if class_id in (1, 5, 7) else a * min(a, {2: c, 6: c // 2}.get(class_id, a))
    return (f * (x + y + z).bit_length()) ** 2


def q_box_product(a: int, b: int, c: int) -> QPoly:
    """MacMahon's box product prod_{i,j,k} (1 - q^(i+j+k-1)) / (1 - q^(i+j+k-2))
    over the a x b x c box: the coefficient of q^k counts the plane
    partitions of volume k.

    The product over k telescopes to prod_{i,j} (1 - q^(i+j+c-1)) /
    (1 - q^(i+j-1)).  It is built one i at a time, since the partial
    product up to i is the polynomial of the i x b x c box: multiply by the
    row's numerator factors, then divide its denominator factors out exactly.
    """
    if a < 0 or b < 0 or c < 0:
        raise ValueError(f"negative box side in {(a, b, c)}")
    a, b, c = sorted((a, b, c))  # the product is symmetric: loop over the two shortest sides
    out = QPoly.const(1)
    for i in range(1, a + 1):
        for j in range(1, b + 1):
            out = out * (1 - QPoly.q_power(i + j + c - 1))
        for j in range(1, b + 1):
            out = out.div_exact(1 - QPoly.q_power(i + j - 1))
    return out


def q_product_work(dims: Tuple[int, int, int]) -> int:
    """``q_box_product``'s work, from the sides x <= y <= z alone: it
    multiplies and divides xy factors into a polynomial of degree up to xyz,
    one coefficient at a time, and the answer has xyz + 1 coefficients:
    about (xy + 1) xyz steps."""
    x, y, z = sorted(dims)
    return (x * y + 1) * x * y * z
