"""Exact arithmetic kernels: big-integer and q-polynomial matrices.

An ``ExactMatrix`` is sparse: its size, its nonzero entries (i, j, a) in
row-major order, and a ring flag (Z or Z[q]) fixed when it is built.  The
one constructor, ``ExactMatrix.from_cells``, sums the cells that share a
position (parallel edges), drops zeros and sorts; ``entries`` is a dense
view for the brute-force references.

Determinants and Pfaffians share one elimination kernel.  ``pfaffian_abs``
runs it on the skew matrix itself; ``det`` runs it on the skew block
``[[0, M], [-M^T, 0]]``, whose Pfaffian is +-det M.  The kernel eliminates
the sparse skew matrix over F_p for 31-bit primes p, pivoting on 2x2 blocks
(a vertex of minimum degree and its neighbour of minimum degree), and
returns the signed Pfaffian mod p.  Arithmetic in F_p is exact, so a pivot
that vanishes mod p only changes which pivot is taken: every prime gives
the true residue, and none is "unlucky".

Results over Z are rebuilt by the Chinese remainder theorem with symmetric
residues.  The number of primes is fixed in advance by a proven bound B on
the result's magnitude: the CRT stops once the modulus exceeds 2B, and never
because the residues look stable.  Then the result is the unique integer of
magnitude below half the modulus with the computed residues, so it is exact.
The bounds, for an n x n matrix with entries a_ij:

* det over Z: Hadamard, |det M| <= prod_i ||row_i||_2, compared through
  squares in integers (modulus^2 > 4 prod_i sum_j a_ij^2).
* Pf over Z: the square root of the Hadamard bound, since Pf^2 = det
  (modulus^4 > 16 prod_i sum_j a_ij^2).
* Z[q]: each coefficient obeys Goldstein-Graham,
  |c_k| <= prod_i (sum_j ||a_ij||_1^2)^(1/2): on |q| = 1 every entry has
  modulus at most ||a_ij||_1, Hadamard bounds |det M(q)| there, and no
  coefficient exceeds the maximum modulus on the unit circle.  Pf again
  takes the square root.

Over Z[q] the result is found mod p by evaluation and interpolation across
a proven degree window [L, U], by bipartite assignment duality on the
n x n skew matrix A the kernel eliminates.  Take potentials with
u_i + v_j >= deg a_ij on every nonzero a_ij.  A term of the Leibniz
expansion of det A picks one nonzero in each row and each column, so its
degree is at most sum_i u_i + sum_j v_j = U.  Likewise potentials with
u_i + v_j <= lowdeg a_ij give every term degree at least L.  The potentials
come from a sparse min-cost assignment (successive shortest paths), but the
proof rests only on their dual feasibility, which is checked on every
nonzero (an infeasible pair raises), not on the assignment code.  Since
Pf^2 = det A, the Pfaffian's terms lie in degrees ceil(L/2) .. floor(U/2),
so Pf(x) x^-ceil(L/2) is a polynomial of degree at most
floor(U/2) - ceil(L/2), found from that many evaluations plus one, at
x = 1, 2, ...; the low zero coefficients are prepended after.  For det M
the skew block's assignments split into one of M and one of M^T, so its
window is twice M's and halving gives M's window exactly.  When the support
of A has no perfect matching, every Leibniz term vanishes and the result is
the zero polynomial, with no elimination.  The integer route runs none of
this.

Permanents use Ryser inclusion-exclusion and Hafnians a direct recursion
over the first unmatched index; both are brute-force references.

Rows and columns stand for unordered vertex sets (the matrix builders order
them by vertex id only to be deterministic), so only the absolute determinant /
absolute Pfaffian is well defined; all public entry points return
nonnegative integers or sign-normalized polynomials (lowest-degree
coefficient positive).

Everything here is pure and immutable; safe to call from multiple threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from heapq import heapify, heappop, heappush
from operator import itemgetter
from typing import Iterable, Sequence, Union

Scalar = Union[int, "QPoly"]

class QPoly:
    """Univariate polynomial in q with arbitrary-precision int coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def const(n: int) -> "QPoly":
        return QPoly((n,))

    @staticmethod
    def q_power(k: int, coeff: int = 1) -> "QPoly":
        return QPoly((0,) * k + (coeff,))

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree, with the zero polynomial reported as -1."""
        return len(self.coeffs) - 1

    def low_degree(self) -> int:
        """Degree of the lowest nonzero term (-1 for zero)."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return -1

    def coefficient(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.coeffs == (QPoly.const(other)).coeffs
        if isinstance(other, QPoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self):
        return QPoly(-c for c in self.coeffs)

    def __add__(self, other):
        o = _as_poly(other)
        n = max(len(self.coeffs), len(o.coeffs))
        return QPoly(
            (self.coefficient(i) + o.coefficient(i)) for i in range(n)
        )

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-_as_poly(other))

    def __rsub__(self, other):
        return _as_poly(other) + (-self)

    def __mul__(self, other):
        o = _as_poly(other)
        if self.is_zero() or o.is_zero():
            return QPoly()
        out = [0] * (len(self.coeffs) + len(o.coeffs) - 1)
        terms = [(j, b) for j, b in enumerate(o.coeffs) if b]
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in terms:
                    out[i + j] += a * b
        return QPoly(out)

    __rmul__ = __mul__

    def div_exact(self, other) -> "QPoly":
        """Exact polynomial division; raises if the division leaves a remainder."""
        d = _as_poly(other)
        if d.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero():
            return QPoly()
        rem = list(self.coeffs)
        dd = d.degree()
        lead = d.coeffs[-1]
        qd = len(rem) - 1 - dd
        if qd < 0:
            raise ArithmeticError("inexact polynomial division")
        quot = [0] * (qd + 1)
        terms = [(j, b) for j, b in enumerate(d.coeffs) if b]
        for k in range(qd, -1, -1):
            top = rem[k + dd]
            if top == 0:
                continue
            c, r = divmod(top, lead)
            if r:
                raise ArithmeticError("inexact polynomial division")
            quot[k] = c
            for j, b in terms:
                rem[k + j] -= c * b
        if any(rem):
            raise ArithmeticError("inexact polynomial division")
        return QPoly(quot)

    def shift(self, k: int) -> "QPoly":
        """Multiply by q^k (k may be negative if divisible)."""
        if self.is_zero():
            return QPoly()
        if k >= 0:
            return QPoly((0,) * k + self.coeffs)
        if self.low_degree() + k < 0:
            raise ArithmeticError("negative shift below q^0")
        return QPoly(self.coeffs[-k:])

    def subs(self, x: int) -> int:
        """Evaluate at an integer point."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def sign_normalized(self) -> "QPoly":
        """Flip the global sign so the lowest-degree coefficient is positive."""
        ld = self.low_degree()
        if ld >= 0 and self.coeffs[ld] < 0:
            return -self
        return self

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            elif k == 1:
                body = "q" if mag == 1 else f"{mag}*q"
            else:
                body = f"q^{k}" if mag == 1 else f"{mag}*q^{k}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"QPoly({self})"


def _as_poly(x) -> QPoly:
    if isinstance(x, QPoly):
        return x
    if isinstance(x, int):
        return QPoly.const(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to QPoly")


def _is_zero(x: Scalar) -> bool:
    return (not x) if isinstance(x, QPoly) else x == 0



@dataclass(frozen=True)
class ExactMatrix:
    """Sparse nrows x ncols matrix: its nonzero entries (i, j, a) in
    row-major order, over Z, or over Z[q] when ``poly`` is set (then every
    a is a QPoly)."""

    nrows: int
    ncols: int
    nonzeros: tuple
    poly: bool

    @staticmethod
    def from_cells(nrows: int, ncols: int, cells, poly: bool) -> "ExactMatrix":
        """The matrix whose (i, j) entry sums a over the cells (i, j, a)."""
        zero = QPoly() if poly else 0
        at = {}
        for i, j, a in cells:
            ij = i, j
            at[ij] = at.get(ij, zero) + a
        row_major = sorted(at.items(), key=itemgetter(0))
        nz = tuple((i, j, a) for (i, j), a in row_major if a)
        return ExactMatrix(nrows, ncols, nz, poly)

    @staticmethod
    def from_rows(rows: Sequence[Sequence[Scalar]]) -> "ExactMatrix":
        rows = [tuple(r) for r in rows]
        nc = len(rows[0]) if rows else 0
        if any(len(r) != nc for r in rows):
            raise ValueError("ragged rows")
        poly = any(isinstance(x, QPoly) for r in rows for x in r)
        cells = ((i, j, x) for i, r in enumerate(rows) for j, x in enumerate(r))
        return ExactMatrix.from_cells(len(rows), nc, cells, poly)

    @property
    def entries(self) -> tuple:
        """The dense rows, zeros included."""
        zero = QPoly() if self.poly else 0
        rows = [[zero] * self.ncols for _ in range(self.nrows)]
        for i, j, a in self.nonzeros:
            rows[i][j] = a
        return tuple(map(tuple, rows))

    def is_square(self):
        return self.nrows == self.ncols


def integer_sqrt(n: int) -> int:
    """Exact integer square root; raises on non-squares."""
    if n < 0:
        raise ValueError("square root of a negative integer")
    r = math.isqrt(n)
    if r * r != n:
        raise ValueError(f"{n} is not a perfect square")
    return r



def permanent(m: ExactMatrix) -> Scalar:
    """Exact permanent by Ryser inclusion-exclusion; oracle use, n <= 20."""
    if not m.is_square():
        raise ValueError("permanent of a non-square matrix")
    n = m.nrows
    if n > 20:
        raise ValueError(f"permanent limited to 20x20, got {n}")
    if n == 0:
        return 1
    rows = m.entries
    rs = [0 * rows[i][0] for i in range(n)]  # ring-generic zeros
    total = 0 * rows[0][0]
    pc = 0
    for k in range(1, 1 << n):
        diff = k & -k
        j = diff.bit_length() - 1
        gray = k ^ (k >> 1)
        if gray & diff:
            for i in range(n):
                rs[i] = rs[i] + rows[i][j]
            pc += 1
        else:
            for i in range(n):
                rs[i] = rs[i] - rows[i][j]
            pc -= 1
        prod = rs[0]
        for i in range(1, n):
            prod = prod * rs[i]
        if (n - pc) % 2 == 0:
            total = total + prod
        else:
            total = total - prod
    return total


def hafnian(m: ExactMatrix) -> Scalar:
    """Exact Hafnian: sum over unordered perfect matchings of the index set."""
    if not m.is_square():
        raise ValueError("hafnian of a non-square matrix")
    n = m.nrows
    if n > 16:
        raise ValueError(f"hafnian limited to 16x16, got {n}")
    ent = m.entries
    for i in range(n):
        for j in range(n):
            if ent[i][j] != ent[j][i]:
                raise ValueError("hafnian of a non-symmetric matrix")
    if n % 2:
        return 0
    if n == 0:
        return 1

    def rec(idx):
        if not idx:
            return 1
        i0 = idx[0]
        tot = 0
        for t in range(1, len(idx)):
            a = ent[i0][idx[t]]
            if not _is_zero(a):
                tot = tot + a * rec(idx[1:t] + idx[t + 1:])
        return tot

    return rec(tuple(range(n)))


# ---------------------------------------------------------------------------
# the elimination kernel
# ---------------------------------------------------------------------------


def _is_prime(n: int) -> bool:
    """Miller-Rabin with bases 2, 3, 5, 7, deterministic below 3 215 031 751."""
    if n < 2:
        return False
    for b in (2, 3, 5, 7):
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in (2, 3, 5, 7):
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def _prime(k: int) -> int:
    """The k-th prime below 2^31 counting down, with _prime(0) = 2^31 - 1."""
    n = (1 << 31) - 1 if k == 0 else _prime(k - 1) - 2
    while not _is_prime(n):
        n -= 2
    return n


def _pf_mod(n: int, triples, p: int, plan=()):
    """Signed Pfaffian mod p of the n x n skew matrix with A[i][j] = a and
    A[j][i] = -a for each (i, j, a), a reduced mod p; n is even.

    Takes the pivot pairs of ``plan`` while each pivot is nonzero mod p, then
    picks its own: a vertex u of minimum degree and its neighbour v of
    minimum degree.  Eliminating (u, v) is the 2x2 Schur update
    A[i][j] += (A[v][i] A[u][j] - A[u][i] A[v][j]) / A[u][v] over the
    neighbours of u and v; on a bipartite block it is sparse LU, fill stays
    between rows and columns.  Entries that become 0 mod p are dropped, so
    degrees count nonzeros.  The Pfaffian is the product of the pivots
    times the sign of the permutation that lists them in order.  Returns the
    Pfaffian and the pivot pairs used.
    """
    rows = [{} for _ in range(n)]
    for i, j, a in triples:
        if a:
            rows[i][j] = a
            rows[j][i] = p - a
    used = []
    heap = None  # (degree, vertex), stale entries skipped; built on the first own pick
    pf = 1
    for k in range(n // 2):
        if k < len(plan):
            u, v = plan[k]
            a = rows[u].get(v)
            if not a:
                plan = ()
        if k >= len(plan):
            if heap is None:
                heap = [(len(r), i) for i, r in enumerate(rows) if r is not None]
                heapify(heap)
            while True:
                d, u = heappop(heap)
                if rows[u] is not None and len(rows[u]) == d:
                    break
            ru = rows[u]
            if not ru:
                return 0, used
            v = min(ru, key=lambda j: len(rows[j]))
            a = ru[v]
        used.append((u, v))
        pf = pf * a % p
        ru, rv = rows[u], rows[v]
        rows[u] = rows[v] = None
        del ru[v], rv[u]
        ainv = pow(a, -1, p)
        # row i += (A[v][i] / a) * row u, then row i -= (A[u][i] / a) * row v
        for scale, add, gone, f in ((rv, ru, v, ainv), (ru, rv, u, p - ainv)):
            for i, ai in scale.items():
                ri = rows[i]
                del ri[gone]
                c = ai * f % p
                for j, aj in add.items():
                    x = (ri.get(j, 0) + c * aj) % p
                    if x:
                        ri[j] = x
                    else:
                        del ri[j]
        if heap is not None:
            for i in (*ru, *rv):
                heappush(heap, (len(rows[i]), i))
    order = [x for pair in used for x in pair]
    return (pf if _is_even(order) else p - pf) % p, used


def _is_even(perm) -> bool:
    """Whether the permutation perm of range(len(perm)) is even: it is a
    product of len(perm) - (number of cycles) transpositions."""
    seen = [False] * len(perm)
    transpositions = len(perm)
    for i in range(len(perm)):
        if not seen[i]:
            transpositions -= 1
            while not seen[i]:
                seen[i] = True
                i = perm[i]
    return transpositions % 2 == 0


def _interpolate(ys, p: int):
    """Coefficients, lowest first, of the polynomial over F_p of degree
    below len(ys) that takes the value ys[t] at t + 1."""
    c = list(ys)
    n = len(c)
    for k in range(1, n):  # Newton divided differences; nodes k apart differ by k
        ik = pow(k, -1, p)
        c[k:] = [(b - a) * ik % p for a, b in zip(c[k - 1:-1], c[k:])]
    poly = [c[-1]]
    for t in range(n - 2, -1, -1):  # poly = poly * (q - (t + 1)) + c[t]
        poly = [(lo - (t + 1) * hi) % p for lo, hi in zip([0] + poly, poly + [0])]
        poly[0] = (poly[0] + c[t]) % p
    return poly


def _assignment_duals(n: int, arcs):
    """Potentials (u, v) of a min-cost perfect assignment of rows 0..n-1 to
    columns 0..n-1 over the arcs (i, j, c): u_i + v_j <= c on every arc, and
    sum(u) + sum(v) is the minimum cost.  None when no perfect assignment
    exists.

    Successive shortest paths: each row in turn is matched along the
    shortest alternating path (Dijkstra over a heap) under the reduced costs
    c - u_i - v_j >= 0.  Then every node settled before the free column at
    distance d moves its potential by d minus its own distance, which keeps
    every reduced cost nonnegative and makes the matched arcs tight.
    """
    adj = [[] for _ in range(n)]
    for i, j, c in arcs:
        adj[i].append((j, c))
    if not all(adj):
        return None
    u = [min(c for _, c in row) for row in adj]
    v = [0] * n
    row_of = [-1] * n  # the row matched to each column
    col_of = [-1] * n  # the column matched to each row
    for s in range(n):
        settled = {}  # column -> its distance from row s
        reach = {}
        pred = {}
        heap = []
        i, d = s, 0
        while True:
            for j, c in adj[i]:
                if j not in settled:
                    dj = d + c - u[i] - v[j]
                    if j not in reach or dj < reach[j]:
                        reach[j] = dj
                        pred[j] = i
                        heappush(heap, (dj, j))
            while heap and heap[0][1] in settled:
                heappop(heap)
            if not heap:
                return None
            d, j = heappop(heap)
            settled[j] = d
            if row_of[j] < 0:
                break
            i = row_of[j]  # a matched arc is tight: its row is at distance d too
        u[s] += d
        for k, dk in settled.items():
            if k != j:
                u[row_of[k]] += d - dk
                v[k] -= d - dk
        while j >= 0:  # flip the alternating path back to row s
            i = pred[j]
            row_of[j], col_of[i], j = i, j, col_of[i]
    return u, v


def _degree_window(n: int, triples):
    """(lo, hi) such that the Pfaffian of the n x n skew matrix given by
    ``triples`` (i, j, terms), terms ((k, c_k), ...) in increasing k, has
    all its terms in q^lo .. q^hi; None when its support has no perfect
    matching, so that the Pfaffian is 0.

    The bound rests only on the dual feasibility checked here, on every
    nonzero: with u_i + v_j <= lowdeg a_ij, every term of the Leibniz
    expansion of det A = Pf^2 has degree >= sum(u) + sum(v) = L; with
    s_i + t_j >= deg a_ij, degree <= sum(s) + sum(t) = U.  Halving gives
    ceil(L/2) <= lowdeg Pf and deg Pf <= floor(U/2).
    """
    arcs = [(i, j, terms[0][0], terms[-1][0]) for i, j, terms in triples]
    arcs += [(j, i, lo, hi) for i, j, lo, hi in arcs]
    low = _assignment_duals(n, [(i, j, lo) for i, j, lo, _ in arcs])
    if low is None:
        return None
    u, v = low
    s, t = ([-x for x in w] for w in _assignment_duals(n, [(i, j, -hi) for i, j, _, hi in arcs]))
    for i, j, lo, hi in arcs:
        if u[i] + v[j] > lo or s[i] + t[j] < hi:
            raise ArithmeticError("degree potentials are not dual feasible")
    return (sum(u) + sum(v) + 1) // 2, (sum(s) + sum(t)) // 2


def _pfaffian(n: int, triples, power: int, bound: int, poly: bool):
    """Signed Pfaffian of the n x n skew matrix given by ``triples`` (i, j, a),
    exact, as a list of coefficients (one for an integer matrix).

    The entries a are integers, or, when ``poly`` is set, tuples
    ((k, c_k), ...) of nonzero coefficients in increasing k.  Every
    coefficient c of the result obeys |c|^power <= bound, so the CRT stops
    once modulus^power exceeds 2^power * bound.  Over Z[q] the Pfaffian is
    evaluated only across its degree window (``_degree_window``).  The pivot
    plan of the first elimination is replayed on every later prime and
    evaluation point.
    """
    if n == 0:
        return [1]
    if bound == 0:  # a zero row
        return [0]
    plan = []

    def pf_mod(entries, p):
        pf, used = _pf_mod(n, entries, p, plan)
        if not plan:
            plan.extend(used)
        return pf

    low = 0
    if not poly:

        def residues_mod(p):
            return [pf_mod([(i, j, a % p) for i, j, a in triples], p)]

    else:
        window = _degree_window(n, triples)
        if window is None or window[1] < window[0]:
            return [0]  # no perfect matching, or an odd-only window for Pf^2
        low, high = window
        points = high - low + 1
        if points >= 1 << 30:
            raise ValueError(f"degree window of {points} leaves too few evaluation points")
        polys = sorted({terms for _, _, terms in triples})
        index = {terms: k for k, terms in enumerate(polys)}
        keyed = [(i, j, index[terms]) for i, j, terms in triples]
        top = max(terms[-1][0] for terms in polys)

        def residues_mod(p):
            # Pf(x) x^-low has degree <= high - low: interpolate it on x = 1..points
            ys = []
            for x in range(1, points + 1):
                pw = [pow(x, t, p) for t in range(top + 1)]
                at_x = [sum(c * pw[t] for t, c in terms) % p for terms in polys]
                pf = pf_mod([(i, j, at_x[k]) for i, j, k in keyed], p)
                ys.append(pf * pow(x, -low, p) % p)
            return _interpolate(ys, p)

    residues, modulus, k = None, 1, 0
    while modulus**power <= bound << power:
        p = _prime(k)
        k += 1
        vals = residues_mod(p)
        if residues is None:
            residues = vals
        else:
            inv = pow(modulus, -1, p)
            residues = [r + modulus * ((v - r) * inv % p) for r, v in zip(residues, vals)]
        modulus *= p
    return [0] * low + [r - modulus if 2 * r > modulus else r for r in residues]


def _result(coeffs, poly: bool) -> Scalar:
    return QPoly(coeffs).sign_normalized() if poly else abs(coeffs[0])


def _bounds(n: int, nz, poly: bool):
    """prod_i sum_j a_ij^2 over the rows (with ||a_ij||_1 for polynomials),
    and the entries as the kernel takes them."""
    sq = [0] * n
    if not poly:
        for i, _, a in nz:
            sq[i] += a * a
        return math.prod(sq), nz
    out = []
    for i, j, a in nz:
        cs = a.coeffs
        sq[i] += sum(map(abs, cs)) ** 2
        out.append((i, j, tuple((t, c) for t, c in enumerate(cs) if c)))
    return math.prod(sq), out


def det(m: ExactMatrix) -> Scalar:
    """Absolute determinant (sign-normalized for polynomial matrices): the
    kernel's Pfaffian of [[0, M], [-M^T, 0]], which is +-det M."""
    if not m.is_square():
        raise ValueError("determinant of a non-square matrix")
    n = m.nrows
    bound, entries = _bounds(n, m.nonzeros, m.poly)
    block = [(i, n + j, a) for i, j, a in entries]
    return _result(_pfaffian(2 * n, block, 2, bound, m.poly), m.poly)


def _check_skew(m: ExactMatrix):
    if not m.is_square():
        raise ValueError("Pfaffian of a non-square matrix")
    at = {(i, j): a for i, j, a in m.nonzeros}
    for (i, j), a in at.items():
        if i == j:
            raise ValueError("nonzero diagonal in a skew matrix")
        if at.get((j, i), 0) != -a:
            raise ValueError("matrix is not skew-symmetric")


def pfaffian_abs(m: ExactMatrix) -> Scalar:
    """Absolute Pfaffian of a skew-symmetric matrix (sign-normalized for
    polynomial matrices); odd dimension gives 0 (no perfect matching)."""
    _check_skew(m)
    n = m.nrows
    if n % 2:
        return QPoly() if m.poly else 0
    bound, entries = _bounds(n, m.nonzeros, m.poly)
    upper = [(i, j, a) for i, j, a in entries if i < j]
    return _result(_pfaffian(n, upper, 4, bound, m.poly), m.poly)
