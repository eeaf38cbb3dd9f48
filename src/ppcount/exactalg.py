"""Exact arithmetic kernels: big-integer and q-polynomial matrices.

An ``ExactMatrix`` is sparse: its size, its nonzero entries (i, j, a) in
row-major order, and a ring flag (Z or Z[q]) fixed when it is built.  The
one constructor, ``ExactMatrix.from_cells``, sums the cells that share a
position (parallel edges), drops zeros and sorts; ``entries`` is a dense
view of it.

Determinants and Pfaffians share one elimination kernel.  ``pfaffian_abs``
runs it on the skew matrix itself; ``det`` runs it on the skew block
``[[0, M], [-M^T, 0]]``, whose Pfaffian is +-det M.  The kernel eliminates
the sparse skew matrix mod m, a prime or a product of distinct primes,
pivoting on 2x2 blocks (a vertex of minimum degree and its neighbour of
minimum degree with a nonzero entry), and returns the signed Pfaffian mod m.
Each step pops its pivot from a heap of plain int keys, degree * n +
vertex, and applies the pivot's Schur update in the one loop that finds the
slots it writes; a pivot of +-1, most of them on the matching graphs, is
its own inverse and scales nothing.  Arithmetic in F_p is exact, so a pivot
that vanishes mod p only changes which pivot is taken: every prime gives
the true residue, and none is "unlucky".  The primes lie below 2^30, so
mod one prime every residue, inverse and multiplier is one 30-bit digit of
a CPython int, which takes the interpreter's single-digit fast paths.

The number of primes is fixed in advance by a proven bound B on the
magnitude of the result (of each coefficient over Z[q]): their product, the
modulus, is the first to exceed 2B, and is never chosen because residues
look stable.  Then the result is the unique integer of magnitude below half
the modulus with the computed residue, the symmetric residue, so it is
exact.  The bounds, for an n x n matrix with entries a_ij:

* det over Z: Hadamard, |det M| <= prod_i ||row_i||_2, compared through
  squares in integers (modulus^2 > 4 prod_i sum_j a_ij^2).
* Pf over Z: the square root of the Hadamard bound, since Pf^2 = det
  (modulus^4 > 16 prod_i sum_j a_ij^2).
* Z[q]: each coefficient obeys Goldstein-Graham,
  |c_k| <= prod_i (sum_j ||a_ij||_1^2)^(1/2): on |q| = 1 every entry has
  modulus at most ||a_ij||_1, Hadamard bounds |det M(q)| there, and no
  coefficient exceeds the maximum modulus on the unit circle.  Pf again
  takes the square root.
* det over Z[q] with ``det``'s ``one_sign`` flag: N = |det M(1)|
  (modulus > 2N).  The caller sets the flag once it has proven that the
  coefficients of det M(q) all have one sign; then they sum to +-N, and
  so |c_k| <= N.  That holds when M is the bipartite matrix of a
  flat-signed plane graph whose edge weights have nonnegative
  coefficients: by Kasteleyn, flatness gives every perfect matching the
  same sign in det M, so det M(q) = +-sum over matchings of the weight
  products.  The kernel cannot see flatness, so
  ``kasteleyn.weighted_matching_sum`` checks both facts on the signing it
  uses.  The kernel finds N itself, by the integer route on M(1) that
  every call runs (below), so no caller passes a number it could get
  wrong.  On the
  q boxes N has about half the bits of Goldstein-Graham's bound (73
  against 145 at 8x8x8), so the CRT takes about half the primes.

Over Z the kernel eliminates once per group of at most ``_GROUP`` primes,
modulo their product m: Z/m is the product of the fields F_p, a pivot that
is a unit mod m is a unit mod every p, and an entry that is 0 mod m is 0
mod every p, so the one pass is the elimination over every F_p of the
group at once.  Only a pivot that is nonzero mod m but 0 mod some of the
primes has no inverse; ``pow`` raises for it, and that group falls back to
one elimination per prime, where every nonzero is a unit.  The Chinese
remainder theorem rebuilds the result across the primes of such a group
and across the groups.  The evaluations over Z[q] (below) take the primes
one at a time, with the same rebuild.

Over Z[q] the result is found mod p by evaluation and interpolation across
a proven degree window [L, U] of the matrix whose determinant or Pfaffian is
returned (``_degree_window``: potentials from min-cost assignments, whose
dual feasibility is checked on every nonzero).  For det M the assignments
run on M's own n x n arcs (i, j, lowdeg a_ij, deg a_ij), not on the skew
block.  For a skew matrix A they run on its symmetric arcs and bound
det A = Pf^2, so halving gives Pf's window [ceil(L/2), floor(U/2)].  With
the result's window [lo, hi], the result at x times x^-lo is a polynomial
Q(x) of degree at most D = hi - lo, found from D + 1 evaluations at
x = 1, 2, ...; the low zero coefficients are prepended after.  When the
support has no perfect matching, the window is empty and the result is the
zero polynomial, with no elimination.  An integer matrix runs none of this.

``det`` may also take a mirror exponent G that the caller has proven, with
det M(q) = q^G det M(1/q) (``kasteleyn._certificates`` proves it for the
q-weighted hexagon from its half-turn).  Then the coefficients of q^k and
q^(G - k) agree, so deg det M = G - lowdeg det M <= G - L: the low
assignment alone gives the window [L, G - L], which is symmetric about G/2,
and Q over it is a palindrome of its degree D: (1 + x) divides it when D
is odd, and Q(x) = x^h R(x + 1/x) (1 + x)^(D mod 2) with h = floor(D/2)
and R of degree h.  So floor(D/2) + 1 evaluations at
x = 1, 2, ... give R at the nodes x + 1/x, and ``_unfold`` rebuilds Q from
R; the evaluations per prime halve.  One Newton interpolation over given
nodes (``_interpolate``, one batch inversion of the gaps per level) serves
both paths.  The nodes must be distinct mod every prime the call uses:
x = 1..m needs m below the smallest prime, and x + 1/x needs m^2 below it
(x + 1/x = y + 1/y means x = y or xy = 1); a wider window raises.

The kernel stores one value slot per unordered pair {i, j} of the support,
A[i][j] for i < j (the Schur complement of a skew matrix is skew).  Every
call first runs the integer route on M(1), which is M itself over Z, under
the given bound (which bounds |Pf(1)|, as q = 1 lies on the unit circle).
It gives Pf(1), and a window of one point, which every integer matrix has,
is Pf(1) alone: no evaluation and no second CRT.  When more points are due,
the route's first elimination that finds a pivot at every step, modulo a
group's product or, in the fallback, one prime, records each pivot's
update as flat int lists while it runs (``_pf_mod``); fill takes new slots,
and a slot that is 0 there stays in the support, because it need not be 0
in another evaluation.  That is the one source of the program.  Every prime
takes its value at x = 1 from Pf(1), and the points x >= 2 replay the
recorded updates, with no pivot search and no per-row dicts, a block of
``_BLOCK`` points of one prime at a time (``_replay_block``: one list
comprehension per op across the block; a pivot that holds one value on
every lane takes one ``pow``, or none when that value is 1 or p - 1, and
the others one batch inversion per pivot).  A point whose planned pivot is
0 mod p is eliminated afresh on its own, so every residue stays exact.
When Pf(1) = 0, no elimination of M(1) finds a pivot at every step,
nothing is recorded, and every point is eliminated afresh.

Rows and columns stand for unordered vertex sets (the matrix builders order
them by vertex id only to be deterministic), so only the absolute determinant /
absolute Pfaffian is well defined; all public entry points return
nonnegative integers or sign-normalized polynomials (lowest-degree
coefficient positive).

Everything here is pure and immutable; safe to call from multiple threads.
"""

from __future__ import annotations

import math
from functools import lru_cache
from heapq import heapify, heappop, heappush
from operator import itemgetter
from typing import Iterable, NamedTuple, Optional, Union

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
        # a constant equals its int (zero equals 0), so it hashes like it
        cs = self.coeffs
        return hash(cs) if len(cs) > 1 else hash(cs[0] if cs else 0)

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


class ExactMatrix(NamedTuple):
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
        at = {}
        for i, j, a in cells:
            ij = i, j
            at[ij] = at[ij] + a if ij in at else a
        row_major = sorted(at.items(), key=itemgetter(0))
        nz = tuple((i, j, _as_poly(a) if poly else a) for (i, j), a in row_major if a)
        return ExactMatrix(nrows, ncols, nz, poly)

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
    """The k-th prime below 2^30 counting down, with _prime(0) = 2^30 - 35."""
    n = (1 << 30) - 1 if k == 0 else _prime(k - 1) - 2
    while not _is_prime(n):
        n -= 2
    return n


# Primes per integer elimination: a product of k primes beats k passes, but
# CPython's multi-digit arithmetic grows quadratically with k.  Per prime, a
# pass over class 1's 24^3 matrix took 57 ms alone, 6.7 ms in 16 primes,
# 7.8 in 32, 10.2 in 45 and 13.3 in 60 (best of 5); 36^3 (102 primes) took
# 7.3 s in one modulus, 10.5 s one prime at a time, 2.8 s in groups of 16
# and 3.1 s in groups of 32 (best of 2).  Counting class 1 took 1.02 s at
# 30^3 (71 primes) in groups of 16 against 1.19 s in groups of 32, and
# 0.35 s against 0.39 s at 24^3 (45 primes), but 55 ms against 48 ms at
# 16^3 (20 primes: 16 and 4 against one group; medians of 4 to 6 runs).
# In-process on a 2-vCPU VM, CPython 3.11.
_GROUP = 16

# Points per block replay; memory is O(slots x _BLOCK) for any window.  On the
# q-volume benchmark (10 s runs, 2-vCPU Xeon VM) widths 16 / 24 / 32 / 48 / 64
# took 0.077 / 0.075 / 0.069 / 0.066 / 0.063 reference s against 0.134 for a
# one-point replay, and peak RSS +0.3 / +0.4 / +0.4 / +0.6 / +0.7 MiB over it.
_BLOCK = 32


def _pf_mod(n: int, pairs, vals, p: int, record: bool = False):
    """Signed Pfaffian mod p of the n x n skew matrix with A[i][j] = a and
    A[j][i] = -a for each (i, j) in ``pairs``, i < j, and a the value at the
    same place in ``vals``, reduced mod p; n is even.

    Each unordered pair {i, j} of the support holds one value slot, A[i][j]
    for i < j; the pairs take slots 0, 1, ... in order, and fill takes new
    ones.  A step picks a vertex u of minimum degree and its neighbour v of
    minimum degree with A[u][v] nonzero (a heap of the ints degree * n +
    vertex, which order as the pairs (degree, vertex)), and eliminates the
    pair by the 2x2 Schur update, applied in the loop that finds its slots.
    A slot whose value becomes 0 stays in the support, so a replay at
    another prime or point finds every slot it may need; degrees count the
    support.  On a bipartite block this is sparse LU: fill stays between
    rows and columns.  The Pfaffian is the product of the pivots times the
    sign of the permutation that lists them in order.  A pivot of 1 or
    p - 1 scales nothing; any other with an update to apply takes one
    ``pow``.  p may be a product of distinct primes; then a pivot that is
    nonzero but not a unit mod p makes ``pow`` raise ValueError.

    Returns the Pfaffian and, when ``record`` is set, the program that
    replays this elimination (``_replay_block``); the program is None when a
    row runs out of nonzeros, so that the Pfaffian is 0 mod p.
    """
    adj = [{} for _ in range(n)]  # adj[i][j]: the slot of {i, j}
    for s, (i, j) in enumerate(pairs):
        adj[i][j] = adj[j][i] = s
    val = list(vals)  # val[slot]: A[i][j] mod p for i < j
    deg = [len(r) for r in adj]  # -1 once eliminated
    degree = deg.__getitem__
    # degree * n + vertex: every live vertex i has deg[i] * n + i here, and
    # a key whose degree is not its vertex's is stale and skipped
    heap = [d * n + i for i, d in enumerate(deg)]
    heapify(heap)
    order, pivots, steps = [], [], []
    pf = 1
    for _ in range(n // 2):
        while True:
            d, u = divmod(heappop(heap), n)
            if deg[u] == d:
                break
        au = adj[u]
        v = min(au, key=degree, default=None)
        if v is None or not val[au[v]]:
            v = min((j for j, s in au.items() if val[s]), key=degree, default=None)
            if v is None:
                return 0, None
        if v < u:
            u, v = v, u
        au, av = adj[u], adj[v]
        adj[u] = adj[v] = None
        deg[u] = deg[v] = -1
        s = au.pop(v)
        del av[u]
        a = val[s]
        pf = pf * a % p
        order += (u, v)
        pivots.append(s)
        for x in au:
            del adj[x][u]
        for x in av:
            del adj[x][v]
        if au and av:
            # The Schur update adds (A[v][x] A[u][y] - A[u][x] A[v][y]) / A[u][v]
            # to A[x][y].  One op per x ~ v, y ~ u, x != y adds the first term
            # to the slot of {x, y}, and the op of the mirrored pair (y, x)
            # brings the second.  With c[i] = val[xs[i]] / A[u][v], the op
            # adds c[i] val[t] when (x < y) == ((v < x) == (u < y)), which
            # orients the three slots it reads and writes, and subtracts it
            # otherwise; the program records ci = i to add and i + nx to
            # subtract.  Here every op adds a product of residues: g holds
            # the sign of u < y, and the op takes cx or cn = p - cx by
            # x < y, the two swapped when x < v.  No op writes a slot of u
            # or v, which c and g read.
            xs = list(av.values())
            nx = len(xs)
            if a == 1:
                c = [val[t] for t in xs]
            elif a == p - 1:
                c = [p - val[t] for t in xs]
            else:
                ainv = pow(a, -1, p)
                c = [val[t] * ainv % p for t in xs]
            ys = [(y, t, val[t] if u < y else p - val[t]) for y, t in au.items()]
            dst, ci, src = [], [], []
            for i, (x, cx) in enumerate(zip(av, c)):
                ax = adj[x]
                cn = p - cx
                if x < v:
                    cx, cn = cn, cx
                for y, t, g in ys:
                    if x != y:
                        d = ax.get(y)
                        if d is None:
                            d = ax[y] = adj[y][x] = len(val)
                            val.append(0)
                        val[d] = (val[d] + (cx if x < y else cn) * g) % p
                        if record:
                            dst.append(d)
                            ci.append(i if (x < y) == ((v < x) == (u < y)) else i + nx)
                            src.append(t)
            if record:
                steps.append((s, xs, dst, ci, src))
        for i in (*au, *av):
            d = len(adj[i])
            if d != deg[i]:
                deg[i] = d
                heappush(heap, d * n + i)
    even = _is_even(order)
    program = (len(val), pivots, steps, even) if record else None
    return (pf if even else p - pf), program


def _replay_block(program, vals, p: int):
    """The Pfaffians mod p that ``_pf_mod`` finds on the support it recorded
    ``program`` on, for a block of evaluations at once, by the recorded steps
    alone: vals holds one list per pair, its values (reduced mod p) across the
    block's lanes.  Returns one Pfaffian per lane, None where a planned pivot
    is 0 mod p and the caller must eliminate afresh.

    A step (s, xs, dst, ci, src) is one pivot's update as ``_pf_mod`` ran it:
    with a = val[s], c[i] = val[xs[i]] / a and c[i + len(xs)] = -c[i],
    val[dst[k]] += c[ci[k]] * val[src[k]] for every k.  Each op is one list
    comprehension across the lanes, and a step makes only the c[i] its ops
    read (a determinant's ops all read -c).  A pivot that holds one value on
    every lane takes one ``pow``, none when that value is 1 or p - 1, which
    are their own inverses (then c of one sign is the source list itself and
    the other its negation); when it is 0 every lane gets None at once.
    Other pivots' inverses take one ``pow`` together (``_inverses``), with 1
    standing in for a lane whose pivot is 0 mod p.  That lane's values are
    then wrong, but its pivot slot keeps the 0, so its pivot product is 0
    and it gets None.
    """
    size, pivots, steps, even = program
    w = len(vals[0])
    val = vals + [[0] * w] * (size - len(vals))  # lists are replaced, never changed
    for s, xs, dst, ci, src in steps:
        a = val[s]
        nx = len(xs)
        c = dict.fromkeys(ci)  # only the multipliers some op reads
        if a.count(a[0]) == w:  # one pivot across the lanes
            if not a[0]:
                return [None] * w
            inv = a[0] if a[0] == 1 or a[0] == p - 1 else pow(a[0], -1, p)
            for k in c:
                m, ct = inv if k < nx else p - inv, val[xs[k % nx]]
                if m == 1:
                    c[k] = ct
                elif m == p - 1:
                    c[k] = [p - e for e in ct]
                else:
                    c[k] = [e * m % p for e in ct]
        else:
            inv = _inverses([e or 1 for e in a], p)
            neg = [p - e for e in inv]
            for k in c:
                c[k] = [e * f % p for e, f in zip(val[xs[k % nx]], inv if k < nx else neg)]
        for d, k, t in zip(dst, ci, src):
            val[d] = [(e + f * g) % p for e, f, g in zip(val[d], c[k], val[t])]
    pf = [1] * w
    for s in pivots:
        pf = [e * f % p for e, f in zip(pf, val[s])]
    return [None if not e else e if even else p - e for e in pf]


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


def _inverses(a, p: int):
    """The inverses mod p of the units a, by one ``pow`` (Montgomery's batch
    inversion: prefix products, one inverse, then walk back)."""
    pre, acc = [], 1  # pre[i]: the product of a[:i]
    for e in a:
        pre.append(acc)
        acc = acc * e % p
    inv, out = pow(acc, -1, p), []  # inv: 1 / the product of a[:i + 1]
    for e, f in zip(reversed(a), reversed(pre)):
        out.append(inv * f % p)
        inv = inv * e % p
    out.reverse()
    return out


def _interpolate(xs, ys, p: int):
    """Coefficients, lowest first, of the polynomial over F_p of degree
    below len(ys) that takes the value ys[t] at xs[t]; the nodes xs must be
    distinct mod p.  Newton's divided differences, with one batch inversion
    of the gaps per level."""
    c = list(ys)
    n = len(c)
    for k in range(1, n):  # c[i] becomes f[xs[i - k] .. xs[i]] for i >= k
        gaps = _inverses([b - a for a, b in zip(xs, xs[k:])], p)
        c[k:] = [(b - a) * g % p for a, b, g in zip(c[k - 1:-1], c[k:], gaps)]
    poly = [c[-1]]
    for t in range(n - 2, -1, -1):  # poly = poly * (q - xs[t]) + c[t]
        x = xs[t]
        poly = [(lo - x * hi) % p for lo, hi in zip([0] + poly, poly + [0])]
        poly[0] = (poly[0] + c[t]) % p
    return poly


def _unfold(r, odd: int, p: int):
    """Coefficients, lowest first, of Q(q) = q^h R(q + 1/q) (1 + q)^odd over
    F_p, where R has the coefficients r and degree h = len(r) - 1: the
    palindrome of degree 2h + odd whose half ``_pfaffian`` interpolated.
    Horner in y = q + 1/q: with T = q^i P(q + 1/q) for the top i + 1
    coefficients P of R, the next T is T (q^2 + 1) + r q^(i + 1)."""
    t = [r[-1]]
    for i, c in enumerate(reversed(r[:-1])):
        t = [(a + b) % p for a, b in zip(t + [0, 0], [0, 0] + t)]
        t[i + 1] = (t[i + 1] + c) % p
    if odd:
        t = [(a + b) % p for a, b in zip(t + [0], [0] + t)]
    return t


def _assignment_duals(n: int, arcs):
    """Potentials (u, v) of a min-cost perfect assignment of rows 0..n-1 to
    columns 0..n-1 over the arcs (i, j, c): u_i + v_j <= c on every arc, and
    sum(u) + sum(v) is the minimum cost.  None when no perfect assignment
    exists.

    Start from u_i = the least cost in row i and v = 0, and match greedily
    along the arcs that are then tight (c = u_i), each row to the first free
    column.  Then successive shortest paths: each row still free is matched
    along the shortest alternating path (Dijkstra over a heap) under the
    reduced costs c - u_i - v_j >= 0.  Every node settled before the free
    column at distance d moves its potential by d minus its own distance,
    which keeps every reduced cost nonnegative and makes the matched arcs
    tight.  The search state lives in lists indexed by column, and after
    each search only the columns it reached are reset, so a search costs
    what it reaches.
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
    for i, row in enumerate(adj):
        ui = u[i]
        for j, c in row:
            if c == ui and row_of[j] < 0:
                row_of[j], col_of[i] = i, j
                break
    reach = [None] * n  # per column: its least distance from row s so far
    pred = [-1] * n  # per column: the row it was reached from
    done = [False] * n  # per column: settled
    for s in range(n):
        if col_of[s] >= 0:
            continue
        settled, reached, heap = [], [], []
        i, d = s, 0
        while True:
            di = d - u[i]
            for j, c in adj[i]:
                if not done[j]:
                    dj = di + c - v[j]
                    r = reach[j]
                    if r is None or dj < r:
                        if r is None:
                            reached.append(j)
                        reach[j] = dj
                        pred[j] = i
                        heappush(heap, (dj, j))
            while heap and done[heap[0][1]]:
                heappop(heap)
            if not heap:
                return None
            d, j = heappop(heap)
            done[j] = True
            settled.append(j)
            if row_of[j] < 0:
                break
            i = row_of[j]  # a matched arc is tight: its row is at distance d too
        u[s] += d
        for k in settled[:-1]:
            u[row_of[k]] += d - reach[k]
            v[k] -= d - reach[k]
        for k in reached:
            reach[k], done[k] = None, False
        while j >= 0:  # flip the alternating path back to row s
            i = pred[j]
            row_of[j], col_of[i], j = i, j, col_of[i]
    return u, v


def _degree_window(n: int, triples, skew: bool = False, mirror: Optional[int] = None):
    """(lo, hi) such that every term of the determinant of the n x n matrix
    with the nonzeros ``triples`` (i, j, terms), terms ((k, c_k), ...) in
    increasing k, lies in q^lo .. q^hi; the empty window (0, -1) when its
    support has no perfect matching, so that the determinant is 0.  With
    ``skew`` set, the triples are the entries above the diagonal of a skew
    matrix, and the window is its Pfaffian's.

    The bound rests only on the dual feasibility checked here, on every
    nonzero: with u_i + v_j <= lowdeg a_ij, every term of the Leibniz
    expansion has degree >= sum(u) + sum(v) = L; with s_i + t_j >= deg a_ij,
    degree <= sum(s) + sum(t) = U.  For a skew matrix A, det A = Pf^2, so
    halving gives ceil(L/2) <= lowdeg Pf and deg Pf <= floor(U/2).  With a
    mirror G that the caller has proven, det(q) = q^G det(1/q), the
    coefficients of q^k and q^(G - k) agree, so deg = G - lowdeg <= G - L:
    one assignment gives both ends, and the window [L, G - L] is symmetric
    about G/2.
    """
    arcs = [(i, j, terms[0][0], terms[-1][0]) for i, j, terms in triples]
    if skew:
        arcs += [(j, i, lo, hi) for i, j, lo, hi in arcs]
    duals = _assignment_duals(n, [(i, j, lo) for i, j, lo, _ in arcs])
    if duals is None:
        return 0, -1
    u, v = duals
    if any(u[i] + v[j] > lo for i, j, lo, _ in arcs):
        raise ArithmeticError("degree potentials are not dual feasible")
    low = sum(u) + sum(v)
    if mirror is not None:
        return low, mirror - low
    s, t = ([-x for x in w] for w in _assignment_duals(n, [(i, j, -hi) for i, j, _, hi in arcs]))
    if any(s[i] + t[j] < hi for i, j, _, hi in arcs):
        raise ArithmeticError("degree potentials are not dual feasible")
    high = sum(s) + sum(t)
    return ((low + 1) // 2, high // 2) if skew else (low, high)


def _primes(power: int, bound: int):
    """The primes _prime(0), _prime(1), ... up to the first whose product,
    the modulus, has modulus^power > 2^power * bound."""
    primes, modulus = [], 1
    while modulus**power <= bound << power:
        primes.append(_prime(len(primes)))
        modulus *= primes[-1]
    return primes


def _crt(parts):
    """The symmetric residues: from the (m, residues) pairs, whose moduli m
    are pairwise coprime, the integers of magnitude below half the product
    of the m that take the residues mod each m."""
    residues, modulus = None, 1
    for m, vals in parts:
        if residues is None:
            residues = vals
        else:
            inv = pow(modulus, -1, m)
            residues = [r + modulus * ((v - r) * inv % m) for r, v in zip(residues, vals)]
        modulus *= m
    return [r - modulus if 2 * r > modulus else r for r in residues]


def _integer_pf(n: int, pairs, vals, primes, record: bool = False):
    """The signed Pfaffian over Z of the n x n skew matrix with the integers
    vals on the pairs, exact when the primes' product exceeds twice its
    magnitude, and, when ``record`` is set, the program recorded by the
    first of its eliminations that finds a pivot at every step (None when
    the Pfaffian is 0).  One elimination modulo the product of each group
    of at most ``_GROUP`` primes, unless a pivot is 0 mod some primes of
    the group only; then each prime of that group is eliminated on its
    own."""
    program = None

    def eliminate(m):
        nonlocal program
        pf, recorded = _pf_mod(n, pairs, [a % m for a in vals], m, record and program is None)
        if program is None:
            program = recorded
        return pf

    def residues_mod(group):  # (modulus, residues) pairs whose moduli multiply to the group's
        m = math.prod(group)
        try:
            return [(m, [eliminate(m)])]
        except ValueError:  # a pivot that is 0 mod some of the primes only has no inverse
            return [(p, [eliminate(p)]) for p in group]

    groups = (primes[k : k + _GROUP] for k in range(0, len(primes), _GROUP))
    (pf,) = _crt(part for group in groups for part in residues_mod(group))
    return pf, program


def _pfaffian(n: int, triples, power: int, bound: int, window=None, palindrome: bool = False, one_sign: bool = False):
    """Signed Pfaffian of the n x n skew matrix given by ``triples`` (i, j, a),
    i < j, exact, as a list of coefficients (one for an integer matrix).

    The entries a are integers, or, when a degree ``window`` (lo, hi) is
    given, tuples ((k, c_k), ...) of nonzero coefficients in increasing k,
    and every term of the Pfaffian lies in q^lo .. q^hi.  Every
    coefficient c of the result, and over Z[q] its value at q = 1 too,
    obeys |c|^power <= bound, so the primes stop once their product, the
    modulus, has modulus^power > 2^power * bound.

    The integer route (``_integer_pf``) on M(1) gives Pf(1), and records the
    program when more than one point is due; a one-point window (every
    integer matrix) is Pf(1) alone.  Otherwise each prime takes x = 1 from
    Pf(1) and evaluates x = 2.. across the window, or half of it when
    ``palindrome`` is set (the caller has proven that the coefficients of
    q^(lo + k) and q^(hi - k) agree).  With ``one_sign`` set, the caller has
    proven that the coefficients over Z[q] all have one sign, so that
    N = |Pf(1)| bounds each of them and the evaluations' primes stop once
    their product exceeds 2N.
    """
    if n == 0:
        return [1]
    if bound == 0:  # a zero row
        return [0]
    low, high = window or (0, 0)
    if high < low:
        return [0]  # no matching, an odd-only window for Pf^2, or no room for the mirror
    # Q(x) = Pf(x) x^-low has degree high - low = 2h + odd; a palindrome
    # is x^h R(x + 1/x) (1 + x)^odd with R of degree h
    h, odd = divmod(high - low, 2)
    points = h + 1 if palindrome else high - low + 1
    pairs = [(i, j) for i, j, _ in triples]
    ones = [a if window is None else sum(c for _, c in a) for _, _, a in triples]
    at_one, program = _integer_pf(n, pairs, ones, _primes(power, bound), record=points > 1)
    if low == high or one_sign and at_one == 0:  # one term, or one-sign terms that sum to 0
        return [0] * low + [at_one]
    if one_sign:
        power, bound = 1, abs(at_one)
    primes = _primes(power, bound)
    if (points * points if palindrome else points) >= primes[-1]:
        # the nodes x = 1..points, or x + 1/x, must be distinct mod every p
        raise ValueError(f"degree window of {points} leaves too few evaluation points")
    polys = sorted({terms for _, _, terms in triples})
    index = {terms: k for k, terms in enumerate(polys)}
    keys = [index[terms] for _, _, terms in triples]
    top = max(terms[-1][0] for terms in polys)
    xs = range(1, points + 1)

    def residues_mod(p):
        # Pf(x) at x = 1 from Pf(1), then a block of x >= 2 at a time;
        # interpolate Q at the nodes x, or R at x + 1/x
        pfs = [at_one % p]
        for start in range(2, points + 1, _BLOCK):
            block = range(start, min(start + _BLOCK, points + 1))
            pw = [[1] * len(block)]  # pw[t]: x^t mod p across the lanes
            for _ in range(top):
                pw.append([e * x % p for e, x in zip(pw[-1], block)])
            vals = []
            for (t, c), *rest in polys:  # a monomial c q^t: one product per lane
                row = [c * e % p for e in pw[t]]
                for t, c in rest:
                    row = [(r + c * e) % p for r, e in zip(row, pw[t])]
                vals.append(row)
            vals = [vals[k] for k in keys]
            block_pfs = _replay_block(program, vals, p) if program else [None] * len(block)
            for i, pf in enumerate(block_pfs):
                pfs.append(_pf_mod(n, pairs, [v[i] for v in vals], p)[0] if pf is None else pf)
        if not palindrome:
            ys = [pf * pow(x, -low, p) % p for pf, x in zip(pfs, xs)]
            return p, _interpolate(xs, ys, p)
        # R(x + 1/x) = Q(x) x^-h (1 + x)^-odd
        nodes = [(x + pow(x, -1, p)) % p for x in xs]
        ys = [pf * pow(x, -low - h, p) * pow(1 + x, -odd, p) % p for pf, x in zip(pfs, xs)]
        return p, _unfold(_interpolate(nodes, ys, p), odd, p)

    return [0] * low + _crt(residues_mod(p) for p in primes)


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


def det(m: ExactMatrix, one_sign: bool = False, mirror: Optional[int] = None) -> Scalar:
    """Absolute determinant (sign-normalized for polynomial matrices): the
    kernel's Pfaffian of [[0, M], [-M^T, 0]], which is +-det M.

    Over Z[q] the kernel first finds det M(1) by the integer route, whose
    elimination records the one program the evaluations replay; a window
    of one point is det M(1) times its power of q.  ``one_sign``, when set
    over Z[q], says that the caller has proven that the coefficients of
    det M(q) all have one sign; then N = |det M(1)| bounds each of them,
    and the CRT over Z[q] stops once the modulus exceeds 2N.  ``mirror``,
    when given, is an exponent G that the caller has proven to satisfy
    det M(q) = q^G det M(1/q) over Z[q]; then the coefficients of q^k and
    q^(G - k) agree, and the kernel evaluates half the window, which one
    min-cost assignment on M's rows proves.  The kernel can check neither:
    mixed signs under the flag or a false G give a wrong answer.
    ``kasteleyn.weighted_matching_sum`` certifies both for a flat-signed
    Z[q] matrix with nonnegative weights (G also needs monomial weights and
    a half-turn).  Without them the bound is Hadamard over Z and
    Goldstein-Graham over Z[q], and the window, from two assignments, is
    evaluated in full.  Over Z the flag changes nothing.
    """
    if not m.is_square():
        raise ValueError("determinant of a non-square matrix")
    n = m.nrows
    bound, entries = _bounds(n, m.nonzeros, m.poly)
    window = _degree_window(n, entries, mirror=mirror) if m.poly else None
    block = [(i, n + j, a) for i, j, a in entries]
    return _result(_pfaffian(2 * n, block, 2, bound, window, mirror is not None, one_sign), m.poly)


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
    window = _degree_window(n, upper, skew=True) if m.poly else None
    return _result(_pfaffian(n, upper, 4, bound, window), m.poly)
