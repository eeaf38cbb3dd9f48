"""Brute-force references the tests hold the package's routes against.

No ``ppcount`` route runs any of this, so it lives with the tests:

* exact matrices from dense rows, and Ryser permanents and Hafnians of
  small dense matrices;
* the kernel's earlier interpolation over the equally spaced nodes 1..n;
* hexagon triangle containment, orientation and adjacency, and the action
  of a box symmetry on one triangle, straight from the coordinates, and
  Z(a,b,c) as it was built before its flat int lists;
* the plane-partition predicate, a partition's volume, and the naive
  symmetric count that filters every partition in the box;
* class 6's product over i <= a - 2 on every a x a x 2b box, which
  ``formulas._n6`` takes only when b >= a;
* the ratio identities for classes 1, 3, 5 and 9, each side evaluated on
  its own, and the counts they telescope to, which the tests hold against
  the product formulas;
* flat-orientation checks and the unsigned / symmetric adjacency matrices;
* perfect-matching enumeration and counting, the brute-force weighted
  matching sum, the matching -> partition map and hexagon flip moves.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from ppcount.exactalg import ExactMatrix, QPoly, Scalar
from ppcount.formulas import _exact_div, _immediate, n_class
from ppcount.hexgrid import Edge, EmbeddingError, HexRegion, PlanarMultigraph, RegionError, Triangle, build_graph
from ppcount.kasteleyn import (
    OrientedGraph,
    SignedGraph,
    _against,
    _is_poly,
    bipartite_matrix,
)
from ppcount.oracle import Heights, SizeLimitError, check_budget, enumerate_partitions
from ppcount.symmetry import CLASSES, BoxError, SymmetryElement, box_fixed, partition_map


# ---------------------------------------------------------------------------
# exact matrices
# ---------------------------------------------------------------------------


def _is_zero(x: Scalar) -> bool:
    return (not x) if isinstance(x, QPoly) else x == 0


def from_rows(rows) -> ExactMatrix:
    """The matrix with these dense rows; Z[q] when an entry is a QPoly."""
    rows = [tuple(r) for r in rows]
    nc = len(rows[0]) if rows else 0
    if any(len(r) != nc for r in rows):
        raise ValueError("ragged rows")
    poly = any(isinstance(x, QPoly) for r in rows for x in r)
    cells = ((i, j, x) for i, r in enumerate(rows) for j, x in enumerate(r))
    return ExactMatrix.from_cells(len(rows), nc, cells, poly)


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


def interpolate_equal_spacing(ys, p: int):
    """Coefficients, lowest first, of the polynomial over F_p of degree
    below len(ys) that takes the value ys[t] at t + 1: Newton's divided
    differences, where nodes k apart differ by k."""
    c = list(ys)
    n = len(c)
    for k in range(1, n):
        ik = pow(k, -1, p)
        c[k:] = [(b - a) * ik % p for a, b in zip(c[k - 1:-1], c[k:])]
    poly = [c[-1]]
    for t in range(n - 2, -1, -1):  # poly = poly * (q - (t + 1)) + c[t]
        poly = [(lo - (t + 1) * hi) % p for lo, hi in zip([0] + poly, poly + [0])]
        poly[0] = (poly[0] + c[t]) % p
    return poly


# ---------------------------------------------------------------------------
# hexagon triangles
# ---------------------------------------------------------------------------


#: axis index -> unit vector added to a down triangle to reach its up neighbor
AXES = (Triangle(1, 0, 0), Triangle(0, 1, 0), Triangle(0, 0, 1))


def in_region(t: Triangle, region: HexRegion) -> bool:
    """Whether t is a triangle of the region: within its bounds, with the
    coordinate sum of an up or a down triangle."""
    x, y, z = t
    X, Y, Z = region.bounds
    return 0 <= x <= X and 0 <= y <= Y and 0 <= z <= Z and x + y + z in (region.up_sum, region.up_sum - 1)


def orientation(t: Triangle, region: HexRegion) -> str:
    if not in_region(t, region):
        raise RegionError(f"{t} is not a triangle of {region}")
    return "up" if sum(t) == region.up_sum else "down"


def neighbors(t: Triangle, region: HexRegion) -> List[Triangle]:
    """Adjacent triangles: +e_i from a down triangle, -e_i from an up one."""
    if not in_region(t, region):
        raise RegionError(f"{t} is not a triangle of {region}")
    step = 1 if sum(t) == region.up_sum - 1 else -1
    out = []
    for d in AXES:
        u = Triangle(*(v + step * w for v, w in zip(t, d)))
        if in_region(u, region):
            out.append(u)
    return out


def act_triangle(g: SymmetryElement, t: Triangle, region: HexRegion) -> Triangle:
    """Image of one triangle under g, by the coordinate action itself (the
    permutation, then the flip if comp is set); the box must be fixed by g.
    symmetry._act_region composes its maps from the generators' and must
    agree with this on every element."""
    if not box_fixed(g, region.abc):
        raise BoxError(f"H{region.abc} is not fixed by {g}")
    s = Triangle(*(t[k] for k in g.perm))
    if g.comp:
        s = Triangle(*(B - v for B, v in zip(region.bounds, s)))
    if not in_region(s, region):
        raise EmbeddingError(f"symmetry image {s} left the region")
    return s


# The builder of Z(a,b,c) that its flat int lists replaced, kept as it was: it
# finds each edge by coordinates and makes the Edge objects as it goes.
# hexgrid.build_graph must give the same graph.

# ccw order of the edge axes around a vertex: at a down triangle the edge
# along axis i points at angle 120*i degrees; at an up triangle the reverse
# directions sort ccw as z, x, y.
_DOWN_ORDER = (0, 1, 2)
_UP_ORDER = (2, 0, 1)


def build_graph_reference(region: HexRegion, q_weights: bool = False) -> PlanarMultigraph:
    """The adjacency graph Z(a,b,c) with its planar rotation system.

    Vertex i is region.triangles[i], which is also its label.  Edges always
    run from a down triangle (edge.u) to an up one (edge.v).
    With q_weights=True the edges whose z-coordinate changes get weight q^x;
    those matched edges are the "column top" lozenges, and x counts the
    column steps, so the weight of a matching is q^(partition volume) times
    a constant absorbed by normalization against the empty partition.
    """
    tri = region.triangles
    X, Y, _ = region.bounds
    S = region.up_sum
    # a triangle is determined by x, y and whether it is up; the down
    # triangle (x, y, z) meets the up triangles at (x+1, y), (x, y+1) and
    # (x, y), one per axis.  A spare row and column of -1 keep the
    # neighbours of the last ones in range.
    W = Y + 2
    at = [-1] * (2 * W * (X + 2))  # 2 * (x * W + y) + up -> vertex id
    for i, (x, y, z) in enumerate(tri):
        at[2 * (x * W + y) + (x + y + z == S)] = i
    edges: List[Edge] = []
    slots = [[-1, -1, -1] for _ in tri]  # vertex id -> edge id per axis
    ups = []
    for i, (x, y, z) in enumerate(tri):
        if x + y + z == S:
            ups.append(i)
            continue
        up = 2 * (x * W + y) + 1
        for ax, j in enumerate((at[up + 2 * W], at[up + 2], at[up])):
            if j >= 0:
                w: object = 1
                if q_weights and ax == 2:
                    w = QPoly.q_power(x)
                elif q_weights:
                    w = QPoly.const(1)
                eid = len(edges)
                edges.append(Edge(eid, i, j, w))
                slots[i][ax] = slots[j][ax] = eid
    up_ids = frozenset(ups)
    rotation = [
        [2 * s[ax] + 1 for ax in _UP_ORDER if s[ax] >= 0]
        if i in up_ids
        else [2 * s[ax] for ax in _DOWN_ORDER if s[ax] >= 0]
        for i, s in enumerate(slots)
    ]
    g = PlanarMultigraph(tri, edges, rotation, (up_ids, frozenset(range(len(tri))) - up_ids))
    g.assert_valid_embedding()
    return g


# ---------------------------------------------------------------------------
# plane partitions
# ---------------------------------------------------------------------------


def is_plane_partition(heights, box) -> bool:
    a, b, c = box
    if len(heights) != a or any(len(r) != b for r in heights):
        return False
    for i in range(a):
        for j in range(b):
            v = heights[i][j]
            if not 0 <= v <= c:
                return False
            if j + 1 < b and heights[i][j + 1] > v:
                return False
            if i + 1 < a and heights[i + 1][j] > v:
                return False
    return True


def volume(heights: Heights) -> int:
    return sum(sum(r) for r in heights)


def rows_at_most_recursive(bound):
    """Weakly decreasing rows r with r[j] <= bound[j] in ascending lex
    order, one recursion level per cell."""
    b = len(bound)

    def rec(j, prev, acc):
        if j == b:
            yield tuple(acc)
            return
        for v in range(min(prev, bound[j]) + 1):
            acc.append(v)
            yield from rec(j + 1, v, acc)
            acc.pop()

    yield from rec(0, bound[0] if b else 0, [])


def count_symmetric_naive(class_id: int, a: int, b: int, c: int) -> int:
    """Number of partitions invariant under every generator of the class,
    each partition in the box enumerated and each generator's image taken."""
    cls = CLASSES[class_id]
    box = (a, b, c)
    if not cls.box_fixed(box):
        return 0
    check_budget(a, b, c)
    maps = [partition_map(g, box) for g in cls.generators]
    n = 0
    for pp in enumerate_partitions(a, b, c):
        for act in maps:
            if act(pp) != pp:
                break
        else:
            n += 1
    return n


def n6_long_side(a: int, b: int) -> int:
    """Transpose-complementary partitions in an a x a x 2b box, a >= 1:
    C(a + b - 1, a - 1) times the product over i <= a - 2 of
    perm(2b + i + a - 1, a - 1 - i) / perm(i + a - 1, a - 1 - i), about
    a^2 / 2 factors whatever b is."""
    rows = range(1, a - 1)
    num = math.comb(a + b - 1, a - 1) * math.prod(math.perm(2 * b + i + a - 1, a - 1 - i) for i in rows)
    return _exact_div(num, math.prod(math.perm(i + a - 1, a - 1 - i) for i in rows))


# ---------------------------------------------------------------------------
# ratio identities
# ---------------------------------------------------------------------------


def _ratio1(a: int, b: int, c: int) -> Fraction:
    """N1(a+1,b+1,c-1) / N1(a,b,c) for c >= 1."""
    return Fraction(math.comb(a + b + c, c - 1), math.comb(a + b, a))


def _ratio3(a: int) -> Fraction:
    """N3(a+1,a+1,a+1) / N3(a,a,a) for a >= 1."""
    return Fraction((3 * a + 2) * math.comb(3 * a, a - 1), a * math.comb(2 * a, a))


def _ratio9(a: int) -> Fraction:
    """N9(2a+2,2a+2,2a+2) / N9(2a,2a,2a) for a >= 0."""
    return Fraction(math.comb(3 * a + 1, a) ** 2, math.comb(2 * a, a) ** 2)


def n_class_via_ratios(class_id: int, dims: Tuple[int, int, int]) -> int:
    """Counts for classes 1, 3, 5 and 9 by telescoping their ratio
    identities from the empty box, the unit cube or the empty cube.

    Boxes not fixed by the class and parity zeros give 0, as in
    ``n_class``; other boxes the telescoping does not reach raise
    ValueError.
    """
    if class_id not in (1, 3, 5, 9):
        raise ValueError(f"no ratio telescoping for class {class_id}")
    known = _immediate(class_id, dims)
    if known is not None:
        return known
    a, b, c = dims
    if class_id == 1:
        val = Fraction(1)
        while a > 0 and b > 0:
            a, b, c = a - 1, b - 1, c + 1
            val *= _ratio1(a, b, c)
        # base: an empty-width box holds exactly one (empty) partition
    elif class_id == 3:
        if a == 0:
            return 1
        val = Fraction(2)  # the two cyclic partitions of the unit cube
        for k in range(1, a):
            val *= _ratio3(k)
    elif class_id == 5:
        if a % 2 or b % 2 or c % 2:
            raise ValueError("self-complementary telescoping needs even sides")
        ha, hb, hc = a // 2, b // 2, c // 2
        val = Fraction(1)
        while ha > 0 and hb > 0:
            ha, hb, hc = ha - 1, hb - 1, hc + 1
            val *= _ratio1(ha, hb, hc) ** 2
    else:
        val = Fraction(1)
        for k in range(a // 2):
            val *= _ratio9(k)
    if val.denominator != 1:
        raise ArithmeticError("telescoped ratio is not an integer")
    return int(val)



def ratio_steps(a: int, b: int, c: int) -> List[Tuple[str, Fraction, Fraction]]:
    """The ratio identities that apply at (a, b, c), each as (name, the
    ratio of two n_class counts, the step ``n_class_via_ratios`` multiplies
    by):
    class 1 growth and class 5 on the doubled boxes for c >= 1, class 3
    cyclic growth for a = b = c >= 1, and class 9 for a = b = c.  For the
    cubic identities only a is used."""
    steps = []  # (name, class, numerator box, denominator box, the telescoping step)
    if c >= 1:
        steps.append(("growth-step", 1, (a + 1, b + 1, c - 1), (a, b, c), _ratio1(a, b, c)))
        doubled = ((2 * a + 2, 2 * b + 2, 2 * c - 2), (2 * a, 2 * b, 2 * c))
        steps.append(("self-complementary-step", 5, *doubled, _ratio1(a, b, c) ** 2))
    if a >= 1 and a == b == c:
        steps.append(("cyclic-step", 3, (a + 1,) * 3, (a,) * 3, _ratio3(a)))
    if a == b == c:
        steps.append(("cyclic-self-complementary-step", 9, (2 * a + 2,) * 3, (2 * a,) * 3, _ratio9(a)))
    return [(name, Fraction(n_class(cid, num), n_class(cid, den)), step) for name, cid, num, den, step in steps]


# ---------------------------------------------------------------------------
# flat orientations and plain matrices
# ---------------------------------------------------------------------------


def check_flat_orientation(og: OrientedGraph) -> bool:
    """Whether every face but at most one per component has an odd number
    of edges directed against its tracing sense."""
    g = og.graph
    faces = g.assert_valid_embedding()
    comp_of = [0] * g.n_vertices
    for ci, comp in enumerate(g.components()):
        for v in comp:
            comp_of[v] = ci
    evens_per_comp: Dict[int, int] = {}
    for f in faces:
        if _against(g, f, og.heads) % 2 == 0:
            ci = comp_of[g.tails[f[0]]]
            evens_per_comp[ci] = evens_per_comp.get(ci, 0) + 1
    return all(k <= 1 for k in evens_per_comp.values())


def unsigned_bipartite_matrix(g: PlanarMultigraph) -> Optional[ExactMatrix]:
    return bipartite_matrix(SignedGraph(g, {e.eid: 1 for e in g.edges}))


def symmetric_matrix(g: PlanarMultigraph) -> ExactMatrix:
    """Plain symmetric weighted adjacency matrix (Hafnian oracle input);
    row i is vertex i."""
    cells = []
    for e in g.edges:
        cells += ((e.u, e.v, e.weight), (e.v, e.u, e.weight))
    return ExactMatrix.from_cells(g.n_vertices, g.n_vertices, cells, _is_poly(g))


# ---------------------------------------------------------------------------
# matchings
# ---------------------------------------------------------------------------


def enumerate_matchings(
    g: PlanarMultigraph, max_vertices: int = 34
) -> Iterator[FrozenSet[int]]:
    """All perfect matchings, as frozensets of edge ids.

    Backtracks on the lowest uncovered vertex id.
    """
    n = g.n_vertices
    if n > max_vertices:
        raise SizeLimitError(f"{n} vertices exceeds limit {max_vertices}")
    covered = [False] * n
    chosen: List[int] = []

    def rec(v: int) -> Iterator[FrozenSet[int]]:
        while v < n and covered[v]:
            v += 1
        if v == n:
            yield frozenset(chosen)
            return
        for d in g.rotation[v]:
            w = g.tails[d ^ 1]  # the dart's head
            if w == v:
                continue
            if not covered[w]:
                covered[v] = covered[w] = True
                chosen.append(d >> 1)
                yield from rec(v + 1)
                chosen.pop()
                covered[v] = covered[w] = False

    yield from rec(0)


def count_perfect_matchings(g: PlanarMultigraph) -> int:
    """Exact count of perfect matchings: each set of uncovered vertices, as a
    bitmask, counts the matchings of its lowest vertex with an uncovered
    neighbour times those of the set left over.  The counts are memoised on
    the set, in a dict local to the call, so each set is counted once."""
    n = g.n_vertices
    if n == 0:
        return 1
    if n % 2:
        return 0
    adj = [0] * n
    mult: Dict[Tuple[int, int], int] = {}
    for e in g.edges:
        i, j = e.u, e.v
        if i == j:
            continue
        adj[i] |= 1 << j
        adj[j] |= 1 << i
        key = (min(i, j), max(i, j))
        mult[key] = mult.get(key, 0) + 1

    full = (1 << n) - 1
    memo = {0: 1}  # uncovered set -> its number of perfect matchings

    def rec(uncov: int) -> int:
        total = memo.get(uncov)
        if total is None:
            v = (uncov & -uncov).bit_length() - 1
            total = 0
            m = adj[v] & uncov
            rest = uncov & ~(1 << v)
            while m:
                u = (m & -m).bit_length() - 1
                m &= m - 1
                total += mult[(min(v, u), max(v, u))] * rec(rest & ~(1 << u))
            memo[uncov] = total
        return total

    return rec(full)


def weighted_matching_sum_brute(g: PlanarMultigraph, max_vertices: int = 34):
    """Sum of edge-weight products over perfect matchings (oracle route)."""
    poly = any(isinstance(e.weight, QPoly) for e in g.edges)
    total = QPoly() if poly else 0
    for m in enumerate_matchings(g, max_vertices=max_vertices):
        w = QPoly.const(1) if poly else 1
        for eid in m:
            w = w * g.edge_by_id[eid].weight
        total = total + w
    return total


# ---------------------------------------------------------------------------
# matching -> plane partition
# ---------------------------------------------------------------------------


def matching_to_partition(
    matching, region: HexRegion, graph: Optional[PlanarMultigraph] = None
) -> Heights:
    """Heights of the plane partition drawn by a perfect matching of Z(a,b,c).

    The edges whose z-coordinate changes are the column-top lozenges; within
    the diagonal d = a-1-z they are assigned to the box columns (i, i-d) in
    order of decreasing x, and the height follows from x = b-1-j+k.
    """
    g = graph if graph is not None else build_graph(region)
    tri = g.labels  # Z labels its vertices by their triangles
    a, b, c = region.abc
    eids = set(matching)
    covered: set = set()
    for eid in eids:
        e = g.edge_by_id[eid]
        if e.u in covered or e.v in covered:
            raise ValueError("edge set is not a matching")
        covered.update((e.u, e.v))
    if len(covered) != len(region.triangles):
        raise ValueError("matching is not perfect")

    by_diag: Dict[int, List[int]] = {}
    for eid in eids:
        e = g.edge_by_id[eid]
        u, v = tri[e.u], tri[e.v]
        if u.z != v.z:  # column-top class
            d = a - 1 - u.z
            by_diag.setdefault(d, []).append(u.x)
    heights = [[0] * b for _ in range(a)]
    tops = 0
    for d, xs in by_diag.items():
        xs.sort(reverse=True)
        i0 = max(d, 0)
        cols = [(i, i - d) for i in range(i0, min(a, b + d))]
        if len(cols) != len(xs):
            raise ValueError("column-top lozenges do not match the diagonal")
        for (i, j), x in zip(cols, xs):
            k = x - b + 1 + j
            if not 0 <= k <= c:
                raise ValueError("reconstructed height out of range")
            heights[i][j] = k
            tops += 1
    if tops != a * b:
        raise ValueError("wrong number of column-top lozenges")
    out = tuple(tuple(r) for r in heights)
    for i in range(a):
        for j in range(b):
            v = out[i][j]
            if (j + 1 < b and out[i][j + 1] > v) or (i + 1 < a and out[i + 1][j] > v):
                raise ValueError("reconstructed heights are not monotone")
    return out


def hexagon_flip_moves(g: PlanarMultigraph) -> List[Tuple[FrozenSet[int], FrozenSet[int]]]:
    """Pairs of alternating edge triples around six-sided faces (one move each)."""
    faces = g.assert_valid_embedding()
    moves = []
    for f in faces:
        if len(f) != 6:
            continue
        ids = [d >> 1 for d in f]
        s0, s1 = frozenset(ids[0::2]), frozenset(ids[1::2])
        if len(s0) == 3 and len(s1) == 3:
            moves.append((s0, s1))
    return moves
