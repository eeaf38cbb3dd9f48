"""Brute-force ground truth: partition enumeration, symmetry filtering,
q-sums, matching enumeration, and the matching <-> partition bijection.

This module is the independent reference the formula and determinant routes
are checked against, so its counting stays naive: ``count_symmetric`` and
``q_sum`` enumerate every plane partition in the box, and a partition counts
as invariant only when each generator's full image equals it.  Nothing is
pruned and nothing is kept from one call to the next.  What is done once per
call rather than per partition is bookkeeping only: the rows under each bound
are listed once, and each generator's action on the box
(``symmetry.partition_map``) is built once.  ``count_perfect_matchings``
counts each set of uncovered vertices once per call, in a memo dropped when
the call returns.

Both refuse, with ``SizeLimitError`` and before enumerating, a box holding
more than ``MAX_PARTITIONS`` plane partitions (4x5x5 is admitted, 5x5x5 is
not).
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

from .exactalg import QPoly
from .formulas import n_class
from .hexgrid import HexRegion, PlanarMultigraph, build_graph
from .symmetry import CLASSES, partition_map

Heights = Tuple[Tuple[int, ...], ...]

# The most plane partitions count_symmetric and q_sum enumerate in one box:
# 4x5x5 (1.7e7) is admitted, 5x5x5 (2.7e8) refused.
MAX_PARTITIONS = 2 * 10**7


class SizeLimitError(ValueError):
    """The request exceeds a route's fixed size budget: the oracle's here,
    or the q matrix route's (``cli.check_q_budget``)."""


def _rows_at_most(bound: Tuple[int, ...]) -> Iterator[Tuple[int, ...]]:
    """Weakly decreasing rows r with r[j] <= bound[j], ascending lex order."""
    b = len(bound)

    def rec(j: int, prev: int, acc: List[int]) -> Iterator[Tuple[int, ...]]:
        if j == b:
            yield tuple(acc)
            return
        for v in range(0, min(prev, bound[j]) + 1):
            acc.append(v)
            yield from rec(j + 1, v, acc)
            acc.pop()

    yield from rec(0, bound[0] if b else 0, [])


def enumerate_partitions(a: int, b: int, c: int) -> Iterator[Heights]:
    """Every plane partition in the a x b x c box exactly once, sorted."""
    if a < 0 or b < 0 or c < 0:
        raise ValueError("negative box side")
    if a == 0:
        return iter([()])
    if b == 0:
        return iter([((),) * a])
    # Rows come as 1-tuples, ready to append to a prefix.  Each top row
    # bounds the second row once, so those lists are not kept; the rows under
    # a deeper row are listed once per call and reused, each row held once.
    below: Dict[Tuple[int, ...], List[Heights]] = {}
    held: Dict[Tuple[int, ...], Heights] = {}

    def rows_under(prefix: Heights) -> Iterable[Heights]:
        bound = prefix[-1]
        if len(prefix) == 1:
            return ((row,) for row in _rows_at_most(bound))
        rows = below.get(bound)
        if rows is None:
            rows = [held.setdefault(row, (row,)) for row in _rows_at_most(bound)]
            below[bound] = rows
        return rows

    def extend(prefix: Heights) -> Iterator[Heights]:
        """Every partition whose first rows are the prefix."""
        if len(prefix) == a - 1:
            return map(prefix.__add__, rows_under(prefix))
        return chain.from_iterable(extend(prefix + row) for row in rows_under(prefix))

    tops = ((row,) for row in _rows_at_most((c,) * b))
    return tops if a == 1 else chain.from_iterable(map(extend, tops))


def volume(heights: Heights) -> int:
    return sum(sum(r) for r in heights)


def partition_json(heights: Heights) -> str:
    """Height matrix as a JSON array of arrays."""
    import json

    return json.dumps([list(r) for r in heights])


def check_budget(a: int, b: int, c: int) -> None:
    """Raise SizeLimitError when the box holds more than MAX_PARTITIONS
    plane partitions, the most the oracle will enumerate.  The size comes
    from MacMahon's product; it decides what to refuse, never an answer."""
    n = n_class(1, (a, b, c))
    if n > MAX_PARTITIONS:
        raise SizeLimitError(
            f"box {a}x{b}x{c} holds {n} plane partitions; the oracle "
            f"enumerates at most {MAX_PARTITIONS}"
        )


def count_symmetric(class_id: int, a: int, b: int, c: int) -> int:
    """Number of partitions invariant under every generator of the class."""
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


def q_sum(a: int, b: int, c: int) -> QPoly:
    """Sum of q^(volume) over all plane partitions in the box."""
    check_budget(a, b, c)
    coeffs = [0] * (a * b * c + 1)
    for pp in enumerate_partitions(a, b, c):
        coeffs[volume(pp)] += 1
    return QPoly(coeffs)


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
        for e in g.edges_at(v):
            if e.u == e.v:
                continue
            w = g.other_end(e, v)
            if not covered[w]:
                covered[v] = covered[w] = True
                chosen.append(e.eid)
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
        ids = [d[0] for d in f]
        s0, s1 = frozenset(ids[0::2]), frozenset(ids[1::2])
        if len(s0) == 3 and len(s1) == 3:
            moves.append((s0, s1))
    return moves
