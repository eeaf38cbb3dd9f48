"""Brute-force ground truth: partition enumeration, symmetry filtering and
q-sums.

This module is the independent reference the formula and determinant routes
are checked against.  Class 1 (no symmetry) and ``q_sum`` build no partition:
with the box's sides sorted, they walk every prefix of all rows but the
last, as ``enumerate_partitions`` lists them, and add up the rows that may
go under each prefix's last row, by number or by volume
(``_prefix_tallies``).  The other classes prune one way only:
``count_symmetric`` draws their candidates from the partitions fixed by H,
the elements of the class's group that fix the height axis (of e, tau, kappa
and kappa*tau).  Those act on the height matrix cell by cell
(``CELL_RULES``), so ``fixed_partitions`` gives each cell orbit's first cell
a height and the rest of the orbit follows; class 3, whose H is trivial,
builds every partition to compare it with its rho image.  Each candidate
still counts only when each generator's full image
(``symmetry.partition_map``) equals it, so a wrong cell rule can only
undercount.  Nothing is kept from one call to the next.

Both refuse, with ``SizeLimitError`` and before enumerating, a box holding
more than ``MAX_PARTITIONS`` plane partitions (4x5x5 is admitted, 5x5x5 is
not): the budget counts the box's partitions, not the candidates or the
prefixes.  ``q_sum`` also refuses a box whose answer has degree abc over
``MAX_Q_SUM_DEGREE``, before it allocates the coefficients.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from operator import itemgetter
from typing import Callable, Dict, Iterable, Iterator, List, Sequence, Tuple

from .exactalg import QPoly
from .symmetry import (
    KAPPA,
    KAPPA_TAU,
    TAU,
    SymmetryElement,
    group_elements,
    partition_map,
    symmetry_class,
)

Heights = Tuple[Tuple[int, ...], ...]

# The most plane partitions count_symmetric and q_sum enumerate in one box:
# 4x5x5 (1.7e7) is admitted, 5x5x5 (2.7e8) refused.
MAX_PARTITIONS = 2 * 10**7

# The largest q-degree abc whose q_sum is built: the answer has abc + 1
# coefficients, about 100 B of peak RSS each (11 B printed).  Measured
# in-process through cli.main on a 2-vCPU VM, CPython 3.11: 1x1x500000
# 0.4-0.9 s at 63 MiB peak RSS, 1x1x10^6 0.9-1.7 s at 110 MiB.  The
# partition budget alone admits 1x1x19999999; the q formula route reaches
# 1x1x500000 too.
MAX_Q_SUM_DEGREE = 500_000


class SizeLimitError(ValueError):
    """The request exceeds a route's fixed size budget: the oracle's here,
    the matrix route's and the export's (``cli.check_matrix_budget``), the
    q matrix route's (``cli.check_q_budget``), or the formula routes'
    (``cli.check_formula_budget``: formula, q formula and table)."""


def _rows_at_most(bound: Tuple[int, ...]) -> Iterator[Tuple[int, ...]]:
    """Weakly decreasing rows r with r[j] <= bound[j], ascending lex order.

    Each row's successor raises the last cell below its cap (its bound, and
    the cell before it) and zeroes the cells after it."""
    b = len(bound)
    row = [0] * b
    while True:
        yield tuple(row)
        j = b - 1
        while j > 0 and row[j] >= min(bound[j], row[j - 1]):
            j -= 1
        if j < 0 or row[j] >= bound[j]:  # no cells, or cell 0 at its bound too
            return
        row[j] += 1
        row[j + 1 :] = [0] * (b - 1 - j)


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


def _prefix_tallies(a: int, b: int, c: int, tally: Callable) -> Iterator[tuple]:
    """(tally(rows), v) for every prefix of a - 1 rows of a plane partition
    in the box, taken with its sides sorted (a <= b <= c), in the order
    enumerate_partitions lists them: rows are the rows that may go under the
    prefix's last row (under the lid (c,) * b when a = 1), and v is the
    prefix's volume.  Permuting the axes maps the box's partitions, as
    stacks of cubes, onto each other and keeps their volumes, so the walk
    takes as many rows as the shortest side: at most four under the budget.
    Each row is held once with its volume, and the rows under a row, with
    their tallies, are listed once per call.  Rows recur under other rows
    only with three rows or more; with fewer, the rows under each row are
    streamed into its tally and not kept."""
    a, b, c = sorted((a, b, c))
    if not a:  # one partition, the empty one, as in 1 x 0 x c
        a, b = 1, 0
    keep = a > 2
    held: Dict[Tuple[int, ...], tuple] = {}  # row -> (row, its volume)
    lists: Dict[Tuple[int, ...], list] = {}  # row -> the held pairs of the rows under it
    tallies: Dict[Tuple[int, ...], tuple] = {}  # row -> (tally of the rows under it, its volume)
    pairs: Dict[Tuple[int, ...], list] = {}  # row -> the tallies of the rows under it

    def rows_under(bound: Tuple[int, ...]) -> list:
        rows = lists.get(bound)
        if rows is None:
            rows = lists[bound] = [held.setdefault(row, (row, sum(row))) for row in _rows_at_most(bound)]
        return rows

    def tallied(row: Tuple[int, ...], v: int) -> tuple:
        tv = tallies.get(row)
        if tv is None:
            tv = (tally(map(itemgetter(0), rows_under(row)) if keep else _rows_at_most(row)), v)
            if keep:
                tallies[row] = tv
        return tv

    def tallied_under(bound: Tuple[int, ...]) -> list:
        tvs = pairs.get(bound)
        if tvs is None:
            tvs = pairs[bound] = [tallied(row, v) for row, v in rows_under(bound)]
        return tvs

    def ends(depth: int, bound: Tuple[int, ...], vol: int) -> Iterator[tuple]:
        """The prefixes through bound, their row `depth` (the lid is row 0)."""
        if depth == a - 2:
            return ((t, vol + v) for t, v in tallied_under(bound))
        return chain.from_iterable(ends(depth + 1, row, vol + v) for row, v in rows_under(bound))

    lid = (c,) * b
    return iter([tallied(lid, 0)]) if a == 1 else ends(0, lid, 0)


def check_budget(a: int, b: int, c: int) -> None:
    """Raise SizeLimitError when the box holds more than MAX_PARTITIONS
    plane partitions, the most the oracle will enumerate.

    The size is MacMahon's product of (i+j+c-1)/(i+j-1) over i <= a, j <= b,
    with the sides sorted so c is the longest; it decides what to refuse,
    never an answer.  Its factors are multiplied in integers, and the box is
    refused as soon as the product passes MAX_PARTITIONS: every factor is
    1 + c/(i+j-1) > 3/2, so the product only grows, and it passes within 42
    factors whatever the box, which makes the check exact and O(1)."""
    if a < 0 or b < 0 or c < 0:
        raise ValueError(f"negative box side in {(a, b, c)}")
    x, y, z = sorted((a, b, c))
    num = den = 1
    for i in range(1, x + 1):
        for j in range(1, y + 1):
            num *= i + j + z - 1
            den *= i + j - 1
            if num > MAX_PARTITIONS * den:
                raise SizeLimitError(
                    f"box {a}x{b}x{c} holds more than {MAX_PARTITIONS} plane "
                    f"partitions, the most the oracle enumerates"
                )


# The elements that fix the height axis act on the height matrix cell by cell:
# g sends cell (i, j) of an a x b box to the cell (i', j') returned, where the
# image's height is the height at (i, j), complemented (c - h) if flagged.
CELL_RULES: Dict[SymmetryElement, Callable[[int, int, int, int], Tuple[int, int, bool]]] = {
    TAU: lambda i, j, a, b: (j, i, False),
    KAPPA: lambda i, j, a, b: (a - 1 - i, b - 1 - j, True),
    KAPPA_TAU: lambda i, j, a, b: (a - 1 - j, b - 1 - i, True),
}


def fixed_partitions(rules: Sequence[Callable], a: int, b: int, c: int) -> Iterator[Heights]:
    """Every plane partition in the box that the cell rules fix, once each,
    as a stream; the rules are those of the non-identity elements of a
    group, and the box is one the group fixes.

    Cell orbits are taken in row-major order of their first cells.  An
    orbit's heights are v or c - v for one v, and v = c/2 when some cell is
    both.  Each pair of neighbouring cells bounds v in the later of their
    orbits by heights already decided, so each v in range is monotone with
    every height decided so far."""
    n = a * b
    if not n:
        yield ((),) * a
        return
    # Slot k holds the height of cell k, slot n + k its complement, and the
    # four after them 0, c, ceil(c/2) and floor(c/2).
    zero, top, half_up, half_down = range(2 * n, 2 * n + 4)
    where: Dict[int, Tuple[int, bool]] = {}  # cell -> (its orbit, whether c - v)
    # per orbit: the slots that hold v, and those that bound v below and above
    reads_v: List[List[int]] = []
    lows: List[set] = []
    highs: List[set] = []
    for r in range(n):
        if r in where:
            continue
        i, j = divmod(r, b)
        flags = {r: {False}}
        for rule in rules:
            i2, j2, flag = rule(i, j, a, b)
            flags.setdefault(i2 * b + j2, set()).add(flag)
        both = any(len(f) == 2 for f in flags.values())
        lows.append({zero, half_up} if both else {zero})
        highs.append({top, half_down} if both else {top})
        where.update((k, (len(reads_v), max(f))) for k, f in flags.items())
        reads_v.append([k + n * max(f) for k, f in flags.items()])
    for k in range(n):
        for p in (k - b, k - 1) if k % b else (k - b,):
            if p < 0:
                continue
            (op, fp), (ok, fk) = where[p], where[k]  # height p >= height k
            if op == ok:
                if fp != fk:  # c - v >= v, or v >= c - v
                    (highs if fp else lows)[op].add(half_down if fp else half_up)
            elif op > ok:  # v >= height k, or c - v >= height k
                (highs if fp else lows)[op].add(k + n * fp)
            else:  # height p >= v, or height p >= c - v
                (lows if fk else highs)[ok].add(p + n * fk)

    val = [0] * (2 * n) + [0, c, (c + 1) // 2, c // 2]
    get = val.__getitem__
    reads_w = [[(k + n) % (2 * n) for k in slots] for slots in reads_v]

    def choices(s: int) -> Iterator[int]:
        return iter(range(max(map(get, lows[s])), min(map(get, highs[s])) + 1))

    last = len(reads_v) - 1
    todo = [choices(0)] + [iter(())] * last  # per orbit, the values of v left to try
    s = 0
    # one loop, not a generator per orbit, which would pass each partition
    # up through all of them
    while s >= 0:
        for v in todo[s]:
            for k in reads_v[s]:
                val[k] = v
            for k in reads_w[s]:
                val[k] = c - v
            if s == last:
                yield tuple(tuple(val[k:k + b]) for k in range(0, n, b))
            else:
                s += 1
                todo[s] = choices(s)
                break
        else:
            s -= 1


def count_symmetric(class_id: int, a: int, b: int, c: int) -> int:
    """Number of partitions invariant under every generator of the class."""
    cls = symmetry_class(class_id)
    box = (a, b, c)
    if not cls.box_fixed(box):
        return 0
    check_budget(a, b, c)
    if not cls.generators:  # class 1: every partition counts, so none is built
        return sum(n for n, _ in _prefix_tallies(a, b, c, lambda rows: sum(1 for _ in rows)))
    maps = [partition_map(g, box) for g in cls.generators]
    # the cell-by-cell walk is far slower than the row enumerator when it
    # prunes nothing, so class 3 takes every partition
    rules = [CELL_RULES[g] for g in group_elements(cls) if g in CELL_RULES]
    n = 0
    for pp in fixed_partitions(rules, a, b, c) if rules else enumerate_partitions(a, b, c):
        for act in maps:
            if act(pp) != pp:
                break
        else:
            n += 1
    return n


def q_sum(a: int, b: int, c: int) -> QPoly:
    """Sum of q^(volume) over all plane partitions in the box: for each
    prefix of all rows but the last, the volumes of the rows that may go
    under its last row, shifted by the prefix's volume.  Raises
    SizeLimitError, before any work, past MAX_Q_SUM_DEGREE or the partition
    budget."""
    check_budget(a, b, c)
    if a * b * c > MAX_Q_SUM_DEGREE:
        raise SizeLimitError(
            f"box {a}x{b}x{c} has q-degree {a * b * c}; the oracle's q-sum takes at most {MAX_Q_SUM_DEGREE}"
        )
    coeffs = [0] * (a * b * c + 1)
    for hist, vol in _prefix_tallies(a, b, c, lambda rows: Counter(map(sum, rows)).items()):
        for v, n in hist:
            coeffs[vol + v] += n
    return QPoly(coeffs)

