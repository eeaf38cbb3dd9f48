"""Brute-force ground truth: partition enumeration, symmetry filtering and
q-sums.

This module is the independent reference the formula and determinant routes
are checked against.  Class 1 (no symmetry) and ``q_sum`` build no partition:
with the box's sides sorted, one loop over the rows under the lid carries,
for each row, the number of chains of rows that end at it, by number or
packed by volume (``_row_transfer``); a box of one row streams its rows.
The other classes prune one way only: ``count_symmetric`` draws their
candidates from the partitions fixed by H, the elements of the class's group
that fix the height axis (of e, tau, kappa and kappa*tau).  Those act on the height matrix cell by cell
(``CELL_RULES``), so ``fixed_partitions`` gives each cell orbit's first cell
a height and the rest of the orbit follows; class 3, whose H is trivial,
builds every partition to compare it with its rho image.  Each candidate
still counts only when each generator's full image
(``symmetry.partition_map``) equals it, so a wrong cell rule can only
undercount.  Nothing is kept from one call to the next.

Both refuse, with ``SizeLimitError`` and before enumerating, a box holding
more than ``MAX_PARTITIONS`` plane partitions (4x5x5 is admitted, 5x5x5 is
not): the budget counts the box's partitions, not the candidates or the
rows.  ``q_sum`` also refuses a box whose answer has degree abc over
``MAX_Q_SUM_DEGREE``, before it allocates the coefficients.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from operator import lshift
from typing import Callable, Dict, Iterable, Iterator, List, Sequence, Tuple, Union

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

# Bits per coefficient in q_sum's packed ints: no coefficient passes the
# box's partition count, which the budget holds to MAX_PARTITIONS.
Q_FIELD_BITS = MAX_PARTITIONS.bit_length()


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


def _row_transfer(a: int, b: int, c: int, width: int) -> Union[int, List[int]]:
    """The box's plane partitions, counted by one loop over their rows: with
    width 0 their number, else the q-sum's coefficients by volume.

    With the sides sorted (a <= b <= c) a partition is a chain of a weakly
    decreasing rows of b cells under the lid (c,) * b, each row at most the
    one above it cell by cell.  Permuting the axes maps the box's
    partitions, as stacks of cubes, onto each other and keeps their volumes,
    so the loop takes as many rows as the shortest side.  It holds f[k], the
    number of chains that end at row k, times 2 ** (width * |row k|).  Each
    new row takes the sum of f over the rows at or above it, built one cell
    at a time in descending lex order: raising cell j raises the cells
    before it too, so every state stays a weakly decreasing row.  The
    q-sum's coefficients are packed `width` bits apart; each counts some of
    the box's partitions, so a width of MAX_PARTITIONS.bit_length() never
    overflows once the budget is checked.  A box of one row at most streams
    its rows and keeps none."""
    a, b, c = sorted((a, b, c))
    rows = _rows_at_most((c,) * b if a else ())  # ascending lex order
    if a <= 1:
        if not width:
            return sum(1 for _ in rows)
        hist = Counter(map(sum, rows))
        return [hist[v] for v in range(a * b * c + 1)]
    rows = list(rows)
    index = {row: k for k, row in enumerate(rows)}
    ups: List[List[Tuple[int, int]]] = [[] for _ in range(b)]  # per cell, (row, raised row)
    for k in range(len(rows) - 1, -1, -1):
        row = rows[k]
        for j, h in enumerate(row):
            if h < c:
                ups[j].append((k, index[tuple(max(x, h + 1) for x in row[: j + 1]) + row[j + 1 :]]))
    shifts = [width * sum(row) for row in rows]
    f = [1 << s for s in shifts]  # the top row, under the lid
    for _ in range(a - 1):
        for pairs in ups:
            for k, u in pairs:
                f[k] += f[u]
        f = list(map(lshift, f, shifts))
    total = sum(f)
    if not width:
        return total
    mask = (1 << width) - 1
    return [total >> width * v & mask for v in range(a * b * c + 1)]


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
        return _row_transfer(a, b, c, 0)
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
    """Sum of q^(volume) over all plane partitions in the box, by the
    row-transfer loop of the class-1 count with each row's chains shifted
    Q_FIELD_BITS bits per cube.  Raises SizeLimitError, before any work,
    past MAX_Q_SUM_DEGREE or the partition budget."""
    check_budget(a, b, c)
    if a * b * c > MAX_Q_SUM_DEGREE:
        raise SizeLimitError(
            f"box {a}x{b}x{c} has q-degree {a * b * c}; the oracle's q-sum takes at most {MAX_Q_SUM_DEGREE}"
        )
    return QPoly(_row_transfer(a, b, c, Q_FIELD_BITS))

