"""Brute-force ground truth: partition enumeration, symmetry filtering and
q-sums.

This module is the independent reference the formula and determinant routes
are checked against, so its counting stays naive: ``count_symmetric`` and
``q_sum`` enumerate every plane partition in the box, and a partition counts
as invariant only when each generator's full image equals it.  Nothing is
pruned and nothing is kept from one call to the next.  What is done once per
call rather than per partition is bookkeeping only: the rows under each bound
are listed once, and each generator's action on the box
(``symmetry.partition_map``) is built once.

Both refuse, with ``SizeLimitError`` and before enumerating, a box holding
more than ``MAX_PARTITIONS`` plane partitions (4x5x5 is admitted, 5x5x5 is
not).
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterable, Iterator, List, Tuple

from .exactalg import QPoly
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

