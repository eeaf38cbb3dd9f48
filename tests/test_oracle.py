import itertools
import time

import pytest

from reference import (
    count_perfect_matchings,
    count_symmetric_naive,
    enumerate_matchings,
    hexagon_flip_moves,
    matching_to_partition,
    rows_at_most_recursive,
    volume,
    weighted_matching_sum_brute,
)

from ppcount import oracle
from ppcount.exactalg import QPoly
from ppcount.formulas import n_class, q_box_product
from ppcount.hexgrid import build_graph, build_hexagon, q_weight_graph
from ppcount.oracle import (
    CELL_RULES,
    MAX_PARTITIONS,
    SizeLimitError,
    check_budget,
    count_symmetric,
    enumerate_partitions,
    fixed_partitions,
    q_sum,
)
from ppcount.symmetry import CLASSES, box_fixed, group_elements, partition_map


def test_partition_counts():
    assert sum(1 for _ in enumerate_partitions(1, 1, 1)) == 2
    assert sum(1 for _ in enumerate_partitions(2, 2, 2)) == 20
    assert list(enumerate_partitions(3, 2, 0)) == [((0, 0), (0, 0), (0, 0))]


def test_partitions_are_monotone_and_unique():
    seen = set()
    for pp in enumerate_partitions(2, 3, 2):
        assert pp not in seen
        seen.add(pp)
        for row in pp:
            assert all(row[j] >= row[j + 1] for j in range(len(row) - 1))
        for i in range(len(pp) - 1):
            assert all(pp[i][j] >= pp[i + 1][j] for j in range(len(pp[i])))
    assert len(seen) == 50  # 2x3x2 box: H(7)H(2)H(3)H(2) / (H(5)H(4)H(5))


def test_enumeration_order_is_deterministic():
    once = list(enumerate_partitions(2, 2, 1))
    again = list(enumerate_partitions(2, 2, 1))
    assert once == again == sorted(once)


def test_rows_at_most_lists_the_recursive_rows_in_order():
    # every bound of up to 4 cells with entries up to 4, the empty one too
    for n in range(5):
        for bound in itertools.product(range(5), repeat=n):
            assert list(oracle._rows_at_most(bound)) == list(rows_at_most_recursive(bound)), bound


def _recursive_partitions(a, b, c):
    """The plain recursive generator: rows in ascending lex order, each row
    weakly decreasing and at most the row above, cell by cell."""

    def rows_at_most(bound):
        def rec(j, prev, acc):
            if j == len(bound):
                yield tuple(acc)
                return
            for v in range(0, min(prev, bound[j]) + 1):
                yield from rec(j + 1, v, acc + [v])

        yield from rec(0, bound[0] if bound else 0, [])

    if a == 0:
        yield ()
        return
    if b == 0:
        yield ((),) * a
        return

    def rec(i, prev, acc):
        if i == a:
            yield tuple(acc)
            return
        for row in rows_at_most(prev):
            yield from rec(i + 1, row, acc + [row])

    yield from rec(0, (c,) * b, [])


def test_enumeration_equals_the_recursive_generator_in_order():
    boxes = [(a, b, c) for a in range(4) for b in range(4) for c in range(4)]
    for box in boxes + [(4, 3, 2), (1, 5, 4), (2, 4, 3)]:
        assert list(enumerate_partitions(*box)) == list(_recursive_partitions(*box)), box


def test_oracle_refuses_boxes_over_the_budget_at_once():
    t0 = time.perf_counter()
    with pytest.raises(SizeLimitError):
        count_symmetric(1, 5, 5, 5)
    with pytest.raises(SizeLimitError):
        q_sum(5, 5, 5)
    assert time.perf_counter() - t0 < 1.0
    # the budget admits 4x5x5 (16,818,516 partitions) and refuses 5^3
    assert 16818516 <= MAX_PARTITIONS < 267227532


def _refused(dims):
    try:
        check_budget(*dims)
    except SizeLimitError:
        return True
    return False


def test_budget_decides_as_macmahons_product_does():
    for dims in itertools.product(range(8), repeat=3):
        assert _refused(dims) == (n_class(1, dims) > MAX_PARTITIONS), dims
    assert not _refused((4, 5, 5)) and not _refused((5, 4, 5))
    assert _refused((5, 5, 5))


def test_budget_refuses_huge_boxes_in_constant_time():
    t0 = time.perf_counter()
    with pytest.raises(SizeLimitError):
        check_budget(1000, 1000, 1000)
    with pytest.raises(SizeLimitError):
        check_budget(1, 1, 10**30)
    assert time.perf_counter() - t0 < 0.1
    check_budget(0, 10**30, 10**30)  # a flat box holds one partition
    with pytest.raises(ValueError):
        check_budget(-1, 2, 2)


def test_oracle_within_the_budget_still_answers():
    assert count_symmetric(1, 4, 4, 4) == 232848
    assert count_symmetric(3, 4, 4, 4) == 132


def test_count_symmetric_examples():
    assert count_symmetric(10, 2, 2, 2) == 1
    assert count_symmetric(3, 2, 2, 2) == 5
    for dims in [(1, 1, 1), (2, 2, 2), (2, 1, 3)]:
        assert count_symmetric(1, *dims) == sum(1 for _ in enumerate_partitions(*dims))


def test_oracle_equals_the_naive_count_on_every_fixed_cell_up_to_side_4(oracle_counts):
    assert len(oracle_counts) == 350
    for (cid, dims), n in oracle_counts.items():
        assert n == count_symmetric_naive(cid, *dims), (cid, dims)


def test_class_1_row_count_equals_the_enumeration():
    for box in itertools.product(range(5), repeat=3):
        assert count_symmetric(1, *box) == sum(1 for _ in enumerate_partitions(*box)), box
    admitted = [box for box in itertools.product(range(6), repeat=3) if not _refused(box)]
    assert len(admitted) == 215
    for box in admitted:
        assert count_symmetric(1, *box) == n_class(1, box), box


def test_class_1_walks_as_many_rows_as_the_shortest_side():
    # sorted, 2000x1x1 is 1x1x2000: one row of one cell, whose 2001 heights
    # are streamed and counted, not a loop over 2000 rows
    t0 = time.perf_counter()
    assert count_symmetric(1, 2000, 1, 1) == 2001
    assert q_sum(1, 2000, 1) == QPoly((1,) * 2001)
    assert time.perf_counter() - t0 < 1.0


def test_class_1_count_builds_no_partition(monkeypatch):
    def build(*args):
        raise AssertionError("built a partition to count class 1")

    monkeypatch.setattr(oracle, "enumerate_partitions", build)
    monkeypatch.setattr(oracle, "fixed_partitions", build)
    assert count_symmetric(1, 4, 4, 4) == 232848
    assert count_symmetric(1, 3, 0, 2) == count_symmetric(1, 0, 0, 0) == 1
    assert q_sum(2, 2, 2).subs(1) == 20


@pytest.mark.parametrize(
    "box", [(2, 2, 122), (2, 3, 35), (2, 4, 19), (2, 7, 8), (3, 3, 14), (4, 4, 6)], ids="{0[0]}x{0[1]}x{0[2]}".format
)
def test_row_transfer_on_the_largest_admitted_boxes_of_their_shape(box):
    # the two-row boxes hold 6435 to 8855 row states; the next box of each
    # shape is refused
    check_budget(*box)
    a, b, c = box
    with pytest.raises(SizeLimitError):
        check_budget(a, b, c + 1)
    assert count_symmetric(1, *box) == n_class(1, box)
    assert q_sum(*box) == q_box_product(*box)


def test_q_sum_fields_hold_any_admitted_coefficient():
    assert 2**oracle.Q_FIELD_BITS > MAX_PARTITIONS


def _q_sum_by_enumeration(a, b, c):
    coeffs = [0] * (a * b * c + 1)
    for pp in enumerate_partitions(a, b, c):
        coeffs[volume(pp)] += 1
    return QPoly(coeffs)


def test_q_sum_equals_the_enumeration_and_macmahon():
    for box in itertools.product(range(5), repeat=3):
        assert q_sum(*box) == _q_sum_by_enumeration(*box), box
    for box in [(4, 5, 5), (5, 5, 4)]:
        assert q_sum(*box) == q_box_product(*box), box


@pytest.mark.parametrize(
    "cid, dims",
    [(2, (5, 5, 4)), (5, (4, 5, 5)), (5, (5, 5, 4)), (6, (5, 5, 4)), (7, (5, 5, 4)), (1, (4, 5, 5)), (1, (5, 5, 4))],
)
def test_oracle_equals_the_formula_at_the_budget_edge(cid, dims):
    check_budget(*dims)
    assert count_symmetric(cid, *dims) == n_class(cid, dims)


def _image_by_cell_rule(rule, pp, box):
    a, b, c = box
    image = [[None] * b for _ in range(a)]
    for i in range(a):
        for j in range(b):
            i2, j2, flag = rule(i, j, a, b)
            image[i2][j2] = c - pp[i][j] if flag else pp[i][j]
    return tuple(map(tuple, image))


def test_each_cell_rule_is_the_partition_map():
    for g, rule in CELL_RULES.items():
        boxes = [box for box in itertools.product(range(4), repeat=3) if box_fixed(g, box)]
        assert len(boxes) >= 16
        for box in boxes:
            act = partition_map(g, box)
            for pp in enumerate_partitions(*box):
                assert _image_by_cell_rule(rule, pp, box) == act(pp), (g, box, pp)


def test_fixed_partitions_are_the_fixed_ones_each_once():
    # H: the class group's elements with a cell rule; classes 1 and 3 have none
    groups = {tuple(g for g in group_elements(cls) if g in CELL_RULES): cls for cls in CLASSES.values()}
    assert len(groups) == 5  # and () of classes 1 and 3: every partition, cell by cell
    for elements, cls in groups.items():
        rules = [CELL_RULES[g] for g in elements]
        for box in itertools.product(range(5), repeat=3):
            if not all(box_fixed(g, box) for g in elements) or box == (4, 4, 4):
                continue
            maps = [partition_map(g, box) for g in elements]
            got = list(fixed_partitions(rules, *box))
            assert len(got) == len(set(got)), (cls.name, box)
            want = {pp for pp in enumerate_partitions(*box) if all(act(pp) == pp for act in maps)}
            assert set(got) == want, (cls.name, box)


def test_count_symmetric_unfixed_box_is_zero():
    assert count_symmetric(3, 2, 2, 1) == 0
    assert count_symmetric(2, 2, 1, 1) == 0


def test_q_sum_examples():
    assert q_sum(1, 1, 1) == QPoly((1, 1))
    assert q_sum(2, 2, 0) == QPoly((1,))
    p = q_sum(2, 2, 2)
    assert p.degree() == 8
    assert p.subs(1) == 20


def test_q_sum_is_palindromic():
    for dims in [(1, 1, 1), (2, 2, 2), (3, 2, 1), (3, 3, 3)]:
        p = q_sum(*dims)
        top = dims[0] * dims[1] * dims[2]
        for k in range(top + 1):
            assert p.coefficient(k) == p.coefficient(top - k)


def test_matching_enumeration_six_cycle():
    g = build_graph(build_hexagon(1, 1, 1))
    assert sum(1 for _ in enumerate_matchings(g)) == 2


def test_matching_enumeration_z222():
    g = build_graph(build_hexagon(2, 2, 2))
    assert sum(1 for _ in enumerate_matchings(g)) == 20
    assert count_perfect_matchings(g) == 20


def test_matching_size_limit():
    g = build_graph(build_hexagon(3, 3, 3))
    with pytest.raises(SizeLimitError):
        list(enumerate_matchings(g))
    assert sum(1 for _ in enumerate_matchings(g, max_vertices=60)) == 980


def test_matching_to_partition_flat_box():
    r = build_hexagon(2, 3, 0)
    g = build_graph(r)
    (m,) = list(enumerate_matchings(g))
    assert matching_to_partition(m, r, g) == ((0, 0, 0), (0, 0, 0))


def test_matching_to_partition_bijection_222():
    r = build_hexagon(2, 2, 2)
    g = build_graph(r)
    images = set()
    for m in enumerate_matchings(g):
        images.add(matching_to_partition(m, r, g))
    assert images == set(enumerate_partitions(2, 2, 2))


def test_matching_to_partition_rejects_non_matchings():
    r = build_hexagon(1, 1, 1)
    g = build_graph(r)
    with pytest.raises(ValueError):
        matching_to_partition(frozenset({0, 1}), r, g)


def test_q_weight_matches_partition_volume():
    r = build_hexagon(2, 2, 1)
    g = q_weight_graph(r)
    base = 2 * 2 * (2 - 1) // 2  # weight exponent of the empty partition
    for m in enumerate_matchings(g):
        w = QPoly.const(1)
        for eid in m:
            w = w * g.edge_by_id[eid].weight
        pp = matching_to_partition(m, r, g)
        assert w == QPoly.q_power(volume(pp) + base)


def test_q_sum_agrees_with_weighted_matchings():
    r = build_hexagon(2, 2, 2)
    total = weighted_matching_sum_brute(q_weight_graph(r))
    assert total.shift(-total.low_degree()) == q_sum(2, 2, 2)


def test_elementary_moves_connect_all_matchings():
    for dims in [(1, 1, 1), (2, 2, 2), (2, 2, 1), (2, 1, 2)]:
        g = build_graph(build_hexagon(*dims))
        moves = hexagon_flip_moves(g)
        matchings = list(enumerate_matchings(g, max_vertices=40))
        index = {m: i for i, m in enumerate(matchings)}
        adj = {i: set() for i in range(len(matchings))}
        for m in matchings:
            for s0, s1 in moves:
                if s0 <= m:
                    m2 = (m - s0) | s1
                    if m2 in index:
                        adj[index[m]].add(index[m2])
                        adj[index[m2]].add(index[m])
        seen = {0}
        stack = [0]
        while stack:
            i = stack.pop()
            for j in adj[i]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        assert len(seen) == len(matchings)
