"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance here is exact equality of integers or polynomials.
"""

import math
import random
from fractions import Fraction
from itertools import combinations

from conftest import random_planar_bipartite, random_planar_graph
from reference import (
    count_perfect_matchings,
    from_rows,
    hafnian,
    permanent,
    ratio_steps,
    symmetric_matrix,
    unsigned_bipartite_matrix,
)

from ppcount.cli import compute_count, q_matrix_count
from ppcount.exactalg import det, pfaffian_abs
from ppcount.formulas import n_class, q_box_product
from ppcount.hexgrid import build_graph, build_hexagon
from ppcount.kasteleyn import (
    bipartite_matrix,
    flat_orientation,
    flat_signing,
    skew_matrix,
    weighted_matching_sum,
)
from ppcount.oracle import count_symmetric, q_sum
from ppcount.symmetry import CLASSES, build_parity_gadget, gadget_multigraph, quotient_graph


def _report(name: str, ok: bool):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, name


def _boxes(max_side):
    for a in range(max_side + 1):
        for b in range(max_side + 1):
            for c in range(max_side + 1):
                yield (a, b, c)


def test_criterion_1_three_way_agreement(oracle_counts):
    bad = []
    for cid in CLASSES:
        for dims in _boxes(4):
            if not CLASSES[cid].box_fixed(dims):
                continue
            formula = n_class(cid, dims)
            matrix = weighted_matching_sum(quotient_graph(build_hexagon(*dims), CLASSES[cid]))
            oracle = oracle_counts[cid, dims]
            if not (formula == matrix == oracle):
                bad.append((cid, dims, formula, matrix, oracle))
    _report("criterion 1: formula = determinant/Pfaffian = oracle, sides <= 4", not bad)


def test_criterion_2_specific_values():
    expected = [
        (1, (1, 1, 1), 2),
        (1, (2, 2, 2), 20),
        (3, (2, 2, 2), 5),
        (5, (2, 2, 2), 4),
        (9, (2, 2, 2), 1),
        (9, (4, 4, 4), 4),
        (10, (2, 2, 2), 1),
    ]
    ok = True
    for cid, dims, value in expected:
        routes = (
            n_class(cid, dims),
            weighted_matching_sum(quotient_graph(build_hexagon(*dims), CLASSES[cid])),
            count_symmetric(cid, *dims),
        )
        ok = ok and all(r == value for r in routes)
    _report("criterion 2: pinned counts for classes 1, 3, 5, 9, 10", ok)


def test_criterion_3_permanent_determinant_identity():
    ok = True
    for dims in _boxes(3):
        g = build_graph(build_hexagon(*dims))
        m_signed = bipartite_matrix(flat_signing(g))
        d = det(m_signed)
        if m_signed.nrows <= 20:
            per = permanent(unsigned_bipartite_matrix(g))
        else:
            # Ryser is capped at 20x20; above that use the enumeration count,
            # which the permanent of an adjacency matrix equals by definition
            per = count_perfect_matchings(g)
        ok = ok and d == per == count_perfect_matchings(g)
    rng = random.Random(1729)
    for _ in range(50):
        g = random_planar_bipartite(rng)
        d = det(bipartite_matrix(flat_signing(g)))
        per = permanent(unsigned_bipartite_matrix(g))
        ok = ok and d == per == count_perfect_matchings(g)
    _report("criterion 3: |Det(flat signing)| = permanent, hexagons <= 3 + 50 random", ok)


def test_criterion_4_hafnian_pfaffian_identity():
    ok = True
    produced = []
    for dims in [(1, 1, 1), (2, 1, 1), (1, 2, 1), (2, 2, 0), (3, 1, 1), (1, 3, 1)]:
        g = build_graph(build_hexagon(*dims))
        if g.n_vertices > 14 or g.n_vertices % 2:
            continue
        m = skew_matrix(flat_orientation(g))
        produced.append(m)
        ok = ok and pfaffian_abs(m) == hafnian(symmetric_matrix(g)) == count_perfect_matchings(g)
    rng = random.Random(2718)
    for _ in range(50):
        g = random_planar_graph(rng)
        if g.n_vertices % 2:
            continue
        m = skew_matrix(flat_orientation(g))
        produced.append(m)
        ok = ok and pfaffian_abs(m) == hafnian(symmetric_matrix(g)) == count_perfect_matchings(g)
    for _ in range(30):
        n = rng.choice([2, 4, 6, 8, 10, 12, 14])
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                v = rng.randint(-4, 4)
                m[i][j] = v
                m[j][i] = -v
        produced.append(from_rows(m))
    for m in produced:
        ok = ok and pfaffian_abs(m) ** 2 == det(m)
    _report("criterion 4: Hafnian = |Pfaffian| on graphs and Pf^2 = Det, <= 14x14", ok)


def test_criterion_5_q_enumeration():
    ok = True
    for dims in _boxes(3):
        d = q_matrix_count(dims)
        s = q_sum(*dims)
        ok = ok and d == s
        ok = ok and d.subs(1) == n_class(1, dims)
    _report("criterion 5: normalized q-determinant = q-sum oracle, sides <= 3", ok)


def test_q_matrix_route_equals_macmahon():
    # 6x7x8: a window of 337 points over 2 primes, not a multiple of the block width
    boxes = [*_boxes(4), (5, 5, 5), (6, 6, 6), (7, 7, 7), (6, 7, 8)]
    bad = [dims for dims in boxes if q_matrix_count(dims) != q_box_product(*dims)]
    _report("q-determinant = MacMahon's box product, sides <= 4 and 5^3, 6^3, 7^3, 6x7x8", not bad)


def test_macmahon_equals_q_sum():
    bad = [dims for dims in _boxes(3) if q_box_product(*dims) != q_sum(*dims)]
    _report("MacMahon's box product = q-sum oracle, sides <= 3", not bad)


def test_criterion_6_ratio_identities():
    ok = True
    for a in range(7):
        for b in range(7):
            for c in range(1, 7):
                got = Fraction(n_class(1, (a + 1, b + 1, c - 1)), n_class(1, (a, b, c)))
                ok = ok and got == Fraction(math.comb(a + b + c, c - 1), math.comb(a + b, a))
    for a in range(1, 5):
        for _, lhs, rhs in ratio_steps(a, a, a):
            ok = ok and lhs == rhs
    # cyclic self-complementary counts straight from the brute-force oracle
    n9_small = count_symmetric(9, 2, 2, 2)
    n9_big = count_symmetric(9, 4, 4, 4)
    ok = ok and n9_small == 1 and n9_big == 4
    ok = ok and Fraction(n9_big, n9_small) == Fraction(math.comb(4, 1) ** 2, math.comb(2, 1) ** 2)
    _report("criterion 6: ratio identities (growth, cyclic, self-complementary)", ok)


def test_criterion_7_quotient_lemma(oracle_counts):
    bad = []
    for cid in CLASSES:
        for dims in _boxes(4):
            if not CLASSES[cid].box_fixed(dims):
                continue
            q = quotient_graph(build_hexagon(*dims), CLASSES[cid])
            if count_perfect_matchings(q) != oracle_counts[cid, dims]:
                bad.append((cid, dims))
    _report("criterion 7: quotient matchings = invariant partitions, sides <= 4", not bad)


def test_criterion_8_parity_gadget_contract():
    ok = True
    for n in range(1, 9):
        for parity in ("odd", "even"):
            gadget = build_parity_gadget(n, parity)
            mg = gadget_multigraph(gadget)
            mg.assert_valid_embedding()
            want_parity = 1 if parity == "odd" else 0
            for k in range(n + 1):
                for removed in combinations(gadget.attachments, k):
                    keep = [v for v in mg.vertices if v not in set(removed)]
                    got = count_perfect_matchings(mg.subgraph(keep))
                    want = 1 if k % 2 == want_parity else 0
                    ok = ok and got == want
    _report("criterion 8: parity gadget contract, up to 8 attachments", ok)


def test_matrix_route_equals_formula_on_larger_cubes():
    cells = [
        (cid, (n, n, n))
        for cid in sorted(CLASSES)
        for n in range(5, 9)
        if CLASSES[cid].box_fixed((n, n, n))
    ]
    assert len(cells) == 40
    cells.append((1, (12, 12, 12)))
    bad = [
        (cid, dims)
        for cid, dims in cells
        if compute_count(cid, dims, "matrix") != n_class(cid, dims)
    ]
    _report("matrix route = formula on every fixed cube 5..8 and class 1 at 12^3", not bad)
