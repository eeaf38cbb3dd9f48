import hashlib
import itertools
import math
import time
from fractions import Fraction

import pytest

from reference import n6_long_side, n_class_via_ratios, ratio_steps

from ppcount.cli import matrix_count
from ppcount.formulas import (
    _immediate,
    formula_work,
    n_class,
    q_box_product,
)
from ppcount.oracle import count_symmetric
from ppcount.symmetry import CLASSES


KNOWN_VALUES = [
    (1, (1, 1, 1), 2),
    (1, (2, 2, 2), 20),
    (1, (3, 3, 3), 980),
    (1, (2, 1, 1), 3),
    (2, (2, 2, 2), 10),
    (2, (2, 2, 1), 4),
    (3, (2, 2, 2), 5),
    (3, (3, 3, 3), 20),
    (3, (4, 4, 4), 132),
    (4, (2, 2, 2), 5),
    (4, (3, 3, 3), 16),
    (5, (2, 2, 2), 4),
    (6, (2, 2, 2), 2),
    (7, (2, 2, 2), 2),
    (8, (2, 2, 2), 1),
    (8, (4, 4, 4), 2),
    (9, (2, 2, 2), 1),
    (9, (4, 4, 4), 4),
    (10, (2, 2, 2), 1),
    (10, (4, 4, 4), 2),
]


@pytest.mark.parametrize("cid,dims,value", KNOWN_VALUES)
def test_known_counts(cid, dims, value):
    assert n_class(cid, dims) == value


def test_unit_cube_has_two_partitions_in_every_class():
    # the unit cube is fixed by every transpose/rotation class; empty and
    # full are each invariant, while complementation swaps them
    for cid in (1, 2, 3, 4):
        assert n_class(cid, (1, 1, 1)) == 2
    for cid in (5, 9, 10):
        assert n_class(cid, (1, 1, 1)) == 0


def test_unfixed_boxes_count_zero():
    assert n_class(2, (2, 1, 1)) == 0
    assert n_class(3, (2, 2, 1)) == 0
    assert n_class(9, (2, 2, 4)) == 0


def test_parity_obstructions():
    assert n_class(5, (1, 1, 1)) == 0  # odd volume
    assert n_class(6, (2, 2, 1)) == 0  # odd height over the diagonal
    assert n_class(7, (3, 3, 1)) == 0
    assert n_class(9, (3, 3, 3)) == 0
    assert n_class(10, (3, 3, 3)) == 0


def test_degenerate_boxes():
    for cid in CLASSES:
        assert n_class(cid, (0, 0, 0)) == 1
    assert n_class(1, (0, 3, 5)) == 1
    assert n_class(6, (0, 0, 3)) == 1  # empty height matrix, vacuously fixed
    assert n_class(5, (0, 2, 4)) == 1


def test_negative_dims_rejected():
    with pytest.raises(ValueError):
        n_class(1, (1, -1, 1))


def test_class5_factored_forms():
    for a in range(5):
        for b in range(5):
            for c in range(5):
                assert n_class(5, (2 * a, 2 * b, 2 * c)) == n_class(1, (a, b, c)) ** 2
                assert n_class(5, (2 * a, 2 * b, 2 * c + 1)) == n_class(
                    1, (a, b, c)
                ) * n_class(1, (a, b, c + 1))
                assert n_class(5, (2 * a + 1, 2 * b + 1, 2 * c)) == n_class(
                    1, (a + 1, b, c)
                ) * n_class(1, (a, b + 1, c))


def test_class7_factored_forms():
    for a in range(1, 5):
        for b in range(5):
            assert n_class(7, (2 * a, 2 * a, 2 * b)) == n_class(1, (a, a, b))
            assert n_class(7, (2 * a + 1, 2 * a + 1, 2 * b)) == n_class(1, (a, a + 1, b))


def test_products_divide_exactly_up_to_ten():
    for cid in CLASSES:
        for a in range(11):
            for b in range(11):
                for c in range(11):
                    if CLASSES[cid].box_fixed((a, b, c)):
                        assert n_class(cid, (a, b, c)) >= 0


def test_formula_matches_oracle_small():
    for cid in CLASSES:
        for a in range(4):
            for b in range(4):
                for c in range(4):
                    if CLASSES[cid].box_fixed((a, b, c)):
                        assert n_class(cid, (a, b, c)) == count_symmetric(cid, a, b, c)


def test_ratio_identities_examples():
    checks = {name: (lhs, rhs) for name, lhs, rhs in ratio_steps(1, 1, 1)}
    lhs, rhs = checks["growth-step"]
    assert lhs == rhs == Fraction(1, 2)
    assert rhs == Fraction(math.comb(3, 0), math.comb(2, 1))
    lhs, rhs = checks["cyclic-self-complementary-step"]
    assert lhs == rhs == 4


def test_ratio_identities_hold_widely():
    for a in range(7):
        for b in range(7):
            for c in range(1, 7):
                for name, lhs, rhs in ratio_steps(a, b, c):
                    assert lhs == rhs, (a, b, c, name)


def test_via_ratios_matches_closed_forms():
    for a in range(9):
        for b in range(9):
            for c in range(9):
                assert n_class_via_ratios(1, (a, b, c)) == n_class(1, (a, b, c))
    for a in range(9):
        assert n_class_via_ratios(3, (a, a, a)) == n_class(3, (a, a, a))
        if a % 2 == 0:
            assert n_class_via_ratios(9, (a, a, a)) == n_class(9, (a, a, a))
    for dims in [(1, 2, 3), (2, 2, 4), (0, 0, 1)]:  # not fixed: no invariant partition
        assert n_class_via_ratios(3, dims) == n_class(3, dims) == 0
        assert n_class_via_ratios(9, dims) == n_class(9, dims) == 0
    for a in range(0, 9, 2):
        for b in range(0, 9, 2):
            for c in range(0, 9, 2):
                assert n_class_via_ratios(5, (a, b, c)) == n_class(5, (a, b, c))


def test_via_ratios_rejects_unsupported():
    with pytest.raises(ValueError):
        n_class_via_ratios(2, (2, 2, 2))
    with pytest.raises(ValueError):
        n_class_via_ratios(5, (1, 2, 2))


def test_q_box_product_at_q_1_is_n1_and_symmetric():
    for a in range(7):
        for b in range(7):
            for c in range(7):
                p = q_box_product(a, b, c)
                assert p.subs(1) == n_class(1, (a, b, c))
                assert p.degree() == a * b * c and p.coeffs[0] == 1
                assert p == q_box_product(c, a, b) == q_box_product(b, a, c)
    with pytest.raises(ValueError):
        q_box_product(1, -1, 1)


def test_n1_equals_the_hyperfactorial_form():
    # H(a+b+c) H(a) H(b) H(c) / (H(a+b) H(a+c) H(b+c)), on every box with sides <= 8
    H = lambda n: math.prod(map(math.factorial, range(n)))  # 0! 1! ... (n-1)!
    for a in range(9):
        for b in range(9):
            for c in range(9):
                hyper, rem = divmod(H(a + b + c) * H(a) * H(b) * H(c), H(a + b) * H(a + c) * H(b + c))
                assert rem == 0 and n_class(1, (a, b, c)) == hyper, (a, b, c)


@pytest.mark.parametrize("dims, value", [((0, 1, 100000), 1), ((1, 1, 1600), 1601), ((1600, 1, 1), 1601)])
def test_n1_on_a_long_thin_box_is_immediate(dims, value):
    t0 = time.perf_counter()
    assert n_class(1, dims) == value
    assert time.perf_counter() - t0 < 0.1


def test_n2_and_n6_equal_the_hyperfactorial_forms():
    # S: H2(2n+c+1) H(n) H2(c) / (H2(2n+1) H(n+c)) in n x n x c; TC:
    # H2(2b+1) H2(2b+2a) H(a) / (H(2b+a) H2(2a)) in a x a x 2b; sides <= 12
    H = lambda n: math.prod(map(math.factorial, range(n)))  # 0! 1! ... (n-1)!
    H2 = lambda n: math.prod(map(math.factorial, range(n - 2, -1, -2)))  # (n-2)! (n-4)! ... down to 0! or 1!
    for n in range(13):
        for c in range(13):
            hyper, rem = divmod(H2(2 * n + c + 1) * H(n) * H2(c), H2(2 * n + 1) * H(n + c))
            assert rem == 0 and n_class(2, (n, n, c)) == hyper, (n, c)
    for a in range(1, 13):
        for b in range(7):
            hyper, rem = divmod(H2(2 * b + 1) * H2(2 * b + 2 * a) * H(a), H(2 * b + a) * H2(2 * a))
            assert rem == 0 and n_class(6, (a, a, 2 * b)) == hyper, (a, b)


@pytest.mark.parametrize(
    "class_id, dims, value",
    [(2, (1, 1, 3000), 3001), (2, (2, 2, 100000), 166676666850001), (6, (1, 1, 100000), 1), (6, (2, 2, 100000), 50001)],
)
def test_n2_and_n6_on_a_long_thin_box_are_immediate(class_id, dims, value):
    t0 = time.perf_counter()
    assert n_class(class_id, dims) == value
    assert time.perf_counter() - t0 < 0.1


def test_n6_over_the_heights_equals_the_product_over_the_long_side():
    # a low box (b < a) runs over its heights, a tall one over i <= a - 2
    for a in range(1, 41):
        for b in range(41):
            assert n_class(6, (a, a, 2 * b)) == n6_long_side(a, b), (a, b)
    t0 = time.perf_counter()
    short = n_class(6, (400, 400, 2))
    assert time.perf_counter() - t0 < 0.1
    assert short == n6_long_side(400, 1)


def test_formula_work_is_zero_where_n_class_needs_no_product():
    # zero boxes and parity zeros answer at once, so no budget may refuse them
    for class_id in CLASSES:
        for dims in itertools.product(range(6), repeat=3):
            known = _immediate(class_id, dims)
            if known is not None:
                assert n_class(class_id, dims) == known
                assert formula_work(class_id, dims) == 0
            elif min(dims) >= 1:
                assert formula_work(class_id, dims) > 0


def test_counts_match_the_golden_digest():
    # every class on every fixed box with sides <= 16, then classes 2, 3, 4,
    # 8, 9 and 10 on the cubes of side 17..120: 11 402 lines "class,a,b,c,count"
    digest = hashlib.sha256()
    cells = [(cid, dims) for cid in CLASSES for dims in itertools.product(range(17), repeat=3)
             if CLASSES[cid].box_fixed(dims)]
    cells += [(cid, (s, s, s)) for cid in (2, 3, 4, 8, 9, 10) for s in range(17, 121)]
    for cid, (a, b, c) in cells:
        digest.update(f"{cid},{a},{b},{c},{n_class(cid, (a, b, c))}\n".encode())
    assert len(cells) == 11402
    assert digest.hexdigest() == "9a672ec7d377487cbbc6e109399cf3c282fce98a4d7685db4c7c8b95cf9e9a94"


def test_formula_equals_matrix_on_every_fixed_box_up_to_six():
    cells = [(cid, dims) for cid in CLASSES for dims in itertools.product(range(7), repeat=3)
             if CLASSES[cid].box_fixed(dims)]
    assert len(cells) == 868
    bad = [(cid, dims) for cid, dims in cells if n_class(cid, dims) != matrix_count(cid, dims)]
    assert bad == []


def test_n2_on_a_one_high_square_counts_self_conjugate_shapes():
    # an n x n x 1 symmetric partition is a self-conjugate shape in the square
    for n in range(200):
        assert n_class(2, (n, n, 1)) == 2**n, n
    t0 = time.perf_counter()
    assert n_class(2, (1000, 1000, 1)) == 2**1000
    assert time.perf_counter() - t0 < 0.1
