import math
import random
from itertools import permutations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import q_box_with_half_turn
from reference import from_rows, hafnian, interpolate_equal_spacing, permanent

from ppcount import exactalg
from ppcount.exactalg import (
    ExactMatrix,
    QPoly,
    _assignment_duals,
    _bounds,
    _degree_window,
    _interpolate,
    _pf_mod,
    _pfaffian,
    _prime,
    _replay_block,
    _unfold,
    det,
    pfaffian_abs,
)
from ppcount.formulas import q_box_product
from ppcount.hexgrid import build_hexagon, q_weight_graph
from ppcount.kasteleyn import _certificates, bipartite_matrix, flat_signing


def mirrored_box(a, b, c):
    """The flat-signed q matrix of the box and the mirror exponent that
    ``_certificates`` proves for it with the half-turn."""
    g, kappa = q_box_with_half_turn((a, b, c))
    sg = flat_signing(g)
    return bipartite_matrix(sg), _certificates(sg, kappa)[1]


def det_cofactor(rows):
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j]:
            minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
            total += (-1) ** j * rows[0][j] * det_cofactor(minor)
    return total


def bareiss(rows):
    """Signed determinant by fraction-free elimination (Bareiss 1968) over Z
    or Z[q]: every division is exact, so it is the kernel's reference."""
    a = [list(r) for r in rows]
    n = len(a)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if not a[k][k]:
            piv = next((r for r in range(k + 1, n) if a[r][k]), None)
            if piv is None:
                return 0 * a[0][0]
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[i][j] * a[k][k] - a[i][k] * a[k][j]
                if isinstance(num, QPoly):
                    a[i][j] = num.div_exact(prev)
                else:
                    q, r = divmod(num, prev)
                    assert r == 0
                    a[i][j] = q
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def pf_expand(rows):
    """Signed Pfaffian by expansion along the first row."""
    n = len(rows)
    if n == 0:
        return 1
    total = 0
    for j in range(1, n):
        if rows[0][j]:
            keep = [k for k in range(1, n) if k != j]
            minor = [[rows[r][c] for c in keep] for r in keep]
            total += (-1) ** (j + 1) * rows[0][j] * pf_expand(minor)
    return total


def permanent_brute(rows):
    n = len(rows)
    total = 0
    for p in permutations(range(n)):
        term = 1
        for i in range(n):
            term *= rows[i][p[i]]
        total += term
    return total


small_int = st.integers(min_value=-6, max_value=6)
big_int = st.integers(min_value=-(2**40), max_value=2**40)
small_poly = st.lists(st.integers(min_value=-3, max_value=3), max_size=3).map(QPoly)
big_poly = st.lists(big_int, max_size=3).map(QPoly)
# times q^k, so that the lowest degree is above 0 and coefficients have gaps
shifted_poly = st.tuples(small_poly, st.integers(min_value=0, max_value=4)).map(
    lambda pk: pk[0].shift(pk[1])
)
zq_entry = small_poly | shifted_poly


def square(n, elements=small_int):
    return st.lists(st.lists(elements, min_size=n, max_size=n), min_size=n, max_size=n)


def sized_square(max_n, elements):
    return st.integers(min_value=0, max_value=max_n).flatmap(lambda n: square(n, elements))


def skew(max_n, elements):
    """Skew matrices of even size up to max_n, as row lists."""
    def build(n):
        k = n * (n - 1) // 2
        return st.lists(elements, min_size=k, max_size=k).map(lambda vals: skew_from_upper(vals, n))

    return st.integers(min_value=0, max_value=max_n // 2).flatmap(lambda h: build(2 * h))


class TestDet:
    def test_identity(self):
        assert det(from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 1

    def test_singular(self):
        assert det(from_rows([[1, 1], [1, 1]])) == 0

    def test_empty(self):
        assert det(from_rows([])) == 1

    def test_non_square(self):
        with pytest.raises(ValueError):
            det(from_rows([[1, 2, 3], [4, 5, 6]]))

    def test_zero_matrix_keeps_its_ring(self):
        d = det(from_rows([[QPoly(), QPoly()], [QPoly(), QPoly()]]))
        assert isinstance(d, QPoly) and d.is_zero()

    @given(square(5))
    @settings(max_examples=60, deadline=None)
    def test_matches_cofactor_expansion(self, rows):
        assert det(from_rows(rows)) == abs(det_cofactor(rows))

    def test_matches_cofactor_expansion_6x6(self):
        import random

        r = random.Random(99)
        for _ in range(5):
            rows = [[r.randint(-4, 4) for _ in range(6)] for _ in range(6)]
            assert det(from_rows(rows)) == abs(det_cofactor(rows))

    @given(square(4))
    @settings(max_examples=40, deadline=None)
    def test_poly_det_commutes_with_evaluation(self, rows):
        pm = from_rows([[QPoly.const(x) for x in r] for r in rows])
        d = det(pm)
        assert d.subs(1) == det(from_rows(rows))


class TestPermanent:
    def test_all_ones_2x2(self):
        assert permanent(from_rows([[1, 1], [1, 1]])) == 2

    def test_identity(self):
        assert permanent(from_rows([[1, 0], [0, 1]])) == 1

    def test_size_limit(self):
        with pytest.raises(ValueError):
            permanent(from_rows([[0] * 21 for _ in range(21)]))

    @given(square(4))
    @settings(max_examples=40, deadline=None)
    def test_matches_permutation_sum(self, rows):
        assert permanent(from_rows(rows)) == permanent_brute(rows)

    def test_matches_permutation_sum_6x6(self):
        import random

        r = random.Random(7)
        for _ in range(3):
            rows = [[r.randint(0, 3) for _ in range(6)] for _ in range(6)]
            assert permanent(from_rows(rows)) == permanent_brute(rows)


class TestHafnian:
    def test_single_pair(self):
        assert hafnian(from_rows([[0, 1], [1, 0]])) == 1

    def test_k4(self):
        m = [[0 if i == j else 1 for j in range(4)] for i in range(4)]
        assert hafnian(from_rows(m)) == 3

    def test_odd_dimension(self):
        assert hafnian(from_rows([[0] * 3 for _ in range(3)])) == 0

    @given(square(3))
    @settings(max_examples=40, deadline=None)
    def test_block_matrix_gives_permanent(self, rows):
        n = len(rows)
        blk = [[0] * n + list(rows[i]) for i in range(n)]
        blk += [[rows[j][i] for j in range(n)] + [0] * n for i in range(n)]
        assert hafnian(from_rows(blk)) == permanent_brute(rows)


def skew_from_upper(vals, n):
    m = [[0] * n for _ in range(n)]
    it = iter(vals)
    for i in range(n):
        for j in range(i + 1, n):
            v = next(it)
            m[i][j] = v
            m[j][i] = -v
    return m


@st.composite
def sparse_skew_lanes(draw):
    """A sparse skew support on n <= 10 vertices, a small or 30-bit prime p,
    and two value lists on it: one to record an elimination with, one to
    replay it on.  Mod a small prime, entries that are 0 mod p and fill that
    cancels are common."""
    n = 2 * draw(st.integers(min_value=1, max_value=5))
    upper = [(i, j) for i in range(n) for j in range(i + 1, n)]
    pairs = draw(st.lists(st.sampled_from(upper), unique=True, max_size=3 * n))
    p = draw(st.sampled_from([2, 3, 5, 7, _prime(0)]))
    vals = st.lists(st.integers(min_value=-6, max_value=6), min_size=len(pairs), max_size=len(pairs))
    return n, pairs, p, draw(vals), draw(vals)


@st.composite
def sparse_skew_blocks(draw):
    """``sparse_skew_lanes`` with a block of 1..5 value lists to replay at
    once in place of the one to replay."""
    n, pairs, p, first, later = draw(sparse_skew_lanes())
    k = len(pairs)
    vals = st.lists(st.integers(min_value=-6, max_value=6), min_size=k, max_size=k)
    return n, pairs, p, first, [later, *draw(st.lists(vals, max_size=4))]


@st.composite
def sparse_skew_shared_blocks(draw):
    """A sparse skew support on 4 <= n <= 10 vertices that holds the perfect
    matching {0, 1}, {2, 3}, ..., a small or 30-bit prime p, values to record
    an elimination with (1 on the matching), and a block of 2..5 lanes to
    replay it on.  Each lane is one shared value list with at most two of
    its entries redrawn, so a pivot that reads only shared entries holds one
    value on every lane, 0 or not, and the others vary."""
    n = 2 * draw(st.integers(min_value=2, max_value=5))
    pairs = [(i, i + 1) for i in range(0, n, 2)]
    upper = [(i, j) for i in range(n) for j in range(i + 1, n) if j != i + 1 or i % 2]
    pairs += draw(st.lists(st.sampled_from(upper), unique=True, min_size=n // 2, max_size=2 * n))
    p = draw(st.sampled_from([2, 3, 5, 7, _prime(0)]))
    k = len(pairs)
    entry = st.integers(min_value=-6, max_value=6)
    first = [1] * (n // 2) + draw(st.lists(entry, min_size=k - n // 2, max_size=k - n // 2))
    shared = draw(st.lists(entry, min_size=k, max_size=k))
    lanes = []
    for _ in range(draw(st.integers(min_value=2, max_value=5))):
        lane = list(shared)
        for i in draw(st.lists(st.integers(min_value=0, max_value=k - 1), max_size=2)):
            lane[i] = draw(entry)
        lanes.append(lane)
    return n, pairs, p, first, lanes


unit_entry = st.integers(min_value=-1, max_value=1)
FOUR_PRIMES = math.prod(map(_prime, range(4)))


def counting_pow(mp):
    """Patch ``pow`` in exactalg to list the arguments of every call."""
    calls = []

    def pow_(*args):
        calls.append(args)
        return pow(*args)

    mp.setattr(exactalg, "pow", pow_, raising=False)
    return calls


def skew_rows(n, pairs, vals):
    m = [[0] * n for _ in range(n)]
    for (i, j), a in zip(pairs, vals):
        m[i][j], m[j][i] = a, -a
    return m


class TestPfaffian:
    def test_two_by_two(self):
        assert pfaffian_abs(from_rows([[0, 5], [-5, 0]])) == 5

    def test_odd_dimension_is_zero(self):
        m = skew_from_upper([1, 2, 3], 3)
        assert pfaffian_abs(from_rows(m)) == 0

    def test_odd_dimension_keeps_its_ring(self):
        m = skew_from_upper([QPoly.q_power(1), QPoly.const(2), 0], 3)
        pf = pfaffian_abs(from_rows(m))
        assert isinstance(pf, QPoly) and pf.is_zero()

    def test_rejects_non_skew(self):
        with pytest.raises(ValueError):
            pfaffian_abs(from_rows([[0, 1], [1, 0]]))

    @given(st.lists(small_int, min_size=6, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_three_term_expansion(self, vals):
        a12, a13, a14, a23, a24, a34 = vals
        m = from_rows(skew_from_upper(vals, 4))
        assert pfaffian_abs(m) == abs(a12 * a34 - a13 * a24 + a14 * a23)

    @given(skew(10, small_int))
    @settings(max_examples=40, deadline=None)
    def test_pf_squared_is_det(self, rows):
        m = from_rows(rows)
        assert pfaffian_abs(m) ** 2 == det(m) == abs(bareiss(rows))

    @given(square(3))
    @settings(max_examples=40, deadline=None)
    def test_block_matrix_gives_determinant(self, rows):
        n = len(rows)
        blk = [[0] * n + list(rows[i]) for i in range(n)]
        blk += [[-rows[j][i] for j in range(n)] + [0] * n for i in range(n)]
        assert pfaffian_abs(from_rows(blk)) == abs(det_cofactor(rows))


class TestIntegerSqrt:
    @given(st.lists(small_int, min_size=28, max_size=28))
    @settings(max_examples=20, deadline=None)
    def test_pfaffian_of_8x8_via_sqrt(self, vals):
        """Pf is the square root of det on skew matrices."""
        m = from_rows(skew_from_upper(vals, 8))
        assert pfaffian_abs(m) ** 2 == det(m)


class TestKernel:
    @given(sized_square(8, small_int))
    @settings(max_examples=80, deadline=None)
    def test_det_matches_bareiss_over_z(self, rows):
        assert det(from_rows(rows)) == abs(bareiss(rows))

    @given(sized_square(6, big_int))
    @settings(max_examples=40, deadline=None)
    def test_det_matches_bareiss_with_large_entries(self, rows):
        assert det(from_rows(rows)) == abs(bareiss(rows))

    @given(sized_square(4, zq_entry) | sized_square(3, big_poly))
    @settings(max_examples=120, deadline=None)
    def test_det_matches_bareiss_over_zq(self, rows):
        expected = QPoly.const(1) if not rows else bareiss(rows)
        assert det(from_rows(rows)) == expected.sign_normalized()

    @given(skew(8, big_int))
    @settings(max_examples=40, deadline=None)
    def test_signed_pfaffian_matches_expansion(self, rows):
        # entries up to 2^40 need several primes; the signed result checks
        # the pivot sign and the negative symmetric residues
        n = len(rows)
        upper = [(i, j, rows[i][j]) for i in range(n) for j in range(i + 1, n) if rows[i][j]]
        bound = 1
        for r in rows:
            bound *= sum(x * x for x in r)
        assert _pfaffian(n, upper, 4, bound) == [pf_expand(rows)]

    @given(skew(6, zq_entry))
    @settings(max_examples=80, deadline=None)
    def test_pf_squared_is_det_over_zq(self, rows):
        m = from_rows(rows)
        pf = pfaffian_abs(m)
        assert pf * pf == det(m)

    @given(sized_square(5, st.none() | st.integers(min_value=-5, max_value=9)))
    @settings(max_examples=150, deadline=None)
    def test_assignment_duals_are_feasible_and_optimal(self, costs):
        n = len(costs)
        arcs = [(i, j, c) for i, row in enumerate(costs) for j, c in enumerate(row) if c is not None]
        sums = [
            sum(costs[i][p[i]] for i in range(n))
            for p in permutations(range(n))
            if all(costs[i][p[i]] is not None for i in range(n))
        ]
        duals = _assignment_duals(n, arcs)
        if not sums:
            assert duals is None
            return
        u, v = duals
        assert all(u[i] + v[j] <= c for i, j, c in arcs)
        assert sum(u) + sum(v) == min(sums)

    def test_no_perfect_matching_is_zero_without_elimination(self, monkeypatch):
        # no zero row or column, but rows 1 and 2 both meet only column 0
        q = QPoly.q_power(1)
        rows = [[q, 1, q * q], [1 + q, 0, 0], [q, 0, 0]]

        def eliminate(*args):
            raise AssertionError("eliminated a matrix with no perfect matching")

        monkeypatch.setattr(exactalg, "_pf_mod", eliminate)
        monkeypatch.setattr(exactalg, "_replay_block", eliminate)
        d = det(from_rows(rows))
        assert isinstance(d, QPoly) and d.is_zero()
        assert bareiss(rows).is_zero()

    def test_empty_pfaffian_window_is_zero(self):
        # two disjoint triangles: the 3-cycles cover every vertex, so the
        # assignment exists, but all its terms have odd degree 1 and cancel
        q = QPoly.q_power(1)
        m = from_rows(skew_from_upper([q, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1, 1, 1], 6))
        _, entries = _bounds(6, m.nonzeros, True)
        assert _degree_window(6, [(i, j, t) for i, j, t in entries if i < j], skew=True) == (1, 0)
        pf = pfaffian_abs(m)
        assert isinstance(pf, QPoly) and pf.is_zero()
        assert det(m).is_zero()

    def test_degree_window_is_the_volume_span(self):
        # M's own two assignments, and the low one alone under the proven
        # mirror, give the span of det M on every box with sides <= 5
        for a, b, c in product(range(6), repeat=3):
            if a * b + b * c + c * a == 0:
                continue
            m, mirror = mirrored_box(a, b, c)
            _, entries = _bounds(m.nrows, m.nonzeros, True)
            d = det(m)
            assert d.shift(-d.low_degree()) == q_box_product(a, b, c)
            span = (d.low_degree(), d.degree())
            assert _degree_window(m.nrows, entries) == span, (a, b, c)
            assert _degree_window(m.nrows, entries, mirror=mirror) == span, (a, b, c)

    @pytest.mark.parametrize("b", [1, 2])
    def test_degree_window_is_the_span_on_thin_boxes(self, b):
        # on 1 x b x k most rows have several arcs of least degree, so the
        # greedy start of the assignment meets many ties
        for k in range(1, 61):
            m, mirror = mirrored_box(1, b, k)
            _, entries = _bounds(m.nrows, m.nonzeros, True)
            low, high = _degree_window(m.nrows, entries)
            assert high - low == b * k, k
            assert _degree_window(m.nrows, entries, mirror=mirror) == (low, high), k
            box = q_box_product(1, b, k)
            d = det(m, one_sign=True, mirror=mirror)
            assert d == box.shift(low), k

    def test_mirror_takes_one_assignment_on_the_rows_of_m(self, monkeypatch):
        honest = exactalg._assignment_duals
        rows = []

        def spy(n, arcs):
            rows.append(n)
            return honest(n, arcs)

        monkeypatch.setattr(exactalg, "_assignment_duals", spy)
        m, mirror = mirrored_box(3, 4, 5)
        d = det(m, mirror=mirror)
        assert rows == [m.nrows]
        assert d.shift(-d.low_degree()) == q_box_product(3, 4, 5)
        rows.clear()
        assert det(m) == d
        assert rows == [m.nrows, m.nrows]

    def test_certified_bound_leaves_the_q_determinant_unchanged(self):
        # N = |det M(1)| bounds every coefficient of a flat-signed q-box matrix
        for a in range(5):
            for b in range(5):
                for c in range(5):
                    g = q_weight_graph(build_hexagon(a, b, c))
                    if g.n_vertices == 0:
                        continue
                    m = bipartite_matrix(flat_signing(g))
                    at_one = ((i, j, x.subs(1)) for i, j, x in m.nonzeros)
                    count = det(ExactMatrix.from_cells(m.nrows, m.ncols, at_one, False))
                    d = det(m)
                    assert count == d.subs(1)
                    assert det(m, one_sign=True) == d, (a, b, c)

    @pytest.mark.parametrize("call", [0, 1])
    @pytest.mark.parametrize("kernel", ["det", "pf"])
    def test_infeasible_potentials_raise(self, call, kernel, monkeypatch):
        # one potential raised by 1 breaks u_i + v_j <= cost on a tight arc
        honest = exactalg._assignment_duals
        calls = []

        def tampered(n, arcs):
            u, v = honest(n, arcs)
            if len(calls) == call:
                u[0] += 1
            calls.append(None)
            return u, v

        monkeypatch.setattr(exactalg, "_assignment_duals", tampered)
        m = bipartite_matrix(flat_signing(q_weight_graph(build_hexagon(2, 2, 2))))
        if kernel == "pf":
            n, rows = m.nrows, m.entries
            zero = [QPoly()] * n
            m = from_rows(
                [zero + list(rows[i]) for i in range(n)]
                + [[-rows[j][i] for j in range(n)] + zero for i in range(n)]
            )
        with pytest.raises(ArithmeticError, match="dual feasible"):
            det(m) if kernel == "det" else pfaffian_abs(m)

    def test_infeasible_potentials_raise_under_the_mirror(self, monkeypatch):
        # the one assignment the mirror leaves is checked on every nonzero:
        # a column potential raised by 1 breaks its matched, tight arc
        honest = exactalg._assignment_duals

        def tampered(n, arcs):
            u, v = honest(n, arcs)
            v[0] += 1
            return u, v

        monkeypatch.setattr(exactalg, "_assignment_duals", tampered)
        m, mirror = mirrored_box(2, 2, 2)
        with pytest.raises(ArithmeticError, match="dual feasible"):
            det(m, mirror=mirror)

    @given(sparse_skew_lanes())
    # fill that is 0 mod 7 in the recorded elimination and nonzero in the replay
    @example(
        (
            6,
            [(0, 1), (0, 2), (0, 3), (0, 5), (1, 4), (1, 5), (2, 3), (2, 4), (3, 4), (4, 5)],
            7,
            [1, 1, 1, 1, -1, 1, 1, 1, 2, 1],
            [1, -1, 2, -1, -1, 3, -1, 1, 2, 2],
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_replay_equals_a_fresh_elimination(self, case):
        n, pairs, p, first, later = case
        first_p, later_p = [a % p for a in first], [a % p for a in later]
        pf, program = _pf_mod(n, pairs, first_p, p, record=True)
        assert pf == pf_expand(skew_rows(n, pairs, first)) % p
        fresh, _ = _pf_mod(n, pairs, later_p, p)
        assert fresh == pf_expand(skew_rows(n, pairs, later)) % p
        if program is None:  # a row ran out of nonzeros: Pf = 0 mod p, nothing to replay
            assert pf == 0
            return
        assert _replay_block(program, [[a] for a in first_p], p) == [pf]
        [replayed] = _replay_block(program, [[a] for a in later_p], p)
        assert replayed is None or replayed == fresh

    @given(sparse_skew_blocks() | sparse_skew_shared_blocks())
    # lane 1 plans a pivot on a01 = 0 mod 7, between lanes whose pivots hold
    @example(
        (4, [(0, 1), (2, 3), (0, 2), (1, 3)], 7, [2, 1, 1, 1], [[2, 3, 1, 1], [7, 1, 1, 1], [5, 6, 2, 4]])
    )
    # a01 = 0 mod 7 on every lane, which differ elsewhere
    @example(
        (4, [(0, 1), (2, 3), (0, 2), (1, 3)], 7, [2, 1, 1, 1], [[7, 1, 1, 1], [0, 2, 3, 4], [-7, 5, 6, 1]])
    )
    @settings(max_examples=300, deadline=None)
    def test_block_replay_equals_a_fresh_elimination_per_lane(self, case):
        n, pairs, p, first, lanes = case
        _, program = _pf_mod(n, pairs, [a % p for a in first], p, record=True)
        if program is None:
            return
        lanes = [[a % p for a in lane] for lane in lanes]
        block = _replay_block(program, [list(v) for v in zip(*lanes)], p)
        # a lane is None exactly where its own replay is, whatever the other lanes hold
        assert block == [_replay_block(program, [[a] for a in lane], p)[0] for lane in lanes]
        for pf, lane in zip(block, lanes):
            assert pf is None or pf == _pf_mod(n, pairs, lane, p)[0]

    def test_lane_constant_pivot_takes_one_pow(self, monkeypatch):
        # on this support the program pivots on a01 and then on a24, each with
        # an update to replay, and the update of a01 leaves a24 as it is
        pairs = [(0, 1), (2, 3), (4, 5), (0, 2), (1, 3), (2, 4), (3, 5)]
        p = 7
        _, program = _pf_mod(6, pairs, [1] * 7, p, record=True)
        assert [s for s, *_ in program[2]] == [0, 5]
        honest = exactalg._inverses
        batches = []

        def inverses(a, p):
            batches.append(list(a))
            return honest(a, p)

        monkeypatch.setattr(exactalg, "_inverses", inverses)
        # a01 = 3 on both lanes takes one pow; a24 = 1, 2 is batched
        lanes = [[3, 1, 1, 1, 1, 1, 1], [3, 1, 1, 1, 1, 2, 1]]
        block = _replay_block(program, [list(v) for v in zip(*lanes)], p)
        assert block == [_pf_mod(6, pairs, lane, p)[0] for lane in lanes]
        assert batches == [[1, 2]]
        # a01 = 0 on both lanes gives None on both at once, though their
        # Pfaffians are not 0
        batches.clear()
        lanes = [[0, 1, 1, 1, 1, 1, 1], [0, 2, 3, 4, 5, 6, 1]]
        assert _replay_block(program, [list(v) for v in zip(*lanes)], p) == [None, None]
        assert all(_pf_mod(6, pairs, lane, p)[0] for lane in lanes)
        assert batches == []

    @given(skew(8, unit_entry))
    # a first pivot a01 of 1 and of -1, each with an update to apply
    @example(skew_from_upper([1, 1, -1, 1, 1, -1], 4))
    @example(skew_from_upper([-1, 1, -1, 1, 1, -1], 4))
    @settings(max_examples=80, deadline=None)
    def test_unit_entries_mod_four_primes_match_expansion(self, rows):
        # entries in {-1, 0, 1} make many pivots 1 or m - 1, which take no pow
        n, m = len(rows), FOUR_PRIMES
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rows[i][j]]
        with pytest.MonkeyPatch.context() as mp:
            pows = counting_pow(mp)
            pf, _ = _pf_mod(n, pairs, [rows[i][j] % m for i, j in pairs], m)
        assert pf == pf_expand(rows) % m
        assert all(base % m not in (1, m - 1) for base, *_ in pows)

    @given(sized_square(6, unit_entry))
    @settings(max_examples=80, deadline=None)
    def test_unit_entries_det_mod_four_primes_match_bareiss(self, rows):
        # Pf [[0, M], [-M^T, 0]] = (-1)^(n(n-1)/2) det M
        n, m = len(rows), FOUR_PRIMES
        cells = [(i, n + j, a) for i, row in enumerate(rows) for j, a in enumerate(row) if a]
        pf, _ = _pf_mod(2 * n, [(i, j) for i, j, _ in cells], [a % m for _, _, a in cells], m)
        assert pf == (-1) ** (n * (n - 1) // 2) * bareiss(rows) % m

    @pytest.mark.parametrize("p", [7, _prime(0)])
    @pytest.mark.parametrize("pivot", [1, -1])
    def test_lane_unit_pivot_replays_like_a_fresh_elimination(self, pivot, p, monkeypatch):
        # the support of test_lane_constant_pivot_takes_one_pow: a01 holds
        # the pivot on every lane, and takes no pow, and a24 = 1, 6, 3 is
        # batched, one pow
        pairs = [(0, 1), (2, 3), (4, 5), (0, 2), (1, 3), (2, 4), (3, 5)]
        _, program = _pf_mod(6, pairs, [1] * 7, p, record=True)
        lanes = [[pivot % p, *rest] for rest in ([1, 1, 1, 1, 1, 1], [2, 3, 4, 5, 6, 1], [5, 1, 2, 3, 3, 4])]
        pows = counting_pow(monkeypatch)
        block = _replay_block(program, [list(v) for v in zip(*lanes)], p)
        monkeypatch.undo()
        assert None not in block
        assert block == [_pf_mod(6, pairs, lane, p)[0] for lane in lanes]
        assert len(pows) == 1

    @pytest.mark.parametrize("width", [1, 5, 27, 64])
    def test_block_width_leaves_the_q_determinant_unchanged(self, width, monkeypatch):
        # 3x3x3 takes one prime and a window of 28 points: x = 1 is det M(1),
        # whose integer elimination records the program, and the other 27
        # replay in blocks, the last of them partial for 5
        honest = exactalg._replay_block
        widths = []

        def replay_block(program, vals, p):
            widths.append(len(vals[0]))
            return honest(program, vals, p)

        monkeypatch.setattr(exactalg, "_BLOCK", width)
        monkeypatch.setattr(exactalg, "_replay_block", replay_block)
        d = det(bipartite_matrix(flat_signing(q_weight_graph(build_hexagon(3, 3, 3)))))
        assert d.shift(-d.low_degree()) == q_box_product(3, 3, 3)
        assert widths == [min(width, 27 - i) for i in range(0, 27, width)]

    def test_window_that_reaches_the_smallest_prime_raises(self, monkeypatch):
        # 2x2x2 takes the primes 13, 11, 7 for a window of 9 points: the first
        # exceeds 9 and the last does not
        monkeypatch.setattr(exactalg, "_prime", (13, 11, 7, 5, 3, 2).__getitem__)
        m = bipartite_matrix(flat_signing(q_weight_graph(build_hexagon(1, 1, 2))))
        d = det(m)  # 3 points, under every prime it takes
        assert d.shift(-d.low_degree()) == q_box_product(1, 1, 2)
        m = bipartite_matrix(flat_signing(q_weight_graph(build_hexagon(2, 2, 2))))
        with pytest.raises(ValueError, match="too few evaluation points"):
            det(m)

    def test_half_window_leaves_the_q_determinant_unchanged(self):
        # the mirror holds on every q box with sides <= 4 and a nonempty graph,
        # and half the window gives the whole determinant, odd degree included
        for a in range(5):
            for b in range(5):
                for c in range(5):
                    if a * b + b * c + c * a == 0:
                        continue
                    m, mirror = mirrored_box(a, b, c)
                    d = det(m)
                    assert mirror == d.low_degree() + d.degree(), (a, b, c)
                    assert det(m, mirror=mirror) == d, (a, b, c)
                    assert det(m, one_sign=True, mirror=mirror) == d, (a, b, c)

    def test_half_window_that_reaches_the_smallest_prime_raises(self, monkeypatch):
        # with the mirror, x = 1..m must keep m^2 below every prime: 1x1x2 has
        # degree 2 and m = 2 under the primes 13, 11; 2x2x2 has degree 8 and
        # m = 5 under 13, 11 (its certified bound is 20)
        m1, g1 = mirrored_box(1, 1, 2)
        m2, g2 = mirrored_box(2, 2, 2)
        monkeypatch.setattr(exactalg, "_prime", (13, 11, 7, 5, 3, 2).__getitem__)
        d = det(m1, mirror=g1)
        assert d.shift(-d.low_degree()) == q_box_product(1, 1, 2)
        with pytest.raises(ValueError, match="too few evaluation points"):
            det(m2, one_sign=True, mirror=g2)

    @given(st.lists(st.integers(min_value=0, max_value=2**40), min_size=1, max_size=40),
           st.sampled_from([101, 10007, 2**30 - 35]))
    @settings(max_examples=100, deadline=None)
    def test_node_interpolation_equals_equal_spacing_on_1_to_n(self, ys, p):
        ys = [y % p for y in ys]
        assert _interpolate(list(range(1, len(ys) + 1)), ys, p) == interpolate_equal_spacing(ys, p)

    @given(st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=30, unique=True),
           st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_node_interpolation_takes_its_values_at_any_distinct_nodes(self, xs, rng):
        p = 101
        ys = [rng.randrange(p) for _ in xs]
        poly = _interpolate(xs, ys, p)
        assert len(poly) == len(xs)
        assert [sum(c * pow(x, k, p) for k, c in enumerate(poly)) % p for x in xs] == ys

    @given(st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=12), st.integers(0, 1))
    @settings(max_examples=100, deadline=None)
    def test_unfold_expands_the_palindrome(self, r, odd):
        # q^h R(q + 1/q) = sum_k r_k (q^2 + 1)^k q^(h - k), times (1 + q) when odd
        p, h = _prime(0), len(r) - 1
        expect = QPoly()
        for k, c in enumerate(r):
            term = QPoly.q_power(h - k, c)
            for _ in range(k):
                term = term * QPoly((1, 0, 1))
            expect = expect + term
        expect = expect * QPoly((1, 1)) if odd else expect
        coeffs = [expect.coefficient(k) % p for k in range(2 * h + 1 + odd)]
        assert _unfold([c % p for c in r], odd, p) == coeffs

    def test_plan_replay_falls_back_when_a_pivot_vanishes(self):
        p0, p1 = _prime(0), _prime(1)
        assert p0 == 2**30 - 35
        # Pf = a01 a23 - a02 a13 + a03 a12, and a01 = 2^30 - 35 vanishes mod p0
        pairs = [(0, 1), (2, 3), (0, 2), (1, 3)]
        entries = [p0, 1, 1, 1]
        exact = p0 - 1
        pf1, program = _pf_mod(4, pairs, [a % p1 for a in entries], p1, record=True)
        pivots = program[1]
        assert pivots == [0, 1] and pf1 == exact % p1  # the slots of (0, 1), (2, 3)
        vals0 = [a % p0 for a in entries]
        assert _replay_block(program, [[a] for a in vals0], p0) == [None]
        pf0, _ = _pf_mod(4, pairs, vals0, p0)
        assert pf0 == exact % p0

    def test_non_unit_pivot_falls_back_to_the_exact_result(self, monkeypatch):
        # mod the product M of the primes the entries _prime(0) and _prime(1)
        # are nonzero but not units: the pass mod M stops at such a pivot, and
        # each prime is then eliminated on its own
        p0, p1, p2 = _prime(0), _prime(1), _prime(2)
        honest = exactalg._pf_mod
        calls = []

        def eliminate(n, pairs, vals, p, record=False):
            try:
                out = honest(n, pairs, vals, p, record)
            except ValueError:
                calls.append((p, "raised"))
                raise
            calls.append((p, record))
            return out

        monkeypatch.setattr(exactalg, "_pf_mod", eliminate)
        rows = [[p1, 1], [p0, 1]]
        assert det(from_rows(rows)) == abs(bareiss(rows)) == p0 - p1
        assert calls == [(p0 * p1 * p2, "raised"), (p0, False), (p1, False), (p2, False)]
        calls.clear()
        rows = skew_from_upper([p1, 1, p0, 1, 1, 1], 4)
        assert pfaffian_abs(from_rows(rows)) == abs(pf_expand(rows)) == p1 + p0 - 1
        assert calls == [(p0 * p1, "raised"), (p0, False), (p1, False)]

    @pytest.mark.parametrize("group", [1, 2, 3])
    def test_groups_of_primes_give_the_exact_result(self, group, monkeypatch):
        # 60-bit entries take 3 to 12 primes, so most matrices span groups
        monkeypatch.setattr(exactalg, "_GROUP", group)
        rng = random.Random(group)
        for n in range(1, 6):
            for _ in range(6):
                rows = [[rng.randint(-(2**60), 2**60) for _ in range(n)] for _ in range(n)]
                assert det(from_rows(rows)) == abs(det_cofactor(rows))
        for n in (2, 4, 6):
            for _ in range(6):
                rows = skew_from_upper([rng.randint(-(2**60), 2**60) for _ in range(n * (n - 1) // 2)], n)
                assert pfaffian_abs(from_rows(rows)) == abs(pf_expand(rows))

    def test_non_unit_pivot_falls_back_per_group(self, monkeypatch):
        # in groups of two, only the group holding _prime(0) and _prime(1)
        # falls back to one elimination per prime
        p0, p1, p2 = _prime(0), _prime(1), _prime(2)
        honest = exactalg._pf_mod
        calls = []

        def eliminate(n, pairs, vals, p, record=False):
            try:
                out = honest(n, pairs, vals, p, record)
            except ValueError:
                calls.append((p, "raised"))
                raise
            calls.append((p, record))
            return out

        monkeypatch.setattr(exactalg, "_GROUP", 2)
        monkeypatch.setattr(exactalg, "_pf_mod", eliminate)
        rows = [[p1, 1], [p0, 1]]
        assert det(from_rows(rows)) == abs(bareiss(rows)) == p0 - p1
        assert calls == [(p0 * p1, "raised"), (p0, False), (p1, False), (p2, False)]

    @given(sized_square(5, st.sampled_from([0, 1, -1, 2, _prime(0), -_prime(1), _prime(0) * _prime(2)])))
    @settings(max_examples=60, deadline=None)
    def test_det_matches_bareiss_with_entries_that_are_not_units(self, rows):
        assert det(from_rows(rows)) == abs(bareiss(rows))

    def test_one_evaluation_builds_no_program(self, monkeypatch):
        honest, honest_replay = exactalg._pf_mod, exactalg._replay_block
        calls = []

        def eliminate(n, pairs, vals, p, record=False):
            calls.append((p, record))
            return honest(n, pairs, vals, p, record)

        def replay(*args):
            raise AssertionError("replayed a call that evaluates once")

        monkeypatch.setattr(exactalg, "_pf_mod", eliminate)
        monkeypatch.setattr(exactalg, "_replay_block", replay)
        q = QPoly.q_power(1)
        p0, p1, p2 = _prime(0), _prime(1), _prime(2)
        # one prime; one prime and the one point of the window q^2 .. q^2
        assert det(from_rows([[2, 1], [1, 3]])) == 5
        assert det(from_rows([[q, 0], [1, 2 * q]])) == QPoly.q_power(2, 2)
        assert pfaffian_abs(from_rows(skew_from_upper([3, 1, 0, 0, 1, 2], 4))) == 5
        assert calls == [(p0, False)] * 3
        # an integer result past one prime is one elimination mod their product
        calls.clear()
        rows = [[2**40, 1], [1, 2**40 + 1]]
        assert det(from_rows(rows)) == abs(bareiss(rows))
        assert calls == [(p0 * p1 * p2, False)]
        # a Z[q] call that evaluates more than once records only the integer
        # route's first elimination, of M(1)
        calls.clear()
        monkeypatch.setattr(exactalg, "_replay_block", honest_replay)
        d = det(bipartite_matrix(flat_signing(q_weight_graph(build_hexagon(2, 2, 2)))))
        assert d.shift(-d.low_degree()) == q_box_product(2, 2, 2)
        recorded = [record for _, record in calls]
        assert recorded[:1] == [True] and True not in recorded[1:]

    @pytest.mark.parametrize("k", [1, 40])
    def test_zero_at_one_records_nothing_and_eliminates_every_point(self, k, monkeypatch):
        # det M(1) = 0 and Pf(1) = 0 while the results are 1 - q^k: M(1)
        # records no program, so every point x >= 2 (two blocks for k = 40)
        # is eliminated afresh and nothing is replayed
        honest = exactalg._pf_mod
        calls = []

        def eliminate(n, pairs, vals, p, record=False):
            out = honest(n, pairs, vals, p, record)
            calls.append((record, out[1]))
            return out

        def replay(*args):
            raise AssertionError("replayed a program that M(1) did not record")

        monkeypatch.setattr(exactalg, "_pf_mod", eliminate)
        monkeypatch.setattr(exactalg, "_replay_block", replay)
        qk = QPoly.q_power(k)
        rows = [[1, qk], [1, 1]]
        assert bareiss(rows) == 1 - qk
        assert det(from_rows(rows)) == 1 - qk
        assert calls[0] == (True, None) and len(calls) == 1 + k
        calls.clear()
        rows = skew_from_upper([1, 1, 0, 0, qk, 1], 4)
        assert pf_expand(rows) == 1 - qk
        assert pfaffian_abs(from_rows(rows)) == 1 - qk
        assert calls[0] == (True, None) and len(calls) == 1 + k

    def test_entries_that_vanish_mod_a_prime(self):
        p0, p1 = _prime(0), _prime(1)
        for rows in ([[p0]], [[p1]], [[p1, 1], [1, 1]], [[p0, 1, 0], [2, p0, p1], [0, -p1, 3]]):
            assert det(from_rows(rows)) == abs(bareiss(rows))
        m = from_rows(skew_from_upper([p0, 1, 0, 1, 1, p1], 4))
        assert pfaffian_abs(m) == abs(p0 * p1 - 1 + 0)

    def test_prime_list_is_prime_descending_and_deterministic(self):
        def is_prime(n):
            return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))

        primes = [_prime(k) for k in range(6)]
        assert primes[0] == 2**30 - 35
        assert all(2**29 < p < 2**30 and is_prime(p) for p in primes)
        for hi, lo in zip(primes, primes[1:]):
            assert lo < hi
            assert not any(is_prime(x) for x in range(lo + 1, hi))
        _prime.cache_clear()
        assert [_prime(k) for k in range(6)] == primes


class TestQPoly:
    def test_str_ascending(self):
        assert str(QPoly((1, 2, 1))) == "1 + 2*q + q^2"
        assert str(QPoly((0, 1))) == "q"
        assert str(QPoly(())) == "0"

    def test_constant_hashes_like_its_int(self):
        for n in (0, 5, -3, 2**70):
            assert QPoly.const(n) == n and hash(QPoly.const(n)) == hash(n)
        assert len({QPoly.const(5), 5}) == 1 and len({QPoly(), 0}) == 1
        assert QPoly((1, 1)) != 1 and QPoly((1, 1)) == QPoly((1, 1, 0))
        assert hash(QPoly((1, 1))) == hash(QPoly((1, 1, 0)))

    def test_arithmetic_with_ints(self):
        p = QPoly((1, 1))
        assert p + 1 == QPoly((2, 1))
        assert 2 * p == QPoly((2, 2))
        assert p - p == QPoly(())

    @given(st.lists(small_int, min_size=1, max_size=5), st.lists(small_int, min_size=1, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_product_division_roundtrip(self, xs, ys):
        p, r = QPoly(xs), QPoly(ys)
        if r.is_zero():
            return
        assert (p * r).div_exact(r) == p
