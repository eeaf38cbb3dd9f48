import itertools
import random

import pytest

from conftest import (
    graph_from_points,
    grid_graph,
    q_box_with_half_turn,
    random_planar_bipartite,
    random_planar_graph,
    wheel_graph,
)
from reference import (
    check_flat_orientation,
    count_perfect_matchings,
    from_rows,
    hafnian,
    permanent,
    symmetric_matrix,
    unsigned_bipartite_matrix,
    weighted_matching_sum_brute,
)

from ppcount import exactalg, kasteleyn
from ppcount.cli import q_matrix_count
from ppcount.exactalg import QPoly, det, pfaffian_abs
from ppcount.formulas import q_box_product
from ppcount.hexgrid import Edge, EmbeddingError, PlanarMultigraph, build_graph, build_hexagon, q_weight_graph
from ppcount.kasteleyn import (
    OrientedGraph,
    SignedGraph,
    _against,
    _face_of_dart,
    bipartite_matrix,
    flat_orientation,
    flat_signing,
    nonflat_faces,
    skew_matrix,
    weighted_matching_sum,
)
from ppcount.symmetry import CLASSES, quotient_graph


def cycle_graph(k, bipartite=True):
    import math

    points = {i: (math.cos(2 * math.pi * i / k), math.sin(2 * math.pi * i / k)) for i in range(k)}
    pairs = [(i, (i + 1) % k) for i in range(k)]
    bip = None
    if bipartite and k % 2 == 0:
        bip = (frozenset(range(0, k, 2)), frozenset(range(1, k, 2)))
    return graph_from_points(points, pairs, bipartition=bip)


def test_all_positive_six_cycle_is_flat():
    g = cycle_graph(6)
    assert nonflat_faces(SignedGraph(g, {e.eid: 1 for e in g.edges})) == []


def test_all_positive_four_cycle_is_not_flat():
    g = cycle_graph(4)
    # both sides of the square
    assert len(nonflat_faces(SignedGraph(g, {e.eid: 1 for e in g.edges}))) == 2


def test_flat_signing_four_cycle_flips_an_odd_number():
    g = cycle_graph(4)
    sg = flat_signing(g)
    assert not nonflat_faces(sg)
    assert sum(1 for s in sg.signs.values() if s < 0) in (1, 3)


def test_flat_signing_z_graph_keeps_all_positive():
    # every bounded face is a hexagon, so the trivial signing is already flat
    g = build_graph(build_hexagon(2, 2, 2))
    sg = flat_signing(g)
    assert all(s == 1 for s in sg.signs.values())
    assert not nonflat_faces(sg)


def test_flat_signing_quotient_with_doubled_edge():
    q = quotient_graph(build_hexagon(2, 2, 2), CLASSES[3])
    sg = flat_signing(q)
    assert not nonflat_faces(sg)
    m = bipartite_matrix(sg)
    assert det(m) == 5


def test_nonflat_face_count_is_even_on_random_bipartite(rng):
    for _ in range(25):
        g = random_planar_bipartite(rng)
        assert len(nonflat_faces(SignedGraph(g, {e.eid: 1 for e in g.edges}))) % 2 == 0


def test_det_equals_matching_count_z_graphs():
    for a in range(4):
        for b in range(4):
            for c in range(4):
                g = build_graph(build_hexagon(a, b, c))
                assert weighted_matching_sum(g) == count_perfect_matchings(g)


def test_det_equals_permanent_random_bipartite(rng):
    for _ in range(25):
        g = random_planar_bipartite(rng)
        sg = flat_signing(g)
        m_signed = bipartite_matrix(sg)
        m_plain = unsigned_bipartite_matrix(g)
        brute = count_perfect_matchings(g)
        assert det(m_signed) == permanent(m_plain) == brute


def test_single_edge_orientation():
    g = grid_graph(1, 2, flag_bipartite=False)
    og = flat_orientation(g)
    assert pfaffian_abs(skew_matrix(og)) == 1


def test_six_cycle_orientation():
    g = cycle_graph(6, bipartite=False)
    og = flat_orientation(g)
    assert check_flat_orientation(og)
    assert pfaffian_abs(skew_matrix(og)) == 2


def test_odd_path_has_no_matchings():
    g = grid_graph(1, 3, flag_bipartite=False)
    og = OrientedGraph(g, {e.eid: e.v for e in g.edges})
    assert pfaffian_abs(skew_matrix(og)) == 0  # odd size: zero matchings
    assert hafnian(symmetric_matrix(g)) == 0
    even = skew_matrix(flat_orientation(grid_graph(1, 4, flag_bipartite=False)))
    assert pfaffian_abs(even) == 1


def test_six_cycle_bipartite_matrix():
    g = cycle_graph(6)
    m = unsigned_bipartite_matrix(g)
    assert m.nrows == m.ncols == 3
    assert permanent(m) == 2
    assert det(m) == 2  # the trivial signing is already flat here


def test_wheel_orientations_count_matchings():
    for k in [3, 5, 7]:  # odd wheels are non-bipartite with even vertex count
        g = wheel_graph(k)
        og = flat_orientation(g)
        assert check_flat_orientation(og)
        assert pfaffian_abs(skew_matrix(og)) == count_perfect_matchings(g)


def test_pfaffian_counts_on_random_planar(rng):
    for _ in range(25):
        g = random_planar_graph(rng)
        if g.n_vertices % 2:
            continue
        og = flat_orientation(g)
        assert check_flat_orientation(og)
        assert pfaffian_abs(skew_matrix(og)) == count_perfect_matchings(g)


def test_hafnian_equals_matching_count(rng):
    for _ in range(10):
        g = random_planar_graph(rng)
        assert hafnian(symmetric_matrix(g)) == count_perfect_matchings(g)


def test_class5_quotient_pfaffian():
    q = quotient_graph(build_hexagon(2, 2, 2), CLASSES[5])
    og = flat_orientation(q)
    assert check_flat_orientation(og)
    assert pfaffian_abs(skew_matrix(og)) == 4


def test_quotient_counts_match_formulas_medium():
    # beyond the brute-force range: quotients with gadgets of up to ten
    # attachments, determinants/Pfaffians of ~40x40 exact matrices
    from ppcount.formulas import n_class

    for cid in CLASSES:
        for a in range(6):
            for b in range(6):
                for c in range(6):
                    if not CLASSES[cid].box_fixed((a, b, c)):
                        continue
                    q = quotient_graph(build_hexagon(a, b, c), CLASSES[cid])
                    assert weighted_matching_sum(q) == n_class(cid, (a, b, c)), (
                        cid,
                        (a, b, c),
                    )


def test_pf_squared_equals_det_on_produced_matrices(rng):
    for _ in range(10):
        g = random_planar_graph(rng)
        if g.n_vertices % 2:
            continue
        m = skew_matrix(flat_orientation(g))
        assert pfaffian_abs(m) ** 2 == det(m)


def test_bridged_graph_counts():
    # two squares joined by a bridge: both square faces need a sign flip and
    # the dual path between them must route around the bridge
    points = {
        "a0": (0, 0), "a1": (1, 0), "a2": (1, 1), "a3": (0, 1),
        "b0": (3, 0), "b1": (4, 0), "b2": (4, 1), "b3": (3, 1),
    }
    pairs = [
        ("a0", "a1"), ("a1", "a2"), ("a2", "a3"), ("a3", "a0"),
        ("b0", "b1"), ("b1", "b2"), ("b2", "b3"), ("b3", "b0"),
        ("a1", "b0"),
    ]
    blk = frozenset({"a0", "a2", "b0", "b2"})
    g = graph_from_points(points, pairs, bipartition=(blk, frozenset(set(points) - blk)))
    assert count_perfect_matchings(g) == 4
    sg = flat_signing(g)
    assert not nonflat_faces(sg)
    assert det(bipartite_matrix(sg)) == 4
    og = flat_orientation(g)
    assert check_flat_orientation(og)
    assert pfaffian_abs(skew_matrix(og)) == 4


def test_flat_signing_rejects_bad_inputs():
    with pytest.raises(ValueError):
        flat_signing(wheel_graph(3))  # non-bipartite
    with pytest.raises(ValueError):
        flat_signing(grid_graph(1, 3, flag_bipartite=False))  # odd vertex count


def test_flat_signing_odd_component_is_a_value_error():
    # six vertices in all, but two paths of three: each path has one face,
    # of four sides and with no negative edge, so each is non-flat, and no
    # dual path joins them to pair them off
    g = grid_graph(2, 3, dropped=frozenset(((0, c), (1, c)) for c in range(3)))
    assert g.bipartition is not None
    assert sorted(len(c) for c in g.components()) == [3, 3]
    with pytest.raises(ValueError, match="odd number of vertices"):
        flat_signing(g)


@pytest.mark.parametrize("dims", [(1, 1, 1), (2, 2, 1), (3, 3, 1)])
def test_unflagged_graphs_have_no_signing_or_bipartite_matrix(dims):
    # class 7 quotients carry no bipartition; the builder's flag, not a
    # second colouring, decides whether a graph has a bipartite matrix
    q = quotient_graph(build_hexagon(*dims), CLASSES[7])
    assert q.n_vertices % 2 == 0 and q.bipartition is None
    with pytest.raises(ValueError, match="flagged bipartite"):
        flat_signing(q)
    with pytest.raises(ValueError, match="flagged bipartite"):
        bipartite_matrix(SignedGraph(q, {e.eid: 1 for e in q.edges}))


def test_unequal_classes_signal_no_matchings():
    # a path on three vertices: 2 vs 1 color classes
    g = grid_graph(1, 3)
    assert bipartite_matrix(SignedGraph(g, {e.eid: 1 for e in g.edges})) is None
    assert weighted_matching_sum(grid_graph(2, 3)) == count_perfect_matchings(grid_graph(2, 3))


def reference_flat_signing(g):
    """The flat signing before it was read off the flat orientation: it
    pairs off non-flat faces along dual paths, recomputing the whole
    non-flat face set after every path flip, O(faces^2).  Kept as the
    reference, with RuntimeError for its convergence guard."""
    if g.n_vertices % 2:
        raise ValueError("flat signing needs an even number of vertices")
    if g.bipartition is None:
        raise ValueError("flat signing requires a graph flagged bipartite")
    faces = g.assert_valid_embedding()
    signs = {e.eid: 1 for e in g.edges}
    face_of_dart = {d: fi for fi, f in enumerate(faces) for d in f}
    dual = {fi: [] for fi in range(len(faces))}
    for e in g.edges:
        f0, f1 = face_of_dart[2 * e.eid], face_of_dart[2 * e.eid + 1]
        if f0 != f1:
            dual[f0].append((f1, e.eid))
            dual[f1].append((f0, e.eid))

    def nonflat_set():
        out = set()
        for fi, f in enumerate(faces):
            neg = sum(1 for d in f if signs[d >> 1] < 0)
            if (neg % 2 == 1) != (len(f) % 4 == 0):
                out.add(fi)
        return out

    bad = nonflat_set()
    guard = 0
    while bad:
        guard += 1
        if guard > 4 * len(faces) + 8:
            raise RuntimeError("flat signing failed to converge")
        start = min(bad)
        prev = {start: (None, None)}
        queue = [start]
        target = None
        while queue and target is None:
            nxt = []
            for fi in queue:
                for fj, eid in dual[fi]:
                    if fj not in prev:
                        prev[fj] = (fi, eid)
                        if fj != start and fj in bad:
                            target = fj
                            break
                        nxt.append(fj)
                if target is not None:
                    break
            queue = nxt
        if target is None:
            raise ValueError("a component has an odd number of vertices")
        fi = target
        while prev[fi][0] is not None:
            _, eid = prev[fi]
            signs[eid] = -signs[eid]
            fi = prev[fi][0]
        bad = nonflat_set()
    return signs


def _assert_signing_matches_reference(g):
    """flat_signing raises where the reference does, keeps the reference's
    all +1 where it flips nothing, and elsewhere gives a flat signing whose
    determinant, like the reference's, counts the perfect matchings."""
    try:
        want = reference_flat_signing(g)
    except (ValueError, RuntimeError) as exc:
        with pytest.raises(type(exc)):
            flat_signing(g)
        return
    sg = flat_signing(g)
    if all(s > 0 for s in want.values()):
        assert sg.signs == want
        return
    ref = SignedGraph(g, want)
    assert not nonflat_faces(sg) and not nonflat_faces(ref)
    m, m_ref = bipartite_matrix(sg), bipartite_matrix(ref)
    got = 0 if m is None else det(m)
    assert got == (0 if m_ref is None else det(m_ref)) == count_perfect_matchings(g)


def test_flat_signing_matches_reference_on_small_graphs(rng):
    graphs = [grid_graph(r, c) for r in range(1, 6) for c in range(1, 7)]
    graphs += [cycle_graph(k) for k in (4, 6, 8, 10)]
    graphs += [random_planar_bipartite(rng) for _ in range(40)]
    graphs += [random_planar_graph(rng) for _ in range(10)]
    graphs += [build_graph(build_hexagon(*dims)) for dims in [(1, 1, 1), (2, 3, 4), (3, 3, 3)]]
    flips = 0
    for g in graphs:
        _assert_signing_matches_reference(g)
        if g.bipartition is not None and g.n_vertices % 2 == 0:
            flips += sum(1 for s in flat_signing(g).signs.values() if s < 0)
    assert flips > 0  # the grids' square faces need sign flips


def test_flat_signing_matches_reference_on_quotients(small_quotients):
    for _, _, q in small_quotients:
        _assert_signing_matches_reference(q)


def test_program_graphs_are_flat_with_all_plus_one_and_stored_directions(small_quotients):
    """Every graph the program flags bipartite with sides <= 6 (Z, which is
    class 1's quotient, and the quotients of classes 3, 6 and 8) has only
    faces with 4k+2 sides: flat_signing returns all +1 and flat_orientation
    keeps every stored direction, so the sign exports do not depend on how
    either would fix a face."""
    graphs = [q for _, _, q in small_quotients if q.bipartition is not None]
    assert len(graphs) == 406
    for g in graphs:
        assert flat_signing(g).signs == {e.eid: 1 for e in g.edges}
        assert flat_orientation(g).heads == {e.eid: e.v for e in g.edges}


def reference_spanning_tree(g, comp):
    """The edge ids of the component's breadth-first spanning tree from its
    least vertex, walked frontier by frontier in rotation order."""
    root = min(comp)
    seen = {root}
    tree: set = set()
    frontier = [root]
    while frontier:
        nxt = []
        for v in frontier:
            for d in g.rotation[v]:
                w = g.tails[d ^ 1]  # the dart's head
                if w not in seen:
                    seen.add(w)
                    tree.add(d >> 1)
                    nxt.append(w)
        frontier = nxt
    return tree


def _assert_forest_is_the_breadth_first_one(g):
    forest = g.spanning_forest()
    assert sorted(v for v, _ in forest) == list(g.vertices)  # each vertex once
    comps = g.components()
    # one root per component, its least id, in the order of those ids
    assert [v for v, d in forest if d < 0] == sorted(min(comp) for comp in comps)
    listed = set()
    for v, d in forest:
        if d >= 0:  # from a vertex listed earlier, to v
            assert g.tails[d] in listed and g.tails[d ^ 1] == v
        listed.add(v)
    assert {d >> 1 for _, d in forest if d >= 0} == set().union(*(reference_spanning_tree(g, c) for c in comps))


def test_spanning_forest_is_the_breadth_first_one_on_z_graphs():
    for dims in itertools.product(range(5), repeat=3):
        _assert_forest_is_the_breadth_first_one(build_graph(build_hexagon(*dims)))


def test_spanning_forest_is_the_breadth_first_one_on_quotients(small_quotients):
    several = 0
    for _, _, q in small_quotients:
        _assert_forest_is_the_breadth_first_one(q)
        several += len(q.components()) > 1
    assert several > 0


def reference_flat_orientation(g):
    """The flat orientation before it took the whole graph: one spanning
    tree and one dual tree per component.  Kept as the reference."""
    if g.n_vertices % 2:
        raise ValueError("flat orientation needs an even number of vertices")
    faces = g.assert_valid_embedding()
    heads = {e.eid: e.v for e in g.edges}  # start with the stored direction
    face_of_dart = _face_of_dart(g, faces)

    for comp in g.components():
        comp_edges = [e for e in g.edges if e.u in comp]
        if not comp_edges:
            continue
        tree = reference_spanning_tree(g, comp)
        cotree = [e for e in comp_edges if e.eid not in tree]
        # dual tree on the component's faces through co-tree edges
        comp_faces = sorted(
            {face_of_dart[2 * e.eid] for e in comp_edges}
            | {face_of_dart[2 * e.eid + 1] for e in comp_edges}
        )
        dual = {fi: [] for fi in comp_faces}
        for e in cotree:
            f0, f1 = face_of_dart[2 * e.eid], face_of_dart[2 * e.eid + 1]
            if f0 == f1:
                raise EmbeddingError("co-tree edge with a single incident face")
            dual[f0].append((f1, e.eid))
            dual[f1].append((f0, e.eid))
        root_face = comp_faces[0]
        order = [root_face]
        parent_edge = {root_face: None}
        qi = 0
        while qi < len(order):
            fi = order[qi]
            qi += 1
            for fj, eid in dual[fi]:
                if fj not in parent_edge:
                    parent_edge[fj] = eid
                    order.append(fj)
        if len(order) != len(comp_faces):
            raise EmbeddingError("dual co-tree does not span the faces")

        for fi in reversed(order[1:]):  # leaves towards the root face
            if _against(g, faces[fi], heads) % 2 == 0:
                eid = parent_edge[fi]
                e = g.edge_by_id[eid]
                heads[eid] = e.u if heads[eid] == e.v else e.v
    return heads


def two_grids(shape_a, shape_b, flag_bipartite=True):
    """The disjoint union of two grid graphs, side by side; the first
    grid's vertices come first."""
    points, pairs = {}, []
    offset = 0
    for k, (rows, cols) in enumerate((shape_a, shape_b)):
        for r in range(rows):
            for c in range(cols):
                points[(k, r, c)] = (offset + c, -r)
                if c + 1 < cols:
                    pairs.append(((k, r, c), (k, r, c + 1)))
                if r + 1 < rows:
                    pairs.append(((k, r, c), (k, r + 1, c)))
        offset += cols + 1
    bip = None
    if flag_bipartite:
        blk = frozenset(p for p in points if (p[1] + p[2]) % 2 == 0)
        bip = (blk, frozenset(points) - blk)
    return graph_from_points(points, pairs, bipartition=bip)


def _assert_orientation_matches_reference(g):
    try:
        want = reference_flat_orientation(g)
    except (ValueError, EmbeddingError) as exc:
        with pytest.raises(type(exc)):
            flat_orientation(g)
        return
    og = flat_orientation(g)
    assert og.heads == want
    assert check_flat_orientation(og)


def test_flat_orientation_matches_reference_on_quotients(small_quotients):
    several = 0
    for _, _, q in small_quotients:
        _assert_orientation_matches_reference(q)
        several += q.n_vertices % 2 == 0 and len(q.components()) > 1
    assert several > 0  # the whole-graph forests meet several components


def test_flat_orientation_matches_reference_on_small_graphs(rng):
    graphs = [build_graph(build_hexagon(*dims)) for dims in [(1, 1, 1), (2, 3, 4), (3, 3, 3), (6, 6, 6)]]
    graphs += [random_planar_graph(rng) for _ in range(25)]
    graphs += [random_planar_bipartite(rng) for _ in range(10)]
    graphs += [wheel_graph(k) for k in (3, 5, 7)]
    graphs += [two_grids((2, 3), (3, 4)), two_grids((1, 2), (2, 2), flag_bipartite=False)]
    for g in graphs:
        _assert_orientation_matches_reference(g)


@pytest.mark.parametrize("flag_bipartite", [True, False])
def test_disjoint_grids_count_as_the_product(flag_bipartite):
    # one determinant (flagged) or one Pfaffian (unflagged) of the whole
    # graph multiplies the components' counts
    g = two_grids((2, 3), (3, 4), flag_bipartite)
    assert len(g.components()) == 2
    want = count_perfect_matchings(grid_graph(2, 3)) * count_perfect_matchings(grid_graph(3, 4))
    assert want == 3 * 11
    assert weighted_matching_sum(g) == want == count_perfect_matchings(g)


def _builder_matrices(g):
    """The matrices the three builders make of g, where they apply."""
    out = [symmetric_matrix(g)]
    if g.n_vertices % 2 == 0:
        out.append(skew_matrix(flat_orientation(g)))
    if g.bipartition is not None:
        out.append(unsigned_bipartite_matrix(g))
    return [m for m in out if m is not None]


@pytest.mark.parametrize("weighted", [build_graph, q_weight_graph])
def test_builders_give_the_canonical_sparse_form_on_z_graphs(weighted):
    for dims in [(1, 1, 1), (2, 3, 4), (3, 3, 3), (4, 2, 5)]:
        g = weighted(build_hexagon(*dims))
        for m in _builder_matrices(g) + [bipartite_matrix(flat_signing(g))]:
            assert m.poly == (weighted is q_weight_graph)
            assert from_rows(m.entries) == m


def test_builders_give_the_canonical_sparse_form_on_quotients(small_quotients):
    for _, _, q in small_quotients:
        for m in _builder_matrices(q):
            assert from_rows(m.entries) == m


def test_flat_orientation_is_flat_on_quotients_and_z_graphs(small_quotients):
    graphs = [q for _, _, q in small_quotients if q.n_vertices % 2 == 0]
    # 6 x 6 x 6 has coordinates up to 11, where label order and id order differ
    graphs += [build_graph(build_hexagon(*dims)) for dims in [(1, 1, 1), (2, 3, 4), (6, 6, 6)]]
    for g in graphs:
        assert check_flat_orientation(flat_orientation(g))


def _q_primes(g, monkeypatch):
    """The normalized q matching sum of g, and the primes its Z[q]
    determinant took: ``_interpolate`` runs once per prime."""
    honest = exactalg._interpolate
    primes = []

    def interpolate(xs, ys, p):
        primes.append(p)
        return honest(xs, ys, p)

    monkeypatch.setattr(exactalg, "_interpolate", interpolate)
    d = weighted_matching_sum(g)
    return d.shift(-d.low_degree()), primes


@pytest.mark.parametrize("n, count", [(5, 1), (8, 3)])
def test_certified_bound_takes_fewer_primes(n, count, monkeypatch):
    # Goldstein-Graham asks for 2 primes at 5^3 and 5 at 8^3
    d, primes = _q_primes(q_weight_graph(build_hexagon(n, n, n)), monkeypatch)
    assert d == q_box_product(n, n, n)
    assert len(primes) == count


def test_unflat_signing_falls_back_to_goldstein_graham(monkeypatch):
    monkeypatch.setattr(kasteleyn, "nonflat_faces", lambda sg: [0])
    d, primes = _q_primes(q_weight_graph(build_hexagon(5, 5, 5)), monkeypatch)
    assert d == q_box_product(5, 5, 5)
    assert len(primes) == 2


def test_negative_weight_falls_back_to_goldstein_graham(monkeypatch):
    # every matching takes one edge at vertex 0, so negating them all flips
    # every matching's sign and leaves the sign-normalized sum unchanged
    g = q_weight_graph(build_hexagon(5, 5, 5))
    edges = [Edge(e.eid, e.u, e.v, -e.weight if 0 in (e.u, e.v) else e.weight) for e in g.edges]
    assert any(c < 0 for e in edges for c in e.weight.coeffs)
    g = PlanarMultigraph(g.labels, edges, g.rotation, g.bipartition)
    d, primes = _q_primes(g, monkeypatch)
    assert d == q_box_product(5, 5, 5)
    assert len(primes) == 2


def test_unflat_signing_certifies_neither_bound_nor_mirror():
    # one edge's sign flipped leaves two faces non-flat: no one-sign bound,
    # and the mirror, whose proof needs the same flatness, is not tried
    for dims in [(2, 2, 3), (3, 3, 3), (1, 2, 4)]:
        g, kappa = q_box_with_half_turn(dims)
        sg = flat_signing(g)
        assert kasteleyn._certificates(sg, kappa)[1] is not None
        flipped = SignedGraph(g, {**sg.signs, g.edges[0].eid: -1})
        assert nonflat_faces(flipped)
        assert kasteleyn._certificates(flipped, kappa) == (False, None)


def _spy_certificate(monkeypatch):
    """The mirror exponents ``_certificates`` returns, and the Z[q]
    evaluations: the elimination that records the program, and the lanes
    of each block replay."""
    seen = {"mirrors": [], "evaluations": 0}
    honest_certificates, honest_pf, honest_replay = kasteleyn._certificates, exactalg._pf_mod, exactalg._replay_block

    def certificates(sg, kappa):
        out = honest_certificates(sg, kappa)
        seen["mirrors"].append(out[1])
        return out

    def pf_mod(n, pairs, vals, p, record=False):
        seen["evaluations"] += record
        return honest_pf(n, pairs, vals, p, record)

    def replay_block(program, vals, p):
        seen["evaluations"] += len(vals[0])
        return honest_replay(program, vals, p)

    monkeypatch.setattr(kasteleyn, "_certificates", certificates)
    monkeypatch.setattr(exactalg, "_pf_mod", pf_mod)
    monkeypatch.setattr(exactalg, "_replay_block", replay_block)
    return seen


def test_half_window_equals_macmahon(monkeypatch):
    # every box with sides <= 5, and boxes of odd degree 27, 105, 123 and 9
    boxes = [(a, b, c) for a in range(6) for b in range(6) for c in range(6)]
    boxes += [(3, 5, 7), (1, 3, 41), (1, 1, 9)]
    seen = _spy_certificate(monkeypatch)
    for dims in boxes:
        seen["mirrors"].clear()
        assert q_matrix_count(dims) == q_box_product(*dims), dims
        a, b, c = dims
        if a * b + b * c + c * a:  # a nonempty graph proves its mirror
            assert seen["mirrors"] and seen["mirrors"][0] is not None, dims


@pytest.mark.parametrize("n, primes", [(5, 1), (7, 2)])
def test_half_window_takes_half_the_evaluations(n, primes, monkeypatch):
    # degree D = n^3: floor(D/2) + 1 points per prime, against D + 1; the
    # integer elimination of K(1) records the program and gives every
    # prime its value at x = 1, so each prime evaluates floor(D/2) points
    seen = _spy_certificate(monkeypatch)
    assert q_matrix_count((n, n, n)) == q_box_product(n, n, n)
    assert seen["evaluations"] == 1 + primes * (n**3 // 2)


def _spy_eliminations(monkeypatch):
    """The ``_pf_mod`` calls as (modulus, record), or (modulus, "raised")
    for one that met a pivot with no inverse."""
    honest = exactalg._pf_mod
    calls = []

    def pf_mod(n, pairs, vals, p, record=False):
        try:
            out = honest(n, pairs, vals, p, record)
        except ValueError:
            calls.append((p, "raised"))
            raise
        calls.append((p, record))
        return out

    monkeypatch.setattr(exactalg, "_pf_mod", pf_mod)
    return calls


@pytest.mark.parametrize("dims", [(3, 3, 3), (4, 4, 4), (5, 5, 5), (3, 4, 5)], ids=lambda d: "x".join(map(str, d)))
def test_q_route_eliminates_once(dims, monkeypatch):
    # the integer elimination of K(1), modulo one group of primes, both
    # proves N and records the program; every prime replays x >= 2
    calls = _spy_eliminations(monkeypatch)
    assert q_matrix_count(dims) == q_box_product(*dims)
    assert [record for _, record in calls] == [True]


def test_q_route_records_in_the_per_prime_fallback(monkeypatch):
    # 1x2x2 under the primes 13, 2, 3, ...: K(1) takes the group 13 * 2 * 3,
    # which meets a pivot that is 0 mod 2 or 3 alone, so each of its primes
    # is eliminated on its own and the first records.  N = 6 leaves 13 for
    # the q route, whose x = 3 plans a pivot that is 0 mod 13 and is
    # eliminated afresh
    monkeypatch.setattr(exactalg, "_prime", (13, 2, 3, 5, 7, 11).__getitem__)
    calls = _spy_eliminations(monkeypatch)
    assert q_matrix_count((1, 2, 2)) == q_box_product(1, 2, 2)
    assert calls == [(78, "raised"), (13, True), (2, False), (3, False), (13, False)]


def test_thin_box_replays_without_a_batch_inversion(monkeypatch):
    # on 1 x 1 x k every pivot of the replay holds one value on all lanes,
    # so each takes one pow; ``_interpolate`` still batches the inverses
    # of its gaps between the nodes x + 1/x, outside the replay
    honest_replay, honest_inverses = exactalg._replay_block, exactalg._inverses
    lanes, batches, replaying = [], [], [False]

    def replay_block(program, vals, p):
        lanes.append(len(vals[0]))
        replaying[0] = True
        try:
            return honest_replay(program, vals, p)
        finally:
            replaying[0] = False

    def inverses(a, p):
        if replaying[0]:
            batches.append(len(a))
        return honest_inverses(a, p)

    monkeypatch.setattr(exactalg, "_replay_block", replay_block)
    monkeypatch.setattr(exactalg, "_inverses", inverses)
    assert q_matrix_count((1, 1, 99)) == q_box_product(1, 1, 99)
    assert lanes == [32, 17]  # one prime (N = 100), x = 2..50
    assert batches == []


def _mutated_weight(g, kappa):
    """g with one weight c q^k raised to c q^(k + 1), on an edge that the
    half-turn moves."""
    e = next(e for e in g.edges if {kappa[e.u], kappa[e.v]} != {e.u, e.v})
    edges = [Edge(f.eid, f.u, f.v, f.weight * QPoly.q_power(1)) if f is e else f for f in g.edges]
    return PlanarMultigraph(g.labels, edges, g.rotation, g.bipartition), kappa


def _doubled_coefficient(g, kappa):
    """g with one weight q^k made 2 q^k, on an edge that the half-turn
    moves, so it and its image differ in c alone."""
    e = next(e for e in g.edges if {kappa[e.u], kappa[e.v]} != {e.u, e.v})
    edges = [Edge(f.eid, f.u, f.v, 2 * f.weight) if f is e else f for f in g.edges]
    return PlanarMultigraph(g.labels, edges, g.rotation, g.bipartition), kappa


def _not_a_monomial(g, kappa):
    """g with 1 added to the weight q^k (k > 0) of an edge and to that of its
    image: the top terms still pair off, the weights are no monomials."""
    e = next(e for e in g.edges if e.weight.degree() > 0 and {kappa[e.u], kappa[e.v]} != {e.u, e.v})
    image = {kappa[e.u], kappa[e.v]}
    edges = [Edge(f.eid, f.u, f.v, f.weight + 1) if f is e or {f.u, f.v} == image else f for f in g.edges]
    return PlanarMultigraph(g.labels, edges, g.rotation, g.bipartition), kappa


def _not_an_involution(g, kappa):
    """The half-turn with the images of vertices 0 and 1 swapped."""
    k = list(kappa)
    k[0], k[1] = k[1], k[0]
    return g, k


def _keeps_the_colours(g, kappa):
    """The identity map, an involution that keeps both colour classes."""
    return g, list(g.vertices)


@pytest.mark.parametrize(
    "mutation", [_mutated_weight, _doubled_coefficient, _not_a_monomial, _not_an_involution, _keeps_the_colours]
)
def test_broken_mirror_falls_back_to_the_full_window(mutation, monkeypatch):
    # 2x2x3: 32 vertices, one prime, the terms q^2 .. q^14 (degree 12 after
    # normalizing), so G = 16; the honest half-turn takes 7 evaluations, a
    # map or weight that breaks the proof the full 13
    g, kappa = q_box_with_half_turn((2, 2, 3))
    seen = _spy_certificate(monkeypatch)
    assert weighted_matching_sum(g, kappa) == weighted_matching_sum_brute(g)
    assert seen["mirrors"] == [16] and seen["evaluations"] == 7
    g, kappa = mutation(g, kappa)
    seen["mirrors"].clear()
    seen["evaluations"] = 0
    brute = weighted_matching_sum_brute(g)
    assert weighted_matching_sum(g, kappa) == brute
    # the full window is the span of the terms (13 but for the raised weight)
    assert seen["mirrors"] == [None] and seen["evaluations"] == brute.degree() - brute.low_degree() + 1
