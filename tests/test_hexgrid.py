import itertools

import pytest

from conftest import (
    graph_from_points,
    grid_graph,
    random_planar_bipartite,
    random_planar_graph,
    wheel_graph,
)
from reference import (
    act_triangle,
    build_graph_reference,
    count_perfect_matchings,
    neighbors,
    orientation,
    weighted_matching_sum_brute,
)

from ppcount import hexgrid
from ppcount.exactalg import QPoly
from ppcount.formulas import n_class
from ppcount.hexgrid import (
    EmbeddingError,
    PlanarMultigraph,
    RegionError,
    Triangle,
    _trace_faces,
    build_graph,
    build_hexagon,
    q_weight_graph,
)
from ppcount.oracle import q_sum
from ppcount.symmetry import (
    CLASSES,
    KAPPA,
    build_parity_gadget,
    gadget_multigraph,
    quotient_graph,
)


def test_smallest_hexagon():
    r = build_hexagon(1, 1, 1)
    ups = {t for t in r.triangles if orientation(t, r) == "up"}
    downs = set(r.triangles) - ups
    assert ups == {Triangle(1, 1, 0), Triangle(1, 0, 1), Triangle(0, 1, 1)}
    assert downs == {Triangle(1, 0, 0), Triangle(0, 1, 0), Triangle(0, 0, 1)}


def test_2_1_1_hexagon():
    r = build_hexagon(2, 1, 1)
    assert len(r.triangles) == 10
    ups = [t for t in r.triangles if sum(t) == r.up_sum]
    assert len(ups) == 5 and len(r.triangles) - len(ups) == 5
    assert orientation(Triangle(1, 2, 0), r) == "up"


def test_flat_box_triangle_count():
    for a in range(5):
        for b in range(5):
            assert len(build_hexagon(a, b, 0).triangles) == 2 * a * b


def test_region_lists_the_triangles_of_its_definition():
    # the triples of the bounding box whose sum is that of an up or a down
    # triangle, sorted, flagged up by their sum; Z labels them as Triangles
    for dims in itertools.product(range(8), repeat=3):
        r = build_hexagon(*dims)
        (X, Y, Z), S = r.bounds, r.up_sum
        box = itertools.product(range(X + 1), range(Y + 1), range(Z + 1))
        want = [t for t in box if sum(t) in (S - 1, S)]
        assert list(r.triangles) == want, dims
        assert r.up == [sum(t) == S for t in want], dims
        labels = build_graph(r).labels
        assert all(isinstance(t, Triangle) for t in labels) and labels == want, dims


def test_negative_side_rejected():
    with pytest.raises(RegionError):
        build_hexagon(1, -1, 2)


def test_orientation_rejects_foreign_triangle():
    r = build_hexagon(1, 1, 1)
    with pytest.raises(RegionError):
        orientation(Triangle(5, 5, 5), r)


def test_up_down_counts_match_formula():
    for a in range(6):
        for b in range(6):
            for c in range(6):
                r = build_hexagon(a, b, c)
                want = a * b + b * c + c * a
                ups = sum(sum(t) == r.up_sum for t in r.triangles)
                assert ups == want
                assert len(r.triangles) - ups == want


def test_neighbors_boundary_cases():
    r = build_hexagon(1, 1, 1)
    assert set(neighbors(Triangle(1, 0, 0), r)) == {Triangle(1, 1, 0), Triangle(1, 0, 1)}
    assert len(neighbors(Triangle(1, 1, 0), r)) == 2


def test_interior_down_triangle_has_three_neighbors():
    r = build_hexagon(2, 2, 2)
    downs = [t for t in r.triangles if sum(t) != r.up_sum]
    center_downs = [t for t in downs if len(neighbors(t, r)) == 3]
    assert center_downs  # interior exists once all sides are >= 2
    for t in center_downs:
        assert all(orientation(u, r) == "up" for u in neighbors(t, r))


def test_kappa_flip_is_a_class_swapping_involution():
    r = build_hexagon(2, 3, 1)
    image = set()
    for t in r.triangles:
        s = act_triangle(KAPPA, t, r)
        image.add(s)
        assert orientation(s, r) != orientation(t, r)
        assert act_triangle(KAPPA, s, r) == t
    assert image == set(r.triangles)


def test_z_graph_smallest_is_a_six_cycle():
    g = build_graph(build_hexagon(1, 1, 1))
    assert g.n_vertices == 6 and g.n_edges == 6
    faces = g.assert_valid_embedding()
    assert sorted(len(f) for f in faces) == [6, 6]
    assert all(len(g.rotation[v]) == 2 for v in g.vertices)


def test_z_graph_euler_and_interior_hexagons():
    for dims in [(2, 1, 1), (2, 2, 2), (3, 2, 1), (3, 3, 3), (2, 2, 0), (4, 1, 0)]:
        g = build_graph(build_hexagon(*dims))
        faces = g.assert_valid_embedding()
        # every face except the outer one is six-sided
        assert sum(1 for f in faces if len(f) != 6) <= 1


def test_z_graph_matchings_match_counting_formula():
    for a in range(4):
        for b in range(4):
            for c in range(4):
                g = build_graph(build_hexagon(a, b, c))
                assert count_perfect_matchings(g) == n_class(1, (a, b, c))


def test_flat_box_has_unique_matching():
    for a, b in [(1, 1), (3, 2), (2, 4)]:
        g = build_graph(build_hexagon(a, b, 0))
        assert count_perfect_matchings(g) == 1


def test_q_weights_smallest_hexagon():
    g = q_weight_graph(build_hexagon(1, 1, 1))
    weights = sorted(str(e.weight) for e in g.edges)
    assert weights == ["1", "1", "1", "1", "1", "q"]
    total = weighted_matching_sum_brute(g)
    norm = total.shift(-total.low_degree())
    assert norm == q_sum(1, 1, 1) == QPoly((1, 1))


def test_q_weights_specialize_to_unweighted():
    r = build_hexagon(2, 2, 1)
    gq = q_weight_graph(r)
    g = build_graph(r)
    assert {e.eid: e.weight.subs(1) for e in gq.edges} == {e.eid: 1 for e in g.edges}


def test_q_matching_polynomial_2_2_2():
    g = q_weight_graph(build_hexagon(2, 2, 2))
    total = weighted_matching_sum_brute(g)
    assert total.shift(-total.low_degree()) == q_sum(2, 2, 2)


def test_graph_is_bipartite_flagged():
    g = build_graph(build_hexagon(2, 2, 2))
    blk, wht = g.bipartition
    assert len(blk) == len(wht) == 12
    for e in g.edges:
        assert (e.u in blk) != (e.v in blk)


def reference_faces(g):
    """The face tracer the sorted sweep replaced: it starts each face at
    min(unused), which costs O(faces * darts).  Kept as the reference."""
    pos = {}
    for v, darts in enumerate(g.rotation):
        for i, d in enumerate(darts):
            pos[d] = (v, i)
    unused = set(pos)
    out = []
    while unused:
        d0 = min(unused)
        face = []
        d = d0
        while True:
            face.append(d)
            unused.discard(d)
            v, i = pos[d ^ 1]
            ring = g.rotation[v]
            d = ring[(i + 1) % len(ring)]
            if d == d0:
                break
        out.append(face)
    return out


def test_faces_match_reference_on_small_graphs(rng):
    graphs = [grid_graph(r, c) for r in range(1, 5) for c in range(1, 6)]
    graphs += [grid_graph(3, 4, diagonals={(0, 0), (1, 2)}), wheel_graph(5), wheel_graph(6)]
    graphs += [random_planar_bipartite(rng) for _ in range(25)]
    graphs += [random_planar_graph(rng) for _ in range(25)]
    graphs += [build_graph(build_hexagon(*dims)) for dims in [(1, 1, 1), (2, 3, 4), (4, 4, 4)]]
    graphs += [gadget_multigraph(build_parity_gadget(n, p)) for n in (1, 4, 9) for p in ("odd", "even")]
    for g in graphs:
        assert g.assert_valid_embedding() == reference_faces(g)


def test_faces_match_reference_on_quotients(small_quotients):
    for cid, dims, q in small_quotients:
        assert q.assert_valid_embedding() == reference_faces(q), (cid, dims)


def _k4():
    """K4 drawn straight: a triangle and its centre, bipartition-free."""
    points = {"a": (0.0, 0.0), "b": (4.0, 0.0), "c": (2.0, 3.0), "o": (2.0, 1.0)}
    pairs = [("a", "b"), ("b", "c"), ("c", "a"), ("o", "a"), ("o", "b"), ("o", "c")]
    return graph_from_points(points, pairs)


def _with_rotation(g, rotation):
    return PlanarMultigraph(g.labels, g.edges, rotation, g.bipartition)


def test_face_tracer_refuses_a_dart_listed_twice():
    g = _k4()
    rotation = [list(ring) for ring in g.rotation]
    rotation[0].append(rotation[0][0])
    with pytest.raises(EmbeddingError, match="twice"):
        _with_rotation(g, rotation).assert_valid_embedding()


def test_face_tracer_refuses_an_edge_missing_a_rotation_slot():
    g = _k4()
    rotation = [list(ring) for ring in g.rotation]
    rotation[0].pop()
    with pytest.raises(EmbeddingError, match="missing a rotation slot"):
        _with_rotation(g, rotation).assert_valid_embedding()


def test_face_tracer_refuses_a_dart_at_the_wrong_vertex():
    g = _k4()
    rotation = [list(ring) for ring in g.rotation]
    rotation[0][0] ^= 1  # the twin starts at the other end
    with pytest.raises(EmbeddingError, match="does not start there"):
        _with_rotation(g, rotation).assert_valid_embedding()
    rotation = [list(ring) for ring in g.rotation]
    rotation[0].append(2 * g.n_edges)  # an edge the graph does not have
    with pytest.raises(EmbeddingError, match="does not start there"):
        _with_rotation(g, rotation).assert_valid_embedding()


def test_face_tracer_refuses_a_rotation_that_fails_euler():
    g = _k4()
    assert len(g.assert_valid_embedding()) == 4
    centre = g.labels.index("o")
    rotation = [list(ring) for ring in g.rotation]
    rotation[centre].reverse()
    bad = _with_rotation(g, rotation)
    assert len(_trace_faces(bad.tails, bad.rotation)) == 2  # it traces, on a torus
    with pytest.raises(EmbeddingError, match="V-E\\+F"):
        bad.assert_valid_embedding()


def test_build_graph_face_traces_z_once_in_its_own_call(monkeypatch):
    honest, calls = hexgrid._valid_faces, []

    def counted(*args):
        calls.append(args)
        return honest(*args)

    monkeypatch.setattr(hexgrid, "_valid_faces", counted)
    region = build_hexagon(2, 3, 4)
    assert not calls  # the region's Z itself is not checked
    builds = [lambda: build_graph(region), lambda: build_graph(region, True), lambda: q_weight_graph(region)]
    for build in builds:
        g = build()
        assert calls == [(g.tails, g.rotation)]
        g.assert_valid_embedding()  # kept from the build
        assert calls.pop() and not calls


def _assert_linear_index(dims):
    region = build_hexagon(*dims)
    z, tri = region, region.triangles
    assert len(z.at) <= 4 * len(tri), dims
    p, r = z.pair
    cells = [2 * (t[p] * z.width + t[r]) + u for t, u in zip(tri, z.up)]
    assert [z.at[k] for k in cells] == list(range(len(tri))), dims
    assert len(z.at) - z.at.count(-1) == len(tri), dims
    return z


def test_lattice_index_is_linear_in_the_triangles():
    for dims in itertools.product(range(9), repeat=3):
        z = _assert_linear_index(dims)
        if dims[0] == dims[1] == dims[2]:  # cubes index by (x, y), as ties do
            assert z.pair == (0, 1), dims


@pytest.mark.parametrize("dims", [(0, 1, 2700), (1, 1, 1349), (2700, 1, 0), (1, 2700, 0)])
def test_lattice_index_of_a_thin_strip_is_linear(dims):
    _assert_linear_index(dims)


def test_build_graph_checks_the_rings_of_z(monkeypatch):
    # two darts swapped at a vertex of degree 3 reverse its rotation
    region = build_hexagon(2, 2, 2)
    honest, z = hexgrid.ring, region
    v = next(i for i in range(len(region.triangles)) if len(honest(z, i)) == 3)

    def swapped(z, i):
        ring = honest(z, i)
        if i == v:
            ring[0], ring[1] = ring[1], ring[0]
        return ring

    monkeypatch.setattr(hexgrid, "ring", swapped)
    with pytest.raises(EmbeddingError, match="V-E\\+F"):
        build_graph(region)


def test_embedding_is_validated_once_and_kept():
    g = build_graph(build_hexagon(2, 2, 2))
    faces = g.assert_valid_embedding()
    assert g.assert_valid_embedding() is faces
    assert g.components() is g.components()


def _assert_id_contract(g):
    """Vertices are the ids 0..n-1, with one label and one rotation each;
    every edge endpoint is an id, and every dart at a vertex starts there."""
    n = g.n_vertices
    assert list(g.vertices) == list(range(n))
    assert len(g.labels) == len(g.rotation) == n
    for e in g.edges:
        assert 0 <= e.u < n and 0 <= e.v < n
    for v, ring in enumerate(g.rotation):
        assert all(g.tails[d] == v for d in ring)
    if g.bipartition is not None:
        blk, wht = g.bipartition
        assert blk | wht == set(range(n)) and not blk & wht


def test_z_vertex_ids_follow_the_triangle_order():
    region = build_hexagon(2, 3, 4)
    g = build_graph(region)
    _assert_id_contract(g)
    assert g.labels == list(region.triangles)


def test_quotient_numbers_the_gadget_first():
    q = quotient_graph(build_hexagon(4, 4, 4), CLASSES[4])
    _assert_id_contract(q)
    n_gadget = sum(1 for x in q.labels if x.startswith("g"))
    assert n_gadget > 0
    assert q.labels[:n_gadget] == [f"g{k}" for k in range(1, n_gadget + 1)]
    orbits = q.labels[n_gadget:]
    assert all(x.startswith("o(") for x in orbits)
    assert orbits == sorted(orbits, key=lambda x: tuple(map(int, x[2:-1].split(","))))


@pytest.mark.parametrize("cid", [6, 7])
def test_subgraph_renumbers_and_keeps_edge_ids_and_labels(cid):
    q = quotient_graph(build_hexagon(3, 3, 3), CLASSES[cid])
    comps = q.components()
    assert len(comps) > 1
    for comp in comps:
        sub = q.subgraph(comp)
        _assert_id_contract(sub)
        old = sorted(comp)
        assert sub.labels == [q.labels[v] for v in old]
        assert [e.eid for e in sub.edges] == [e.eid for e in q.edges if e.u in comp]
        for e in sub.edges:
            f = q.edge_by_id[e.eid]
            assert (old[e.u], old[e.v], e.weight) == (f.u, f.v, f.weight)
        assert sub.rotation == [q.rotation[v] for v in old]
        assert (sub.bipartition is None) == (q.bipartition is None)


@pytest.mark.parametrize("q_weights", [False, True])
def test_build_graph_equals_the_reference_builder(q_weights):
    for dims in itertools.product(range(7), repeat=3):
        region = build_hexagon(*dims)
        g, ref = build_graph(region, q_weights), build_graph_reference(region, q_weights)
        assert g.labels == ref.labels, dims
        assert g.edges == ref.edges, dims  # ids, endpoints and weights
        assert [type(e.weight) for e in g.edges] == [type(e.weight) for e in ref.edges]
        assert g.rotation == ref.rotation, dims
        assert g.bipartition == ref.bipartition, dims
        assert g.assert_valid_embedding() == ref.assert_valid_embedding(), dims
