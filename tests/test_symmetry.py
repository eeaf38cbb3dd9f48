import random
from itertools import combinations, product

import pytest

from reference import act_triangle, count_perfect_matchings, is_plane_partition

from ppcount import hexgrid, symmetry
from ppcount.hexgrid import EmbeddingError, Triangle, build_graph, build_hexagon
from ppcount.oracle import count_symmetric, enumerate_partitions
from ppcount.symmetry import (
    CLASSES,
    IDENTITY,
    KAPPA,
    KAPPA_TAU,
    RHO,
    TAU,
    BoxError,
    _act_region,
    box_fixed,
    build_parity_gadget,
    compose,
    gadget_multigraph,
    group_elements,
    inverse,
    partition_map,
    quotient_graph,
)

EXPECTED_ORDERS = {1: 1, 2: 2, 3: 3, 4: 6, 5: 2, 6: 2, 7: 4, 8: 6, 9: 6, 10: 12}


def test_group_orders():
    for cid, order in EXPECTED_ORDERS.items():
        assert len(group_elements(CLASSES[cid])) == order


def test_full_group_contains_every_class():
    full = set(group_elements(CLASSES[10]))
    for cid in CLASSES:
        assert set(group_elements(CLASSES[cid])) <= full
    assert len(full) == 12


def test_composed_action_equals_the_direct_triangle_images():
    # only the generators are looked up; every other element's map is
    # composed, and must agree with act_triangle triangle by triangle
    for cid, cls in CLASSES.items():
        for dims in product(range(7), repeat=3):
            if not cls.box_fixed(dims):
                continue
            r = build_hexagon(*dims)
            tri = r.triangles
            idx = {t: i for i, t in enumerate(tri)}
            act = _act_region(cls, r)
            assert tuple(act) == group_elements(cls)
            for g, m in act.items():
                assert m == [idx[act_triangle(g, t, r)] for t in tri], (cid, dims, g)


def test_the_half_turn_reverses_the_order_of_z_vertices():
    # Z's triangles are sorted and (x, y, z) -> (X-x, Y-y, Z-z) reverses
    # that order; the q route passes the reversal as the half-turn's map
    for dims in product(range(5), repeat=3):
        r = build_hexagon(*dims)
        n = len(r.triangles)
        assert _act_region(CLASSES[5], r)[KAPPA] == list(range(n - 1, -1, -1)), dims


def test_quotient_checks_the_rotation_of_the_z_it_builds(monkeypatch):
    # two darts swapped at a vertex of degree 3, between the lattice build
    # and its check, reverse the vertex's rotation and break Euler's formula
    honest = hexgrid._valid_faces

    def swapped(tails, rotation):
        ring = next(r for r in rotation if len(r) == 3)
        ring[0], ring[1] = ring[1], ring[0]
        return honest(tails, rotation)

    monkeypatch.setattr(hexgrid, "_valid_faces", swapped)
    with pytest.raises(EmbeddingError, match="V-E\\+F"):
        quotient_graph(build_hexagon(3, 3, 3), CLASSES[3])


def _counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that lists its calls' arguments."""
    honest, calls = getattr(module, name), []

    def counted(*args):
        calls.append(args)
        return honest(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_quotient_face_traces_only_its_result(monkeypatch):
    # Z's rotation is proven only through the quotient built from its rings
    traced = _counting(monkeypatch, hexgrid, "_valid_faces")
    for cid, dims in [(1, (2, 3, 4)), (3, (3, 3, 3)), (4, (4, 4, 4)), (7, (3, 3, 2)), (10, (6, 6, 6))]:
        del traced[:]
        q = quotient_graph(build_hexagon(*dims), CLASSES[cid])
        assert len(traced) == 1, (cid, dims)
        assert traced[0] == (q.tails, q.rotation)


def _tampered_rings(monkeypatch, rings):
    """Make symmetry.ring return rings[v](its ring) at Z's vertices v in rings."""
    honest = hexgrid.ring

    def tampered(z, i):
        ring = honest(z, i)
        return rings[i](ring) if i in rings else ring

    monkeypatch.setattr(symmetry, "ring", tampered)


def _swapped_ring(monkeypatch, v):
    """Make symmetry.ring swap the first two darts at Z's vertex v."""
    _tampered_rings(monkeypatch, {v: lambda ring: [ring[1], ring[0], *ring[2:]]})


@pytest.mark.parametrize("cid, n", [(3, 3), (9, 4)])
def test_quotient_checks_each_ring_it_reads(monkeypatch, cid, n):
    region, cls = build_hexagon(n, n, n), CLASSES[cid]
    reads = _counting(monkeypatch, symmetry, "ring")
    q = quotient_graph(region, cls)
    monkeypatch.undo()
    # no vertex is fixed by a transpose-complement here, so the rings read
    # are one per orbit, in the order of the quotient's orbit vertices
    orbit_ids = [v for v, x in enumerate(q.labels) if x.startswith("o(")]
    assert len(reads) == len(orbit_ids)
    read = {i for _, i in reads}
    v = next(i for (_, i), w in zip(reads, orbit_ids) if len(q.rotation[w]) == 3)
    _swapped_ring(monkeypatch, v)
    with pytest.raises(EmbeddingError, match="V-E\\+F"):
        quotient_graph(region, cls)
    # a ring the quotient never reads cannot change it
    u = next(i for i in range(len(region.triangles)) if i not in read and len(hexgrid.ring(region, i)) == 3)
    _swapped_ring(monkeypatch, u)
    p = quotient_graph(region, cls)
    assert (p.labels, p.edges, p.rotation, p.bipartition) == (q.labels, q.edges, q.rotation, q.bipartition)


def test_quotient_checks_each_generator_image_against_the_region(monkeypatch):
    # with the box check switched off, the rotation of H(1,2,3) sends
    # triangles out of the region
    monkeypatch.setattr(symmetry, "box_fixed", lambda g, box: True)
    with pytest.raises(EmbeddingError, match="left the region"):
        quotient_graph(build_hexagon(1, 2, 3), CLASSES[3])


@pytest.mark.parametrize(
    "cid, dims, g",
    [
        (3, (3, 3, 3), RHO),  # keeps up and down
        (8, (4, 4, 4), KAPPA_TAU),
        (5, (3, 3, 3), KAPPA),  # swaps them
        (2, (3, 3, 2), TAU),
    ],
    ids=["RHO", "KAPPA_TAU", "KAPPA", "TAU"],
)
def test_quotient_checks_that_every_element_preserves_adjacency(monkeypatch, cid, dims, g):
    # the element with the images of the first and the last triangle
    # swapped is still a bijection, but not an automorphism of Z; the check
    # reads the image edge's up end for an element that keeps up and down,
    # and its down end for one that swaps them
    honest = symmetry._act_region

    def tampered(cls, region):
        act = honest(cls, region)
        m = act[g]
        m[0], m[-1] = m[-1], m[0]
        return act

    monkeypatch.setattr(symmetry, "_act_region", tampered)
    with pytest.raises(EmbeddingError, match="does not preserve adjacency"):
        quotient_graph(build_hexagon(*dims), CLASSES[cid])


@pytest.mark.parametrize(
    "cid, dims, g, e",
    [(8, (3, 3, 3), RHO, 10), (2, (1, 1, 1), TAU, 5)],  # keeps up and down; swaps them
    ids=["RHO", "TAU"],
)
def test_quotient_checks_adjacency_where_the_image_has_no_edge(monkeypatch, cid, dims, g, e):
    # g sends the down end u of the orbit's first edge e to a vertex with no
    # edge along the image axis, so the image edge is -1; g sends e's other
    # end v to the end of Z's last edge that the check reads, which index -1
    # would also reach without the sentinel.  e is the only first edge at u,
    # so no other check reads the tampered entry.
    region = build_hexagon(*dims)
    z = region
    u, v = z.tails[2 * e], z.tails[2 * e + 1]
    axis = inverse(g).perm[next(k for k in range(3) if z.slot[k][u] == e)]
    honest = symmetry._act_region
    assert honest(CLASSES[cid], region)[g][v] == z.tails[-2 if g.comp else -1]

    def tampered(cls, region):
        act = honest(cls, region)
        act[g][u] = next(d for d in range(len(region.triangles)) if z.slot[axis][d] < 0)
        return act

    monkeypatch.setattr(symmetry, "_act_region", tampered)
    with pytest.raises(EmbeddingError, match="does not preserve adjacency"):
        quotient_graph(region, CLASSES[cid])


def _fixed_pairs(cls, region):
    """Z's vertices that a transpose-complement reflection of cls fixes,
    each with its dart to the one neighbour the reflection also fixes: the
    pair a forced edge joins."""
    z = region
    act = _act_region(cls, region)
    pairs = {}
    for g, m in act.items():
        if g.comp or not symmetry._is_transposition(g.perm):
            continue
        for v in (v for v, w in enumerate(m) if v == w):
            (pairs[v],) = [d for d in hexgrid.ring(z, v) if m[z.tails[d ^ 1]] == z.tails[d ^ 1]]
    return z, pairs


@pytest.mark.parametrize(
    "end, message", [(0, "kept 2 edges"), (1, "is not cleanly paired")], ids=["first", "partner"]
)
def test_quotient_checks_that_fixed_vertices_pair_cleanly(monkeypatch, end, message):
    # the dart to the partner listed twice in the ring of the first fixed
    # vertex, or of its partner, which the first one's check reads
    region, cls = build_hexagon(4, 4, 4), CLASSES[8]
    z, pairs = _fixed_pairs(cls, region)
    v = min(pairs)
    x = (v, z.tails[pairs[v] ^ 1])[end]
    _tampered_rings(monkeypatch, {x: lambda ring: ring + [pairs[x]]})
    with pytest.raises(EmbeddingError, match=message):
        quotient_graph(region, cls)


def test_quotient_checks_that_a_fixed_pair_holds_no_bachelor_edge(monkeypatch):
    # class 7 at 2^3 keeps an edge that an element reverses; listed in the
    # first fixed vertex's ring, it becomes a bachelor edge of that vertex
    region, cls = build_hexagon(2, 2, 2), CLASSES[7]
    z, pairs = _fixed_pairs(cls, region)
    t = z.tails
    act = _act_region(cls, region)
    e = next(e for e in range(len(t) // 2) if any(m[t[2 * e]] == t[2 * e + 1] for m in act.values()))
    _tampered_rings(monkeypatch, {min(pairs): lambda ring: ring + [2 * e]})
    with pytest.raises(EmbeddingError, match="also holds a bachelor edge"):
        quotient_graph(region, cls)


def test_quotient_checks_that_fixed_pair_removal_is_orbit_closed(monkeypatch):
    # with empty rings the first fixed pair keeps no edge and stays, while
    # the rest of its orbits, fixed by the rotated reflections, is removed
    region, cls = build_hexagon(4, 4, 4), CLASSES[8]
    z, pairs = _fixed_pairs(cls, region)
    v = min(pairs)
    _tampered_rings(monkeypatch, {v: lambda ring: [], z.tails[pairs[v] ^ 1]: lambda ring: []})
    with pytest.raises(EmbeddingError, match="not orbit-closed"):
        quotient_graph(region, cls)


def _tampered_parity(monkeypatch, change):
    """Make the chamber parities that quotient_graph reads pass through
    change, which gets 0, 1 or None (on an axis)."""
    honest = symmetry._chamber_parity_fn

    def tampered(region, rays):
        parity_of = honest(region, rays)
        return lambda t: change(parity_of(t))

    monkeypatch.setattr(symmetry, "_chamber_parity_fn", tampered)


def test_quotient_checks_that_each_orbit_meets_a_positive_chamber(monkeypatch):
    # every chamber read as negative: an orbit off the axes has no member
    # whose ring is read the right way round
    _tampered_parity(monkeypatch, lambda par: None if par is None else 1)
    with pytest.raises(EmbeddingError, match="orbit misses the positively oriented chambers"):
        quotient_graph(build_hexagon(3, 3, 2), CLASSES[2])


@pytest.mark.parametrize("cid, dims", [(3, (3, 3, 3)), (2, (3, 3, 2))], ids=["no-axis", "axis"])
def test_quotient_checks_that_an_orbit_meets_each_quotient_edge_once(monkeypatch, cid, dims):
    # every ring listed twice over: the first orbit that keeps an edge
    # meets it again
    honest = hexgrid.ring
    monkeypatch.setattr(symmetry, "ring", lambda z, i: 2 * honest(z, i))
    with pytest.raises(EmbeddingError, match="quotient edge met orbit .* twice"):
        quotient_graph(build_hexagon(*dims), CLASSES[cid])


def test_quotient_checks_that_an_axis_orbit_keeps_at_most_one_edge(monkeypatch):
    # every triangle read as on an axis: the first orbit that keeps two
    # edges has no chamber to order them in
    _tampered_parity(monkeypatch, lambda par: None)
    with pytest.raises(EmbeddingError, match="axis orbit .* kept [23] edges"):
        quotient_graph(build_hexagon(3, 3, 2), CLASSES[2])


def test_composition_is_associative_and_closed():
    full = group_elements(CLASSES[10])
    for g in full:
        assert compose(g, inverse(g)) == IDENTITY
        for h in full:
            assert compose(g, h) in full
            for k in full:
                assert compose(compose(g, h), k) == compose(g, compose(h, k))


def test_rho_has_order_three_and_kappa_is_central():
    assert compose(RHO, compose(RHO, RHO)) == IDENTITY
    assert compose(KAPPA, KAPPA) == IDENTITY
    for g in group_elements(CLASSES[10]):
        assert compose(KAPPA, g) == compose(g, KAPPA)
    assert compose(KAPPA, TAU) == KAPPA_TAU


def test_act_triangle_examples():
    r = build_hexagon(1, 1, 1)
    assert act_triangle(RHO, Triangle(1, 1, 0), r) == Triangle(0, 1, 1)
    assert act_triangle(KAPPA, Triangle(1, 1, 0), r) == Triangle(0, 0, 1)
    for t in r.triangles:
        assert act_triangle(IDENTITY, t, r) == t


def test_act_triangle_requires_fixed_box():
    r = build_hexagon(2, 1, 1)
    with pytest.raises(BoxError):
        act_triangle(RHO, Triangle(0, 1, 2), r)


def test_act_triangle_is_a_homomorphism():
    r = build_hexagon(2, 2, 2)
    full = group_elements(CLASSES[10])
    for g in full:
        for h in full:
            gh = compose(g, h)
            for t in r.triangles:
                assert act_triangle(gh, t, r) == act_triangle(g, act_triangle(h, t, r), r)


def test_act_partition_generator_shapes():
    box = (2, 2, 2)
    empty = ((0, 0), (0, 0))
    full = ((2, 2), (2, 2))
    assert partition_map(KAPPA, box)(empty) == full
    symmetric = ((2, 1), (1, 0))
    assert partition_map(TAU, box)(symmetric) == symmetric
    # the four-cube staircase is invariant under the rotation
    tripod = ((2, 1), (1, 0))
    assert partition_map(RHO, box)(tripod) == tripod


def test_act_partition_preserves_monotonicity():
    box = (2, 2, 2)
    for pp in enumerate_partitions(*box):
        for g in group_elements(CLASSES[10]):
            assert is_plane_partition(partition_map(g, box)(pp), box)


def test_act_partition_is_a_homomorphism():
    box = (2, 2, 2)
    full = group_elements(CLASSES[10])
    pps = list(enumerate_partitions(*box))[::3]
    for g in full:
        for h in full:
            gh = compose(g, h)
            for pp in pps:
                assert partition_map(gh, box)(pp) == partition_map(g, box)(
                    partition_map(h, box)(pp)
                )


def test_triangle_and_partition_actions_are_equivariant():
    # pushing a matching through the triangle action must transform its
    # partition exactly like the height-matrix action does
    from ppcount.hexgrid import build_graph
    from reference import enumerate_matchings, matching_to_partition

    box = (2, 2, 2)
    r = build_hexagon(*box)
    g = build_graph(r)
    tri = g.labels
    edge_of = {}
    for e in g.edges:
        edge_of[(tri[e.u], tri[e.v])] = e.eid
        edge_of[(tri[e.v], tri[e.u])] = e.eid
    for elem in group_elements(CLASSES[10]):
        for m in enumerate_matchings(g):
            mapped = frozenset(
                edge_of[
                    (
                        act_triangle(elem, tri[g.edge_by_id[eid].u], r),
                        act_triangle(elem, tri[g.edge_by_id[eid].v], r),
                    )
                ]
                for eid in m
            )
            assert matching_to_partition(mapped, r, g) == partition_map(elem, box)(
                matching_to_partition(m, r, g)
            )


def test_act_partition_rectangular_boxes():
    box = (3, 2, 1)
    for pp in enumerate_partitions(*box):
        assert is_plane_partition(partition_map(KAPPA, box)(pp), box)
    with pytest.raises(BoxError):
        partition_map(TAU, box)(((1, 0), (0, 0), (0, 0)))


# The three generator actions cell by cell, as plain reference code for
# partition_map: each returns the image heights and the image box.


def _tau_reference(h, box):
    a, b, c = box
    if a == 0 or b == 0:
        return ((),) * b, (b, a, c)
    return tuple(zip(*h)), (b, a, c)


def _rho_reference(h, box):
    a, b, c = box
    out = tuple(
        tuple(sum(1 for t in range(b) if h[j][t] > i) for j in range(a)) for i in range(c)
    )
    return out, (c, a, b)


def _kappa_reference(h, box):
    a, b, c = box
    out = tuple(tuple(c - h[a - 1 - i][b - 1 - j] for j in range(b)) for i in range(a))
    return out, (a, b, c)


def _reference_words():
    """A word in TAU, RHO, KAPPA (applied left to right) for each of the 12
    group elements, found breadth first."""
    ops = {TAU: _tau_reference, RHO: _rho_reference, KAPPA: _kappa_reference}
    words = {IDENTITY: ()}
    frontier = [IDENTITY]
    while frontier:
        nxt = []
        for e in frontier:
            for gen in ops:
                f = compose(gen, e)
                if f not in words:
                    words[f] = words[e] + (ops[gen],)
                    nxt.append(f)
        frontier = nxt
    return words


def _act_reference(word, h, box):
    bx = box
    for op in word:
        h, bx = op(h, bx)
    assert bx == box
    return h


EQUIVALENCE_BOXES = [
    (a, b, c) for a in range(4) for b in range(4) for c in range(4)
] + [(2, 2, 4), (3, 3, 4)]


def test_partition_map_equals_the_generator_reference():
    words = _reference_words()
    assert len(words) == 12
    for box in EQUIVALENCE_BOXES:
        pps = list(enumerate_partitions(*box))
        for g, word in words.items():
            if not box_fixed(g, box):
                continue
            act = partition_map(g, box)
            for pp in pps:
                assert act(pp) == _act_reference(word, pp, box), (g, box, pp)


def test_partition_map_requires_a_fixed_box():
    for g in group_elements(CLASSES[10]):
        for box in [(1, 2, 3), (2, 2, 3), (2, 1, 1)]:
            if not box_fixed(g, box):
                with pytest.raises(BoxError):
                    partition_map(g, box)
    with pytest.raises(BoxError):
        partition_map(RHO, (2, 2, 1))


def test_row_images_answer_every_row_and_keep_at_most_max_rows():
    # the 5050 one-row partitions of the 1 x 2 x 99 box are more rows than
    # the complement's memo keeps; met twice each, every image is still the
    # reversed complement
    act = partition_map(KAPPA, (1, 2, 99))
    rows = [(i, j) for i in range(100) for j in range(i + 1)]
    assert len(rows) == 5050 > symmetry.MAX_ROWS
    for row in rows + rows:
        assert act((row,)) == ((99 - row[1], 99 - row[0]),)
    (memo,) = [cell.cell_contents for cell in act.__closure__ if hasattr(cell.cell_contents, "cache_info")]
    assert memo.cache_info().currsize == symmetry.MAX_ROWS


# ---------------------------------------------------------------------------
# parity gadgets
# ---------------------------------------------------------------------------


def _gadget_matchings_minus(gadget, removed):
    mg = gadget_multigraph(gadget)
    keep = [v for v in mg.vertices if v not in removed]
    return count_perfect_matchings(mg.subgraph(keep))


def test_gadget_examples():
    g = build_parity_gadget(2, "odd")
    assert _gadget_matchings_minus(g, {g.attachments[0]}) == 1
    assert _gadget_matchings_minus(g, set(g.attachments)) == 0
    e = build_parity_gadget(1, "even")
    assert len(e.vertices) == 2 and len(e.edges) == 1  # a single edge
    assert _gadget_matchings_minus(e, set()) == 1
    assert _gadget_matchings_minus(e, {e.attachments[0]}) == 0


@pytest.mark.parametrize("parity", ["odd", "even"])
@pytest.mark.parametrize("n", range(1, 13))
def test_gadget_contract_exhaustive(n, parity):
    g = build_parity_gadget(n, parity)
    gadget_multigraph(g).assert_valid_embedding()
    want_parity = 1 if parity == "odd" else 0
    for k in range(n + 1):
        for removed in combinations(g.attachments, k):
            want = 1 if k % 2 == want_parity else 0
            assert _gadget_matchings_minus(g, set(removed)) == want


# Quotients use gadgets with up to 24 attachments (class 4 at 12^3), too
# many subsets to try them all: these sizes check a seeded sample.
@pytest.mark.parametrize("parity", ["odd", "even"])
@pytest.mark.parametrize("n", range(13, 25))
def test_gadget_contract_sampled(n, parity):
    g = build_parity_gadget(n, parity)
    gadget_multigraph(g).assert_valid_embedding()
    want_parity = 1 if parity == "odd" else 0
    rng = random.Random(1000 * n + len(parity))
    samples = [(), tuple(g.attachments)]
    samples += [tuple(rng.sample(g.attachments, rng.randrange(n + 1))) for _ in range(200)]
    for removed in samples:
        want = 1 if len(removed) % 2 == want_parity else 0
        assert _gadget_matchings_minus(g, set(removed)) == want


def test_gadget_rejects_bad_arguments():
    with pytest.raises(ValueError):
        build_parity_gadget(0, "odd")
    with pytest.raises(ValueError):
        build_parity_gadget(2, "either")


# ---------------------------------------------------------------------------
# quotient graphs
# ---------------------------------------------------------------------------


def test_trivial_quotient_is_the_plain_graph():
    for dims in [(1, 1, 1), (2, 2, 1), (3, 1, 2)]:
        r = build_hexagon(*dims)
        q = quotient_graph(r, CLASSES[1])
        assert q.n_vertices == len(r.triangles)
        assert count_perfect_matchings(q) == count_symmetric(1, *dims)


def test_trivial_quotient_is_z(small_quotients):
    trivial = [(dims, q) for cid, dims, q in small_quotients if cid == 1]
    assert len(trivial) == 343
    for dims, q in trivial:
        r = build_hexagon(*dims)
        z = build_graph(r)
        assert q.edges == z.edges and q.rotation == z.rotation, dims
        assert q.bipartition == z.bipartition, dims
        assert q.labels == ["o({},{},{})".format(*t) for t in r.triangles], dims


def test_rotation_quotient_2_2_2():
    q = quotient_graph(build_hexagon(2, 2, 2), CLASSES[3])
    assert q.n_vertices == 8
    pair_counts = {}
    for e in q.edges:
        key = tuple(sorted((e.u, e.v)))
        pair_counts[key] = pair_counts.get(key, 0) + 1
    assert sorted(pair_counts.values()).count(2) == 1  # exactly one doubled edge
    assert count_perfect_matchings(q) == 5


def test_rotation_quotient_is_bipartite_flagged():
    q = quotient_graph(build_hexagon(2, 2, 2), CLASSES[3])
    assert q.bipartition is not None
    blk, wht = q.bipartition
    assert len(blk) == len(wht) == 4


def test_full_symmetry_quotient_2_2_2():
    q = quotient_graph(build_hexagon(2, 2, 2), CLASSES[9])
    assert count_perfect_matchings(q) == 1
    q10 = quotient_graph(build_hexagon(2, 2, 2), CLASSES[10])
    assert count_perfect_matchings(q10) == 1


def test_quotient_requires_fixed_box():
    with pytest.raises(BoxError):
        quotient_graph(build_hexagon(2, 1, 1), CLASSES[3])


def test_quotient_counts_match_oracle_small():
    for cid in CLASSES:
        for a in range(4):
            for b in range(4):
                for c in range(4):
                    if not CLASSES[cid].box_fixed((a, b, c)):
                        continue
                    q = quotient_graph(build_hexagon(a, b, c), CLASSES[cid])
                    assert count_perfect_matchings(q) == count_symmetric(cid, a, b, c), (
                        cid,
                        (a, b, c),
                    )


def test_quotient_embeddings_validate():
    # assert_valid_embedding runs inside quotient_graph; re-check here
    for cid, dims in [(2, (3, 3, 2)), (4, (3, 3, 3)), (6, (2, 2, 4)), (7, (3, 3, 4))]:
        q = quotient_graph(build_hexagon(*dims), CLASSES[cid])
        q.assert_valid_embedding()
