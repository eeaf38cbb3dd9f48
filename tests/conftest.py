"""Shared test graph builders: grids, wheels, seeded random planar graphs,
and the q-weighted hexagon with its half-turn."""

from __future__ import annotations

import itertools
import math
import random

import pytest

from ppcount.hexgrid import Edge, PlanarMultigraph, build_graph, build_hexagon
from ppcount.oracle import count_symmetric
from ppcount.symmetry import CLASSES, quotient_graph


def graph_from_points(points, pairs, bipartition=None, weights=None):
    """Straight-line embedded graph: rotations sorted by angle at each vertex.

    The point names, sorted, are the vertex labels, so vertex i is the i-th
    name; pairs and bipartition are given by name.
    """
    labels = sorted(points)
    vid = {p: i for i, p in enumerate(labels)}
    edges = []
    for i, (u, v) in enumerate(pairs):
        w = 1 if weights is None else weights[i]
        edges.append(Edge(i, vid[u], vid[v], w))
    rot = [[] for _ in labels]
    for e in edges:
        for end, side, other in ((e.u, 0, e.v), (e.v, 1, e.u)):
            dx = points[labels[other]][0] - points[labels[end]][0]
            dy = points[labels[other]][1] - points[labels[end]][1]
            rot[end].append((math.atan2(dy, dx) % (2 * math.pi), 2 * e.eid + side))
    rotation = [[d for _, d in sorted(rs)] for rs in rot]
    if bipartition is not None:
        bipartition = tuple(frozenset(vid[p] for p in part) for part in bipartition)
    g = PlanarMultigraph(labels, edges, rotation, bipartition=bipartition)
    g.assert_valid_embedding()
    return g


def grid_graph(rows, cols, dropped=frozenset(), diagonals=frozenset(), flag_bipartite=True):
    """Grid graph on rows x cols, optionally with dropped edges and cell diagonals."""
    points = {(r, c): (c, -r) for r in range(rows) for c in range(cols)}
    pairs = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                e = ((r, c), (r, c + 1))
                if e not in dropped:
                    pairs.append(e)
            if r + 1 < rows:
                e = ((r, c), (r + 1, c))
                if e not in dropped:
                    pairs.append(e)
    for (r, c) in sorted(diagonals):
        pairs.append(((r, c), (r + 1, c + 1)))
    bip = None
    if flag_bipartite and not diagonals:
        blk = frozenset(p for p in points if sum(p) % 2 == 0)
        bip = (blk, frozenset(set(points) - blk))
    return graph_from_points(points, pairs, bipartition=bip)


def wheel_graph(k):
    """A k-spoke wheel: non-bipartite for odd k, planar always."""
    points = {"hub": (0.0, 0.0)}
    for i in range(k):
        points[f"rim{i}"] = (math.cos(2 * math.pi * i / k), math.sin(2 * math.pi * i / k))
    pairs = [("hub", f"rim{i}") for i in range(k)]
    pairs += [(f"rim{i}", f"rim{(i + 1) % k}") for i in range(k)]
    return graph_from_points(points, pairs)


def q_box_with_half_turn(dims):
    """Z(a,b,c) with its q-weights, and the half-turn's vertex map, as
    ``cli.q_matrix_count`` builds them."""
    g = build_graph(build_hexagon(*dims), q_weights=True)
    return g, range(g.n_vertices - 1, -1, -1)


def _connected(g: PlanarMultigraph) -> bool:
    return len(g.components()) <= 1


def random_planar_bipartite(rng: random.Random) -> PlanarMultigraph:
    """Connected bipartite planar graph with equal color classes, <= 14 vertices."""
    while True:
        rows = rng.choice([2, 2, 3])
        cols = rng.choice([2, 3, 4, 5, 6])
        if rows * cols > 14 or (rows * cols) % 2:
            continue
        all_edges = []
        for r in range(rows):
            for c in range(cols):
                if c + 1 < cols:
                    all_edges.append(((r, c), (r, c + 1)))
                if r + 1 < rows:
                    all_edges.append(((r, c), (r + 1, c)))
        k = rng.randrange(0, max(1, len(all_edges) // 4))
        dropped = frozenset(rng.sample(all_edges, k))
        g = grid_graph(rows, cols, dropped=dropped)
        if _connected(g) and all(g.rotation[v] for v in g.vertices):
            return g


def random_planar_graph(rng: random.Random) -> PlanarMultigraph:
    """Connected planar graph (usually non-bipartite), <= 14 vertices."""
    while True:
        rows = rng.choice([2, 3])
        cols = rng.choice([2, 3, 4])
        if rows * cols > 14:
            continue
        cells = [(r, c) for r in range(rows - 1) for c in range(cols - 1)]
        diag = frozenset(rng.sample(cells, rng.randrange(0, len(cells) + 1))) if cells else frozenset()
        g = grid_graph(rows, cols, diagonals=diag, flag_bipartite=False)
        if _connected(g):
            return g


@pytest.fixture
def rng():
    return random.Random(20250808)


@pytest.fixture(scope="session")
def small_quotients():
    """(class id, box, quotient graph) for every box with sides <= 6 that
    the class fixes."""
    return [
        (cid, dims, quotient_graph(build_hexagon(*dims), CLASSES[cid]))
        for cid in sorted(CLASSES)
        for dims in itertools.product(range(7), repeat=3)
        if CLASSES[cid].box_fixed(dims)
    ]


@pytest.fixture(scope="session")
def oracle_counts():
    """count_symmetric for every (class id, box) with sides <= 4 that the
    class fixes, enumerated once for the tests that compare against it."""
    return {
        (cid, dims): count_symmetric(cid, *dims)
        for cid in sorted(CLASSES)
        for dims in itertools.product(range(5), repeat=3)
        if CLASSES[cid].box_fixed(dims)
    }
