"""Triangulated hexagons and their matching graphs.

H(a,b,c) is the hexagon with angles 2*pi/3 and opposite sides a, b, c, tiled
by unit equilateral triangles.  Each unit triangle is addressed by an integer
triple (x, y, z): the three coordinates index the strips of the three lattice
line families containing the triangle, so

    0 <= x <= b+c-1,   0 <= y <= a+c-1,   0 <= z <= a+b-1,

with x+y+z = a+b+c-1 for one orientation class ("up") and a+b+c-2 for the
other ("down").  A down triangle is adjacent to the up triangles obtained by
adding 1 to a single coordinate.  Perfect matchings of the adjacency graph
Z(a,b,c) are exactly the lozenge tilings of the hexagon, i.e. the plane
partitions in an a x b x c box.

The coordinates are chosen so the box symmetries act affinely: rotation by
2*pi/3 is the cyclic shift (x,y,z) -> (z,x,y), and the point reflection
through the center is (x,y,z) -> (b+c-1-x, a+c-1-y, a+b-1-z).

Z(a,b,c) is built in one place, ``HexRegion``, as flat lists kept on
the region: one loop over the rows of triangles fills the triangle lists
and the index, and one pass over the down triangles the edge lists.
``build_graph`` wraps them into a ``PlanarMultigraph``, and
``symmetry.quotient_graph`` reads them directly.  A ``PlanarMultigraph``
keeps the faces, components and spanning forest of its one embedding check
and graph walk (``_valid_faces``).  Of the three pairs of coordinates,
``pair`` = (p, r) is the one whose padded extents (bound + 2 each) have the
least product, (x, y) on ties; ``width`` = W is r's padded extent:

* vertex i is triangles[i], a plain (x, y, z) tuple; ``build_graph``
  labels Z's vertices with them as ``Triangle`` instances, the only
  Triangles the package makes.  The triangles are listed by x, then y, the
  down triangle before the up one at each (x, y): their sorted order.
* ``at[2 * (t[p] * W + t[r]) + up]`` is the vertex t with that orientation
  (up = 1), or -1 where there is none: a triangle is fixed by two of its
  coordinates and its orientation.  The spare row and column keep the
  neighbours of the last ones in range, and leaving out the coordinate of
  the longest extent bounds the index by four entries per triangle.
* ``up[i]`` flags the up triangles.
* Axis k joins a down triangle to the up triangle with 1 added to
  coordinate k.  The edges are numbered by their down triangles in vertex
  order, and at each by axis; edge e joins the down triangle tails[2e] to
  the up one tails[2e + 1].
* ``slot[k][i]`` is the edge at vertex i along axis k, or -1.
* ``ring(region, i)`` lists the darts at vertex i counterclockwise: dart 2e
  sits at edge e's down end, 2e + 1 at its up end.

``position2`` and ``center2`` place triangles and the center in exact
doubled coordinates; ``symmetry`` reads its axes and chambers off them.

All objects are immutable after construction.
"""

from __future__ import annotations

from itertools import compress, repeat
from typing import Iterable, List, NamedTuple, Optional, Tuple

from .exactalg import QPoly


class Triangle(NamedTuple):
    x: int
    y: int
    z: int


class Edge(NamedTuple):
    eid: int
    u: object
    v: object
    weight: object = 1


class RegionError(ValueError):
    pass


class EmbeddingError(RuntimeError):
    """A rotation system failed the face-tracing / Euler consistency check."""


class HexRegion:
    """The triangle set of H(a,b,c), with its coordinate bounds and up sum,
    and Z(a,b,c) as the module docstring's flat lists, unchecked (see
    build_graph).

    ``triangles`` lists them in sorted order as plain (x, y, z) tuples;
    ``build_graph`` makes Z's labels ``Triangle`` instances.  One row loop
    fills ``triangles``, ``up`` and ``at`` and lists each down triangle with
    its cell.  One pass over those reads the edges: a counter numbers them,
    and each appends its two ends to ``tails``."""

    __slots__ = ("a", "b", "c", "bounds", "up_sum", "triangles", "width", "pair", "at", "up", "slot", "tails")

    def __init__(self, a: int, b: int, c: int):
        if a < 0 or b < 0 or c < 0:
            raise RegionError(f"negative side length in H({a},{b},{c})")
        self.a, self.b, self.c = a, b, c
        self.bounds = (X, Y, Z) = (b + c - 1, a + c - 1, a + b - 1)
        self.up_sum = S = a + b + c - 1
        ext = [B + 2 for B in self.bounds]  # the padded extents
        self.pair = p, r = min(((0, 1), (0, 2), (1, 2)), key=lambda pr: ext[pr[0]] * ext[pr[1]])
        self.width = W = ext[r]
        # a step along coordinate k moves the cell position 2W, 2 or 0, as
        # k is p, r or neither; the up triangle with 1 added to coordinate k
        # is that far past the down one's cell, plus 1 for up
        o0, o1, o2 = (2 * W if k == p else 2 if k == r else 0 for k in range(3))
        self.triangles = tri = []
        self.up = up = []
        self.at = at = []
        downs = []  # (vertex id, its cell's up slot) per down triangle
        if a * b + b * c + c * a:  # else H(a,b,c) is a segment or a point
            at += [-1] * (2 * W * ext[p])
            for x in range(X + 1):
                for y in range(max(0, S - 1 - Z - x), min(Y, S - x) + 1):
                    z = S - x - y  # 0 <= z <= Z + 1 here
                    pos = o0 * x + o1 * y + o2 * z  # the up triangle's cell
                    if z:  # down before up: the sorted order
                        at[pos - o2] = len(tri)
                        downs.append((len(tri), pos - o2 + 1))
                        tri.append((x, y, z - 1))
                        up.append(False)
                    if z <= Z:
                        at[pos + 1] = len(tri)
                        tri.append((x, y, z))
                        up.append(True)
        self.slot = s0, s1, s2 = tuple([-1] * len(tri) for _ in range(3))
        self.tails = tails = []
        push, e = tails.append, 0  # e: the next edge id
        for i, pos in downs:
            j = at[pos + o0]
            if j >= 0:
                s0[i] = s0[j] = e
                e += 1
                push(i)
                push(j)
            j = at[pos + o1]
            if j >= 0:
                s1[i] = s1[j] = e
                e += 1
                push(i)
                push(j)
            j = at[pos + o2]
            if j >= 0:
                s2[i] = s2[j] = e
                e += 1
                push(i)
                push(j)

    @property
    def abc(self) -> Tuple[int, int, int]:
        return (self.a, self.b, self.c)

    def __repr__(self):
        return f"HexRegion({self.a},{self.b},{self.c})"


def build_hexagon(a: int, b: int, c: int) -> HexRegion:
    """All unit triangles of H(a,b,c), in sorted order."""
    return HexRegion(a, b, c)


def position2(t: Triangle) -> Tuple[int, int]:
    """Exact planar position of the triangle center, doubled coordinates:
    (u, v) is the point (u/2, v*sqrt(3)/2), so the sign of a cross product
    u1*v2 - v1*u2 is the true one, and axis geometry is integer-only."""
    x, y, z = t
    return (2 * x - y - z, y - z)


def center2(region: HexRegion) -> Tuple[int, int]:
    """Doubled position of the hexagon center (fixed point of the flip)."""
    X, Y, Z = region.bounds
    return (2 * X - Y - Z, Y - Z)


# ---------------------------------------------------------------------------
# planar multigraphs with rotation systems
# ---------------------------------------------------------------------------

Dart = int  # 2 * edge id + side; side 0 sits at edge.u, side 1 at edge.v; twin d ^ 1


def _trace_faces(tails: List[int], rotation) -> List[List[Dart]]:
    """Orbits of the next-dart permutation; each dart lies in one face.

    tails[d] is the vertex dart d starts at, -1 for an edge id not in use.
    The dart after d in its face is the one after d's twin in the rotation
    at the twin's vertex.  Faces come in the order of their smallest darts,
    each traced from that dart: a sweep over the darts in increasing order
    skips those already used.
    """
    n = len(tails)
    succ = [-1] * n  # -1: no such dart, or already traced
    for v, ring in enumerate(rotation):
        nxt = ring[0] if ring else -1
        for d in reversed(ring):  # each dart is checked before it is used
            if not 0 <= d < n or tails[d] != v:
                raise EmbeddingError(f"dart {d} at vertex {v} does not start there")
            if succ[d ^ 1] >= 0:
                raise EmbeddingError(f"dart {d} appears twice in the rotation")
            succ[d ^ 1] = nxt
            nxt = d
    # the listed darts are distinct and in use: all are listed if as many
    if sum(map(len, rotation)) != n - tails.count(-1):
        d = next(d for d, v in enumerate(tails) if v >= 0 and succ[d ^ 1] < 0)
        raise EmbeddingError(f"edge {d >> 1} missing a rotation slot")
    out = []
    for d0 in range(n):
        d = succ[d0]
        if d < 0:
            continue
        succ[d0] = -1
        face = [d0]
        while d != d0:
            nxt = succ[d]
            if nxt < 0:
                raise EmbeddingError("face tracing revisited a dart")
            succ[d] = -1
            face.append(d)
            d = nxt
        out.append(face)
    return out


def _valid_faces(tails: List[int], rotation):
    """The faces of the rotation system, its connected components (id
    lists, in order of their least ids) and their spanning forest, after the
    check V - E + F = 2 on every component with an edge; a component's edges
    are half the darts of its faces.  The forest lists each vertex v once,
    as (v, d): d is the dart by which a breadth-first walk from each least
    id, darts in rotation order, first reaches v (-1 at the root).  The
    graph core's one embedding check and graph walk, run once per graph by
    ``PlanarMultigraph.assert_valid_embedding``."""
    faces = _trace_faces(tails, rotation)
    comp_of = [-1] * len(rotation)
    comps: List[List[int]] = []
    forest: List[Tuple[int, Dart]] = []
    for v in range(len(rotation)):
        if comp_of[v] < 0:
            comp_of[v] = len(comps)
            comp = [v]
            forest.append((v, -1))
            for w in comp:  # grows while it is walked
                for d in rotation[w]:
                    u = tails[d ^ 1]
                    if comp_of[u] < 0:
                        comp_of[u] = len(comps)
                        comp.append(u)
                        forest.append((u, d))
            comps.append(comp)
    nd, nf = [0] * len(comps), [0] * len(comps)
    for f in faces:
        ci = comp_of[tails[f[0]]]
        nd[ci] += len(f)
        nf[ci] += 1
    for ci, comp in enumerate(comps):
        ne = nd[ci] >> 1
        if ne and len(comp) - ne + nf[ci] != 2:  # an isolated vertex embeds trivially
            raise EmbeddingError(f"component {ci}: V-E+F = {len(comp)}-{ne}+{nf[ci]} != 2")
    return faces, comps, forest


class PlanarMultigraph:
    """Vertices, parallel-capable edges, and a rotation system.

    A vertex is an integer id 0..n-1, and so are edge endpoints and the
    members of the two bipartition classes; labels[v] names vertex v for
    export only.  rotation[v] lists the darts at v in counterclockwise order;
    a dart is the int 2 * edge id + side, side 0 at the edge's u endpoint,
    so d >> 1 is its edge and d ^ 1 its twin.  tails[d] is the vertex dart
    d starts at (-1 for an edge id not in use), and tails[d ^ 1] the one it
    ends at.  The rotation system defines the embedding: faces are traced
    from it and validated against Euler's formula per connected component.
    """

    def __init__(
        self,
        labels: Iterable,
        edges: Iterable[Edge],
        rotation: Iterable[List[Dart]],
        bipartition: Optional[Tuple[frozenset, frozenset]] = None,
    ):
        self.labels = list(labels)
        self.vertices = range(len(self.labels))
        self.edges = list(edges)
        self.edge_by_id = {e.eid: e for e in self.edges}
        if len(self.edge_by_id) != len(self.edges):
            raise ValueError("duplicate edge ids")
        if self.edges and min(self.edge_by_id) < 0:
            raise ValueError("negative edge id")
        tails = [-1] * (2 * max(self.edge_by_id, default=-1) + 2)
        for eid, u, v, _ in self.edges:
            tails[2 * eid] = u
            tails[2 * eid + 1] = v
        self.tails = tails
        self.rotation = [list(ds) for ds in rotation]
        if len(self.rotation) != len(self.labels):
            raise ValueError("one rotation per vertex is required")
        self.bipartition = bipartition
        self._faces = self._components = self._forest = None  # kept after the first check
        if bipartition is not None:
            blk, wht = bipartition
            for e in self.edges:
                if not ((e.u in blk and e.v in wht) or (e.u in wht and e.v in blk)):
                    raise ValueError(f"edge {e} does not join the two classes")

    # -- basic queries ------------------------------------------------------

    @property
    def n_vertices(self):
        return len(self.labels)

    @property
    def n_edges(self):
        return len(self.edges)

    def components(self) -> Tuple[frozenset, ...]:
        """Id sets of the connected components, found by the embedding check."""
        self.assert_valid_embedding()
        return self._components

    def spanning_forest(self) -> List[Tuple[int, Dart]]:
        """The embedding check's spanning forest (``_valid_faces``), its
        vertices in breadth-first order.  Callers must not modify it."""
        self.assert_valid_embedding()
        return self._forest

    def subgraph(self, keep) -> "PlanarMultigraph":
        """The graph induced on the ids in keep, renumbered 0..k-1 in order;
        edge ids and labels are kept."""
        old = sorted(set(keep))
        new = {v: i for i, v in enumerate(old)}
        edges = [
            Edge(e.eid, new[e.u], new[e.v], e.weight)
            for e in self.edges
            if e.u in new and e.v in new
        ]
        eids = {e.eid for e in edges}
        rot = [[d for d in self.rotation[v] if d >> 1 in eids] for v in old]
        bip = None
        if self.bipartition is not None:
            bip = tuple(
                frozenset(new[v] for v in part if v in new) for part in self.bipartition
            )
        return PlanarMultigraph([self.labels[v] for v in old], edges, rot, bip)

    # -- embedding ----------------------------------------------------------

    def assert_valid_embedding(self) -> List[List[Dart]]:
        """Face-trace and check V - E + F = 2 on every connected component.

        Runs once per graph (graphs are immutable); later calls return the
        faces it validated.  Callers must not modify them.
        """
        if self._faces is None:
            self._faces, comps, self._forest = _valid_faces(self.tails, self.rotation)
            self._components = tuple(map(frozenset, comps))
        return self._faces


# ---------------------------------------------------------------------------
# Z(a,b,c) and its q-weighting
# ---------------------------------------------------------------------------


def ring(region: HexRegion, i: int) -> List[Dart]:
    """Vertex i's darts, counterclockwise: along axis k a down triangle's edge
    points at 120*k degrees, so an up triangle's edges sort ccw as z, x, y."""
    s0, s1, s2 = region.slot
    u = region.up[i]  # 1 at an up triangle, which dart 2e + 1 starts at
    return [2 * e + u for e in ((s2[i], s0[i], s1[i]) if u else (s0[i], s1[i], s2[i])) if e >= 0]


def build_graph(region: HexRegion, q_weights: bool = False) -> PlanarMultigraph:
    """The adjacency graph Z(a,b,c) with its planar rotation system (``ring``),
    face-traced and Euler-checked in this call: the region's flat lists
    wrapped into a ``PlanarMultigraph``.

    Vertex i is region.triangles[i], which is also its label, made a
    ``Triangle`` here.  The triangles
    are sorted, so the half-turn (x, y, z) -> (X-x, Y-y, Z-z), which reverses
    their order, maps vertex i to vertex n-1-i.  Every face of Z, the outer
    one too, has 4k+2 sides, so all +1 is a flat signing.
    Edges always run from a down triangle (edge.u) to an up one (edge.v).
    With q_weights=True the edges whose z-coordinate changes get weight q^x;
    those matched edges are the "column top" lozenges, and x counts the
    column steps, so the weight of a matching is q^(partition volume) times
    a constant absorbed by normalization against the empty partition.
    """
    tri, tails = region.triangles, region.tails
    weights: List[object] = [1] * (len(tails) >> 1)
    if q_weights:
        weights = [QPoly.const(1)] * len(weights)
        for (x, _, _), u, e in zip(tri, region.up, region.slot[2]):
            if e >= 0 and not u:
                weights[e] = QPoly.q_power(x)
    edges = list(map(Edge, range(len(weights)), tails[0::2], tails[1::2], weights))
    ups = frozenset(compress(range(len(tri)), region.up))
    rotation = [ring(region, i) for i in range(len(tri))]
    labels = map(tuple.__new__, repeat(Triangle), tri)  # skips Triangle.__new__'s Python frame
    g = PlanarMultigraph(labels, edges, rotation, (ups, frozenset(range(len(tri))) - ups))
    g.assert_valid_embedding()
    return g


def q_weight_graph(region: HexRegion) -> PlanarMultigraph:
    """Z(a,b,c) with the q-weighting of the column-top edge class."""
    return build_graph(region, q_weights=True)

