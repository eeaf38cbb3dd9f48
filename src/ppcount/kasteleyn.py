"""Flat signings, flat orientations, and matching counts by determinant/Pfaffian.

Each step takes the whole graph as the graph core built it.  The builder's
bipartition flag decides the route: a flagged graph gets a flat signing and
a determinant (permanent-determinant), any other graph a flat orientation
and a Pfaffian (Hafnian-Pfaffian).  A graph with an odd component has no
perfect matching and counts zero; otherwise its components need no
splitting, as the determinant and the Pfaffian of a block matrix multiply.

A signing of an embedded planar bipartite graph is *flat* when every face
with 4k sides carries an odd number of negative edges and every face with
4k+2 sides an even number; then the determinant of the signed bipartite
adjacency matrix equals the permanent of the unsigned one up to sign, i.e.
the weighted matching count.

An orientation is *flat* (Pfaffian/Kasteleyn orientation) when every face,
with at most one exception per component, has an odd number of edges
directed against a fixed face-tracing sense; then the Pfaffian of the
antisymmetric incidence matrix counts matchings.  The orientation directs a
spanning forest arbitrarily, then fixes the co-tree edges face by face,
leaf to root in the interdigitating dual forest, whose trees are rooted at
each component's least face.  The primal forest is the one the embedding
check walked (``spanning_forest``): this module walks no graph itself.

This one face-parity fix serves both routes: a flat orientation of a
bipartite graph gives a flat signing, +1 on each edge directed into the
first colour class, as a face with 2m sides then has m + #negative darts
against its tracing sense, mod 2.

Over Z[q], ``_certificates`` proves in one pass over the weights that the
determinant's coefficients have one sign and, given the half-turn, that they
form a palindrome, solving its potential along the same forest.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

from .exactalg import ExactMatrix, QPoly, det, pfaffian_abs
from .hexgrid import EmbeddingError, PlanarMultigraph


class SignedGraph(NamedTuple):
    graph: PlanarMultigraph
    signs: dict  # edge id -> +1 / -1


class OrientedGraph(NamedTuple):
    graph: PlanarMultigraph
    heads: dict  # edge id -> head vertex id


def _face_of_dart(g: PlanarMultigraph, faces) -> List[int]:
    """The index of the face each dart of g lies in, as a list by dart."""
    face_of = [-1] * len(g.tails)
    for fi, f in enumerate(faces):
        for d in f:
            face_of[d] = fi
    return face_of


def _flat_face(face, signs) -> bool:
    """Whether the face has an odd number of negative edges if its side
    count is 4k, and an even number if it is 4k+2."""
    neg = sum(1 for d in face if signs[d >> 1] < 0)
    return (neg % 2 == 1) == (len(face) % 4 == 0)


def _against(g: PlanarMultigraph, face, heads) -> int:
    """Darts of the face whose edge is directed against the tracing sense."""
    tails = g.tails
    return sum(1 for d in face if heads[d >> 1] != tails[d ^ 1])


def flat_signing(g: PlanarMultigraph) -> SignedGraph:
    """A flat edge signing: all +1 when every face has 4k+2 sides, as on Z
    and on every quotient the program flags bipartite; otherwise +1 on each
    edge that ``flat_orientation`` directs into the first colour class, -1
    on the rest.  A face with 2m sides alternates its darts between the
    classes, so it has m + #negative (mod 2) darts against the orientation:
    odd exactly when the face is flat.  The root face of a component is left
    non-flat only when the component has an odd number of vertices (Euler's
    formula), which raises ValueError."""
    if g.n_vertices % 2:
        raise ValueError("flat signing needs an even number of vertices")
    if g.bipartition is None:
        raise ValueError("flat signing requires a graph flagged bipartite")
    if all(len(f) % 4 == 2 for f in g.assert_valid_embedding()):
        return SignedGraph(g, {e.eid: 1 for e in g.edges})
    first, heads = g.bipartition[0], flat_orientation(g).heads
    sg = SignedGraph(g, {eid: 1 if v in first else -1 for eid, v in heads.items()})
    if nonflat_faces(sg):
        raise ValueError("a component has an odd number of vertices, so the graph has no perfect matching")
    return sg


def nonflat_faces(sg: SignedGraph) -> List[int]:
    """The indices of the faces the signing leaves non-flat."""
    faces = sg.graph.assert_valid_embedding()
    return [fi for fi, f in enumerate(faces) if not _flat_face(f, sg.signs)]


def flat_orientation(g: PlanarMultigraph) -> OrientedGraph:
    """A Pfaffian orientation: spanning forest free, co-tree edges fixed by faces."""
    if g.n_vertices % 2:
        raise ValueError("flat orientation needs an even number of vertices")
    faces = g.assert_valid_embedding()
    # primal spanning forest: the embedding check's breadth-first one
    in_tree = [False] * (len(g.tails) >> 1)
    trees = 0  # components with an edge, each with one dual tree to come
    for v, d in g.spanning_forest():
        if d >= 0:
            in_tree[d >> 1] = True
        elif g.rotation[v]:
            trees += 1
    # dual forest through the co-tree edges
    face_of_dart = _face_of_dart(g, faces)
    dual: List[List[Tuple[int, int]]] = [[] for _ in faces]
    for e in g.edges:
        if in_tree[e.eid]:
            continue
        f0, f1 = face_of_dart[2 * e.eid], face_of_dart[2 * e.eid + 1]
        if f0 == f1:
            raise EmbeddingError("co-tree edge with a single incident face")
        dual[f0].append((f1, e.eid))
        dual[f1].append((f0, e.eid))
    parent_edge: List[Optional[int]] = [None] * len(faces)
    reached = [False] * len(faces)
    order = []  # each dual tree in BFS order from its root
    for root in range(len(faces)):  # the least face of a new component
        if reached[root]:
            continue
        trees -= 1
        reached[root] = True
        queue = [root]
        for fi in queue:
            for fj, eid in dual[fi]:
                if not reached[fj]:
                    reached[fj] = True
                    parent_edge[fj] = eid
                    queue.append(fj)
        order += queue
    if trees:
        raise EmbeddingError("dual co-tree does not span the faces")

    heads = {e.eid: e.v for e in g.edges}  # start with the stored direction
    for fi in reversed(order):  # leaves towards the root faces
        eid = parent_edge[fi]
        if eid is not None and _against(g, faces[fi], heads) % 2 == 0:
            e = g.edge_by_id[eid]
            heads[eid] = e.u if heads[eid] == e.v else e.v
    return OrientedGraph(g, heads)


def _is_poly(g: PlanarMultigraph) -> bool:
    """Whether g's weights lie in Z[q], so its matrices are over Z[q]."""
    return any(isinstance(e.weight, QPoly) for e in g.edges)


def bipartite_matrix(sg: SignedGraph) -> Optional[ExactMatrix]:
    """Signed bipartite adjacency matrix; None signals zero matchings
    (unequal color classes make the matrix non-square).  The rows are the
    color class holding vertex 0, the columns the other, both in id order."""
    g = sg.graph
    if g.bipartition is None:
        raise ValueError("bipartite matrix of a graph not flagged bipartite")
    blk, wht = g.bipartition
    if 0 in wht:
        blk, wht = wht, blk
    if len(blk) != len(wht):
        return None
    pos = [0] * g.n_vertices  # a vertex's place in its color class
    for part in (blk, wht):
        for i, v in enumerate(sorted(part)):
            pos[v] = i
    cells = []
    for e in g.edges:
        r, c = (e.u, e.v) if e.u in blk else (e.v, e.u)
        cells.append((pos[r], pos[c], e.weight if sg.signs[e.eid] > 0 else -e.weight))
    return ExactMatrix.from_cells(len(blk), len(wht), cells, _is_poly(g))


def skew_matrix(og: OrientedGraph) -> ExactMatrix:
    """Antisymmetric incidence matrix: entry (i,j) sums w over edges i->j
    minus w over edges j->i; row i is vertex i."""
    g = og.graph
    cells = []
    for e in g.edges:
        j = og.heads[e.eid]
        i = e.u if j == e.v else e.v
        cells += ((i, j, e.weight), (j, i, -e.weight))
    return ExactMatrix.from_cells(g.n_vertices, g.n_vertices, cells, _is_poly(g))


def _certificates(sg: SignedGraph, kappa) -> Tuple[bool, Optional[int]]:
    """``det``'s (one_sign, mirror) for m = ``bipartite_matrix(sg)`` over
    Z[q], proven on this signing with each weight's coefficients read once.

    one_sign: N = |det m(1)| bounds every coefficient of det m.  When sg is
    flat and every edge weight's coefficients are >= 0, every matching
    enters det m with one sign (Kasteleyn), so det m(q) = +-sum_M w(M) has
    coefficients of one sign that sum to +-N; the kernel finds N itself.

    mirror: G with det m(q) = q^G det m(1/q), or None, from kappa (kappa[v]
    is the image of vertex v), tried only when one_sign holds, as its proof
    needs the same flatness.  The checks:

    * every weight is a monomial c q^k with c > 0, and no two edges join the
      same two vertices;
    * kappa is an involution that swaps the two colour classes, as the
      half-turn of the hexagon does (the proof needs only that kappa
      permutes the vertices; the swap refuses maps of another shape, such
      as the identity);
    * kappa maps every edge e to an edge kappa(e) with the same c;
    * a vertex potential g, solved along the graph's spanning forest, gives
      k_e + k_kappa(e) = g(u) + g(v) on every edge e = uv.

    Then kappa permutes the perfect matchings, keeping the product of the
    c, and a matching M covers every vertex once, so the exponents of M and
    kappa(M) add up to G = sum_v g(v).  So sum_M c(M) q^w(M) is unchanged by
    q^w -> q^(G - w), and so is det m(q) = +-sum_M c(M) q^w(M)."""
    if nonflat_faces(sg):
        return False, None
    g = sg.graph
    term = {} if kappa is not None else None  # (u, v), u < v -> (k, c); None: no mirror
    for e in g.edges:
        cs = e.weight.coeffs if isinstance(e.weight, QPoly) else (e.weight,)
        if any(c < 0 for c in cs):
            return False, None
        k = len(cs) - 1
        if term is None or k < 0 or not cs[k] or any(cs[:k]):
            term = None
        else:
            term[min(e.u, e.v), max(e.u, e.v)] = k, cs[k]
    if term is None or len(term) != len(g.edges):
        return True, None
    n, blk = g.n_vertices, g.bipartition[0]
    if len(kappa) != n or any(kappa[kappa[v]] != v or (v in blk) == (kappa[v] in blk) for v in g.vertices):
        return True, None
    sums = [0] * (len(g.tails) >> 1)  # by edge id: the edge's k plus its image's
    for e in g.edges:
        k, c = term[min(e.u, e.v), max(e.u, e.v)]
        ku, kv = kappa[e.u], kappa[e.v]
        image = term.get((min(ku, kv), max(ku, kv)))
        if image is None or image[1] != c:
            return True, None
        sums[e.eid] = k + image[0]
    pot, tails = [0] * n, g.tails
    for v, d in g.spanning_forest():  # each parent before its children
        if d >= 0:
            pot[v] = sums[d >> 1] - pot[tails[d]]
    if any(pot[e.u] + pot[e.v] != sums[e.eid] for e in g.edges):
        return True, None
    return True, sum(pot)


def weighted_matching_sum(g: PlanarMultigraph, kappa=None):
    """Total weight of perfect matchings via flat signing/orientation.

    Zero when a component has an odd number of vertices.  Otherwise a graph
    its builder flagged bipartite goes through one determinant, everything
    else through one Pfaffian, each of the whole graph.

    Over Z[q], ``_certificates`` proves in one pass over the weights what
    ``det`` may rest on.  When the signing is flat and every coefficient
    nonnegative, every coefficient has one sign, so the CRT stops at the
    coefficient bound |det K(1)|; ``det`` then eliminates K(1) once, over
    Z, for both N and the program its evaluations replay.  When either
    check fails, ``det`` falls back to Goldstein-Graham.  With the bound
    proven and a vertex map kappa given (the half-turn), the determinant
    proves its degree window by one min-cost assignment on K's rows and
    evaluates half of it when the mirror exponent is proven too; when it is
    not, two assignments prove the window and it is evaluated whole.  The
    Pfaffian branch always takes the kernel's own bound.
    """
    poly = _is_poly(g)
    if any(len(comp) % 2 for comp in g.components()):
        return QPoly() if poly else 0
    if g.bipartition is None:
        return pfaffian_abs(skew_matrix(flat_orientation(g)))
    sg = flat_signing(g)
    m = bipartite_matrix(sg)
    if m is None:
        return QPoly() if poly else 0
    if not poly:
        return det(m)
    return det(m, *_certificates(sg, kappa))
