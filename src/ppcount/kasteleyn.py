"""Flat signings, flat orientations, and matching counts by determinant/Pfaffian.

A signing of an embedded planar bipartite graph is *flat* when every face
with 4k sides carries an odd number of negative edges and every face with
4k+2 sides an even number; then the determinant of the signed bipartite
adjacency matrix equals the permanent of the unsigned one up to sign, i.e.
the weighted matching count.

An orientation is *flat* (Pfaffian/Kasteleyn orientation) when every face,
with at most one exception per component, has an odd number of edges
directed against a fixed face-tracing sense; then the Pfaffian of the
antisymmetric incidence matrix counts matchings.  The orientation is built
by directing a spanning tree arbitrarily and then fixing the co-tree edges
face by face, leaf-to-root in the interdigitating dual tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .exactalg import ExactMatrix, QPoly, det, pfaffian_abs
from .hexgrid import EmbeddingError, PlanarMultigraph


class FlatnessError(RuntimeError):
    pass


@dataclass(frozen=True)
class SignedGraph:
    graph: PlanarMultigraph
    signs: dict  # edge id -> +1 / -1


@dataclass(frozen=True)
class OrientedGraph:
    graph: PlanarMultigraph
    heads: dict  # edge id -> head vertex id


@dataclass(frozen=True)
class FaceReport:
    sides: int
    parity_count: int  # negative edges (signing) / against-trace darts (orientation)
    flat: bool


@dataclass(frozen=True)
class FlatReport:
    faces: Tuple[FaceReport, ...]
    flat: bool


def two_coloring(g: PlanarMultigraph) -> Optional[Tuple[frozenset, frozenset]]:
    """BFS 2-coloring; None if an odd cycle exists."""
    if g.bipartition is not None:
        return g.bipartition
    color: List[Optional[int]] = [None] * g.n_vertices
    for start in g.vertices:
        if color[start] is not None:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for u in g.neighbors(v):
                if color[u] is None:
                    color[u] = 1 - color[v]
                    stack.append(u)
                elif color[u] == color[v]:
                    return None
    blk = frozenset(v for v, c in enumerate(color) if c == 0)
    return (blk, frozenset(g.vertices) - blk)


def _face_of_dart(g: PlanarMultigraph, faces) -> List[int]:
    """The index of the face each dart of g lies in, as a list by dart."""
    face_of = [-1] * len(g.tails)
    for fi, f in enumerate(faces):
        for d in f:
            face_of[d] = fi
    return face_of


def _face_signing_flat(face, signs) -> Tuple[int, int, bool]:
    sides = len(face)
    neg = sum(1 for d in face if signs[d >> 1] < 0)
    want_odd = sides % 4 == 0
    return sides, neg, (neg % 2 == 1) == want_odd


def _against(g: PlanarMultigraph, face, heads) -> int:
    """Darts of the face whose edge is directed against the tracing sense."""
    tails = g.tails
    return sum(1 for d in face if heads[d >> 1] != tails[d ^ 1])


def flat_signing(g: PlanarMultigraph) -> SignedGraph:
    """A flat edge signing, found by pairing off non-flat faces along dual paths."""
    if g.n_vertices % 2:
        raise ValueError("flat signing needs an even number of vertices")
    if two_coloring(g) is None:
        raise ValueError("flat signing requires a bipartite graph")
    faces = g.assert_valid_embedding()
    signs = {e.eid: 1 for e in g.edges}
    face_of_dart = _face_of_dart(g, faces)

    def face_state(fi):
        return _face_signing_flat(faces[fi], signs)

    # dual adjacency through edges with two distinct incident faces
    dual: List[List[Tuple[int, int]]] = [[] for _ in faces]
    for e in g.edges:
        f0, f1 = face_of_dart[2 * e.eid], face_of_dart[2 * e.eid + 1]
        if f0 != f1:
            dual[f0].append((f1, e.eid))
            dual[f1].append((f0, e.eid))

    bad = {fi for fi in range(len(faces)) if not face_state(fi)[2]}
    guard = 0
    while bad:
        guard += 1
        if guard > 4 * len(faces) + 8:
            raise FlatnessError("flat signing failed to converge")
        start = min(bad)
        # BFS to the nearest other non-flat face
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
            # by Euler's formula, a component with edges has an odd number
            # of non-flat faces exactly when it has an odd number of vertices
            raise ValueError(
                "a component has an odd number of vertices, so the graph has "
                "no perfect matching"
            )
        # a flip changes only the two faces of the flipped edge
        fi = target
        while prev[fi][0] is not None:
            fj, eid = prev[fi]
            signs[eid] = -signs[eid]
            for fk in (fi, fj):
                if face_state(fk)[2]:
                    bad.discard(fk)
                else:
                    bad.add(fk)
            fi = fj
    return SignedGraph(g, signs)


def check_flat_signing(sg: SignedGraph) -> FlatReport:
    faces = sg.graph.assert_valid_embedding()
    reports = []
    for f in faces:
        sides, neg, ok = _face_signing_flat(f, sg.signs)
        reports.append(FaceReport(sides, neg, ok))
    return FlatReport(tuple(reports), all(r.flat for r in reports))


def flat_orientation(g: PlanarMultigraph) -> OrientedGraph:
    """A Pfaffian orientation: spanning tree free, co-tree edges fixed by faces."""
    if g.n_vertices % 2:
        raise ValueError("flat orientation needs an even number of vertices")
    faces = g.assert_valid_embedding()
    heads = {e.eid: e.v for e in g.edges}  # start with the stored direction
    face_of_dart = _face_of_dart(g, faces)

    for comp in g.components():
        comp_edges = [e for e in g.edges if e.u in comp]
        if not comp_edges:
            continue
        # primal spanning tree (BFS)
        root = min(comp)
        seen = {root}
        tree: set = set()
        frontier = [root]
        while frontier:
            nxt = []
            for v in frontier:
                for e in g.edges_at(v):
                    w = g.other_end(e, v)
                    if w not in seen:
                        seen.add(w)
                        tree.add(e.eid)
                        nxt.append(w)
            frontier = nxt
        cotree = [e for e in comp_edges if e.eid not in tree]
        # dual tree on the component's faces through co-tree edges
        comp_faces = sorted(
            {face_of_dart[2 * e.eid] for e in comp_edges}
            | {face_of_dart[2 * e.eid + 1] for e in comp_edges}
        )
        dual: Dict[int, List[Tuple[int, int]]] = {fi: [] for fi in comp_faces}
        for e in cotree:
            f0, f1 = face_of_dart[2 * e.eid], face_of_dart[2 * e.eid + 1]
            if f0 == f1:
                raise EmbeddingError("co-tree edge with a single incident face")
            dual[f0].append((f1, e.eid))
            dual[f1].append((f0, e.eid))
        root_face = comp_faces[0]
        order = [root_face]
        parent_edge: Dict[int, Optional[int]] = {root_face: None}
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
    return OrientedGraph(g, heads)


def _is_poly(g: PlanarMultigraph) -> bool:
    """Whether g's weights lie in Z[q], so its matrices are over Z[q]."""
    return any(isinstance(e.weight, QPoly) for e in g.edges)


def bipartite_matrix(sg: SignedGraph) -> Optional[ExactMatrix]:
    """Signed bipartite adjacency matrix; None signals zero matchings
    (unequal color classes make the matrix non-square).  The rows are the
    color class holding vertex 0, the columns the other, both in id order."""
    g = sg.graph
    coloring = two_coloring(g)
    if coloring is None:
        raise ValueError("bipartite matrix of a non-bipartite graph")
    blk, wht = coloring
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
        cells.append((pos[r], pos[c], sg.signs[e.eid] * e.weight))
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


def _certified_coeff_bound(sg: SignedGraph, m: ExactMatrix) -> Optional[int]:
    """N = |det m(1)|, which bounds every coefficient of det m over Z[q]
    when m is ``bipartite_matrix(sg)``, sg is flat and every edge weight's
    coefficients are >= 0: then every matching enters det m with one sign
    (Kasteleyn), so det m(q) = +-sum_M w(M) has nonnegative coefficients
    summing to N.  Both facts are checked here, on this signing; None when
    either fails.  N comes from the integer route on m at q = 1."""
    if not check_flat_signing(sg).flat:
        return None
    for e in sg.graph.edges:
        cs = e.weight.coeffs if isinstance(e.weight, QPoly) else (e.weight,)
        if any(c < 0 for c in cs):
            return None
    at_one = ((i, j, a.subs(1)) for i, j, a in m.nonzeros)
    return det(ExactMatrix.from_cells(m.nrows, m.ncols, at_one, False))


def weighted_matching_sum(g: PlanarMultigraph):
    """Total weight of perfect matchings via flat signing/orientation.

    Bipartite-flagged graphs go through the determinant; everything else
    through the Pfaffian.  Connected components multiply.

    Over Z[q] the determinant's CRT stops at the coefficient bound
    |det K(1)| that ``_certified_coeff_bound`` proves from the signing's
    flatness and the weights' nonnegative coefficients, checked in the same
    call; when either check fails, ``det`` falls back to Goldstein-Graham.
    The Pfaffian branch always takes the kernel's own bound.
    """
    poly = _is_poly(g)
    total = QPoly.const(1) if poly else 1
    comps = g.components()
    for comp in comps:
        if len(comp) % 2:
            return QPoly() if poly else 0
        sub = g if len(comps) == 1 else g.subgraph(comp)
        if sub.n_edges == 0:
            return QPoly() if poly else 0
        if g.bipartition is not None:
            sg = flat_signing(sub)
            m = bipartite_matrix(sg)
            if m is None:
                return QPoly() if poly else 0
            # N = 0 stops det before any Z[q] elimination
            total = total * det(m, _certified_coeff_bound(sg, m) if poly else None)
        else:
            total = total * pfaffian_abs(skew_matrix(flat_orientation(sub)))
    if isinstance(total, QPoly):
        total = total.sign_normalized()
    return total
