"""Box symmetries, the ten symmetry classes, and quotient matching graphs.

The relevant group has order 12, presented as S3 x C2: an element carries a
permutation of the three coordinates and a "comp" bit.  Acting on a triangle
(x,y,z) of H(a,b,c), the permutation is applied first and then, if comp is
set, the affine flip

    (x,y,z) -> (b+c-1-x, a+c-1-y, a+b-1-z).

The permutation part preserves the coordinate sum and hence the up/down
triangle class; the flip always swaps the classes.  In terms of hexagon
geometry the even permutations with comp clear are the rotations by 0 and
+-2*pi/3, comp alone is the half-turn (partition complementation), an odd
permutation with comp set is a reflection through two hexagon corners
(partition transposition), and an odd permutation with comp clear is a
reflection through two edge midpoints (transpose-complementation).

Quotient graphs: given a subgroup G fixing the box, ``quotient_graph``
builds a graph whose perfect matchings are in bijection with the
G-invariant matchings of Z(a,b,c).  The pipeline: edges reversed by some
group element are rerouted to a "bachelorhood" vertex; edges whose
stabilizer does not contain a non-bachelor endpoint's stabilizer are
deleted; vertices fixed by a transpose-complement reflection pair up into
isolated forced edges and are dropped; the rest is quotiented by orbits
(keeping parallel edges); finally the bachelorhood vertex, if it kept any
edges, is replaced by a planar parity gadget so that ordinary perfect
matchings reproduce the matchings-with-bachelors count.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, NamedTuple, Tuple

from .hexgrid import (
    Dart,
    Edge,
    EmbeddingError,
    HexRegion,
    PlanarMultigraph,
    Triangle,
    angle_cmp,
    build_graph,
    center2,
    position2,
    primitive_dir,
    radius2,
)


class BoxError(ValueError):
    """The box dimensions are not fixed by the requested symmetry."""


class SymmetryElement(NamedTuple):
    perm: Tuple[int, int, int]  # t' = (t[perm[0]], t[perm[1]], t[perm[2]])
    comp: bool


IDENTITY = SymmetryElement((0, 1, 2), False)
TAU = SymmetryElement((1, 0, 2), True)  # transposition of the partition
RHO = SymmetryElement((2, 0, 1), False)  # rotation by 2*pi/3
KAPPA = SymmetryElement((0, 1, 2), True)  # complementation / half-turn
KAPPA_TAU = SymmetryElement((1, 0, 2), False)  # transpose-complement


def compose(g: SymmetryElement, h: SymmetryElement) -> SymmetryElement:
    """g*h acts by h first, then g."""
    perm = tuple(h.perm[g.perm[i]] for i in range(3))
    return SymmetryElement(perm, g.comp ^ h.comp)


def inverse(g: SymmetryElement) -> SymmetryElement:
    inv = [0, 0, 0]
    for i in range(3):
        inv[g.perm[i]] = i
    return SymmetryElement(tuple(inv), g.comp)


def perm_sign(perm: Tuple[int, int, int]) -> int:
    """+1 for even permutations, -1 for odd."""
    s = 1
    p = list(perm)
    for i in range(3):
        if p[i] != i:
            j = p.index(i)
            p[i], p[j] = p[j], p[i]
            s = -s
    return s


def box_fixed(g: SymmetryElement, box: Tuple[int, int, int]) -> bool:
    a, b, c = box
    bounds = (b + c, a + c, a + b)
    return tuple(bounds[g.perm[i]] for i in range(3)) == bounds


@dataclass(frozen=True)
class SymmetryClass:
    id: int
    name: str
    generators: Tuple[SymmetryElement, ...]

    def box_fixed(self, box) -> bool:
        return all(box_fixed(g, box) for g in self.generators)

    def group(self) -> Tuple[SymmetryElement, ...]:
        return group_elements(self)


CLASSES: Dict[int, SymmetryClass] = {
    1: SymmetryClass(1, "P", ()),
    2: SymmetryClass(2, "S", (TAU,)),
    3: SymmetryClass(3, "CS", (RHO,)),
    4: SymmetryClass(4, "TS", (TAU, RHO)),
    5: SymmetryClass(5, "SC", (KAPPA,)),
    6: SymmetryClass(6, "TC", (KAPPA_TAU,)),
    7: SymmetryClass(7, "SSC", (KAPPA, TAU)),
    8: SymmetryClass(8, "CSTC", (KAPPA_TAU, RHO)),
    9: SymmetryClass(9, "CSSC", (KAPPA, RHO)),
    10: SymmetryClass(10, "TSSC", (KAPPA, TAU, RHO)),
}


@functools.lru_cache(maxsize=None)
def _closure(gens: Tuple[SymmetryElement, ...]) -> Tuple[SymmetryElement, ...]:
    elems = {IDENTITY}
    frontier = [IDENTITY]
    while frontier:
        nxt = []
        for g in frontier:
            for gen in gens:
                h = compose(gen, g)
                if h not in elems:
                    elems.add(h)
                    nxt.append(h)
        frontier = nxt
    return tuple(sorted(elems))


def group_elements(cls: SymmetryClass) -> Tuple[SymmetryElement, ...]:
    """The subgroup generated by the class generators, sorted."""
    return _closure(tuple(cls.generators))


def _image_fn(g: SymmetryElement, bounds):
    """The coordinate map of g on triangles of a region with these bounds
    (no region check)."""
    i, j, k = g.perm
    if g.comp:
        X, Y, Z = bounds
        return lambda t: (X - t[i], Y - t[j], Z - t[k])
    return lambda t: (t[i], t[j], t[k])


def act_triangle(g: SymmetryElement, t: Triangle, region: HexRegion) -> Triangle:
    """Image of a triangle; requires the box to be fixed by g."""
    if not box_fixed(g, region.abc):
        raise BoxError(f"H{region.abc} is not fixed by {g}")
    s = Triangle(*_image_fn(g, region.bounds)(t))
    if s not in region:
        raise EmbeddingError(f"symmetry image {s} left the region")
    return s


def _act_region(g: SymmetryElement, region: HexRegion) -> Dict[Triangle, Triangle]:
    """act_triangle on every triangle of the region, as a map: the box is
    checked once, and each image against the region's triangle set."""
    if not box_fixed(g, region.abc):
        raise BoxError(f"H{region.abc} is not fixed by {g}")
    image = _image_fn(g, region.bounds)
    canon = {t: t for t in region.triangles}
    out = {}
    for t in region.triangles:
        s = canon.get(image(t))
        if s is None:
            raise EmbeddingError(f"symmetry image of {t} left the region")
        out[t] = s
    return out


# ---------------------------------------------------------------------------
# action on plane partitions (height matrices)
# ---------------------------------------------------------------------------


def _tau_heights(h, box):
    a, b, c = box
    if a == 0 or b == 0:
        return ((),) * b, (b, a, c)
    return tuple(zip(*h)), (b, a, c)


def _rho_heights(h, box):
    a, b, c = box
    out = tuple(
        tuple(sum(1 for t in range(b) if h[j][t] > i) for j in range(a))
        for i in range(c)
    )
    return out, (c, a, b)


def _kappa_heights(h, box):
    a, b, c = box
    out = tuple(
        tuple(c - h[a - 1 - i][b - 1 - j] for j in range(b)) for i in range(a)
    )
    return out, (a, b, c)


_GENERATOR_HEIGHT_OPS = {TAU: _tau_heights, RHO: _rho_heights, KAPPA: _kappa_heights}


@functools.lru_cache(maxsize=None)
def _word(g: SymmetryElement) -> Tuple[SymmetryElement, ...]:
    """Shortest decomposition of g into the three generators (leftmost last)."""
    words = {IDENTITY: ()}
    frontier = [IDENTITY]
    while g not in words and frontier:
        nxt = []
        for e in frontier:
            for gen in (TAU, RHO, KAPPA):
                f = compose(gen, e)
                if f not in words:
                    words[f] = (gen,) + words[e]
                    nxt.append(f)
        frontier = nxt
    return words[g]


def act_partition(g: SymmetryElement, heights, box):
    """Image of a plane partition (height matrix) under g; box must be fixed."""
    if not box_fixed(g, box):
        raise BoxError(f"box {box} is not fixed by {g}")
    h, bx = heights, tuple(box)
    for gen in reversed(_word(g)):
        h, bx = _GENERATOR_HEIGHT_OPS[gen](h, bx)
    if bx != tuple(box):
        raise EmbeddingError("partition action did not return to the same box")
    return h


def is_plane_partition(heights, box) -> bool:
    a, b, c = box
    if len(heights) != a or any(len(r) != b for r in heights):
        return False
    for i in range(a):
        for j in range(b):
            v = heights[i][j]
            if not 0 <= v <= c:
                return False
            if j + 1 < b and heights[i][j + 1] > v:
                return False
            if i + 1 < a and heights[i + 1][j] > v:
                return False
    return True


# ---------------------------------------------------------------------------
# parity gadgets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParityGadget:
    """A planar subgraph standing in for the bachelorhood vertex.

    Contract: for X a subset of the attachment points, the gadget minus X
    has exactly one perfect matching when |X| has the declared parity and
    none otherwise.  Realized as a row of triangles (path c1..cm with chords
    between consecutive even-indexed vertices, attachments at the odd ones),
    plus one extra path vertex for the even-parity variant.
    """

    n_attach: int
    parity: str
    vertices: Tuple[str, ...]
    edges: Tuple[Tuple[str, str], ...]
    attachments: Tuple[str, ...]


def build_parity_gadget(n_attach: int, parity: str) -> ParityGadget:
    if n_attach < 1:
        raise ValueError("a gadget needs at least one attachment")
    if parity not in ("odd", "even"):
        raise ValueError("parity must be 'odd' or 'even'")
    m = 2 * n_attach - 1 + (1 if parity == "even" else 0)
    vs = tuple(f"c{i}" for i in range(1, m + 1))
    edges = [(f"c{i}", f"c{i + 1}") for i in range(1, m)]
    edges += [(f"c{i}", f"c{i + 2}") for i in range(2, m - 1, 2)]
    attach = tuple(f"c{i}" for i in range(1, 2 * n_attach, 2))
    return ParityGadget(n_attach, parity, vs, tuple(edges), attach)


def _gadget_rank(me: int, other: int) -> int:
    """ccw slot of a strip edge at vertex c{me}: right path, right chord,
    left chord, left path; externals (slot 4) hang below."""
    if other == me + 1:
        return 0
    if other == me + 2:
        return 1
    if other == me - 2:
        return 2
    if other == me - 1:
        return 3
    raise ValueError("not a strip edge")


def gadget_multigraph(g: ParityGadget) -> PlanarMultigraph:
    """The gadget alone, with its planar rotation system."""
    edges = [Edge(i, u, v) for i, (u, v) in enumerate(g.edges)]
    rot = {v: [] for v in g.vertices}
    for e in edges:
        iu, iv = int(e.u[1:]), int(e.v[1:])
        rot[e.u].append((_gadget_rank(iu, iv), (e.eid, 0)))
        rot[e.v].append((_gadget_rank(iv, iu), (e.eid, 1)))
    rotation = {v: [d for _, d in sorted(rs)] for v, rs in rot.items()}
    return PlanarMultigraph(g.vertices, edges, rotation)


# ---------------------------------------------------------------------------
# the quotient construction
# ---------------------------------------------------------------------------

BACHELOR = "bachelor"


def _is_transposition(perm) -> bool:
    return sum(1 for i in range(3) if perm[i] == i) == 1


def _orbit_label(rep: Triangle) -> str:
    return f"o({rep.x},{rep.y},{rep.z})"


def quotient_graph(region: HexRegion, cls: SymmetryClass) -> PlanarMultigraph:
    """Graph whose perfect matchings count the cls-invariant tilings of H(a,b,c)."""
    if not cls.box_fixed(region.abc):
        raise BoxError(f"H{region.abc} is not fixed by class {cls.id}")
    G = group_elements(cls)
    Z = build_graph(region)
    verts = region.triangles
    act = {g: _act_region(g, region) for g in G}
    stab = {t: frozenset(g for g in G if act[g][t] == t) for t in verts}

    edge_of = {}
    for e in Z.edges:
        edge_of[(e.u, e.v)] = e
        edge_of[(e.v, e.u)] = e

    def edge_image(g, e):
        img = edge_of.get((act[g][e.u], act[g][e.v]))
        if img is None:
            raise EmbeddingError("group element does not preserve adjacency")
        return img

    # reversed edges: some element fixes the edge but swaps its endpoints
    reversed_ids = set()
    for e in Z.edges:
        for g in G:
            if g.comp and act[g][e.u] == e.v and act[g][e.v] == e.u:
                reversed_ids.add(e.eid)
                break

    # stabilizer pruning (ordinary edges): survivors need equal endpoint stabilizers
    surviving: List[Edge] = []
    for e in Z.edges:
        if e.eid in reversed_ids:
            continue
        if stab[e.u] == stab[e.v]:
            surviving.append(e)

    # stabilizer pruning (bachelor half-edges, identified by their source edge)
    surviving_b = set()
    for eid in sorted(reversed_ids):
        e = Z.edge_by_id[eid]
        for v in (e.u, e.v):
            if all(edge_image(g, e).eid == eid for g in stab[v]):
                surviving_b.add((v, eid))

    # transpose-complement-fixed vertices pair into forced isolated edges
    refl0 = [g for g in G if not g.comp and _is_transposition(g.perm)]
    fixed = {t for t in verts if any(act[g][t] == t for g in refl0)}
    inc: Dict[Triangle, List[Edge]] = {}
    for e in surviving:
        inc.setdefault(e.u, []).append(e)
        inc.setdefault(e.v, []).append(e)
    bachelor_ends = {v for v, _ in surviving_b}
    removed = set()
    removed_eids = set()
    for v in sorted(fixed):
        if v in removed:
            continue
        ev = inc.get(v, [])
        if not ev:
            continue  # bachelor-only or isolated; handled downstream
        if len(ev) != 1:
            raise EmbeddingError(f"fixed vertex {v} kept {len(ev)} edges")
        e = ev[0]
        w = e.v if e.u == v else e.u
        if w not in fixed or len(inc.get(w, [])) != 1:
            raise EmbeddingError(f"fixed vertex {v} is not cleanly paired")
        if v in bachelor_ends or w in bachelor_ends:
            raise EmbeddingError("paired fixed vertex also holds a bachelor edge")
        removed.update((v, w))
        removed_eids.add(e.eid)
    for v in removed:
        for g in G:
            if act[g][v] not in removed:
                raise EmbeddingError("fixed-pair removal is not orbit-closed")

    kept = [t for t in verts if t not in removed]
    surviving = [
        e
        for e in surviving
        if e.eid not in removed_eids and e.u not in removed and e.v not in removed
    ]

    # orbits of vertices and edges
    orb_of: Dict[Triangle, Triangle] = {}
    for t in kept:
        if t in orb_of:
            continue
        orbit = frozenset(act[g][t] for g in G)
        rep = min(orbit)
        for s in orbit:
            orb_of[s] = rep
    surviving_ids = {e.eid for e in surviving}
    eorb_of: Dict[int, FrozenSet[int]] = {}
    for e in surviving:
        if e.eid in eorb_of:
            continue
        oe = frozenset(edge_image(g, e).eid for g in G)
        if not oe <= surviving_ids:
            raise EmbeddingError("edge pruning is not orbit-closed")
        for eid2 in oe:
            eorb_of[eid2] = oe
    borb_of: Dict[Tuple[Triangle, int], FrozenSet] = {}
    for bd in surviving_b:
        if bd in borb_of:
            continue
        v, src = bd
        e = Z.edge_by_id[src]
        ob = frozenset((act[g][v], edge_image(g, e).eid) for g in G)
        if not ob <= surviving_b:
            raise EmbeddingError("bachelor-edge pruning is not orbit-closed")
        for x in ob:
            borb_of[x] = ob

    # quotient edges: one per orbit; loops can never be matched, drop them
    norb_list = sorted({oe for oe in eorb_of.values()}, key=lambda oe: min(oe))
    qedges: List[Edge] = []
    qedge_of_orbit: Dict[FrozenSet[int], int] = {}
    for oe in norb_list:
        e = Z.edge_by_id[min(oe)]
        ru, rv = orb_of[e.u], orb_of[e.v]
        if ru == rv:
            continue
        qeid = len(qedges)
        qedges.append(Edge(qeid, _orbit_label(ru), _orbit_label(rv)))
        qedge_of_orbit[oe] = qeid

    borb_list = sorted({ob for ob in borb_of.values()}, key=lambda ob: min(ob))
    qbedge_of_orbit: Dict[FrozenSet, int] = {}
    for ob in borb_list:
        v, src = min(ob)
        qeid = len(qedges)
        qedges.append(Edge(qeid, _orbit_label(orb_of[v]), BACHELOR))
        qbedge_of_orbit[ob] = qeid

    reps = sorted({orb_of[t] for t in kept})
    qvertices = [_orbit_label(r) for r in reps]
    members_of: Dict[Triangle, List[Triangle]] = {r: [] for r in reps}
    for t in kept:  # sorted, so each member list comes out sorted
        members_of[orb_of[t]].append(t)
    orbit_members = {_orbit_label(r): tuple(members_of[r]) for r in reps}

    # Reflections reverse the local rotation sense, so rotations must be read
    # off orbit members lying in consistently-oriented chambers (the sectors
    # cut out by the reflection axes alternate in orientation).
    rays = _axis_rays(region, G, act, verts)
    parity_of = _chamber_parity_fn(region, rays)
    rot_source: Dict[str, Triangle] = {}
    on_axis: set = set()
    for label, members in orbit_members.items():
        # the first member in a positive chamber is the smallest such one
        src = next((t for t in members if parity_of(t) == 0), None)
        if src is None:
            if any(parity_of(t) is not None for t in members):
                raise EmbeddingError("orbit misses the positively oriented chambers")
            src = members[0]
            on_axis.add(label)
        rot_source[label] = src

    rotation: Dict[object, List[Dart]] = {}
    for r in reps:
        label = _orbit_label(r)
        src_v = rot_source[label]
        darts: List[Dart] = []
        seen = set()
        for d in Z.rotation[src_v]:
            e = Z.edge_by_id[d[0]]
            if e.eid in reversed_ids:
                key = borb_of.get((src_v, e.eid))
                if key is None:
                    continue  # pruned bachelor half
                qeid = qbedge_of_orbit[key]
            else:
                oe = eorb_of.get(e.eid)
                if oe is None or oe not in qedge_of_orbit:
                    continue  # pruned edge or dropped loop
                qeid = qedge_of_orbit[oe]
            if qeid in seen:
                raise EmbeddingError(f"quotient edge met {label} twice")
            seen.add(qeid)
            qe = qedges[qeid]
            darts.append((qeid, 0 if qe.u == label else 1))
        if label in on_axis and len(darts) > 1:
            raise EmbeddingError(f"axis vertex {label} kept {len(darts)} edges")
        rotation[label] = darts

    meta = {"class": cls.id, "orbit": orbit_members}

    if not qbedge_of_orbit:
        bip = None
        if all(not g.comp for g in G):
            ups = frozenset(_orbit_label(r) for r in reps if sum(r) == region.up_sum)
            downs = frozenset(set(qvertices) - ups)
            bip = (ups, downs)
        g = PlanarMultigraph(qvertices, qedges, rotation, bipartition=bip, meta=meta)
        g.assert_valid_embedding()
        return g

    # order the bachelor edges along the reflection-axis boundary, then
    # replace the bachelorhood vertex by a parity gadget
    border = _bachelor_order(region, Z, rays, borb_list, qbedge_of_orbit)
    n_attach = len(border)
    parity = "odd" if len(qvertices) % 2 == 1 else "even"
    gadget = build_parity_gadget(n_attach, parity)
    glabel = {v: f"g{v[1:]}" for v in gadget.vertices}

    # rebuild with contiguous ids: ordinary quotient edges first, then the
    # bachelor edges rewired to their attachment points, then gadget edges
    id_map = {}
    final_edges = []
    for e in qedges:
        if e.v != BACHELOR:
            id_map[e.eid] = len(final_edges)
            final_edges.append(Edge(len(final_edges), e.u, e.v, e.weight))
    for k, qeid in enumerate(border):
        old = qedges[qeid]
        att = glabel[gadget.attachments[k]]
        id_map[qeid] = len(final_edges)
        final_edges.append(Edge(len(final_edges), old.u, att))
    gadget_edge_ids = {}
    for (u, v) in gadget.edges:
        eid = len(final_edges)
        gadget_edge_ids[(u, v)] = eid
        final_edges.append(Edge(eid, glabel[u], glabel[v]))

    frotation: Dict[object, List[Dart]] = {}
    for label, darts in rotation.items():
        frotation[label] = [(id_map[eid], side) for eid, side in darts]
    ext_at = {gadget.attachments[k]: id_map[border[k]] for k in range(n_attach)}
    for v in gadget.vertices:
        slots = []
        for (u, w) in gadget.edges:
            if v == u:
                slots.append((_gadget_rank(int(u[1:]), int(w[1:])), (gadget_edge_ids[(u, w)], 0)))
            elif v == w:
                slots.append((_gadget_rank(int(w[1:]), int(u[1:])), (gadget_edge_ids[(u, w)], 1)))
        if v in ext_at:
            slots.append((4, (ext_at[v], 1)))
        frotation[glabel[v]] = [d for _, d in sorted(slots)]

    fvertices = qvertices + [glabel[v] for v in gadget.vertices]
    g = PlanarMultigraph(fvertices, final_edges, frotation, meta=meta)
    if g.n_vertices % 2:
        raise EmbeddingError("gadget parity failed to even out the vertex count")
    g.assert_valid_embedding()
    return g


def _axis_rays(region, G, act, verts) -> List[Tuple[int, int]]:
    """Primitive directions (both halves) of the reflection axes of G."""
    cx, cy = center2(region)
    dirs = set()
    for g in G:
        if perm_sign(g.perm) == 1:
            continue
        for t in verts:
            p, q = position2(t), position2(act[g][t])
            d = (p[0] + q[0] - cx, p[1] + q[1] - cy)
            if d != (0, 0):
                dirs.add(primitive_dir(d))
                dirs.add(primitive_dir((-d[0], -d[1])))
                break
    return sorted(dirs, key=functools.cmp_to_key(angle_cmp))


def _chamber_parity_fn(region, rays):
    """Orientation class (0/1) of the axis-chamber containing a triangle.

    Returns None for triangles on a reflection axis; those keep at most one
    quotient edge, so their rotation needs no orientation choice.
    """
    cx, cy = center2(region)

    def parity_of(t: Triangle):
        if not rays:
            return 0
        p = position2(t)
        rel = (2 * p[0] - cx, 2 * p[1] - cy)
        cnt = 0
        for ray in rays:
            c = angle_cmp(ray, rel)
            if c == 0:
                return None
            if c < 0:
                cnt += 1
        return cnt % 2

    return parity_of


def _bachelor_order(region, Z, rays, borb_list, qbedge_of_orbit) -> List[int]:
    """Quotient bachelor edges in planar order along the chamber boundary.

    Rerouted (reversed) edges have their midpoints on the reflection axes or
    at the center.  The quotient surface is the positively oriented base
    chamber; its boundary runs in along the largest-angle axis ray, through
    the center, and out along the smallest-angle ray.  Every bachelor orbit
    has exactly one representative midpoint on that boundary, and walking it
    gives the cyclic attachment order for the gadget.
    """
    if len(borb_list) == 1:
        return [qbedge_of_orbit[borb_list[0]]]
    if not rays:
        raise EmbeddingError("multiple bachelor edges without reflection axes")
    cx, cy = center2(region)
    ray_in, ray_out = rays[-1], rays[0]
    keyed = []
    for ob in borb_list:
        mids = set()
        for (_, src) in ob:
            e = Z.edge_by_id[src]
            pu, pv = position2(e.u), position2(e.v)
            mids.add((pu[0] + pv[0] - cx, pu[1] + pv[1] - cy))
        if (0, 0) in mids:
            key = (1, 0)  # the center sits between the two boundary rays
        else:
            on_in = [m for m in mids if primitive_dir(m) == ray_in]
            on_out = [m for m in mids if primitive_dir(m) == ray_out]
            if on_in:
                key = (0, -min(radius2(m) for m in on_in))
            elif on_out:
                key = (2, min(radius2(m) for m in on_out))
            else:
                raise EmbeddingError("bachelor midpoint off the chamber boundary")
        keyed.append((key, min(ob), ob))
    keyed.sort(key=lambda kv: (kv[0], kv[1]))
    return [qbedge_of_orbit[ob] for _, _, ob in keyed]
