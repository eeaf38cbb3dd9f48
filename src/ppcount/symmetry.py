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
G-invariant matchings of Z(a,b,c).  It makes one pass over the vertex
orbits and one over Z's edges in id order, and prunes by orbit sizes, once
per orbit.  Each edge's orbit is held as one int, ``erep[e]``, the smallest
edge id in it: the first edge of an orbit maps to the rest, and each
element's image of that first edge is checked to be an edge of Z by one
comparison, its far end against the image of e's far end.  Only first edges
are checked, so a map wrong at any other edge would pass; it is excluded
only because ``_act_region`` composes every element's map from generator
maps, each an affine coordinate map it has checked against the region, and
so an automorphism of Z.  Only the surviving orbits get a status
(ordinary, or reversed), and only the reversed ones keep their edge sets.
An edge e = (u, v) that no element reverses has stab(e) =
stab(u) & stab(v); it survives when stab(u) = stab(v), which holds exactly
when |Ge| = |Gu| = |Gv|.  An edge that some element
reverses is rerouted to a "bachelorhood" vertex; its half (v, e) survives
when stab(v) fixes e, that is, when |G(v, e)| = |Gv| (the two halves of a
reversed edge form one orbit, of size 2|Ge|).  Vertices fixed by a
transpose-complement reflection pair up into isolated forced edges and are
dropped; the rest is quotiented by orbits (keeping parallel edges, dropping
loops); finally the bachelorhood vertex, if it kept any edges, is replaced
by a planar parity gadget so that ordinary perfect matchings reproduce the
matchings-with-bachelors count.
"""

from __future__ import annotations

import functools
from itertools import compress
from operator import itemgetter, not_
from typing import Dict, List, NamedTuple, Optional, Tuple

from .hexgrid import (
    Dart,
    Edge,
    EmbeddingError,
    HexRegion,
    PlanarMultigraph,
    Triangle,
    angle_cmp,
    angle_half,
    center2,
    position2,
    primitive_dir,
    radius2,
    ring,
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


def box_fixed(g: SymmetryElement, box: Tuple[int, int, int]) -> bool:
    a, b, c = box
    bounds = (b + c, a + c, a + b)
    return tuple(bounds[g.perm[i]] for i in range(3)) == bounds


class SymmetryClass(NamedTuple):
    id: int
    name: str
    generators: Tuple[SymmetryElement, ...]

    def box_fixed(self, box) -> bool:
        return all(box_fixed(g, box) for g in self.generators)


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


def symmetry_class(class_id: int) -> SymmetryClass:
    """CLASSES[class_id]; raises ValueError for an id outside 1..10."""
    if class_id not in CLASSES:
        raise ValueError(f"unknown symmetry class {class_id}")
    return CLASSES[class_id]


@functools.lru_cache(maxsize=None)
def _walk(gens: Tuple[SymmetryElement, ...]) -> Dict[SymmetryElement, Optional[tuple]]:
    """The subgroup generated by gens, walked breadth first from the
    identity: each element g maps to (gen, h), the generator and the element
    found before it with g = gen*h, and the identity to None.  The dict is
    in the order of the walk, so h always comes before g.  It is shared
    between calls; callers must not modify it."""
    walk: Dict[SymmetryElement, Optional[tuple]] = {IDENTITY: None}
    queue = [IDENTITY]
    for h in queue:  # grows while it is walked
        for gen in gens:
            g = compose(gen, h)
            if g not in walk:
                walk[g] = (gen, h)
                queue.append(g)
    return walk


def group_elements(cls: SymmetryClass) -> Tuple[SymmetryElement, ...]:
    """The subgroup generated by the class generators, sorted."""
    return tuple(sorted(_walk(tuple(cls.generators))))


def _act_region(cls: SymmetryClass, region: HexRegion) -> Dict[SymmetryElement, List[int]]:
    """The action of each element of the class's group on the triangles of
    the region, as one map per element from a vertex id of the region's Z
    to its image's.  Only the generators act on coordinates: each is
    checked against the box once, and its images against the region's
    bounds and sums at once, as they range over the permuted (and flipped)
    ranges of the region's own.  The flip takes the sum s to X + Y + Z - s =
    2 * up_sum - 1 - s, so it swaps up and down.  It is folded into the
    index key: the flip of the key 2 * (x * W + y) + up (the region's
    ``at``) is K minus that key, with K = 2 * (B_p * W + B_r) + 1 for the
    bounds B_p and B_r of the region's pair (p, r), so a flipping generator
    needs no flipped coordinate or flag lists.  Every other element is
    reached from one found before it by a generator, and its map, a list,
    is composed from those two maps by one ``itemgetter``."""
    tri, up = region.triangles, region.up
    bounds, S, W, at, (p, r) = region.bounds, region.up_sum, region.width, region.at, region.pair
    cols = tuple(zip(*tri)) or ((), (), ())  # the x, y and z coordinates
    ranges = [(min(c), max(c)) for c in cols] if tri else []
    sums = set(map(sum, tri))
    K = 2 * (bounds[p] * W + bounds[r]) + 1
    gen_maps = {}
    for g in cls.generators:
        if not box_fixed(g, region.abc):
            raise BoxError(f"H{region.abc} is not fixed by {g}")
        spans = [ranges[k] for k in g.perm] if ranges else []
        image_sums = sums
        if g.comp:
            spans = [(B - hi, B - lo) for B, (lo, hi) in zip(bounds, spans)]
            image_sums = {sum(bounds) - s for s in sums}
        if not image_sums <= {S - 1, S} or any(lo < 0 or hi > B for B, (lo, hi) in zip(bounds, spans)):
            raise EmbeddingError(f"a symmetry image under {g} left the region")
        xs, ys = cols[g.perm[p]], cols[g.perm[r]]
        if g.comp:
            gen_maps[g] = [at[K - 2 * (x * W + y) - f] for x, y, f in zip(xs, ys, up)]
        else:
            gen_maps[g] = [at[2 * (x * W + y) + f] for x, y, f in zip(xs, ys, up)]
    act = {}
    for g, step in _walk(tuple(cls.generators)).items():
        if step is None:
            act[g] = list(range(len(tri)))
        else:  # g = gen*h: h first, then gen; Z has 2(ab + bc + ca)
            # triangles, so itemgetter gets none or at least two indices
            gen, h = step
            act[g] = list(itemgetter(*act[h])(gen_maps[gen])) if tri else []
    return {g: act[g] for g in sorted(act)}


# ---------------------------------------------------------------------------
# action on plane partitions (height matrices)
# ---------------------------------------------------------------------------


def _word(g: SymmetryElement) -> Tuple[SymmetryElement, ...]:
    """Shortest decomposition of g into the three generators (leftmost last)."""
    walk = _walk((TAU, RHO, KAPPA))
    word: Tuple[SymmetryElement, ...] = ()
    while walk[g] is not None:
        gen, g = walk[g]
        word += (gen,)
    return word


# the row images of one partition map are memoised for the life of the map;
# at most MAX_ROWS rows are kept, so a wide box met row by row does not grow
# the memo without bound
MAX_ROWS = 4096


def _tau_map(a: int, b: int, c: int):
    """Transposition: a x b x c heights to b x a x c."""
    if a == 0 or b == 0:
        empty = ((),) * b
        return (lambda h: empty), (b, a, c)
    return (lambda h: tuple(zip(*h))), (b, a, c)


def _kappa_map(a: int, b: int, c: int):
    """Complementation, a x b x c to itself: row i of the image is row
    a-1-i complemented and reversed."""
    minus = c.__sub__
    image = functools.lru_cache(MAX_ROWS)(lambda row: tuple(map(minus, reversed(row))))
    return (lambda h: tuple(map(image, reversed(h)))), (a, b, c)


def _rho_map(a: int, b: int, c: int):
    """Rotation: a x b x c heights to c x a x b.  Entry (i, j) of the image
    counts the heights of row j above i, so column j of the image is the
    conjugate of row j, cut to length c."""
    if a == 0:
        empty = ((),) * c
        return (lambda h: empty), (c, a, b)
    levels = range(c)
    column = functools.lru_cache(MAX_ROWS)(lambda row: tuple(sum(v > i for v in row) for i in levels))
    return (lambda h: tuple(zip(*map(column, h)))), (c, a, b)


# generator -> builder of (its action on a box, the image box)
_GENERATOR_MAPS = {TAU: _tau_map, RHO: _rho_map, KAPPA: _kappa_map}


def partition_map(g: SymmetryElement, box):
    """The action of g on plane partitions (height matrices) in the box, as
    one function.  The box check, the decomposition of g into generators and
    the check that the word returns to the same box run once, here."""
    box = tuple(box)
    if not box_fixed(g, box):
        raise BoxError(f"box {box} is not fixed by {g}")
    steps = []
    bx = box
    for gen in reversed(_word(g)):
        step, bx = _GENERATOR_MAPS[gen](*bx)
        steps.append(step)
    if bx != box:
        raise EmbeddingError("partition action did not return to the same box")
    if len(steps) == 1:
        return steps[0]

    def act(h):
        for step in steps:
            h = step(h)
        return h

    return act


# ---------------------------------------------------------------------------
# parity gadgets
# ---------------------------------------------------------------------------


class ParityGadget(NamedTuple):
    """A planar subgraph standing in for the bachelorhood vertex.

    Contract: for X a subset of the attachment points, the gadget minus X
    has exactly one perfect matching when |X| has the declared parity and
    none otherwise.  Realized as a row of triangles (path c1..cm with chords
    between consecutive even-indexed vertices, attachments at the odd ones),
    plus one extra path vertex for the even-parity variant; c_k has id k-1.
    """

    n_attach: int
    parity: str
    vertices: Tuple[int, ...]
    edges: Tuple[Tuple[int, int], ...]
    attachments: Tuple[int, ...]


def build_parity_gadget(n_attach: int, parity: str) -> ParityGadget:
    if n_attach < 1:
        raise ValueError("a gadget needs at least one attachment")
    if parity not in ("odd", "even"):
        raise ValueError("parity must be 'odd' or 'even'")
    m = 2 * n_attach - 1 + (1 if parity == "even" else 0)
    edges = [(i, i + 1) for i in range(m - 1)]
    edges += [(i, i + 2) for i in range(1, m - 2, 2)]
    attach = tuple(range(0, 2 * n_attach - 1, 2))
    return ParityGadget(n_attach, parity, tuple(range(m)), tuple(edges), attach)


# the ccw slot of a strip edge at vertex c{me}, by other - me: right path,
# right chord, left chord, left path; externals (slot 4) hang below
_GADGET_RANK = {1: 0, 2: 1, -2: 2, -1: 3}


def gadget_multigraph(g: ParityGadget) -> PlanarMultigraph:
    """The gadget alone, with its planar rotation system."""
    edges = [Edge(i, u, v) for i, (u, v) in enumerate(g.edges)]
    rot = [[] for _ in g.vertices]
    for e in edges:
        rot[e.u].append((_GADGET_RANK[e.v - e.u], 2 * e.eid))
        rot[e.v].append((_GADGET_RANK[e.u - e.v], 2 * e.eid + 1))
    rotation = [[d for _, d in sorted(rs)] for rs in rot]
    return PlanarMultigraph([f"c{v + 1}" for v in g.vertices], edges, rotation)


# ---------------------------------------------------------------------------
# the quotient construction
# ---------------------------------------------------------------------------


def _is_transposition(perm) -> bool:
    return sum(1 for i in range(3) if perm[i] == i) == 1


def quotient_graph(region: HexRegion, cls: SymmetryClass) -> PlanarMultigraph:
    """Graph whose perfect matchings count the cls-invariant tilings of H(a,b,c).

    The parity gadget's vertices, if any, take the first ids (labels gK);
    the orbits follow in the order of their smallest triangles (o(x,y,z)).
    """
    if not cls.box_fixed(region.abc):
        raise BoxError(f"H{region.abc} is not fixed by class {cls.id}")
    G = group_elements(cls)
    tri = region.triangles  # Z's vertex i is tri[i]
    tails, slot = region.tails, region.slot  # unchecked: the result's check covers each ring read
    act = _act_region(cls, region)
    maps = tuple(act.values())
    refl0 = [act[g] for g in G if not g.comp and _is_transposition(g.perm)]

    # vertex orbits, sorted, each found from its smallest member; fixedness
    # by a transpose-complement reflection is an orbit property
    orbit_of: List[Tuple[int, ...]] = [()] * len(tri)
    reps: List[int] = []
    fixed = set()
    for t in range(len(tri)):
        if not orbit_of[t]:
            orbit = tuple(sorted({m[t] for m in maps}))
            for s in orbit:
                orbit_of[s] = orbit
            reps.append(t)
            if any(m[t] == t for m in refl0):
                fixed.update(orbit)

    # edge orbits, in one pass over Z's edges in id order: erep[e] is the
    # smallest edge id in e's orbit, so an edge with erep set is already
    # done, and the first of its orbit finds the rest and checks each
    # element on that first edge only; a map wrong at another edge is
    # excluded only because _act_region composes every map from generator
    # maps it has checked against the region.  An element maps axis k to
    # axis k' with perm[k'] = k, so the image of e = (u, v) along axis k is
    # img = slot[k'][m[u]], an edge at m[u]; it preserves adjacency when
    # img's other end is m[v]: its up end if the element keeps up and down,
    # its down end if it swaps them (the sentinel past the last edge answers
    # img = -1 with -1, never a vertex).  Only a swapping element can
    # reverse e, and it does exactly when img == e.  Orbits are pruned by
    # the orbit-size rule: |Ge| = |Gu| = |Gv| for an ordinary edge, and
    # |G(v, e)| = 2|Ge| = |Gv| for the halves of a reversed one.
    downs, ups = tails[0::2] + [-1], tails[1::2] + [-1]
    erep = [-1] * (len(tails) >> 1)
    split = [([], []) for _ in slot]  # per axis k: (keeping, swapping) (map, slot[k']) pairs
    for g, m in act.items():
        ax = inverse(g).perm
        for k, pair in enumerate(split):
            pair[g.comp].append((m, slot[ax[k]]))
    kept: Dict[int, bool] = {}  # surviving orbits by smallest edge id -> reversed
    bachelor: List[Tuple[int, set]] = []  # the reversed ones with their edge ids
    for u in compress(range(len(tri)), map(not_, region.up)):
        for sk, (keeping, swapping) in zip(slot, split):
            e = sk[u]
            if e < 0 or erep[e] >= 0:
                continue
            v = ups[e]
            size = 0
            for m, sl in keeping:
                img = sl[m[u]]
                if ups[img] != m[v]:
                    raise EmbeddingError("group element does not preserve adjacency")
                if erep[img] < 0:
                    erep[img] = e
                    size += 1
            rev = False
            for m, sl in swapping:
                img = sl[m[u]]
                if downs[img] != m[v]:
                    raise EmbeddingError("group element does not preserve adjacency")
                if erep[img] < 0:
                    erep[img] = e
                    size += 1
                rev = rev or img == e
            n = len(orbit_of[u])
            if rev:
                if 2 * size == n:
                    kept[e] = True
                    bachelor.append((e, {sl[m[u]] for m, sl in swapping + keeping}))
            elif size == n == len(orbit_of[v]):
                kept[e] = False

    # transpose-complement-fixed vertices pair into forced isolated edges;
    # each fixed vertex's ring is read once, for its darts on kept ordinary
    # edges and whether it holds a kept bachelor edge
    at_fixed = {}
    for v in fixed:
        darts, holds_bachelor = [], False
        for d in ring(region, v):
            rev = kept.get(erep[d >> 1])
            if rev is False:
                darts.append(d)
            elif rev:
                holds_bachelor = True
        at_fixed[v] = (darts, holds_bachelor)
    removed = set()
    for v in sorted(fixed):
        if v in removed:
            continue
        dv, bv = at_fixed[v]
        if not dv:
            continue  # bachelor-only or isolated; handled downstream
        if len(dv) != 1:
            raise EmbeddingError(f"fixed vertex {tri[v]} kept {len(dv)} edges")
        w = tails[dv[0] ^ 1]
        if w not in fixed or len(at_fixed[w][0]) != 1:
            raise EmbeddingError(f"fixed vertex {tri[v]} is not cleanly paired")
        if bv or at_fixed[w][1]:
            raise EmbeddingError("paired fixed vertex also holds a bachelor edge")
        removed.update((v, w))
    if any(s not in removed for v in removed for s in orbit_of[v]):
        raise EmbeddingError("fixed-pair removal is not orbit-closed")
    reps = [r for r in reps if r not in removed]

    # replace the bachelorhood vertex by a parity gadget whose attachments
    # follow the bachelor edges along the chamber boundary; the gadget's
    # vertices take the first ids
    rays = _axis_rays(region, G, act)
    n_gadget = 0
    if bachelor:
        border = _bachelor_order(region, rays, bachelor)
        gadget = build_parity_gadget(len(border), "odd" if len(reps) % 2 else "even")
        n_gadget = len(gadget.vertices)
    qid = {r: n_gadget + i for i, r in enumerate(reps)}  # Z id -> quotient id

    # final numbering: ordinary quotient edges by their smallest Z edge id
    # (loops can never be matched, so they are dropped), then the bachelor
    # edges in border order, each wired to its gadget attachment, then the
    # gadget's own edges
    qedges: List[Edge] = []
    qtails: List[int] = []  # quotient edge id -> its u end
    qedge_of = [-1] * len(erep)  # smallest edge id of an orbit -> quotient edge id

    def add_edge(e, u, v):
        qedge_of[e] = len(qedges)
        qedges.append(Edge(len(qedges), u, v))
        qtails.append(u)

    for e, rev in kept.items():
        if rev or downs[e] in removed:  # removal is orbit-closed
            continue
        ru, rv = orbit_of[downs[e]][0], orbit_of[ups[e]][0]
        if ru != rv:
            add_edge(e, qid[ru], qid[rv])

    rotation: List[List[Dart]] = []
    if bachelor:
        gm = gadget_multigraph(gadget)
        offset = len(qedges) + len(border)
        rotation = [[2 * offset + d for d in ring] for ring in gm.rotation]
        for att, (e, _) in zip(gadget.attachments, border):
            rotation[att].append(2 * len(qedges) + 1)  # slot 4: the external edge
            add_edge(e, qid[orbit_of[downs[e]][0]], att)
        qedges += [Edge(offset + e.eid, e.u, e.v) for e in gm.edges]

    # Reflections reverse the local rotation sense, so rotations must be read
    # off orbit members lying in consistently-oriented chambers (the sectors
    # cut out by the reflection axes alternate in orientation).
    parity_of = _chamber_parity_fn(region, rays)
    for r in reps:
        members = orbit_of[r]
        # the first member in a positive chamber is the smallest such one;
        # without axes there is one chamber, and it is positive
        src, on_axis = members[0], False
        if rays:
            off_axis = False
            for t in members:  # each member's parity is read once
                par = parity_of(tri[t])
                if par == 0:
                    src = t
                    break
                off_axis = off_axis or par is not None
            else:
                if off_axis:
                    raise EmbeddingError("orbit misses the positively oriented chambers")
                on_axis = True
        qr = qid[r]
        darts = []
        for d in ring(region, src):
            qeid = qedge_of[erep[d >> 1]]
            if qeid < 0:
                continue  # pruned or removed edge, or dropped loop
            if 2 * qeid in darts or 2 * qeid + 1 in darts:
                raise EmbeddingError(f"quotient edge met orbit {tri[r]} twice")
            darts.append(2 * qeid + (qtails[qeid] != qr))
        if on_axis and len(darts) > 1:
            raise EmbeddingError(f"axis orbit {tri[r]} kept {len(darts)} edges")
        rotation.append(darts)

    labels = [f"g{v + 1}" for v in range(n_gadget)]
    labels += ["o(%d,%d,%d)" % tri[r] for r in reps]
    bip = None
    if not bachelor and all(not g.comp for g in G):
        ups = frozenset(qid[r] for r in reps if region.up[r])
        bip = (ups, frozenset(qid.values()) - ups)
    g = PlanarMultigraph(labels, qedges, rotation, bip)
    if bachelor and g.n_vertices % 2:
        raise EmbeddingError("gadget parity failed to even out the vertex count")
    g.assert_valid_embedding()
    return g


def _axis_rays(region, G, act) -> List[Tuple[int, int]]:
    """Primitive directions (both halves) of the reflection axes of G."""
    cx, cy = center2(region)
    tri = region.triangles
    dirs = set()
    for g in G:
        if not _is_transposition(g.perm):
            continue
        for t, s in zip(tri, act[g]):
            p, q = position2(t), position2(tri[s])
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
    # angle_cmp(ray, rel) with each ray's half-plane found once, here
    halves = [(angle_half(ray), ray) for ray in rays]

    def parity_of(t: Triangle):
        if not rays:
            return 0
        p = position2(t)
        rel = (2 * p[0] - cx, 2 * p[1] - cy)
        h = angle_half(rel)
        cnt = 0
        for hr, (ru, rv) in halves:
            if hr != h:
                cnt += hr < h
                continue
            cr = ru * rel[1] - rv * rel[0]
            if cr == 0:
                return None
            cnt += cr > 0
        return cnt % 2

    return parity_of


def _bachelor_order(region, rays, orbits):
    """Bachelor edge orbits in planar order along the chamber boundary.

    Rerouted (reversed) edges have their midpoints on the reflection axes or
    at the center.  The quotient surface is the positively oriented base
    chamber; its boundary runs in along the largest-angle axis ray, through
    the center, and out along the smallest-angle ray.  Every bachelor orbit
    has exactly one representative midpoint on that boundary, and walking it
    gives the cyclic attachment order for the gadget.  An orbit is a pair
    (smallest edge id, ids of the orbit's Z edges), as ``quotient_graph``
    collects them.
    """
    if len(orbits) == 1:
        return orbits
    if not rays:
        raise EmbeddingError("multiple bachelor edges without reflection axes")
    cx, cy = center2(region)
    tri, tails = region.triangles, region.tails  # Z's vertex i is tri[i]
    ray_in, ray_out = rays[-1], rays[0]

    def key(orbit):
        mids = set()
        for eid in orbit[1]:
            pu, pv = position2(tri[tails[2 * eid]]), position2(tri[tails[2 * eid + 1]])
            mids.add((pu[0] + pv[0] - cx, pu[1] + pv[1] - cy))
        if (0, 0) in mids:
            return (1, 0)  # the center sits between the two boundary rays
        on_in = [m for m in mids if primitive_dir(m) == ray_in]
        if on_in:
            return (0, -min(radius2(m) for m in on_in))
        on_out = [m for m in mids if primitive_dir(m) == ray_out]
        if on_out:
            return (2, min(radius2(m) for m in on_out))
        raise EmbeddingError("bachelor midpoint off the chamber boundary")

    return sorted(orbits, key=key)
