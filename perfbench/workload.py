"""Workload cells, reference checks, and the traced replay of the ppcount benchmark.

A cell is one ``(class, dims, method)`` question.  Untraced passes ask it
through the public entry point ``ppcount.cli.compute_count``; the traced
pass replays the same route through each module's public functions and
times every call from outside the program, so no ppcount code is touched.

Run one workload with ``perfbench/run.py``; ``perfbench/worker.py`` is the
process that imports this module.
"""

from __future__ import annotations

import gc
import math
import random
import time
from collections import Counter
from statistics import median

from ppcount.cli import boxes_for_class, compute_count
from ppcount.exactalg import QPoly, det, pfaffian_abs
from ppcount.formulas import n_class
from ppcount.hexgrid import build_graph, build_hexagon, q_weight_graph
from ppcount.kasteleyn import bipartite_matrix, flat_orientation, flat_signing, skew_matrix
from ppcount.oracle import count_symmetric
from ppcount.symmetry import CLASSES, quotient_graph

VERIFY = "verify"  # a cell answered by formula, matrix and oracle, which must agree
VERIFY_METHODS = ("formula", "matrix", "oracle")


def _cube(n):
    return (n, n, n)


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "matrix-elim": [
        (1, _cube(6), "matrix"), (1, _cube(8), "matrix"), (1, _cube(10), "matrix"),
        (2, _cube(6), "matrix"), (2, _cube(8), "matrix"),
        (5, _cube(6), "matrix"), (5, _cube(8), "matrix"),
        (7, _cube(10), "matrix"), (6, _cube(10), "matrix"),
        (3, _cube(12), "matrix"), (4, _cube(12), "matrix"), (9, _cube(12), "matrix"),
    ],
    "quotient-heavy": [
        (cid, _cube(n), "matrix") for cid in (8, 10) for n in (6, 8, 10, 12, 14)
    ],
    "q-volume": [
        (1, dims, "q-matrix") for dims in (_cube(3), _cube(4), _cube(5), (3, 4, 5))
    ],
    # 4x4x4 is left out for run length only: its ten oracle enumerations
    # alone take about half a minute.
    "verify-sweep": [
        (cid, dims, VERIFY)
        for cid in sorted(CLASSES)
        for dims in boxes_for_class(cid, 4)
        if dims != _cube(4)
    ],
}


def build_cells(workload, seed):
    """The workload's cells in the order the seed picks."""
    cells = list(WORKLOADS[workload])
    random.Random(seed).shuffle(cells)
    return cells


# ---------------------------------------------------------------------------
# reference answers
# ---------------------------------------------------------------------------


def macmahon_coeffs(a, b, c):
    """Coefficients of MacMahon's box product
    prod_{i,j,k} (1 - q^(i+j+k-1)) / (1 - q^(i+j+k-2)), in plain integer lists."""
    net = Counter()
    for i in range(1, a + 1):
        for j in range(1, b + 1):
            for k in range(1, c + 1):
                net[i + j + k - 1] += 1
                net[i + j + k - 2] -= 1
    poly = [1]
    for m, e in net.items():  # multiply by the numerator factors first
        for _ in range(e):
            out = poly + [0] * m
            for i, x in enumerate(poly):
                out[i + m] -= x
            poly = out
    for m, e in net.items():  # then divide out the denominators exactly
        for _ in range(-e):
            if len(poly) <= m:
                raise ArithmeticError(f"1 - q^{m} does not divide the box product")
            quot = [0] * (len(poly) - m)
            for i in range(len(quot)):
                quot[i] = poly[i] + (quot[i - m] if i >= m else 0)
            # the top m coefficients of quot * (1 - q^m) are -quot[i - m]
            if any(poly[i] + quot[i - m] for i in range(len(quot), len(poly))):
                raise ArithmeticError(f"1 - q^{m} does not divide the box product")
            poly = quot
    return poly


NO_REFERENCE = object()  # the reference itself raised: no answer can pass


def reference(cell):
    """What a correct answer to the cell must equal (None for verify cells,
    which are checked by three-way agreement)."""
    class_id, dims, method = cell
    try:
        if method == "matrix":
            return n_class(class_id, dims)
        if method == "q-matrix":
            return macmahon_coeffs(*dims), n_class(1, dims)
    except Exception:
        return NO_REFERENCE
    return None


def is_correct(cell, answer, expected):
    if expected is NO_REFERENCE:
        return False
    if cell[2] == VERIFY:
        return len(set(answer)) == 1
    if cell[2] == "q-matrix":
        coeffs, n1 = expected
        return isinstance(answer, QPoly) and list(answer.coeffs) == coeffs and answer.subs(1) == n1
    return answer == expected


def ask(cell):
    """The untraced answer: public entry point calls only."""
    class_id, dims, method = cell
    if method == VERIFY:
        return tuple(compute_count(class_id, dims, m) for m in VERIFY_METHODS)
    if method == "q-matrix":
        return compute_count(class_id, dims, "matrix", q_flag=True)
    return compute_count(class_id, dims, method)


# ---------------------------------------------------------------------------
# percentiles and the untraced pass
# ---------------------------------------------------------------------------


def percentile(values, p):
    """The p-th percentile, interpolating linearly between the two nearest
    order statistics (numpy's default method).  On a few cells this averages
    two neighbouring cells, which halves the noise of a single one."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class Tally:
    """Attempted and failed cells, across every pass of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok):
        self.attempted += 1
        self.failed += not ok


# A virtual machine that shares its cores with other tenants can change
# speed by 1.5x for minutes at a time (seen on a 2-vCPU Xeon VM), and a
# run's wall times move with it.  A fixed piece of pure-Python work, timed
# between cells, measures that speed; every reported time is scaled to the
# speed at which the probe takes PROBE_REF_S.  The probe runs no ppcount
# code, so any change to ppcount shows in full.
PROBE_REF_S = 0.018
PROBE_EVERY_S = 0.5
_PROBE_MOD = (1 << 127) - 1


def speed_probe():
    """Seconds taken by fixed integer work, with the garbage collector off so
    that the size of ppcount's heap cannot slow it."""
    gc_on = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = x = 0
        for i in range(80000):
            acc = (acc * 1000003 + i) % _PROBE_MOD
            x += i * i % 7
        return time.perf_counter() - t0
    finally:
        if gc_on:
            gc.enable()


class Pacer:
    """Speed probes between the cells of one pass: before the first cell,
    before any cell that starts PROBE_EVERY_S or more after the last probe,
    and after the last cell."""

    def __init__(self):
        self.probes = []  # (index of the cell that follows, seconds)
        self._last = None

    def before(self, i):
        if self._last is None or time.perf_counter() - self._last >= PROBE_EVERY_S:
            self.probes.append((i, speed_probe()))
            self._last = time.perf_counter()

    def close(self, n):
        self.probes.append((n, speed_probe()))

    def cell_scales(self, n):
        """Per cell, the factor that turns its seconds into reference
        seconds: from the median of the (up to) three probes before it and
        three after it, which a single stalled probe cannot move."""
        secs = [s for _, s in self.probes]
        out, j = [], 0
        for i in range(n):
            while self.probes[j + 1][0] <= i:
                j += 1
            out.append(PROBE_REF_S / median(secs[max(0, j - 2):j + 4]))
        return out

    def pass_scale(self):
        return PROBE_REF_S / median(s for _, s in self.probes)


def untraced_pass(cells, expected, tally):
    """Ask every cell once.  Returns each cell's wall time, the factors that
    turn them into reference seconds, and the answers."""
    pacer = Pacer()
    cell_s, answers = [], []
    for i, (cell, want) in enumerate(zip(cells, expected)):
        pacer.before(i)
        t0 = time.perf_counter()
        try:
            answer = ask(cell)
        except Exception:  # a raised call is a failed cell, not a failed run
            answer = None
        cell_s.append(time.perf_counter() - t0)
        tally.record(answer is not None and is_correct(cell, answer, want))
        answers.append(answer)
    pacer.close(len(cells))
    return cell_s, pacer.cell_scales(len(cells)), answers


def cell_latencies_ms(untraced):
    """Per cell, its median latency in reference ms over the untraced passes
    ``(cell_s, scales)``; the cells keep one order in every pass."""
    per_cell = zip(*([t * k * 1e3 for t, k in zip(*p)] for p in untraced))
    return [median(samples) for samples in per_cell]


# ---------------------------------------------------------------------------
# the traced replay
# ---------------------------------------------------------------------------


class Trace:
    """Per-layer busy time (ns) and size counters of one traced pass."""

    def __init__(self):
        self.ns = Counter()
        self.counts = Counter()
        self.outside_ns = 0  # separate build_graph calls, kept out of the pass
        self.oracle_boxes = set()

    def call(self, span, fn, *args):
        t0 = time.perf_counter_ns()
        out = fn(*args)
        self.ns[span] += time.perf_counter_ns() - t0
        return out


def _result_bits(value):
    if isinstance(value, QPoly):
        return max((abs(c).bit_length() for c in value.coeffs), default=0)
    return abs(value).bit_length()


def _eliminate(tr, calls, fn, m):
    n = m.nrows
    out = tr.call("exactalg.elim_s", fn, m)
    tr.counts[calls] += 1
    tr.counts["exactalg.result_bits"] += _result_bits(out)
    tr.counts["exactalg.dense_updates"] += (n - 1) * n * (2 * n - 1) // 6
    if isinstance(out, QPoly):
        tr.counts["exactalg.q_degree"] += max(out.degree(), 0)
    return out


def _matrix_sizes(tr, m):
    tr.counts["kasteleyn.matrix_dim"] += m.nrows
    tr.counts["kasteleyn.matrix_nnz"] += sum(1 for row in m.entries for x in row if x)


def replay_matrix(tr, class_id, dims):
    """``compute_count(class_id, dims, "matrix")`` redone through public
    calls: quotient_graph, then weighted_matching_sum's component loop."""
    def quotient():
        return quotient_graph(build_hexagon(*dims), CLASSES[class_id])

    g = tr.call("symmetry.quotient_s", quotient)
    t0 = time.perf_counter_ns()
    z = build_graph(build_hexagon(*dims))
    build_ns = time.perf_counter_ns() - t0
    tr.outside_ns += build_ns
    tr.ns["hexgrid.build_s"] += build_ns
    tr.counts["hexgrid.vertices"] += z.n_vertices
    tr.counts["hexgrid.edges"] += z.n_edges
    tr.counts["symmetry.vertices"] += g.n_vertices
    tr.counts["symmetry.edges"] += g.n_edges

    comps = tr.call("hexgrid.split_s", g.components)
    tr.counts["symmetry.components"] += len(comps)
    total = 1
    for comp in comps:
        if len(comp) % 2:
            return 0
        sub = tr.call("hexgrid.split_s", g.subgraph, comp)
        if sub.n_edges == 0:
            return 0
        tr.counts["kasteleyn.faces"] += sub.n_edges - sub.n_vertices + 2
        if g.bipartition is not None:
            sg = tr.call("kasteleyn.flat_s", flat_signing, sub)
            m = tr.call("kasteleyn.assemble_s", bipartite_matrix, sg)
            if m is None:
                return 0
            _matrix_sizes(tr, m)
            total *= _eliminate(tr, "exactalg.det_calls", det, m)
        else:
            og = tr.call("kasteleyn.flat_s", flat_orientation, sub)
            m = tr.call("kasteleyn.assemble_s", skew_matrix, og)
            _matrix_sizes(tr, m)
            total *= _eliminate(tr, "exactalg.pf_calls", pfaffian_abs, m)
    return total


def replay_q_matrix(tr, dims):
    """``compute_count(1, dims, "matrix", q_flag=True)`` redone through
    public calls: q_weight_graph, flat_signing, bipartite_matrix, det."""
    g = tr.call("hexgrid.build_s", lambda: q_weight_graph(build_hexagon(*dims)))
    tr.counts["hexgrid.vertices"] += g.n_vertices
    tr.counts["hexgrid.edges"] += g.n_edges
    if g.n_vertices == 0:
        return QPoly.const(1)
    tr.counts["kasteleyn.faces"] += g.n_edges - g.n_vertices + 2
    sg = tr.call("kasteleyn.flat_s", flat_signing, g)
    m = tr.call("kasteleyn.assemble_s", bipartite_matrix, sg)
    if m is None:
        return QPoly()
    _matrix_sizes(tr, m)
    d = _eliminate(tr, "exactalg.det_calls", det, m)
    if isinstance(d, int):
        d = QPoly.const(d)
    if d.is_zero():
        return d
    return d.shift(-d.low_degree()).sign_normalized()


def replay_oracle(tr, class_id, dims):
    found = tr.call("oracle.enum_s", count_symmetric, class_id, *dims)
    tr.counts["oracle.partitions"] += n_class(1, dims)
    tr.counts["oracle.found"] += found
    tr.oracle_boxes.add(dims)
    return found


def replay(tr, cell):
    class_id, dims, method = cell
    if method == "matrix":
        return replay_matrix(tr, class_id, dims)
    if method == "q-matrix":
        return replay_q_matrix(tr, dims)
    return (
        tr.call("formulas.eval_s", n_class, class_id, dims),
        replay_matrix(tr, class_id, dims),
        replay_oracle(tr, class_id, dims),
    )


def traced_pass(cells, expected, untraced_answers, tally):
    """Replay every cell with spans; a replay that raises, is wrong, or
    differs from the untraced answer counts as a failed cell.  Returns the
    pass time in ns (separate build_graph calls and probes excluded), the
    trace, and the pass's speed scale."""
    pacer = Pacer()
    tr = Trace()
    pass_ns = 0
    for i, (cell, want, untraced) in enumerate(zip(cells, expected, untraced_answers)):
        pacer.before(i)
        t0 = time.perf_counter_ns()
        try:
            answer = replay(tr, cell)
        except Exception:
            answer = None
        pass_ns += time.perf_counter_ns() - t0
        tally.record(answer is not None and answer == untraced and is_correct(cell, answer, want))
    pacer.close(len(cells))
    tr.counts["oracle.distinct_boxes"] = len(tr.oracle_boxes)
    return pass_ns - tr.outside_ns, tr, pacer.pass_scale()


SPANS = (
    "exactalg.elim_s",
    "symmetry.quotient_s",
    "hexgrid.build_s",
    "hexgrid.split_s",
    "kasteleyn.flat_s",
    "kasteleyn.assemble_s",
    "oracle.enum_s",
    "formulas.eval_s",
)
COUNTS = (
    "exactalg.det_calls",
    "exactalg.pf_calls",
    "exactalg.result_bits",
    "exactalg.dense_updates",
    "exactalg.q_degree",
    "symmetry.vertices",
    "symmetry.edges",
    "symmetry.components",
    "hexgrid.vertices",
    "hexgrid.edges",
    "kasteleyn.faces",
    "kasteleyn.matrix_dim",
    "kasteleyn.matrix_nnz",
    "oracle.partitions",
    "oracle.found",
    "oracle.distinct_boxes",
)


def layer_shares(pass_ns, tr):
    """Each layer's self time as a share of the traced pass.

    ``symmetry.quotient_s`` includes building Z, so the symmetry layer's
    self time is the quotient span minus the separately timed build; the
    hexgrid layer gets that build plus the component split.
    """
    ns = tr.ns
    shares = {
        "exactalg.share": ns["exactalg.elim_s"],
        "symmetry.share": ns["symmetry.quotient_s"] - tr.outside_ns,
        "hexgrid.share": ns["hexgrid.build_s"] + ns["hexgrid.split_s"],
        "kasteleyn.share": ns["kasteleyn.flat_s"] + ns["kasteleyn.assemble_s"],
        "oracle.share": ns["oracle.enum_s"],
        "formulas.share": ns["formulas.eval_s"],
    }
    return {k: v / pass_ns for k, v in shares.items()}


def layer_metrics(traced, untraced_s):
    """Per-layer metrics from the traced passes ``(pass_ns, trace, scale)``:
    times are medians over the passes in reference seconds, counts come from
    one pass (they repeat exactly).  ``untraced_s`` holds the untraced pass
    times in reference seconds."""
    out = {}
    for span in SPANS:
        out[span] = (median(tr.ns[span] / 1e9 * k for _, tr, k in traced), "s")
    counts = traced[-1][1].counts
    for name in COUNTS:
        unit = "bits" if name == "exactalg.result_bits" else "count"
        out[name] = (counts[name], unit)
    parts = counts["oracle.partitions"]
    out["oracle.yield"] = (counts["oracle.found"] / parts if parts else 0.0, "ratio")
    shares = [layer_shares(p, tr) for p, tr, _ in traced]
    for name in shares[0]:
        out[name] = (median(s[name] for s in shares), "ratio")
    out["trace.coverage"] = (median(sum(s.values()) for s in shares), "ratio")
    traced_s = median(p / 1e9 * k for p, _, k in traced)
    out["trace.overhead_frac"] = (traced_s / median(untraced_s) - 1, "ratio")
    return out
