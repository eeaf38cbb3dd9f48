"""Command-line front end: counting, verification, tables, graph export.

Exit codes: 0 success / full agreement, 1 verification mismatch, 2 usage
error (argparse's refusals included) or a request over the size budget of
the oracle, the matrix route, the q matrix route or the formula routes
(formula, q formula and table); each 2 prints one ``error:`` line on stderr
and nothing on stdout.  All outputs are deterministic except the timing
column of the verification CSV.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional, Tuple

from .exactalg import QPoly
from .formulas import formula_work, n_class, q_box_product, q_product_work
from .hexgrid import PlanarMultigraph, build_graph, build_hexagon
from .kasteleyn import flat_orientation, flat_signing, weighted_matching_sum
from .oracle import SizeLimitError, check_budget, count_symmetric, q_sum
from .symmetry import CLASSES, quotient_graph, symmetry_class


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises argparse's refusals as UsageError, so that main prints them on
    its one ``error:`` line; subparsers take the same class."""

    def error(self, message):
        raise UsageError(message)


def parse_dims(text: str) -> Tuple[int, int, int]:
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise UsageError(f"bad dims {text!r}; expected a,b,c") from None
    if len(parts) != 3 or any(p < 0 for p in parts):
        raise UsageError(f"bad dims {text!r}; expected three nonnegative sides")
    return parts


# The matrix route's budget on ab + bc + ca, the dimension of class 1's
# matrix.  Measured in-process on a 2-vCPU VM, CPython 3.11: class 1 at
# 30x30x30 (2700, 71 primes) 1.8 s, 36x36x36 (3888) 4.9 s; the thin boxes
# 1x1x1349 0.20 s and 0x1x2700 0.13 s, each under 27 MiB peak RSS (Z's
# triangle index has at most four entries per triangle).  Graph export
# takes the same budget: Z has 2(ab + bc + ca) vertices.
MAX_MATRIX_DIMENSION = 2700


def check_matrix_budget(dims, route: str) -> None:
    """Raise SizeLimitError, before Z is built, when the box's dimension
    ab + bc + ca is over MAX_MATRIX_DIMENSION."""
    a, b, c = dims
    if a * b + b * c + c * a > MAX_MATRIX_DIMENSION:
        raise SizeLimitError(f"box {a}x{b}x{c} has matrix dimension {a * b + b * c + c * a}; "
                             f"the {route} takes at most {MAX_MATRIX_DIMENSION}")


# The formula routes' budgets, on work estimated from the sides alone
# (``formulas.formula_work`` and ``q_product_work``) and summed over a
# table's rows.  Measured on a 2-vCPU VM, CPython 3.11, in-process, best of
# 3 processes: by formula, 282x282x282, the largest cube admitted,
# 0.55-0.6 s for class 1, the slowest class, 0.23 s for class 2,
# 0.13-0.15 s for classes 3, 4 and 6 and under 0.06 s for the others
# (class 1 at 500x500x500 took 5.2 s); 1x44000x44000 0.2 s; class 2 on
# 1000x1000x1 0.003 s and class 6 on 1000x1000x2 0.003 s; table --max-a 54,
# the largest admitted, 0.06 s.  Over Z[q], 15x15x15 0.4 s, 1x99x99 0.8 s
# and 1x1x500000 0.8 s at 65 MiB peak RSS (20x20x20 took 2.3 s).
MAX_FORMULA_BITS = 800_000
MAX_Q_PRODUCT_STEPS = 1_000_000

# route -> (work on one (class, box), the limit on its sum, the limit in words)
FORMULA_BUDGETS = {
    "formula": (formula_work, MAX_FORMULA_BITS**2, f"products of {MAX_FORMULA_BITS} bits"),
    "q": (lambda _, dims: q_product_work(dims), MAX_Q_PRODUCT_STEPS, f"{MAX_Q_PRODUCT_STEPS} coefficient steps"),
}


def check_formula_budget(cells, route: str = "formula", what: Optional[str] = None) -> None:
    """Raise SizeLimitError, before any big-integer work, when the route's
    work over the (class, box) cells sums past its budget; the sum stops at
    the first cell past it, however many cells follow.  The error names
    ``what``, or else the box it stopped at."""
    work_on, limit, budget = FORMULA_BUDGETS[route]
    work = 0
    for class_id, dims in cells:
        work += work_on(class_id, dims)
        if work > limit:
            what = what or "box {}x{}x{}".format(*dims)
            raise SizeLimitError(f"{what} is over the formula routes' budget of {budget}")


def matrix_count(class_id: int, dims) -> int:
    """Count by determinant/Pfaffian of the class's quotient of Z, or of Z
    itself for class 1, whose group is trivial, as on the q route; a box the
    class does not fix holds no invariant partition, so it counts 0, as by
    formula and oracle.  Raises SizeLimitError, before Z is built, for a
    fixed box over the matrix budget (``check_matrix_budget``)."""
    cls = symmetry_class(class_id)
    if not cls.box_fixed(dims):
        return 0
    check_matrix_budget(dims, "matrix route")
    region = build_hexagon(*dims)
    return weighted_matching_sum(quotient_graph(region, cls) if cls.generators else build_graph(region))


# The q matrix route's budget.  It evaluates a determinant of dimension
# ab + bc + ca at floor(abc/2) + 1 points (the answer's degree is abc, and
# the half-turn gives the other half) per prime, and proves its degree
# window by one min-cost assignment on the matrix's own rows, with a greedy
# start on the tight arcs.  Measured in-process on a 2-vCPU VM, CPython
# 3.11, best of 2: 10x10x10 (degree 1000, dimension 300) 1.7-2.4 s, the
# slowest box in the budget; at the dimension limit 1x1x999 (dimension
# 1999) 0.64-0.72 s at 33 MiB peak RSS and 0x1x2000 0.07 s at 22 MiB; and
# on the degree limit's two-row strip 1x2x500 0.7-0.9 s, 2x3x166
# 0.8-1.0 s.  With two assignments on the doubled skew block, 1x1x599
# took 2.7-3.6 s where one on the rows took 0.5-0.6 s.
MAX_Q_DEGREE = 1000
MAX_Q_DIMENSION = 2000


def check_q_budget(a: int, b: int, c: int) -> None:
    """Raise SizeLimitError, before Z is built, when the box is over the
    q matrix route's budget."""
    degree, dimension = a * b * c, a * b + b * c + c * a
    if degree > MAX_Q_DEGREE or dimension > MAX_Q_DIMENSION:
        raise SizeLimitError(
            f"box {a}x{b}x{c} has q-degree {degree} and matrix dimension "
            f"{dimension}; the q matrix route takes at most {MAX_Q_DEGREE} "
            f"and {MAX_Q_DIMENSION}"
        )


def q_matrix_count(dims) -> QPoly:
    """Normalized q-weighted determinant: coefficient of q^k counts volume-k
    partitions; the weight of the empty partition is divided out.  The
    half-turn (complementation, the group of class 5) goes with it, so that
    the determinant may prove its mirror and evaluate half its window: it
    reverses Z's sorted vertex order (``build_graph``), and a wrong map
    would only fail that proof.  Raises SizeLimitError for a box over the
    route's budget (``check_q_budget``)."""
    check_q_budget(*dims)
    g = build_graph(build_hexagon(*dims), q_weights=True)
    d = weighted_matching_sum(g, range(g.n_vertices - 1, -1, -1))
    if isinstance(d, int):  # no edges carry a q-weight
        return QPoly.const(d)
    return d.shift(-d.low_degree())


METHODS = ("formula", "matrix", "oracle")


def compute_count(class_id: int, dims, method: str, q_flag: bool = False):
    """The count of one method, or with q_flag its volume generating
    function (class 1 only); each route refuses past its own budget."""
    if class_id not in CLASSES:
        raise UsageError(f"class must be 1..10, got {class_id}")
    if method not in METHODS:
        raise UsageError(f"unknown method {method!r}")
    if q_flag and class_id != 1:
        raise UsageError("q-enumeration is only supported for class 1")
    if method == "formula":
        check_formula_budget([(class_id, dims)], "q" if q_flag else "formula")
        return q_box_product(*dims) if q_flag else n_class(class_id, dims)
    if method == "matrix":
        return q_matrix_count(dims) if q_flag else matrix_count(class_id, dims)
    return q_sum(*dims) if q_flag else count_symmetric(class_id, *dims)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def boxes_for_class(class_id: int, max_side: int):
    out = []
    for a in range(max_side + 1):
        for b in range(max_side + 1):
            for c in range(max_side + 1):
                if CLASSES[class_id].box_fixed((a, b, c)):
                    out.append((a, b, c))
    return out


def run_verify(max_side: int, classes=None) -> Tuple[str, List[str]]:
    """Formula, matrix and oracle on every fixed (class, box) with sides up
    to max_side, each class once: the CSV of their answers and times, and a
    line naming the class, the box and each route's answer for every cell
    where they differ.  Raises SizeLimitError before any work when a box is
    over the oracle's budget.  Checking the cube of side max_side is enough:
    every class fixes it, and the number of partitions grows with each side."""
    check_budget(max_side, max_side, max_side)
    rows, mismatches = ["class,a,b,c,method,value,micros"], []
    for class_id in sorted(set(classes or CLASSES)):
        for dims in boxes_for_class(class_id, max_side):
            values = {}
            for method in METHODS:
                t0 = time.perf_counter()
                values[method] = compute_count(class_id, dims, method)
                dt = int((time.perf_counter() - t0) * 1e6)
                rows.append("{},{},{},{},{},{},{}".format(class_id, *dims, method, values[method], dt))
            if len(set(values.values())) != 1:
                answers = ", ".join(f"{method} {value}" for method, value in values.items())
                mismatches.append("class {} box {}x{}x{}: {}".format(class_id, *dims, answers))
    return "\n".join(rows) + "\n", mismatches


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

TABLE_PATTERNS = {
    1: lambda k: (k, k, k),
    2: lambda k: (k, k, k),
    3: lambda k: (k, k, k),
    4: lambda k: (k, k, k),
    5: lambda k: (2 * k, 2 * k, 2 * k),
    6: lambda k: (k, k, 2 * k),
    7: lambda k: (2 * k, 2 * k, 2 * k),
    8: lambda k: (2 * k, 2 * k, 2 * k),
    9: lambda k: (2 * k, 2 * k, 2 * k),
    10: lambda k: (2 * k, 2 * k, 2 * k),
}


def table_rows(max_a: int):
    """The rows (class, box, count) for k = 1..max_a; raises SizeLimitError,
    before any count, when they sum past the formula routes' budget."""
    cells = ((class_id, TABLE_PATTERNS[class_id](k)) for k in range(1, max_a + 1) for class_id in CLASSES)
    check_formula_budget(cells, what=f"table --max-a {max_a}")
    rows = []
    for class_id in sorted(CLASSES):
        for k in range(1, max_a + 1):
            dims = TABLE_PATTERNS[class_id](k)
            rows.append((class_id, dims, n_class(class_id, dims)))
    return rows


def format_table(rows, fmt: str) -> str:
    if fmt == "csv":
        out = ["class,a,b,c,value"]
        for class_id, (a, b, c), v in rows:
            out.append(f"{class_id},{a},{b},{c},{v}")
        return "\n".join(out) + "\n"
    out = ["| class | box | count |", "| --- | --- | --- |"]
    for class_id, dims, v in rows:
        out.append(f"| {class_id} | {dims[0]}x{dims[1]}x{dims[2]} | {v} |")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def graph_to_json(g: PlanarMultigraph, signs=None, heads=None) -> str:
    """Vertices are named by their labels, and listed sorted by name."""
    import json  # only export and count --json load it

    name = [str(x) for x in g.labels]
    edges = []
    for e in sorted(g.edges, key=lambda e: e.eid):
        rec = {"u": name[e.u], "v": name[e.v], "w": str(e.weight), "id": e.eid}
        if signs is not None:
            rec["sign"] = signs[e.eid]
        if heads is not None:
            rec["head"] = name[heads[e.eid]]
        edges.append(rec)
    data = {
        "vertices": sorted(name),
        "edges": edges,
        "rotation": {name[v]: [d >> 1 for d in ring] for v, ring in enumerate(g.rotation)},
    }
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def graph_to_dot(g: PlanarMultigraph, signs=None, heads=None) -> str:
    name = [str(x) for x in g.labels]
    lines = ["graph G {"]
    for e in sorted(g.edges, key=lambda e: e.eid):
        attrs = [f'label="{e.weight}"']
        if signs is not None:
            attrs.append(f'sign="{signs[e.eid]}"')
        if heads is not None:
            attrs.append(f'head="{name[heads[e.eid]]}"')
        lines.append(f'  "{name[e.u]}" -- "{name[e.v]}" [{", ".join(attrs)}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def run_export(kind: str, class_id: Optional[int], dims, fmt: str, attrs: str) -> str:
    """The graph as JSON or DOT text; raises UsageError for a class outside
    1..10 on either kind, and SizeLimitError, before Z is built, for a box
    over the matrix budget."""
    if class_id is not None and class_id not in CLASSES:
        raise UsageError(f"class must be 1..10, got {class_id}")
    check_matrix_budget(dims, "export")
    region = build_hexagon(*dims)
    if kind == "z":
        g = build_graph(region)
    else:  # "quotient", the parser's only other choice
        if class_id is None:
            raise UsageError("--class is required for quotient export")
        if not CLASSES[class_id].box_fixed(dims):
            raise UsageError(f"box {dims} is not fixed by class {class_id}")
        g = quotient_graph(region, CLASSES[class_id])
    signs = heads = None
    if attrs == "signs":
        if g.bipartition is None:
            raise UsageError("sign export needs a bipartite graph")
        signs = flat_signing(g).signs
    elif attrs == "orientation":
        if g.n_vertices % 2:
            raise UsageError("orientation export needs an even vertex count")
        heads = flat_orientation(g).heads
    return graph_to_json(g, signs, heads) if fmt == "json" else graph_to_dot(g, signs, heads)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="ppcount",
        description="Count plane partitions in the ten symmetry classes by "
        "closed formulas, Kasteleyn determinants/Pfaffians, or brute force.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("count", help="count one class in one box")
    pc.add_argument("--class", dest="class_id", type=int, required=True)
    pc.add_argument("--dims", required=True, help="a,b,c")
    pc.add_argument("--method", choices=METHODS, default="formula")
    pc.add_argument("--q", action="store_true", help="q-enumeration (class 1 only)")
    pc.add_argument("--json", action="store_true")

    pv = sub.add_parser("verify", help="cross-check formula vs matrix vs oracle")
    pv.add_argument("--max-side", type=int, required=True)
    pv.add_argument("--classes", default=None, help="comma-separated class ids")

    pt = sub.add_parser("table", help="counts for the standard box patterns")
    pt.add_argument("--max-a", type=int, required=True)
    pt.add_argument("--format", choices=("markdown", "csv"), default="markdown")

    pe = sub.add_parser("export", help="export a matching graph")
    pe.add_argument("--kind", choices=("z", "quotient"), required=True)
    pe.add_argument("--class", dest="class_id", type=int, default=None)
    pe.add_argument("--dims", required=True)
    pe.add_argument("--format", choices=("dot", "json"), default="json")
    pe.add_argument(
        "--with", dest="attrs", choices=("signs", "orientation", "none"), default="none"
    )
    pe.add_argument("-o", "--output", default=None)
    return p


def main(argv=None) -> int:
    # Exact answers run past CPython's default 4300-digit limit on int -> str
    # (class 1 at 120^3 has 4908 digits); printing them is the program's job.
    if hasattr(sys, "set_int_max_str_digits"):  # absent before 3.10.7
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        if args.command == "count":
            dims = parse_dims(args.dims)
            value = compute_count(args.class_id, dims, args.method, args.q)
            if args.json:
                import json

                value = json.dumps({"class": args.class_id, "dims": list(dims), "method": args.method,
                                    "q": args.q, "value": str(value)}, sort_keys=True)
            print(value)
            return 0
        if args.command == "verify":
            classes = None
            if args.classes is not None:
                try:
                    classes = [int(x) for x in args.classes.split(",")]
                except ValueError:
                    raise UsageError(f"bad class list {args.classes!r}") from None
                if any(c not in CLASSES for c in classes):
                    raise UsageError(f"bad class list {args.classes!r}")
            if args.max_side < 0:
                raise UsageError("--max-side must be nonnegative")
            csv, mismatches = run_verify(args.max_side, classes)
            sys.stdout.write(csv)
            for line in mismatches:
                print(f"verify: MISMATCH {line}", file=sys.stderr)
            if mismatches:
                return 1
            print("verify: all methods agree", file=sys.stderr)
            return 0
        if args.command == "table":
            if args.max_a < 1:
                raise UsageError("--max-a must be at least 1")
            sys.stdout.write(format_table(table_rows(args.max_a), args.format))
            return 0
        if args.command == "export":
            text = run_export(
                args.kind, args.class_id, parse_dims(args.dims), args.format, args.attrs
            )
            if args.output:
                try:
                    with open(args.output, "w") as fh:
                        fh.write(text)
                except OSError as e:
                    raise UsageError(f"cannot write {args.output}: {e.strerror}") from None
            else:
                sys.stdout.write(text)
        return 0
    except (UsageError, SizeLimitError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except SystemExit:  # --help, after printing usage; argparse's errors raise UsageError
        return 0


if __name__ == "__main__":
    sys.exit(main())
