"""Tests of the benchmark's own helpers.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import itertools
import json
from pathlib import Path

import pytest

import workload as wl
from ppcount.cli import boxes_for_class, q_matrix_count
from ppcount.hexgrid import build_hexagon
from ppcount.kasteleyn import weighted_matching_sum
from ppcount.oracle import q_sum
from ppcount.symmetry import CLASSES, quotient_graph

SIDES_3 = list(itertools.product(range(4), repeat=3))


@pytest.mark.parametrize("dims", SIDES_3)
def test_macmahon_equals_q_sum(dims):
    assert wl.macmahon_coeffs(*dims) == list(q_sum(*dims).coeffs)


@pytest.mark.parametrize(
    "values, p, want",
    [
        ([5], 50, 5),
        ([5], 95, 5),
        ([3, 1, 2], 50, 2),
        ([1, 2, 3, 4], 50, 2.5),
        ([4, 3, 2, 1], 0, 1),
        ([4, 3, 2, 1], 100, 4),
        (list(range(1, 101)), 95, 95.05),
        (list(range(100, 0, -1)), 50, 50.5),
        (list(range(1, 21)), 95, 19.05),
        ([0.5, 0.25], 100, 0.5),
    ],
)
def test_percentile_interpolates_between_order_statistics(values, p, want):
    assert wl.percentile(values, p) == pytest.approx(want)


def test_percentile_of_nothing_raises():
    with pytest.raises(ValueError):
        wl.percentile([], 50)


@pytest.mark.parametrize("class_id", sorted(CLASSES))
def test_replay_equals_weighted_matching_sum(class_id):
    for dims in boxes_for_class(class_id, 3):
        want = weighted_matching_sum(quotient_graph(build_hexagon(*dims), CLASSES[class_id]))
        assert wl.replay_matrix(wl.Trace(), class_id, dims) == want, dims


@pytest.mark.parametrize("dims", [(0, 0, 0), (1, 1, 1), (1, 2, 3), (2, 2, 2), (3, 2, 1)])
def test_q_replay_equals_q_matrix_count(dims):
    assert wl.replay_q_matrix(wl.Trace(), dims) == q_matrix_count(dims)


def test_seed_permutes_cells_reproducibly():
    cells = wl.build_cells("verify-sweep", 3)
    assert cells == wl.build_cells("verify-sweep", 3)
    assert cells != wl.build_cells("verify-sweep", 4)
    assert sorted(cells) == sorted(wl.WORKLOADS["verify-sweep"])
    assert len(cells) == 340


def test_passes_report_every_metric_named_in_benchmark_json():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    cells = [(cid, dims, wl.VERIFY) for cid in (1, 3, 9) for dims in boxes_for_class(cid, 2)]
    cells += [(1, (2, 2, 2), "matrix"), (1, (1, 2, 2), "q-matrix")]
    expected = [wl.reference(cell) for cell in cells]
    tally = wl.Tally()
    cell_s, scales, answers = wl.untraced_pass(cells, expected, tally)
    traced = [wl.traced_pass(cells, expected, answers, tally)]
    assert (tally.attempted, tally.failed) == (2 * len(cells), 0)
    solve_s = [sum(t * k for t, k in zip(cell_s, scales))]
    metrics = wl.layer_metrics(traced, solve_s)
    assert sorted(metrics) == sorted(m["name"] for m in spec["per_layer"])
    assert metrics["trace.coverage"][0] > 0.5
    assert len(wl.cell_latencies_ms([(cell_s, scales)] * 3)) == len(cells)


def test_raised_or_wrong_answers_are_failed_cells():
    # class 2 does not fix a 1x2x3 box: the matrix route raises
    cells = [(2, (1, 2, 3), "matrix")] + [(1, (1, 1, 1), "matrix")] * 3
    tally = wl.Tally()
    _, _, answers = wl.untraced_pass(cells, [0, 2, 3, wl.NO_REFERENCE], tally)
    assert answers == [None, 2, 2, 2]
    assert (tally.attempted, tally.failed) == (4, 3)
