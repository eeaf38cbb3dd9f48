import json
import sys
import time

import pytest

import ppcount.cli as cli
from ppcount.exactalg import QPoly
from ppcount.formulas import n_class, q_box_product
from ppcount.oracle import count_symmetric


@pytest.fixture(autouse=True)
def restore_int_str_digit_limit():
    """main lifts the interpreter's int -> str digit limit for the process;
    put it back after each test so that no other test runs without it."""
    if not hasattr(sys, "get_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    yield
    sys.set_int_max_str_digits(limit)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_count_matrix(capsys):
    code, out, _ = run(capsys, "count", "--class", "1", "--dims", "2,2,2", "--method", "matrix")
    assert code == 0 and out.strip() == "20"


def test_count_formula_class9(capsys):
    code, out, _ = run(capsys, "count", "--class", "9", "--dims", "2,2,2", "--method", "formula")
    assert code == 0 and out.strip() == "1"


def test_count_q_polynomial(capsys):
    code, out, _ = run(capsys, "count", "--class", "1", "--dims", "1,1,1", "--q", "--method", "matrix")
    assert code == 0 and out.strip() == "1 + q"


def test_count_q_default_method_is_the_formula(capsys):
    code, out, err = run(capsys, "count", "--class", "1", "--dims", "2,2,2", "--q")
    assert (code, err) == (0, "")
    assert out.strip() == "1 + q + 3*q^2 + 3*q^3 + 4*q^4 + 3*q^5 + 3*q^6 + q^7 + q^8"
    _, by_matrix, _ = run(capsys, "count", "--class", "1", "--dims", "2,2,2", "--q", "--method", "matrix")
    assert out == by_matrix


def test_count_json(capsys):
    code, out, _ = run(capsys, "count", "--class", "3", "--dims", "2,2,2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "class": 3,
        "dims": [2, 2, 2],
        "method": "formula",
        "q": False,
        "value": "5",
    }


def test_count_usage_errors(capsys):
    code, _, err = run(capsys, "count", "--class", "11", "--dims", "1,1,1")
    assert code == 2 and "class" in err
    code, _, err = run(capsys, "count", "--class", "2", "--dims", "1,1,1", "--q")
    assert code == 2
    code, _, err = run(capsys, "count", "--class", "2", "--dims", "1,1", "--method", "formula")
    assert code == 2
    code, _, err = run(capsys, "count", "--class", "2", "--dims", "1,1,1", "--method", "ratios")
    assert code == 2
    code, out, _ = run(capsys, "count", "--class", "1", "--dims", "2,2,2", "--method", "ratios")
    assert code == 2 and out == ""


@pytest.mark.parametrize("method", ["formula", "matrix", "oracle"])
def test_count_box_not_fixed_by_class_is_zero(method, capsys):
    code, out, err = run(capsys, "count", "--class", "2", "--dims", "1,2,3", "--method", method)
    assert (code, out.strip(), err) == (0, "0", "")


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--class", "11", "--dims", "1,1,1"),
        ("count", "--class", "2", "--dims", "1,1,1", "--q"),
        ("export", "--kind", "quotient", "--class", "2", "--dims", "1,2,3"),
        ("export", "--kind", "quotient", "--class", "11", "--dims", "1,1,1"),
        ("export", "--kind", "z", "--class", "99", "--dims", "1,1,1"),
        ("verify", "--max-side", "1", "--classes", "1,x"),
        ("export", "--kind", "z", "--dims", "1,1,1", "-o", "."),
        # argparse's own refusals
        ("count", "--class", "1", "--dims", "2,2,2", "--method", "ratios"),
        ("count", "--dims", "2,2,2"),
        ("count", "--class", "x", "--dims", "1,1,1"),
        ("table", "--max-a", "1", "--format", "xml"),
        ("export", "--kind", "y", "--dims", "1,1,1"),
        (),
        ("verify", "--max-side", "1", "--classes", ""),
    ],
)
def test_unanswerable_requests_exit_2_with_an_error_line(argv, capsys):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [("--help",), ("count", "--help")])
def test_help_prints_usage_and_returns_0(argv, capsys):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.startswith("usage: ppcount")


@pytest.mark.parametrize(
    "argv, text",
    [
        ((), "error: the following arguments are required: command\n"),
        (("frobnicate",), "error: argument command: invalid choice: 'frobnicate' "),
    ],
    ids=["no-command", "frobnicate"],
)
def test_argparse_refusals_name_the_command_argument(argv, text, capsys):
    code, _, err = run(capsys, *argv)
    assert code == 2 and err.startswith(text)
    assert cli.build_parser().format_usage() == "usage: ppcount [-h] {count,verify,table,export} ...\n"


@pytest.mark.parametrize("class_id", [0, 11])
@pytest.mark.parametrize(
    "route",
    [n_class, lambda class_id, dims: count_symmetric(class_id, *dims), cli.matrix_count],
    ids=["formula", "oracle", "matrix"],
)
def test_every_route_refuses_a_class_outside_1_to_10(route, class_id):
    with pytest.raises(ValueError, match=f"^unknown symmetry class {class_id}$"):
        route(class_id, (1, 1, 1))


@pytest.mark.parametrize("q_flag", [False, True])
def test_compute_count_refuses_an_unknown_method(q_flag):
    with pytest.raises(cli.UsageError, match="unknown method 'ratios'"):
        cli.compute_count(1, (1, 1, 1), "ratios", q_flag)


def test_compute_count_refuses_q_past_class_1():
    with pytest.raises(cli.UsageError, match="class 1"):
        cli.compute_count(2, (1, 1, 1), "formula", q_flag=True)


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--class", "1", "--dims", "5,5,5", "--method", "oracle"),
        ("count", "--class", "1", "--dims", "5,5,5", "--method", "oracle", "--q"),
        ("verify", "--max-side", "5"),
        ("verify", "--max-side", "5", "--classes", "10"),
        ("verify", "--max-side", "120"),
        ("count", "--class", "1", "--dims", "120,120,120", "--method", "oracle"),
    ],
)
def test_oracle_over_budget_exits_2_at_once(argv, capsys):
    side = argv[argv.index("--dims") + 1].split(",")[0] if "--dims" in argv else argv[2]
    t0 = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and out == ""
    assert err.startswith(f"error: box {side}x{side}x{side} ")
    assert len(err.splitlines()) == 1 and len(err) < 200


@pytest.mark.parametrize("dims", ["1,1,19999999", "1,1,500001"])
def test_q_oracle_over_its_degree_cap_exits_2_at_once(dims, capsys):
    # 1x1x19999999 holds exactly the partition budget's 2 * 10^7 partitions
    t0 = time.perf_counter()
    code, out, err = run(capsys, "count", "--class", "1", "--dims", dims, "--q", "--method", "oracle")
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error: box {}x{}x{} has q-degree ".format(*dims.split(",")))
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("dims", ["1,1,500000", "4,5,5", "1,2000,1"])
def test_q_oracle_answers_up_to_its_degree_cap(dims, capsys):
    box = tuple(map(int, dims.split(",")))
    # a 1 x 1 x c or 1 x b x 1 box holds one partition of each volume <= bc
    want = q_box_product(*box) if box == (4, 5, 5) else QPoly((1,) * (box[1] * box[2] + 1))
    code, out, err = run(capsys, "count", "--class", "1", "--dims", dims, "--q", "--method", "oracle")
    assert code == 0 and err == ""
    assert out == f"{want}\n"


def test_count_prints_answers_past_the_int_str_digit_limit(capsys):
    # 4908 digits, past CPython's default limit of 4300 on int -> str
    expected = n_class(1, (120,) * 3)
    code, out, err = run(capsys, "count", "--class", "1", "--dims", "120,120,120")
    assert (code, err) == (0, "")
    assert out.strip() == str(expected)
    code, out, _ = run(capsys, "count", "--class", "1", "--dims", "120,120,120", "--json")
    assert code == 0 and json.loads(out)["value"] == str(expected)


def test_q_matrix_route_over_budget_exits_2_at_once(capsys):
    t0 = time.perf_counter()
    code, out, err = run(capsys, "count", "--class", "1", "--dims", "60,60,60", "--q", "--method", "matrix")
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error: box 60x60x60 ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("dims", [(10, 10, 10), (1, 1, 599), (0, 1, 1200), (1, 1, 999), (0, 1, 2000)])
def test_q_budget_admits_the_measured_boxes(dims):
    cli.check_q_budget(*dims)


@pytest.mark.parametrize("dims", [(10, 10, 11), (1, 1, 1000), (0, 1, 2001)])
def test_q_budget_refuses_past_either_limit(dims):
    with pytest.raises(cli.SizeLimitError):
        cli.check_q_budget(*dims)


@pytest.mark.parametrize(
    "class_id, dims",
    [(1, "200,200,200"), (10, "32,32,32"), (1, "1,1,1350"), (5, "30,30,31"), (2, "1000,1000,1")],
)
def test_matrix_route_over_budget_exits_2_at_once(class_id, dims, capsys):
    t0 = time.perf_counter()
    code, out, err = run(capsys, "count", "--class", str(class_id), "--dims", dims, "--method", "matrix")
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and out == ""
    assert err.startswith(f"error: box {dims.replace(',', 'x')} ") and len(err.splitlines()) == 1


def test_matrix_budget_comes_after_the_box_is_found_not_fixed(capsys):
    code, out, _ = run(capsys, "count", "--class", "2", "--dims", "1,2,3000", "--method", "matrix")
    assert (code, out) == (0, "0\n")


def test_matrix_budget_admits_the_largest_box_of_class_10():
    # 30^3 has dimension 2700, the limit; 32^3 is class 10's next box
    assert 3 * 30 * 30 == cli.MAX_MATRIX_DIMENSION
    assert cli.matrix_count(10, (30, 30, 30)) == n_class(10, (30, 30, 30))


@pytest.mark.parametrize("kind", ["z", "quotient"])
def test_export_over_the_matrix_budget_exits_2_at_once(kind, capsys):
    # Z of 0x1x100000 would index about 2e10 triangle slots
    t0 = time.perf_counter()
    code, out, err = run(capsys, "export", "--kind", kind, "--class", "1", "--dims", "0,1,100000")
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error: box 0x1x100000 ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("kind", ["z", "quotient"])
def test_export_refuses_a_class_outside_1_to_10_on_either_kind(kind, capsys):
    code, out, err = run(capsys, "export", "--kind", kind, "--class", "99", "--dims", "1,1,1")
    assert (code, out, err) == (2, "", "error: class must be 1..10, got 99\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--class", "1", "--dims", "1000,1000,1000"),
        ("count", "--class", "3", "--dims", "283,283,283"),
        ("count", "--class", "2", "--dims", "1000,1000,1000"),
        ("count", "--class", "1", "--dims", "16,16,16", "--q"),
        ("count", "--class", "1", "--dims", "1,1,1000000", "--q"),
        ("count", "--class", "5", "--dims", "1000,1000,1000"),
        ("count", "--class", "9", "--dims", "2000,2000,2000"),
        ("count", "--class", "6", "--dims", "2000,2000,2000"),  # a tall box: a * min(a, b) factors
        ("table", "--max-a", "1000"),
        ("table", "--max-a", "1000000000"),
    ],
)
def test_formula_routes_over_budget_exit_2_at_once(argv, capsys):
    t0 = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and out == ""
    what = f"table --max-a {argv[2]}" if argv[0] == "table" else "box " + argv[4].replace(",", "x")
    assert err.startswith(f"error: {what} is over the formula routes' budget")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "class_id, dims, route",
    [
        (1, (120, 120, 120), "formula"),
        (1, (0, 1, 2700), "formula"),
        (3, (282, 282, 282), "formula"),
        (2, (1, 1, 3000), "formula"),
        (6, (1, 1, 100000), "formula"),
        (1, (282, 282, 282), "formula"),
        (2, (282, 282, 282), "formula"),
        (4, (282, 282, 282), "formula"),
        (6, (282, 282, 282), "formula"),
        (1, (1, 44000, 44000), "formula"),
        (2, (1000, 1000, 1), "formula"),
        (6, (1000, 1000, 2), "formula"),
        (1, (10, 10, 10), "q"),
        (1, (1, 1, 999), "q"),
        (1, (1, 2, 500), "q"),
        (1, (15, 15, 15), "q"),
    ],
)
def test_formula_budget_admits_the_measured_boxes(class_id, dims, route):
    cli.check_formula_budget([(class_id, dims)], route)


def test_class_6_on_a_low_box_answers_within_a_second(capsys):
    # 1000 x 1000 x 2 multiplies about 2000 factors over its one height step
    t0 = time.perf_counter()
    code, out, err = run(capsys, "count", "--class", "6", "--dims", "1000,1000,2")
    assert time.perf_counter() - t0 < 1.0
    assert (code, err) == (0, "")
    assert out == f"{n_class(6, (1000, 1000, 2))}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("--class", "2", "--dims", "1000,1001,1000"),  # not fixed
        ("--class", "5", "--dims", "1001,1001,1001"),  # odd volume
        ("--class", "6", "--dims", "1000,1000,1001"),  # odd height
        ("--class", "7", "--dims", "1000,1000,1001"),
        ("--class", "8", "--dims", "1001,1001,1001"),  # odd cube
        ("--class", "9", "--dims", "1001,1001,1001"),
        ("--class", "10", "--dims", "1001,1001,1001"),
    ],
)
def test_formula_budget_counts_zero_boxes_at_once(argv, capsys):
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "count", *argv)
    assert time.perf_counter() - t0 < 1.0
    assert (code, out) == (0, "0\n")


def test_table_budget_admits_54_and_refuses_55():
    assert len(cli.table_rows(54)) == 540
    with pytest.raises(cli.SizeLimitError):
        cli.table_rows(55)


@pytest.mark.parametrize("class_id", [2, 6])
@pytest.mark.parametrize("c", [0, 1, 2, 3, 4, 99, 100, 1348, 1349])
def test_thin_box_formula_equals_matrix_up_to_the_matrix_budget(class_id, c):
    # 1 x 1 x 1349 has matrix dimension 2699, the last under the budget
    dims = (1, 1, c)
    assert cli.compute_count(class_id, dims, "formula") == cli.matrix_count(class_id, dims)


def test_verify_small(capsys):
    code, out, err = run(capsys, "verify", "--max-side", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "class,a,b,c,method,value,micros"
    assert len(lines) > 100
    assert "all methods agree" in err


def test_verify_single_class(capsys):
    code, out, _ = run(capsys, "verify", "--max-side", "3", "--classes", "1")
    assert code == 0
    rows = [l.split(",") for l in out.strip().splitlines()[1:]]
    assert len(rows) == 64 * 3  # 4^3 boxes, three methods each
    assert {r[4] for r in rows} == {"formula", "matrix", "oracle"}


def test_verify_vacuous(capsys):
    code, out, _ = run(capsys, "verify", "--max-side", "0")
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert all(r.split(",")[1:4] == ["0", "0", "0"] for r in rows)


def test_verify_detects_mismatch(monkeypatch, capsys):
    real = cli.compute_count

    def crooked(class_id, dims, method, q_flag=False):
        value = real(class_id, dims, method, q_flag)
        if method == "oracle" and dims == (1, 1, 1) and class_id == 1:
            return value + 1
        return value

    monkeypatch.setattr(cli, "compute_count", crooked)
    code, _, err = run(capsys, "verify", "--max-side", "1", "--classes", "1")
    assert code == 1
    # the class, the box and each route's answer
    assert err == "verify: MISMATCH class 1 box 1x1x1: formula 2, matrix 2, oracle 3\n"


def test_verify_checks_a_repeated_class_once(capsys):
    code, out, _ = run(capsys, "verify", "--max-side", "1", "--classes", "3,3")
    assert code == 0
    rows = [r.rsplit(",", 1)[0] for r in out.strip().splitlines()[1:]]  # micros cut
    assert len(rows) == len(set(rows)) == 2 * 3  # 0^3 and 1^3, three methods each
    assert {r.split(",")[0] for r in rows} == {"3"}


def test_verify_bad_class_list(capsys):
    code, _, _ = run(capsys, "verify", "--max-side", "1", "--classes", "1,99")
    assert code == 2


def test_table(capsys):
    code, out, _ = run(capsys, "table", "--max-a", "2", "--format", "csv")
    assert code == 0
    rows = out.strip().splitlines()
    assert "1,1,1,1,2" in rows
    assert "3,2,2,2,5" in rows
    assert "5,2,2,2,4" in rows


def test_table_markdown(capsys):
    code, out, _ = run(capsys, "table", "--max-a", "1")
    assert code == 0
    assert out.startswith("| class | box | count |")


def test_export_z_json(capsys):
    code, out, _ = run(capsys, "export", "--kind", "z", "--dims", "1,1,1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data["vertices"]) == 6
    assert len(data["edges"]) == 6
    assert set(data["rotation"]) == set(data["vertices"])


def test_export_z_2_1_1(capsys):
    code, out, _ = run(capsys, "export", "--kind", "z", "--dims", "2,1,1", "--format", "json")
    assert code == 0
    assert len(json.loads(out)["vertices"]) == 10


def test_export_quotient_dot_has_doubled_edge(capsys):
    code, out, _ = run(
        capsys, "export", "--kind", "quotient", "--class", "3", "--dims", "2,2,2",
        "--format", "dot",
    )
    assert code == 0
    lines = [l for l in out.splitlines() if "--" in l]
    assert len(lines) == 10
    assert len(set(lines)) == 9  # one doubled edge prints twice


def test_export_with_signs_and_orientation(capsys):
    code, out, _ = run(
        capsys, "export", "--kind", "z", "--dims", "1,1,1", "--format", "json",
        "--with", "signs",
    )
    assert code == 0
    assert all("sign" in e for e in json.loads(out)["edges"])
    code, out, _ = run(
        capsys, "export", "--kind", "quotient", "--class", "5", "--dims", "2,2,2",
        "--format", "json", "--with", "orientation",
    )
    assert code == 0
    assert all("head" in e for e in json.loads(out)["edges"])


def test_export_signs_with_an_isolated_vertex(capsys):
    # the class-6 quotient at 1x1x1 has two isolated vertices beside an edge
    code, out, _ = run(
        capsys, "export", "--kind", "quotient", "--class", "6", "--dims", "1,1,1",
        "--format", "json", "--with", "signs",
    )
    assert code == 0
    assert [e["sign"] for e in json.loads(out)["edges"]] == [1]


def test_export_invalid_combination(capsys):
    code, _, _ = run(
        capsys, "export", "--kind", "quotient", "--class", "5", "--dims", "2,2,2",
        "--with", "signs",
    )
    assert code == 2


def test_export_to_file(tmp_path, capsys):
    target = tmp_path / "graph.json"
    code, out, _ = run(
        capsys, "export", "--kind", "z", "--dims", "1,1,1", "-o", str(target)
    )
    assert code == 0 and out == ""
    assert len(json.loads(target.read_text())["edges"]) == 6


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--class", "1", "--dims", "2,2,2", "--method", "matrix"),
        ("table", "--max-a", "2", "--format", "csv"),
        ("export", "--kind", "quotient", "--class", "3", "--dims", "2,2,2", "--format", "dot"),
        ("count", "--class", "1", "--dims", "2,2,1", "--q", "--method", "matrix"),
    ],
)
def test_outputs_are_deterministic(argv, capsys):
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_unknown_subcommand_exits_2(capsys):
    assert cli.main(["frobnicate"]) == 2
