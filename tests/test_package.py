import os
import subprocess
import sys
from pathlib import Path

import ppcount

SRC = Path(__file__).resolve().parents[1] / "src"

# Brute-force references that live in tests/reference.py, and helpers that
# were removed for having no caller; none belongs to the package's API.
NOT_EXPORTED = {
    "AXES",
    "RatioCheck",
    "act_partition",
    "act_triangle",
    "binomial",
    "check_flat_orientation",
    "count_perfect_matchings",
    "count_symmetric_naive",
    "enumerate_matchings",
    "hafnian",
    "hexagon_flip_moves",
    "in_region",
    "integer_sqrt",
    "is_plane_partition",
    "matching_to_partition",
    "n_class_via_ratios",
    "neighbors",
    "orientation",
    "partition_json",
    "perm_sign",
    "permanent",
    "ratio_identities",
    "ratio_steps",
    "symmetric_matrix",
    "unsigned_bipartite_matrix",
    "volume",
    "weighted_matching_sum_brute",
}


def test_star_import_gives_exactly_the_public_api():
    namespace = {}
    exec("from ppcount import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(ppcount.__all__)
    assert not NOT_EXPORTED & set(ppcount.__all__)


def test_cold_import_of_the_cli_loads_neither_dataclasses_nor_inspect():
    # dataclasses pulls in inspect, ast, dis and tokenize, a dozen modules
    # that every cold ``ppcount count`` would load and compile for nothing;
    # no route uses fractions (which loads decimal), and json serves only
    # export and count --json
    code = (
        "import sys; before = set(sys.modules); import ppcount.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    added = set(run.stdout.split())
    assert "ppcount.cli" in added
    assert not {"dataclasses", "inspect", "fractions", "decimal", "json"} & added


def test_python_dash_m_runs_the_cli():
    # the README's ``python -m ppcount`` goes through __main__.py, which the
    # console script does not
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def run(*args):
        return subprocess.run([sys.executable, "-m", "ppcount", *args], env=env, capture_output=True, text=True)

    ok = run("count", "--class", "3", "--dims", "2,2,2")
    assert (ok.returncode, ok.stdout) == (0, "5\n")
    assert run("count", "--class", "11", "--dims", "2,2,2").returncode == 2
