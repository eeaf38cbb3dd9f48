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
    "check_flat_orientation",
    "count_perfect_matchings",
    "count_symmetric_naive",
    "enumerate_matchings",
    "hafnian",
    "hexagon_flip_moves",
    "integer_sqrt",
    "is_plane_partition",
    "matching_to_partition",
    "neighbors",
    "orientation",
    "partition_json",
    "perm_sign",
    "permanent",
    "symmetric_matrix",
    "unsigned_bipartite_matrix",
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
    # fractions (with decimal) serves only the ratio checks, json only
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
