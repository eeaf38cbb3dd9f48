import ppcount

# Brute-force references that live in tests/reference.py, and helpers that
# were removed for having no caller; none belongs to the package's API.
NOT_EXPORTED = {
    "AXES",
    "check_flat_orientation",
    "count_perfect_matchings",
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
