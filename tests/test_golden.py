"""Golden outputs: sha256 digests of ``ppcount export`` pinned across versions.

``test_outputs_are_deterministic`` compares two runs of one version; these
digests were taken from an earlier version of the program, so a rewrite of
the graph layers (face tracing, quotient construction, flat signing and
orientation) that changes any exported byte fails here.
"""

import hashlib

import pytest

import ppcount.cli as cli

Z345 = ("--kind", "z", "--dims", "3,4,5")
C3_5 = ("--kind", "quotient", "--class", "3", "--dims", "5,5,5")
C7_4 = ("--kind", "quotient", "--class", "7", "--dims", "4,4,4")
C10_4 = ("--kind", "quotient", "--class", "10", "--dims", "4,4,4")

# (graph, --with, --format) -> sha256 of standard output.  Classes 7 and 10
# have no sign export: their quotients are not bipartite.
GOLDEN = {
    (Z345, "signs", "json"): "d65bdb356b0829e9c9a7a83e9d00a19893b5f57896cfe648c3dea5b371e18dcb",
    (Z345, "signs", "dot"): "341c57953f73b48b51f172eeb00638badf2bd39fec7d9d43dc5825f3521c417a",
    (Z345, "orientation", "json"): "3b0975d6d2dedf4171bfda4a85abeb3f6cffbcb96027773edcfe94e7881c330b",
    (Z345, "orientation", "dot"): "73fd4966e109e403de09876ef210174c2954b89d93dfc08527b3d4ade4039cd8",
    (Z345, "none", "json"): "d72e071f3c6ad313676540a5fb080a0da2807f96f82978013c58c742301c85f2",
    (Z345, "none", "dot"): "066f79c9599f134100155dcc840fee74a49ddc41af3cdcc2c5d34a7c89ce7489",
    (C3_5, "signs", "json"): "5962e95dba9f8819b6763a67a3bc8c103a4054e572241885d584732e0bd42558",
    (C3_5, "signs", "dot"): "c108b8f9410f89782171082dc8d4018f499d33b536b8c612127e7cbc65e66331",
    (C3_5, "orientation", "json"): "60bba17ca34d10fb4671e18cd5ee84f80c23790396f9f1aff71af667f485e8f9",
    (C3_5, "orientation", "dot"): "05016b1fd36cbd3b1cfc063723a0974630e3f86c69bdd25a09bc92daef6fe84c",
    (C3_5, "none", "json"): "db13f4199c731f0509b968d300cfc230d7c858e7111062b3d0cf0460e03204c6",
    (C3_5, "none", "dot"): "308f15f07ea4a89e51dea489dbcee238cae882830a05c294ef100df05ef28bc2",
    (C7_4, "orientation", "json"): "8640dd7582010e85f6f98de24f7ae0b4cbd09070f802d7dc26849b5b5956316f",
    (C7_4, "orientation", "dot"): "4e98cbaef11560c92df729c57169e4eaf0292ace18e572d93385bb8af554697e",
    (C7_4, "none", "json"): "bf769086478d888cae32520745765c7d18feff67acd95075767aa33db25409aa",
    (C7_4, "none", "dot"): "4aac1c1186ac7f44d6ad7a2ec17825989519bae3ffafe5945f0ff4deed9181ae",
    (C10_4, "orientation", "json"): "89c81b62969d53b93682a1118d6a3f17da6a5e404295303bbdc2aa52046c384d",
    (C10_4, "orientation", "dot"): "0c1b202a1cdc5271a8cbbae854eb7a8c57e491214fc4cb43e5129acd113b33cd",
    (C10_4, "none", "json"): "37f0f87f0fc2576111defb7e5a8bb98acef64958827e90092894553a304fe503",
    (C10_4, "none", "dot"): "8a502bb7c24a5dcab124f86aa8bfcf10a207dc7bd0c0b6ae5e68fb992948a9b2",
}


@pytest.mark.parametrize(
    "graph, attrs, fmt, digest",
    [(*key, digest) for key, digest in GOLDEN.items()],
    ids=[f"{' '.join(g[1::2])}-{a}-{f}" for g, a, f in GOLDEN],
)
def test_export_matches_golden_digest(graph, attrs, fmt, digest, capsys):
    code = cli.main(["export", *graph, "--format", fmt, "--with", attrs])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
