"""Golden outputs: sha256 digests of ``ppcount export`` pinned across versions.

``test_outputs_are_deterministic`` compares two runs of one version; these
digests were taken from an earlier version of the program, so a rewrite of
the graph layers (face tracing, quotient construction, flat signing and
orientation) that changes any exported byte fails here.  One more digest
pins the structure of every small quotient (labels, edges, rotation and
bipartition), so a rewrite of ``quotient_graph`` that changes any of them
fails too.  A last digest pins what the elimination kernel computes and
records on every small matrix the matrix route hands it, so a rewrite of
``exactalg._pf_mod`` that changes a pivot, a fill slot or an op fails.
"""

import hashlib
import math
from itertools import product

import pytest

import ppcount.cli as cli
from ppcount import exactalg
from ppcount.exactalg import _pf_mod, _prime
from ppcount.hexgrid import build_hexagon
from ppcount.symmetry import CLASSES, quotient_graph

Z345 = ("--kind", "z", "--dims", "3,4,5")
C3_5 = ("--kind", "quotient", "--class", "3", "--dims", "5,5,5")
C7_4 = ("--kind", "quotient", "--class", "7", "--dims", "4,4,4")
C10_4 = ("--kind", "quotient", "--class", "10", "--dims", "4,4,4")
# classes 2, 4 and 5 carry parity gadgets; class 6 at 3x3x4 removes fixed pairs
C2_332 = ("--kind", "quotient", "--class", "2", "--dims", "3,3,2")
C4_4 = ("--kind", "quotient", "--class", "4", "--dims", "4,4,4")
C5_345 = ("--kind", "quotient", "--class", "5", "--dims", "3,4,5")
C6_334 = ("--kind", "quotient", "--class", "6", "--dims", "3,3,4")
C8_6 = ("--kind", "quotient", "--class", "8", "--dims", "6,6,6")
C9_4 = ("--kind", "quotient", "--class", "9", "--dims", "4,4,4")
# quotients of 8 vertices in three components (6, 1 and 1 vertices)
C8_3 = ("--kind", "quotient", "--class", "8", "--dims", "3,3,3")
C6_113 = ("--kind", "quotient", "--class", "6", "--dims", "1,1,3")

# (graph, --with, --format) -> sha256 of standard output.  Only classes 1, 3,
# 6 and 8 have a sign export: the other quotients carry no bipartition.
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
    (C2_332, "none", "json"): "b244df7a805fc19ab3829ec5b7a0b84a78b0196a7018da4f7f067fed52c2d671",
    (C2_332, "none", "dot"): "942905014c238c59745633827c0723e5133241d84f4a7bf7ddfb892b5cfd5432",
    (C2_332, "orientation", "json"): "784e6d2d01a1fa68d3fde27ffcad87b547e9cf8aef818bdbb3e6b1885f200fb1",
    (C2_332, "orientation", "dot"): "2ba820df9ef6aa4c6e75b68ec6ec3028d7158c9cf9ce91c77fed103e73d17a8f",
    (C4_4, "none", "json"): "08a88e75713d452e04b8eb8717aa814d10cf59680d86a59d2b70341ab8bb261d",
    (C4_4, "none", "dot"): "9a9365c61649152d978310b47215cb1670f9a39ec15213335e8bb762947d1314",
    (C4_4, "orientation", "json"): "cd5f14d59e1c0e49ee9e1d7c63023a25d53c322fa83f67925a6e6deef42c7216",
    (C4_4, "orientation", "dot"): "9aa74a4684bd4978fb1f8597f410387bde54a69eaccd1c13ae88400f40b59105",
    (C5_345, "none", "json"): "494a572a6d61f851ce49b199373f0c72873a035ee64cb58f9918c0ef560dcdd6",
    (C5_345, "none", "dot"): "cd3f7cd6d031aa6d86efcfae17862594241c2d2400b850cd050f696815d7cddf",
    (C5_345, "orientation", "json"): "d4809b15ae7fead37aa6598b0db27b78dc314e4729c8f12581e395ef33978bf2",
    (C5_345, "orientation", "dot"): "05f5406c473c8c9da9b721fb9fc29e494be67a6aee938bcd2f1865de686a7563",
    (C6_334, "signs", "json"): "8082f48206f74dbda5b837d8f434787aeace0406afe5ed30806c632431652386",
    (C6_334, "signs", "dot"): "ab5b16f13ccf6e764e49e5cf48e77bbf8d2e1ea60c41e26de6a6ae20d643c8e6",
    (C6_334, "orientation", "json"): "6b5dca78b628cb00a96d4fb0edbe062d57bb3fdef20fc7b97f251a42b4c6048b",
    (C6_334, "orientation", "dot"): "d5e259d4d45f839158bdc5056e5002872264e757d4860baf841186fbd60782d3",
    (C6_334, "none", "json"): "412832150be23bcbf3dd5ff9e097c29828cb62df5c57da9555db92e2cc330cdd",
    (C6_334, "none", "dot"): "36af09b769a5dbc7c4bc85fd2c097b9d53bf2b0890a792e04cca4c3600b122c2",
    (C8_6, "signs", "json"): "6ace224c25071799aaa4c67fd565cef4dc3e93413d9717356edd347059a31819",
    (C8_6, "signs", "dot"): "ac9e70470fda4506d811951a611e9c1779ff4fa723c01ae0aa5a5bac2883f865",
    (C8_6, "orientation", "json"): "a851532927a8a765358fb9fe1e4ca6c061b5831cb5dc0eb62b5052764cb345b7",
    (C8_6, "orientation", "dot"): "dbb027e9878f976481031ef5c4d591cab41c3985a8c816ca65f9d7feec417489",
    (C8_6, "none", "json"): "9b67ec62275365c176a82b9781e06a12851888cb4d94d266094062907c136090",
    (C8_6, "none", "dot"): "528c5bb9823600d38c247334159e6fb096f37e1619de3100cbb8751eda45a3cd",
    (C9_4, "none", "json"): "52ee0fd21fdfad971b9cd81d66508bd791dc71a3c7dc1d63cf96c6b23798689c",
    (C9_4, "none", "dot"): "23c8cf000bb22ddeba239f48f608c70a70378bef8e6c11edb3c5354fa4509e4d",
    (C9_4, "orientation", "json"): "6da7181e344c6ca82eb47cae907c28b871a2d3e6fc94264296bac77ecf89fb98",
    (C9_4, "orientation", "dot"): "4ca615be3e8cdd15249efeae6570a7604a975b25aa9387358dac8278b1420e07",
    (C8_3, "signs", "json"): "a3b3506d8eb0a551d776e4a55a5b99bc725ffccdefeb893a01a845ca6784d971",
    (C8_3, "signs", "dot"): "6f0d5b085ed7f975dc0be59bc019bcaca37ddce772abe0288865134a5de8e3dd",
    (C8_3, "orientation", "json"): "e0f0c6b42788c5c93f275193fd720a560dd00dcd7aec829a1ece6af3d9182250",
    (C8_3, "orientation", "dot"): "a96379564ec16b3914b730ec9df2c4fe7e18de2378a9f0ef75f12cb69eab0b37",
    (C6_113, "orientation", "json"): "5fdf2eecdae3c9e3ee620b8088da8a3acd28e8bab6a59b93828e0c1b0050d952",
    (C6_113, "orientation", "dot"): "7e462ac6bf61580b307504bdea335b3c801e77c12126ecd3d4f232912aa12dc6",
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


# sha256 over the structure of every quotient of classes 2-10 on the boxes
# with sides <= 8 that the class fixes (1017 quotients)
QUOTIENTS = "437ba5833c890ffcf9c9a4c0db79a54f170f9e85dc89379cd429626c7dc7e24b"


def test_quotients_match_golden_digest():
    h = hashlib.sha256()
    for cid in range(2, 11):
        for dims in product(range(9), repeat=3):
            if CLASSES[cid].box_fixed(dims):
                q = quotient_graph(build_hexagon(*dims), CLASSES[cid])
                bip = None if q.bipartition is None else tuple(sorted(part) for part in q.bipartition)
                h.update(repr((cid, dims, q.labels, q.edges, q.rotation, bip)).encode())
    assert h.hexdigest() == QUOTIENTS


# sha256 over repr((pf, program)) of a recording ``_pf_mod`` on every
# integer matrix the matrix route eliminates for class 1's Z and the
# quotients of classes 2-10 on the boxes with sides <= 4 that the class
# fixes (273 matrices), mod _prime(0) and mod the product of _prime(0..3)
PROGRAMS = {
    1: "b91e317cb71bd2c4c1eebc805272320cf0713d3ac641743c08223872d4086dc9",
    4: "655d248ac249296a6c495406bd7d387a4d61320485c3407e12562d5a571f834d",
}


@pytest.fixture(scope="module")
def kernel_matrices():
    """(n, pairs, vals) of each integer matrix that ``_integer_pf`` gets."""
    seen = []
    honest = exactalg._integer_pf

    def integer_pf(n, pairs, vals, primes, record=False):
        seen.append((n, pairs, vals))
        return honest(n, pairs, vals, primes, record)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactalg, "_integer_pf", integer_pf)
        for cid in range(1, 11):
            for dims in product(range(5), repeat=3):
                if CLASSES[cid].box_fixed(dims):
                    cli.matrix_count(cid, dims)
    return seen


@pytest.mark.parametrize("primes, digest", PROGRAMS.items(), ids=[f"{k}-primes" for k in PROGRAMS])
def test_programs_match_golden_digest(primes, digest, kernel_matrices):
    assert len(kernel_matrices) == 273
    m = math.prod(map(_prime, range(primes)))
    h = hashlib.sha256()
    for n, pairs, vals in kernel_matrices:
        h.update(repr(_pf_mod(n, pairs, [a % m for a in vals], m, record=True)).encode())
    assert h.hexdigest() == digest
