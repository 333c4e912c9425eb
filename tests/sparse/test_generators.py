"""Synthetic matrix generator tests: exact sizes, determinism, structure."""

import numpy as np
import pytest

from repro.experiments.matrices import ALL_MATRICES, profiling_matrices
from repro.sparse import generators
from repro.sparse.stats import gini
from repro.sparse.tiling import TiledMatrix


class TestUniform:
    def test_exact_nnz_and_shape(self):
        m = generators.uniform_random(200, 300, 5000, seed=1)
        assert m.shape == (200, 300)
        assert m.nnz == 5000

    def test_deterministic(self):
        a = generators.uniform_random(100, 100, 1000, seed=9)
        b = generators.uniform_random(100, 100, 1000, seed=9)
        assert a == b

    def test_different_seeds_differ(self):
        a = generators.uniform_random(100, 100, 1000, seed=1)
        b = generators.uniform_random(100, 100, 1000, seed=2)
        assert a != b

    def test_full_density(self):
        m = generators.uniform_random(10, 10, 100, seed=0)
        assert m.nnz == 100

    def test_zero_nnz(self):
        assert generators.uniform_random(10, 10, 0, seed=0).nnz == 0

    def test_overfull_rejected(self):
        with pytest.raises(ValueError, match="cannot place"):
            generators.uniform_random(4, 4, 17)

    def test_low_imh(self):
        m = generators.uniform_random(1024, 1024, 50_000, seed=3)
        tiled = TiledMatrix(m, 128, 128)
        assert gini(tiled.stats.nnz) < 0.15


class TestRmat:
    def test_shape_is_power_of_two(self):
        m = generators.rmat(scale=9, nnz=4000, seed=4)
        assert m.shape == (512, 512)
        assert m.nnz == 4000

    def test_deterministic(self):
        assert generators.rmat(8, 1000, seed=5) == generators.rmat(8, 1000, seed=5)

    def test_power_law_concentration(self):
        m = generators.rmat(scale=12, nnz=40_000, seed=6)
        degrees = np.sort(m.row_degrees())[::-1]
        top1pct = degrees[: max(1, m.n_rows // 100)].sum()
        assert top1pct > 0.1 * m.nnz  # heavy head

    def test_high_imh_vs_uniform(self):
        r = generators.rmat(scale=12, nnz=40_000, seed=6)
        u = generators.uniform_random(4096, 4096, 40_000, seed=6)
        gr = gini(TiledMatrix(r, 128, 128).stats.nnz)
        gu = gini(TiledMatrix(u, 128, 128).stats.nnz)
        assert gr > gu + 0.2

    def test_symmetrize(self):
        m = generators.rmat(scale=8, nnz=800, seed=7, symmetrize=True)
        assert m == m.transpose()

    def test_invalid_probabilities(self):
        with pytest.raises(ValueError, match="probabilities"):
            generators.rmat(scale=8, nnz=10, a=0.9, b=0.2, c=0.2)

    def test_invalid_scale(self):
        with pytest.raises(ValueError, match="scale"):
            generators.rmat(scale=0, nnz=1)

    def test_draw_in_rounded_cumulant_sliver(self):
        """A draw above the rounded last cumulant still lands in quadrant 3.

        For a=0.55, b=c=0.19 the float cumsum of the four probabilities is
        0.9999999999999999, so the largest double below 1.0 lies past it.
        """
        a, b = 0.55, 0.19
        assert np.cumsum([a, b, b, 1.0 - a - 2 * b])[-1] < 1.0
        top = np.nextafter(1.0, 0.0)

        class Sliver(np.random.Generator):
            """Every draw is the largest double below 1.0."""

            def random(self, size=None, dtype=np.float64, out=None):
                return np.full(size, top)

        m = generators.rmat(4, 1, a=a, b=b, c=b, seed=Sliver(np.random.PCG64(0)))
        # Quadrant 3 at every level: the bottom-right cell.
        assert (m.rows.tolist(), m.cols.tolist()) == ([15], [15])


class TestBanded:
    def test_band_containment(self):
        m = generators.banded(1000, 8000, bandwidth=16, seed=8)
        assert m.nnz == 8000
        offsets = np.abs(m.rows - m.cols)
        # Laplace tail: the vast majority of offsets within a few bandwidths.
        assert np.quantile(offsets, 0.95) <= 16 * 4

    def test_diagonal_tiles_dominate(self):
        m = generators.banded(2048, 20_000, bandwidth=32, seed=9)
        tiled = TiledMatrix(m, 128, 128)
        on_diag = tiled.stats.tile_row == tiled.stats.tile_col
        assert tiled.stats.nnz[on_diag].sum() > 0.5 * m.nnz

    def test_invalid_bandwidth(self):
        with pytest.raises(ValueError, match="bandwidth"):
            generators.banded(10, 5, bandwidth=0)


class TestStencil:
    def test_interior_rows_have_full_pattern(self):
        m = generators.stencil(100, [-10, -1, 0, 1, 10])
        degrees = m.row_degrees()
        assert np.all(degrees[10:90] == 5)

    def test_boundary_clipping(self):
        m = generators.stencil(10, [-1, 0, 1])
        assert m.row_degrees()[0] == 2
        assert m.row_degrees()[9] == 2

    def test_duplicate_offsets_collapse(self):
        a = generators.stencil(10, [0, 1, 1])
        b = generators.stencil(10, [0, 1])
        assert a == b

    def test_invalid_n(self):
        with pytest.raises(ValueError, match="positive"):
            generators.stencil(0, [0])


class TestCommunity:
    def test_exact_nnz(self):
        m = generators.community_blocks(1024, 20_000, 16, seed=10)
        assert m.nnz == 20_000

    def test_diagonal_concentration(self):
        m = generators.community_blocks(1024, 30_000, 16, intra_fraction=0.9, seed=11)
        tiled = TiledMatrix(m, 128, 128)
        near_diag = np.abs(tiled.stats.tile_row - tiled.stats.tile_col) <= 1
        assert tiled.stats.nnz[near_diag].sum() > 0.5 * m.nnz

    def test_invalid_fraction(self):
        with pytest.raises(ValueError, match="intra_fraction"):
            generators.community_blocks(64, 10, 4, intra_fraction=1.5)

    def test_invalid_community_count(self):
        with pytest.raises(ValueError, match="n_communities"):
            generators.community_blocks(64, 10, 0)


class TestDenseBlocks:
    def test_exact_nnz(self):
        m = generators.dense_blocks(512, 30_000, 6, 96, seed=12)
        assert m.nnz == 30_000

    def test_blocks_create_hot_tiles(self):
        m = generators.dense_blocks(2048, 60_000, 4, 256, background_fraction=0.05, seed=13)
        tiled = TiledMatrix(m, 128, 128)
        assert gini(tiled.stats.nnz) > 0.35

    def test_invalid_block_size(self):
        with pytest.raises(ValueError, match="block_size"):
            generators.dense_blocks(64, 10, 2, 128)


class TestMycielskian:
    @pytest.mark.parametrize("order,n", [(2, 2), (3, 5), (4, 11), (5, 23), (12, 3071)])
    def test_vertex_count(self, order, n):
        assert generators.mycielskian(order).n_rows == n

    @pytest.mark.parametrize("order", [2, 3, 4, 5, 8])
    def test_nnz_closed_form(self, order):
        m = generators.mycielskian(order)
        assert m.nnz == generators.mycielskian_nnz(order)

    def test_symmetric_no_diagonal(self):
        m = generators.mycielskian(6)
        assert m == m.transpose()
        assert np.all(m.rows != m.cols)

    def test_m3_is_c5(self):
        # The Mycielskian of K2 is the 5-cycle.
        m = generators.mycielskian(3)
        assert m.n_rows == 5
        assert np.all(m.row_degrees() == 2)

    def test_triangle_free_small(self):
        # Mycielskians are triangle-free: A^3 diagonal is zero.
        m = generators.mycielskian(5)
        a = m.to_dense()
        assert np.trace(a @ a @ a) == 0

    def test_order_helper(self):
        assert generators.mycielskian_order(3071) == 12
        assert generators.mycielskian_order(3072) == 13

    def test_invalid_order(self):
        with pytest.raises(ValueError, match="order"):
            generators.mycielskian(1)


# ----------------------------------------------------------------------
# Bit-identity pins: content digests recorded from the original
# sort-based generators.  A rewrite of the sampling or the canonical
# output path must reproduce every one of them.


def _generator_cases():
    cases = {}
    for s in (0, 1, 2):
        cases[f"uniform-sq-{s}"] = lambda s=s: generators.uniform_random(300, 300, 4000, seed=s)
        cases[f"uniform-wide-{s}"] = lambda s=s: generators.uniform_random(97, 403, 3000, seed=s)
        cases[f"uniform-tall-f64-{s}"] = lambda s=s: generators.uniform_random(
            513, 31, 9000, seed=s, dtype=np.float64
        )
        cases[f"rmat-{s}"] = lambda s=s: generators.rmat(9, 6000, seed=s)
        cases[f"rmat-skew-{s}"] = lambda s=s: generators.rmat(
            10, 8000, a=0.65, b=0.125, c=0.125, seed=s
        )
        cases[f"rmat-sym-{s}"] = lambda s=s: generators.rmat(8, 3000, seed=s, symmetrize=True)
        cases[f"banded-{s}"] = lambda s=s: generators.banded(700, 6000, bandwidth=12, seed=s)
        cases[f"banded-scatter-{s}"] = lambda s=s: generators.banded(
            700, 6000, bandwidth=12, scatter_fraction=0.1, seed=s
        )
        cases[f"community-{s}"] = lambda s=s: generators.community_blocks(800, 9000, 12, seed=s)
        cases[f"dense-{s}"] = lambda s=s: generators.dense_blocks(600, 12000, 5, 64, seed=s)
    cases["uniform-full"] = lambda: generators.uniform_random(10, 10, 100, seed=0)
    cases["uniform-empty"] = lambda: generators.uniform_random(10, 10, 0, seed=0)
    cases["rmat-dense"] = lambda: generators.rmat(5, 500, seed=3)
    cases["stencil"] = lambda: generators.stencil(200, [-7, -1, 0, 1, 7])
    cases["mycielskian"] = lambda: generators.mycielskian(7)
    return cases


GENERATOR_CASES = _generator_cases()

GENERATOR_DIGESTS = {
    "uniform-sq-0": "452b1d05824e5b0142af096db3f045d4079351eaca8fab17498cc34b66e69be6",
    "uniform-wide-0": "4286720a153d3bf0c428d44255c71a8120785707279969d50e53e397274f7411",
    "uniform-tall-f64-0": "81f450e3ab15fb3b0c7b5671b6b9d419fcd58f014cc4d6338b69fe7033440d0c",
    "rmat-0": "32484e790c0caaa445655bd7f68dad7b781ef1816c92c7950ca6ff9799bc157e",
    "rmat-skew-0": "d8646eca44bfd29ae11007ccb6b736ba5cc5d26c3bfb517e39c99afd95eab043",
    "rmat-sym-0": "a4edb4b8a6469ba1a7b621973ba3fcccbe03ae54d4de23a219178872c1b2834b",
    "banded-0": "8019c1f771c4ec2317b269a822f93a86e5d29bf97414d571e57339b5c8f48339",
    "banded-scatter-0": "8ac67ecdb1c84fc40b2869c7674b74e3512bd42fd85e813097501598374fa31a",
    "community-0": "96921a14f0b5d135f4c21ecdad6179099a9933c69987443bd1963067da43107b",
    "dense-0": "5b42f32917b8e50641d2ff9e4e558a5b695a6d5cc23303e90dc8a5a19c0a7dff",
    "uniform-sq-1": "e8ad8f070ba09e198767bfb46fe47243d795b583e728cd8b4d1c010a14335b8c",
    "uniform-wide-1": "b26184c15bc1ef6d4a7600e35a2538cb14b9875c32a674b020cd4531a0d973ed",
    "uniform-tall-f64-1": "c89c85e9fd37cd9378d6091c37481aed221014bfa6de1b8c1a39d188d2fdfa91",
    "rmat-1": "94f2a85fc426e86c9c49003e1b044103c6b8a2f04bbcca49b9c87bde1118c661",
    "rmat-skew-1": "fd5fcdc38f9504ed648e412122ea494a9c0efd515a2a0b1a317790c8a59d805f",
    "rmat-sym-1": "5aad49f1477fab3feb4b545f06853cbfff9ea27e07809821ad9504aee7defaf2",
    "banded-1": "f275ca9a2fd3f6623510d575f9c2fc758866a69ec57ab9114814bffb9ee190ab",
    "banded-scatter-1": "c6825ecb78328b16b281b2c64f906c851ea5b719d081de8d287b720a51daf11e",
    "community-1": "ee668c7a1e694cdc74f950b346e867fe9e23d4279b69dabbc959064256ee7c99",
    "dense-1": "0a768e0be3da13cd8eb7af5cbbc557c5027d0c5d18e8fabdeb9b077583e88af4",
    "uniform-sq-2": "094bcffed5dfdf9fb19884a01cb3b884fcd0a572e2212f0a954d1c4ede489e7c",
    "uniform-wide-2": "77e9ec0574560ac10c69d262b589e5b4e3d5f78ffed1c7e2988b89483db60e16",
    "uniform-tall-f64-2": "e662b4ea29b597f39cf70bb85c70ab59d09b6054884ddb03b813332b6ab088c1",
    "rmat-2": "def48a53bb1b8dd7269da10fbee0bca437f3510afc5dd1a97da9eccc357e80b3",
    "rmat-skew-2": "34b337bad1f8a58134a722de354ff20a84c302ee0cacadb9e135f955fea93448",
    "rmat-sym-2": "57bca6025e24e8939e78b9a34850b5cd3dc05cfa1f810fadc6df5206b9f84f6a",
    "banded-2": "bf61918f9772f29980d226def25ff59f7bccfe135dcd489db62f1010519ac95b",
    "banded-scatter-2": "a2d6a9970cb817185aa15899ea450a563bbe6472428570c55b3d7935e9245866",
    "community-2": "56975b961cec604f32ee4a685e8f81b1a3d37938211d9d5894e8989a55cc880a",
    "dense-2": "c922ff8d708cc33d4465c78dd21bb66db3544760332784ad960580e2b2894096",
    "uniform-full": "59a4cc0ab25b60466c26c842d46c2ff42356d56d563e42c4767193b347ba3a29",
    "uniform-empty": "7e768662cc895ddc38de833899bcaee6403a5f065d3ec72e1ddddcf39bee17b3",
    "rmat-dense": "24126087845dad0028a33c4a9f5258d64593494094b55573cd63f4f02d4c56b9",
    "stencil": "dc5184efb0c84f53729e72e658521ddb99d7b2c5502c63c9652fa586f84bf939",
    "mycielskian": "22193911bfd39b40d876079df24d7651c9246bd63ae606bfa4da0662c34784c7",
}

#: Every ``experiments.matrices`` recipe, plus the calibration matrices.
RECIPE_DIGESTS = {
    "ski": "f45c26859d9813352e9aeb2b90b6af2e61abb758503a3a51eb4be27a47a52e15",
    "pap": "ca79a1d3ed981e31878c2a918c930a02a8b372728e5f49a30d506cf23dda9b8f",
    "del": "668ea5ed501924730575f989d105bc74df6230b5bca4609ce92b266221e6f4f0",
    "dgr": "34af4d274d8af217b181a849647fbec78510cc808ae060f865abbda0bec26bb4",
    "kro": "45f2d3ffcd3568d68eb637a1864314e6c5d7643ad8fb1d85d6a291607add171c",
    "myc": "30fc9a3c6f3a4bd073a2713527c11e5dd5e180619306af14e11652cef43d9aee",
    "pac": "52e53c4c7a0c215f75d79e4512f35672c79fdc28b75394947051313d8d675060",
    "ser": "de758ff0130b27247e51cc3e8902cde8e7578803b819dc0e0b5d1d8bfcaa4a38",
    "pok": "ed6686c45387ab7de433f3caebd68e3c4b52a9b8dbb62b181a7daffd51439eba",
    "wik": "7fd4faee4c1d2271c2f717934a277e7b457b7bc328883222d90131814ee68746",
    "gea": "1238d5c15f92c739be909a4b9e00c68fa7c210c435608d16dc5cc2a3c878073a",
    "mou": "1f5fc61ff6be20a1590c15c8c666658c319dbfc72f985b3a4150115419bdb66a",
    "nd2": "414aacfc17b75b9a12aa5f8f26af62534e83652dfea67028c7a69b4e282d18e8",
    "rm0": "bb947ab45ead269a135bf143d8af8a837253da1802fcfd96f5e3be93b0b16fdf",
    "si4": "1b6ffa18315fcdc60d24dfdb8e27c40272ce4cc96972303b4e36f50fc04cd89b",
    "profiling-0": "50800172a5d39d814a95dbd2f7761c6deb03c3795ea94a020729006c6dc99d47",
    "profiling-1": "65b877ebbbfb195537694d41eb16d716a469ec7e301bf3a7020c4abdc0c14e1d",
    "profiling-2": "8dc2a2519d4611212943f88d5b2b1bc529538d1b3db4af5a987f2f5c7f82f486",
}


class TestDigestPins:
    @pytest.mark.parametrize("name", sorted(GENERATOR_CASES))
    def test_generator_digest(self, name):
        m = GENERATOR_CASES[name]()
        assert m.content_digest() == GENERATOR_DIGESTS[name]
        assert not any(arr.flags.writeable for arr in (m.rows, m.cols, m.vals))

    @pytest.mark.parametrize("short", sorted(ALL_MATRICES))
    def test_recipe_digest(self, short):
        assert ALL_MATRICES[short].builder().content_digest() == RECIPE_DIGESTS[short]

    def test_profiling_digests(self):
        digests = [m.content_digest() for m in profiling_matrices()]
        assert digests == [RECIPE_DIGESTS[f"profiling-{i}"] for i in range(3)]


@pytest.mark.parametrize("n,high", [(1, 5), (8, 3), (1000, 10), (5000, 2**40), (5000, 2**62)])
def test_first_seen_matches_unique(n, high):
    """The packed sort and its wide-key fallback both equal ``np.unique``."""
    keys = np.random.default_rng(n).integers(0, high, n)
    got, want = generators._first_seen(keys), np.unique(keys, return_index=True)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)
