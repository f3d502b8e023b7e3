"""Nearest-neighbor index, ratio test and good-match extraction."""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.spatial import cKDTree

from sfmloc import DescriptorIndex, Matches, find_good_matches, ratio_test
from sfmloc.descriptor_index import load_index_cache, save_index_cache
from sfmloc.errors import DimensionMismatch, EmptyInput, InvalidParams
from sfmloc.sfm_data import QueryImage, keyfile_records


def brute_force_top1(descs, query):
    d = np.linalg.norm(descs - query, axis=1)
    return int(np.argmin(d))


def oracle_two_nn(descs, queries):
    """Exact 2-NN by integer squared distances, square-rooted in float64.

    Returns (dists, idx, untied): each row's two smallest distances, the
    points holding them (lowest index first among equals), and whether
    the row's three smallest squared distances are strictly increasing,
    so that the two nearest points and their order are unique.
    """
    d = descs.astype(np.int64)
    q = queries.astype(np.int64)
    sq = (q * q).sum(1)[:, None] + (d * d).sum(1)[None, :] - 2 * q @ d.T
    idx = np.argsort(sq, axis=1, kind="stable")[:, :3]
    top = np.take_along_axis(sq, idx, axis=1)
    untied = (top[:, 0] < top[:, 1]) & (top[:, 1] < top[:, 2])
    return np.sqrt(top[:, :2].astype(np.float64)), idx[:, :2], untied


def tied_database(high, seed):
    """uint8 descriptors in [0, high) with every fifth row duplicated,
    and queries that copy or perturb database rows."""
    rng = np.random.default_rng(seed)
    descs = rng.integers(0, high, (300, 128)).astype(np.uint8)
    descs = np.vstack([descs, descs[::5]])
    near = descs[rng.integers(0, len(descs), 150)].astype(int)
    near += rng.integers(-2, 3, near.shape)
    queries = np.vstack([descs[:50], np.clip(near, 0, 255),
                         rng.integers(0, high, (100, 128))]).astype(np.uint8)
    return descs, queries


class TestBuildIndexKnn:
    def test_exact_copy_has_zero_distance(self):
        rng = np.random.default_rng(0)
        descs = rng.integers(0, 256, (10, 128))
        index = DescriptorIndex(descs)
        dists, idx = index.query(descs[3])
        assert idx[0, 0] == 3
        assert dists[0, 0] == 0.0

    def test_empty_input_raises(self):
        with pytest.raises(EmptyInput):
            DescriptorIndex(np.empty((0, 128)))

    def test_one_point_index_answers_inf(self):
        """The second neighbor of a one-point index is at infinity, with
        the index's length as its index; find_good_matches matches none."""
        descs = np.random.default_rng(1).integers(0, 256, (1, 128), dtype=np.uint8)
        index = DescriptorIndex(descs)
        assert len(index) == 1
        dists, idx = index.query(np.vstack([descs, descs // 2]))
        assert idx.shape == dists.shape == (2, 2)
        assert idx.tolist() == [[0, 1], [0, 1]]
        assert dists[0, 0] == 0.0 and np.isinf(dists[:, 1]).all()
        assert len(find_good_matches(index, _query_from_descriptors(descs), 0.9)) == 0

    @pytest.mark.parametrize("shape", [(3, 64), (128,)], ids=["3x64", "1-D"])
    def test_not_n_by_128_raises(self, shape):
        with pytest.raises(DimensionMismatch, match=r"\(n, 128\)"):
            DescriptorIndex(np.zeros(shape, dtype=np.uint8))

    def test_two_point_index(self):
        v = np.full(128, 10.0)
        w = np.full(128, 200.0)
        index = DescriptorIndex(np.vstack([v, w]))
        dists, idx = index.query(v)
        assert list(idx[0]) == [0, 1]
        assert dists[0, 0] == 0.0

    def test_batch_equals_row_by_row(self):
        rng = np.random.default_rng(4)
        descs = rng.integers(0, 3, (40, 128)).astype(np.uint8)
        descs = np.vstack([descs, descs[:10]])  # duplicated rows: exact ties
        queries = np.vstack([descs[:20],
                             rng.integers(0, 3, (30, 128)).astype(np.uint8)])
        index = DescriptorIndex(descs)
        dists, idx = index.query(queries)
        rows = [index.query(q) for q in queries]
        assert np.array_equal(dists, np.vstack([d for d, _ in rows]))
        assert np.array_equal(idx, np.vstack([i for _, i in rows]))
        assert (dists[:, 0] == dists[:, 1]).any()

    def test_top1_agreement_with_brute_force(self):
        rng = np.random.default_rng(2)
        descs = rng.uniform(0, 255, (1000, 128))
        queries = rng.uniform(0, 255, (1000, 128))
        index = DescriptorIndex(descs)
        dists, idx = index.query(queries)
        agree = sum(int(idx[i, 0]) == brute_force_top1(descs, queries[i])
                    for i in range(len(queries)))
        assert agree >= 950

    def test_top2_agreement_with_brute_force(self):
        rng = np.random.default_rng(3)
        descs = rng.uniform(0, 255, (100, 128))
        index = DescriptorIndex(descs)
        agree = 0
        for _ in range(1000):
            q = rng.uniform(0, 255, 128)
            got = list(index.query(q)[1][0])
            d = np.linalg.norm(descs - q, axis=1)
            expected = list(np.argsort(d)[:2])
            agree += got == expected
        assert agree >= 950


@pytest.mark.parametrize("high, seed", [(256, 11), (4, 12)])
class TestExactOracle:
    """The index against an integer oracle on data with exact ties."""

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64, np.float64])
    def test_index_equals_the_oracle(self, high, seed, dtype):
        """Any input type of the same values gives the oracle's answer."""
        descs, queries = tied_database(high, seed)
        want_d, want_i, untied = oracle_two_nn(descs, queries)
        assert untied.any() and not untied.all()
        descs, queries = descs.astype(dtype), queries.astype(dtype)
        index = DescriptorIndex(descs)
        rows = [index.query(q) for q in queries]  # as backmatching asks
        for dists, idx in (index.query(queries),
                           (np.vstack([d for d, _ in rows]),
                            np.vstack([i for _, i in rows]))):
            assert np.array_equal(dists, want_d)  # bit for bit
            assert np.array_equal(idx[untied], want_i[untied])

    def test_default_leaf_tree_equals_the_oracle(self, high, seed):
        descs, queries = tied_database(high, seed)
        want_d, want_i, untied = oracle_two_nn(descs, queries)
        dists, idx = cKDTree(descs.astype(np.float64)).query(
            queries.astype(np.float64), k=2)
        assert np.array_equal(dists, want_d)
        assert np.array_equal(idx[untied], want_i[untied])


class TestRatioTest:
    def test_accepts_clear_winner(self):
        assert ratio_test(0.4, 1.0, 0.7)

    def test_boundary_cases(self):
        assert not ratio_test(0.8, 1.0, 0.7)
        assert ratio_test(0.8, 1.0, 0.9)

    def test_equal_distances_rejected(self):
        assert not ratio_test(0.5, 0.5, 0.99)
        assert not ratio_test(0.0, 0.0, 0.5)

    def test_elementwise(self):
        got = ratio_test(np.array([0.4, 0.8, 0.5, 0.0]),
                         np.array([1.0, 1.0, 0.5, 0.0]), 0.7)
        assert got.tolist() == [True, False, False, False]

    @given(st.floats(0.0, 10.0), st.floats(0.0, 10.0),
           st.floats(0.01, 0.98), st.floats(0.001, 0.5))
    def test_monotone_in_ratio(self, d1, d2, ratio, bump):
        if d1 > d2:
            d1, d2 = d2, d1
        if ratio_test(d1, d2, ratio):
            assert ratio_test(d1, d2, min(ratio + bump, 0.999))


def _query_from_descriptors(descs, width=400, height=300):
    n = len(descs)
    xy = np.column_stack([10.0 + np.arange(n), 20.0 + np.arange(n)])
    feats = keyfile_records(xy, np.reshape(descs, (n, 128)), scale=2.0)
    return QueryImage(name="q.jpg", width=width, height=height,
                      features=feats, exif_focal_px=500.0)


class TestFindGoodMatches:
    def setup_method(self):
        rng = np.random.default_rng(5)
        self.descs = rng.integers(0, 256, (60, 128))
        self.index = DescriptorIndex(self.descs)

    def test_exact_copies_all_match(self):
        query = _query_from_descriptors(self.descs[:10])
        got = find_good_matches(self.index, query, 0.7)
        assert len(got) == 10
        assert list(got.feature_idx) == list(got.point_idx) == list(range(10))
        dists, _ = self.index.query(self.descs[:10])
        assert np.all(dists[:, 0] == 0.0)
        # a match is two indices; position and views are the model's
        assert [f.name for f in fields(got)] == ["feature_idx", "point_idx"]
        assert got.feature_idx.dtype == got.point_idx.dtype == np.intp

    @pytest.mark.parametrize("ratio", [1.5, 1.0 + 1e-12, 0.0, -0.5, float("nan")])
    def test_ratio_outside_unit_interval_raises(self, ratio):
        # above 1, tied nearest points pass: on a tied database most rows
        # would match whichever point the index happens to list first
        query = _query_from_descriptors(self.descs[:10])
        with pytest.raises(InvalidParams):
            find_good_matches(self.index, query, ratio)
        with pytest.raises(InvalidParams):
            ratio_test(1.0, 1.0, ratio)
        assert len(find_good_matches(self.index, query, 1.0)) == 10

    def test_no_features_empty(self):
        query = _query_from_descriptors([])
        assert len(find_good_matches(self.index, query, 0.7)) == 0

    def test_duplicate_indexed_descriptor_rejected(self):
        descs = np.vstack([self.descs, self.descs[0]])
        index = DescriptorIndex(descs)
        query = _query_from_descriptors(descs[:1])
        got = find_good_matches(index, query, 0.9)
        assert len(got) == 0

    def test_output_within_bounds(self):
        rng = np.random.default_rng(6)
        query = _query_from_descriptors(rng.uniform(0, 255, (30, 128)))
        got = find_good_matches(self.index, query, 0.9)
        assert len(got) <= 30
        dists, _ = self.index.query(query.features.descriptor)
        assert np.all(dists[:, 0] <= dists[:, 1])
        assert np.all(np.diff(got.feature_idx) > 0)
        assert np.all((got.feature_idx >= 0) & (got.feature_idx < 30))
        assert np.all((got.point_idx >= 0) & (got.point_idx < len(self.descs)))


class TestMatches:
    def make(self, n):
        return Matches(np.arange(n), np.arange(n) + 10)

    def test_take_by_index_and_mask(self):
        m = self.make(4)
        by_idx = m.take(np.array([2, 0]))
        by_mask = m.take(np.array([True, False, True, False]))
        assert list(by_idx.point_idx) == [12, 10]
        assert list(by_mask.point_idx) == [10, 12]
        assert list(by_idx.feature_idx) == [2, 0]
        assert list(by_mask.feature_idx) == [0, 2]

    def test_add_concatenates_in_order(self):
        a, b = self.make(2), self.make(3)
        both = a + b
        assert len(both) == 5
        assert list(both.feature_idx) == [0, 1, 0, 1, 2]
        assert list(both.point_idx) == [10, 11, 10, 11, 12]
        assert both.point_idx.dtype == np.intp
        assert len(Matches.empty() + a) == 2


class TestIndexCache:
    def test_round_trip_and_invalidation(self, tmp_path):
        rng = np.random.default_rng(7)
        descs = rng.integers(0, 256, (20, 128)).astype(np.uint8)
        checksum = "0123abcd"
        path = tmp_path / "cache.npz"
        save_index_cache(path, descs, checksum)
        loaded = load_index_cache(path, checksum, 20)
        assert np.array_equal(loaded, descs)
        assert load_index_cache(path, "different", 20) is None
        assert load_index_cache(tmp_path / "missing.npz", checksum, 20) is None

    @pytest.mark.parametrize("stored", [
        np.zeros((21, 128), np.uint8),     # a row too many
        np.zeros((19, 128), np.uint8),     # a row too few
        np.zeros((20, 127), np.uint8),     # a column too few
        np.zeros((20, 129), np.uint8),     # a column too many
        np.zeros(20 * 128, np.uint8),      # flat
        np.zeros((20, 128, 1), np.uint8),  # a third axis
        np.zeros((20, 128), np.int16),
        np.zeros((20, 128), np.float64),
        np.zeros((20, 128), bool),
    ], ids=["rows+1", "rows-1", "cols-1", "cols+1", "flat", "3d", "int16",
            "float64", "bool"])
    def test_an_array_that_does_not_fit_the_model_is_a_miss(self, tmp_path, stored):
        path = tmp_path / "cache.npz"
        save_index_cache(path, stored, "0123abcd")
        assert load_index_cache(path, "0123abcd", 20) is None

    @pytest.mark.parametrize("mask", [0x01, 0xff])
    def test_any_flipped_byte_is_a_miss_or_the_same_array(self, tmp_path, mask):
        descs = np.random.default_rng(7).integers(0, 256, (2, 128)).astype(np.uint8)
        path = tmp_path / "cache.npz"
        save_index_cache(path, descs, "0123abcd")
        data = path.read_bytes()
        for i in range(len(data)):
            path.write_bytes(data[:i] + bytes([data[i] ^ mask]) + data[i + 1:])
            loaded = load_index_cache(path, "0123abcd", 2)
            assert loaded is None or np.array_equal(loaded, descs), i
