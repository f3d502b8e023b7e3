"""Parsers, writers and dataset assembly."""

import io
import tracemalloc
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import points_model

from sfmloc import (
    KEYFILE_DTYPE,
    SfmModel,
    build_mean_descriptors,
    parse_bundle,
    parse_image_list,
    parse_keyfile,
    split_golden,
    write_bundle,
    write_keyfile,
    write_scene_dir,
)
from sfmloc.errors import (
    DimensionMismatch,
    EmptyTrack,
    IndexOutOfRange,
    LocalizationError,
    MalformedHeader,
    TruncatedFile,
    UnknownQuery,
)

ONE_CAMERA_ONE_POINT = """\
# Bundle file v0.3
1 1
520.5 -0.01 0.002
1 0 0
0 1 0
0 0 1
0.5 -1.5 2
1.25 2.5 -3.75
200 150 100
1 0 7 12.5 -4.25
"""


def undecodable(data: bytes):
    """A UTF-8 text stream over ``data``, as ``open`` gives for a file."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")


def two_camera_model():
    text = """\
# Bundle file v0.3
2 3
500 0 0
1 0 0
0 1 0
0 0 1
0 0 0
600 0 0
0 0 1
0 1 0
-1 0 0
1 2 3
0 0 0
255 0 0
2 0 0 1 1 1 1 2 2
1 1 1
0 255 0
1 0 5 3 3
2 2 2
0 0 255
1 1 9 -2 4
"""
    return parse_bundle(io.StringIO(text))


class TestParseBundle:
    def test_single_camera_single_point(self):
        model = parse_bundle(io.StringIO(ONE_CAMERA_ONE_POINT))
        assert model.num_cameras == 1
        assert model.num_points == 1
        cam = model.cameras[0]
        assert cam.focal_px == 520.5
        assert cam.k1 == -0.01 and cam.k2 == 0.002
        assert np.array_equal(cam.rotation, np.eye(3))
        assert np.array_equal(cam.translation, [0.5, -1.5, 2.0])
        assert np.array_equal(model.positions[0], [1.25, 2.5, -3.75])
        assert np.array_equal(model.colors[0], [200, 150, 100])
        assert model.visibilities[0] == frozenset({0})
        assert model.track_keys[0] == 7
        assert np.array_equal(model.track_xy[0], [12.5, -4.25])

    def test_empty_model(self):
        model = parse_bundle(io.StringIO("# Bundle file v0.3\n0 0\n"))
        assert model.num_cameras == 0
        assert model.num_points == 0

    def test_wrong_magic_raises(self):
        with pytest.raises(MalformedHeader):
            parse_bundle(io.StringIO("# Bundle file v0.4\n0 0\n"))

    def test_truncated_camera_raises(self):
        text = "# Bundle file v0.3\n1 0\n500 0 0\n1 0 0\n"
        with pytest.raises(TruncatedFile):
            parse_bundle(io.StringIO(text))

    def test_truncated_point_raises(self):
        text = ONE_CAMERA_ONE_POINT.rsplit("\n", 2)[0] + "\n"
        with pytest.raises(TruncatedFile):
            parse_bundle(io.StringIO(text))

    def test_view_list_camera_out_of_range(self):
        text = ONE_CAMERA_ONE_POINT.replace("1 0 7 12.5 -4.25",
                                            "1 3 7 12.5 -4.25")
        with pytest.raises(IndexOutOfRange):
            parse_bundle(io.StringIO(text))

    def test_bad_counts_line(self):
        with pytest.raises(MalformedHeader):
            parse_bundle(io.StringIO("# Bundle file v0.3\nnot numbers\n"))

    @pytest.mark.parametrize("counts", ["-1 -1", "-1 0", "0 -1"])
    def test_negative_count_raises(self, counts):
        with pytest.raises(MalformedHeader):
            parse_bundle(io.StringIO(f"# Bundle file v0.3\n{counts}\n"))

    @pytest.mark.parametrize("key", ["-1", "2147483648", "4294967303"])
    def test_view_list_key_outside_int32_raises(self, key):
        # 4294967303 = 2**32 + 7 would be stored as key 7
        text = ONE_CAMERA_ONE_POINT.replace("1 0 7 12.5", f"1 0 {key} 12.5")
        with pytest.raises(TruncatedFile):
            parse_bundle(io.StringIO(text))

    def test_largest_view_list_key_parses(self):
        text = ONE_CAMERA_ONE_POINT.replace("1 0 7 12.5", "1 0 2147483647 12.5")
        assert parse_bundle(io.StringIO(text)).track_keys.tolist() == [2**31 - 1]

    @pytest.mark.parametrize("row", ["1 0", "1 0 0 0"])
    def test_rotation_row_of_wrong_length_raises(self, row):
        text = ONE_CAMERA_ONE_POINT.replace("0 1 0\n", row + "\n", 1)
        with pytest.raises(TruncatedFile):
            parse_bundle(io.StringIO(text))

    def test_blank_view_list_raises(self):
        text = ONE_CAMERA_ONE_POINT.replace("1 0 7 12.5 -4.25", "")
        with pytest.raises(TruncatedFile):
            parse_bundle(io.StringIO(text))

    @pytest.mark.parametrize("colour", ["300 -1 7", "nan 0 0"])
    def test_colour_out_of_range_raises(self, colour):
        text = ONE_CAMERA_ONE_POINT.replace("200 150 100", colour)
        with pytest.raises(TruncatedFile):
            parse_bundle(io.StringIO(text))

    @pytest.mark.parametrize("line, bad", [
        ("1.25 2.5 -3.75", "nan 2.5 -3.75"),
        ("1.25 2.5 -3.75", "1.25 1e400 -3.75"),
        ("520.5 -0.01 0.002", "inf -0.01 0.002"),
        ("0 1 0", "0 nan 0"),
        ("0.5 -1.5 2", "0.5 -1.5 -inf"),
        ("1 0 7 12.5 -4.25", "1 0 7 12.5 nan"),
    ], ids=["position", "position_overflow", "focal", "rotation", "translation",
            "view_list_xy"])
    def test_non_finite_value_raises(self, line, bad):
        text = ONE_CAMERA_ONE_POINT.replace(line + "\n", bad + "\n", 1)
        assert text != ONE_CAMERA_ONE_POINT
        with pytest.raises(TruncatedFile):
            parse_bundle(io.StringIO(text))

    def test_undecodable_byte_raises(self):
        data = ONE_CAMERA_ONE_POINT.encode().replace(b"200", b"2\xff0")
        with pytest.raises(TruncatedFile):
            parse_bundle(undecodable(data))


class TestBundleRoundTrip:
    def assert_models_equal(self, a, b, tol=1e-9):
        assert a.num_cameras == b.num_cameras
        assert a.num_points == b.num_points
        for ca, cb in zip(a.cameras, b.cameras):
            assert abs(ca.focal_px - cb.focal_px) <= tol
            assert abs(ca.k1 - cb.k1) <= tol and abs(ca.k2 - cb.k2) <= tol
            assert np.allclose(ca.rotation, cb.rotation, atol=tol)
            assert np.allclose(ca.translation, cb.translation, atol=tol)
        assert np.allclose(a.positions, b.positions, atol=tol)
        assert np.array_equal(a.colors, b.colors)
        assert np.array_equal(a.track_offsets, b.track_offsets)
        assert np.array_equal(a.track_cams, b.track_cams)
        assert np.array_equal(a.track_keys, b.track_keys)
        assert np.allclose(a.track_xy, b.track_xy, atol=tol)

    def test_fixture_round_trip(self):
        model = parse_bundle(io.StringIO(ONE_CAMERA_ONE_POINT))
        buf = io.StringIO()
        write_bundle(model, buf)
        again = parse_bundle(io.StringIO(buf.getvalue()))
        self.assert_models_equal(model, again)

    def test_synthetic_scene_round_trip(self, clean_scene):
        buf = io.StringIO()
        write_bundle(clean_scene.model, buf)
        again = parse_bundle(io.StringIO(buf.getvalue()))
        self.assert_models_equal(clean_scene.model, again)


def transpose_by_dict(model):
    """camera -> sorted points, from each point's camera frozenset."""
    cams = {}
    for pi, vis in enumerate(model.visibilities):
        for cam in vis:
            cams.setdefault(cam, []).append(pi)
    return {cam: sorted(points) for cam, points in cams.items()}


class TestVisibilityArrays:
    """camera_points and view_bits against the frozenset view lists."""

    @pytest.fixture
    def repeated_model(self):
        # 20 cameras, so masks span three bytes; views repeat cameras
        rng = np.random.default_rng(3)
        views = [rng.integers(20, size=rng.integers(1, 9)).tolist()
                 for _ in range(50)]
        views[7] = [19, 19, 8, 8, 0]
        return points_model(np.zeros((50, 3)), views)

    def assert_camera_points_match(self, model):
        offsets, points = model.camera_points
        assert len(offsets) == model.num_cameras + 1
        expected = transpose_by_dict(model)
        for cam in range(model.num_cameras):
            got = points[offsets[cam]:offsets[cam + 1]].tolist()
            assert got == expected.get(cam, [])

    def test_camera_points_equal_a_dict_transpose(self, repeated_model):
        self.assert_camera_points_match(repeated_model)

    def test_camera_points_past_int32_keys(self):
        # camera 40 000 x 60 000 points passes 2**31: an int32 key wraps
        views = [[i % 3] for i in range(60000)]
        views[59999] = [40000, 2, 40000]
        views[123] = [39999]
        model = points_model(np.zeros((60000, 3)), views)
        assert model.num_cameras * model.num_points > 2**31
        self.assert_camera_points_match(model)

    def test_view_bits_equal_the_camera_sets(self, repeated_model):
        points = np.array([7, 0, 49, 7, 3])
        bits = repeated_model.view_bits(points)
        assert bits == [sum(1 << c for c in repeated_model.visibilities[p])
                        for p in points]
        assert repeated_model.view_bits(points[:0]) == []


KEYFILE_ALL_SEVENS = "1 128\n10.5 20.25 3.0 0.5\n" + "\n".join(
    " " + " ".join(["7"] * 20) for _ in range(6)) + "\n 7 7 7 7 7 7 7 7\n"


class TestParseKeyfile:
    def test_single_feature(self):
        keys = parse_keyfile(io.StringIO(KEYFILE_ALL_SEVENS))
        assert keys.dtype == KEYFILE_DTYPE and len(keys) == 1
        # stored (row, col) become xy = (col, row)
        assert keys.xy.tolist() == [[20.25, 10.5]]
        assert keys.scale.tolist() == [3.0] and keys.orientation.tolist() == [0.5]
        assert keys.descriptor.shape == (1, 128)
        assert np.all(keys.descriptor == 7)

    def test_empty_keyfile(self):
        keys = parse_keyfile(io.StringIO("0 128\n"))
        assert len(keys) == 0 and keys.descriptor.shape == (0, 128)

    def test_blank_body_is_empty(self):
        assert len(parse_keyfile(io.StringIO("0 128\n  \n"))) == 0

    def test_negative_count_raises(self):
        with pytest.raises(MalformedHeader):
            parse_keyfile(io.StringIO("-1 128\n"))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            parse_keyfile(io.StringIO("1 64\n1 1 1 1\n"))

    def test_truncated_descriptor(self):
        text = "1 128\n1 2 3 4\n" + " ".join(["5"] * 40) + "\n"
        with pytest.raises(TruncatedFile):
            parse_keyfile(io.StringIO(text))

    def test_extra_tokens_raise(self):
        with pytest.raises(TruncatedFile):
            parse_keyfile(io.StringIO(KEYFILE_ALL_SEVENS + " 7\n"))

    # 1-3 ASCII digits only: no sign, point, exponent, "_" or a fourth digit
    @pytest.mark.parametrize("value", ["300", "-1", "7.5", "7.0", "7e0", "+7",
                                       "0007", "1_0", "\u0667"])
    def test_descriptor_value_out_of_range(self, value):
        text = KEYFILE_ALL_SEVENS.replace(" 7 ", f" {value} ", 1)
        with pytest.raises(TruncatedFile):
            parse_keyfile(io.StringIO(text))

    @pytest.mark.parametrize(
        "stray", [c for c in map(chr, range(33)) if c not in " \t\n\v\f\r"] + ["\u00e9"],
        ids=lambda c: f"{ord(c):#04x}")
    def test_stray_character_between_tokens(self, stray):
        # the token count stays 132, so only the stray character can fail
        text = KEYFILE_ALL_SEVENS.replace(" 7 ", f" 7 {stray} ", 1)
        with pytest.raises(TruncatedFile):
            parse_keyfile(io.StringIO(text))

    def test_undecodable_byte_raises(self):
        data = KEYFILE_ALL_SEVENS.encode().replace(b" 7 ", b" 7 \xff ", 1)
        with pytest.raises(TruncatedFile):
            parse_keyfile(undecodable(data))

    @pytest.mark.parametrize("head", ["1_0 .5 +1.5 -0", "1e400 nan inf -1e400"])
    def test_feature_numbers_read_as_python_floats(self, head):
        keys = parse_keyfile(io.StringIO(
            KEYFILE_ALL_SEVENS.replace("10.5 20.25 3.0 0.5", head)))
        row, col, scale, orientation = map(float, head.split())
        got = np.array([keys.xy[0, 1], keys.xy[0, 0], keys.scale[0],
                        keys.orientation[0]])
        assert got.tobytes() == np.array([row, col, scale, orientation]).tobytes()

    @pytest.mark.parametrize("head", ["0x10 1 1 1", "1d3 1 1 1", "1 1 1 e5"])
    def test_feature_number_not_a_float(self, head):
        text = KEYFILE_ALL_SEVENS.replace("10.5 20.25 3.0 0.5", head)
        with pytest.raises(TruncatedFile):
            parse_keyfile(io.StringIO(text))

    def test_round_trip(self):
        keys = parse_keyfile(io.StringIO(KEYFILE_ALL_SEVENS))
        buf = io.StringIO()
        write_keyfile(keys, buf)
        assert buf.getvalue() == KEYFILE_ALL_SEVENS
        again = parse_keyfile(io.StringIO(buf.getvalue()))
        assert again.tobytes() == keys.tobytes()


OracleKeypoint = namedtuple("OracleKeypoint", "x y scale orientation descriptor")


def _oracle_next_line(lines, what: str) -> str:
    line = next(lines, None)
    if line is None:
        raise TruncatedFile(f"unexpected end of file while reading {what}")
    return line


def oracle_parse_keyfile(stream) -> list:
    """The line-by-line keyfile parser the record-array one replaced."""
    lines = iter(stream)
    header = _oracle_next_line(lines, "keyfile header").split()
    try:
        num_features, dim = int(header[0]), int(header[1])
    except (ValueError, IndexError) as exc:
        raise MalformedHeader(f"bad keyfile header: {header!r}") from exc
    if dim != 128:
        raise DimensionMismatch(f"descriptor dimension {dim}, expected 128")

    features = []
    for fi in range(num_features):
        head = _oracle_next_line(lines, f"feature {fi}").split()
        try:
            row, col, scale, orientation = map(float, head)
        except ValueError as exc:
            raise TruncatedFile(f"bad feature header {fi}") from exc
        values = []
        while len(values) < 128:
            parts = _oracle_next_line(lines, f"feature {fi} descriptor").split()
            try:
                values.extend(map(int, parts))
            except ValueError as exc:
                raise TruncatedFile(f"bad descriptor data in feature {fi}") from exc
        if len(values) != 128:
            raise TruncatedFile(
                f"feature {fi} descriptor has {len(values)} values")
        try:
            descriptor = np.array(values, dtype=np.uint8)
        except OverflowError as exc:  # a value outside 0..255
            raise TruncatedFile(f"bad descriptor value in feature {fi}") from exc
        features.append(OracleKeypoint(x=col, y=row, scale=scale,
                                      orientation=orientation,
                                      descriptor=descriptor))
    return features


def assert_same_as_oracle(keys, want):
    assert len(keys) == len(want)
    assert keys.xy.tolist() == [[f.x, f.y] for f in want]
    assert keys.scale.tolist() == [f.scale for f in want]
    assert keys.orientation.tolist() == [f.orientation for f in want]
    assert np.array_equal(keys.descriptor,
                          np.array([f.descriptor for f in want],
                                   dtype=np.uint8).reshape(-1, 128))


@pytest.mark.parametrize("scene", ["clean_scene", "noisy_scene"])
def test_parse_keyfile_equals_the_line_parser(request, tmp_path, scene):
    """Every keyfile of a written scene parses as the per-line oracle does."""
    write_scene_dir(request.getfixturevalue(scene), tmp_path)
    paths = sorted((tmp_path / "keys").glob("*.key"))
    assert any(p.name.startswith("db_") for p in paths)
    assert any(p.name.startswith("query_") for p in paths)
    for path in paths:
        with open(path) as fh:
            keys = parse_keyfile(fh)
        with open(path) as fh:
            assert_same_as_oracle(keys, oracle_parse_keyfile(fh))


FLOAT_FORMATS = [repr, "{:+.3f}".format, "{:e}".format, "{:.0f}".format]


@st.composite
def keyfile_layouts(draw):
    """Valid keyfile text in a random layout the line oracle also reads.

    Each feature's four numbers sit on one line and its 128 values wrap
    at a random width; gaps are spaces or tabs, line ends LF or CRLF,
    values carry leading zeros up to three characters, and the last
    line end may be missing.
    """
    gap = st.sampled_from([" ", "\t", "  ", " \t "])
    eol = st.sampled_from(["\n", "\r\n"])
    n = draw(st.integers(0, 3))
    lines = [f"{n} 128{draw(eol)}"]
    for _ in range(n):
        head = draw(st.lists(st.floats(allow_nan=False), min_size=4, max_size=4))
        fmt = draw(st.sampled_from(FLOAT_FORMATS))
        lines.append(draw(gap).join(map(fmt, head)) + draw(eol))
        values = draw(st.lists(st.integers(0, 255), min_size=128, max_size=128))
        wrap = draw(st.integers(1, 128))
        for at in range(0, 128, wrap):
            tokens = [str(v).zfill(draw(st.integers(1, 3))) for v in values[at:at + wrap]]
            lines.append(draw(gap) + draw(gap).join(tokens) + draw(eol))
    text = "".join(lines)
    return text.rstrip("\r\n") if draw(st.booleans()) else text


@settings(derandomize=True, max_examples=100, deadline=None)
@given(text=keyfile_layouts())
def test_any_layout_parses_as_the_line_parser(text):
    assert_same_as_oracle(parse_keyfile(io.StringIO(text)),
                          oracle_parse_keyfile(io.StringIO(text)))


class TestParseImageList:
    def test_two_lines_in_order(self):
        got = parse_image_list(io.StringIO("img_a.jpg\nimg_b.jpg\n"))
        assert got == ["img_a.jpg", "img_b.jpg"]

    def test_empty_stream(self):
        assert parse_image_list(io.StringIO("")) == []

    def test_trailing_whitespace_trimmed(self):
        got = parse_image_list(io.StringIO("  img.jpg  \n\n other.jpg\n"))
        assert got == ["img.jpg", "other.jpg"]

    def test_nul_in_a_name_raises(self):
        with pytest.raises(TruncatedFile):
            parse_image_list(io.StringIO("img_a.jpg\nimg\0b.jpg\n"))

    def test_undecodable_byte_raises(self):
        with pytest.raises(TruncatedFile):
            parse_image_list(undecodable(b"img_a.jpg\nimg_\xff.jpg\n"))


class TestSplitGolden:
    def test_one_query_removed(self):
        model = two_camera_model()
        info, golden = split_golden(model, ["b.jpg"], ["a.jpg", "b.jpg"])
        assert info.num_cameras == 1
        assert set(golden) == {"b.jpg"}
        assert golden["b.jpg"].focal_px == 600
        # point 2 was only seen by camera 1 -> dropped
        assert info.num_points == 2
        assert info.visibilities[0] == frozenset({0})
        assert info.visibilities[1] == frozenset({0})

    def test_point_conservation(self):
        model = two_camera_model()
        info, _ = split_golden(model, ["b.jpg"], ["a.jpg", "b.jpg"])
        dropped = sum(
            1 for i in range(model.num_points)
            if not (model.visibilities[i] - {1}))
        assert info.num_points + dropped == model.num_points

    def test_empty_query_list_is_identity(self):
        model = two_camera_model()
        info, golden = split_golden(model, [], ["a.jpg", "b.jpg"])
        assert golden == {}
        assert info.num_cameras == model.num_cameras
        assert info.num_points == model.num_points
        assert np.array_equal(info.track_cams, model.track_cams)

    def test_unknown_query_raises(self):
        model = two_camera_model()
        with pytest.raises(UnknownQuery):
            split_golden(model, ["zzz.jpg"], ["a.jpg", "b.jpg"])

    def test_synthetic_scene_split(self, clean_scene):
        model = clean_scene.model
        query_names = [q.name for q, _ in clean_scene.queries]
        camera_names = clean_scene.db_names + query_names
        info, golden = split_golden(model, query_names, camera_names)
        assert info.num_cameras == len(clean_scene.db_names)
        assert set(golden) == set(query_names)
        for i in range(info.num_points):
            vis = info.visibilities[i]
            assert vis and max(vis) < info.num_cameras


def one_point_mean(descriptors) -> np.ndarray:
    """build_mean_descriptors of one point seen once by each of
    len(descriptors) cameras, camera c with descriptors[c]."""
    n = len(descriptors)
    model = SfmModel([None] * n, np.zeros((1, 3)), np.zeros((1, 3)), [0, n],
                     np.arange(n), np.zeros(n), np.zeros((n, 2)))
    return build_mean_descriptors(
        model, lambda cam: np.asarray(descriptors[cam])[None]).mean_descriptors[0]


class TestBuildMeanDescriptors:
    def test_single_descriptor_is_identity(self):
        desc = np.arange(128) % 256
        assert np.array_equal(one_point_mean([desc]), desc)

    def test_two_descriptors_mean(self):
        out = one_point_mean([np.full(128, 100), np.full(128, 200)])
        assert np.all(out == 150)

    def test_half_rounds_up(self):
        out = one_point_mean([np.zeros(128), np.full(128, 255)])
        assert np.all(out == 128)

    def test_empty_track_raises(self):
        with pytest.raises(EmptyTrack):
            one_point_mean([])
        # point 1 has no view: raised before any keyfile is read
        model = SfmModel([None], np.zeros((2, 3)), np.zeros((2, 3)), [0, 1, 1],
                         [0], [0], np.zeros((1, 2)))
        with pytest.raises(EmptyTrack):
            build_mean_descriptors(model, lambda cam: pytest.fail("keyfile read"))

    @pytest.mark.parametrize("key, n_features", [(2, 2), (-1, 2), (0, 0)],
                             ids=["key_is_len", "negative_key", "empty_keyfile"])
    def test_key_outside_keyfile_raises(self, key, n_features):
        model = SfmModel([None], np.zeros((1, 3)), np.zeros((1, 3)), [0, 1],
                         [0], [key], np.zeros((1, 2)))
        with pytest.raises(IndexOutOfRange):
            build_mean_descriptors(
                model, lambda cam: np.zeros((n_features, 128), np.uint8))

    @given(st.lists(st.integers(0, 255), min_size=2, max_size=6))
    def test_permutation_invariant(self, values):
        descs = [np.full(128, v) for v in values]
        rng = np.random.default_rng(0)
        shuffled = [descs[i] for i in rng.permutation(len(descs))]
        assert np.array_equal(one_point_mean(descs), one_point_mean(shuffled))

    def test_matches_scene_truth(self, clean_scene):
        model = clean_scene.model
        query_names = [q.name for q, _ in clean_scene.queries]
        info, _ = split_golden(model, query_names,
                               clean_scene.db_names + query_names)

        def keyfile_for_camera(ci):
            return clean_scene.db_keyfiles[ci].descriptor

        rebuilt = build_mean_descriptors(info, keyfile_for_camera)
        # info drops points only seen by queries; surviving ones keep
        # their db-only tracks, whose averages the scene precomputed
        assert rebuilt.mean_descriptors.shape == (info.num_points, 128)
        sample = np.linspace(0, info.num_points - 1, 25).astype(int)
        for i in sample:
            track = np.array(
                [keyfile_for_camera(c)[k] for c, k in
                 zip(rebuilt.track_cams[rebuilt.track_slice(i)],
                     rebuilt.track_keys[rebuilt.track_slice(i)])])
            expected = np.clip(np.floor(track.mean(axis=0) + 0.5), 0, 255)
            assert np.array_equal(rebuilt.mean_descriptors[i], expected)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.lists(st.integers(1, 64), min_size=1, max_size=8),
           st.integers(1, 5), st.integers(0, 255), st.integers(0, 255),
           st.integers(0, 2**32 - 1))
    def test_equals_the_float_formula(self, lengths, n_cams, low, span, seed):
        """Integer rounding equals floor(sum / count + 0.5) in float64.

        Column 0 of an even track alternates v and v + 1, an exact half.
        """
        rng = np.random.default_rng(seed)
        n = sum(lengths)
        rows = rng.integers(low, min(low + span, 255) + 1, size=(n, 128))
        offsets = np.concatenate([[0], np.cumsum(lengths)])
        for a, b in zip(offsets, offsets[1:]):
            if (b - a) % 2 == 0:
                rows[a:b, 0] = min(low, 254) + np.arange(b - a) % 2
        cams = rng.integers(0, n_cams, size=n)
        keys = np.empty(n, dtype=np.int64)
        keyfiles = []
        for c in range(n_cams):
            seen = np.flatnonzero(cams == c)
            keys[seen] = np.arange(len(seen))
            keyfiles.append(rows[seen].astype(np.uint8))
        model = SfmModel([None] * n_cams, np.zeros((len(lengths), 3)),
                         np.zeros((len(lengths), 3)), offsets, cams, keys,
                         np.zeros((n, 2)))
        means = build_mean_descriptors(model, keyfiles.__getitem__).mean_descriptors
        sums = np.add.reduceat(rows.astype(np.float64), offsets[:-1])
        expected = np.clip(np.floor(sums / np.array(lengths)[:, None] + 0.5), 0, 255)
        assert means.dtype == np.uint8
        assert np.array_equal(means, expected)

    def test_one_camera_sees_a_point_under_many_keys(self):
        # every repeat of (camera 0, point 0) must add, keys 3 and 1 twice
        keys = [0, 1, 2, 3, 3, 1]
        keyfile = np.array([np.full(128, v) for v in (0, 10, 20, 200)], np.uint8)
        model = SfmModel([None], np.zeros((1, 3)), np.zeros((1, 3)),
                         [0, len(keys)], np.zeros(len(keys)), keys,
                         np.zeros((len(keys), 2)))
        means = build_mean_descriptors(model, lambda cam: keyfile).mean_descriptors
        assert np.all(means == 73)  # (0 + 10 + 20 + 200 + 200 + 10) / 6 = 73.3

    def test_long_track_of_255(self):
        # 100 000 views over 100 cameras: the sums reach 25.5 M
        n_cams, per_cam = 100, 1000
        n = n_cams * per_cam
        model = SfmModel([None] * n_cams, np.zeros((1, 3)), np.zeros((1, 3)),
                         [0, n], np.repeat(np.arange(n_cams), per_cam),
                         np.tile(np.arange(per_cam), n_cams), np.zeros((n, 2)))
        keyfile = np.full((per_cam, 128), 255, np.uint8)
        means = build_mean_descriptors(model, lambda cam: keyfile).mean_descriptors
        assert np.all(means == 255)

    def test_heap_peak_is_a_few_int32_rows_per_point(self, noisy_scene):
        """No float64 (points, 128) array: the peak stays under two int32 ones."""
        query_names = [q.name for q, _ in noisy_scene.queries]
        info, _ = split_golden(noisy_scene.model, query_names,
                               noisy_scene.db_names + query_names)
        tracemalloc.start()
        try:
            build_mean_descriptors(
                info, lambda ci: noisy_scene.db_keyfiles[ci].descriptor)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * info.num_points * 128 * 4


def written(write, obj) -> str:
    buf = io.StringIO()
    write(obj, buf)
    return buf.getvalue()


FUZZ_TOKENS = ["", "\n", " ", "0", "-1", "300", "1.5", "nan", "x",
               "99999999999999999999", "# Bundle file v0.3"]
FUZZ_EDIT = st.tuples(st.sampled_from(["truncate", "delete", "insert"]),
                      st.integers(0, 10**6), st.integers(1, 40),
                      st.sampled_from(FUZZ_TOKENS))


def corrupt(text: str, edits) -> str:
    for kind, pos, length, token in edits:
        pos %= len(text) + 1
        if kind == "truncate":
            text = text[:pos]
        elif kind == "delete":
            text = text[:pos] + text[pos + length:]
        else:
            text = text[:pos] + token + text[pos:]
    return text


@pytest.mark.parametrize("parse, text", [
    (parse_bundle, written(write_bundle, two_camera_model())),
    (parse_keyfile,
     written(write_keyfile, np.concatenate(
         [parse_keyfile(io.StringIO(KEYFILE_ALL_SEVENS))] * 2).view(np.recarray))),
], ids=["bundle", "keyfile"])
@settings(derandomize=True, max_examples=300, deadline=None)
@given(edits=st.lists(FUZZ_EDIT, min_size=1, max_size=4))
def test_corrupt_input_raises_only_typed_errors(parse, text, edits):
    """Truncated, cut or spliced text parses or raises a LocalizationError.

    derandomize fixes the example set, so a failure shows on every run.
    """
    try:
        parse(io.StringIO(corrupt(text, edits)))
    except LocalizationError:
        pass
