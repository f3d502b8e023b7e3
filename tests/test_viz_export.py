"""Exporters: format validity, determinism, geometry."""

import xml.etree.ElementTree as ET

import numpy as np
import pytest

from sfmloc import (
    Matches,
    Pose,
    export_camera_obj,
    export_mlp,
    export_ply,
    export_projection_obj,
    export_query_bundle,
)
from sfmloc.errors import EmptyInput
from sfmloc.sfm_data import QueryImage, SfmModel

from conftest import random_rotation


def tiny_model(positions, colors=None):
    n = len(positions)
    colors = colors if colors is not None else np.full((n, 3), 128, np.uint8)
    offsets = np.arange(n + 1)
    return SfmModel([], np.asarray(positions, float), colors, offsets,
                    np.zeros(n, np.int32), np.zeros(n, np.int32),
                    np.zeros((n, 2)))


def make_fitted(model, k):
    """Matches of features 0..k-1 to model points 0..k-1."""
    return Matches(np.arange(k), np.arange(k))


def read_ply(path):
    """Independent minimal ASCII-PLY reader used as a format checker."""
    with open(path) as fh:
        assert fh.readline().strip() == "ply"
        assert fh.readline().strip() == "format ascii 1.0"
        n = None
        props = []
        for line in fh:
            line = line.strip()
            if line.startswith("element vertex"):
                n = int(line.split()[-1])
            elif line.startswith("property"):
                props.append(tuple(line.split()[1:]))
            elif line == "end_header":
                break
        assert n is not None
        rows = [fh.readline().split() for _ in range(n)]
        assert fh.read().strip() == ""
    positions = np.array([[float(v) for v in r[:3]] for r in rows])
    colors = np.array([[int(v) for v in r[3:6]] for r in rows])
    return props, positions, colors


def parse_obj(path):
    vertices, textures, faces, lines = [], [], [], []
    with open(path) as fh:
        for raw in fh:
            parts = raw.split()
            if not parts:
                continue
            if parts[0] == "v":
                vertices.append([float(v) for v in parts[1:4]])
            elif parts[0] == "vt":
                textures.append([float(v) for v in parts[1:3]])
            elif parts[0] == "f":
                faces.append([int(p.split("/")[0]) for p in parts[1:]])
            elif parts[0] == "l":
                lines.append([int(p) for p in parts[1:]])
    return np.array(vertices), textures, faces, lines


def default_query(width=400, height=300):
    return QueryImage(name="q.jpg", width=width, height=height, features=[],
                      exif_focal_px=1000.0)


class TestExportPly:
    def test_single_point_header(self, tmp_path):
        model = tiny_model([[1.0, 2.0, 3.0]],
                           np.array([[255, 0, 0]], np.uint8))
        path = tmp_path / "m.ply"
        export_ply(model, path)
        text = path.read_text()
        assert "element vertex 1" in text
        data_line = text.strip().splitlines()[-1]
        assert data_line.endswith("255 0 0")

    def test_round_trip_positions(self, tmp_path, clean_scene):
        path = tmp_path / "scene.ply"
        export_ply(clean_scene.model, path)
        props, positions, colors = read_ply(path)
        assert ("float", "x") in props and ("uchar", "red") in props
        assert np.allclose(positions, clean_scene.model.positions, atol=1e-6)
        assert np.array_equal(colors, clean_scene.model.colors)

    def test_empty_model_raises(self, tmp_path):
        with pytest.raises(EmptyInput):
            export_ply(tiny_model(np.empty((0, 3))), tmp_path / "e.ply")

    def test_byte_determinism(self, tmp_path, clean_scene):
        a, b = tmp_path / "a.ply", tmp_path / "b.ply"
        export_ply(clean_scene.model, a)
        export_ply(clean_scene.model, b)
        assert a.read_bytes() == b.read_bytes()

    def test_vertex_rows_equal_a_per_row_writer(self, tmp_path, clean_scene):
        def fmt(x):
            return f"{x + 0.0:.9g}"

        positions = np.concatenate([
            [[-0.0, 1e-12, 123456789.123], [-1e-12, -123456789.123, 0.0]],
            clean_scene.model.positions[:50]])
        colors = np.concatenate([[[0, 255, 0], [255, 0, 255]],
                                 clean_scene.model.colors[:50]]).astype(np.uint8)
        path = tmp_path / "m.ply"
        export_ply(tiny_model(positions, colors), path)
        rows = "".join(f"{fmt(p[0])} {fmt(p[1])} {fmt(p[2])} "
                       f"{int(c[0])} {int(c[1])} {int(c[2])}\n"
                       for p, c in zip(positions, colors))
        text = path.read_bytes().decode("ascii")
        assert text.split("end_header\n")[1] == rows
        assert text.splitlines()[-52] == "0 1e-12 123456789 0 255 0"


class TestExportMlp:
    def test_identity_pose_translation(self, tmp_path):
        pose = Pose(np.eye(3), np.zeros(3), 1000.0)
        path = tmp_path / "camera.mlp"
        export_mlp(pose, default_query(), path)
        root = ET.parse(path).getroot()
        cam = root.find(".//VCGCamera")
        assert cam.get("TranslationVector").startswith("0 0 0")

    def test_focal_mm_conversion(self, tmp_path):
        pose = Pose(np.eye(3), np.zeros(3), 1000.0)
        path = tmp_path / "camera.mlp"
        export_mlp(pose, default_query(), path)
        cam = ET.parse(path).getroot().find(".//VCGCamera")
        focal_mm = float(cam.get("FocalMm"))
        px_size = float(cam.get("PixelSizeMm").split()[0])
        assert abs(focal_mm / px_size - 1000.0) < 1e-9

    def test_well_formed_xml_with_viewport(self, tmp_path):
        rng = np.random.default_rng(0)
        pose = Pose(random_rotation(rng), rng.uniform(-2, 2, 3), 800.0)
        path = tmp_path / "camera.mlp"
        export_mlp(pose, default_query(), path)
        cam = ET.parse(path).getroot().find(".//VCGCamera")
        assert cam.get("ViewportPx") == "400 300"
        assert cam.get("CenterPx") == "200 150"
        rot = np.array([float(v) for v in cam.get("RotationMatrix").split()])
        assert rot.shape == (16,)


class TestExportCameraObj:
    def test_identity_sprite_on_axis(self, tmp_path):
        pose = Pose(np.eye(3), np.zeros(3), 1000.0)
        path = tmp_path / "camera.obj"
        export_camera_obj(pose, path, image_size=(400, 300), glyph_scale=2.0)
        vertices, textures, faces, lines = parse_obj(path)
        assert np.allclose(vertices[0], [0, 0, 0])
        quad_center = vertices[1:5].mean(axis=0)
        assert np.allclose(quad_center, [0, 0, 2.0], atol=1e-9)

    def test_translation_rigidity(self, tmp_path):
        rng = np.random.default_rng(1)
        rot = random_rotation(rng)
        a = Pose(rot, np.zeros(3), 800.0)
        b = Pose(rot, np.array([1.0, 0.0, 0.0]), 800.0)
        pa, pb = tmp_path / "a.obj", tmp_path / "b.obj"
        export_camera_obj(a, pa, glyph_scale=1.5)
        export_camera_obj(b, pb, glyph_scale=1.5)
        va, *_ = parse_obj(pa)
        vb, *_ = parse_obj(pb)
        assert np.allclose(vb - va, [1.0, 0.0, 0.0], atol=1e-9)

    def test_faces_reference_existing_vertices(self, tmp_path):
        rng = np.random.default_rng(2)
        pose = Pose(random_rotation(rng), rng.uniform(-3, 3, 3), 600.0)
        path = tmp_path / "camera.obj"
        export_camera_obj(pose, path)
        vertices, textures, faces, lines = parse_obj(path)
        for face in faces:
            assert all(1 <= idx <= len(vertices) for idx in face)
        for line in lines:
            assert all(1 <= idx <= len(vertices) for idx in line)


class TestExportProjectionObj:
    def test_single_match_structure(self, tmp_path):
        model = tiny_model([[0.0, 0.0, 10.0]])
        pose = Pose(np.eye(3), np.zeros(3), 100.0)
        path = tmp_path / "proj.obj"
        export_projection_obj(pose, make_fitted(model, 1), model, path,
                              plane_depth=1.0)
        vertices, _, _, lines = parse_obj(path)
        assert len(vertices) == 3
        assert lines == [[1, 2, 3]]

    def test_n_matches_structure(self, tmp_path):
        rng = np.random.default_rng(3)
        pts = np.column_stack([rng.uniform(-1, 1, 7), rng.uniform(-1, 1, 7),
                               rng.uniform(5, 10, 7)])
        model = tiny_model(pts)
        pose = Pose(np.eye(3), np.zeros(3), 100.0)
        path = tmp_path / "proj.obj"
        export_projection_obj(pose, make_fitted(model, 7), model, path)
        vertices, _, _, lines = parse_obj(path)
        assert len(vertices) == 21
        assert len(lines) == 7

    def test_middle_vertex_on_plane(self, tmp_path):
        rng = np.random.default_rng(4)
        rot = random_rotation(rng)
        pose = Pose(rot, rng.uniform(-2, 2, 3), 500.0)
        pts = (np.column_stack([rng.uniform(-1, 1, 5), rng.uniform(-1, 1, 5),
                                rng.uniform(4, 9, 5)]) @ rot) + pose.center
        model = tiny_model(pts)
        path = tmp_path / "proj.obj"
        export_projection_obj(pose, make_fitted(model, 5), model, path,
                              plane_depth=1.25)
        vertices, *_ = parse_obj(path)
        middles = vertices[1::3]
        depths = (middles - pose.center) @ pose.rotation[2]
        assert np.allclose(depths, 1.25, atol=1e-9)

    def test_empty_fitted_raises(self, tmp_path):
        model = tiny_model([[0.0, 0.0, 10.0]])
        pose = Pose(np.eye(3), np.zeros(3), 100.0)
        with pytest.raises(EmptyInput):
            export_projection_obj(pose, Matches.empty(), model,
                                  tmp_path / "p.obj")


class TestExportQueryBundle:
    def test_full_bundle_on_disk(self, tmp_path, clean_scene):
        model = clean_scene.model
        query, golden = clean_scene.queries[0]
        bundle = export_query_bundle(golden, query, make_fitted(model, 1),
                                     model, tmp_path / "out")
        assert bundle.mesh_path.is_file()
        assert bundle.mlp_path.is_file()
        assert bundle.camera_obj_path.is_file()
        assert bundle.projection_obj_path.is_file()
        ET.parse(bundle.mlp_path)  # well-formed

    def test_deterministic_bundles(self, tmp_path, clean_scene):
        model = clean_scene.model
        query, golden = clean_scene.queries[0]
        outs = []
        for sub in ("a", "b"):
            bundle = export_query_bundle(golden, query, Matches.empty(),
                                         model, tmp_path / sub)
            assert bundle.projection_obj_path is None
            assert not (tmp_path / sub / "camera_proj.obj").exists()
            outs.append((bundle.mlp_path.read_bytes(),
                         bundle.camera_obj_path.read_bytes(),
                         bundle.mesh_path.read_bytes()))
        assert outs[0] == outs[1]
