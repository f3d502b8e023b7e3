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
from sfmloc.viz_export import MESH_NAME, PHOTO_NAME

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

    @pytest.mark.parametrize("seed", range(4))
    def test_bytes_equal_a_per_row_writer(self, tmp_path, clean_scene, seed):
        """Golden poses and random poses over the scene's points, with a
        match repeated, a centre holding -0.0 and one point the camera's
        own centre plus a tiny offset."""
        def fmt(x):
            return f"{x + 0.0:.9g}"

        def per_row(pose, fitted, model, plane_depth):
            center = np.asarray(pose.center, dtype=float)
            out = []
            for point in model.positions[fitted.point_idx]:
                depth = pose.world_to_camera(point.reshape(1, 3))[0, 2]
                middle = center + (plane_depth / depth) * (point - center)
                for v in (center, middle, point):
                    out.append(f"v {fmt(v[0])} {fmt(v[1])} {fmt(v[2])}\n")
            out += [f"l {3 * i + 1} {3 * i + 2} {3 * i + 3}\n"
                    for i in range(len(fitted))]
            return "".join(out)

        rng = np.random.default_rng(seed)
        model = clean_scene.model
        _, golden = clean_scene.queries[seed]
        random_pose = Pose(random_rotation(rng),
                           np.array([-0.0, *rng.uniform(-50, 50, 2)]), 700.0)
        for pose in (golden, random_pose):
            points = rng.choice(model.num_points, 200)
            points[1] = points[0]
            positions = model.positions.copy()
            positions[points[2]] = pose.center + 1e-9 * pose.rotation[2]
            near = tiny_model(positions)
            fitted = Matches(np.arange(len(points)), points)
            plane_depth = float(rng.uniform(0.01, 3))
            path = tmp_path / "proj.obj"
            export_projection_obj(pose, fitted, near, path, plane_depth)
            assert path.read_bytes().decode("ascii") == per_row(
                pose, fitted, near, plane_depth)


class TestExportQueryBundle:
    def test_full_bundle_on_disk(self, tmp_path, clean_scene):
        model = clean_scene.model
        query, golden = clean_scene.queries[0]
        out = tmp_path / "out"
        assert export_query_bundle(golden, query, make_fitted(model, 1),
                                   model, out) is None
        for name in (MESH_NAME, "camera.mlp", "camera.obj", "camera.obj.mtl",
                     "camera_proj.obj"):
            assert (out / name).is_file()
        ET.parse(out / "camera.mlp")  # well-formed

    def test_deterministic_bundles(self, tmp_path, clean_scene):
        model = clean_scene.model
        query, golden = clean_scene.queries[0]
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            export_query_bundle(golden, query, Matches.empty(), model, out)
            assert not (out / "camera_proj.obj").exists()
            outs.append([(out / name).read_bytes() for name in
                         ("camera.mlp", "camera.obj", "camera.obj.mtl",
                          MESH_NAME)])
        assert outs[0] == outs[1]

    def test_every_file_names_the_same_photo(self, tmp_path, clean_scene):
        """The .mlp's raster and plane, the .mtl's texture and the copy
        agree on one photo name; the .mlp names the mesh it is given."""
        model = clean_scene.model
        query, golden = clean_scene.queries[0]
        photo = tmp_path / "query_photo.jpg"
        photo.write_bytes(b"\xff\xd8 not really a jpeg")
        out = tmp_path / "out"
        export_query_bundle(golden, query, make_fitted(model, 1), model, out,
                            image_source=photo, write_mesh=False,
                            mesh_filename="../shared.ply")
        root = ET.parse(out / "camera.mlp").getroot()
        mtl = (out / "camera.obj.mtl").read_text().splitlines()
        names = [root.find(".//MLRaster").get("label"),
                 root.find(".//Plane").get("fileName"),
                 *(line.split()[1] for line in mtl
                   if line.startswith("map_Kd "))]
        assert names == [PHOTO_NAME] * 3
        assert (out / PHOTO_NAME).read_bytes() == photo.read_bytes()
        assert sorted(f.name for f in out.glob("*.jpg")) == [PHOTO_NAME]
        mesh = root.find(".//MLMesh")
        assert mesh.get("filename") == mesh.get("label") == "../shared.ply"
        assert not (out / "../shared.ply").exists()
