"""Exporters for inspecting results in a mesh viewer.

Everything is written as ASCII with 9-significant-digit floats so
outputs are diffable and byte-stable.  The point cloud becomes a PLY
with per-vertex color, a pose becomes a Meshlab project (virtual
camera), a camera glyph OBJ (frustum plus textured sprite quad) and a
projection OBJ whose polylines run from the camera center through the
image plane to each fitted 3D point.  The PLY is formatted _PLY_ROWS
points at a time, so an export holds one block of rows as Python
objects and text (under 1 MB at 2 048 rows), whatever the model's size.

export_query_bundle writes one query's set into out_dir and returns
nothing: camera.mlp, camera.obj with camera.obj.mtl, camera_proj.obj
when a match is fitted, and the photo as camera.jpg when one is found.
A run writes one shared mesh.ply, which each query names as ../mesh.ply.
"""

import shutil
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

from .descriptor_index import Matches
from .errors import EmptyInput
from .minimal_solvers import BUNDLER_FLIP, Pose
from .sfm_data import QueryImage, SfmModel, scene_diameter

MLP_PIXEL_SIZE_MM = 0.01
PHOTO_NAME = "camera.jpg"  # the query photo, as the .mlp and .mtl name it
MESH_NAME = "mesh.ply"  # the point cloud one run shares across its queries
# points export_ply formats at once: its memory scales with this, not the model
_PLY_ROWS = 2048


def _fmt(x: float) -> str:
    return f"{x + 0.0:.9g}"  # +0.0 folds negative zero away


def export_ply(model: SfmModel, path) -> None:
    """Write the point cloud as ASCII PLY with vertex colors, a block of
    _PLY_ROWS rows at a time."""
    if model.num_points == 0:
        raise EmptyInput("refusing to export an empty point cloud")
    with open(path, "w") as fh:
        fh.write("ply\n")
        fh.write("format ascii 1.0\n")
        fh.write(f"element vertex {model.num_points}\n")
        fh.write("property float x\n")
        fh.write("property float y\n")
        fh.write("property float z\n")
        fh.write("property uchar red\n")
        fh.write("property uchar green\n")
        fh.write("property uchar blue\n")
        fh.write("end_header\n")
        # one % a block of rows; %.9g is _fmt's format and +0.0 folds -0.0
        for lo in range(0, model.num_points, _PLY_ROWS):
            pos = model.positions[lo:lo + _PLY_ROWS] + 0.0
            rows = zip(pos.tolist(), model.colors[lo:lo + _PLY_ROWS].tolist())
            fh.write(("%.9g %.9g %.9g %d %d %d\n" * len(pos))
                     % tuple(v for xyz, rgb in rows for v in (*xyz, *rgb)))


def export_mlp(pose: Pose, query: QueryImage, path,
               mesh_filename: str = MESH_NAME) -> None:
    """Write a Meshlab project declaring the pose as a virtual camera.

    The rotation is converted to the viewer's -Z-looking frame with the
    same flip matrix used for bundler input; the focal length is stored
    in millimetres through a fixed 0.01 mm pixel size, so
    focal_mm / pixel_size = focal_px holds exactly.
    """
    rot_viewer = BUNDLER_FLIP @ pose.rotation
    tra = -np.asarray(pose.center, dtype=float)
    rot44 = np.eye(4)
    rot44[:3, :3] = rot_viewer

    root = ET.Element("MeshLabProject")
    group = ET.SubElement(root, "MeshGroup")
    mesh = ET.SubElement(group, "MLMesh",
                         label=mesh_filename, filename=mesh_filename)
    matrix = ET.SubElement(mesh, "MLMatrix44")
    matrix.text = ("\n1 0 0 0 \n0 1 0 0 \n0 0 1 0 \n0 0 0 1 \n")
    rasters = ET.SubElement(root, "RasterGroup")
    raster = ET.SubElement(rasters, "MLRaster", label=PHOTO_NAME)
    ET.SubElement(raster, "VCGCamera", attrib={
        "TranslationVector": f"{_fmt(tra[0])} {_fmt(tra[1])} {_fmt(tra[2])} 1",
        "LensDistortion": "0 0",
        "ViewportPx": f"{query.width} {query.height}",
        "PixelSizeMm": f"{_fmt(MLP_PIXEL_SIZE_MM)} {_fmt(MLP_PIXEL_SIZE_MM)}",
        "CenterPx": f"{_fmt(query.width / 2.0)} {_fmt(query.height / 2.0)}",
        "FocalMm": _fmt(pose.focal_px * MLP_PIXEL_SIZE_MM),
        "RotationMatrix": " ".join(_fmt(v) for v in rot44.reshape(-1)) + " ",
    })
    ET.SubElement(raster, "Plane", semantic="1", fileName=PHOTO_NAME)

    body = ET.tostring(root, encoding="unicode")
    with open(path, "w") as fh:
        fh.write("<!DOCTYPE MeshLabDocument>\n")
        fh.write(body)
        fh.write("\n")


def export_camera_obj(pose: Pose, path, image_size=(400, 300),
                      glyph_scale: float = 1.0) -> None:
    """Write a camera glyph: frustum edges plus a textured sprite quad.

    The sprite sits one glyph_scale unit in front of the center on the
    viewing axis, sized to the image's angular extent at the pose's
    focal length.
    """
    width, height = image_size
    right, up, forward = pose.rotation
    center = np.asarray(pose.center, dtype=float)
    plane_center = center + glyph_scale * forward
    hx = glyph_scale * width / (2.0 * pose.focal_px)
    hy = glyph_scale * height / (2.0 * pose.focal_px)
    corners = [plane_center - hx * right - hy * up,
               plane_center + hx * right - hy * up,
               plane_center + hx * right + hy * up,
               plane_center - hx * right + hy * up]

    mtl_path = Path(str(path) + ".mtl")
    with open(mtl_path, "w") as fh:
        fh.write("newmtl sprite\n")
        fh.write("Kd 1 1 1\n")
        fh.write(f"map_Kd {PHOTO_NAME}\n")

    with open(path, "w") as fh:
        fh.write(f"mtllib {mtl_path.name}\n")
        fh.write(f"v {_fmt(center[0])} {_fmt(center[1])} {_fmt(center[2])}\n")
        for c in corners:
            fh.write(f"v {_fmt(c[0])} {_fmt(c[1])} {_fmt(c[2])}\n")
        fh.write("vt 0 0\n")
        fh.write("vt 1 0\n")
        fh.write("vt 1 1\n")
        fh.write("vt 0 1\n")
        fh.write("usemtl sprite\n")
        fh.write("f 2/1 3/2 4/3 5/4\n")
        for corner_idx in (2, 3, 4, 5):
            fh.write(f"l 1 {corner_idx}\n")
        fh.write("l 2 3 4 5 2\n")


def export_projection_obj(pose: Pose, fitted: Matches, model: SfmModel, path,
                          plane_depth: float = 1.0) -> None:
    """Write one polyline per fitted match: center, image plane, point.

    The middle vertex of each polyline lies on the straight camera-to-
    point segment at camera depth plane_depth, i.e. where the edge
    pierces the sprite plane of the camera glyph.
    """
    if not len(fitted):
        raise EmptyInput("no fitted matches to export")
    center = np.asarray(pose.center, dtype=float)
    points = model.positions[fitted.point_idx]
    rel = points - center
    # a dot with the rotation's last row rounds as world_to_camera does on
    # one point; (rel @ rotation.T)[:, 2] can differ in the last bit
    depth = rel @ pose.rotation[2]
    middle = center + (plane_depth / depth)[:, None] * rel
    rows = np.stack([np.broadcast_to(center, points.shape), middle, points], axis=1)
    n = len(fitted)
    with open(path, "w") as fh:
        # one % over all rows; %.9g is _fmt's format and +0.0 folds -0.0
        fh.write(("v %.9g %.9g %.9g\n" * 3 * n) % tuple((rows + 0.0).ravel().tolist()))
        fh.write(("l %d %d %d\n" * n) % tuple(range(1, 3 * n + 1)))


def export_query_bundle(pose: Pose, query: QueryImage, fitted: Matches,
                        model: SfmModel, out_dir, image_source=None,
                        write_mesh: bool = True,
                        mesh_filename: str = MESH_NAME) -> None:
    """Write the full per-query export set into out_dir.

    The camera glyph spans one percent of the point-cloud bounding-box
    diagonal.  The query photograph is copied next to the exports as
    PHOTO_NAME when a source file is supplied.  A shared mesh in a
    parent directory can be referenced through mesh_filename with
    write_mesh=False.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if write_mesh:
        export_ply(model, out / mesh_filename)

    glyph = max(scene_diameter(model) * 0.01, 1e-6)
    export_mlp(pose, query, out / "camera.mlp", mesh_filename=mesh_filename)
    export_camera_obj(pose, out / "camera.obj", (query.width, query.height),
                      glyph)
    if len(fitted):
        export_projection_obj(pose, fitted, model, out / "camera_proj.obj",
                              glyph)
    if image_source is not None and Path(image_source).is_file():
        shutil.copyfile(image_source, out / PHOTO_NAME)
