"""Exporters for inspecting results in a mesh viewer.

Every file is written from one template, as ASCII with
9-significant-digit floats, so outputs are diffable and byte-stable.
The point cloud becomes a PLY with per-vertex color, a pose becomes a
Meshlab project (virtual camera), a camera glyph OBJ (frustum plus
textured sprite quad) and a projection OBJ whose polylines run from the
camera center through the image plane to each fitted 3D point.  The
PLY is formatted _PLY_ROWS points at a time, so an export holds one
block of rows as Python objects and text (under 1 MB at 2 048 rows),
whatever the model's size.

export_query_bundle writes one query's set into out_dir and returns
nothing: camera.mlp, camera.obj with camera.obj.mtl, camera_proj.obj
when a match is fitted, and the photo as camera.jpg when one is found.
A run writes one shared mesh.ply, which each query names as ../mesh.ply.
"""

import shutil
from pathlib import Path

import numpy as np

from .descriptor_index import Matches
from .errors import EmptyInput
from .minimal_solvers import BUNDLER_FLIP, Pose
from .sfm_data import QueryImage, SfmModel

MLP_PIXEL_SIZE_MM = 0.01
PHOTO_NAME = "camera.jpg"  # the query photo, as the .mlp and .mtl name it
MESH_NAME = "mesh.ply"  # the point cloud one run shares across its queries
# points export_ply formats at once: its memory scales with this, not the model
_PLY_ROWS = 2048
# each file's template: %.9g is every float's format, and each float is
# passed + 0.0, which folds negative zero away
_PLY_HEADER = ("ply\nformat ascii 1.0\nelement vertex %d\n"
               "property float x\nproperty float y\nproperty float z\n"
               "property uchar red\nproperty uchar green\nproperty uchar blue\n"
               "end_header\n")
_MLP = ("<!DOCTYPE MeshLabDocument>\n<MeshLabProject><MeshGroup>"
        '<MLMesh label="%s" filename="%s"><MLMatrix44>\n'
        "1 0 0 0 \n0 1 0 0 \n0 0 1 0 \n0 0 0 1 \n</MLMatrix44></MLMesh></MeshGroup>"
        f'<RasterGroup><MLRaster label="{PHOTO_NAME}"><VCGCamera '
        'TranslationVector="%.9g %.9g %.9g 1" LensDistortion="0 0" ViewportPx="%s %s" '
        'PixelSizeMm="%.9g %.9g" CenterPx="%.9g %.9g" FocalMm="%.9g" RotationMatrix="'
        + "%.9g " * 16 + f'" /><Plane semantic="1" fileName="{PHOTO_NAME}" />'
        "</MLRaster></RasterGroup></MeshLabProject>\n")
_OBJ = ("mtllib %s\n" + "v %.9g %.9g %.9g\n" * 5 + "vt 0 0\nvt 1 0\nvt 1 1\nvt 0 1\n"
        "usemtl sprite\nf 2/1 3/2 4/3 5/4\nl 1 2\nl 1 3\nl 1 4\nl 1 5\nl 2 3 4 5 2\n")
_MTL = f"newmtl sprite\nKd 1 1 1\nmap_Kd {PHOTO_NAME}\n"
# an XML attribute's escapes, as ElementTree writes them, with no XML import
# (xml.sax.saxutils's quoteattr would load urllib.request and ssl: 1.4 MB resident)
_ATTRIBUTE_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;",
                                    "\r": "&#13;", "\n": "&#10;", "\t": "&#09;"})


def export_ply(model: SfmModel, path) -> None:
    """Write the point cloud as ASCII PLY with vertex colors, a block of
    _PLY_ROWS rows at a time."""
    if model.num_points == 0:
        raise EmptyInput("refusing to export an empty point cloud")
    with open(path, "w") as fh:
        fh.write(_PLY_HEADER % model.num_points)
        for lo in range(0, model.num_points, _PLY_ROWS):  # one % a block of rows
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
    rot44 = np.eye(4)
    rot44[:3, :3] = BUNDLER_FLIP @ pose.rotation
    mesh = mesh_filename.translate(_ATTRIBUTE_ESCAPES)
    with open(path, "w") as fh:
        fh.write(_MLP % (mesh, mesh, *(-np.asarray(pose.center, dtype=float) + 0.0),
                         query.width, query.height, MLP_PIXEL_SIZE_MM, MLP_PIXEL_SIZE_MM,
                         query.width / 2.0 + 0.0, query.height / 2.0 + 0.0,
                         pose.focal_px * MLP_PIXEL_SIZE_MM + 0.0, *(rot44.ravel() + 0.0)))


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
    hx = glyph_scale * width / (2.0 * pose.focal_px)
    hy = glyph_scale * height / (2.0 * pose.focal_px)
    # the sprite's corners: lower left, lower right, upper right, upper left
    corners = (center + glyph_scale * forward + np.outer([-1, 1, 1, -1], hx * right)
               + np.outer([-1, -1, 1, 1], hy * up))
    mtl_path = Path(str(path) + ".mtl")
    mtl_path.write_text(_MTL)
    with open(path, "w") as fh:
        fh.write(_OBJ % (mtl_path.name, *(np.vstack([center, corners]) + 0.0).ravel()))


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
        # one % over all rows
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

    glyph = max(model.diameter * 0.01, 1e-6)
    export_mlp(pose, query, out / "camera.mlp", mesh_filename=mesh_filename)
    export_camera_obj(pose, out / "camera.obj", (query.width, query.height),
                      glyph)
    if len(fitted):
        export_projection_obj(pose, fitted, model, out / "camera_proj.obj",
                              glyph)
    if image_source is not None and Path(image_source).is_file():
        shutil.copyfile(image_source, out / PHOTO_NAME)
