"""Camera localization in Structure-from-Motion point clouds.

Estimates full 6-DOF poses (optionally with focal length) of query
photographs against a bundler reconstruction, with a baseline RANSAC
pipeline, an advanced pipeline using co-occurrence prior sampling and
3D-to-2D backmatching, mesh/camera exporters and a benchmark harness.
"""

from .benchmark import (
    BenchmarkReport,
    Localizer,
    PoseError,
    SyntheticScene,
    generate_synthetic_scene,
    localize,
    pose_error,
    write_report,
    write_scene_dir,
)
from .descriptor_index import (
    DescriptorIndex,
    Matches,
    find_good_matches,
    ratio_test,
)
from .minimal_solvers import (
    BUNDLER_FLIP,
    Pose,
    bearing_vectors,
    bundler_to_internal,
    denormalize_points,
    internal_to_bundler,
    normalize_points,
    solve_p3p,
    solve_p4pf,
)
from .pose_quality import (
    CoverageStats,
    coverage_area_xy,
    coverage_window,
    fitted_mask,
)
from .ransac_advanced import (
    AdvancedParams,
    BackmatchParams,
    accept_probability,
    backmatch,
    estimate_pose_advanced,
)
from .ransac_basic import (
    BasicParams,
    MatchContext,
    PoseEstimate,
    estimate_pose_basic,
)
from .sfm_data import (
    KEYFILE_DTYPE,
    CameraRecord,
    QueryImage,
    SfmModel,
    build_mean_descriptors,
    keyfile_records,
    parse_bundle,
    parse_image_list,
    parse_keyfile,
    split_golden,
    write_bundle,
    write_keyfile,
)
from .viz_export import (
    export_camera_obj,
    export_mlp,
    export_ply,
    export_projection_obj,
    export_query_bundle,
)

__version__ = "0.1.0"
