"""Spans and counts at the library's layer boundaries, from outside the library.

``Tracer.install`` rebinds each layer function at every ``sfmloc``
module attribute that holds it (``ransac_basic.solve_p3p`` as well as
``minimal_solvers.solve_p3p``) and wraps two methods on their classes;
``uninstall`` puts the originals back.  A function that no longer exists
is listed in ``absent`` instead of failing the run.  Each call becomes a
span (name, start, end, parent) plus a small figure taken from its
arguments or result; ``layer_metrics`` turns the spans into the
per-layer metrics of ``METRICS``.
"""

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# (module, function, figure kept from (args, result)) per layer boundary
FUNCTIONS = [
    ("sfmloc.sfm_data", "parse_bundle", None),
    ("sfmloc.sfm_data", "parse_keyfile", None),
    ("sfmloc.sfm_data", "build_mean_descriptors", None),
    ("sfmloc.descriptor_index", "build_index", None),
    ("sfmloc.descriptor_index", "find_good_matches",
     lambda args, res: (len(args[1].features), len(res))),
    ("sfmloc.ransac_basic", "estimate_pose_basic",
     lambda args, res: res.iterations_used),
    ("sfmloc.ransac_basic", "_sample_unique_idx", None),
    ("sfmloc.ransac_advanced", "estimate_pose_advanced", None),
    ("sfmloc.ransac_advanced", "_draw_cooccurrence_idx", None),
    ("sfmloc.ransac_advanced", "backmatch",
     lambda args, res: len(res) - len(args[2])),
    ("sfmloc.minimal_solvers", "solve_p3p", lambda args, res: len(res)),
    ("sfmloc.minimal_solvers", "solve_p4pf", lambda args, res: len(res)),
    ("sfmloc.pose_quality", "fitted_mask", None),
    ("sfmloc.pose_quality", "coverage_area_xy", None),
    ("sfmloc.viz_export", "export_ply", None),
    ("sfmloc.viz_export", "export_query_bundle", None),
]
# (module, class, method, figure)
METHODS = [
    ("sfmloc.descriptor_index", "DescriptorIndex", "query", None),
    ("sfmloc.ransac_basic", "MatchContext", "evaluate",
     lambda args, res: res[1] is not None),
]

# name -> (unit, better); per-query times are means over traced queries,
# set-up times are per set-up, counts are totals over the traced queries
METRICS = {
    "sfm_data.parse_bundle_s": ("s", "lower"),
    "sfm_data.build_mean_descriptors_self_s": ("s", "lower"),
    "sfm_data.parse_keyfile_s": ("s", "lower"),
    "sfm_data.parse_keyfile_mb_per_s": ("MB/s", "higher"),
    "sfm_data.query_keyfile_s": ("s/query", "lower"),
    "descriptor_index.build_index_s": ("s", "lower"),
    "descriptor_index.match_s": ("s/query", "lower"),
    "descriptor_index.match_features_per_s": ("1/s", "higher"),
    "descriptor_index.good_ratio": ("ratio", "higher"),
    "descriptor_index.knn_calls": ("count", "lower"),
    "ransac_basic.estimate_s": ("s/query", "lower"),
    "ransac_basic.estimate_self_s": ("s/query", "lower"),
    "ransac_basic.iterations": ("count", "lower"),
    "ransac_basic.samples": ("count", "lower"),
    "ransac_advanced.estimate_s": ("s/query", "lower"),
    "ransac_advanced.estimate_self_s": ("s/query", "lower"),
    "ransac_advanced.sample_s": ("s/query", "lower"),
    "ransac_advanced.samples": ("count", "lower"),
    "ransac_advanced.samples_exhausted": ("count", "lower"),
    "ransac_advanced.sample_ok_ratio": ("ratio", "higher"),
    "ransac_advanced.backmatch_s": ("s/query", "lower"),
    "ransac_advanced.backmatch_runs": ("count", "lower"),
    "ransac_advanced.backmatch_pops": ("count", "lower"),
    "ransac_advanced.backmatch_accepts": ("count", "higher"),
    "ransac_advanced.backmatch_accept_ratio": ("ratio", "higher"),
    "minimal_solvers.p3p_s": ("s/query", "lower"),
    "minimal_solvers.p3p_calls": ("count", "lower"),
    "minimal_solvers.p4pf_s": ("s/query", "lower"),
    "minimal_solvers.p4pf_calls": ("count", "lower"),
    "minimal_solvers.solve_fail_ratio": ("ratio", "lower"),
    "minimal_solvers.candidates_per_solve": ("ratio", "higher"),
    "pose_quality.fitted_mask_s": ("s/query", "lower"),
    "pose_quality.fitted_mask_calls": ("count", "lower"),
    "pose_quality.coverage_s": ("s/query", "lower"),
    "pose_quality.coverage_calls": ("count", "lower"),
    "pose_quality.scored_ratio": ("ratio", "higher"),
    "viz_export.export_ply_s": ("s", "lower"),
    "viz_export.export_query_s": ("s/query", "lower"),
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1          # index into Tracer.spans, -1 for a root
    error: str | None = None  # exception type name when the call raised
    figure: object = None
    children: list = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.spans = []
        self._open = []
        self._saved = []      # (owner, attribute, original) to restore
        self.absent = []

    @contextmanager
    def span(self, name: str):
        idx = self._begin(name)
        try:
            yield
        finally:
            self._end(idx, None, None)

    def _begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        if parent >= 0:
            self.spans[parent].children.append(idx)
        self._open.append(idx)
        return idx

    def _end(self, idx: int, error, figure) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        span.error = error
        span.figure = figure
        self._open.pop()

    def _wrap(self, name: str, fn, figure):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._begin(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer._end(idx, type(exc).__name__, None)
                raise
            tracer._end(idx, None, _figure(figure, args, result))
            return result
        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "sfmloc" or key.startswith("sfmloc."))]
        for mod_name, fn_name, figure in FUNCTIONS:
            original = getattr(sys.modules.get(mod_name), fn_name, None)
            if original is None:
                self.absent.append(f"{mod_name}.{fn_name}")
                continue
            traced = self._wrap(fn_name, original, figure)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, attr, original))
                        setattr(mod, attr, traced)
        for mod_name, cls_name, meth_name, figure in METHODS:
            cls = getattr(sys.modules.get(mod_name), cls_name, None)
            original = vars(cls).get(meth_name) if cls is not None else None
            if original is None:
                self.absent.append(f"{mod_name}.{cls_name}.{meth_name}")
                continue
            self._saved.append((cls, meth_name, original))
            setattr(cls, meth_name,
                    self._wrap(f"{cls_name}.{meth_name}", original, figure))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    @contextmanager
    def installed(self):
        """Trace the calls made inside the block."""
        self.absent.clear()
        self.install()
        try:
            yield
        finally:
            self.uninstall()


def _figure(figure, args, result):
    """The call's figure; None when there is none or the call's shape changed."""
    if figure is None:
        return None
    try:
        return figure(args, result)
    except (AttributeError, IndexError, TypeError):
        return None


def _under(spans, root_name: str) -> list:
    """Spans whose root ancestor is named root_name, plus the roots."""
    root_of = []
    for s in spans:
        root_of.append(s.name if s.parent < 0 else root_of[s.parent])
    return [s for s, r in zip(spans, root_of) if r == root_name]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, db_keyfile_bytes: int) -> dict:
    """Per-layer metrics of METRICS from the spans of one traced run.

    The run is expected to hold "setup" root spans around set-up and
    "query" root spans around each query.  Self time is a span's
    duration minus that of its direct children.
    """
    spans = tracer.spans

    def by_name(group):
        out = {}
        for s in group:
            out.setdefault(s.name, []).append(s)
        return out

    setup = by_name(_under(spans, "setup"))
    query = by_name(_under(spans, "query"))
    n_setup = max(len(setup.get("setup", [])), 1)
    n_query = max(len(query.get("query", [])), 1)

    def total(group, name):
        return sum(s.seconds for s in group.get(name, []))

    def self_total(group, name):
        return sum(s.seconds - sum(spans[c].seconds for c in s.children)
                   for s in group.get(name, []))

    def count(group, name):
        return len(group.get(name, []))

    def figures(group, name):
        return [s.figure for s in group.get(name, []) if s.figure is not None]

    matched = figures(query, "find_good_matches")
    features = sum(f for f, _ in matched)
    good = sum(g for _, g in matched)
    draws = query.get("_draw_cooccurrence_idx", [])
    exhausted = sum(s.error == "SamplingExhausted" for s in draws)
    pops = sum(spans[s.parent].name == "backmatch"
               for s in query.get("DescriptorIndex.query", []))
    accepts = sum(figures(query, "backmatch"))
    solves = query.get("solve_p3p", []) + query.get("solve_p4pf", [])
    solve_fail = sum(s.error is not None for s in solves)
    candidates = sum(figures(query, "solve_p3p") + figures(query, "solve_p4pf"))
    evaluated = figures(query, "MatchContext.evaluate")
    db_parse = total(setup, "parse_keyfile")

    values = {
        "sfm_data.parse_bundle_s": total(setup, "parse_bundle") / n_setup,
        "sfm_data.build_mean_descriptors_self_s":
            self_total(setup, "build_mean_descriptors") / n_setup,
        "sfm_data.parse_keyfile_s": db_parse / n_setup,
        "sfm_data.parse_keyfile_mb_per_s":
            _ratio(db_keyfile_bytes * n_setup / 1e6, db_parse),
        "sfm_data.query_keyfile_s": total(query, "parse_keyfile") / n_query,
        "descriptor_index.build_index_s": total(setup, "build_index") / n_setup,
        "descriptor_index.match_s": total(query, "find_good_matches") / n_query,
        "descriptor_index.match_features_per_s":
            _ratio(features, total(query, "find_good_matches")),
        "descriptor_index.good_ratio": _ratio(good, features),
        "descriptor_index.knn_calls": count(query, "DescriptorIndex.query"),
        "ransac_basic.estimate_s":
            total(query, "estimate_pose_basic") / n_query,
        "ransac_basic.estimate_self_s":
            self_total(query, "estimate_pose_basic") / n_query,
        "ransac_basic.iterations": sum(figures(query, "estimate_pose_basic")),
        "ransac_basic.samples": count(query, "_sample_unique_idx"),
        "ransac_advanced.estimate_s":
            total(query, "estimate_pose_advanced") / n_query,
        "ransac_advanced.estimate_self_s":
            self_total(query, "estimate_pose_advanced") / n_query,
        "ransac_advanced.sample_s":
            total(query, "_draw_cooccurrence_idx") / n_query,
        "ransac_advanced.samples": len(draws),
        "ransac_advanced.samples_exhausted": exhausted,
        "ransac_advanced.sample_ok_ratio":
            _ratio(sum(s.error is None for s in draws), len(draws)),
        "ransac_advanced.backmatch_s": total(query, "backmatch") / n_query,
        "ransac_advanced.backmatch_runs": count(query, "backmatch"),
        "ransac_advanced.backmatch_pops": pops,
        "ransac_advanced.backmatch_accepts": accepts,
        "ransac_advanced.backmatch_accept_ratio": _ratio(accepts, pops),
        "minimal_solvers.p3p_s": total(query, "solve_p3p") / n_query,
        "minimal_solvers.p3p_calls": count(query, "solve_p3p"),
        "minimal_solvers.p4pf_s": total(query, "solve_p4pf") / n_query,
        "minimal_solvers.p4pf_calls": count(query, "solve_p4pf"),
        "minimal_solvers.solve_fail_ratio": _ratio(solve_fail, len(solves)),
        "minimal_solvers.candidates_per_solve":
            _ratio(candidates, len(solves)),
        "pose_quality.fitted_mask_s": total(query, "fitted_mask") / n_query,
        "pose_quality.fitted_mask_calls": count(query, "fitted_mask"),
        "pose_quality.coverage_s": total(query, "coverage_area_xy") / n_query,
        "pose_quality.coverage_calls": count(query, "coverage_area_xy"),
        "pose_quality.scored_ratio": _ratio(sum(evaluated), len(evaluated)),
        "viz_export.export_ply_s": total(setup, "export_ply") / n_setup,
        "viz_export.export_query_s":
            total(query, "export_query_bundle") / n_query,
    }
    return values


def query_seconds(tracer: Tracer) -> float:
    """Wall time of all traced queries."""
    return sum(s.seconds for s in tracer.spans if s.name == "query" and s.parent < 0)
