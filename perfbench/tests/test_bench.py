"""The benchmark's pipeline agrees with the shipped CLI; the tracer is faithful.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import csv
import dataclasses
import json

import pytest

import pipeline
import run
import tracing
from workloads import WORKLOADS, generate_scene_dir

from sfmloc import benchmark, cli, minimal_solvers, ransac_basic

SMALL = dict(n_points=2000, n_cameras=30, image_size=(1200, 900),
             focal_px=600.0)
SEED = 11


@pytest.fixture(scope="module", params=list(WORKLOADS))
def small_scene(request, tmp_path_factory):
    wl = dataclasses.replace(WORKLOADS[request.param], n_queries=4,
                             outlier_fraction=0.3)
    scene = tmp_path_factory.mktemp(wl.name) / "scene"
    generate_scene_dir(wl, 5, scene, **SMALL)
    return wl, scene


def _csv_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def _bench_rows(wl, scene, out):
    prep = pipeline.prepare(wl.run_config(scene, out, SEED))
    return [pipeline.localize(prep, qi) for qi in range(len(prep.query_names))]


def test_bench_pipeline_matches_cli(small_scene, tmp_path):
    wl, scene = small_scene
    status = cli.main(wl.cli_args(scene, tmp_path / "cli", SEED)
                      + ["--benchmark"])
    assert status in (0, 1)
    rows = [benchmark.QueryResult(r.name, r.error, r.seconds,
                                  r.used_backmatching, r.iterations, r.failure)
            for r in _bench_rows(wl, scene, tmp_path / "bench")]
    benchmark.write_report(benchmark.report_from_rows(rows), tmp_path / "bench")

    ours = _csv_rows(tmp_path / "bench" / "per_query.csv")
    theirs = _csv_rows(tmp_path / "cli" / "per_query.csv")
    assert [r["name"] for r in ours] == [r["name"] for r in theirs]
    for a, b in zip(ours, theirs):
        for key in ("iterations", "used_backmatching", "failure"):
            assert a[key] == b[key], (a["name"], key)
        if a["translation"] or b["translation"]:
            assert float(a["translation"]) == pytest.approx(
                float(b["translation"]), abs=1e-9)


def test_advanced_scene_mixes_solvers(small_scene):
    wl, scene = small_scene
    meta = cli._load_meta(scene / "meta.txt")
    focals = [meta[name][2] for name in sorted(meta)]
    if wl.drop_focal_every_other:
        assert focals[0::2] == [SMALL["focal_px"]] * 2
        assert focals[1::2] == [None, None]
    else:
        assert None not in focals


def test_traced_round_reproduces_untraced(small_scene, tmp_path):
    wl, scene = small_scene
    reference = _bench_rows(wl, scene, tmp_path / "a")
    tracer = tracing.Tracer()
    with tracer.installed():
        with tracer.span("setup"):
            prep = pipeline.prepare(wl.run_config(scene, tmp_path / "b", SEED))
        rows = [pipeline.localize(prep, qi, tracer.span)
                for qi in range(len(prep.query_names))]
    assert run.check_rows(rows, reference) == []
    assert tracer.absent == []

    m = tracing.layer_metrics(tracer, prep.db_keyfile_bytes)
    assert set(m) == set(tracing.METRICS)
    assert m["descriptor_index.knn_calls"] >= len(rows)
    assert m["sfm_data.parse_keyfile_s"] > 0
    solves = m["minimal_solvers.p3p_calls"] + m["minimal_solvers.p4pf_calls"]
    if wl.mode == "basic":
        assert m["ransac_basic.samples"] == solves
        assert m["ransac_advanced.samples"] == 0
    else:
        assert m["ransac_advanced.samples"] == 100 * len(rows) + 100 * \
            m["ransac_advanced.backmatch_runs"]
        assert (m["minimal_solvers.p4pf_calls"] > 0) == \
            wl.drop_focal_every_other


def test_uninstall_restores_every_binding():
    original = minimal_solvers.solve_p3p
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert ransac_basic.solve_p3p is not original
        assert minimal_solvers.solve_p3p is ransac_basic.solve_p3p
    finally:
        tracer.uninstall()
    assert ransac_basic.solve_p3p is original
    assert minimal_solvers.solve_p3p is original


def test_missing_function_is_reported_absent(monkeypatch):
    monkeypatch.setattr(tracing, "FUNCTIONS", tracing.FUNCTIONS + [
        ("sfmloc.ransac_basic", "no_such_function", None)])
    monkeypatch.setattr(tracing, "METHODS", tracing.METHODS + [
        ("sfmloc.ransac_basic", "MatchContext", "no_such_method", None)])
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["sfmloc.ransac_basic.no_such_function",
                             "sfmloc.ransac_basic.MatchContext.no_such_method"]


def test_benchmark_json_names_every_reported_metric():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == run.per_layer(tracing)
