"""The sfmloc command line, end to end on a scene directory."""

import csv
import io
import re
import shutil
import tempfile
import warnings
import weakref
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sfmloc import (
    AdvancedParams,
    BackmatchParams,
    BasicParams,
    CameraRecord,
    SfmModel,
    cli,
    generate_synthetic_scene,
    keyfile_records,
    parse_bundle,
    parse_keyfile,
    write_bundle,
    write_keyfile,
    write_scene_dir,
)


@pytest.fixture(scope="module")
def scene_dir(clean_scene, tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "scene"
    write_scene_dir(clean_scene, path)
    return path


@pytest.fixture
def scene_copy(scene_dir, tmp_path):
    """A scene directory the test may edit."""
    return shutil.copytree(scene_dir, tmp_path / "scene")


def required_flags(scene, out):
    return ["--model", str(scene / "model.out"), "--keys", str(scene / "keys"),
            "--list", str(scene / "query_list.txt"), "--out", str(out)]


def run_cli(scene, out, mode="basic", *extra):
    return cli.main([*required_flags(scene, out), "--mode", mode,
                     "--query", "all", "--seed", "3", "--benchmark", *extra])


def rows(out):
    with open(out / "per_query.csv") as fh:
        return list(csv.DictReader(fh))


def without_seconds(out):
    return [{k: v for k, v in r.items() if k != "seconds"} for r in rows(out)]


@pytest.mark.parametrize("mode", ["basic", "advanced"])
def test_localizes_every_query(scene_dir, tmp_path, mode):
    assert run_cli(scene_dir, tmp_path, mode) == 0
    for name in ("per_query.csv", "histogram_time.csv", "histogram_l2.csv",
                 "histogram_focal.csv", "summary.txt"):
        assert (tmp_path / name).is_file()
    got = rows(tmp_path)
    assert len(got) == 4
    for row in got:
        assert row["failure"] == ""
        assert float(row["translation"]) < 1e-3
        assert (tmp_path / row["name"].replace(".jpg", "") / "camera.mlp").is_file()


def test_full_model_is_freed_before_the_queries(scene_dir, tmp_path, monkeypatch):
    """The queries read the info model; the parsed model, about as large,
    is not held beside it."""
    parsed, alive, cli_localize = [], [], cli.localize

    def parse(fh):
        model = parse_bundle(fh)
        parsed.append(weakref.ref(model))
        return model

    def localize(*args, **kwargs):
        alive.append(parsed[0]() is not None)
        return cli_localize(*args, **kwargs)
    monkeypatch.setattr(cli, "parse_bundle", parse)
    monkeypatch.setattr(cli, "localize", localize)
    assert run_cli(scene_dir, tmp_path) == 0
    assert alive == [False] * 4


def test_advanced_run_builds_no_camera_sets(noisy_scene, tmp_path, monkeypatch):
    """Sampling and backmatching read the model's view lists: a run with
    SfmModel.visibilities raising writes the rows of a run without.  Phase
    one cannot fit every match of a scene with outliers, so with these
    flags every query backmatches."""
    scene = tmp_path / "scene"
    write_scene_dir(noisy_scene, scene)
    flags = ("--skip-count", "1000000000", "--skip-fraction", "1")
    code = run_cli(scene, tmp_path / "plain", "advanced", *flags)

    def refuse(model):
        raise AssertionError("SfmModel.visibilities was read")
    monkeypatch.setattr(SfmModel, "visibilities", property(refuse))
    assert run_cli(scene, tmp_path / "patched", "advanced", *flags) == code
    got = without_seconds(tmp_path / "patched")
    assert got == without_seconds(tmp_path / "plain")
    assert [r["used_backmatching"] for r in got] == ["True"] * len(noisy_scene.queries)


@pytest.mark.parametrize("line", ["query_000.jpg 800",
                                  "query_000.jpg wide 600 400.0",
                                  "query_000.jpg 800 600 f400",
                                  "query_000.jpg 800 600 0",
                                  "query_000.jpg 800 600 nan",
                                  "query_000.jpg 800 600 inf",
                                  "query_000.jpg 800 600 -800",
                                  "query_000.jpg 0 600 400.0",
                                  "query_000.jpg 99999999999999999999 600 400.0",
                                  "query_000.jpg 800 2147483648 400.0"])
def test_malformed_meta_exits_2(scene_copy, tmp_path, capsys, line):
    meta = scene_copy / "meta.txt"
    lines = meta.read_text().splitlines()
    meta.write_text("\n".join(lines[:1] + [line] + lines[2:]) + "\n")
    assert run_cli(scene_copy, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert f"{meta}:2:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("sizes", ["65536 600", "800 65536"])
def test_image_size_past_jpeg_limit_exits_2(scene_copy, tmp_path, capsys, sizes):
    meta = scene_copy / "meta.txt"
    lines = meta.read_text().splitlines()
    meta.write_text("\n".join([f"query_000.jpg {sizes} 400.0"] + lines[1:]) + "\n")
    assert run_cli(scene_copy, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: MalformedMetadata: {meta}:1:")
    assert "Traceback" not in err


def test_load_meta_accepts_jpeg_limit(tmp_path):
    meta = tmp_path / "meta.txt"
    meta.write_text("a.jpg 65535 65535 400\nb.jpg 1 1\n")
    assert cli._load_meta(meta) == {"a.jpg": (65535, 65535, 400.0),
                                    "b.jpg": (1, 1, None)}


def test_camera_list_short_of_the_model_exits_2(scene_copy, tmp_path, capsys):
    names = scene_copy / "list.txt"
    names.write_text("".join(names.read_text().splitlines(True)[:-1]))
    assert run_cli(scene_copy, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "names 19 images" in err and "has 20 cameras" in err
    assert "Traceback" not in err


def test_camera_list_naming_an_image_twice_exits_2(scene_copy, tmp_path, capsys):
    """A database camera named like a query must not become its golden pose."""
    names = scene_copy / "list.txt"
    lines = names.read_text().splitlines(True)
    lines[5] = "query_000.jpg\n"
    names.write_text("".join(lines))
    assert run_cli(scene_copy, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "CameraListMismatch" in err and "'query_000.jpg' twice" in err
    assert "Traceback" not in err


def _drop_keyfile(scene):
    (scene / "keys" / "query_001.key").unlink()


def _drop_meta_entry(scene):
    meta = scene / "meta.txt"
    meta.write_text("".join(line for line in meta.read_text().splitlines(True)
                            if not line.startswith("query_001.jpg")))


def _truncate_keyfile(scene):
    key = scene / "keys" / "query_001.key"
    key.write_text(key.read_text()[:500])


def _with_byte(relpath, byte):
    """A defect that puts ``byte`` in the middle of the scene file ``relpath``."""
    def defect(scene):
        path = scene / relpath
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2] + byte + data[len(data) // 2:])
        return []
    defect.__name__ = f"_{byte.hex()}_in_{relpath.replace('/', '_')}"
    return defect


def _descriptor_value_300(scene):
    key = scene / "keys" / "query_001.key"
    lines = key.read_text().splitlines()
    lines[2] = " 300 " + lines[2].split(maxsplit=1)[1]  # first descriptor value
    key.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("defect, failure", [
    (_drop_keyfile, "FileNotFoundError"),
    (_drop_meta_entry, "MalformedMetadata"),
    (_truncate_keyfile, "TruncatedFile"),
    (_descriptor_value_300, "TruncatedFile"),
    (_with_byte("keys/query_001.key", b"\xff"), "TruncatedFile"),
])
def test_bad_query_fails_only_its_row(scene_copy, tmp_path, defect, failure):
    defect(scene_copy)
    assert run_cli(scene_copy, tmp_path / "out", "basic") == 1
    got = {r["name"]: r["failure"] for r in rows(tmp_path / "out")}
    assert got == {"query_000.jpg": "", "query_001.jpg": failure,
                   "query_002.jpg": "", "query_003.jpg": ""}


def test_query_the_model_cannot_localize_fails_only_its_row(clean_scene, scene_dir,
                                                            scene_copy, tmp_path):
    """A photograph of nowhere, listed after the scene's queries: its
    features are noisy copies of random points' descriptors at random
    positions.  Its camera sees no point, so the info model and the seeds
    of the other queries stay those of a run without it."""
    name, (width, height), n = "nowhere.jpg", clean_scene.image_size, 400
    rng = np.random.default_rng(8)
    means = clean_scene.model.mean_descriptors
    noisy = means[rng.integers(len(means), size=n)] + rng.normal(0.0, 2.0, (n, 128))
    features = keyfile_records(rng.uniform(0, (width, height), (n, 2)),
                               np.clip(np.rint(noisy), 0, 255).astype(np.uint8))
    with open(scene_copy / "keys" / "nowhere.key", "w") as fh:
        write_keyfile(features, fh)
    with open(scene_copy / "model.out") as fh:
        model = parse_bundle(fh)
    camera = CameraRecord(clean_scene.focal_px, 0.0, 0.0, np.eye(3), np.zeros(3))
    with open(scene_copy / "model.out", "w") as fh:
        write_bundle(SfmModel([*model.cameras, camera], model.positions, model.colors,
                              model.track_offsets, model.track_cams,
                              model.track_keys, model.track_xy), fh)
    for listed, line in (("list.txt", name), ("query_list.txt", name),
                         ("meta.txt", f"{name} {width} {height} {clean_scene.focal_px!r}")):
        with open(scene_copy / listed, "a") as fh:
            fh.write(line + "\n")

    flags = ("--max-iterations", "200")
    assert run_cli(scene_copy, tmp_path / "with", "basic", *flags) == 1
    assert run_cli(scene_dir, tmp_path / "without", "basic", *flags) == 0
    got = without_seconds(tmp_path / "with")
    assert [(r["name"], r["failure"]) for r in got[-1:]] == [(name, "NoSolution")]
    assert got[:-1] == without_seconds(tmp_path / "without")


def _drop_db_keyfile(scene):
    (scene / "keys" / "db_000.key").unlink()
    return []


def _drop_db_keyfile_cached(scene):
    return _drop_db_keyfile(scene) + ["--cache-index", str(scene / "cache.npz")]


def _truncate_db_keyfile(scene):
    key = scene / "keys" / "db_000.key"
    key.write_text(key.read_text()[:500])
    return []


def _bad_model_magic(scene):
    model = scene / "model.out"
    model.write_text("# Bundle file v0.2\n" + model.read_text().split("\n", 1)[1])
    return []


def _query_missing_from_camera_list(scene):
    with open(scene / "query_list.txt", "a") as fh:
        fh.write("query_999.jpg\n")
    return []


def _query_listed_twice(scene):
    """Each listed query gets its own seed and export directory: a repeat
    would run twice, and its second run overwrite the first's files."""
    with open(scene / "query_list.txt", "a") as fh:
        fh.write("query_000.jpg\n")
    return []


def _query_flag_missing_from_query_list(scene):
    return ["--query", "query_999.jpg"]


def _missing_model(scene):
    return ["--model", str(scene / "missing.out")]


def _drop_meta(scene):
    (scene / "meta.txt").unlink()
    return []


def _missing_meta_flag(scene):
    return ["--meta", str(scene / "missing.txt")]


def _empty_db_keyfile(scene):
    (scene / "keys" / "db_000.key").write_text("0 128\n")
    return []


def _rewrite_model(scene, edit):
    with open(scene / "model.out") as fh:
        model = parse_bundle(fh)
    edit(model)
    with open(scene / "model.out", "w") as fh:
        write_bundle(model, fh)
    return []


def _negative_view_key(scene):
    is_db = np.array([name.startswith("db_")
                      for name in (scene / "list.txt").read_text().split()])

    def edit(model):
        model.track_keys[np.flatnonzero(is_db[model.track_cams])[0]] = -1
    return _rewrite_model(scene, edit)


def _nan_point(scene):
    def edit(model):
        model.positions[0, 0] = np.nan
    return _rewrite_model(scene, edit)


def _inf_focal(scene):
    def edit(model):
        model.cameras[0] = replace(model.cameras[0], focal_px=np.inf)
    return _rewrite_model(scene, edit)


_ff_in_model = _with_byte("model.out", b"\xff")
_ff_in_camera_list = _with_byte("list.txt", b"\xff")
_ff_in_meta = _with_byte("meta.txt", b"\xff")
_ff_in_db_keyfile = _with_byte("keys/db_000.key", b"\xff")
_nul_in_camera_list = _with_byte("list.txt", b"\0")

# the error type a defect must name, where the test pins it
SETUP_ERROR = {_query_missing_from_camera_list: "UnknownQuery",
               _query_flag_missing_from_query_list: "UnknownQuery",
               _query_listed_twice: "DuplicateQuery",
               _drop_meta: "FileNotFoundError",
               _missing_meta_flag: "FileNotFoundError",
               _empty_db_keyfile: "IndexOutOfRange",
               _negative_view_key: "TruncatedFile",
               _ff_in_model: "TruncatedFile",
               _ff_in_camera_list: "TruncatedFile",
               _ff_in_meta: "MalformedMetadata",
               _ff_in_db_keyfile: "TruncatedFile",
               _nul_in_camera_list: "TruncatedFile",
               _nan_point: "TruncatedFile",
               _inf_focal: "TruncatedFile"}


@pytest.mark.parametrize("defect", [
    _drop_db_keyfile, _drop_db_keyfile_cached, _truncate_db_keyfile,
    _bad_model_magic, _query_missing_from_camera_list, _query_listed_twice,
    _query_flag_missing_from_query_list, _missing_model, _drop_meta,
    _missing_meta_flag, _empty_db_keyfile, _negative_view_key,
    _ff_in_model, _ff_in_camera_list, _ff_in_meta, _ff_in_db_keyfile,
    _nul_in_camera_list, _nan_point, _inf_focal])
def test_setup_failure_exits_2(scene_copy, tmp_path, capsys, defect):
    extra = defect(scene_copy)
    assert run_cli(scene_copy, tmp_path / "out", "basic", *extra) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {SETUP_ERROR.get(defect, '')}")
    assert "Traceback" not in err


@pytest.fixture
def averaged(monkeypatch):
    """One entry per run that averaged descriptors instead of reading a cache."""
    calls = []
    build = cli.build_mean_descriptors
    monkeypatch.setattr(cli, "build_mean_descriptors",
                        lambda *a: calls.append(1) or build(*a))
    return calls


def test_cache_is_invalidated_by_a_keyfile_edit(scene_copy, tmp_path, averaged):
    cache = ["--cache-index", str(tmp_path / "descriptors.npz")]

    assert run_cli(scene_copy, tmp_path / "a", "basic", *cache) == 0
    assert run_cli(scene_copy, tmp_path / "b", "basic", *cache) == 0
    assert len(averaged) == 1  # the second run read the cache

    key = scene_copy / "keys" / "db_000.key"
    with open(key) as fh:
        features = parse_keyfile(fh)
    features.descriptor[0] = 0
    with open(key, "w") as fh:
        write_keyfile(features, fh)
    assert run_cli(scene_copy, tmp_path / "c", "basic", *cache) == 0
    assert len(averaged) == 2


@pytest.mark.parametrize("damage", [
    lambda data: b"",
    lambda data: b"PK\x03\x04garbage",
    lambda data: data[:len(data) // 2],
], ids=["empty", "bad_zip", "cut_in_half"])
def test_corrupt_cache_is_a_miss(scene_dir, tmp_path, averaged, damage):
    path = tmp_path / "descriptors.npz"
    cache = ["--cache-index", str(path)]
    assert run_cli(scene_dir, tmp_path / "plain", "basic") == 0
    assert run_cli(scene_dir, tmp_path / "a", "basic", *cache) == 0
    path.write_bytes(damage(path.read_bytes()))

    assert run_cli(scene_dir, tmp_path / "b", "basic", *cache) == 0
    assert run_cli(scene_dir, tmp_path / "c", "basic", *cache) == 0
    assert len(averaged) == 3  # b rewrote the cache, and c read it
    for out in ("b", "c"):
        assert without_seconds(tmp_path / out) == without_seconds(tmp_path / "plain")


def test_settings_file_gives_the_same_rows(scene_dir, tmp_path):
    settings = tmp_path / "settings.txt"
    settings.write_text(
        "# every query, advanced mode\n"
        f"--model '{scene_dir / 'model.out'}' --keys '{scene_dir / 'keys'}'\n"
        f"--list '{scene_dir / 'query_list.txt'}'  # the queries\n"
        "--mode advanced --query all\n"
        "--seed 3 --benchmark --inlier-threshold 0.4\n")
    assert cli.main([f"@{settings}", "--out", str(tmp_path / "file")]) == 0
    assert run_cli(scene_dir, tmp_path / "line", "advanced",
                   "--inlier-threshold", "0.4") == 0
    assert without_seconds(tmp_path / "file") == without_seconds(tmp_path / "line")


def test_later_flag_overrides_the_settings_file(tmp_path):
    settings = tmp_path / "settings.txt"
    settings.write_text("--seed 3 --ratio 0.8\n")
    args = cli.build_arg_parser().parse_args(
        [*required_flags(tmp_path, tmp_path), f"@{settings}", "--seed", "5"])
    assert (args.seed, args.ratio) == (5, 0.8)


def test_ratio_one_is_accepted(tmp_path):
    args = cli.build_arg_parser().parse_args(
        [*required_flags(tmp_path, tmp_path), "--ratio", "1.0",
         "--backmatch-ratio", "1.0"])
    assert (args.ratio, args.backmatch_ratio) == (1.0, 1.0)


# (line, stderr text, id): values that only a params rule refuses, so main
# returns 2 before reading a file.  Each id is the line and the message a
# CLI-side flag type gave for it when the CLI kept range checks of its own.
_OUT_OF_RANGE = [
    ("--seed -1", "RunConfig.seed -1 is not an integer >= 0",
     "argument --seed: '-1' is not an integer >= 0"),
    ("--max-iterations -1", "BasicParams.max_iterations -1 is not an integer >= 0",
     "argument --max-iterations: '-1' is not an integer >= 0"),
    ("--iterations-per-phase -5",
     "AdvancedParams.iterations_per_phase -5 is not an integer >= 0",
     "argument --iterations-per-phase: '-5' is not an integer >= 0"),
    ("--target-backmatches -1",
     "BackmatchParams.target_backmatches -1 is not an integer >= 0",
     "argument --target-backmatches: '-1' is not an integer >= 0"),
    ("--k-sigmoid 0", "AdvancedParams.k_sigmoid 0.0 is not a finite number > 0",
     "argument --k-sigmoid: '0' is not a finite number > 0"),
    ("--k-sigmoid nan", "AdvancedParams.k_sigmoid nan is not a finite number > 0",
     "argument --k-sigmoid: 'nan' is not a finite number > 0"),
    ("--stop-fraction nan", "BasicParams.stop_fraction nan is not a finite number",
     "argument --stop-fraction: 'nan' is not a finite number"),
    ("--stop-fraction inf", "BasicParams.stop_fraction inf is not a finite number",
     "argument --stop-fraction: 'inf' is not a finite number"),
    ("--skip-fraction nan", "AdvancedParams.skip_fraction nan is not a finite number",
     "argument --skip-fraction: 'nan' is not a finite number"),
    ("--skip-fraction=-inf", "AdvancedParams.skip_fraction -inf is not a finite number",
     "argument --skip-fraction: '-inf' is not a finite number"),
    ("--ratio 0", "RunConfig.ratio 0.0 is not in (0, 1]",
     "argument --ratio: '0' is not a number in (0, 1]"),
    ("--ratio -0.5", "RunConfig.ratio -0.5 is not in (0, 1]",
     "argument --ratio: '-0.5' is not a number in (0, 1]"),
    ("--ratio 1.5", "RunConfig.ratio 1.5 is not in (0, 1]",
     "argument --ratio: '1.5' is not a number in (0, 1]"),
    ("--ratio nan", "RunConfig.ratio nan is not in (0, 1]",
     "argument --ratio: 'nan' is not a number in (0, 1]"),
    ("--backmatch-ratio 0", "BackmatchParams.ratio 0.0 is not in (0, 1]",
     "argument --backmatch-ratio: '0' is not a number in (0, 1]"),
    ("--backmatch-ratio -0.5", "BackmatchParams.ratio -0.5 is not in (0, 1]",
     "argument --backmatch-ratio: '-0.5' is not a number in (0, 1]"),
    ("--backmatch-ratio 1.5", "BackmatchParams.ratio 1.5 is not in (0, 1]",
     "argument --backmatch-ratio: '1.5' is not a number in (0, 1]"),
    ("--inlier-threshold -0.5",
     "BasicParams.inlier_threshold -0.5 is not a finite number > 0",
     "argument --inlier-threshold: '-0.5' is not a finite number > 0"),
    ("--inlier-threshold 0", "BasicParams.inlier_threshold 0.0 is not a finite number > 0",
     "argument --inlier-threshold: '0' is not a finite number > 0"),
]


@pytest.mark.parametrize("line, message", [
    ("--solver p5p", "invalid choice: 'p5p'"),
    ("--inlier-metric manhattan", "invalid choice: 'manhattan'"),
    ("--backmatch-pool nearby", "invalid choice: 'nearby'"),
    ("--benchmark yes please", "unrecognized arguments: yes please"),
    ("--no-such-flag 1", "unrecognized arguments: --no-such-flag 1"),
    ("--meta 'meta.txt", "No closing quotation"),
    ("--jobs 2", "unrecognized arguments: --jobs 2"),
    *(pytest.param(line, f"error: InvalidParams: {message}\n", id=f"{line}-{old}")
      for line, message, old in _OUT_OF_RANGE),
])
def test_bad_settings_file_exits_2(tmp_path, capsys, line, message):
    settings = tmp_path / "settings.txt"
    settings.write_text(line + "\n")
    argv = [*required_flags(tmp_path, tmp_path), "--mode", "basic", "--query", "all",
            f"@{settings}"]
    if message.startswith("error: InvalidParams"):  # tmp_path has no model: refused before any read
        assert cli.main(argv) == 2
    else:  # argparse refuses the line
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_undecodable_settings_file_exits_2(tmp_path, capsys):
    settings = tmp_path / "settings.txt"
    settings.write_bytes(b"--seed 3 \xff\n")
    with pytest.raises(SystemExit) as exc:
        cli.main([*required_flags(tmp_path, tmp_path), f"@{settings}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unreadable settings file" in err and "Traceback" not in err


def test_every_params_field_has_one_flag_with_its_default():
    defaults = vars(cli.build_arg_parser().parse_args(required_flags(Path("m"), Path("o"))))
    for cls in (BasicParams, AdvancedParams, BackmatchParams):
        for field in fields(cls):
            flags = [flag for flag, classes, _ in cli._PARAM_FLAGS
                     if cls in classes and cli._field(flag) == field.name]
            assert len(flags) == (field.name != "rng_seed"), (cls, field.name)
            for flag in flags:
                assert defaults[flag.replace("-", "_")] == field.default, flag


def test_unset_flags_take_the_params_defaults():
    args = cli.build_arg_parser().parse_args(
        [*required_flags(Path("m"), Path("o")), "--mode", "basic", "--query", "all"])
    config = cli.config_from_args(args)
    assert config.basic == BasicParams()
    assert config.advanced == AdvancedParams()
    assert config.backmatch == BackmatchParams()
    assert config == cli.RunConfig(
        Path("m/model.out"), Path("m/keys"), Path("m/query_list.txt"),
        Path("m/list.txt"), Path("m/meta.txt"), Path("o"), "basic", "all")


class _Terminal(io.StringIO):
    def isatty(self):
        return True


def test_bad_setting_fails_before_any_prompt(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", _Terminal())
    monkeypatch.setattr("builtins.input", lambda prompt: pytest.fail("prompted"))
    assert cli.main([*required_flags(tmp_path, tmp_path), "--backmatch-ratio", "1.5"]) == 2
    err = capsys.readouterr().err
    assert "error: InvalidParams: BackmatchParams.ratio 1.5" in err


def test_prompts_on_a_terminal_take_the_answers(scene_dir, tmp_path, monkeypatch):
    answers, prompts = iter(["advanced", "query_001.jpg"]), []
    monkeypatch.setattr("sys.stdin", _Terminal())
    monkeypatch.setattr("builtins.input",
                        lambda prompt: prompts.append(prompt) or next(answers))
    assert cli.main([*required_flags(scene_dir, tmp_path), "--benchmark"]) == 0
    assert prompts == ["mode [basic/advanced]: ", "query image name (or 'all'): "]
    got = rows(tmp_path)
    assert [r["name"] for r in got] == ["query_001.jpg"]
    assert got[0]["iterations"] == "100"  # advanced: one full phase


@pytest.mark.parametrize("given", [[], ["--mode", "basic"], ["--query", "all"]],
                         ids=["neither", "no_query", "no_mode"])
def test_missing_mode_or_query_without_a_terminal_exits_2(tmp_path, capsys,
                                                          monkeypatch, given):
    monkeypatch.setattr("sys.stdin", io.StringIO())
    monkeypatch.setattr("builtins.input", lambda prompt: pytest.fail("prompted"))
    assert cli.main([*required_flags(tmp_path, tmp_path), *given]) == 2
    err = capsys.readouterr().err
    assert ("InvalidParams: RunConfig.mode None is not one of basic, advanced" in err
            or "InvalidParams: no query selected" in err)
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def small_scene_dir(tmp_path_factory):
    scene = generate_synthetic_scene(400, 10, seed=5, n_queries=2)
    path = tmp_path_factory.mktemp("fuzz") / "scene"
    write_scene_dir(scene, path)
    return path


FUZZ_FILES = ["model.out", "list.txt", "query_list.txt", "meta.txt",
              "keys/db_000.key", "keys/query_000.key"]
FUZZ_TOKENS = [b"", b"0", b"-1", b"-0", b"0.5", b"3", b"255", b"256", b"x",
               b"nan", b"inf", b"-inf", b"1e309", b"1e-320",
               b"99999999999999999999", b"\xff", b"\x00"]


def corrupt(data: bytes, op: str, at: int, token: bytes) -> bytes:
    """One token replaced, a truncation, or one line dropped, doubled or
    swapped with the next, at position ``at`` (taken modulo the size)."""
    if op == "token":
        spans = [m.span() for m in re.finditer(rb"\S+", data)]
        if not spans:
            return data + token
        start, end = spans[at % len(spans)]
        return data[:start] + token + data[end:]
    if op == "truncate":
        return data[:at % (len(data) + 1)]
    lines = data.splitlines(keepends=True)
    i = at % max(1, len(lines))
    if op == "drop":
        return b"".join(lines[:i] + lines[i + 1:])
    if op == "double":
        return b"".join(lines[:i + 1] + lines[i:])
    return b"".join(lines[:i] + lines[i + 1:i + 2] + lines[i:i + 1] + lines[i + 2:])


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.sampled_from(FUZZ_FILES),
       st.sampled_from(["token", "truncate", "drop", "double", "swap"]),
       st.integers(0, 10**6), st.sampled_from(FUZZ_TOKENS))
# the escapes that bytes parsing mended: a 0xff byte in the model or a
# database keyfile (UnicodeDecodeError) and a NUL in the camera list
# (ValueError: embedded null byte) went out as tracebacks
@example("model.out", "token", 7, b"\xff")
@example("keys/db_000.key", "token", 40, b"\xff")
@example("list.txt", "token", 1, b"\x00")
# found by this test: a 20-digit image width overflowed the coverage
# keys (the painted image could not be allocated before), and a
# subnormal focal made P3P's rays coplanar, so its quartic overflowed
@example("meta.txt", "token", 1, b"99999999999999999999")
@example("meta.txt", "token", 3, b"1e-320")
# a width past JPEG's limit: near 2^31 one coverage window spans about
# width / 20 rows, and a query's intervals outgrow memory
@example("meta.txt", "token", 1, b"65536")
# a bundle count larger than the file: nothing may be sized from it
@example("model.out", "token", 4, b"99999999999999999999")
@example("model.out", "token", 5, b"99999999999999999999")
def test_any_single_corruption_exits_cleanly(small_scene_dir, name, op, at, token):
    with tempfile.TemporaryDirectory() as tmp:
        scene = shutil.copytree(small_scene_dir, Path(tmp) / "scene")
        path = scene / name
        path.write_bytes(corrupt(path.read_bytes(), op, at, token))
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                redirect_stdout(out), redirect_stderr(err):
            warnings.simplefilter("always")
            code = run_cli(scene, Path(tmp) / "out", "advanced")
    assert code in (0, 1, 2)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    if code == 2:
        assert re.match(r"error: \w+: ", err.getvalue()), err.getvalue()
