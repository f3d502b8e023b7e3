"""The sfmloc command line, end to end on a scene directory."""

import csv
import shutil
from pathlib import Path

import pytest

from sfmloc import (
    AdvancedParams,
    BackmatchParams,
    BasicParams,
    cli,
    parse_keyfile,
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


@pytest.mark.parametrize("mode", ["basic", "advanced"])
def test_two_jobs_give_the_same_rows(scene_dir, tmp_path, mode):
    assert run_cli(scene_dir, tmp_path / "one", mode, "--jobs", "1") == 0
    assert run_cli(scene_dir, tmp_path / "two", mode, "--jobs", "2") == 0
    assert without_seconds(tmp_path / "two") == without_seconds(tmp_path / "one")


@pytest.mark.parametrize("line", ["query_000.jpg 800",
                                  "query_000.jpg wide 600 400.0",
                                  "query_000.jpg 800 600 f400",
                                  "query_000.jpg 800 600 0",
                                  "query_000.jpg 800 600 nan",
                                  "query_000.jpg 800 600 inf",
                                  "query_000.jpg 800 600 -800",
                                  "query_000.jpg 0 600 400.0"])
def test_malformed_meta_exits_2(scene_copy, tmp_path, capsys, line):
    meta = scene_copy / "meta.txt"
    lines = meta.read_text().splitlines()
    meta.write_text("\n".join(lines[:1] + [line] + lines[2:]) + "\n")
    assert run_cli(scene_copy, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert f"{meta}:2:" in err
    assert "Traceback" not in err


def test_camera_list_short_of_the_model_exits_2(scene_copy, tmp_path, capsys):
    names = scene_copy / "list.txt"
    names.write_text("".join(names.read_text().splitlines(True)[:-1]))
    assert run_cli(scene_copy, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "names 19 images" in err and "has 20 cameras" in err
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
])
def test_bad_query_fails_only_its_row(scene_copy, tmp_path, defect, failure):
    defect(scene_copy)
    assert run_cli(scene_copy, tmp_path / "out", "basic", "--jobs", "2") == 1
    got = {r["name"]: r["failure"] for r in rows(tmp_path / "out")}
    assert got == {"query_000.jpg": "", "query_001.jpg": failure,
                   "query_002.jpg": "", "query_003.jpg": ""}


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


def _query_flag_missing_from_query_list(scene):
    return ["--query", "query_999.jpg"]


def _missing_model(scene):
    return ["--model", str(scene / "missing.out")]


@pytest.mark.parametrize("defect", [
    _drop_db_keyfile, _drop_db_keyfile_cached, _truncate_db_keyfile,
    _bad_model_magic, _query_missing_from_camera_list,
    _query_flag_missing_from_query_list, _missing_model])
def test_setup_failure_exits_2(scene_copy, tmp_path, capsys, defect):
    extra = defect(scene_copy)
    assert run_cli(scene_copy, tmp_path / "out", "basic", *extra) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_cache_is_invalidated_by_a_keyfile_edit(scene_copy, tmp_path,
                                                monkeypatch):
    averaged = []
    build = cli.build_mean_descriptors
    monkeypatch.setattr(cli, "build_mean_descriptors",
                        lambda *a: averaged.append(1) or build(*a))
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
    settings.write_text("--seed 3 --jobs 2\n")
    args = cli.build_arg_parser().parse_args(
        [*required_flags(tmp_path, tmp_path), f"@{settings}", "--seed", "5"])
    assert (args.seed, args.jobs) == (5, 2)


@pytest.mark.parametrize("line, message", [
    ("--solver p5p", "invalid choice: 'p5p'"),
    ("--inlier-metric manhattan", "invalid choice: 'manhattan'"),
    ("--backmatch-pool nearby", "invalid choice: 'nearby'"),
    ("--benchmark yes please", "unrecognized arguments: yes please"),
    ("--no-such-flag 1", "unrecognized arguments: --no-such-flag 1"),
    ("--meta 'meta.txt", "No closing quotation"),
    ("--seed -1", "argument --seed: '-1' is not an integer >= 0"),
    ("--max-iterations -1", "argument --max-iterations: '-1' is not an integer >= 0"),
    ("--iterations-per-phase -5",
     "argument --iterations-per-phase: '-5' is not an integer >= 0"),
    ("--target-backmatches -1",
     "argument --target-backmatches: '-1' is not an integer >= 0"),
    ("--jobs 0", "argument --jobs: '0' is not an integer >= 1"),
    ("--k-sigmoid 0", "argument --k-sigmoid: '0' is not a finite number > 0"),
    ("--k-sigmoid nan", "argument --k-sigmoid: 'nan' is not a finite number > 0"),
    ("--stop-fraction nan", "argument --stop-fraction: 'nan' is not a finite number"),
    ("--stop-fraction inf", "argument --stop-fraction: 'inf' is not a finite number"),
    ("--skip-fraction nan", "argument --skip-fraction: 'nan' is not a finite number"),
    ("--skip-fraction=-inf", "argument --skip-fraction: '-inf' is not a finite number"),
])
def test_bad_settings_file_exits_2(tmp_path, capsys, line, message):
    settings = tmp_path / "settings.txt"
    settings.write_text(line + "\n")
    with pytest.raises(SystemExit) as exc:
        cli.main([*required_flags(tmp_path, tmp_path), "--mode", "basic",
                  "--query", "all", f"@{settings}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


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
