"""Command-line pipeline: wiring, configuration, and error reporting."""

import argparse
import inspect
import json
import os
import shutil
import socket
import string
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scriptweave
from conftest import EmbedHandler
from scriptweave.cli import (
    DECODED_FILE,
    ENV_PREFIX,
    GRAPH_DOT_FILE,
    GRAPH_JSON_FILE,
    GROUNDED_FILE,
    GROUNDED_LIBRARY_FILE,
    LIBRARY_FILE,
    LOSSES_FILE,
    METRICS_JSON_FILE,
    METRICS_TEXT_FILE,
    MODEL_FILE,
    SETTINGS,
    STATS_FILE,
    PipelineConfig,
    build_config,
    read_config_file,
    run_command,
    _COMMON_FLAGS,
    _STAGES,
    _parser,
)
from scriptweave.corpus import load_library
from scriptweave.errors import BadConfig

TASKS = [{"task_id": "t1", "task_name": "make lemonade"}]

DOCS = [
    {
        "title": "How to Make Lemonade",
        "steps": ["Squeeze the lemons", "Add sugar", "Add water", "Stir well", "Serve chilled"],
    },
    {
        "title": "Make Lemonade at Home",
        "steps": ["squeeze lemons", "add the sugar!", "add cold water", "stir", "taste and adjust"],
    },
    {"title": "Fixing a bike tire", "steps": ["remove wheel", "patch tube"]},
]

VIDEOS = [
    {
        "video_id": "v1",
        "task_id": "t1",
        "kind": "labelled",
        "items": [
            {"text": "squeeze the lemons", "start": 1.0, "end": 3.0},
            {"text": "add sugar", "start": 4.0, "end": 6.0},
            {"text": "stir well", "start": 7.0, "end": 9.0},
        ],
    },
    {
        "video_id": "v2",
        "task_id": "t1",
        "kind": "labelled",
        "items": [
            {"text": "squeeze lemons", "start": 0.0},
            {"text": "add cold water", "start": 5.0},
            {"text": "add sugar", "start": 8.0},
            {"text": "serve chilled", "start": 12.0},
        ],
    },
    {
        "video_id": "v3",
        "task_id": "t1",
        "kind": "labelled",
        "items": [
            {"text": "squeeze the lemons"},
            {"text": "add sugar"},
            {"text": "add water"},
            {"text": "stir well"},
        ],
    },
    {
        "video_id": "v4",
        "task_id": "t1",
        "kind": "asr",
        "title": "making fresh lemonade at home",
        "items": [
            {"text": "today we are going to make some fresh lemonade from scratch so stay tuned"},
            {"text": "first squeeze all the lemons into the pitcher until you have a cup of juice"},
            {"text": "now add the sugar and the cold water and give it a good stir until dissolved"},
            {"text": "dont forget to subscribe to the channel for more recipes"},
            {"text": "serve it chilled over ice and enjoy your drink on a hot day my friends"},
        ],
    },
]


# JSON text nested too deeply for Python's parser, which raises RecursionError on it.
DEEP = "[" * 100_000 + "]" * 100_000


def write_jsonl_file(path, rows):
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")


def write_workspace(path):
    write_jsonl_file(path / "tasks.jsonl", TASKS)
    write_jsonl_file(path / "docs.jsonl", DOCS)
    write_jsonl_file(path / "corpus.jsonl", VIDEOS)
    # a permissive title gate so the narrated video is grounded too
    (path / "settings.cfg").write_text(
        "# lemonade fixture settings\nseed = 7\nk2 = 0.2\n", encoding="utf-8"
    )
    return path


@pytest.fixture()
def workspace(tmp_path):
    return write_workspace(tmp_path)


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    """A workspace whose whole pipeline has run once; tests edit copies of its artifacts."""
    ws = write_workspace(tmp_path_factory.mktemp("finished"))
    run_pipeline(ws, ws / "out")
    return ws


def pipeline_argvs(ws, out_dir, extra_eval=("--split", "0.5")):
    """The command line of every stage, in pipeline order."""
    cfg = str(ws / "settings.cfg")
    steps = [
        ["library", "--config", cfg, "--tasks", str(ws / "tasks.jsonl"), "--docs", str(ws / "docs.jsonl")],
        ["ground", "--config", cfg, "--tasks", str(ws / "tasks.jsonl"), "--corpus", str(ws / "corpus.jsonl")],
        ["stats", "--config", cfg],
        ["train", "--config", cfg],
        ["losses", "--config", cfg, "--epoch", "30"],
        ["decode", "--config", cfg],
        ["graph", "--config", cfg],
        ["eval", "--config", cfg, *extra_eval],
    ]
    return [argv + ["--out-dir", str(out_dir)] for argv in steps]


def run_pipeline(ws, out_dir, extra_eval=("--split", "0.5")):
    for argv in pipeline_argvs(ws, out_dir, extra_eval):
        code = run_command(argv)
        assert code == 0, f"{argv[0]} exited with {code}"


ARTIFACTS = [
    LIBRARY_FILE,
    GROUNDED_LIBRARY_FILE,
    GROUNDED_FILE,
    STATS_FILE,
    MODEL_FILE,
    LOSSES_FILE,
    DECODED_FILE,
    GRAPH_JSON_FILE,
    GRAPH_DOT_FILE,
    METRICS_JSON_FILE,
    METRICS_TEXT_FILE,
]


class TestPipeline:
    def test_all_stages_write_their_artifacts(self, workspace):
        out = workspace / "out"
        run_pipeline(workspace, out)
        for name in ARTIFACTS:
            assert (out / name).is_file(), f"missing {name}"

    def test_grounding_covers_every_video_thanks_to_config_gate(self, workspace):
        out = workspace / "out"
        run_pipeline(workspace, out)
        rows = [json.loads(l) for l in (out / GROUNDED_FILE).read_text().splitlines()]
        assert [row["video_id"] for row in rows] == ["v1", "v2", "v3", "v4"]
        v4 = rows[-1]
        # the narrated video grounds partially: some pieces fall below k3
        assert v4["dropped"] > 0
        assert len(v4["step_ids"]) >= 1

    def test_default_title_gate_skips_the_narrated_video(self, workspace, capsys):
        # same run without the permissive config: v4's title is not close
        # enough to the task name for the default gate
        ws = workspace
        out = ws / "strict"
        assert run_command(
            ["library", "--seed", "7", "--tasks", str(ws / "tasks.jsonl"),
             "--docs", str(ws / "docs.jsonl"), "--out-dir", str(out)]
        ) == 0
        assert run_command(
            ["ground", "--seed", "7", "--tasks", str(ws / "tasks.jsonl"),
             "--corpus", str(ws / "corpus.jsonl"), "--out-dir", str(out)]
        ) == 0
        rows = [json.loads(l) for l in (out / GROUNDED_FILE).read_text().splitlines()]
        assert [row["video_id"] for row in rows] == ["v1", "v2", "v3"]

    def test_videos_that_ground_to_nothing_are_skipped(self, workspace, capsys):
        unmatched = [
            # no item reaches k1 against any step
            {"video_id": "v5", "task_id": "t1", "kind": "labelled", "items": [{"text": "zzz qqq"}]},
            # the title passes the k2 gate, but no transcript piece reaches k3
            {"video_id": "v6", "task_id": "t1", "kind": "asr", "title": "make lemonade",
             "items": [{"text": "blorp flim flam"}]},
        ]
        write_jsonl_file(workspace / "corpus.jsonl", VIDEOS + unmatched)
        for argv in pipeline_argvs(workspace, workspace / "out")[:2]:  # library, ground
            assert run_command(argv) == 0, argv[0]
        assert "(4 sequences, 2 videos skipped)" in capsys.readouterr().out
        rows = [json.loads(l) for l in (workspace / "out" / GROUNDED_FILE).read_text().splitlines()]
        assert [row["video_id"] for row in rows] == ["v1", "v2", "v3", "v4"]

    def test_task_flag_picks_one_task_of_several(self, workspace):
        tasks = workspace / "tasks.jsonl"
        write_jsonl_file(tasks, TASKS + [{"task_id": "t2", "task_name": "bike tire"}])
        out = workspace / "out"
        assert run_command(["library", "--seed", "1", "--task", "t2", "--tasks", str(tasks),
                            "--docs", str(workspace / "docs.jsonl"), "--out-dir", str(out)]) == 0
        library = load_library(out / LIBRARY_FILE)
        assert library.task_id == "t2"
        assert library.texts() == ["remove wheel", "patch tube"]

    @pytest.mark.parametrize("source", ["config file", "environment"])
    def test_numeric_task_id_picks_its_task(self, workspace, monkeypatch, source):
        """A CrossTask-style id such as 23521 names a task from every source."""
        tasks = workspace / "tasks.jsonl"
        write_jsonl_file(tasks, [{"task_id": "23521", "task_name": "make lemonade"},
                                 {"task_id": "t2", "task_name": "bike tire"}])
        out = workspace / "out"
        argv = ["library", "--seed", "1", "--tasks", str(tasks),
                "--docs", str(workspace / "docs.jsonl"), "--out-dir", str(out)]
        if source == "config file":
            (workspace / "task.cfg").write_text("task = 23521\n", encoding="utf-8")
            argv += ["--config", str(workspace / "task.cfg")]
        else:
            monkeypatch.setenv("SCRIPTWEAVE_TASK", "23521")
        assert run_command(argv) == 0
        assert load_library(out / LIBRARY_FILE).task_id == "23521"

    def test_library_artifacts_are_loadable(self, workspace):
        out = workspace / "out"
        run_pipeline(workspace, out)
        library = load_library(out / LIBRARY_FILE)
        grounded_library = load_library(out / GROUNDED_LIBRARY_FILE)
        assert library.task_id == "t1"
        assert len(grounded_library) <= len(library)
        assert grounded_library.validate() is None

    def test_stats_payload(self, workspace):
        out = workspace / "out"
        run_pipeline(workspace, out)
        stats = json.loads((out / STATS_FILE).read_text())
        assert set(stats) == {
            "reversal_rate",
            "mean_frequent_next_steps",
            "mean_frequent_next_steps_all",
            "frequency_threshold",
        }
        assert stats["frequency_threshold"] == 10

    def test_losses_payload_reflects_epoch_curriculum(self, workspace):
        out = workspace / "out"
        run_pipeline(workspace, out)
        losses = json.loads((out / LOSSES_FILE).read_text())
        assert losses["epoch"] == 30
        assert losses["mixture"] == {"resample": 0.0, "shuffle": 0.8, "cutswap": 0.2}
        assert len(losses["sequences"]) == 4
        for row in losses["sequences"]:
            assert row["total"] == pytest.approx(row["nll"] + row["contrastive"])
            assert set(row["methods"]) <= {"resample", "shuffle", "cutswap"}
            assert len(row["methods"]) <= 3

    def test_max_steps_caps_the_generated_path_in_losses(self, workspace, monkeypatch):
        # At epoch 0 every negative is a resample. A shuffled negative has the
        # positive's mean embedding, so the generated path would not show.
        default, capped = workspace / "default", workspace / "capped"
        for argv in pipeline_argvs(workspace, default)[:4]:  # library .. train
            assert run_command(argv) == 0, argv[0]
        shutil.copytree(default, capped)
        losses = ["losses", "--config", str(workspace / "settings.cfg"), "--epoch", "0"]
        assert run_command(losses + ["--out-dir", str(default)]) == 0
        monkeypatch.setenv("SCRIPTWEAVE_MAX_STEPS", "1")
        assert run_command(losses + ["--out-dir", str(capped)]) == 0
        assert (capped / LOSSES_FILE).read_bytes() != (default / LOSSES_FILE).read_bytes()

    def test_losses_without_negatives_are_positive_zero(self, finished_run, tmp_path,
                                                         monkeypatch):
        out = tmp_path / "out"
        shutil.copytree(finished_run / "out", out)
        (argv,) = [argv for argv in pipeline_argvs(finished_run, out) if argv[0] == "losses"]
        monkeypatch.setenv("SCRIPTWEAVE_NUM_NEGATIVES", "0")
        assert run_command(argv) == 0
        text = (out / LOSSES_FILE).read_text(encoding="utf-8")
        assert "-0.0" not in text
        rows = json.loads(text)["sequences"]
        assert rows and all(row["contrastive"] == 0.0 and not row["methods"] for row in rows)

    def test_decoded_paths_use_grounded_library_ids(self, workspace):
        out = workspace / "out"
        run_pipeline(workspace, out)
        library = load_library(out / GROUNDED_LIBRARY_FILE)
        ids = set(library.step_ids())
        rows = [json.loads(l) for l in (out / DECODED_FILE).read_text().splitlines()]
        assert 1 <= len(rows) <= 40
        for row in rows:
            assert set(row["steps"]) <= ids
            assert row["logprob"] <= 0.0

    def test_graph_artifacts(self, workspace):
        out = workspace / "out"
        run_pipeline(workspace, out)
        dot = (out / GRAPH_DOT_FILE).read_text()
        assert dot.startswith("digraph script {")
        assert dot.endswith("}\n")
        graph = json.loads((out / GRAPH_JSON_FILE).read_text())
        assert graph["task_id"] == "t1"
        assert {r["kind"] for r in graph["relations"]} <= {
            "sequential",
            "interchangeable",
            "optional",
        }

    def test_graph_extra_out_writes_identical_dot(self, workspace):
        out = workspace / "out"
        run_pipeline(workspace, out)
        extra = workspace / "copy.dot"
        code = run_command(
            ["graph", "--config", str(workspace / "settings.cfg"),
             "--out-dir", str(out), "--out", str(extra)]
        )
        assert code == 0
        assert extra.read_bytes() == (out / GRAPH_DOT_FILE).read_bytes()

    def test_eval_split_flag_controls_train_fraction(self, workspace):
        out = workspace / "out"
        run_pipeline(workspace, out)
        metrics = json.loads((out / METRICS_JSON_FILE).read_text())
        assert metrics["train_fraction"] == 0.5
        assert metrics["num_train"] == 2  # floor(4 * 0.5)
        assert sorted(metrics["systems"]) == ["linear", "model", "random"]
        for system in metrics["systems"].values():
            for family in ("next_step", "completion"):
                assert all(v >= 0.0 for v in system[family].values())
        table = (out / METRICS_TEXT_FILE).read_text()
        assert table.splitlines()[0] == "next step"
        assert "completion" in table

    def test_same_seed_runs_are_byte_identical(self, workspace):
        out1 = workspace / "out1"
        out2 = workspace / "out2"
        run_pipeline(workspace, out1)
        run_pipeline(workspace, out2)
        for name in ARTIFACTS:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


class TestEmbeddingService:
    """With embedding_url set, library, ground and losses compare texts through the service."""

    def test_stages_run_on_the_service_byte_identically(self, workspace, embed_server,
                                                        monkeypatch):
        monkeypatch.setenv("SCRIPTWEAVE_EMBEDDING_URL", embed_server)
        runs = [workspace / "run1", workspace / "run2"]
        for out in runs:
            for argv in pipeline_argvs(workspace, out)[:5]:  # library .. losses
                assert run_command(argv) == 0, argv[0]
        assert TASKS[0]["task_name"] in EmbedHandler.received
        for name in (LIBRARY_FILE, GROUNDED_LIBRARY_FILE, GROUNDED_FILE, MODEL_FILE, LOSSES_FILE):
            assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name

    def test_losses_sends_each_step_text_once(self, workspace, embed_server, monkeypatch):
        runs = [workspace / "run1", workspace / "run2"]
        for out in runs:
            for argv in pipeline_argvs(workspace, out)[:4]:  # library .. train
                assert run_command(argv) == 0, argv[0]
        monkeypatch.setenv("SCRIPTWEAVE_EMBEDDING_URL", embed_server)
        for out in runs:
            EmbedHandler.received = []
            assert run_command(pipeline_argvs(workspace, out)[4]) == 0  # losses
            texts = set(load_library(out / GROUNDED_LIBRARY_FILE).texts())
            assert sorted(EmbedHandler.received) == sorted(texts)
        assert (runs[0] / LOSSES_FILE).read_bytes() == (runs[1] / LOSSES_FILE).read_bytes()

    def test_service_that_is_down_exits_2(self, workspace, capsys, monkeypatch):
        with socket.socket() as sock:  # a local port that nothing listens on once closed
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        monkeypatch.setenv("SCRIPTWEAVE_EMBEDDING_URL", f"http://127.0.0.1:{port}")
        library = pipeline_argvs(workspace, workspace / "out")[0]
        assert run_command(library) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "EmbeddingServiceError"


# Runs the stages given as JSON argv lists in one fresh interpreter in which
# numpy cannot be imported, and prints, after the import and after each
# stage, which heavy modules (the HTTP client, dataclasses, inspect) it has
# loaded that the bare interpreter had not (or the stage's exit code).
_FOOTPRINT_SCRIPT = """
import json, sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
before = set(sys.modules)
heavy = lambda: [m for m in ("urllib.request", "http.client", "dataclasses", "inspect")
                 if m in sys.modules and m not in before]
from scriptweave.cli import run_command
loaded = {"import": heavy()}
for argv in json.loads(sys.argv[1]):
    code = run_command(argv)
    loaded[argv[0]] = heavy() if code == 0 else code
print(json.dumps(loaded))
"""


def heavy_modules_loaded(argvs):
    src = str(Path(scriptweave.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT_SCRIPT, json.dumps(argvs)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


class TestImportFootprint:
    """Each stage is its own process: no stage loads numpy, dataclasses or
    inspect, and only an embedding URL loads the HTTP client."""

    def test_no_stage_loads_numpy(self, workspace):
        for argv in pipeline_argvs(workspace, workspace / "out"):
            assert heavy_modules_loaded([argv]) == {"import": [], argv[0]: []}, argv[0]

    def test_errors_module_loads_no_other_scriptweave_module(self):
        src = str(Path(scriptweave.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        script = ("import json, sys, scriptweave.errors; "
                  "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scriptweave'))))")
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path}, timeout=60)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == ["scriptweave", "scriptweave.errors"]


def run_cli_process(args, script=None, stdout=subprocess.PIPE):
    """python -m scriptweave.cli args, or python -c script args, in a fresh process with
    stdout and stderr piped and PYTHONUNBUFFERED unset, so both stay buffered until flushed."""
    src = str(Path(scriptweave.__file__).resolve().parents[1])
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    head = ["-c", script] if script else ["-m", "scriptweave.cli"]
    return subprocess.run([sys.executable, *head, *args], stdout=stdout, stderr=subprocess.PIPE,
                          text=True, env=env, timeout=120)


class TestProcessExit:
    """How a stage process ends: its exit code, its flushed output and its exit
    handlers; importing scriptweave.cli changes how no other program ends."""

    def test_stage_prints_and_exits_0(self, finished_run, tmp_path):
        out = tmp_path / "out"
        shutil.copytree(finished_run / "out", out)
        done = run_cli_process(["stats", "--seed", "7", "--out-dir", str(out)])
        assert (done.returncode, done.stdout, done.stderr) == (0, f"wrote {out / STATS_FILE}\n", "")

    def test_stage_error_exits_2_with_one_json_object(self, tmp_path):
        done = run_cli_process(["train", "--seed", "7", "--out-dir", str(tmp_path)])
        assert (done.returncode, done.stdout) == (2, "")
        missing = tmp_path / GROUNDED_LIBRARY_FILE
        assert json.loads(done.stderr) == {"error": "MissingArtifact",
                                           "message": f"missing artifact: {missing}"}

    def test_help_exits_0_and_unknown_command_exits_2(self):
        done = run_cli_process(["--help"])
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.startswith("usage: scriptweave")
        assert "frobnicate" not in done.stdout
        done = run_cli_process(["frobnicate"])
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.startswith("usage: scriptweave")
        assert "invalid choice: 'frobnicate'" in done.stderr

    def test_exit_handler_runs_once(self, tmp_path):
        argv = ["scriptweave", "train", "--seed", "7", "--out-dir", str(tmp_path)]
        script = ("import atexit, sys\n"
                  "from scriptweave.cli import main\n"
                  "atexit.register(print, 'handler ran')\n"
                  f"sys.argv = {argv!r}\n"
                  "main()\n")
        done = run_cli_process([], script)
        assert (done.returncode, done.stdout) == (2, "handler ran\n")
        assert json.loads(done.stderr)["error"] == "MissingArtifact"

    def test_exception_escaping_run_command_gives_a_traceback_and_exit_1(self):
        script = ("import atexit, sys\n"
                  "import scriptweave.cli as cli\n"
                  "def fail(argv):\n"
                  "    raise RuntimeError('escaped')\n"
                  "cli.run_command = fail\n"
                  "atexit.register(print, 'handler ran')\n"
                  "sys.argv = ['scriptweave', 'stats', '--seed', '7']\n"
                  "cli.main()\n")
        done = run_cli_process([], script)
        assert (done.returncode, done.stdout) == (1, "handler ran\n")
        assert done.stderr.startswith("Traceback (most recent call last):")
        assert done.stderr.endswith("RuntimeError: escaped\n")

    def test_missing_stdout_exits_as_before(self):
        # Python sets sys.stdout to None when it starts with file descriptor 1 closed.
        script = ("import sys\n"
                  "from scriptweave.cli import main\n"
                  "sys.stdout = None\n"
                  "sys.argv = ['scriptweave', '--help']\n"
                  "main()\n")
        done = run_cli_process([], script)
        assert done.returncode == 0
        assert done.stderr.startswith("usage: scriptweave")

    def test_broken_pipe_is_reported_by_the_interpreter(self):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = run_cli_process(["--help"], stdout=write_end)
        finally:
            os.close(write_end)
        assert done.returncode == 120
        assert done.stderr.endswith("BrokenPipeError: [Errno 32] Broken pipe\n")

    def test_import_leaves_another_programs_exit_alone(self):
        script = ("import atexit, sys\n"
                  "import scriptweave.cli\n"
                  "atexit.register(print, 'handler ran')\n"
                  "sys.exit(3)\n")
        done = run_cli_process([], script)
        assert (done.returncode, done.stdout, done.stderr) == (3, "handler ran\n", "")

    def test_import_leaves_a_failing_pytest_run_failing(self, tmp_path):
        (tmp_path / "test_fails.py").write_text(
            "import scriptweave.cli\n\ndef test_fails():\n    assert False\n", encoding="utf-8")
        done = run_cli_process(["-q", "-p", "no:cacheprovider", str(tmp_path)],
                               "import sys, pytest; sys.exit(pytest.main(sys.argv[1:]))")
        assert done.returncode == 1, done.stdout
        assert "1 failed" in done.stdout

    def test_only_main_ends_the_process(self):
        package = Path(scriptweave.__file__).parent
        calls = {path.name: path.read_text(encoding="utf-8").count("os._exit(")
                 for path in package.glob("*.py")}
        assert {name: n for name, n in calls.items() if n} == {"cli.py": 1}
        assert "os._exit(" in inspect.getsource(scriptweave.cli.main)


class TestConfigMerging:
    def parse(self, argv):
        return _parser().parse_args(argv)

    def test_defaults_apply_without_any_source(self):
        cfg = build_config(self.parse(["stats"]))
        assert cfg == PipelineConfig()
        assert cfg.beam_width == 40
        assert cfg.prune_threshold == 0.175

    def test_config_file_overrides_defaults(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text("beam_width = 7\nsmoothing-lambda = 0.5\n")
        cfg = build_config(self.parse(["stats", "--config", str(path)]))
        assert cfg.beam_width == 7
        assert cfg.smoothing_lambda == 0.5

    def test_environment_overrides_config_file(self, tmp_path, monkeypatch):
        path = tmp_path / "s.cfg"
        path.write_text("beam_width = 7\n")
        monkeypatch.setenv("SCRIPTWEAVE_BEAM_WIDTH", "9")
        cfg = build_config(self.parse(["stats", "--config", str(path)]))
        assert cfg.beam_width == 9

    def test_flag_overrides_environment(self, monkeypatch):
        monkeypatch.setenv("SCRIPTWEAVE_SEED", "1")
        monkeypatch.setenv("SCRIPTWEAVE_TRAIN_FRACTION", "0.5")
        cfg = build_config(self.parse(["eval", "--seed", "3", "--split", "0.7"]))
        assert cfg.seed == 3
        assert cfg.train_fraction == 0.7

    def test_env_list_setting(self, monkeypatch):
        monkeypatch.setenv("SCRIPTWEAVE_STOP_WORDS", '["outro", "like and subscribe"]')
        cfg = build_config(self.parse(["stats"]))
        assert cfg.stop_words == ("outro", "like and subscribe")

    def test_env_bad_type_is_rejected(self, monkeypatch):
        monkeypatch.setenv("SCRIPTWEAVE_SEED", "abc")
        with pytest.raises(BadConfig):
            build_config(self.parse(["stats"]))

    def test_flag_text_is_parsed_like_the_other_sources(self):
        assert build_config(self.parse(["stats", "--task", "null"])).task is None
        assert build_config(self.parse(["stats", "--task", '"t1"'])).task == "t1"
        assert build_config(self.parse(["stats", "--task", " 23521 "])).task == "23521"


# A stage that takes each flagged setting's flag, and the flag.
FLAGS = {dest: (stage, flag) for stage, (_, _, own) in _STAGES.items()
         for flag, dest, _ in _COMMON_FLAGS + own if dest in SETTINGS}

_WORDS = st.text(string.ascii_letters + string.digits + "_./-", min_size=1, max_size=8)
# Setting texts as a user writes them: no newline, no leading "#".
SETTING_TEXTS = st.tuples(
    st.sampled_from(["", " "]),
    st.one_of(
        st.integers().map(str),
        st.floats().map(json.dumps),
        st.floats().map(repr),
        _WORDS,
        _WORDS.map(json.dumps),
        st.just("null"),
        st.lists(_WORDS, max_size=3).map(json.dumps),
        st.from_regex(r"\A0?[0-9]{1,6}(\.[0-9]{1,2})?\Z"),
        st.sampled_from(["true", "false", "", "[]", "{}", "[1, 2]"]),
    ),
    st.sampled_from(["", " "]),
).map("".join)


def merged_value(key, argv, env):
    """repr of setting key as build_config merges it from argv and env alone,
    or the BadConfig it raises."""
    with mock.patch.dict(os.environ):
        for name in [name for name in os.environ if name.startswith(ENV_PREFIX)]:
            del os.environ[name]
        os.environ.update(env)
        try:
            return repr(getattr(build_config(_parser().parse_args(argv)), key))
        except BadConfig as exc:
            return f"BadConfig: {exc}"


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("sources")


@settings(max_examples=300, deadline=None)
@given(key=st.sampled_from(sorted(SETTINGS)), text=SETTING_TEXTS)
def test_the_three_sources_agree(config_dir, key, text):
    """The same text gives a setting the same value, or the same BadConfig,
    as a flag, as a SCRIPTWEAVE_* variable and as a config line."""
    path = config_dir / "agree.cfg"
    path.write_text(f"{key} = {text}\n", encoding="utf-8")
    stage, flag = FLAGS.get(key, ("stats", None))
    from_file = merged_value(key, [stage, "--config", str(path)], {})
    assert merged_value(key, [stage], {ENV_PREFIX + key.upper(): text}) == from_file
    if flag is not None:
        assert merged_value(key, [stage, f"{flag}={text}"], {}) == from_file


# One out-of-range value per range-checked setting, and the message it gives.
OUT_OF_RANGE = [
    ("keyword_threshold", "1.5", "keyword_threshold must be in [0, 1], got 1.5"),
    ("relaxed_keyword_threshold", "-0.1", "relaxed_keyword_threshold must be in [0, 1], got -0.1"),
    ("k1", "1.01", "k1 must be in [0, 1], got 1.01"),
    ("k2", "-1", "k2 must be in [0, 1], got -1.0"),
    ("k3", "2", "k3 must be in [0, 1], got 2.0"),
    ("prune_threshold", "-1", "prune_threshold must be in [0, 1], got -1.0"),
    ("top_m_docs", "0", "top_m_docs must be at least 1"),
    ("asr_min_words", "0", "asr_min_words must be at least 1"),
    ("order", "0", "order must be at least 1"),
    ("beam_width", "0", "beam_width must be at least 1"),
    ("max_shuffle_attempts", "0", "max_shuffle_attempts must be at least 1"),
    ("smoothing_lambda", "-0.1", "smoothing_lambda must be non-negative"),
    ("num_negatives", "-1", "num_negatives must be non-negative"),
    ("alpha", "-1.0", "alpha must be non-negative"),
    ("epoch", "-1", "epoch must be non-negative"),
    ("frequency_threshold", "-3", "frequency_threshold must be non-negative"),
    ("max_steps", "-1", "max_steps must be non-negative"),
    ("temperature", "0", "temperature must be positive"),
    ("embedding_timeout", "-2.5", "embedding_timeout must be positive"),
    ("train_fraction", "1.0", "train_fraction must be strictly between 0 and 1"),
    ("train_fraction", "0", "train_fraction must be strictly between 0 and 1"),
]

# The edge of each range, which the check accepts.
IN_RANGE = [
    ("keyword_threshold", 1.0), ("relaxed_keyword_threshold", 0.0), ("k1", 0.0), ("k2", 1.0),
    ("k3", 0.0), ("top_m_docs", 1), ("asr_min_words", 1), ("order", 1), ("beam_width", 1),
    ("max_shuffle_attempts", 1), ("smoothing_lambda", 0.0), ("num_negatives", 0), ("alpha", 0.0),
    ("epoch", 0), ("max_steps", 0), ("max_steps", None), ("temperature", 1e-9),
    ("embedding_timeout", 1e-9), ("train_fraction", 1e-9), ("train_fraction", 0.999),
    ("prune_threshold", 1.0), ("frequency_threshold", 0),
]


class TestSettingRanges:
    def test_cases_cover_every_range_check(self):
        checked = {name for name, (_, _, rule) in SETTINGS.items() if rule is not None}
        assert {key for key, _, _ in OUT_OF_RANGE} == checked
        assert {key for key, _ in IN_RANGE} == checked

    @pytest.mark.parametrize("key, value, message", OUT_OF_RANGE,
                             ids=[f"{key}={value}" for key, value, _ in OUT_OF_RANGE])
    def test_out_of_range_value_in_config_file_exits_2(self, tmp_path, capsys, key, value, message):
        cfg = tmp_path / "range.cfg"
        cfg.write_text(f"seed = 7\n{key} = {value}\n", encoding="utf-8")
        code = run_command(["stats", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "BadConfig", "message": f"invalid setting: {message}"}

    @pytest.mark.parametrize("key, value", IN_RANGE)
    def test_edge_of_range_is_accepted(self, key, value):
        assert getattr(PipelineConfig(**{key: value}), key) == value


def test_every_flag_is_a_setting():
    parser = _parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    dests = {action.dest for sub in commands.choices.values() for action in sub._actions}
    assert "train_fraction" in dests
    assert dests - {"help", "command", "config", "extra_out"} <= SETTINGS.keys()


class TestConfigFileParsing:
    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text("# a comment\n\nseed = 5\n")
        assert read_config_file(path) == {"seed": 5}

    def test_bare_words_stay_strings(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text("out_dir = runs/-->\ntask = t1\n")
        assert read_config_file(path) == {"out_dir": "runs/-->", "task": "t1"}

    def test_dashes_map_to_underscores(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text("out-dir = artifacts\n")
        assert read_config_file(path) == {"out_dir": "artifacts"}

    def test_unknown_setting_rejected(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text("beam_wdith = 7\n")
        with pytest.raises(BadConfig):
            read_config_file(path)

    def test_missing_equals_rejected(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text("seed 5\n")
        with pytest.raises(BadConfig):
            read_config_file(path)

    def test_wrong_types_rejected(self, tmp_path):
        for line in ("seed = abc", "seed = true", "seed = 1.5", "k1 = fast", "stop_words = 3"):
            path = tmp_path / "s.cfg"
            path.write_text(line + "\n")
            with pytest.raises(BadConfig):
                PipelineConfig(**read_config_file(path))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(BadConfig):
            read_config_file(tmp_path / "absent.cfg")

    def test_null_only_where_the_default_is_none(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text("max_steps = null\ntask = null\n")
        assert read_config_file(path) == {"max_steps": None, "task": None}
        for line in ("k1 = null", "stop_words = null", "out_dir = null"):
            path.write_text(line + "\n")
            with pytest.raises(BadConfig, match="got None"):
                PipelineConfig(**read_config_file(path))


class TestErrorReporting:
    def test_missing_seed_reports_bad_config(self, tmp_path, capsys):
        code = run_command(["stats", "--out-dir", str(tmp_path)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "BadConfig"
        assert "seed" in err["message"]

    @pytest.mark.parametrize(
        "argv, key, kind",
        [
            (["stats", "--seed", "abc"], "seed", "an integer"),
            (["losses", "--seed", "7", "--epoch", "abc"], "epoch", "an integer"),
            (["eval", "--seed", "7", "--split", "abc"], "train_fraction", "a number"),
        ],
    )
    def test_wrongly_typed_flag_reports_bad_config(self, tmp_path, capsys, argv, key, kind):
        code = run_command(argv + ["--out-dir", str(tmp_path)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "BadConfig", "message": f"setting {key!r} must be {kind}, got 'abc'"}

    def test_missing_artifact_reports_cleanly(self, tmp_path, capsys):
        code = run_command(["train", "--seed", "1", "--out-dir", str(tmp_path)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "MissingArtifact"

    def test_non_finite_number_is_not_written(self, finished_run, tmp_path, monkeypatch, capsys):
        """A temperature that passes the range check but makes every loss NaN:
        the writer refuses the artifact, removes the earlier run's, and the
        stage exits 2."""
        out = tmp_path / "out"
        shutil.copytree(finished_run / "out", out)
        (argv,) = [argv for argv in pipeline_argvs(finished_run, out) if argv[0] == "losses"]
        assert run_command(argv) == 0
        assert (out / LOSSES_FILE).exists()
        monkeypatch.setenv("SCRIPTWEAVE_TEMPERATURE", "1e-320")
        capsys.readouterr()
        assert run_command(argv) == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ScriptweaveError", "message": f"{out / LOSSES_FILE}: not written: "
                       "Out of range float values are not JSON compliant: nan"}
        assert not (out / LOSSES_FILE).exists()

    @pytest.mark.parametrize("stage", ["stats", "train", "losses", "decode", "graph", "eval"])
    def test_reading_stage_creates_no_output_directory(self, tmp_path, capsys, stage):
        out = tmp_path / "typo_dir"
        assert run_command([stage, "--seed", "7", "--out-dir", str(out)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "MissingArtifact"
        assert not out.exists()

    def test_unknown_command_exits_nonzero(self, capsys):
        assert run_command(["frobnicate"]) == 2
        capsys.readouterr()

    def test_no_command_exits_nonzero(self, capsys):
        assert run_command([]) == 2
        capsys.readouterr()

    def test_multiple_tasks_need_task_flag(self, tmp_path, capsys):
        write_jsonl_file(
            tmp_path / "tasks.jsonl",
            [{"task_id": "t1", "task_name": "a"}, {"task_id": "t2", "task_name": "b"}],
        )
        write_jsonl_file(tmp_path / "docs.jsonl", DOCS)
        code = run_command(
            ["library", "--seed", "1", "--tasks", str(tmp_path / "tasks.jsonl"),
             "--docs", str(tmp_path / "docs.jsonl"), "--out-dir", str(tmp_path / "out")]
        )
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "BadConfig"

    def test_empty_task_file_rejected(self, workspace, capsys):
        tasks = workspace / "tasks.jsonl"
        tasks.write_text("", encoding="utf-8")
        code = run_command(["library", "--seed", "1", "--tasks", str(tasks),
                            "--docs", str(workspace / "docs.jsonl"),
                            "--out-dir", str(workspace / "out")])
        assert code == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "BadConfig", "message": f"no tasks in {tasks}"}

    def test_unknown_task_id_rejected(self, tmp_path, capsys):
        write_jsonl_file(tmp_path / "tasks.jsonl", TASKS)
        write_jsonl_file(tmp_path / "docs.jsonl", DOCS)
        code = run_command(
            ["library", "--seed", "1", "--task", "nope", "--tasks", str(tmp_path / "tasks.jsonl"),
             "--docs", str(tmp_path / "docs.jsonl"), "--out-dir", str(tmp_path / "out")]
        )
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "BadConfig"

    def test_ground_refuses_another_tasks_library(self, workspace, capsys):
        tasks = workspace / "tasks.jsonl"
        write_jsonl_file(tasks, TASKS + [{"task_id": "t2", "task_name": "bike tire"}])
        out = workspace / "out"
        common = ["--seed", "7", "--tasks", str(tasks), "--out-dir", str(out)]
        assert run_command(["library", "--task", "t1", "--docs", str(workspace / "docs.jsonl")]
                           + common) == 0
        capsys.readouterr()
        ground = ["ground", "--corpus", str(workspace / "corpus.jsonl")] + common
        assert run_command(ground + ["--task", "t2"]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "BadInput",
            "message": f"{out / LIBRARY_FILE}: library of task 't1', not of task 't2'"}
        assert not (out / GROUNDED_LIBRARY_FILE).exists()
        assert run_command(ground + ["--task", "t1"]) == 0

    @pytest.mark.parametrize("stage", ["stats", "train", "losses", "decode", "graph", "eval"])
    def test_stage_refuses_a_task_the_grounded_library_is_not_for(
        self, finished_run, tmp_path, capsys, stage
    ):
        out = tmp_path / "out"
        shutil.copytree(finished_run / "out", out)
        (argv,) = [argv for argv in pipeline_argvs(finished_run, out) if argv[0] == stage]
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        assert run_command(argv + ["--task", "t2"]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "BadInput",
            "message": f"{out / GROUNDED_LIBRARY_FILE}: library of task 't1', not of task 't2'"}
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before
        assert run_command(argv + ["--task", "t1"]) == 0

    @pytest.mark.parametrize("row", [{"task_id": "", "task_name": "make lemonade"},
                                     {"task_id": "t1", "task_name": ""}], ids=["id", "name"])
    def test_empty_task_name_reports_bad_input(self, workspace, capsys, row):
        tasks = workspace / "tasks.jsonl"
        write_jsonl_file(tasks, [row])
        code = run_command(["library", "--seed", "1", "--tasks", str(tasks),
                            "--docs", str(workspace / "docs.jsonl"),
                            "--out-dir", str(workspace / "out")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "BadInput"
        assert err["message"] == f"{tasks}:1: task_id and task_name must be non-empty"

    @pytest.mark.parametrize(
        "env, config, argv, key",
        [
            ({"SCRIPTWEAVE_K1": "2"}, "", ["ground"], "k1"),
            ({}, "", ["losses", "--epoch", "-1"], "epoch"),
            ({}, "", ["eval", "--split", "1.5"], "train_fraction"),
            ({"SCRIPTWEAVE_EMBEDDING_TIMEOUT": "0"}, "", ["ground"], "embedding_timeout"),
            ({"SCRIPTWEAVE_SMOOTHING_LAMBDA": "Infinity"}, "", ["train"], "smoothing_lambda"),
            ({}, "temperature = Infinity\n", ["losses"], "temperature"),
            pytest.param({}, f"k1 = {10**400}\n", ["ground"], "k1", id="k1-huge-int"),
        ],
    )
    def test_out_of_range_setting_reports_bad_config(
        self, workspace, monkeypatch, capsys, env, config, argv, key
    ):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        cfg = workspace / "range.cfg"
        cfg.write_text("seed = 7\n" + config, encoding="utf-8")
        code = run_command(argv + ["--config", str(cfg), "--out-dir", str(workspace / "out")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "BadConfig"
        assert key in err["message"]

    @pytest.mark.parametrize(
        "corpus, where, fragment",
        [
            ('{"video_id": "v1", "task_id": "t1", "kind": "labelled", "items": [{"text": "stir"}]}'
             '\nnot json\n', ":2:", "not valid JSON"),
            ('{"video_id": "v1", "task_id": "t1", "kind": "labelled"}\n', ":1:", "'items'"),
            ('{"video_id": "v1", "task_id": "t1", "kind": "labelled", "items": [{"text": 5}]}\n',
             ":1:", "item text"),
            ('{"video_id": "v1", "task_id": "t1", "kind": "labelled", "items": [{"text": "stir"}]}'
             '\n' * 2, ":2:", "repeated video_id 'v1'"),
        ],
    )
    def test_malformed_corpus_reports_bad_input(self, workspace, capsys, corpus, where, fragment):
        out = str(workspace / "out")
        tasks = str(workspace / "tasks.jsonl")
        assert run_command(["library", "--seed", "1", "--tasks", tasks,
                            "--docs", str(workspace / "docs.jsonl"), "--out-dir", out]) == 0
        bad = workspace / "bad.jsonl"
        bad.write_text(corpus, encoding="utf-8")
        capsys.readouterr()
        code = run_command(["ground", "--seed", "1", "--tasks", tasks, "--corpus", str(bad),
                            "--out-dir", out])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "BadInput"
        assert err["message"].startswith(f"{bad}{where}")
        assert fragment in err["message"]

    @pytest.mark.parametrize("stage", ["decode", "losses"])
    def test_model_for_another_library_reports_unknown_step(self, workspace, capsys, stage):
        out = workspace / "out"
        cfg = str(workspace / "settings.cfg")
        tasks = str(workspace / "tasks.jsonl")
        for argv in (
            ["library", "--tasks", tasks, "--docs", str(workspace / "docs.jsonl")],
            ["ground", "--tasks", tasks, "--corpus", str(workspace / "corpus.jsonl")],
            ["train"],
        ):
            assert run_command(argv + ["--config", cfg, "--out-dir", str(out)]) == 0
        # A model trained over a larger library: its ids run past this one's.
        n_steps = len(load_library(out / GROUNDED_LIBRARY_FILE).steps)
        model = json.loads((out / MODEL_FILE).read_text(encoding="utf-8"))
        model["contexts"].append({"ctx": [n_steps], "counts": {"END": 1}})
        (out / MODEL_FILE).write_text(json.dumps(model), encoding="utf-8")
        capsys.readouterr()
        code = run_command([stage, "--config", cfg, "--out-dir", str(out)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "UnknownStep"
        assert f"step id {n_steps} " in err["message"]

    @pytest.mark.parametrize(
        "argv, named, error",
        [
            (["graph", "--out", "{tmp}/nodir/g.dot"], "{tmp}/nodir/g.dot", "FileNotFoundError"),
            (["stats", "--out-dir", "{tmp}/a_file"], "{tmp}/a_file", "NotADirectoryError"),
            (["stats", "--config", "{tmp}"], "{tmp}", "IsADirectoryError"),
            (["stats", "--config", "{tmp}/latin1.cfg"], "{tmp}/latin1.cfg", "BadConfig"),
            (["ground", "--tasks", "{ws}/tasks.jsonl", "--corpus", "{tmp}"], "{tmp}",
             "IsADirectoryError"),
        ],
        ids=["graph-out-dir-missing", "out-dir-is-a-file", "config-is-a-directory",
             "config-not-utf8", "corpus-is-a-directory"],
    )
    def test_path_error_reports_json_and_exits_2(
        self, finished_run, tmp_path, capsys, argv, named, error
    ):
        shutil.copytree(finished_run / "out", tmp_path / "out")
        (tmp_path / "a_file").write_text("not a directory\n", encoding="utf-8")
        (tmp_path / "latin1.cfg").write_bytes("seed = 7\ntask = caf\xe9\n".encode("latin-1"))
        fill = {"ws": finished_run, "tmp": tmp_path}
        command, *rest = [arg.format(**fill) for arg in argv]
        code = run_command([command, "--seed", "7", "--out-dir", str(tmp_path / "out"), *rest])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == error
        assert named.format(**fill) in err["message"]

    def test_graph_empty_out_is_refused_like_any_path(self, finished_run, tmp_path, capsys):
        out = tmp_path / "out"
        shutil.copytree(finished_run / "out", out)
        capsys.readouterr()
        code = run_command(["graph", "--config", str(finished_run / "settings.cfg"),
                            "--out-dir", str(out), "--out", ""])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "IsADirectoryError"

    def test_value_is_shown_in_full_up_to_80_characters(self):
        shown = "x" * 78  # its repr, quotes included, is 80 characters
        with pytest.raises(BadConfig) as caught:
            PipelineConfig(seed=shown)
        assert str(caught.value) == f"setting 'seed' must be an integer, got {shown!r}"
        with pytest.raises(BadConfig) as caught:
            PipelineConfig(seed=shown + "y")
        assert str(caught.value) == f"setting 'seed' must be an integer, got '{shown[:76]}..."

    def test_non_json_docs_line_reports_bad_input(self, workspace, capsys):
        docs = workspace / "docs.jsonl"
        docs.write_text(docs.read_text(encoding="utf-8") + "{oops\n", encoding="utf-8")
        code = run_command(["library", "--seed", "1", "--tasks", str(workspace / "tasks.jsonl"),
                            "--docs", str(docs), "--out-dir", str(workspace / "out")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "BadInput"
        assert err["message"].startswith(f"{docs}:{len(DOCS) + 1}:")

    def test_deeply_nested_docs_line_reports_bad_input(self, workspace, capsys):
        docs = workspace / "docs.jsonl"
        docs.write_text(docs.read_text(encoding="utf-8") + DEEP + "\n", encoding="utf-8")
        code = run_command(["library", "--seed", "1", "--tasks", str(workspace / "tasks.jsonl"),
                            "--docs", str(docs), "--out-dir", str(workspace / "out")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "BadInput"
        assert err["message"].startswith(f"{docs}:{len(DOCS) + 1}: not valid JSON: ")

    def test_deeply_nested_seed_stays_text(self, tmp_path, capsys):
        text = "[" * 100_000
        assert run_command(["stats", "--seed", text, "--out-dir", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "BadConfig"
        assert err["message"].startswith("setting 'seed' must be an integer, got '[[[[")
        assert len(err["message"]) < 200

    def test_deeply_nested_task_stays_text(self, finished_run, tmp_path, capsys):
        out = tmp_path / "out"
        shutil.copytree(finished_run / "out", out)
        text = "[" * 100_000
        assert run_command(["stats", "--seed", "7", "--out-dir", str(out), "--task", text]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "BadInput"
        prefix = f"{out / GROUNDED_LIBRARY_FILE}: library of task 't1', not of task '[[[["
        assert err["message"].startswith(prefix)
        assert len(err["message"]) < len(prefix) + 200


def _without(value, key):
    value = dict(value)
    del value[key]
    return value


def _with_step(data, index, key, value):
    """A copy of a library artifact with one field of one step replaced."""
    steps = [dict(step) for step in data["steps"]]
    steps[index][key] = value
    return {**data, "steps": steps}


def _with_first_count(data, key, value):
    """A copy of a model artifact whose first context counts key: value."""
    first = {**data["contexts"][0], "counts": {key: value}}
    return {**data, "contexts": [first, *data["contexts"][1:]]}


class TestMalformedArtifacts:
    """A stage artifact that is malformed exits 2 with BadInput naming it, never a traceback;
    a decoded step outside the grounded library exits 2 with UnknownStep."""

    @pytest.mark.parametrize(
        "stage, artifact, edit, fragment",
        [
            *[pytest.param(stage, GROUNDED_FILE, lambda row: _without(row, "task_id"),
                           "missing key 'task_id'", id=f"{stage}-grounded-no-task_id")
              for stage in ("stats", "train", "losses", "eval")],
            pytest.param("train", GROUNDED_FILE, lambda row: {**row, "step_ids": ["a"]},
                         "invalid literal", id="train-grounded-step-a"),
            pytest.param("graph", DECODED_FILE, lambda row: {**row, "steps": ["a"]},
                         "invalid literal", id="graph-decoded-step-a"),
            pytest.param("graph", DECODED_FILE, lambda row: _without(row, "steps"),
                         "missing key 'steps'", id="graph-decoded-no-steps"),
            pytest.param("decode", GROUNDED_LIBRARY_FILE, lambda data: _without(data, "steps"),
                         "missing key 'steps'", id="decode-library-no-steps"),
            *[pytest.param("eval", GROUNDED_LIBRARY_FILE, lambda data, key=key: _without(data, key),
                           f"missing key '{key}'", id=f"eval-library-no-{key}")
              for key in ("source_docs", "doc_sequences")],
            pytest.param("train", GROUNDED_FILE, lambda row: _without(row, "dropped"),
                         "missing key 'dropped'", id="train-grounded-no-dropped"),
            pytest.param("decode", GROUNDED_LIBRARY_FILE,
                         lambda data: _with_step(_with_step(data, 0, "normalized_text", "mix it"),
                                                 1, "normalized_text", "mix  it"),
                         "'mix  it' is not a normalized step text",
                         id="decode-library-whitespace-twin"),
            pytest.param("decode", GROUNDED_LIBRARY_FILE,
                         lambda data: _with_step(data, 0, "normalized_text", ""),
                         "'' is not a normalized step text", id="decode-library-empty-text"),
            pytest.param("decode", MODEL_FILE, lambda data: [1, 2], "list indices",
                         id="decode-model-list"),
            pytest.param("ground", LIBRARY_FILE,
                         lambda data: _with_step(data, 0, "normalized_text", ["zz", "qq", "rr"]),
                         "normalized_text must be a string", id="ground-library-list-text"),
            pytest.param("decode", GROUNDED_LIBRARY_FILE, lambda data: {**data, "task_id": 3},
                         "task_id must be a string, got 3", id="decode-library-int-task-id"),
            pytest.param("train", GROUNDED_LIBRARY_FILE,
                         lambda data: _with_step(data, 0, "raw_text", None),
                         "raw_text must be a string, got None", id="train-library-null-raw-text"),
            pytest.param("eval", GROUNDED_LIBRARY_FILE,
                         lambda data: {**data, "source_docs": [[7, 1.0]]},
                         "source document title must be a string, got 7",
                         id="eval-library-int-doc-title"),
            pytest.param("stats", GROUNDED_FILE, lambda row: {**row, "video_id": 5},
                         "video_id must be a string, got 5", id="stats-grounded-int-video-id"),
            pytest.param("losses", GROUNDED_FILE, lambda row: {**row, "task_id": ["x"]},
                         "task_id must be a string, got ['x']", id="losses-grounded-list-task-id"),
            pytest.param("train", GROUNDED_LIBRARY_FILE,
                         lambda data: _with_step(data, 0, "step_id", "0"),
                         "'0'", id="train-library-string-step-id"),
            pytest.param("train", GROUNDED_LIBRARY_FILE,
                         lambda data: _with_step(data, 1, "normalized_text",
                                                 data["steps"][0]["normalized_text"] + "s"),
                         "steps 0 and 1 are near-duplicates", id="train-library-near-duplicates"),
            pytest.param("decode", GROUNDED_LIBRARY_FILE,
                         lambda data: _with_step(data, 1, "normalized_text",
                                                 data["steps"][0]["normalized_text"]),
                         "steps 0 and 1 are near-duplicates", id="decode-library-equal-texts"),
            pytest.param("train", GROUNDED_LIBRARY_FILE,
                         lambda data: {**data, "source_docs": [["doc", "1"]]},
                         "expected a number, got '1'", id="train-library-string-doc-score"),
            pytest.param("eval", GROUNDED_LIBRARY_FILE,
                         lambda data: {**data, "doc_sequences": [[0, 99]]},
                         "document step id 99 not in the library", id="eval-library-doc-step-99"),
            pytest.param("eval", GROUNDED_LIBRARY_FILE,
                         lambda data: {**data, "doc_sequences": [[0, "1"]]},
                         "'1'", id="eval-library-doc-step-string"),
            *[pytest.param("train", GROUNDED_FILE, lambda row, key=key, value=value:
                           {**row, key: value}, repr(value).strip("[]"), id=f"train-grounded-{name}")
              for name, key, value in (
                  ("fractional-step", "step_ids", [3.7]),
                  ("integral-float-step", "step_ids", [0.0]),
                  ("bool-step", "step_ids", [True]),
                  ("bool-score", "scores", [True]),
                  ("string-score", "scores", ["0.5"]),
                  ("nan-score", "scores", [float("nan")]),
                  ("huge-int-score", "scores", [10**400]),
                  ("bool-dropped", "dropped", False),
              )],
            pytest.param("graph", DECODED_FILE, lambda row: {**row, "steps": [1.5]}, "1.5",
                         id="graph-decoded-fractional-step"),
            pytest.param("graph", DECODED_FILE, lambda row: {**row, "logprob": True}, "True",
                         id="graph-decoded-bool-logprob"),
            pytest.param("graph", DECODED_FILE, lambda row: {**row, "logprob": "-1.0"}, "'-1.0'",
                         id="graph-decoded-string-logprob"),
            pytest.param("decode", MODEL_FILE, lambda data: {**data, "order": 2.0}, "2.0",
                         id="decode-model-float-order"),
            pytest.param("decode", MODEL_FILE, lambda data: {**data, "lambda": True}, "True",
                         id="decode-model-bool-lambda"),
            pytest.param("decode", MODEL_FILE, lambda data: {**data, "lambda": float("nan")},
                         "expected a finite number, got nan", id="decode-model-nan-lambda"),
            pytest.param("decode", MODEL_FILE, lambda data: {**data, "order": 0},
                         "order must be at least 1", id="decode-model-order-0"),
            pytest.param("decode", MODEL_FILE, lambda data: {**data, "lambda": -0.1},
                         "smoothing_lambda must be non-negative", id="decode-model-negative-lambda"),
            pytest.param("decode", MODEL_FILE,
                         lambda data: {**data, "contexts": [{"ctx": [0.5], "counts": {}}]},
                         "0.5", id="decode-model-fractional-context"),
            pytest.param("decode", MODEL_FILE, lambda data: _with_first_count(data, "01", 1),
                         "'01'", id="decode-model-padded-count-key"),
            pytest.param("decode", MODEL_FILE, lambda data: _with_first_count(data, "0", 1.5),
                         "1.5", id="decode-model-fractional-count"),
            pytest.param("decode", MODEL_FILE, lambda data: _with_first_count(data, "0", -1),
                         "negative count", id="decode-model-negative-count"),
            pytest.param("decode", MODEL_FILE,
                         lambda data: {**data, "contexts": [{"ctx": [], "counts": ["0"]}]},
                         "has no attribute 'items'", id="decode-model-counts-list"),
        ],
    )
    def test_bad_artifact_reports_bad_input(
        self, finished_run, tmp_path, capsys, stage, artifact, edit, fragment
    ):
        err, where = self.run_with_edited_artifact(
            finished_run, tmp_path, capsys, stage, artifact, edit
        )
        assert err["error"] == "BadInput"
        assert err["message"].startswith(where)
        assert fragment in err["message"]

    @pytest.mark.parametrize("steps", [[999], [-5], [-1, 0]], ids=["999", "minus-5", "start-0"])
    def test_decoded_step_outside_library_reports_unknown_step(
        self, finished_run, tmp_path, capsys, steps
    ):
        # -5 would index the library from its end and -1 would be read as START
        err, _ = self.run_with_edited_artifact(finished_run, tmp_path, capsys, "graph",
                                               DECODED_FILE, lambda row: {**row, "steps": steps})
        assert err["error"] == "UnknownStep"
        assert err["message"].startswith(f"step id {steps[0]} not in library")

    @staticmethod
    def run_with_edited_artifact(finished_run, tmp_path, capsys, stage, artifact, edit):
        """Run stage on a copy of the finished run with artifact edited; it must exit 2.

        Returns the stderr JSON and the prefix that names the edited file.
        """
        out = tmp_path / "out"
        shutil.copytree(finished_run / "out", out)
        path = out / artifact
        if artifact.endswith(".jsonl"):
            # Edit the first row: the message names path:1.
            first, *rest = path.read_text(encoding="utf-8").splitlines()
            lines = [json.dumps(edit(json.loads(first))), *rest]
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            where = f"{path}:1: "
        else:
            path.write_text(json.dumps(edit(json.loads(path.read_text(encoding="utf-8")))),
                            encoding="utf-8")
            where = f"{path}: "
        capsys.readouterr()
        (argv,) = [argv for argv in pipeline_argvs(finished_run, out) if argv[0] == stage]
        assert run_command(argv) == 2
        return json.loads(capsys.readouterr().err), where

    def test_deeply_nested_artifact_reports_bad_input(self, finished_run, tmp_path, capsys):
        out = tmp_path / "out"
        shutil.copytree(finished_run / "out", out)
        (out / GROUNDED_LIBRARY_FILE).write_text(DEEP, encoding="utf-8")
        (argv,) = [argv for argv in pipeline_argvs(finished_run, out) if argv[0] == "train"]
        capsys.readouterr()
        assert run_command(argv) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "BadInput"
        assert err["message"].startswith(f"{out / GROUNDED_LIBRARY_FILE}: not valid JSON: ")

    def test_artifact_that_is_not_json_reports_bad_input(self, finished_run, tmp_path, capsys):
        out = tmp_path / "out"
        shutil.copytree(finished_run / "out", out)
        (out / MODEL_FILE).write_text("{oops", encoding="utf-8")
        capsys.readouterr()
        code = run_command(["decode", "--config", str(finished_run / "settings.cfg"),
                            "--out-dir", str(out)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "BadInput"
        assert err["message"].startswith(f"{out / MODEL_FILE}: not valid JSON")
