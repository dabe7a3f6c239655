"""The manifest gate of ``tools/cli_matrix.py``, on digests alone: the
matrix itself takes about 21 s and is run by hand."""
import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "cli_matrix.py"
_spec = importlib.util.spec_from_file_location("cli_matrix", TOOL)
cli_matrix = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_matrix)


def test_committed_manifest_covers_every_run():
    manifest = json.loads(TOOL.with_name("cli_matrix_manifest.json")
                          .read_text(encoding="utf-8"))
    runs = {path.split("/")[0] for path in manifest["files"]}
    assert runs == {name + tag for name in cli_matrix.RUNS
                    for tag in ("", ".rt")}
    assert set(manifest["environment"]) == set(cli_matrix.environment())


def test_check_lists_every_difference(tmp_path):
    (tmp_path / "run").mkdir()
    for name, text in (("a.csv", "1\n"), ("exit.txt", "0\n")):
        (tmp_path / "run" / name).write_text(text, encoding="utf-8")
    env = cli_matrix.environment()
    files = cli_matrix.digests(tmp_path)
    manifest = {"environment": env, "files": files}
    assert cli_matrix.check(manifest, env, files) == (0, [])
    changed = dict(files, **{"run/exit.txt": "0" * 64, "run/b.csv": "1"})
    del changed["run/a.csv"]
    assert cli_matrix.check(manifest, env, changed) == (
        1, ["added: run/b.csv", "missing: run/a.csv", "changed: run/exit.txt"])


def test_check_never_passes_in_another_environment():
    env = cli_matrix.environment()
    manifest = {"environment": dict(env, numpy="0.0"), "files": {}}
    status, lines = cli_matrix.check(manifest, env, {})
    assert status == 2
    assert "diff -r" in lines[-1]
