import shutil

import pytest

import bytediff


def test_the_cheap_runs_keep_the_bytes_of_head(tmp_path, capsys):
    # the working tree against the last commit: an edit that moves a byte of
    # a cheap run's output fails here before it is committed
    if shutil.which("git") is None or not (bytediff.ROOT / ".git").exists():
        pytest.skip("needs git and the repository's .git")
    assert len(bytediff.CHEAP) == 12
    head = bytediff._export("HEAD", tmp_path / "trees" / "head")
    differ = bytediff.compare((head, {}), (bytediff.ROOT / "src", {}), tmp_path / "runs",
                              bytediff.CHEAP)
    assert differ == 0, capsys.readouterr().out


def test_a_side_that_cannot_import_the_test_helpers_is_named(tmp_path):
    stub = tmp_path / "src"
    (stub / "nestode").mkdir(parents=True)
    (stub / "nestode" / "__init__.py").write_text("raise ImportError('stub package')\n")
    with pytest.raises(SystemExit, match="^the OLD side cannot import tests/test_cli.py: "
                                         "ImportError: stub package$"):
        bytediff.compare((stub, {}), (bytediff.ROOT / "src", {}), tmp_path / "runs", [])
