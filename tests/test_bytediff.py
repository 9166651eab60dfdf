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
