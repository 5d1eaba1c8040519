"""The demos run to completion and print what they promise."""

import contextlib
import hashlib
import io
import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))

# SHA-256 of each demo's stdout, pinned so that a change to the firing rule
# or to any printed verdict shows here.
STDOUT_SHA256 = {
    "01_token_game": "129d3410efa6b23286f5d00dfb5f75d7d50d06ca4be15e5a58a37948cfe5c040",
    "02_unfolding_and_pomsets": "2f0116850a73d75504570b9276b470171e673944bbace5c9878e74a43784ac01",
    "03_distributability_walkthrough": (
        "87f62f52b06f60348d86985c91cb9bb427ae2c85af7d4ee22c41e9a1ae4c4777"
    ),
}


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    assert out.getvalue()
    if path.stem == "02_unfolding_and_pomsets":
        # processes built by separate extend_process runs compare by structure
        assert "run a.c and run c.a give the same process: True" in out.getvalue()
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == STDOUT_SHA256[path.stem]
