"""The demos run to completion and print what they promise."""

import contextlib
import io
import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    assert out.getvalue()
    if path.stem == "02_unfolding_and_pomsets":
        # processes built by separate extend_process runs compare by structure
        assert "run a.c and run c.a give the same process: True" in out.getvalue()
