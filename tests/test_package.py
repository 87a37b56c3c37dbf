"""The package's public surface: `dsslab` republishes each layer's `__all__`."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dsslab

LAYERS = ("bounds", "combinatorics", "moments", "pnorm", "sequences")


@pytest.mark.parametrize("layer", LAYERS)
def test_every_public_name_is_republished_as_is(layer):
    # A name missing from dsslab, or bound there to another layer's object
    # of the same name, fails here.
    module = importlib.import_module(f"dsslab.{layer}")
    for name in module.__all__:
        assert hasattr(module, name), (layer, name)
        assert getattr(dsslab, name) is getattr(module, name), (layer, name)


def test_import_leaves_the_cli_out():
    src = str(Path(dsslab.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = "import sys, dsslab; sys.exit('dsslab.cli' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_benchmark_references_import_no_dsslab():
    # The tests take their high-precision references from perfbench's
    # checks, which must stay apart from the code they check.
    pytest.importorskip("mpmath")
    paths = (Path(__file__).parents[1] / "perfbench", Path(dsslab.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(map(str, paths))}
    code = "import sys, checks, workloads; sys.exit('dsslab' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
