import os
import subprocess
import sys
from pathlib import Path

import pytest

import segclip

SRC = Path(segclip.__file__).resolve().parent.parent

# what `segclip clip` has no use for: the timing harness, the exact oracle
# and the SVG writer, and the standard modules only they need
NOT_FOR_CLIP = ("segclip.bench", "segclip.oracle", "segclip.svg",
                "fractions", "decimal", "csv", "dataclasses")


def test_every_exported_name_resolves():
    for name in segclip.__all__:
        assert getattr(segclip, name) is not None, name
    assert set(segclip.__all__) <= set(dir(segclip))


def test_unknown_name_raises_attribute_error():
    for name in ("window_contains", "relative_execution", "write_csv",
                 "ClipResult", "EndpointOutcome", "clip_endpoint"):
        with pytest.raises(AttributeError, match=f"no attribute '{name}'"):
            getattr(segclip, name)
    with pytest.raises(ImportError):
        from segclip import quad_orientation  # noqa: F401


def test_clip_process_loads_only_the_clipping_core(tmp_path):
    src = tmp_path / "in.txt"
    src.write_text("-5 5 5 5\n20 20 30 30\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    # -X importtime logs every module the process imports, one per line
    run = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "segclip.cli", "clip",
         str(src), "-o", str(tmp_path / "out.txt")],
        capture_output=True, text=True, env=env, check=True)
    assert run.stdout == "read 2 accepted 1 rejected 1\n"
    loaded = {line.rsplit("|", 1)[1].strip()
              for line in run.stderr.splitlines()
              if line.startswith("import time:")}
    assert {"segclip.geom", "segclip.quadclip", "segclip.baselines"} <= loaded
    assert loaded.isdisjoint(NOT_FOR_CLIP), sorted(loaded & set(NOT_FOR_CLIP))
