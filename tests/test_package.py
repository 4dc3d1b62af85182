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


def _run_loaded(*args):
    """Run `python -X importtime ARGS` with the package on the path: its
    exit status, its stdout, its stderr lines other than the import log,
    and the set of modules it imported."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    # -X importtime logs every module the process imports, one per line
    run = subprocess.run([sys.executable, "-X", "importtime", *args],
                         capture_output=True, text=True, env=env)
    log, err = [], []
    for line in run.stderr.splitlines():
        (log if line.startswith("import time:") else err).append(line)
    return (run.returncode, run.stdout, err,
            {line.rsplit("|", 1)[1].strip() for line in log})


def test_clip_process_loads_only_the_clipping_core(tmp_path):
    src = tmp_path / "in.txt"
    src.write_text("-5 5 5 5\n20 20 30 30\n")
    status, out, err, loaded = _run_loaded(
        "-m", "segclip.cli", "clip", str(src), "-o", str(tmp_path / "out.txt"))
    assert (status, out, err) == (0, "read 2 accepted 1 rejected 1\n", [])
    assert {"segclip.geom", "segclip.quadclip", "segclip.baselines"} <= loaded
    assert loaded.isdisjoint(NOT_FOR_CLIP), sorted(loaded & set(NOT_FOR_CLIP))


@pytest.mark.parametrize("args, status, err", [
    pytest.param(("-c", "import segclip.oracle"), 0, [], id="import"),
    pytest.param(("-m", "segclip.cli", "verify", "--count", "10"), 0, [],
                 id="verify"),
    # a refusal in a real process: exit 1, one `segclip: ` line and no
    # traceback on stderr, and no failures file
    pytest.param(("-m", "segclip.cli", "verify", "--count", "10",
                  "--window", "0,0,1e308,1e308", "--failures", "{tmp}/out"),
                 1, ["segclip: sampling region width and height must be "
                     "finite: Window(x_left=-inf, x_right=inf, "
                     "y_bottom=-inf, y_top=inf)"], id="verify-refused"),
])
def test_oracle_loads_no_rational_arithmetic(tmp_path, args, status, err):
    # the oracle decides in integers and rounds with int / int
    code, _, lines, loaded = _run_loaded(
        *(a.format(tmp=tmp_path) for a in args))
    assert (code, lines) == (status, err)
    assert "segclip.oracle" in loaded
    assert not loaded & {"fractions", "decimal"}, sorted(loaded)
    assert not (tmp_path / "out").exists()
