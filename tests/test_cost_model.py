"""The float-operation counts of `scripts/cost_model.py`, pinned.

The counts are exact and do not depend on the Python version, so a kernel
change that moves one of them must update it here on purpose.
"""

import importlib.util
from pathlib import Path

import pytest

from segclip import Counters, GeneratorSpec, gen_segments

from _strategies import WINDOW, coordinates

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "cost_model.py"
_spec = importlib.util.spec_from_file_location("cost_model", _SCRIPT)
cost_model = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cost_model)

CORPUS = GeneratorSpec(1, 2_000)


@pytest.mark.parametrize("cid, ops", [
    ("quadclip", {"add/sub": 18913, "mul": 10705, "compare": 17713,
                  "div": 1647, "neg": 0}),
    ("cs", {"add/sub": 8668, "mul": 2167, "compare": 21749, "div": 2167,
            "neg": 0}),
    ("lb", {"add/sub": 13911, "mul": 3294, "compare": 26848, "div": 6617,
            "neg": 3551}),
])
def test_float_operation_counts(cid, ops):
    segments = gen_segments(CORPUS)
    kernel = cost_model.KERNELS[cid]
    assert cost_model.float_ops(kernel, segments, WINDOW) == ops
    # every division is one the kernel counts
    counters = Counters()
    kernel(segments, WINDOW, counters)
    assert ops["div"] == counters.divisions


def test_counting_leaves_the_results_alone():
    segments = gen_segments(CORPUS)
    for kernel in cost_model.KERNELS.values():
        plain = kernel(segments, WINDOW, Counters())
        counted = kernel(*cost_model.counting(segments, WINDOW), Counters())
        assert coordinates(counted) == coordinates(plain)


def test_script_prints_a_row_per_clipper(capsys):
    assert cost_model.main(["--count", "200"]) == 0
    rows = capsys.readouterr().out.splitlines()
    for cid in cost_model.KERNELS:
        assert sum(row.startswith(f"| {cid} | ") for row in rows) == 1
