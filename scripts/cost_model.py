#!/usr/bin/env python3
"""Count what each clipper's batch kernel does per segment.

Float operations are the paper's cost model.  Each kernel clips a seeded
corpus whose coordinates, and whose window bounds, are `CountingFloat`s: a
`float` subclass whose operators count themselves by kind (add/sub, mul,
compare, div, neg) and return `CountingFloat`s, so every operation on a
coordinate or on a value computed from one is counted, a comparison with
a plain float literal too.  An operation between two plain floats is not:
lb's `t0 > 0.0` and `t1 < 1.0` while the parameter is still the literal
it started as.  The counts are exact integers, independent of the Python
version.

Bytecodes are counted with `sys.settrace` and `frame.f_trace_opcodes` on
the kernel's own frame, over plain floats.  They depend on the CPython
version and complement timing; they do not replace it.

Usage: PYTHONPATH=src python scripts/cost_model.py [--seed N] [--count N]
"""

import argparse
import sys
from collections import Counter

from segclip import CLIPPERS, GeneratorSpec, Window, gen_segments
from segclip.geom import DEFAULT_WINDOW, Counters

KERNELS = {cid: c.kernel for cid, c in CLIPPERS.items()}
KINDS = ("add/sub", "mul", "compare", "div", "neg")
DIVISION_WEIGHTS = (1, 2, 4, 8, 16, 32, 64)

_ops = Counter()


def _counted(kind, op):
    def method(self, other):
        _ops[kind] += 1
        r = op(self, other)
        return CountingFloat(r) if type(r) is float else r
    return method


class CountingFloat(float):
    """A float whose arithmetic and comparisons add to the module's tally."""

    __slots__ = ()
    __hash__ = float.__hash__

    def __neg__(self):
        _ops["neg"] += 1
        return CountingFloat(float.__neg__(self))


for _kind, _names in (("add/sub", ("add", "radd", "sub", "rsub")),
                      ("mul", ("mul", "rmul")),
                      ("div", ("truediv", "rtruediv")),
                      ("compare", ("lt", "le", "gt", "ge", "eq", "ne"))):
    for _name in _names:
        _dunder = f"__{_name}__"
        setattr(CountingFloat, _dunder,
                _counted(_kind, getattr(float, _dunder)))


def counting(segments, w: Window):
    """The corpus, as plain ((x1, y1), (x2, y2)) tuples like the one
    `gen_segments` returns, and the window, with every coordinate a
    CountingFloat."""
    c = CountingFloat
    return ([((c(ax), c(ay)), (c(bx), c(by)))
             for (ax, ay), (bx, by) in segments],
            Window(*map(c, w)))


def float_ops(kernel, segments, w: Window) -> dict:
    """{kind: count} of the float operations `kernel` spends on `segments`."""
    segments, w = counting(segments, w)
    _ops.clear()
    kernel(segments, w, Counters())
    counts = {kind: _ops[kind] for kind in KINDS}
    _ops.clear()
    return counts


def bytecodes(kernel, segments, w: Window) -> int:
    """Bytecodes executed in `kernel`'s own frame while it clips `segments`."""
    code = kernel.__code__
    n = 0

    def local(frame, event, arg):
        nonlocal n
        if event == "opcode":
            n += 1
        return local

    def on_call(frame, event, arg):
        if frame.f_code is code:
            frame.f_trace_opcodes = True
            return local
        return None

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        kernel(segments, w, Counters())
    finally:
        sys.settrace(previous)
    return n


def cost(ops: dict, d: float) -> float:
    """Every float operation costs 1, except a division, which costs d."""
    return sum(v for k, v in ops.items() if k != "div") + d * ops["div"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--count", type=int, default=20_000)
    args = parser.parse_args(argv)
    segments = gen_segments(GeneratorSpec(args.seed, args.count))
    w = DEFAULT_WINDOW
    print(f"per segment, seed {args.seed}, {args.count} segments, "
          f"window {tuple(w)}")
    print("| clipper | " + " | ".join(KINDS) + " | bytecodes |")
    print("|---" * (len(KINDS) + 2) + "|")
    ops = {}
    for cid, kernel in KERNELS.items():
        ops[cid] = float_ops(kernel, segments, w)
        per = [f"{ops[cid][k] / args.count:.4f}" for k in KINDS]
        bc = bytecodes(kernel, segments, w) / args.count
        print(f"| {cid} | " + " | ".join(per) + f" | {bc:.2f} |")
    print()
    print("modelled cost ratio, baseline / quadclip, when a division costs "
          "D other operations:")
    print("| D | " + " | ".join(f"{c}/quadclip" for c in KERNELS
                                if c != "quadclip") + " |")
    print("|---" * len(KERNELS) + "|")
    for d in DIVISION_WEIGHTS:
        quad = cost(ops["quadclip"], d)
        print(f"| {d} | " + " | ".join(f"{cost(ops[c], d) / quad:.3f}"
                                       for c in KERNELS if c != "quadclip")
              + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
