"""Median, quartiles and spread of saved benchmark runs.

    python3 perfbench/summarize.py LOG... [--json OUT]

Each LOG is the standard output of one `perfbench/run.py` run.  Runs are
grouped by workload and trace mode; for each metric the table gives the
number of runs, the median, the first and third quartiles
(`statistics.quantiles(values, n=4)`) and the spread, the distance between
the quartiles as a share of the median.  `--json` also writes the table with
the environment of the first run, as a point of the benchmark trajectory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict


def load(path):
    env = result = None
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.startswith("env "):
                env = json.loads(line[4:])
            elif line.startswith("{"):
                result = json.loads(line)
    if env is None or result is None:
        raise ValueError(f"{path}: no env line or result")
    return env, result


def summarize(paths):
    groups = defaultdict(list)
    first_env = None
    for path in paths:
        env, result = load(path)
        first_env = first_env or env
        groups[(env["workload"], env["trace"])].append((env, result))
    table = {}
    for (workload, trace), runs in sorted(groups.items()):
        values = defaultdict(list)
        for _, result in runs:
            for name, m in result["metrics"].items():
                values[(name, m["unit"])].append(m["value"])
        rows = {}
        for (name, unit), vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = (statistics.quantiles(vs, n=4) if len(vs) > 1
                         else (vs[0],) * 3)
            rows[name] = {"unit": unit, "runs": len(vs), "median": med,
                          "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / med if med else 0.0}
        table[f"{workload}/trace{trace}"] = {
            "seeds": [env["seed"] for env, _ in runs],
            "failed": sum(r["failed"] for _, r in runs),
            "attempted": sum(r["attempted"] for _, r in runs),
            "metrics": rows,
        }
    env = {k: first_env[k] for k in ("python", "implementation", "platform",
                                     "cpu_count", "cpu_quota", "git_sha",
                                     "seconds")}
    return env, table


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("logs", nargs="+")
    p.add_argument("--json", help="write the summary to this file")
    args = p.parse_args(argv)
    env, table = summarize(args.logs)
    for group, entry in table.items():
        print(f"== {group}: {len(entry['seeds'])} runs, "
              f"{entry['failed']} of {entry['attempted']} segments failed")
        for name, r in entry["metrics"].items():
            print(f"  {name:36} {r['median']:>14.6g} {r['unit']:8} "
                  f"q1 {r['q1']:<12.6g} q3 {r['q3']:<12.6g} "
                  f"spread {r['spread']:.4f}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump({"env": env, "groups": table}, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
