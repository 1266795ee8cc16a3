"""Compare two sets of benchmark runs, metric by metric.

    python3 perfbench/compare.py --base p1.txt p2.txt ... --new c1.txt ...

Each file is the standard output of one ``run.py`` run.  For every
metric it prints the median of each side, the change of the new median
against the base one, and the base runs' spread (quartile distance over
median).  It refuses, with exit code 2, to compare runs made with
different kernel backends, so a compiled run is never set against a
pure-Python one, and runs of different workloads or trace modes, or
runs whose outputs failed their checks.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path


def load(path: str) -> tuple[dict, dict]:
    lines = Path(path).read_text().splitlines()
    info = next(json.loads(ln)["info"] for ln in lines
                if ln.startswith('{"info"'))
    return info, json.loads(lines[-1])


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    runs = {"base": [load(p) for p in args.base],
            "new": [load(p) for p in args.new]}
    everything = runs["base"] + runs["new"]
    for label, key in (("kernel backends", lambda i: i["env"]["backend"]),
                       ("workloads", lambda i: i["workload"]),
                       ("trace modes", lambda i: i["trace"])):
        seen = sorted({str(key(info)) for info, _ in everything})
        if len(seen) > 1:
            print("error: refusing to compare different %s: %s"
                  % (label, ", ".join(seen)), file=sys.stderr)
            return 2
    if not all(result["correct"] for _, result in everything):
        print("error: refusing to compare runs that failed their checks",
              file=sys.stderr)
        return 2
    print("%-48s %-6s %14s %14s %8s %8s" % (
        "metric", "unit", "base median", "new median", "change",
        "spread"))
    for name in sorted(runs["base"][0][1]["metrics"]):
        side = {k: [r["metrics"][name]["value"] for _, r in v]
                for k, v in runs.items()}
        base, new = (statistics.median(side[k]) for k in ("base", "new"))
        change = "%+.1f%%" % (100 * (new / base - 1)) if base else "-"
        print("%-48s %-6s %14.6g %14.6g %8s %7.1f%%" % (
            name, runs["base"][0][1]["metrics"][name]["unit"], base, new,
            change, 100 * spread(side["base"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
