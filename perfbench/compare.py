"""Compare two sets of benchmark results, metric by metric.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the result files run.py writes to
.perfbench_work/results/. Prints, per workload and metric, the median of each
side and the change. Refuses (exit 1) when any two results carry different
environment stamps: numbers from another numpy, BLAS, thread count, core
count, Python or kernel path are not comparable.
"""

import glob
import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from envstamp import mismatches  # noqa: E402


def load(directory):
    docs = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    return docs


def medians(docs):
    """{(workload, trace): {metric: (median, unit)}}"""
    values = {}
    for doc in docs:
        key = (doc["workload"], doc["trace"])
        for name, m in doc["result"]["metrics"].items():
            values.setdefault(key, {}).setdefault(name, (m["unit"], []))[1].append(m["value"])
    return {key: {name: (statistics.median(vs), unit) for name, (unit, vs) in ms.items()}
            for key, ms in values.items()}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    if not base or not new:
        print("compare: no result files in one of the directories", file=sys.stderr)
        return 2
    first = base[0]["env"]
    for doc in base + new:
        bad = mismatches(first, doc["env"])
        if bad:
            print(f"compare: refused, environment stamps differ on {', '.join(bad)}",
                  file=sys.stderr)
            return 1
    b, n = medians(base), medians(new)
    for key in sorted(set(b) & set(n)):
        print(f"{key[0]} (trace {key[1]})")
        for name in b[key]:
            if name not in n[key]:
                continue
            (bv, unit), (nv, _) = b[key][name], n[key][name]
            change = f"{(nv - bv) / bv:+.1%}" if bv else "n/a"
            print(f"  {name:<45} {bv:>12.6g} {nv:>12.6g} {unit:<8} {change}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
