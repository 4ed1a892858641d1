#!/usr/bin/env python3
"""Groups a gprof flat profile into the simulator's layers.

    gprof -b -p <binary> gmon.out > flat.txt
    python3 e2ebench/tools/gprof_shares.py flat.txt [flat2.txt ...]

Prints, per profile, each layer's share of the program's profiled self
time. A function belongs to the first layer whose pattern matches its
qualified name, template arguments included but the parameter list left out,
so that a lambda scheduled by gpusim::Device counts as gpusim while
workloads::BuildKernels(gpusim::DeviceSpec const&, ...) counts as workloads.
The benchmark runner's own code (its digests and its machine-speed probe,
which allocates from std::pmr pools) is left out of the shares and printed
apart as "bench".
"""
import re
import sys

BENCH = ("bench", r"e2e::|std::pmr::")
LAYERS = [
    ("bookkeeping", r"TimeWeightedStats::|UtilizationTracker::"),
    ("gpusim", r"orion::gpusim::"),
    ("event_loop", r"orion::Simulator::"),
    ("scheduler", r"orion::core::|orion::baselines::"),
    ("harness", r"orion::harness::|orion::runtime::"),
    ("profiler", r"orion::profiler::|orion::workloads::"),
    ("memsub", r"orion::memsub::"),
    ("datacenter", r"orion::(datacenter|serving|interconnect|fault|cluster)::"),
]
# time% cumulative self [calls self/call total/call] name
ROW = re.compile(r"\s*[\d.]+\s+[\d.]+\s+([\d.]+)\s+(?:\d+\s+[\d.]+\s+[\d.]+\s+)?(\S.*)")


def qualified_name(name):
    """The name up to its parameter list, skipping parentheses inside <>."""
    depth = 0
    for i, ch in enumerate(name):
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth -= 1
        elif ch == "(" and depth == 0:
            return name[:i]
    return name


def shares(path):
    totals = {}
    with open(path) as f:
        rows = f.read().split("time   seconds", 1)[-1].splitlines()[1:]
    for line in rows:
        m = ROW.match(line)
        if not m:
            continue
        head = qualified_name(m.group(2))
        layer = next((n for n, rx in [BENCH] + LAYERS if re.search(rx, head)), "other")
        totals[layer] = totals.get(layer, 0.0) + float(m.group(1))
    return totals


def main():
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    for path in sys.argv[1:]:
        totals = shares(path)
        bench = totals.pop("bench", 0.0)
        whole = sum(totals.values()) or 1.0
        cells = ["%s %.1f%%" % (n, 100 * totals.get(n, 0.0) / whole)
                 for n, _ in LAYERS + [("other", "")]]
        print("%s (%.2f s profiled, %.2f s bench): %s"
              % (path, whole, bench, ", ".join(cells)))


if __name__ == "__main__":
    main()
