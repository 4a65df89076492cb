"""Read one ``bench/run.py --trace 1`` result line on stdin, print the
metrics named on the command line, and exit 1 when the run was incorrect
or a gated count is over its ceiling.

    bench/run.py --workload W --trace 1 | bench_report.py LABEL METRIC... [--max METRIC=CEILING]

``make bench-cnn`` and ``make bench-sharded`` are this script with their
workload's metrics; only counts are gated, so the gate holds on any host.
"""

import argparse
import json
import sys


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("label", help="prefix of the failure messages")
    parser.add_argument("shown", nargs="+", metavar="METRIC")
    parser.add_argument(
        "--max", action="append", default=[], metavar="METRIC=CEILING",
        help="fail when this metric reads above the ceiling (repeatable)",
    )
    args = parser.parse_args()
    result = json.loads(sys.stdin.read().strip().splitlines()[-1])
    metrics = result["metrics"]
    for name in args.shown:
        print(f"{name} = {metrics[name]['value']:.6g} {metrics[name]['unit']}")
    if not result["correct"]:
        print(f"{args.label}: the run failed its output checks", file=sys.stderr)
        return 1
    status = 0
    for gate in args.max:
        name, ceiling = gate.split("=")
        value = metrics[name]["value"]
        if value > float(ceiling):
            print(f"{args.label}: {name} = {value:.6g} > {ceiling}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
