"""Read one ``bench/run.py --trace 1`` result line on stdin, print the
three numbers ``make bench-cnn`` is about, and exit 1 when the run was
incorrect or took more than ``MAX_FAULTS`` minor faults per round."""

import json
import sys

SHOWN = (
    "bench.round_period_s",
    "core.engine.minor_faults_per_round",
    "core.engine.local_deltas_s",
)
#: ~22 k per round when the walk allocates its temporaries, a handful when
#: it takes them from the workspace; a count, so it gates on any host.
MAX_FAULTS = 5000


def main() -> int:
    result = json.loads(sys.stdin.read().strip().splitlines()[-1])
    metrics = result["metrics"]
    for name in SHOWN:
        print(f"{name} = {metrics[name]['value']:.6g} {metrics[name]['unit']}")
    faults = metrics["core.engine.minor_faults_per_round"]["value"]
    if not result["correct"]:
        print("bench-cnn: the run failed its output checks", file=sys.stderr)
        return 1
    if faults > MAX_FAULTS:
        print(
            f"bench-cnn: {faults:.0f} minor faults per round > {MAX_FAULTS}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
