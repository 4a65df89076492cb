#!/usr/bin/env python3
"""The Uldp-FL benchmark: five end-to-end workloads, one command.

Closed loop, one federation, synchronous rounds: the harness is the only
client and starts the next round when the previous one returns.  This
process only generates inputs, spawns, waits and aggregates; every
measured run happens in a fresh child interpreter (``bench/child.py``).

Three ways to call it (see bench/README.md):

``--workload W --seed N --seconds S --trace 0|1``
    One run of one workload; the last line of stdout is one JSON object
    ``{"correct", "attempted", "failed", "metrics"}`` holding every
    end-to-end metric (``--trace 0``) or every per-layer metric
    (``--trace 1``) named in ``BENCHMARK.json``.

no ``--workload``
    The whole suite: ``--repeats`` runs of every workload, interleaved
    round-robin, then (with ``--trace``) one traced pass each; prints
    every metric by name with unit, sample count and bound and writes a
    record with a host block to ``--out``.

``--compare A.json B.json`` / ``--selftest``
    Judge one suite record against another; check the harness itself.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

import host  # noqa: E402
import workloads  # noqa: E402
from metrics import (  # noqa: E402
    BY_NAME,
    END_TO_END,
    END_TO_END_NAMES,
    NAME_RE,
    PER_LAYER,
    PER_LAYER_NAMES,
    UNIT_RE,
    emit,
)

#: One run -- building its job (the dropout workload's seed scan) and all
#: its children -- shares this budget, and a child that would overrun it
#: is killed; the caller of this benchmark allows 180 s for a whole run.
RUN_BUDGET_S = 165
_job_ids = itertools.count(1)


def prepare() -> None:
    """Make this process able to build workloads (which import repro)."""
    if not (SRC / "repro").is_dir():
        sys.exit(f"bench/run.py: no program to measure: {SRC / 'repro'} is missing")
    # The dropout workload's seed scan builds simulators in this process,
    # so numpy must see the thread pins here too.
    os.environ.update(host.THREAD_ENV)
    sys.path.insert(0, str(SRC))


def child_env() -> dict:
    env = os.environ.copy()
    env.update(host.THREAD_ENV)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
    return env


def spawn(job: dict, deadline: float) -> dict:
    """Run ``job`` in a fresh interpreter and return its result."""
    tmp = OUT / "tmp" / f"{job['workload']}-{os.getpid()}-{next(_job_ids)}"
    tmp.mkdir(parents=True, exist_ok=True)
    job = {
        **job,
        "tmp": str(tmp),
        "result_path": str(tmp / "result.json"),
        "trace_path": str(OUT / f"trace-{job['workload']}.jsonl"),
        "spawned_at": time.time(),
    }
    job_file = tmp / "job.json"
    job_file.write_text(json.dumps(job))
    try:
        # The child's stdout goes to our stderr: stdout is the result's.
        # Its own session, so a kill reaches its workers and silos too.
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), str(job_file)],
            env=child_env(), cwd=ROOT, stdout=sys.stderr, start_new_session=True,
        )
        try:
            code = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise RuntimeError(
                f"{job['workload']}: run exceeded its {RUN_BUDGET_S} s budget")
        if code != 0:
            raise RuntimeError(f"{job['workload']}: child exited with code {code}")
        return json.loads(Path(job["result_path"]).read_text())
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


#: Tracing may cost the measured region this much (traced / untraced run_s).
TRACE_OVERHEAD_MAX = 1.05


def same_seed_verdict(runs: list[dict], what: str) -> dict:
    """Same seed several times: whole runs must agree bit for bit."""
    first = runs[0]
    same = all(
        r["params_sha256"] == first["params_sha256"] and r["exact"] == first["exact"]
        for r in runs)
    return {
        "name": "same_seed_same_run", "ok": same,
        "detail": f"{len(runs)} {what}: params SHA-256, bytes, epsilon"}


def scale_layers(layers: dict, factor: float) -> dict:
    """Per-layer values with every duration multiplied by ``factor`` (and
    every rate divided by it), going by the metric's unit."""
    power = {"s": 1, "1/s": -1, "MB/s": -1}
    return {
        name: value * factor ** power.get(BY_NAME[name].unit, 0)
        for name, value in layers.items()
    }


def run_once(name: str, seed: int, trace: bool, smoke: bool = False) -> dict:
    """One run of one workload: ``children`` fresh interpreters that each
    set up and run the same spec; the first also makes the output checks.
    The traced pass is two children: the first is probed, the second is
    the plain run its overhead is judged against."""
    deadline = time.monotonic() + RUN_BUDGET_S
    job = workloads.build_job(name, seed, smoke=smoke)
    count = job["children"] if smoke or not trace else 2
    children = [
        spawn({**job, "trace": trace and i == 0,
               "checks": job["checks"] and i == 0, "prefix_rerun": count == 1},
              deadline)
        for i in range(count)
    ]
    first = children[0]

    def undisturbed(child: dict, key: str) -> float:
        """The child's plain wall-clock, corrected by its own host readings."""
        return host.undisturbed(
            child[f"{key}_wall_s"], child[f"{key}_steal"], child["speed_index"])

    # (A smoke run has no twin: its one child stands in for both.)
    plain = children[1:] if trace and count > 1 else children
    run_s = [undisturbed(c, "run") for c in plain]
    periods = [host.undisturbed(p, c["run_steal"], c["speed_index"])
               for c in plain for p in c["periods"]]
    values = dict(first["exact"])
    values["setup_s"] = statistics.median(undisturbed(c, "setup") for c in children)
    values["peak_rss_mb"] = statistics.median(c["peak_rss_mb"] for c in plain)
    values["run_s"] = statistics.median(run_s)
    # Same seed, so every child made the same (silo, user) trainings.
    values["updates_per_s"] = first["pairs"] / values["run_s"]
    values["round_s_p50"] = statistics.median(periods)
    result = {
        "values": values, "periods": periods, "run_s_children": run_s,
        "checks": list(first["checks"]), "pairs": first["pairs"],
        "params_sha256": first["params_sha256"], "exact": first["exact"],
        "attempted": sum(c["attempted"] for c in children),
        "failed": sum(c["failed"] for c in children),
        # The plain wall-clock readings behind the values, per child.
        "raw": {
            key: [c[key] for c in children]
            for key in ("setup_wall_s", "setup_steal", "run_wall_s", "run_steal",
                        "speed_index", "peak_rss_mb", "load1")
        },
        "steal_share": statistics.median(c["run_steal"] for c in children),
        "sizes": {
            "rounds": job["rounds"], "children": count, "spec": job["spec"],
            "seed_attempts": job.get("seed_attempts", 1),
            **({"cpus": job["cpus"]} if "cpus" in job else {}),
        },
    }
    if count > 1:
        # In the traced pass this also shows the probes left the run's
        # own random streams alone.
        verdict = same_seed_verdict(children, "children")
        result["checks"].append(verdict)
        result["attempted"] += 1
        result["failed"] += not verdict["ok"]
    if trace:
        layers = scale_layers(
            first["layers"],
            host.undisturbed(1.0, first["run_steal"], first["speed_index"]))
        if count > 1:
            layers["bench.trace_overhead_ratio"] = (
                layers["bench.traced_run_s"] / values["run_s"])
        result["layers"] = layers
        result["separation"] = first.get("separation", [])
    return result


def contract_line(result: dict, trace: bool) -> str:
    metrics = (
        emit(PER_LAYER_NAMES, result["layers"]) if trace
        else emit(END_TO_END_NAMES, result["values"])
    )
    for name, entry in metrics.items():
        if not math.isfinite(entry["value"]):
            raise RuntimeError(f"metric {name} is not finite")
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    })


def report_failed_checks(name: str, result: dict) -> None:
    for verdict in (*result["checks"], *result.get("separation", ())):
        if not verdict["ok"]:
            print(f"CHECK FAILED {name}: {verdict['name']} {verdict['detail']}",
                  file=sys.stderr)


# -- suite mode ---------------------------------------------------------------


def _spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (0 below 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def trace_overhead_verdict(traced_run_s: float, plain_run_s: list[float]) -> dict:
    """Traced / untraced ``run_s`` against :data:`TRACE_OVERHEAD_MAX`.

    Above it, the verdict is ``unresolved`` (not a failure) when the
    untraced children themselves spread wider than the margin judged."""
    ratio = traced_run_s / statistics.median(plain_run_s)
    spread = _spread(plain_run_s)
    if ratio <= TRACE_OVERHEAD_MAX:
        state = "within"
    elif spread > TRACE_OVERHEAD_MAX - 1.0:
        state = "unresolved"
    else:
        state = "outside"
    return {
        "name": "trace_overhead", "ok": state != "outside", "ratio": ratio,
        "detail": f"{state}: traced run_s {traced_run_s:.4g} / median of "
                  f"{len(plain_run_s)} untraced children = {ratio:.3f} "
                  f"(max {TRACE_OVERHEAD_MAX}, their spread {spread:.3f})"}


def run_suite(args) -> int:
    names = args.workloads.split(",") if args.workloads else [
        w.name for w in workloads.WORKLOADS]
    unknown = [n for n in names if n not in workloads.BY_NAME]
    if unknown:
        sys.exit(f"unknown workload(s): {', '.join(unknown)}")
    runs: dict[str, list[dict]] = {name: [] for name in names}
    noisy: dict[str, list[dict]] = {name: [] for name in names}
    # Interleaved round-robin (A B C D E, A B C D E, ...): a noisy minute
    # on a shared host must not land on one workload only.
    for repeat in range(args.repeats):
        for name in names:
            result = run_once(name, args.seed, trace=False)
            if result["steal_share"] > host.STEAL_NOISY_SHARE:
                # Marked and re-run once, not silently averaged in.
                noisy[name].append(result)
                print(f"{name} repeat {repeat}: steal share "
                      f"{result['steal_share']:.2f} -> noisy, re-running once",
                      file=sys.stderr)
                result = run_once(name, args.seed, trace=False)
            runs[name].append(result)
            report_failed_checks(name, result)
            print(f"  {name} repeat {repeat + 1}/{args.repeats}: "
                  f"run_s {result['values']['run_s']:.3f}", file=sys.stderr)
    traced = {}
    if args.trace:
        for name in names:
            traced[name] = run_once(name, args.seed, trace=True)
            report_failed_checks(name, traced[name])

    record = {
        "schema": "uldp-fl-benchmark-suite/v2",
        "host": host.host_block(ROOT),
        "seed": args.seed,
        "repeats": args.repeats,
        "workloads": {},
    }
    failed_total = 0
    for name in names:
        results = runs[name]
        entry = {
            "why": workloads.BY_NAME[name].why,
            "sizes": results[0]["sizes"],
            "metrics": {},
            "noisy_runs": [
                {"steal_share": r["steal_share"], "run_s": r["values"]["run_s"]}
                for r in noisy[name]
            ],
            # Per repeat, per child: the plain wall-clock readings and the
            # host noise the reported values were corrected with.
            "raw": [r["raw"] for r in results],
            "pairs": results[0]["pairs"],
        }
        counted = results + ([traced[name]] if name in traced else [])
        verdicts = [v for r in counted for v in r["checks"]]
        attempted = sum(r["attempted"] for r in counted)
        failed = sum(r["failed"] for r in counted)
        if len(results) > 1:
            verdicts.append(same_seed_verdict(results, "repeats"))
            attempted += 1
            failed += not verdicts[-1]["ok"]
        pooled = [p for r in results for p in r["periods"]]
        for metric in END_TO_END:
            values = [r["values"][metric.name] for r in results]
            value = statistics.median(values)
            n = len(values)
            if metric.name == "round_s_p50":
                value, n = statistics.median(pooled), len(pooled)
            entry["metrics"][metric.name] = {
                "value": value, "unit": metric.unit, "better": metric.better,
                "bound": metric.bound, "n": n, "values": values,
                "spread": _spread(values),
            }
        for metric, key in (("setup_s", "setup_wall_s"), ("run_s", "run_wall_s")):
            entry["metrics"][metric]["plain_wall_clock"] = statistics.median(
                w for r in results for w in r["raw"][key])
        if len(pooled) >= 100:
            # Diagnostic only: tails do not repeat within a tenth here.
            entry["round_s_p90"] = {
                "value": statistics.quantiles(pooled, n=10)[-1], "unit": "s",
                "n": len(pooled),
            }
        if name in traced:
            layers = traced[name]["layers"]
            # Against every untraced child of the suite, not only the
            # traced run's own twin.
            verdict = trace_overhead_verdict(
                layers["bench.traced_run_s"],
                [x for r in counted for x in r["run_s_children"]])
            layers["bench.trace_overhead_ratio"] = verdict.pop("ratio")
            # The benchmark's own validity: do the workloads still
            # separate the layers, and did tracing leave the run alone?
            validity = [*traced[name]["separation"], verdict]
            verdicts += validity
            attempted += len(validity)
            failed += sum(not v["ok"] for v in validity)
            entry["layers"] = {
                m.name: {"value": layers[m.name], "unit": m.unit} for m in PER_LAYER
            }
        entry["ops_attempted"], entry["ops_failed"] = attempted, failed
        entry["checks"] = verdicts
        failed_total += failed
        record["workloads"][name] = entry
    print_suite(record)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1))
    print(f"\nrecord written to {out}")
    return 1 if failed_total else 0


def print_suite(record: dict) -> None:
    h = record["host"]
    print(f"host: {h['nproc']} x {h['cpu_model']}, python {h['python']}, "
          f"numpy {h['numpy']}, {h['blas']}, threads pinned {h['thread_env']}, "
          f"git {h['git_rev']}, seed {record['seed']}, repeats {record['repeats']}")
    for name, entry in record["workloads"].items():
        print(f"\n{name}  (rounds {entry['sizes']['rounds']}, "
              f"{entry['pairs']} (silo,user) updates per run)")
        for metric, m in entry["metrics"].items():
            wall = (f"  (plain wall-clock {m['plain_wall_clock']:.4g})"
                    if "plain_wall_clock" in m else "")
            print(f"  {metric:<28} {m['value']:>16.6g} {m['unit']:<5} "
                  f"n={m['n']:<4} bound {m['bound']:.3g}  spread {m['spread']:.3f}"
                  f"{wall}")
        if "round_s_p90" in entry:
            p90 = entry["round_s_p90"]
            print(f"  {'round_s_p90 (diagnostic)':<28} {p90['value']:>16.6g} s     "
                  f"n={p90['n']}")
        print(f"  {'ops_attempted':<28} {entry['ops_attempted']:>16} count")
        print(f"  {'ops_failed':<28} {entry['ops_failed']:>16} count bound 0 (exact)")
        for layer, m in entry.get("layers", {}).items():
            print(f"    {layer:<44} {m['value']:>14.6g} {m['unit']}")
        for verdict in entry["checks"]:
            if verdict["name"].startswith(("separation.", "trace_overhead")):
                print(f"  {verdict['name']:<44} {verdict['detail']}")


# -- compare ------------------------------------------------------------------


def compare(path_a: str, path_b: str) -> int:
    """B against A, per workload x end-to-end metric; non-zero on ``outside``."""
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    outside = 0
    print(f"{'workload':<24} {'metric':<26} {'A':>14} {'B':>14} "
          f"{'worse by':>10} {'bound':>8}  verdict")
    for name, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(name)
        if entry_b is None:
            print(f"{name:<24} missing from B")
            outside += 1
            continue
        rows = [(m.name, m.better, m.bound) for m in END_TO_END]
        for metric, better, bound in rows:
            ma, mb = entry_a["metrics"][metric], entry_b["metrics"][metric]
            sign = 1.0 if better == "lower" else -1.0
            # Relative to A's value, positive = B is worse.
            worse = sign * (mb["value"] - ma["value"]) / abs(ma["value"])
            b_all_better = all(
                sign * (vb - va) < 0 for va in ma["values"] for vb in mb["values"])
            if worse > bound:
                verdict = "outside"
            elif max(ma["spread"], mb["spread"]) > bound and not b_all_better:
                verdict = "unresolved"
            else:
                verdict = "within"
            outside += verdict == "outside"
            print(f"{name:<24} {metric:<26} {ma['value']:>14.6g} "
                  f"{mb['value']:>14.6g} {worse:>+10.4f} {bound:>8.3g}  {verdict}")
        fa, fb = entry_a["ops_failed"], entry_b["ops_failed"]
        verdict = "within" if fb == 0 else "outside"
        outside += verdict == "outside"
        print(f"{name:<24} {'ops_failed':<26} {fa:>14} {fb:>14} "
              f"{fb - fa:>+10} {'0':>8}  {verdict}")
    print(f"\nrelative differences are (B - A) / A; {outside} outside")
    return 1 if outside else 0


# -- selftest -----------------------------------------------------------------


def selftest() -> int:
    """Every workload at a smoke size: the harness's own invariants."""
    problems: list[str] = []
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, metrics in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"], m.get("bound"))
                  for m in declared[key]]
        ours = [(m.name, m.unit, m.better, m.bound) for m in metrics]
        if listed != ours:
            problems.append(f"BENCHMARK.json {key} differs from bench/metrics.py")
    if [w["name"] for w in declared["workloads"]] != [
            w.name for w in workloads.WORKLOADS]:
        problems.append("BENCHMARK.json workloads differ from bench/workloads.py")
    for metric in (*END_TO_END, *PER_LAYER):
        if not NAME_RE.match(metric.name) or not UNIT_RE.match(metric.unit):
            problems.append(f"bad metric name or unit: {metric.name} [{metric.unit}]")
    started = time.perf_counter()
    for workload in workloads.WORKLOADS:
        if not NAME_RE.match(workload.name):
            problems.append(f"bad workload name: {workload.name}")
        # Probes and the real round are timed at different moments, so a
        # burst of host noise skews their ratio: two retries before judging.
        for attempt in range(3):
            result = run_once(workload.name, seed=1, trace=True, smoke=True)
            cover = result["layers"]["bench.layer_cover_ratio"]
            if 0.85 <= cover <= 1.15:
                break
        else:
            problems.append(
                f"{workload.name}: layer spans cover {cover:.2f} of the round span")
        if result["failed"]:
            problems.append(f"{workload.name}: {result['failed']} failed operation(s)")
        for names, values in ((END_TO_END_NAMES, result["values"]),
                              (PER_LAYER_NAMES, result["layers"])):
            for name in names:
                if name == "bench.trace_overhead_ratio":
                    continue  # needs the plain twin a smoke run leaves out
                value = values.get(name)
                if value is None or not math.isfinite(value):
                    problems.append(f"{workload.name}: {name} missing or not finite")
                elif not BY_NAME[name].unit:
                    problems.append(f"{workload.name}: {name} has no unit")
        print(f"  {workload.name}: cover {cover:.2f}, "
              f"{time.perf_counter() - started:.1f} s elapsed", file=sys.stderr)
    for problem in problems:
        print(f"SELFTEST: {problem}")
    print(f"selftest: {len(problems)} problem(s) in "
          f"{time.perf_counter() - started:.1f} s")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload (contract mode)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="accepted for the driver; every run is the same "
                             "fixed work, sized for BENCHMARK.json's run_seconds")
    parser.add_argument("--trace", nargs="?", const=1, type=int, default=0,
                        help="1: the traced, layer-by-layer pass")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--workloads", help="suite mode: comma-separated subset")
    parser.add_argument("--out", default=str(OUT / "results.json"))
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    prepare()
    if args.selftest:
        return selftest()
    if args.workload is None:
        return run_suite(args)
    if args.workload not in workloads.BY_NAME:
        sys.exit(f"unknown workload: {args.workload}")
    result = run_once(args.workload, args.seed, bool(args.trace))
    report_failed_checks(args.workload, result)
    print(contract_line(result, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
