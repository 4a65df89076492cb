# Developer entry points for the Uldp-FL reproduction.
#
#   make test           tier-1 test suite (what CI runs)
#   make test-accounting  the accountant's tests alone, incl. the scalar-oracle
#                       differential tests (docs/privacy_accounting.md)
#   make bench-engine   batched-engine round timing on fig05 MNIST (U50/U400)
#   make bench-cnn      one traced `train_cnn` benchmark run (bench/run.py): round
#                       period, minor faults per round, engine seconds; fails
#                       above 5000 faults per round
#   make bench-sharded  one traced `train_tabular_sharded` benchmark run: round
#                       period, pool overhead, 2-worker scaling efficiency;
#                       fails when the run is incorrect
#   make bench-protocol fast Paillier vs. masked secagg (two-way)
#   make bench-sim      simulation runtime: 1M-user population + dropout
#   make bench-compress update compression: uplink bytes vs utility (fig05)
#   make bench-scaleout sharded engine: one DP round over 100k sampled users
#                       in bounded resident memory (BENCH_SCALEOUT_SCALE=smoke
#                       shrinks it to CI size)
#   make sweep-smoke    validate every committed spec file, then one smoke
#                       `repro run --config`, one 2-point `repro sweep`, a
#                       checkpointed sim run resumed with `repro run --resume`,
#                       three spec files run by name (`repro figure fig08
#                       --output`, `repro figure fig05`, the secure `fig10`),
#                       one combination ULDP-SGD gained in PR 19 and one that
#                       is still refused (exit 2, one line, no traceback)
#   make trace-smoke    one traced networked round trip: serve net_sim.toml
#                       with [obs] on (faults cleared), then summarise the
#                       resulting trace.jsonl
#   make results        regenerate docs/results.md, every `repro figure NAME
#                       --scale smoke` table (tests/test_docs.py: staleness)
#   make docs-check     doctest the docs' worked examples + docstring coverage
#   make cost-check     bench-file schema + cost-model predictions vs the
#                       committed BENCH_*.json (the static half of the CI
#                       drift gate; docs/cost_model.md)
#   make cost-drift     re-run the smoke benches, re-fit the calibration
#                       constants, and assert they stay within 2x of the
#                       committed src/repro/cost/calibration.json
#
# bench-engine, bench-protocol, bench-sim, bench-compress, and
# bench-scaleout also refresh the machine-readable BENCH_engine.json /
# BENCH_protocol.json / BENCH_sim.json / BENCH_compression.json /
# BENCH_scaleout.json at the repo root, so the perf trajectory is
# tracked across PRs (CI uploads them as artifacts).

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-accounting results bench-engine bench-cnn bench-sharded bench-protocol bench-sim bench-compress bench-scaleout sweep-smoke trace-smoke docs-check cost-check cost-drift

test:
	$(PYTHON) -m pytest -x -q

test-accounting:
	$(PYTHON) -m pytest tests/accounting -q --durations=10

results:
	$(PYTHON) tools/make_results.py

bench-engine:
	$(PYTHON) -m pytest benchmarks/bench_engine_speedup.py -s

# The single-step CNN walk must not go back to the kernel for its
# temporaries (docs/architecture.md, "The workspace"): ~22 k minor faults a
# round before the workspace, a handful after.  A count, so it gates on
# any host.
bench-cnn:
	python3 bench/run.py --workload train_cnn --seed 1 --seconds 10 --trace 1 \
		| $(PYTHON) tools/bench_report.py bench-cnn bench.round_period_s \
			core.engine.minor_faults_per_round core.engine.local_deltas_s \
			--max core.engine.minor_faults_per_round=5000

# The resident pool (docs/scaleout.md, "The memory model"): what a round
# costs through 2 workers, what the pool adds on top of the kernels, and
# how that compares with the same run in one process.  Wall-clock, so only
# the run's own output checks (same seed, workers = 0 reference) gate.
bench-sharded:
	python3 bench/run.py --workload train_tabular_sharded --seed 1 --seconds 10 --trace 1 \
		| $(PYTHON) tools/bench_report.py bench-sharded bench.round_period_s \
			core.engine.pool_overhead_s core.engine.scaling_efficiency_w2

bench-protocol:
	$(PYTHON) -m pytest benchmarks/bench_protocol_speedup.py -s

bench-sim:
	$(PYTHON) -m pytest benchmarks/bench_sim_scale.py -s

bench-compress:
	$(PYTHON) -m pytest benchmarks/bench_compression.py -s

bench-scaleout:
	$(PYTHON) -m pytest benchmarks/bench_scaleout.py -s

# Smoke the declarative surface end to end: every committed spec file
# must validate (registry names, enums, sweep expansion), one config run
# and one 2-point sigma grid must execute, and a checkpointed scenario
# must resume from its own directory.  A spec file is an experiment by
# name: `repro figure fig08 --output` must leave a non-empty histories
# file, fig05 (hand-written) and fig10 (secure, Protocol 1) must run.  Then
# the composition contract from both sides (docs/api.md, "What composes
# with what"): ULDP-SGD under a byte-capped scenario runs, and a method
# without the per-silo step under buffered-async is refused at validation
# -- exit 2 and one `error:` line, where it used to be a TypeError
# traceback.  Artifacts land in sweep-smoke/.
sweep-smoke:
	$(PYTHON) -m repro validate-config examples/specs/*.toml
	$(PYTHON) -m repro run --config examples/specs/quickstart.toml \
		--set rounds=1 --set dataset.users=8 --set dataset.silos=2 \
		--set dataset.records=120 --set method.local_epochs=1
	$(PYTHON) -m repro sweep --config examples/specs/quickstart.toml \
		--set "sweep.method.sigma=[0.5,5.0]" \
		--set rounds=1 --set dataset.users=8 --set dataset.silos=2 \
		--set dataset.records=120 --set method.local_epochs=1
	$(PYTHON) -m repro scenarios
	rm -rf sweep-smoke
	$(PYTHON) -m repro run --set sim.scenario=silo-outage --set sim.scale=smoke \
		--set sim.checkpoint_dir=sweep-smoke/ckpt --set sim.checkpoint_every=1
	$(PYTHON) -m repro run --resume sweep-smoke/ckpt
	$(PYTHON) -m repro figure fig08 --scale smoke \
		--output sweep-smoke/fig08.json
	test -s sweep-smoke/fig08.json
	$(PYTHON) -m repro figure fig05 --scale smoke
	$(PYTHON) -m repro figure fig10 --scale smoke
	$(PYTHON) -m repro run --set method.name=uldp-sgd \
		--set sim.scenario=bandwidth-cap --set sim.scale=smoke
	$(PYTHON) -m repro run --set method.name=default \
		--set sim.scenario=async-fedbuff --set sim.scale=smoke \
		2> sweep-smoke/refused.err; test $$? -eq 2
	test "$$(wc -l < sweep-smoke/refused.err)" -eq 1
	grep -q '^error: ' sweep-smoke/refused.err
	! grep -q Traceback sweep-smoke/refused.err

# A traced networked run end to end: server + spawned silos on an ideal
# network ([net.faults] cleared) with tracing enabled, then the trace
# summary must render (exit 0).  Artifacts land in trace-smoke/.
trace-smoke:
	rm -rf trace-smoke && mkdir -p trace-smoke
	$(PYTHON) -m repro serve --config examples/specs/net_sim.toml \
		--spawn-silos --log-level info \
		--set "net.faults={}" \
		--set obs.enabled=true \
		--set obs.trace_path=trace-smoke/trace.jsonl \
		--set sim.checkpoint_dir=trace-smoke/ckpt
	$(PYTHON) -m repro trace summary trace-smoke/trace.jsonl

docs-check:
	$(PYTHON) tools/check_docstrings.py
	$(PYTHON) -m doctest docs/privacy_accounting.md && echo "doctest OK: docs/privacy_accounting.md"

# Static cost-model gate: bench files must conform to the schema and the
# committed calibration must predict the committed BENCH numbers within
# 2x (byte formulas exactly).
cost-check:
	$(PYTHON) tools/check_bench_schema.py
	$(PYTHON) tools/check_cost_drift.py

# Dynamic cost-model gate (what the CI cost-drift job runs): refresh the
# bench files at smoke scale, re-fit the constants, and compare against
# the committed calibration.  Writes cost-drift-report.json.
cost-drift:
	$(PYTHON) -m pytest benchmarks/bench_engine_speedup.py -s
	BENCH_PROTOCOL_SCALE=smoke $(PYTHON) -m pytest benchmarks/bench_protocol_speedup.py -s
	$(PYTHON) -m pytest benchmarks/bench_sim_scale.py -s
	BENCH_COMPRESSION_SCALE=smoke $(PYTHON) -m pytest benchmarks/bench_compression.py -s
	BENCH_SCALEOUT_SCALE=smoke $(PYTHON) -m pytest benchmarks/bench_scaleout.py -s
	$(PYTHON) tools/check_cost_drift.py --refit --report cost-drift-report.json
