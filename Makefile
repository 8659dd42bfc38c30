# Convenience targets; everything is plain cargo underneath.

.PHONY: build test bench-parallel bench-textscan bench-obs bench-inject bench-traffic bench-micro bench-oblivious bench-graph verify fmt lint

build:
	cargo build --release

test:
	cargo test -q

# Writes BENCH_parallel.json: campaign/mining throughput at 1..N threads.
bench-parallel:
	sh scripts/bench_parallel.sh

# Writes BENCH_textscan.json: naive vs automaton scan throughput at 1 thread.
bench-textscan:
	sh scripts/bench_textscan.sh

# Writes BENCH_obs.json: metrics-layer overhead on an instrumented campaign.
bench-obs:
	sh scripts/bench_obs.sh

# Writes BENCH_inject.json: injection-campaign determinism + supervisor overhead.
bench-inject:
	sh scripts/bench_inject.sh

# Writes BENCH_<plane>.json: one open-loop campaign plane's requests/sec at
# 1..N threads plus its headline (traffic: SLO ledger; micro: TTR ratio vs
# restart; oblivious: EI rescue ratio; graph: channel-vs-process TTR ratio).
bench-traffic bench-micro bench-oblivious bench-graph:
	sh scripts/bench_campaign.sh $(@:bench-%=%)

verify:
	cargo run --release -p faultstudy-harness --bin faultstudy -- verify

fmt:
	cargo fmt --all -- --check

lint:
	cargo clippy --workspace --all-targets -- -D warnings
