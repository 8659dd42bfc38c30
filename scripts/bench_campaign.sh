#!/usr/bin/env sh
# Updates BENCH_<plane>.json for one open-loop campaign plane (traffic,
# micro, oblivious or graph): simulated requests/sec at 1..N worker
# threads plus the plane's headline comparison. The file's trajectory is
# appended to, not overwritten: each run preserves the prior
# `trajectory` entries and adds its own 1-thread rate and tracked
# ratios, so the file accumulates the histories across PRs. Before any
# timing the bench asserts that the report, its instrumented metrics
# registry, and the rendered table are byte-identical at 1/2/4 threads
# and across chunk sizes, and aborts on violation. Run from the repo
# root:
#
#   sh scripts/bench_campaign.sh <traffic|micro|oblivious|graph> [REQUESTS]
#
# or via make: `make bench-traffic` (likewise bench-micro,
# bench-oblivious, bench-graph). REQUESTS defaults to 1,000,000 for
# traffic and 600,000 for the other planes.
set -eu
cd "$(dirname "$0")/.."
plane=$1
shift
cargo run --release -p faultstudy-bench --bin bench_campaign -- "$plane" "BENCH_$plane.json" "$@"
