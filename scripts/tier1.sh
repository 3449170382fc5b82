#!/usr/bin/env bash
# Tier-1 gate: everything must build, every test must pass, and the lint
# wall must be clean. Run from anywhere inside the repository.
set -euo pipefail
cd "$(dirname "$0")/.."

# Formatting: the workspace is rustfmt-clean, and stays so.
cargo fmt --all --check

cargo build --release

# Rate gate (DESIGN.md §5e, EXPERIMENTS.md E9): the release build above
# includes the plain replay `benchmark` binary. Each workload of
# results/rate_ledger.txt replays for 11 calibrated rounds (about 25 s in
# all); the binary exits non-zero on any wrong SimStats, and the gate
# fails if a ULC or uniLRU rate stays under its ledger floor, 0.75 x the
# recorded median, on a second run.
bash scripts/rate_gate.sh

# Every crate's suite, including the alloc gate (crates/bench/tests/
# alloc_gate.rs, DESIGN.md §5f): its test target installs a counting
# allocator, so every golden-grid cell and the benchmark-sized serial
# and sharded cells must replay their steady tail allocation-free.
cargo test -q --workspace

# Built-in lint wall, set in the root [workspace.lints] table, the
# crate roots' `#![warn(...)]` lines and clippy.toml (DESIGN.md §5c): doc
# coverage, `// SAFETY:` comments on unsafe blocks, unsafe operations
# inside `unsafe fn` bodies, no std hash table or wall clock in in-house
# code, no unwrap or panic in library code, no wildcard arm over a
# message-plane enum in the three delivery modules, and reasoned
# `#[expect]` suppressions that must still be fulfilled. Clippy sees only
# compiled code, so it runs again with every feature on: the `obs`
# recording path exists only there.
cargo clippy --workspace --all-targets -- -D warnings
cargo clippy --workspace --all-targets --all-features -- -D warnings

# The committed mutants (scripts/mutants/, DESIGN.md §5c) must still apply
# to this tree, so an edit next to a mutated line fails here rather than at
# the next scripts/mutants.sh run. Only that script, run by hand because
# it rebuilds once per mutant, proves each one is caught.
for p in scripts/mutants/*.patch; do git apply --check "$p"; done

# The root package's suites (tests/invariants.rs and the paper-goal and
# protocol tests) with every structure self-validating. `-p ulc` keeps
# this step to the root package now that `default-members` spans the
# crates: their own suites run under `debug_invariants` below where it
# matters (hierarchy, golden grid, chaos), and the figure tests under it
# take over ten minutes.
cargo test -p ulc --features debug_invariants -q

# The hierarchy crate's unit tests and proptests with every engine
# self-validating on each access: uniLRU's structural checks, including
# that its adaptive bookkeeping exists exactly under the Adaptive variant,
# and the message planes' drained-link claims (about 11 s warm).
cargo test -q -p ulc-hierarchy --features debug_invariants

# Golden SimStats grid (crates/core/tests/golden/sim_stats.txt): every
# engine × configuration × smoke workload, including the crashy
# FaultyPlane legs, replayed through simulate, the by-value access wrapper
# and a dirty pooled access_into driver, must print exactly the committed
# lines. Built with debug_invariants so all 59 cells also run under the
# tick-sampled structural checks (about 25 s).
cargo test -q -p ulc-core --features debug_invariants --test golden_stats

# Published-figure drift gate: the committed Figure 6/7 tables must be
# exactly what the engines print today at --scale=default (about 35 s of
# release run time). Any change to simulated numbers — intended or not —
# fails here until results/ is regenerated with the same commands and
# EXPERIMENTS.md is updated to match.
for fig in fig6 fig7; do
  extra=()
  if [[ "$fig" == fig7 ]]; then extra=(--detail); fi
  if ! cargo run -q --release -p ulc-bench --bin "$fig" -- --scale=default "${extra[@]}" |
    diff -u "results/${fig}_default.txt" -; then
    echo "tier1: $fig output drifted from results/${fig}_default.txt" >&2
    exit 1
  fi
done

# The same drift gate for the ablation studies (about 8 s): tempLRU-hit
# counting (A), metadata budget (B) and the multi-client claim rule (C)
# must print exactly results/ablation_default.txt.
if ! cargo run -q --release -p ulc-bench --bin ablation -- --scale=default |
  diff -u results/ablation_default.txt -; then
  echo "tier1: ablation output drifted from results/ablation_default.txt" >&2
  exit 1
fi

# The same drift gate for the locality measures (about 22 s): Table 1,
# Figure 2 and Figure 3, each binary's stdout under its `== name ==`
# header, must print exactly results/measures_default.txt.
if ! for bin in table1 fig2 fig3; do
  echo "== $bin =="
  cargo run -q --release -p ulc-bench --bin "$bin" -- --scale=default
done | diff -u results/measures_default.txt -; then
  echo "tier1: measures output drifted from results/measures_default.txt" >&2
  exit 1
fi

# Message-plane gates (ISSUE 3): the zero-fault differential suite proves
# the FaultyPlane refactor is bit-identical to the reliable plane on every
# protocol-comparison workload, and the seeded chaos scenario proves the
# recovery path (settle + reconcile) restores the full invariants under
# drops, duplicates, delays and a server crash.
cargo test -q -p ulc-core --test protocol_comparison
cargo test -q -p ulc-core --test chaos --features debug_invariants seeded_chaos_scenario_recovers

# Sharded replay gate (ISSUE 9, DESIGN.md §5i): the seeded differential
# smoke suite proves the bulk-synchronous executor bit-identical to the
# serial driver — every multi-client workload at 1/2/8 shards, both
# claim rules, a zero-fault FaultyPlane on the parallel path, the crashy
# scenario on the serial fallback, arbitrary epoch lengths and
# replay_range splits, plus a 24-case shard-count-invariance property.
# Built with obs so its recorder legs run too: an observed run takes the
# serial fallback and records what simulate records, and replay_range
# refuses a policy with a recorder attached. (`cargo test --workspace`
# above runs the plain build of the same suite.)
cargo test -q -p ulc-core --features obs --test parallel_replay

# Observability gates (DESIGN.md §5h): the obs crate's own suite (ring,
# registry, proptested merge laws) and the per-protocol conservation
# suite (event ledger reconciles exactly with SimStats; the exclusive
# UlcSingle event log replays to single residency on its own).
cargo test -q -p ulc-obs --features enabled
cargo test -q -p ulc-core --features obs --test obs_conservation

# The §5f contract with a live recorder attached: the alloc gate built
# with recording enabled runs its recorder legs, and its benchmark-sized
# serial cells replay with a recorder attached (sharded replay cannot
# record, so the sharded leg runs without one).
cargo test -q -p ulc-bench --features obs --test alloc_gate

# The flight-recorder export, the one observability report (DESIGN.md
# §5j, EXPERIMENTS.md E12): the golden schema snapshot pins the export's
# shape, and a tiny live collect must verify, with the residency replay
# verified on both ULC cells; then obs-tool writes a seeded smoke export
# whose every cell reconciles with its SimStats and whose window sums
# reconcile exactly with the final registries, converts it to a Chrome
# trace, and `verify` re-parses the written file and recomputes the
# derived report bit-identically — export and verify exit non-zero on
# any drift.
cargo test -q -p ulc-bench --features obs --test json_schema
cargo test -q -p ulc-bench --features obs --lib flight
cargo run -q --release -p ulc-bench --features obs --bin obs-tool -- \
  export --scale=smoke --out=results/FLIGHT_obs.json
cargo run -q --release -p ulc-bench --features obs --bin obs-tool -- \
  chrome --in=results/FLIGHT_obs.json --out=results/FLIGHT_trace.json
cargo run -q --release -p ulc-bench --features obs --bin obs-tool -- \
  verify --in=results/FLIGHT_obs.json

echo "tier1: ok"
