#!/usr/bin/env bash
# Repo CI gate: build, tests, the 10K-client and durable-log footprint
# gates, the protocol cores' and the History checker's purity, the
# one-op-driver, one-op-fate, one-backend-builder, in-flight-continuation,
# delayed-send, one-op-record, one-eviction-policy and one-histogram gates,
# lints, format, rustdoc, the benchmark's smoke tests and the figure
# reproducibility gate.
# Run from the repo root; any failure fails the script.
#
#   ./ci.sh
#
# Perf is not gated here: wall time is judged on medians by
# `benchmark/run.sh compare` (see benchmark/README.md).
set -euo pipefail
cd "$(dirname "$0")"

echo "== build (release) =="
cargo build --release --workspace

echo "== tests =="
cargo test -q --workspace

echo "== client footprint at 10K clients (release) =="
# One lease-cache buffer per distinct version, at most two configs and two
# geometries per backend for the whole cell, no op parked past one CONNECT
# round, an event queue within its fixed wheel plus 256 B per event of its
# high-water mark, and at most 12 KiB of live heap added per client by the
# run. Minutes in debug, so tier-1 keeps only the small-cell gates of this
# file.
cargo test --release -q --test client_footprint -- --ignored

echo "== durable log footprint at mut_durable's shape (release) =="
# ~540K replica-side appends in 1.5 simulated s: seconds in release.
cargo test --release -q --test wal_footprint -- --ignored

echo "== protocol core purity =="
# The quorum, repair, handoff and attempt rules stay sans-IO: above its
# test module, each core names nothing of the simulator
# (tests/quorum_exhaustive.rs, tests/repair_exhaustive.rs,
# tests/handoff_exhaustive.rs and tests/attempt_exhaustive.rs enumerate
# every vote order, every small cohort, every few writes around a handoff
# and every order of an op's lifecycle inputs only because the rules are
# pure functions). So does the History's §5 checker: `history::check` is a
# function of the rows, time in u64 ns.
for core in crates/cliquemap/src/{quorum,repair,handoff,attempt,history}.rs; do
    if sed '/#\[cfg(test)\]/,$d' "$core" | grep -nE 'Ctx|Metrics|SimRng|simnet::'; then
        echo "$core names simulator types outside its test module" >&2
        exit 1
    fi
done

echo "== one op-driver =="
# Whatever pulls ops from a `Workload` is an op-driver (pacing, admission,
# retry, completion logging); the tree has one, so every system under
# comparison pays the same client-side model.
drivers=$(grep -rln 'workload\.next(' crates/*/src || true)
if [ "$drivers" != "crates/cliquemap/src/client.rs" ]; then
    echo "op-drivers outside crates/cliquemap/src/client.rs:" $drivers >&2
    exit 1
fi

echo "== one place decides an op's fate =="
# The deadline and the retry budget are applied by the attempt core
# (crates/cliquemap/src/attempt.rs); the client hands it the policy and
# acts on its steps.
if sed '/#\[cfg(test)\]/,$d' crates/cliquemap/src/client.rs | grep -nE 'op_deadline|max_attempts'; then
    echo "crates/cliquemap/src/client.rs applies the retry policy itself" >&2
    exit 1
fi

echo "== one place builds a backend =="
# The cell assigns every backend its identity, at build and at restart
# alike (`Cell::restart_backend`, `Cell::backend_reviver`); only the
# backend's own unit tests build one by hand.
builders=$(grep -rl 'BackendNode::new(' crates src tests examples | sort | xargs || true)
if [ "$builders" != "crates/cliquemap/src/backend.rs crates/cliquemap/src/cell.rs" ] ||
    sed '/#\[cfg(test)\]/,$d' crates/cliquemap/src/backend.rs | grep -q 'BackendNode::new('; then
    echo "backends built outside crates/cliquemap/src/cell.rs:" $builders >&2
    exit 1
fi

echo "== in-flight frames are continuations =="
# A node keeps its outstanding RMA ops and RPC calls as typed records in a
# `Deferred::in_flight` namespace: the token is the wire id and the attempt
# timer's token, and the enum in the record says what the answer resolves.
# No second call table, timer-token base or packed call tag comes back.
if grep -rnE 'CallTable|RmaOpTable|user_tag|TIMER_BASE|BATCH_TAG_BIT' crates src tests examples; then
    echo "in-flight frames tracked outside a Deferred namespace" >&2
    exit 1
fi

echo "== delayed sends are the simulator's =="
# A frame that waits for a transport engine before it leaves is queued with
# `Ctx::send_after`: the simulator holds it, and no node keeps a timer
# record for it or is called when it goes.
if grep -rnE 'SendWire|Work::Respond' crates src tests examples; then
    echo "a node holds a delayed send itself (use Ctx::send_after)" >&2
    exit 1
fi

echo "== one op record =="
# What an op did is recorded once, in the cell's opt-in History
# (crates/cliquemap/src/history.rs): no per-client completion log comes
# back.
if grep -rnE '\.completions\b|COMPLETION_LOG_CAP' crates src tests examples; then
    echo "a per-client completion log (use Cell::record_history + Cell::history)" >&2
    exit 1
fi

echo "== one eviction policy on the serving path =="
# Every store and the MemcacheG baseline evict by `LruPolicy`, called
# directly: no policy trait, name lookup or capacity hint comes back to the
# system crates. Ablation A5's FIFO, random and ARC live in
# crates/bench/src/experiments/ablations.rs.
if grep -rnE 'EvictionPolicy|policy_by_name|set_capacity_hint' crates/cliquemap/src crates/baselines/src; then
    echo "an eviction-policy indirection on the serving path (call LruPolicy)" >&2
    exit 1
fi

echo "== one histogram =="
# A percentile is read from the structure that recorded it: one latency
# distribution in the tree, and every metric write goes through an id.
quantiles=$(grep -rl 'fn quantile' crates/*/src || true)
if [ "$quantiles" != "crates/obs/src/histogram.rs" ] || [ -e crates/obs/src/sketch.rs ]; then
    echo "latency distributions outside crates/obs/src/histogram.rs:" $quantiles >&2
    exit 1
fi
if grep -rnE 'metrics(_mut)?\(\)\s*\.(add|record|hist|push_series)\(' crates src tests examples; then
    echo "by-name metric write (use Metrics::handle + the *_id writers)" >&2
    exit 1
fi

echo "== clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustfmt =="
cargo fmt --all --check

echo "== rustdoc =="
# A doc comment that links to an item that is gone or private fails here.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== benchmark smoke (every workload through the child path) =="
cargo test --offline --manifest-path benchmark/Cargo.toml

echo "== figures --verify =="
# Every experiment regenerates twice: byte-identical run to run and against
# the committed results/*.csv (and results/trace_chrome.json). This is the
# zero-impact proof for every opt-in feature at once — a figure that does
# not enable a feature must not move when that feature's code changes.
cargo run --release -p bench --bin figures -- --verify

echo "CI OK"
