#!/usr/bin/env bash
# Repo CI gate: build, tests, the 10K-client and durable-log footprint
# gates, the protocol cores' and the History checker's purity, the
# one-op-driver, one-op-fate, GET-validation-lives-in-read.rs,
# one-backend-builder, in-flight-continuation,
# delayed-send, client-timers-are-tokens, one-op-record,
# one-eviction-policy, one-recency-list, per-backend-row,
# one-histogram and one-buffer-pool gates, lints, format, rustdoc, the
# benchmark's smoke tests and the figure reproducibility gate.
# Run from the repo root; any failure fails the script.
#
#   ./ci.sh
#
# Perf is not gated here: wall time is judged on medians by
# `benchmark/run.sh compare` (see benchmark/README.md).
set -euo pipefail
cd "$(dirname "$0")"

# forbid <message> <pattern> <paths...>: print every match of the extended
# regex <pattern> under <paths>, then fail with <message> if there was one.
forbid() { if grep -rnE "$2" "${@:3}"; then echo "$1" >&2; exit 1; fi; }

echo "== build (release) =="
cargo build --release --workspace

echo "== tests =="
cargo test -q --workspace

echo "== client footprint at 10K clients (release) =="
# One lease-cache buffer per distinct version, at most two configs and two
# geometries per backend for the whole cell, no op parked past one CONNECT
# round, an event queue within its fixed wheel plus 256 B per event of its
# high-water mark, and at most 6 KiB of live heap added per client by the
# run (~5.4 KiB since a client's timers carry their work in the token and a
# buffer pool keeps a byte budget per size class, where a timer table and
# 4,096 idle buffers of every class were ~6 KiB). Minutes in debug, so
# tier-1 keeps only the small-cell gates of this file.
cargo test --release -q --test client_footprint -- --ignored

echo "== durable log footprint at mut_durable's shape (release) =="
# ~540K replica-side appends in 1.5 simulated s: seconds in release.
cargo test --release -q --test wal_footprint -- --ignored

echo "== protocol core purity =="
# The quorum, repair, handoff, attempt and read rules stay sans-IO: above
# its test module, each core names nothing of the simulator
# (tests/quorum_exhaustive.rs, tests/repair_exhaustive.rs,
# tests/handoff_exhaustive.rs, tests/attempt_exhaustive.rs and
# tests/read_exhaustive.rs enumerate every vote order, every small cohort,
# every few writes around a handoff, every order of an op's lifecycle
# inputs and every answer to a sub-op only because the rules are pure
# functions). So does the History's §5 checker: `history::check` is a
# function of the rows, time in u64 ns.
for core in crates/cliquemap/src/{quorum,repair,handoff,attempt,read,history}.rs; do
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

echo "== GET validation lives in read.rs =="
# What one replica's answer to one sub-op means (checksum, full key, config
# stamp, overflow flag, status) is judged by the read core
# (crates/cliquemap/src/read.rs), which also holds the per-strategy rows;
# the client asks it and feeds the verdict to the quorum core.
if sed '/#\[cfg(test)\]/,$d' crates/cliquemap/src/client.rs |
    grep -nE 'parse_data_entry|scan_bucket|bucket_config_id|bucket_overflowed|StrategyRow|STRATEGIES'; then
    echo "crates/cliquemap/src/client.rs validates a GET answer itself (use cliquemap::read)" >&2
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
forbid "in-flight frames tracked outside a Deferred namespace" \
    'CallTable|RmaOpTable|user_tag|TIMER_BASE|BATCH_TAG_BIT' crates src tests examples

echo "== delayed sends are the simulator's =="
# A frame that waits for a transport engine before it leaves is queued with
# `Ctx::send_after`: the simulator holds it, and no node keeps a timer
# record for it or is called when it goes.
forbid "a node holds a delayed send itself (use Ctx::send_after)" \
    'SendWire|Work::Respond' crates src tests examples

echo "== client timers are tokens =="
# A client's pacing, retry, access-flush and issue timers encode their work
# in the timer or CPU token (`Work::token`); the one op drawn ahead waits in
# `next_op`. No per-client table of timer continuations comes back.
forbid "a client keeps a table of timer continuations (use Work::token)" \
    'Deferred<Work>|Deferred::aux1' crates/cliquemap/src/client.rs

echo "== one op record =="
# What an op did is recorded once, in the cell's opt-in History
# (crates/cliquemap/src/history.rs): no per-client completion log comes
# back.
forbid "a per-client completion log (use Cell::record_history + Cell::history)" \
    '\.completions\b|COMPLETION_LOG_CAP' crates src tests examples

echo "== one eviction policy on the serving path =="
# Every store and the MemcacheG baseline evict by `LruPolicy`, called
# directly: no policy trait, name lookup or capacity hint comes back to the
# system crates. Ablation A5's FIFO, random and ARC live in
# crates/bench/src/experiments/ablations.rs.
forbid "an eviction-policy indirection on the serving path (call LruPolicy)" \
    'EvictionPolicy|policy_by_name|set_capacity_hint' crates/cliquemap/src crates/baselines/src

echo "== one recency list =="
# The store's LRU, the lease cache and the tombstone FIFO are each a `lru::RecencyList`.
forbid "a hand-rolled recency list (use cliquemap::lru::RecencyList)" \
    'fn (unlink|push_front|push_tail|index_insert|index_remove)\b|VecDeque' crates/cliquemap/src/{policy,client_cache,tombstone}.rs

echo "== per-backend client state is one row =="
# A client keeps what it knows of each backend (its geometry, or a CONNECT
# in flight) in one dense `u16` row indexed by the slot its cell's
# `ClientShared` assigns the backend: no per-client hash map or set over
# backends comes back (10,000 of them never shrink on cell950).
if sed '/#\[cfg(test)\]/,$d' crates/cliquemap/src/client.rs | grep -nE 'Id(Map|Set)<NodeId'; then
    echo "crates/cliquemap/src/client.rs keeps a per-backend map (use BackendRow)" >&2
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
forbid "by-name metric write (use Metrics::handle + the *_id writers)" \
    'metrics(_mut)?\(\)\s*\.(add|record|hist|push_series)\(' crates src tests examples

echo "== one buffer pool per simulation, no locks on the wire path =="
# The simulator is single-threaded: `bytes::Pool` keeps its freelists in
# `RefCell`s and its counters in `Cell`s, and the `Sim` owns the one pool
# every host encodes through. No lock or atomic comes back to the pool, and
# no per-host pool vector to simnet.
forbid "a lock or atomic in the frame-buffer pool (it is single-threaded)" \
    'Mutex|Atomic' third_party/bytes/src/lib.rs
forbid "a pool per host (the Sim owns one: Sim::pool, Ctx::pool)" \
    'pools: Vec<Pool>|fn host_pool' crates/simnet/src

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
