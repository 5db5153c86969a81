//! Answers that arrive after their frame's attempt timer. Inside a window
//! where every frame from the backend and config-store hosts to the client
//! hosts pays 3 ms of extra one-way latency (the attempt timeout is 2 ms),
//! each in-flight frame — RMA single and doorbell batch, MSG lookup,
//! `MULTI_SET`, `GET_CONFIG`, `CONNECT`, `ACCESS_RECORDS` — is resolved by
//! its timer, and its answer, arriving later, finds nothing to resolve.
//! The counts below are exact for the seed: each timer expiry is counted
//! once, each admitted op completes once, and every op issued after the
//! heal succeeds.

use bytes::Bytes;
use cliquemap::cell::{Cell, CellSpec};
use cliquemap::client::LookupStrategy;
use cliquemap::workload::{ClientOp, OpOutcome, ScriptWorkload, Workload};
use simnet::{Fault, FaultPlan, HostSet, LinkImpairment, SimDuration, SimTime};

const KEYS: u32 = 6;

fn key(i: u32) -> Bytes {
    Bytes::from(format!("late{i}"))
}

fn ms(n: u64) -> SimTime {
    SimTime(n * 1_000_000)
}

/// What one run of the late-answer scenario leaves behind.
#[derive(Debug)]
struct Run {
    rma_timeouts: u64,
    rpc_timeouts: u64,
    config_refreshes: u64,
    /// Per client: the outcomes its caller saw.
    done: Vec<Vec<OpOutcome>>,
}

/// One in-window burst and one post-heal burst: a single GET, a MultiGet
/// and a MultiSet over the populated keys.
fn burst(gap: SimDuration) -> Vec<(SimDuration, ClientOp)> {
    let us = SimDuration::from_micros;
    let value = Bytes::from_static(b"value-2");
    vec![
        (gap, ClientOp::Get { key: key(0) }),
        (
            us(10),
            ClientOp::MultiGet {
                keys: (1..4).map(key).collect(),
            },
        ),
        (
            us(10),
            ClientOp::MultiSet {
                entries: (4..KEYS).map(|i| (key(i), value.clone())).collect(),
            },
        ),
    ]
}

/// Client 0 populates the keys and reads each once before the window
/// (config and geometry learned on time), then issues a burst inside the
/// window and one after the heal. Client 1 issues its first op inside the
/// window, so its first contact with the backends is there too.
fn run(strategy: LookupStrategy) -> Run {
    let mut spec = CellSpec {
        num_backends: 3,
        ..CellSpec::default()
    };
    spec.backend.scan_interval = None;
    spec.client.strategy = strategy;
    spec.client.doorbell_batching = true;
    spec.client.access_flush = Some(SimDuration::from_millis(25));
    let us = SimDuration::from_micros;
    let mut warm: Vec<(SimDuration, ClientOp)> = (0..KEYS)
        .map(|i| {
            let value = Bytes::from_static(b"value-1");
            (us(100), ClientOp::Set { key: key(i), value })
        })
        .collect();
    warm.extend((0..KEYS).map(|i| (us(100), ClientOp::Get { key: key(i) })));
    // Warm-up ends near 1.2 ms; the window is [10, 100) ms.
    warm.extend(burst(SimDuration::from_millis(14)));
    warm.extend(burst(SimDuration::from_millis(120)));
    let late = vec![
        (SimDuration::from_millis(20), ClientOp::Get { key: key(0) }),
        (SimDuration::from_millis(130), ClientOp::Get { key: key(1) }),
    ];
    let wls: Vec<Box<dyn Workload>> = vec![
        Box::new(ScriptWorkload::new(warm)),
        Box::new(ScriptWorkload::new(late)),
    ];
    let attempt_timeout = spec.client.attempt_timeout;
    let mut cell = Cell::build(spec, wls);
    cell.record_history();
    let mut answering = cell.backend_hosts.clone();
    answering.push(cell.sim.host_of(cell.config_store));
    let impair = LinkImpairment {
        extra_latency: attempt_timeout + SimDuration::from_millis(1),
        ..LinkImpairment::default()
    };
    let mut plan = FaultPlan::new(3);
    plan.add(
        ms(10),
        ms(100),
        Fault::Link {
            src: HostSet::of(&answering),
            dst: HostSet::of(&cell.client_hosts),
            symmetric: false,
            impair,
        },
    );
    cell.sim.install_fault_plan(&plan);

    cell.sim.run_until(ms(10));
    assert_eq!(cell.hits(), KEYS as u64, "warm-up GETs must all hit");
    cell.sim.run_until(ms(400));

    let history = cell.history();
    let done = cell.clients.iter().map(|c| history.outcomes(c.0)).collect();
    let m = cell.sim.metrics();
    Run {
        rma_timeouts: m.counter("cm.client.rma_timeouts"),
        rpc_timeouts: m.counter("cm.client.rpc_timeouts"),
        config_refreshes: m.counter("cm.client.config_refreshes"),
        done,
    }
}

/// Client 0: 6 SETs, 6 GETs, two bursts of three ops; client 1: two GETs.
fn assert_completions(run: &Run) {
    let (a, b) = (&run.done[0], &run.done[1]);
    assert_eq!(a.len(), 2 * KEYS as usize + 6, "client 0: {a:?}");
    assert_eq!(b.len(), 2, "client 1: {b:?}");
    // Every op of the in-window burst ran out of budget: no answer counted.
    let window = &a[2 * KEYS as usize..2 * KEYS as usize + 3];
    assert!(
        window.iter().all(|&d| d == OpOutcome::Error),
        "an in-window op used a late answer: {window:?}"
    );
    // After the heal everything succeeds.
    let healed = &a[2 * KEYS as usize + 3..];
    let expect = [OpOutcome::Hit, OpOutcome::Hit, OpOutcome::Done];
    assert_eq!(healed, expect);
    assert_eq!(b[1], OpOutcome::Hit, "client 1 did not recover: {b:?}");
}

#[test]
fn late_rma_answers_and_control_calls_resolve_by_their_timers() {
    let run = run(LookupStrategy::TwoR);
    assert_completions(&run);
    // Client 1's GET parks on geometry: its CONNECTs time out, each
    // timeout refreshes the config, and every GET_CONFIG times out in turn
    // until the heal; then it issues and hits.
    assert_eq!(run.done[1][0], OpOutcome::Hit, "{run:?}");
    assert_eq!(
        (run.rma_timeouts, run.rpc_timeouts, run.config_refreshes),
        (90, 90, 42),
        "{run:?}"
    );
}

#[test]
fn late_msg_answers_resolve_by_their_timers() {
    let run = run(LookupStrategy::Msg);
    assert_completions(&run);
    // An MSG lookup needs no geometry: client 1's GET goes at once and
    // spends its budget on late answers.
    assert_eq!(run.done[1][0], OpOutcome::Error, "{run:?}");
    assert_eq!(
        (run.rma_timeouts, run.rpc_timeouts, run.config_refreshes),
        (0, 84, 2),
        "{run:?}"
    );
}
