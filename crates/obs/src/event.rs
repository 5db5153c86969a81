//! The trace event model: stage taxonomy and the fixed-size event record.
//!
//! A traced op is identified by a nonzero `trace` id (the engine reserves 0
//! for "untraced"). Its lifetime is bracketed by an [`kind::OPEN`] event at
//! the issuing client and a [`kind::CLOSE`] event carrying the op's
//! end-to-end window; in between, every instrumented choke point appends
//! [`kind::INTERVAL`] events (wire serialization, fabric flight, CPU
//! queueing and execution, engine occupancy, retry waits) and
//! [`kind::MARK`] point events (fault-plan context such as "the replica I
//! just targeted is on a CPU-dead host").

/// Stage taxonomy: where an op's wall-clock time can go.
///
/// The ids double as indices into
/// [`Attribution::stages`](crate::attr::Attribution::stages); keep them dense.
pub mod stage {
    /// Client-side CPU execution (issue path, response processing).
    pub const CLIENT_CPU: u8 = 0;
    /// NIC link serialization (TX and RX, both directions).
    pub const SER: u8 = 1;
    /// Fabric flight: propagation + jitter (+ fault-injected delay).
    pub const FABRIC: u8 = 2;
    /// Queueing: waiting for a NIC link or a CPU core, plus any op time
    /// not covered by an explicit interval (quorum straggler wait).
    pub const QUEUE: u8 = 3;
    /// Transport engine occupancy (Pony engine / NIC doorbell+completion).
    pub const ENGINE: u8 = 4;
    /// Server-side CPU execution (RPC dispatch, SET/repair handlers).
    pub const SERVER_CPU: u8 = 5;
    /// Retry tier: attempt-timeout waits and backoff sleeps.
    pub const RETRY: u8 = 6;
    /// Durable-log device time: WAL group-commit fsyncs on the append
    /// path (only recorded when a backend runs with durability on).
    pub const WAL: u8 = 7;
    /// Number of stages.
    pub const COUNT: usize = 8;

    /// Attribution priority when intervals overlap: the most *causally
    /// specific* stage wins a contended segment. Retry waits dominate
    /// (they subsume the failed attempt under them), then device time,
    /// then CPU execution, then engine occupancy, then the wire.
    pub const fn priority(s: u8) -> u8 {
        match s {
            RETRY => 8,
            WAL => 7,
            SERVER_CPU => 6,
            ENGINE => 5,
            CLIENT_CPU => 4,
            SER => 3,
            FABRIC => 2,
            _ => 1, // QUEUE and anything unknown
        }
    }

    /// Human-readable stage name (CSV/postmortem columns).
    pub const fn name(s: u8) -> &'static str {
        match s {
            CLIENT_CPU => "client_cpu",
            SER => "ser",
            FABRIC => "fabric",
            QUEUE => "queue",
            ENGINE => "engine",
            SERVER_CPU => "server_cpu",
            RETRY => "retry",
            WAL => "wal",
            _ => "unknown",
        }
    }
}

/// Event kinds.
pub mod kind {
    /// Op opened at the issuing client; `t0 == t1 ==` issue time, `aux` is
    /// a caller-defined op kind code.
    pub const OPEN: u8 = 0;
    /// Op completed; `t0` is the op's start, `t1` its completion, `aux` a
    /// caller-defined outcome code. Exactly one CLOSE finishes a trace.
    pub const CLOSE: u8 = 1;
    /// A time interval `[t0, t1)` spent in `stage`.
    pub const INTERVAL: u8 = 2;
    /// A point annotation at `t0` (`aux` is stage-specific context, e.g.
    /// the host id of a CPU-dead replica target).
    pub const MARK: u8 = 3;

    /// Human-readable kind name.
    pub const fn name(k: u8) -> &'static str {
        match k {
            OPEN => "open",
            CLOSE => "close",
            INTERVAL => "interval",
            MARK => "mark",
            _ => "?",
        }
    }
}

/// One trace event. Fixed-size and `Copy` so the flight-recorder rings are
/// flat buffers with no per-event allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Trace (op) id; nonzero.
    pub trace: u64,
    /// Host on which the event was recorded.
    pub host: u32,
    /// Stage id (see [`stage`]).
    pub stage: u8,
    /// Event kind (see [`kind`]).
    pub kind: u8,
    /// Interval start (or point time) in sim nanoseconds.
    pub t0: u64,
    /// Interval end in sim nanoseconds (== `t0` for point events).
    pub t1: u64,
    /// Kind-specific context.
    pub aux: u64,
}

impl TraceEvent {
    /// Canonical sort key: by time, then by recording site, so that event
    /// order inside a drained trace is independent of ring drain order.
    pub fn sort_key(&self) -> (u64, u64, u32, u8, u8, u64) {
        (self.t0, self.t1, self.host, self.kind, self.stage, self.aux)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_names_cover_taxonomy() {
        for s in 0..stage::COUNT as u8 {
            assert_ne!(stage::name(s), "unknown", "stage {s} unnamed");
        }
        assert_eq!(stage::name(99), "unknown");
    }

    #[test]
    fn priorities_rank_specific_over_generic() {
        assert!(stage::priority(stage::RETRY) > stage::priority(stage::WAL));
        assert!(stage::priority(stage::WAL) > stage::priority(stage::SERVER_CPU));
        assert!(stage::priority(stage::SERVER_CPU) > stage::priority(stage::ENGINE));
        assert!(stage::priority(stage::ENGINE) > stage::priority(stage::CLIENT_CPU));
        assert!(stage::priority(stage::CLIENT_CPU) > stage::priority(stage::SER));
        assert!(stage::priority(stage::SER) > stage::priority(stage::FABRIC));
        assert!(stage::priority(stage::FABRIC) > stage::priority(stage::QUEUE));
    }
}
