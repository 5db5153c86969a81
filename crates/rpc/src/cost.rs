//! The CPU cost model for full-featured RPC.
//!
//! The paper's motivating constant: an empty RPC often costs more than
//! 50 CPU-µs in framework and transport code across client and server.
//! These costs buy authentication, integrity protection, versioning, ACLs,
//! logging, and multi-language support — we don't re-implement all of that
//! machinery, we *charge for it*, which is what shapes every CPU and
//! op-rate figure in the evaluation.

use simnet::SimDuration;

/// Per-RPC CPU costs, split by where they are incurred.
#[derive(Debug, Clone, Copy)]
pub struct RpcCostModel {
    /// Client-side cost to marshal + issue a request.
    pub client_send: SimDuration,
    /// Client-side cost to unmarshal + complete a response.
    pub client_recv: SimDuration,
    /// Server-side framework cost (auth, ACL, logging, dispatch) before the
    /// application handler runs.
    pub server_dispatch: SimDuration,
    /// Server-side cost to marshal + send the response.
    pub server_send: SimDuration,
    /// Marginal per-kilobyte marshalling cost on each side.
    pub per_kb: SimDuration,
}

impl Default for RpcCostModel {
    fn default() -> Self {
        // Sums to ~52 µs for an empty RPC across client + server, matching
        // the paper's "Stubby" floor.
        RpcCostModel {
            client_send: SimDuration::from_micros(12),
            client_recv: SimDuration::from_micros(10),
            server_dispatch: SimDuration::from_micros(20),
            server_send: SimDuration::from_micros(10),
            per_kb: SimDuration::from_nanos(200),
        }
    }
}

impl RpcCostModel {
    /// A cost model scaled by `factor` (e.g. a leaner framework).
    pub fn scaled(self, factor: f64) -> RpcCostModel {
        let s = |d: SimDuration| SimDuration::from_secs_f64(d.as_secs_f64() * factor);
        RpcCostModel {
            client_send: s(self.client_send),
            client_recv: s(self.client_recv),
            server_dispatch: s(self.server_dispatch),
            server_send: s(self.server_send),
            per_kb: s(self.per_kb),
        }
    }

    /// Total server-side CPU for a request of `req_bytes` and a response
    /// of `resp_bytes` (excluding the application handler's own work).
    pub fn server_total(&self, req_bytes: usize, resp_bytes: usize) -> SimDuration {
        self.server_dispatch + self.server_send + self.marshal(req_bytes) + self.marshal(resp_bytes)
    }

    /// Size-dependent marshalling cost for one message.
    pub fn marshal(&self, bytes: usize) -> SimDuration {
        SimDuration(self.per_kb.nanos() * (bytes as u64).div_ceil(1024))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_rpc_near_fifty_micros() {
        let m = RpcCostModel::default();
        let total = m.client_send + m.client_recv + m.server_total(0, 0);
        let us = total.micros();
        assert!((50..60).contains(&us), "empty RPC costs {us}us");
    }

    #[test]
    fn marshal_scales_with_size() {
        let m = RpcCostModel::default();
        assert_eq!(m.marshal(0), SimDuration::ZERO);
        assert_eq!(m.marshal(1), m.marshal(1024));
        assert!(m.marshal(64 * 1024) > m.marshal(1024));
    }

    #[test]
    fn scaling_halves_costs() {
        let m = RpcCostModel::default().scaled(0.5);
        let total = m.client_send + m.client_recv + m.server_total(0, 0);
        assert!((25..30).contains(&total.micros()), "{}", total);
    }
}
