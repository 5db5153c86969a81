//! Timed per-host storage devices.
//!
//! A host may have one storage device (think local NVMe): a single FIFO
//! queue characterized by a fixed per-op latency, a transfer bandwidth,
//! and an fsync latency. Writes and fsyncs are *timed device ops*: they
//! serialize on the device's busy horizon exactly like frames serialize
//! on a NIC link ([`crate::host::Hosts::admit_tx`]), so a burst of
//! appends queues behind the op in progress and group commit's batch
//! amortization emerges from the queue itself rather than being scripted.
//!
//! The layer follows the fault/obs contract: a simulation without devices
//! enabled ([`crate::sim::Sim::enable_devices`]) pays a single `Option`
//! branch on no path at all — device ops are only reachable through
//! [`crate::sim::Ctx::device_commit`], which nodes call only when
//! configured for durability — draws no randomness, and schedules
//! nothing, so every pre-durability schedule is byte-identical.

use crate::time::{serialization_delay, SimDuration, SimTime};

/// Storage device timing model (one device per host).
#[derive(Debug, Clone)]
pub struct DeviceCfg {
    /// Fixed per-write-op latency (command issue, FTL lookup).
    pub write_latency: SimDuration,
    /// Transfer bandwidth for write payload bytes, in Gbit/s. Deliberately
    /// low by default: this is the durable small-write commit bandwidth of
    /// a flush-heavy device at queue depth 1, not its streaming datasheet
    /// number.
    pub write_gbps: f64,
    /// Latency of an fsync (flush the device write cache to the medium).
    /// This is the cost group commit amortizes: one fsync covers every
    /// append batched in front of it.
    pub fsync_latency: SimDuration,
}

impl Default for DeviceCfg {
    fn default() -> Self {
        // Calibrated so a 64-byte record committed alone costs ~4ms
        // (fsync-dominated) while a 10K-record batch costs ~2.7µs per
        // record — the ClawStore single-writer batching curve.
        DeviceCfg {
            write_latency: SimDuration::from_micros(1),
            write_gbps: 0.2,
            fsync_latency: SimDuration::from_millis(4),
        }
    }
}

/// Accounting counters for one host's device.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceStats {
    /// Write ops admitted.
    pub writes: u64,
    /// Payload bytes across all writes.
    pub write_bytes: u64,
    /// Fsyncs admitted (including the fsync half of a combined
    /// write+fsync commit op).
    pub fsyncs: u64,
    /// Total busy time of the device queue, in nanoseconds.
    pub busy_ns: u64,
}

/// All hosts' storage devices, structure-of-arrays like
/// [`crate::host::Hosts`]. Lazily sized: hosts that never touch their
/// device cost nothing.
#[derive(Debug, Default)]
pub struct Devices {
    cfg: DeviceCfg,
    /// Per-host device busy horizon (`SimTime::ZERO` = idle since boot).
    free_at: Vec<SimTime>,
    stats: Vec<DeviceStats>,
}

impl Devices {
    /// A device table where every host's device follows `cfg`.
    pub fn new(cfg: DeviceCfg) -> Devices {
        Devices {
            cfg,
            free_at: Vec::new(),
            stats: Vec::new(),
        }
    }

    fn ensure(&mut self, host: usize) {
        if self.free_at.len() <= host {
            self.free_at.resize(host + 1, SimTime::ZERO);
            self.stats.resize(host + 1, DeviceStats::default());
        }
    }

    /// Admit one op of `service` duration on `host`'s device FIFO;
    /// returns its completion time and advances the busy horizon.
    fn admit(&mut self, host: usize, now: SimTime, service: SimDuration) -> SimTime {
        self.ensure(host);
        let start = now.max(self.free_at[host]);
        let done = start + service;
        self.free_at[host] = done;
        self.stats[host].busy_ns += service.nanos();
        done
    }

    /// Admit a write of `bytes` payload bytes.
    pub fn admit_write(&mut self, host: usize, now: SimTime, bytes: u64) -> SimTime {
        let service = self.cfg.write_latency + serialization_delay(bytes, self.cfg.write_gbps);
        let done = self.admit(host, now, service);
        let s = &mut self.stats[host];
        s.writes += 1;
        s.write_bytes += bytes;
        done
    }

    /// Admit an fsync.
    pub fn admit_fsync(&mut self, host: usize, now: SimTime) -> SimTime {
        let service = self.cfg.fsync_latency;
        let done = self.admit(host, now, service);
        self.stats[host].fsyncs += 1;
        done
    }

    /// Admit a combined write-then-fsync commit (one queued transaction:
    /// the batch's bytes go to the device, then the cache flushes). This
    /// is the group-commit primitive: every append coalesced into the
    /// batch shares the single fsync.
    pub fn admit_commit(&mut self, host: usize, now: SimTime, bytes: u64) -> SimTime {
        let service = self.cfg.write_latency
            + serialization_delay(bytes, self.cfg.write_gbps)
            + self.cfg.fsync_latency;
        let done = self.admit(host, now, service);
        let s = &mut self.stats[host];
        s.writes += 1;
        s.write_bytes += bytes;
        s.fsyncs += 1;
        done
    }

    /// When `host`'s device drains (now, if idle).
    pub fn free_at(&self, host: usize) -> SimTime {
        self.free_at.get(host).copied().unwrap_or(SimTime::ZERO)
    }

    /// Counters for `host`'s device.
    pub fn stats(&self, host: usize) -> DeviceStats {
        self.stats.get(host).copied().unwrap_or_default()
    }

    /// The timing model in force.
    pub fn cfg(&self) -> &DeviceCfg {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_serialize_on_the_device_horizon() {
        let cfg = DeviceCfg {
            write_latency: SimDuration::from_micros(1),
            write_gbps: 0.8, // 100 bytes/µs
            fsync_latency: SimDuration::from_micros(50),
        };
        let mut d = Devices::new(cfg);
        let t0 = SimTime::ZERO;
        // 100-byte write: 1µs + 1µs transfer.
        let w1 = d.admit_write(0, t0, 100);
        assert_eq!(w1, SimTime(2_000));
        // Fsync queues behind it.
        let f1 = d.admit_fsync(0, t0);
        assert_eq!(f1, SimTime(52_000));
        // Another host's device is independent.
        let w2 = d.admit_write(1, t0, 100);
        assert_eq!(w2, SimTime(2_000));
        let s = d.stats(0);
        assert_eq!((s.writes, s.fsyncs, s.write_bytes), (1, 1, 100));
        assert_eq!(s.busy_ns, 52_000);
    }

    #[test]
    fn combined_commit_matches_write_plus_fsync() {
        let cfg = DeviceCfg::default();
        let mut split = Devices::new(cfg.clone());
        split.admit_write(0, SimTime::ZERO, 640);
        let split_done = split.admit_fsync(0, SimTime::ZERO);
        let mut joint = Devices::new(cfg);
        let joint_done = joint.admit_commit(0, SimTime::ZERO, 640);
        assert_eq!(split_done, joint_done);
        assert_eq!(split.stats(0), joint.stats(0));
    }
}
