//! # simnet — deterministic discrete-event datacenter fabric simulator
//!
//! `simnet` is the substrate every other CliqueMap-RS crate runs on. It
//! stands in for the hardware the SIGCOMM 2021 CliqueMap paper evaluates on
//! (50/100 Gbps NICs, a Clos fabric, multi-core Skylake hosts) with a
//! simulator whose first-class quantities are exactly the ones that shape
//! the paper's results:
//!
//! * **round trips** — a configurable base fabric latency plus jitter,
//! * **bytes on the wire** — per-host TX/RX link serialization with MTU
//!   framing overhead, which makes *incast* (many responses converging on
//!   one client) emerge naturally,
//! * **CPU cost** — multi-core hosts with FIFO work-conserving scheduling
//!   and optional C-state exit penalties (the paper's Fig. 16 low-load
//!   latency hump),
//! * **time** — integer-nanosecond virtual time, plus a TrueTime-style
//!   bounded-uncertainty clock for version numbers.
//!
//! Everything is driven by one totally ordered event queue and one seeded
//! RNG, so **two runs with the same seed are bit-identical** — every figure
//! the benchmark harness regenerates is exactly reproducible.
//!
//! ## Model
//!
//! A [`Sim`] owns hosts (machines: NIC + cores, stored structure-of-arrays
//! in [`Hosts`]) and [`Node`]s (logical
//! processes placed on hosts). Nodes are event-driven state machines: the
//! engine calls [`Node::on_event`] with [`Event`]s (start, frame arrival,
//! timer, CPU completion) and the node acts on the world through [`Ctx`]
//! (send frames, set timers, spawn CPU work, read TrueTime, record metrics).
//! The RMA and RPC frames nodes send are written in one field codec,
//! [`wire`].
//!
//! ```
//! use simnet::{Sim, FabricCfg, HostCfg, Node, Event, Ctx};
//!
//! struct Hello;
//! impl Node for Hello {
//!     fn on_event(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
//!         if let Event::Start = ev {
//!             let hello = ctx.metrics().handle("hello");
//!             ctx.metrics().add_id(hello, 1);
//!         }
//!     }
//! }
//!
//! let mut sim = Sim::new(FabricCfg::default(), 42);
//! let host = sim.add_host(HostCfg::default());
//! sim.add_node(host, Box::new(Hello));
//! sim.run_to_completion(100);
//! assert_eq!(sim.metrics().counter("hello"), 1);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod deferred;
pub mod device;
pub mod fault;
pub mod host;
pub mod node;
pub mod queue;
pub mod rng;
pub mod sim;
pub mod stats;
pub mod time;
pub mod truetime;
pub mod util;
pub mod wire;

pub use obs;

pub use deferred::Deferred;
pub use device::{DeviceCfg, DeviceStats};
pub use fault::{Fault, FaultEvent, FaultPlan, HostSet, LinkImpairment};
pub use host::{CpuAdmission, HostCfg, HostId, HostStats, Hosts, NodeId};
pub use node::{Event, Frame, Node};
pub use queue::CalendarQueue;
pub use rng::{SimRng, Zipf};
pub use sim::{Ctx, FabricCfg, Sim};
pub use stats::{Histogram, MetricId, Metrics};
pub use time::{serialization_delay, SimDuration, SimTime};
pub use truetime::{TrueTime, TrueTimestamp};
pub use util::{AntagonistNode, IdMap, IdSet, SinkNode};
