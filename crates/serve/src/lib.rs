//! `bur-serve` — the `burd` network server: bottom-up R-tree updates
//! as a service.
//!
//! Everything PRs 1–6 built in-process (durable write-ahead logging,
//! batch-first writes, leaf-parallel application) becomes reachable
//! over TCP here, through a hand-rolled length-prefixed binary wire
//! protocol on the standard library's `TcpListener` — no async
//! runtime, no serialization framework. The pieces:
//!
//! - [`wire`]: the frame envelope (`len | request_id | opcode |
//!   payload`) and the checked little-endian payload codec.
//! - [`protocol`]: the request/response vocabulary and opcode table.
//! - [`registry`]: named indexes in one data directory, opened through
//!   `IndexBuilder` and shared across connections.
//! - [`coalescer`]: the write path — concurrent client batches merged
//!   into one `Batch`, one lock acquisition, ONE WAL group-commit
//!   record, with per-client durable acks off the shared watermark.
//! - [`server`]: accept loop, bounded thread-per-connection pool,
//!   request dispatch, graceful shutdown.
//! - [`metrics`]: per-opcode log-bucket latency histograms and server
//!   counters behind the `metrics` opcode.
//! - [`chaos`]: a frame-aware TCP chaos proxy (seeded, scriptable
//!   fault plans) — the network analogue of the storage layer's
//!   `FaultyDisk` — used by the fault-tolerance drills.
//!
//! ```no_run
//! use bur_serve::{start, ServerConfig};
//!
//! let handle = start(ServerConfig::new("/var/lib/bur"))?;
//! println!("burd listening on {}", handle.addr());
//! handle.wait();
//! # Ok::<(), bur_serve::ServeError>(())
//! ```

pub mod chaos;
pub mod coalescer;
pub mod metrics;
pub mod protocol;
pub mod registry;
pub mod server;
pub mod wire;

pub use chaos::{ChaosProxy, ChaosStats, Direction, Fault, FaultPlan, ScriptedFault};
pub use coalescer::{ApplyError, Coalescer, CoalescerStats, WriteAck};
pub use metrics::{LatencyHistogram, ServerMetrics};
pub use protocol::{Request, Response, StrategyKind, WireNeighbor};
pub use registry::{IndexEntry, IndexRegistry, ServeError, ServeResult};
pub use server::{start, ServerConfig, ServerHandle};
pub use wire::{Frame, FrameError, WireError, FRAME_HEADER_BYTES, MAX_FRAME_BYTES};
