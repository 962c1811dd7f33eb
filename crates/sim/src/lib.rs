//! Deterministic discrete-time simulation substrate for the M3 reproduction.
//!
//! Every other crate in the workspace builds on this one. It provides:
//!
//! - [`clock`]: millisecond-resolution simulated time ([`SimTime`],
//!   [`SimDuration`]) with no dependency on wall-clock time.
//! - [`rng`]: a seedable, splittable pseudo-random number generator
//!   ([`SimRng`]) so every experiment is reproducible bit-for-bit.
//! - [`queue`]: a stable-order future-event queue ([`EventQueue`]) used for
//!   delayed application starts, monitor polls and timeouts.
//! - [`metrics`]: time series that capture the memory profiles the
//!   paper's figures plot.
//! - [`trace`]: a structured event log (signals sent, GCs performed,
//!   evictions, ...) used by tests and the experiment harness.
//! - [`tagged_enum!`]: declares an enum and its `"kind"`-tagged wire
//!   format in one table (the trace's payloads, the workloads' faults).
//! - [`pack`]: the packed byte form a trace log stores its events in.
//! - [`units`]: byte-size constants and pretty-printing.
//!
//! The simulation style is *time-stepped co-simulation*: a world object owns
//! the kernel and all processes, and advances them tick by tick. This crate
//! deliberately contains no `Rc`/`RefCell` world plumbing — it only provides
//! the deterministic building blocks, keeping ownership simple in the layers
//! above.

pub mod clock;
pub mod metrics;
pub mod pack;
pub mod queue;
pub mod rng;
mod tagged;
pub mod trace;
pub mod units;

pub use clock::{SimDuration, SimTime};
pub use metrics::TimeSeries;
pub use queue::EventQueue;
pub use rng::SimRng;
pub use trace::{
    CandidateInfo, EvictReason, GcLayer, PacketBucket, SigKind, ThresholdSide, TraceData,
    TraceEvent, TraceLog, TraceMark, TraceObserver, TraceZone,
};
