//! M3: end-to-end memory management in elastic system software stacks.
//!
//! This crate is the reproduction of the paper's contribution (Lion, Chiu,
//! Yuan, EuroSys '21): a set of *mechanisms and policies* that let every
//! layer of a stacked application (OS → runtime → framework/cache) make
//! coordinated memory-management decisions.
//!
//! Following the end-to-end argument, the only decision made with global
//! information is **when the system is under memory pressure** — that is the
//! [`monitor`]'s job. Everything else (how, when, and by how much to reclaim)
//! is left to the applications, which implement [`layer::M3Participant`] and
//! run the [`alloc::AdaptiveAllocator`] protocol at their top-most
//! memory-managing layer.
//!
//! Component map (paper section in parentheses):
//!
//! - [`monitor`] — polls `MemAvailable` once a second, keeps two thresholds
//!   below a configured *top of memory*, signals registered processes and
//!   escalates to kills (§5, §6).
//! - [`thresholds`] — the adaptive threshold algorithm: ratio of time above
//!   vs below the high threshold (resp. the top) over a sliding window,
//!   compared to a 1:32 target, moving thresholds by 2 % of top (§5.2).
//! - [`selection`] — Algorithm 1: selective notification ordered by a
//!   configurable sort, summing expected reclamation until the target is
//!   covered (§5.1).
//! - [`reclaim`] — the expected-reclamation estimator: average of each
//!   process's last five signal responses (§5.1).
//! - [`alloc`] — the adaptive allocation protocol:
//!   `allow_rate = min(elapsed / (epoch_len × NUM_epochs), 100 %)` (§4.2).
//! - [`layer`] — the participant trait applications implement, plus the
//!   signal/outcome vocabulary shared with the monitor.
//! - [`config`] — the monitor's settable parameters with the paper's §6
//!   defaults, and the constants the paper fixes once.
//! - [`scheduler`] — the work-packet reclamation scheduler: handlers are
//!   decomposed into typed packets in ordered Prepare → Collect → Release
//!   buckets with explicit dependencies, drained deterministically.

pub mod alloc;
pub mod config;
pub mod layer;
pub mod monitor;
pub mod reclaim;
pub mod registry;
pub mod scheduler;
pub mod selection;
pub mod thresholds;

pub use alloc::{AdaptiveAllocator, RateCurve};
pub use config::{
    MonitorConfig, KILL_TIMEOUT, POLL_PERIOD, RATIO_TARGET, WATCHDOG_BACKOFF_MAX, WATCHDOG_POLLS,
    WINDOW,
};
pub use layer::{M3Participant, SignalOutcome, ThresholdSignal};
pub use monitor::{Monitor, PollReport, PressureSummary, Zone, MONITOR_PID};
pub use registry::{PidFile, Registry};
pub use scheduler::{PacketBucket, PacketId, PacketKind, PacketOutcome, ReclaimScheduler};
pub use selection::SortOrder;
pub use thresholds::{AdaptiveThresholds, ThresholdUpdate};
