//! Workload assembly for the M3 evaluation (§7).
//!
//! This crate composes every substrate into runnable experiments:
//!
//! - [`apps`] — a uniform wrapper over the application drivers (Spark
//!   executors, cache servers, and the unmodified-JVM "alternating" servers
//!   of Fig. 2), with blueprints that defer construction to start time;
//! - [`machine`] — the world loop: one simulated node with a kernel, a
//!   disk, an optional M3 monitor, scheduled application starts, signal
//!   delivery, profile sampling, and OOM handling;
//! - [`hibench`] — calibrated per-node parameters for the three HiBench
//!   jobs (k-means / PageRank / n-weight) and the cache benchmarks;
//! - [`kvtrace`] — the key-granular cache-trace sweep: a production-shaped
//!   Zipf trace over millions of keys replayed under the M3, stock, and
//!   static-limit policies on an undersized node;
//! - [`scenario`] — the sixteen evaluation workloads (twelve Fig. 5
//!   workloads plus the four worst cases of Fig. 8);
//! - [`settings`] — the five configuration regimes: Default, Globally
//!   Optimal, Oracle, Oracle-with-Spark-configuration, and M3 (§7.1.2);
//! - [`runner`] — runs a scenario under a setting and extracts per-app
//!   runtimes and speedups;
//! - [`parallel`] — the parallel deterministic experiment harness: a
//!   work-sharing thread pool over independent runs plus a
//!   content-addressed run memoization cache;
//! - [`cluster`] — aggregates N independent worker nodes, job completion =
//!   slowest node (the paper's 8-worker setup);
//! - [`fleet`] — the pressure-aware cluster scheduler: admission control,
//!   least-pressured placement, and red-zone rebalancing over the nodes'
//!   exported pressure summaries;
//! - [`search`] — the bounded grid search standing in for the paper's
//!   four-month, 3400-test configuration hunt;
//! - [`timeline`] — a node run's pressure summaries, kept where they
//!   change and shared with the runs resumed from it;
//! - [`alternating`] — the Cassandra/Elasticsearch-style alternating-load
//!   servers of Fig. 2.

pub mod alternating;
pub mod apps;
pub mod cluster;
pub mod faults;
pub mod fleet;
pub mod hibench;
pub mod kvtrace;
pub mod machine;
pub mod parallel;
pub mod runner;
pub mod scenario;
pub mod search;
pub mod settings;
pub mod timeline;

pub use apps::{AnyApp, AppBlueprint};
pub use faults::{
    ChurnEvent, DegradationReport, FaultEvent, FaultKind, FaultPlan, FaultRecovery, OutageWindow,
    UnappliedFault, UnappliedReason,
};
pub use fleet::{
    demand_estimate, fleet_cache_stats, run_fleet, run_fleet_cached, FleetConfig, FleetResult,
    JobOutcome, NodeSpec,
};
pub use kvtrace::{
    kvtrace_cache_stats, node_phys_bytes, run_cache_trace, run_cache_trace_cached,
    working_set_bytes, CachePolicy, CacheTraceOutcome,
};
pub use machine::{AppResult, Machine, MachineConfig, RunResult, ScheduleEntry};
pub use parallel::{
    cache_stats, parallel_map, run_scenario_cached, run_scenario_cached_faulted, worker_threads,
    CacheStats,
};
pub use runner::{app_name, run_scenario, run_scenario_with_faults, ScenarioOutcome};
pub use scenario::{AppKind, Scenario};
pub use settings::{AppConfig, Setting, SettingKind};
pub use timeline::PressureTimeline;
