//! M3: end-to-end memory management in elastic system software stacks.
//!
//! A Rust reproduction of Lion, Chiu & Yuan, *EuroSys '21*. This facade
//! crate re-exports the whole workspace under one roof; see `DESIGN.md` for
//! the system inventory and `EXPERIMENTS.md` for paper-vs-measured results.
//!
//! # Quickstart
//!
//! ```
//! use m3::prelude::*;
//!
//! // One simulated 64-GB node with the paper's monitor parameters.
//! let machine = Machine::new(MachineConfig::m3_64gb());
//!
//! // Run the paper's MMW 180 workload (two k-means + n-weight) under M3.
//! let scenario = Scenario::uniform("MMW", 180);
//! let outcome = run_scenario(&scenario, &Setting::m3(3), *machine.config());
//! assert!(outcome.run.all_finished());
//! ```
//!
//! # Layer map
//!
//! | crate | role |
//! |---|---|
//! | [`sim`] | deterministic clock, RNG, event queue, metrics |
//! | [`os`] | simulated kernel: memory accounting, signals, swap, OOM |
//! | [`runtime`] | JVM-like G1 heap, Go-like runtime, native allocators |
//! | [`framework`] | Spark-like jobs, block cache, HDFS/disk model |
//! | [`cache`] | slab key-value caches (Go-Cache, Memcached) |
//! | [`core`] | **the paper's contribution**: monitor, thresholds, Algorithm 1, adaptive allocation |
//! | [`oracle`] | trace-replay conformance checker for the paper's invariants |
//! | [`workloads`] | machine/world loop, the 16 evaluation workloads, settings, search, cluster + fleet scheduler |

pub use m3_cache as cache;
pub use m3_core as core;
pub use m3_framework as framework;
pub use m3_oracle as oracle;
pub use m3_os as os;
pub use m3_runtime as runtime;
pub use m3_sim as sim;
pub use m3_workloads as workloads;

/// The most common imports for driving experiments.
pub mod prelude {
    pub use m3_cache::{TraceWorkload, TrafficPattern};
    pub use m3_core::{
        AdaptiveAllocator, M3Participant, Monitor, MonitorConfig, PressureSummary, SignalOutcome,
        SortOrder, ThresholdSignal, Zone,
    };
    pub use m3_oracle::{FleetOracle, Oracle, Violation};
    pub use m3_os::{DiskModel, Kernel, KernelConfig, Pid, Signal, SignalFaultConfig};
    pub use m3_sim::clock::{SimDuration, SimTime};
    pub use m3_sim::trace::Criticality;
    pub use m3_sim::units::{GIB, KIB, MIB};
    pub use m3_workloads::cluster::{
        run_cluster, ClusterMean, ClusterResult, JobFailure, PAPER_NODES,
    };
    pub use m3_workloads::faults::{
        DegradationReport, FaultKind, FaultPlan, FleetDegradationReport, FleetFaultPlan, NodeCrash,
        PlacementDelay, ProbeFlap,
    };
    pub use m3_workloads::fleet::{
        run_fleet, run_fleet_cached, FleetConfig, FleetResult, JobOutcome, NodeSpec,
    };
    pub use m3_workloads::kvtrace::{
        run_cache_trace, run_cache_trace_cached, CachePolicy, CacheTraceOutcome,
    };
    pub use m3_workloads::machine::{Machine, MachineConfig, RunResult};
    pub use m3_workloads::runner::{run_scenario, run_scenario_with_faults, speedup_report};
    pub use m3_workloads::scenario::{
        fleet_canonical, fleet_scale_scenario, mixed_criticality_scenario, AppKind, JobClass,
        Scenario,
    };
    pub use m3_workloads::settings::{AppConfig, Setting, SettingKind};
}
