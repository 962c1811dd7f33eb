//! Uniform application wrapper and deferred-construction blueprints.
//!
//! The world loop treats every application the same way: construct it when
//! its scheduled start arrives, tick it with a time budget, deliver
//! threshold signals, and record its completion. [`AnyApp`] is the uniform
//! wrapper; [`AppBlueprint`] is the recipe (configs captured up front,
//! process spawned at start time so Algorithm 1's spawn-order sorting sees
//! the real schedule).

use m3_cache::{KvApp, KvWorkload, TraceWorkload};
use m3_core::{M3Participant, SignalOutcome, ThresholdSignal};
use m3_framework::{JobSpec, SparkApp, SparkConfig};
use m3_os::{DiskModel, Kernel, Pid};
use m3_runtime::{AllocatorKind, GoConfig, JvmConfig};
use m3_sim::clock::{SimDuration, SimTime};

use crate::alternating::{AlternatingApp, AlternatingProfile};

/// A recipe for constructing an application at its scheduled start.
#[derive(Debug, Clone)]
pub enum AppBlueprint {
    /// A Spark executor running an analytics job.
    Spark {
        /// JVM configuration (heap size, M3 mode).
        jvm: JvmConfig,
        /// Spark configuration (memory fractions, M3 mode).
        spark: SparkConfig,
        /// The job to run.
        job: JobSpec,
    },
    /// A Go-Cache server (cache library on the Go runtime).
    GoCache {
        /// Go runtime configuration (GOGC, M3 mode).
        go: GoConfig,
        /// The benchmark workload.
        workload: KvWorkload,
        /// Static cache size (ignored under M3).
        max_bytes: u64,
        /// Whether the cache runs the M3 policies.
        m3_mode: bool,
    },
    /// A Memcached server (native allocator).
    Memcached {
        /// Which allocator the binary links (`malloc` or `jemalloc`).
        allocator: AllocatorKind,
        /// The benchmark workload.
        workload: KvWorkload,
        /// Static cache size (ignored under M3).
        max_bytes: u64,
        /// Whether the cache runs the M3 policies.
        m3_mode: bool,
    },
    /// A Memcached server driven by a production-shaped key-granular trace
    /// (Zipf popularity, tiered values, GET/SET/DELETE mix) instead of the
    /// analytic uniform workload.
    TraceCache {
        /// The trace workload (keys, ops, skew, traffic pattern, seed).
        workload: TraceWorkload,
        /// Static cache size (ignored under M3; `u64::MAX / 2` ≈ unbounded).
        max_bytes: u64,
        /// Whether the cache runs the M3 policies.
        m3_mode: bool,
    },
    /// An unmodified JVM server with alternating load (Fig. 2).
    Alternating {
        /// JVM configuration.
        jvm: JvmConfig,
        /// The load profile.
        profile: AlternatingProfile,
    },
}

impl AppBlueprint {
    /// Constructs the application in process `pid`.
    pub fn build(&self, pid: Pid) -> AnyApp {
        self.build_salted(pid, 0)
    }

    /// Constructs the application with a node-specific salt, so different
    /// cluster nodes see different task-scheduling orders.
    pub fn build_salted(&self, pid: Pid, salt: u64) -> AnyApp {
        match self.clone() {
            AppBlueprint::Spark { jvm, spark, job } => {
                AnyApp::Spark(SparkApp::new(pid, jvm, spark, job).with_seed(salt))
            }
            AppBlueprint::GoCache {
                go,
                workload,
                max_bytes,
                m3_mode,
            } => AnyApp::Kv(KvApp::go_cache(pid, go, workload, max_bytes, m3_mode)),
            AppBlueprint::Memcached {
                allocator,
                workload,
                max_bytes,
                m3_mode,
            } => AnyApp::Kv(KvApp::memcached(
                pid, allocator, workload, max_bytes, m3_mode,
            )),
            AppBlueprint::TraceCache {
                workload,
                max_bytes,
                m3_mode,
            } => AnyApp::Kv(KvApp::trace_memcached(pid, workload, max_bytes, m3_mode)),
            AppBlueprint::Alternating { jvm, profile } => {
                AnyApp::Alternating(AlternatingApp::new(pid, jvm, profile))
            }
        }
    }

    /// True if this blueprint participates in M3 (registers with the
    /// monitor). Alternating servers always register: their (possibly
    /// modified) JVM is the participating layer.
    pub fn is_m3(&self) -> bool {
        match self {
            AppBlueprint::Spark { spark, .. } => spark.m3_mode,
            AppBlueprint::GoCache { m3_mode, .. }
            | AppBlueprint::Memcached { m3_mode, .. }
            | AppBlueprint::TraceCache { m3_mode, .. } => *m3_mode,
            AppBlueprint::Alternating { jvm, .. } => jvm.return_to_os,
        }
    }
}

/// A running application of any kind.
///
/// The variants differ in size (a Spark executor carries its visit order);
/// at most a handful of applications exist per node, so boxing would cost
/// clarity for no practical saving.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)]
pub enum AnyApp {
    /// Spark executor.
    Spark(SparkApp),
    /// Cache server (Go-Cache or Memcached).
    Kv(KvApp),
    /// Alternating-load JVM server.
    Alternating(AlternatingApp),
}

impl AnyApp {
    /// The owning process.
    pub fn pid(&self) -> Pid {
        match self {
            AnyApp::Spark(a) => a.pid(),
            AnyApp::Kv(a) => a.pid(),
            AnyApp::Alternating(a) => a.pid(),
        }
    }

    /// Whether this app issues disk reads (for the contention count).
    pub fn uses_disk(&self) -> bool {
        matches!(self, AnyApp::Spark(_))
    }

    /// Runs the app for one tick; returns true once finished.
    pub fn tick(
        &mut self,
        os: &mut Kernel,
        disk: &DiskModel,
        now: SimTime,
        budget: SimDuration,
        readers: usize,
    ) -> bool {
        match self {
            AnyApp::Spark(a) => a.tick(os, disk, now, budget, readers).finished,
            AnyApp::Kv(a) => a.tick(os, now, budget).finished,
            AnyApp::Alternating(a) => a.tick(os, now, budget),
        }
    }

    /// Delivers a threshold signal.
    pub fn handle_signal(
        &mut self,
        sig: ThresholdSignal,
        os: &mut Kernel,
        now: SimTime,
    ) -> SignalOutcome {
        match self {
            AnyApp::Spark(a) => a.handle_signal(sig, os, now),
            AnyApp::Kv(a) => a.handle_signal(sig, os, now),
            AnyApp::Alternating(a) => a.handle_signal(sig, os, now),
        }
    }

    /// Adds externally incurred time (signal handling) to the app's debt.
    pub fn add_debt(&mut self, d: SimDuration) {
        match self {
            AnyApp::Spark(a) => a.add_debt(d),
            AnyApp::Kv(a) => a.add_debt(d),
            AnyApp::Alternating(a) => a.add_debt(d),
        }
    }

    /// True if the app failed (stock Spark below its heap floor).
    pub fn failed(&self) -> bool {
        match self {
            AnyApp::Spark(a) => a.failed(),
            _ => false,
        }
    }

    /// Total GC pause accumulated by the app's runtime layer, if any.
    pub fn gc_pause(&self) -> SimDuration {
        match self {
            AnyApp::Spark(a) => a.jvm().stats.total_pause,
            AnyApp::Kv(a) => match a.backend() {
                m3_cache::KvBackend::Go(g) => g.stats.total_pause,
                m3_cache::KvBackend::Native(_) => SimDuration::ZERO,
            },
            AnyApp::Alternating(a) => a.jvm().stats.total_pause,
        }
    }

    /// Time spent in framework-level memory management (Spark's capacity
    /// misses), if applicable.
    pub fn mm_time(&self) -> SimDuration {
        match self {
            AnyApp::Spark(a) => a.stats.spark_mm,
            _ => SimDuration::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3_framework::JobKind;
    use m3_os::KernelConfig;
    use m3_sim::units::{GIB, MIB};

    fn job() -> JobSpec {
        JobSpec {
            kind: JobKind::KMeans,
            name: "m".into(),
            input_bytes: GIB,
            working_set: GIB,
            iterations: 1,
            compute_ms_per_block: 10,
            churn_per_block: MIB,
            min_heap: 0,
            churn_survival: 0.08,
            exec_demand: 0,
        }
    }

    #[test]
    fn blueprint_builds_and_runs_each_kind() {
        let mut os = Kernel::new(KernelConfig::with_total(64 * GIB));
        let disk = DiskModel::hdd_7200rpm();
        let blueprints = vec![
            AppBlueprint::Spark {
                jvm: JvmConfig::stock(8 * GIB),
                spark: SparkConfig::default(),
                job: job(),
            },
            AppBlueprint::GoCache {
                go: GoConfig::stock(100),
                workload: KvWorkload {
                    key_space: 1000,
                    total_requests: 1000,
                    ..KvWorkload::paper_gocache()
                },
                max_bytes: GIB,
                m3_mode: false,
            },
            AppBlueprint::Memcached {
                allocator: AllocatorKind::Jemalloc,
                workload: KvWorkload {
                    key_space: 1000,
                    total_requests: 1000,
                    ..KvWorkload::paper_memtier()
                },
                max_bytes: GIB,
                m3_mode: false,
            },
        ];
        for bp in blueprints {
            let pid = os.spawn("app");
            let mut app = bp.build(pid);
            assert_eq!(app.pid(), pid);
            assert!(!app.failed());
            let mut now = SimTime::ZERO;
            let tick = SimDuration::from_millis(100);
            let mut done = false;
            for _ in 0..400_000 {
                if app.tick(&mut os, &disk, now, tick, 1) {
                    done = true;
                    break;
                }
                now += tick;
            }
            assert!(done, "app must finish");
            os.exit(pid);
        }
    }

    #[test]
    fn m3_flags_detected() {
        assert!(AppBlueprint::Spark {
            jvm: JvmConfig::m3(62 * GIB),
            spark: SparkConfig::m3(),
            job: job(),
        }
        .is_m3());
        assert!(!AppBlueprint::Spark {
            jvm: JvmConfig::stock(8 * GIB),
            spark: SparkConfig::default(),
            job: job(),
        }
        .is_m3());
    }

    #[test]
    fn disk_usage_flag() {
        let mut os = Kernel::new(KernelConfig::with_total(GIB));
        let pid = os.spawn("x");
        let app = AppBlueprint::Spark {
            jvm: JvmConfig::stock(GIB),
            spark: SparkConfig::default(),
            job: job(),
        }
        .build(pid);
        assert!(app.uses_disk());
    }
}
