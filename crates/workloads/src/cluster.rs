//! Cluster aggregation (§7.1: 8 worker nodes).
//!
//! The paper's jobs run across 8 workers, one executor per node, and a job
//! completes when its slowest node does. Every per-node decision M3 makes
//! is node-local, so the cluster is N independent node simulations with
//! different task-scheduling histories (the `node_salt`), aggregated by
//! taking the per-application maximum completion time.

use m3_sim::trace::Criticality;
use serde::{Deserialize, Serialize};

use crate::fleet::JobOutcome;
pub use crate::machine::JobFailure;
use crate::machine::MachineConfig;
use crate::parallel::{run_scenario_cached, worker_threads};
use crate::scenario::Scenario;
use crate::settings::Setting;

/// The paper's worker count.
pub const PAPER_NODES: usize = 8;

/// Aggregated outcome of a cluster run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ClusterResult {
    /// Per-application runtime: the *slowest node's* runtime, or `None` if
    /// the app failed or was killed on any node.
    pub app_runtimes_s: Vec<Option<f64>>,
    /// Per-application, per-node runtimes (outer = app, inner = node).
    pub per_node_s: Vec<Vec<Option<f64>>>,
    /// Spread (max − min) across nodes per application, seconds — the
    /// straggler effect.
    pub spread_s: Vec<f64>,
    /// Per-application failure reason, `None` for apps that completed.
    pub failures: Vec<Option<JobFailure>>,
}

/// Mean cluster runtime, with failures accounted rather than collapsing
/// the whole cluster to "no answer": one killed app should not hide how the
/// other N−1 fared.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterMean {
    /// Mean runtime over the *completed* apps, seconds — `None` only when
    /// no app completed at all.
    pub mean_secs: Option<f64>,
    /// Apps that completed on every node.
    pub completed_apps: usize,
    /// Apps that failed or were killed on at least one node.
    pub failed_apps: usize,
    /// Of the failed apps, those the monitor killed.
    pub killed_apps: usize,
    /// Of the failed apps, those that crashed on their own.
    pub crashed_apps: usize,
    /// Of the failed apps, those abandoned after their node died.
    pub node_lost_apps: usize,
    /// Of the failed apps, those the scheduler gave up placing.
    pub gave_up_apps: usize,
    /// Per-criticality-class slices (one entry per class that had jobs;
    /// empty for [`run_cluster`], where no per-job class data exists).
    /// Filled by [`ClusterMean::with_classes`].
    pub classes: Vec<ClassSummary>,
}

/// One criticality class's slice of a fleet run: how many of its jobs ran,
/// whether the class held its latency SLOs, and how much reclamation stall
/// it absorbed — the per-class attainment report the mixed-criticality
/// bench plots.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassSummary {
    /// The criticality class.
    pub crit: Criticality,
    /// Jobs submitted in this class.
    pub jobs: usize,
    /// Of those, jobs that completed.
    pub completed: usize,
    /// Of those, jobs that failed (killed, crashed, lost, or given up).
    pub failed: usize,
    /// Jobs in this class that declared a latency SLO (`slo_ms > 0`).
    pub slo_jobs: usize,
    /// Completed jobs whose SLO held (jobs without one count as met).
    pub slo_met: usize,
    /// Mean runtime over the class's completed jobs, seconds.
    pub mean_secs: Option<f64>,
    /// Total reclamation-handler stall the class absorbed, ms.
    pub stall_ms: u64,
}

impl ClusterMean {
    /// True if every app completed.
    pub fn all_completed(&self) -> bool {
        self.failed_apps == 0 && self.completed_apps > 0
    }

    /// Fills the per-class slices from a fleet run's per-job outcomes.
    /// Classes with no jobs are omitted (an empty mix stays empty), so
    /// unclassified fleets — where every job reports `Standard` — get
    /// exactly one summary line.
    pub fn with_classes(mut self, jobs: &[JobOutcome]) -> Self {
        self.classes = Criticality::ALL
            .iter()
            .filter_map(|&crit| {
                let of_class: Vec<&JobOutcome> = jobs.iter().filter(|j| j.crit == crit).collect();
                if of_class.is_empty() {
                    return None;
                }
                let runtimes: Vec<f64> = of_class.iter().filter_map(|j| j.runtime_s).collect();
                Some(ClassSummary {
                    crit,
                    jobs: of_class.len(),
                    completed: runtimes.len(),
                    failed: of_class.len() - runtimes.len(),
                    slo_jobs: of_class.iter().filter(|j| j.slo_ms > 0).count(),
                    slo_met: of_class.iter().filter(|j| j.slo_met == Some(true)).count(),
                    mean_secs: if runtimes.is_empty() {
                        None
                    } else {
                        Some(runtimes.iter().sum::<f64>() / runtimes.len() as f64)
                    },
                    stall_ms: of_class.iter().map(|j| j.stall_ms).sum(),
                })
            })
            .collect();
        self
    }

    /// The summary of one class, if it had jobs.
    pub fn class(&self, crit: Criticality) -> Option<&ClassSummary> {
        self.classes.iter().find(|c| c.crit == crit)
    }
}

impl ClusterResult {
    /// Mean of the per-app cluster runtimes over the apps that completed,
    /// alongside failed-app counts broken out by [`JobFailure`] reason.
    pub fn mean_runtime_secs(&self) -> ClusterMean {
        let completed: Vec<f64> = self.app_runtimes_s.iter().flatten().copied().collect();
        let count = |r| self.failures.iter().filter(|f| **f == Some(r)).count();
        ClusterMean {
            mean_secs: if completed.is_empty() {
                None
            } else {
                Some(completed.iter().sum::<f64>() / completed.len() as f64)
            },
            completed_apps: completed.len(),
            failed_apps: self.app_runtimes_s.len() - completed.len(),
            killed_apps: count(JobFailure::Killed),
            crashed_apps: count(JobFailure::Crashed),
            node_lost_apps: count(JobFailure::NodeLost),
            gave_up_apps: count(JobFailure::GaveUp),
            classes: Vec::new(),
        }
    }
}

/// Runs `scenario` under `setting` on `nodes` independent workers and
/// aggregates per-application completion as the slowest node.
pub fn run_cluster(
    scenario: &Scenario,
    setting: &Setting,
    machine_cfg: MachineConfig,
    nodes: usize,
) -> ClusterResult {
    assert!(nodes > 0, "need at least one node");
    // Nodes are independent simulations (only the salt differs), so they
    // fan out on the worker pool; results come back in node order.
    let node_cfgs: Vec<MachineConfig> = (0..nodes)
        .map(|node| {
            let mut cfg = machine_cfg;
            cfg.node_salt = node as u64 + 1;
            cfg
        })
        .collect();
    let napps = scenario.len();
    let outs = crate::parallel::parallel_map(node_cfgs, worker_threads(), |cfg| {
        run_scenario_cached(scenario, setting, cfg)
    });
    let mut per_node: Vec<Vec<Option<f64>>> = vec![Vec::with_capacity(nodes); napps];
    let mut failures: Vec<Option<JobFailure>> = vec![None; napps];
    for out in &outs {
        for (i, rt) in out.runtimes_secs().into_iter().enumerate() {
            per_node[i].push(rt);
        }
        // A kill on any node trumps a crash: the monitor's decision is the
        // reason the cluster-level job has no runtime.
        for (seen, a) in failures.iter_mut().zip(&out.run.apps) {
            match a.failure() {
                Some(JobFailure::Killed) => *seen = Some(JobFailure::Killed),
                Some(f) if seen.is_none() => *seen = Some(f),
                _ => {}
            }
        }
    }
    let app_runtimes_s: Vec<Option<f64>> = per_node
        .iter()
        .map(|node_rts| {
            if node_rts.iter().any(Option::is_none) {
                None
            } else {
                node_rts
                    .iter()
                    .flatten()
                    .cloned()
                    .fold(None, |acc: Option<f64>, v| {
                        Some(acc.map_or(v, |a| a.max(v)))
                    })
            }
        })
        .collect();
    let spread_s = per_node
        .iter()
        .map(|node_rts| {
            let vals: Vec<f64> = node_rts.iter().flatten().copied().collect();
            match (
                vals.iter().cloned().reduce(f64::max),
                vals.iter().cloned().reduce(f64::min),
            ) {
                (Some(mx), Some(mn)) => mx - mn,
                _ => 0.0,
            }
        })
        .collect();
    ClusterResult {
        app_runtimes_s,
        per_node_s: per_node,
        spread_s,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::settings::SettingKind;
    use m3_sim::clock::SimDuration;
    use m3_sim::units::GIB;

    fn quick_cfg() -> MachineConfig {
        let mut cfg = MachineConfig::stock_64gb();
        cfg.sample_period = None;
        cfg.max_time = SimDuration::from_secs(40_000);
        cfg
    }

    #[test]
    fn cluster_aggregates_slowest_node() {
        let scenario = Scenario::uniform("M", 0);
        let setting = Setting::m3(1);
        let res = run_cluster(&scenario, &setting, quick_cfg(), 3);
        assert_eq!(res.per_node_s[0].len(), 3);
        let max = res.per_node_s[0]
            .iter()
            .flatten()
            .cloned()
            .fold(f64::MIN, f64::max);
        assert_eq!(res.app_runtimes_s[0], Some(max));
        let mean = res.mean_runtime_secs();
        assert_eq!(mean.mean_secs, Some(max));
        assert_eq!(mean.completed_apps, 1);
        assert_eq!(mean.failed_apps, 0);
        assert!(mean.all_completed());
    }

    #[test]
    fn nodes_differ_but_not_wildly() {
        // Different salts → different task orders → slightly different
        // runtimes; the spread must stay a small fraction of the runtime.
        let scenario = Scenario::uniform("MM", 120);
        let setting = Setting::m3(2);
        let res = run_cluster(&scenario, &setting, quick_cfg(), 4);
        for (i, spread) in res.spread_s.iter().enumerate() {
            let rt = res.app_runtimes_s[i].expect("finished");
            assert!(
                *spread <= rt * 0.5,
                "node spread {spread} too large vs runtime {rt}"
            );
        }
    }

    #[test]
    fn failure_on_any_node_fails_the_job() {
        // n-weight under the Default heap fails on every node.
        let scenario = Scenario::uniform("W", 0);
        let setting = Setting {
            kind: SettingKind::Default,
            per_app: vec![crate::settings::AppConfig::stock_default()],
        };
        let res = run_cluster(&scenario, &setting, quick_cfg(), 2);
        assert_eq!(res.app_runtimes_s[0], None);
        let mean = res.mean_runtime_secs();
        assert_eq!(mean.mean_secs, None, "nothing completed");
        assert_eq!(mean.completed_apps, 0);
        assert_eq!(mean.failed_apps, 1);
        assert_eq!(
            mean.killed_apps + mean.crashed_apps,
            1,
            "the node-level failure has a typed reason: {mean:?}"
        );
        assert_eq!(mean.node_lost_apps, 0);
        assert_eq!(mean.gave_up_apps, 0);
        assert!(res.failures[0].is_some());
        assert!(!mean.all_completed());
        let _ = 64 * GIB;
    }

    #[test]
    fn one_failed_app_does_not_hide_the_others() {
        // M completes under the stock default heap, n-weight does not: the
        // mean must survive as the mean over the completed apps, with the
        // failure reported alongside.
        let scenario = Scenario::uniform("MW", 0);
        let setting = Setting {
            kind: SettingKind::Default,
            per_app: vec![crate::settings::AppConfig::stock_default(); 2],
        };
        let res = run_cluster(&scenario, &setting, quick_cfg(), 2);
        assert!(res.app_runtimes_s[0].is_some(), "M completes");
        assert_eq!(res.app_runtimes_s[1], None, "n-weight fails");
        let mean = res.mean_runtime_secs();
        assert_eq!(mean.mean_secs, res.app_runtimes_s[0]);
        assert_eq!(mean.completed_apps, 1);
        assert_eq!(mean.failed_apps, 1);
        assert_eq!(res.failures[0], None, "completed app carries no reason");
        assert!(res.failures[1].is_some());
        assert!(!mean.all_completed());
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        let scenario = Scenario::uniform("M", 0);
        run_cluster(&scenario, &Setting::m3(1), quick_cfg(), 0);
    }

    // ---- per-class aggregation edge cases -----------------------------

    fn job(job: usize, crit: Criticality, slo_ms: u64, runtime_s: Option<f64>) -> JobOutcome {
        JobOutcome {
            job,
            node: runtime_s.map(|_| 0),
            deferrals: 0,
            migrations: 0,
            reschedules: 0,
            failure: runtime_s.is_none().then_some(JobFailure::Killed),
            runtime_s,
            crit,
            slo_ms,
            stall_ms: 250,
            slo_met: runtime_s.map(|rt| slo_ms == 0 || (rt * 1000.0) as u64 <= slo_ms),
        }
    }

    fn empty_mean() -> ClusterMean {
        ClusterResult::default().mean_runtime_secs()
    }

    #[test]
    fn class_summaries_skip_empty_classes() {
        // No jobs at all: no slices. One Standard job: exactly one slice,
        // and the unpopulated classes stay absent rather than reporting
        // zeros.
        let mean = empty_mean().with_classes(&[]);
        assert!(mean.classes.is_empty());
        assert!(mean.class(Criticality::Batch).is_none());
        let mean = empty_mean().with_classes(&[job(0, Criticality::Standard, 0, Some(10.0))]);
        assert_eq!(mean.classes.len(), 1);
        assert!(mean.class(Criticality::LatencyCritical).is_none());
        assert!(mean.class(Criticality::Batch).is_none());
        let std = mean.class(Criticality::Standard).expect("populated");
        assert_eq!((std.jobs, std.completed, std.failed), (1, 1, 0));
        assert_eq!(std.mean_secs, Some(10.0));
    }

    #[test]
    fn all_failed_class_reports_no_mean_and_no_met_slos() {
        let jobs = [
            job(0, Criticality::LatencyCritical, 5_000, None),
            job(1, Criticality::LatencyCritical, 5_000, None),
            job(2, Criticality::Batch, 0, Some(100.0)),
        ];
        let mean = empty_mean().with_classes(&jobs);
        let lc = mean.class(Criticality::LatencyCritical).expect("slice");
        assert_eq!((lc.jobs, lc.completed, lc.failed), (2, 0, 2));
        assert_eq!(lc.mean_secs, None, "nothing completed");
        assert_eq!(lc.slo_jobs, 2, "declared SLOs still count");
        assert_eq!(lc.slo_met, 0, "a failed job never meets its SLO");
        assert_eq!(lc.stall_ms, 500, "stall is accounted even for failures");
    }

    #[test]
    fn slo_attainment_counts_only_held_slos() {
        let jobs = [
            job(0, Criticality::LatencyCritical, 5_000, Some(4.0)), // met
            job(1, Criticality::LatencyCritical, 5_000, Some(6.0)), // missed
            job(2, Criticality::LatencyCritical, 0, Some(60.0)),    // no SLO
        ];
        let mean = empty_mean().with_classes(&jobs);
        let lc = mean.class(Criticality::LatencyCritical).expect("slice");
        assert_eq!(lc.slo_jobs, 2);
        assert_eq!(lc.slo_met, 2, "the held SLO plus the SLO-less job");
        assert_eq!(lc.mean_secs, Some(70.0 / 3.0));
    }

    #[test]
    fn class_report_round_trips_through_serde() {
        let jobs = [
            job(0, Criticality::LatencyCritical, 5_000, Some(4.0)),
            job(1, Criticality::Standard, 0, Some(20.0)),
            job(2, Criticality::Batch, 0, None),
        ];
        let mean = empty_mean().with_classes(&jobs);
        assert_eq!(mean.classes.len(), 3);
        let json = serde_json::to_string(&mean).expect("serialize");
        let back: ClusterMean = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(mean, back, "the per-class report must round-trip");
    }
}
