//! Running scenarios under settings and scoring them (§7.2's methodology).

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use m3_sim::clock::SimDuration;
use m3_sim::trace::TraceLog;
use serde::{Deserialize, Serialize};

use crate::faults::FaultPlan;
use crate::machine::{Machine, MachineConfig, RunResult, ScheduleEntry};
use crate::scenario::{AppKind, Scenario};
use crate::settings::{blueprint_for, Setting, SettingKind};

/// Returns the interned display name for schedule slot `i` of an app kind
/// (e.g. `"M 0"`). A sweep runs the same scenarios hundreds of times; the
/// interner makes every run share one allocation per `(kind, slot)` pair
/// instead of re-`format!`ing the name for every schedule entry.
pub fn app_name(code: char, i: usize) -> Arc<str> {
    type NameMap = HashMap<(char, usize), Arc<str>>;
    static NAMES: OnceLock<Mutex<NameMap>> = OnceLock::new();
    let mut names = NAMES
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .expect("name interner poisoned");
    names
        .entry((code, i))
        .or_insert_with(|| format!("{code} {i}").into())
        .clone()
}

/// One scenario run under one setting.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioOutcome {
    /// The scenario name.
    pub scenario: String,
    /// The setting used.
    pub setting: SettingKind,
    /// The raw run result.
    pub run: RunResult,
}

/// Paper-style speedup report for one workload (Fig. 5 bars).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SpeedupReport {
    /// The workload name.
    pub scenario: String,
    /// The baseline setting.
    pub baseline: String,
    /// Average of per-app speedups (baseline runtime / M3 runtime), or
    /// `None` when the baseline could not run the workload at all — the
    /// paper plots this as INF.
    pub mean_speedup: Option<f64>,
    /// Per-app speedups (None where the baseline app failed).
    pub per_app: Vec<Option<f64>>,
}

impl ScenarioOutcome {
    /// Per-app runtimes in seconds (`None` for failed/killed apps).
    pub fn runtimes_secs(&self) -> Vec<Option<f64>> {
        self.run
            .apps
            .iter()
            .map(|a| {
                a.runtime()
                    .filter(|_| a.failure().is_none())
                    .map(|d| d.as_secs_f64())
            })
            .collect()
    }

    /// Mean per-app runtime in seconds, or `None` if any app failed.
    pub fn mean_runtime_secs(&self) -> Option<f64> {
        let rts = self.runtimes_secs();
        if rts.iter().any(Option::is_none) || rts.is_empty() {
            return None;
        }
        Some(rts.iter().map(|r| r.expect("checked")).sum::<f64>() / rts.len() as f64)
    }

    /// Search score: mean runtime, with failures heavily penalized so the
    /// grid search prefers any configuration that completes.
    pub fn score(&self) -> f64 {
        let rts = self.runtimes_secs();
        if rts.is_empty() {
            return f64::INFINITY;
        }
        let failures = rts.iter().filter(|r| r.is_none()).count() as f64;
        let sum: f64 = rts.iter().flatten().sum();
        sum / rts.len() as f64 + failures * 1.0e7
    }
}

/// Runs `scenario` under `setting` on a node described by `machine_cfg`
/// (whose `monitor` field is overridden to match the setting).
pub fn run_scenario(
    scenario: &Scenario,
    setting: &Setting,
    machine_cfg: MachineConfig,
) -> ScenarioOutcome {
    run_scenario_with_faults(scenario, setting, machine_cfg, &FaultPlan::none())
}

/// Like [`run_scenario`], but the run executes under a [`FaultPlan`]: a
/// chaos drill over a real scenario. The outcome's
/// [`RunResult::degradation`] reports what the plan did and how the monitor
/// coped.
pub fn run_scenario_with_faults(
    scenario: &Scenario,
    setting: &Setting,
    machine_cfg: MachineConfig,
    faults: &FaultPlan,
) -> ScenarioOutcome {
    assert!(
        setting.is_m3() || setting.per_app.len() == scenario.apps.len(),
        "setting must cover every scheduled app"
    );
    let machine = Machine::new(machine_cfg.with_setting(setting));
    let schedule = scenario
        .apps
        .iter()
        .enumerate()
        .map(|(i, &(kind, start))| schedule_entry(setting, i, kind, start))
        .collect();
    let run = machine.run_with(schedule, faults, &scenario.classes, None);
    outcome(scenario, setting, run)
}

/// Schedule slot `i` of a scenario run under `setting`: the app's interned
/// name, its start and its blueprint.
pub(crate) fn schedule_entry(
    setting: &Setting,
    i: usize,
    kind: AppKind,
    start: SimDuration,
) -> ScheduleEntry {
    let cfg = setting
        .per_app
        .get(i)
        .copied()
        .unwrap_or_else(crate::settings::AppConfig::stock_default);
    let bp = blueprint_for(kind, &cfg, setting.is_m3());
    (app_name(kind.code(), i), start, bp)
}

/// Wraps a finished run of `scenario` as its outcome, first writing the
/// run's trace to the file `M3_TRACE` names, when it is set.
pub(crate) fn outcome(scenario: &Scenario, setting: &Setting, run: RunResult) -> ScenarioOutcome {
    if let Ok(path) = std::env::var("M3_TRACE") {
        if !path.is_empty() {
            write_trace(&path, &run.trace);
        }
    }
    ScenarioOutcome {
        scenario: scenario.name.clone(),
        setting: setting.kind,
        run,
    }
}

/// Writes `trace` to `path` as pretty JSON, replacing the file. Node runs
/// fan out across threads (clusters, fleets, the grid search), and two
/// unserialized writers would each truncate the file and write from offset
/// 0, leaving the tail of a longer trace under a shorter one; a
/// process-wide lock makes the file hold exactly the last trace written.
fn write_trace(path: &str, trace: &TraceLog) {
    static LOCK: Mutex<()> = Mutex::new(());
    let Ok(json) = serde_json::to_string_pretty(trace) else {
        return;
    };
    let _guard = LOCK.lock().expect("trace writer lock poisoned");
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("M3_TRACE: failed to write {path}: {e}");
    }
}

/// The paper's Fig. 5 metric: the average of each application's speedup of
/// `m3` over `baseline` (both outcomes of the *same* scenario).
pub fn speedup_report(m3: &ScenarioOutcome, baseline: &ScenarioOutcome) -> SpeedupReport {
    assert_eq!(m3.scenario, baseline.scenario, "same workload required");
    let m3_rts = m3.runtimes_secs();
    let base_rts = baseline.runtimes_secs();
    let per_app: Vec<Option<f64>> = m3_rts
        .iter()
        .zip(&base_rts)
        .map(|(m, b)| match (m, b) {
            (Some(m), Some(b)) if *m > 0.0 => Some(b / m),
            _ => None,
        })
        .collect();
    // If the baseline failed any app while M3 ran it, the workload's
    // speedup is unbounded (INF in Fig. 5) — represented as None.
    let baseline_failed = base_rts.iter().any(Option::is_none);
    let mean_speedup = if baseline_failed || per_app.is_empty() {
        None
    } else {
        let vals: Vec<f64> = per_app.iter().flatten().copied().collect();
        if vals.len() == per_app.len() {
            Some(vals.iter().sum::<f64>() / vals.len() as f64)
        } else {
            None
        }
    };
    SpeedupReport {
        scenario: m3.scenario.clone(),
        baseline: baseline.setting.label().to_string(),
        mean_speedup,
        per_app,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::AppResult;
    use crate::scenario::AppKind;
    use crate::settings::AppConfig;
    use m3_sim::clock::{SimDuration, SimTime};
    use m3_sim::metrics::Profile;

    fn outcome(scenario: &str, setting: SettingKind, runtimes: &[Option<f64>]) -> ScenarioOutcome {
        let apps = runtimes
            .iter()
            .enumerate()
            .map(|(i, r)| AppResult {
                name: format!("a{i}"),
                started: SimTime::ZERO,
                finished: r.map(|s| SimTime::from_millis((s * 1000.0) as u64)),
                ended: r.map(|s| SimTime::from_millis((s * 1000.0) as u64)),
                killed: false,
                failed: r.is_none(),
                gc_pause: SimDuration::ZERO,
                mm_time: SimDuration::ZERO,
                stall: SimDuration::ZERO,
                peak_rss: 0,
            })
            .collect();
        ScenarioOutcome {
            scenario: scenario.into(),
            setting,
            run: crate::machine::RunResult {
                apps,
                profile: Profile::new(),
                monitor_stats: None,
                pressure_timeline: Default::default(),
                end: SimTime::ZERO,
                mean_rss: 0.0,
                degradation: Default::default(),
                trace: m3_sim::trace::TraceLog::disabled(),
                violations: Vec::new(),
            },
        }
    }

    #[test]
    fn speedup_is_mean_of_per_app_ratios() {
        let m3 = outcome("X", SettingKind::M3, &[Some(100.0), Some(100.0)]);
        let base = outcome("X", SettingKind::Oracle, &[Some(200.0), Some(100.0)]);
        let rep = speedup_report(&m3, &base);
        assert_eq!(rep.per_app, vec![Some(2.0), Some(1.0)]);
        assert_eq!(rep.mean_speedup, Some(1.5));
    }

    #[test]
    fn failed_baseline_is_infinite_speedup() {
        let m3 = outcome("X", SettingKind::M3, &[Some(100.0)]);
        let base = outcome("X", SettingKind::Default, &[None]);
        let rep = speedup_report(&m3, &base);
        assert_eq!(rep.mean_speedup, None, "INF in the paper's plot");
    }

    #[test]
    fn score_penalizes_failures() {
        let ok = outcome("X", SettingKind::Oracle, &[Some(100.0), Some(100.0)]);
        let bad = outcome("X", SettingKind::Oracle, &[Some(1.0), None]);
        assert!(ok.score() < bad.score());
    }

    #[test]
    fn mean_runtime_requires_all_finished() {
        let ok = outcome("X", SettingKind::Oracle, &[Some(10.0), Some(20.0)]);
        assert_eq!(ok.mean_runtime_secs(), Some(15.0));
        let bad = outcome("X", SettingKind::Oracle, &[Some(10.0), None]);
        assert_eq!(bad.mean_runtime_secs(), None);
    }

    #[test]
    fn concurrent_trace_writes_leave_one_whole_trace() {
        use m3_sim::trace::TraceData;
        use std::sync::Barrier;
        // Traces of different lengths but similar size, so that racing
        // writers reach the file together: it must always hold exactly one
        // of them, byte for byte, never a shorter trace over a longer one's
        // tail.
        let traces: Vec<TraceLog> = (0..4u64)
            .map(|k| {
                let mut log = TraceLog::new();
                for i in 0..2_000 + 100 * k {
                    log.record(SimTime::from_millis(i), i, TraceData::ProcExit);
                }
                log
            })
            .collect();
        let texts: Vec<String> = traces
            .iter()
            .map(|t| serde_json::to_string_pretty(t).expect("trace serializes"))
            .collect();
        let path = std::env::temp_dir().join(format!("m3-trace-race-{}.json", std::process::id()));
        let path = path.to_str().expect("utf-8 temp path");
        let writers = 8;
        let start = Barrier::new(writers);
        for round in 0..60 {
            std::thread::scope(|s| {
                for t in traces.iter().cycle().take(writers) {
                    let start = &start;
                    s.spawn(move || {
                        start.wait();
                        write_trace(path, t);
                    });
                }
            });
            let written = std::fs::read_to_string(path).expect("trace file written");
            assert!(
                texts.contains(&written),
                "round {round}: the trace file is not one whole trace"
            );
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn run_scenario_end_to_end_small() {
        // A minimal but real end-to-end run: one k-means under Default.
        let scenario = Scenario {
            name: "M solo".into(),
            apps: vec![(AppKind::KMeans, SimDuration::ZERO)],
            classes: Vec::new(),
        };
        let setting = Setting::uniform(SettingKind::Default, AppConfig::stock_default(), 1);
        let out = run_scenario(&scenario, &setting, MachineConfig::stock_64gb());
        assert!(out.mean_runtime_secs().is_some());
    }
}
