//! Serde round-trip tests for the result-pipeline types.
//!
//! The figure harnesses dump profiles and results as JSON under `results/`
//! for re-plotting; these tests pin the shape of that contract.

use m3::prelude::*;
use m3::sim::clock::SimDuration;
use m3::sim::metrics::Profile;

#[test]
fn profile_round_trips_through_json() {
    let scenario = Scenario::uniform("MM", 60);
    let mut cfg = MachineConfig::m3_64gb();
    cfg.max_time = SimDuration::from_secs(20_000);
    let out = run_scenario(&scenario, &Setting::m3(2), cfg);
    let json = serde_json::to_string(&out.run.profile).expect("serialize profile");
    let back: Profile = serde_json::from_str(&json).expect("deserialize profile");
    assert_eq!(back.series.len(), out.run.profile.series.len());
    for (a, b) in back.series.iter().zip(&out.run.profile.series) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.mean(), b.mean());
    }
}

#[test]
fn app_results_round_trip_through_json() {
    let scenario = Scenario::uniform("M", 0);
    let out = run_scenario(
        &scenario,
        &Setting::default_for(1),
        MachineConfig::stock_64gb(),
    );
    let json = serde_json::to_string(&out.run.apps).expect("serialize results");
    let back: Vec<m3::workloads::machine::AppResult> =
        serde_json::from_str(&json).expect("deserialize results");
    assert_eq!(back.len(), 1);
    assert_eq!(back[0].finished, out.run.apps[0].finished);
    assert_eq!(back[0].peak_rss, out.run.apps[0].peak_rss);
    assert_eq!(back[0].runtime(), out.run.apps[0].runtime());
}

#[test]
fn scenario_and_settings_round_trip() {
    let s = Scenario::uniform("CMW", 180);
    let json = serde_json::to_string(&s).expect("serialize scenario");
    let back: Scenario = serde_json::from_str(&json).expect("deserialize scenario");
    assert_eq!(back, s);

    let setting = Setting::default_for(3);
    let json = serde_json::to_string(&setting).expect("serialize setting");
    let back: Setting = serde_json::from_str(&json).expect("deserialize setting");
    assert_eq!(back, setting);
}

#[test]
fn monitor_config_is_a_stable_contract() {
    let cfg = MonitorConfig::paper_64gb();
    let json = serde_json::to_string(&cfg).expect("serialize config");
    for key in [
        "top",
        "initial_low",
        "initial_high",
        "step_fraction",
        "sort_order",
        "adaptive",
        "signal_all",
    ] {
        assert!(json.contains(key), "config JSON must expose {key}");
    }
    let back: MonitorConfig = serde_json::from_str(&json).expect("deserialize config");
    assert_eq!(back.top, cfg.top);
    assert_eq!(back.step_fraction, cfg.step_fraction);
}
