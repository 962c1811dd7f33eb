//! Fixed-seed chaos drill: fault injection + monitor degradation report.
//!
//! ```text
//! cargo run --release --example chaos_drill
//! ```
//!
//! Runs the MM 60 workload (two k-means jobs, staggered a minute apart)
//! under M3 while a deterministic `FaultPlan` misbehaves underneath it:
//! one app goes unresponsive to pressure signals, the other springs a
//! leak, the signal bus drops and delays deliveries, and the monitor
//! loses its `MemAvailable` feed for half a minute. Every fault draws
//! from fixed seeds, so the drill prints the same report on every run —
//! suitable as a CI smoke test for the fault-injection framework.

use m3::prelude::*;

fn main() {
    let scenario = Scenario::uniform("MM", 60);
    let cfg = MachineConfig::stock_64gb();

    let plan = FaultPlan::none()
        .with_unresponsive(SimDuration::from_secs(90), 0, 0.25)
        .with_leak(SimDuration::from_secs(60), 1, 16 * MIB)
        .with_signal_faults(SignalFaultConfig {
            drop_prob: 0.2,
            delay_prob: 0.3,
            delay: SimDuration::from_secs(2),
            seed: 1021,
        })
        .with_poll_outage(SimDuration::from_secs(120), SimDuration::from_secs(30));

    println!(
        "injecting {} fault events into MM 60 under M3 ...",
        plan.injected_count()
    );
    let clean = run_scenario(&scenario, &Setting::m3(scenario.len()), cfg);
    let chaos = run_scenario_with_faults(&scenario, &Setting::m3(scenario.len()), cfg, &plan);

    println!("\n{:<8} {:>10} {:>10}", "app", "clean (s)", "chaos (s)");
    for i in 0..scenario.len() {
        let cell = |o: &m3::workloads::runner::ScenarioOutcome| {
            o.runtimes_secs()[i]
                .map(|r| format!("{r:.0}"))
                .unwrap_or_else(|| "KILLED".into())
        };
        println!(
            "{:<8} {:>10} {:>10}",
            chaos.run.apps[i].name,
            cell(&clean),
            cell(&chaos)
        );
    }

    let d = &chaos.run.degradation;
    println!("\ndegradation report");
    println!(
        "  faults injected / applied / unapplied: {} / {} / {}",
        d.faults_injected,
        d.faults_applied,
        d.faults_unapplied.len()
    );
    println!(
        "  signals dropped / delayed:             {} / {}",
        d.signals_dropped, d.signals_delayed
    );
    let stats = chaos
        .run
        .monitor_stats
        .expect("the M3 setting runs a monitor");
    println!(
        "  degraded monitor polls:                {}",
        stats.degraded_polls
    );
    println!(
        "  watchdog re-signals / escalations:     {} / {}",
        stats.watchdog_resignals, stats.watchdog_escalations
    );
    println!(
        "  polls above top (time):                {} ({} s)",
        stats.polls_above_top,
        (m3::core::POLL_PERIOD * stats.polls_above_top).as_millis() / 1000
    );
    for r in &d.recoveries {
        match r.recovered_after_polls {
            Some(p) => println!(
                "  fault {} recovered below high after {p} polls",
                r.event_index
            ),
            None => println!("  fault {} never recovered below high", r.event_index),
        }
    }

    // Fixed seeds: a second run must reproduce the report byte for byte.
    let replay = run_scenario_with_faults(&scenario, &Setting::m3(scenario.len()), cfg, &plan);
    let a = serde_json::to_string(&chaos.run).expect("serialize");
    let b = serde_json::to_string(&replay.run).expect("serialize");
    assert_eq!(a, b, "chaos drill must be deterministic");
    println!("\nreplay is byte-identical: the drill is deterministic");
}
