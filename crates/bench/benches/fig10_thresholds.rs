//! Figure 10: dynamic vs static signal thresholds.
//!
//! Three k-means jobs with no delay run under M3 twice: once with adaptive
//! thresholds (initialised to low 40 GB / high 45 GB and adjusted
//! dynamically) and once with the same values pinned. The paper: "M3
//! detects that the applications are able to return memory, and raises both
//! thresholds ... the workload with dynamic thresholds terminates 1.93×
//! earlier."

use m3_bench::{render_table, BenchTimer};
use m3_core::MonitorConfig;
use m3_sim::clock::SimDuration;
use m3_sim::units::GIB;
use m3_workloads::machine::MachineConfig;
use m3_workloads::runner::run_scenario;
use m3_workloads::scenario::Scenario;
use m3_workloads::settings::Setting;
use serde::Serialize;

#[derive(Serialize)]
struct Fig10Row {
    thresholds: String,
    end_to_end_s: f64,
    app_runtimes_s: Vec<Option<f64>>,
    high_signals: u64,
    final_low_gib: f64,
    final_high_gib: f64,
}

fn run(adaptive: bool) -> (m3_workloads::runner::ScenarioOutcome, Fig10Row) {
    let scenario = Scenario::uniform("MMM", 0);
    let mut monitor = MonitorConfig::paper_64gb();
    monitor.initial_low = 40 * GIB;
    monitor.initial_high = 45 * GIB;
    monitor.adaptive = adaptive;
    let mut cfg = MachineConfig::stock_64gb();
    cfg.monitor = Some(monitor);
    cfg.max_time = SimDuration::from_secs(40_000);
    let out = run_scenario(&scenario, &Setting::m3(3), cfg);
    let low = out
        .run
        .profile
        .series("low-threshold")
        .and_then(|s| s.last())
        .unwrap_or(0.0);
    let high = out
        .run
        .profile
        .series("high-threshold")
        .and_then(|s| s.last())
        .unwrap_or(0.0);
    let row = Fig10Row {
        thresholds: if adaptive { "dynamic" } else { "static" }.into(),
        end_to_end_s: out.run.end.as_secs_f64(),
        app_runtimes_s: out.runtimes_secs(),
        high_signals: out.run.monitor_stats.map_or(0, |s| s.high_signals),
        final_low_gib: low,
        final_high_gib: high,
    };
    (out, row)
}

fn main() {
    let bench = BenchTimer::start("fig10_thresholds");
    println!("Figure 10 — dynamic vs static thresholds (three k-means, no delay)\n");
    let (dynamic_out, dynamic) = run(true);
    let (static_out, static_row) = run(false);

    println!("Dynamic thresholds:");
    println!("{}", dynamic_out.run.profile.ascii(72, 64.0));
    println!("Static thresholds (low 40 GiB / high 45 GiB pinned):");
    println!("{}", static_out.run.profile.ascii(72, 64.0));

    let rows = vec![
        vec![
            dynamic.thresholds.clone(),
            format!("{:.0}", dynamic.end_to_end_s),
            format!("{}", dynamic.high_signals),
            format!("{:.1}", dynamic.final_low_gib),
            format!("{:.1}", dynamic.final_high_gib),
        ],
        vec![
            static_row.thresholds.clone(),
            format!("{:.0}", static_row.end_to_end_s),
            format!("{}", static_row.high_signals),
            format!("{:.1}", static_row.final_low_gib),
            format!("{:.1}", static_row.final_high_gib),
        ],
    ];
    println!(
        "{}",
        render_table(
            &[
                "thresholds",
                "end-to-end (s)",
                "high signals",
                "final low (GiB)",
                "final high (GiB)"
            ],
            &rows
        )
    );
    println!(
        "dynamic finishes {:.2}x earlier   (paper: 1.93x)",
        static_row.end_to_end_s / dynamic.end_to_end_s
    );
    assert!(
        dynamic.final_high_gib > 45.0,
        "adaptive run must have raised the high threshold"
    );

    let fig_rows = vec![dynamic, static_row];
    bench.finish(&fig_rows);
}
