//! Figure 7: memory profile of the CMW 180 workload, M3 vs OWS.
//!
//! Go-Cache, then k-means, then n-weight, 180 s apart. The paper's claims
//! checked here:
//!
//! - M3 partitions memory according to demand (k-means takes less than the
//!   cache; after Go-Cache finishes, the analytics jobs consume its share);
//! - the three per-app peaks sum well above the 64-GB node (paper: 44.48 +
//!   42.83 + 58.15 = 145.46 GB), yet the workload runs without issue
//!   because the peaks do not coincide;
//! - all three jobs finish faster under M3 than under OWS.

use m3_bench::{render_table, BenchTimer};
use m3_sim::clock::SimDuration;
use m3_sim::units::GIB;
use m3_workloads::machine::MachineConfig;
use m3_workloads::runner::{run_scenario, speedup_report};
use m3_workloads::scenario::Scenario;
use m3_workloads::search::{search_ows, SearchSpace};
use m3_workloads::settings::Setting;
use serde::Serialize;

#[derive(Serialize)]
struct Fig7Summary {
    system: String,
    app_runtimes_s: Vec<Option<f64>>,
    peak_rss_gib: Vec<f64>,
    peaks_sum_gib: f64,
    mean_rss_gib: f64,
}

fn main() {
    let bench = BenchTimer::start("fig7_profile_cmw");
    let scenario = Scenario::uniform("CMW", 180);
    let mut cfg = MachineConfig::stock_64gb();
    cfg.max_time = SimDuration::from_secs(40_000);

    eprintln!("[fig7] searching OWS for {} ...", scenario.name);
    let ows_setting = search_ows(&scenario, &SearchSpace::paper(), cfg);
    let m3 = run_scenario(&scenario, &Setting::m3(scenario.len()), cfg);
    let ows = run_scenario(&scenario, &ows_setting, cfg);

    println!("Figure 7 — CMW 180 memory profile (Go-Cache + k-means + n-weight)\n");
    println!("M3:");
    println!("{}", m3.run.profile.ascii(72, 64.0));
    println!("\nOracle with Spark configuration:");
    println!("{}", ows.run.profile.ascii(72, 64.0));

    let peaks: Vec<f64> = m3
        .run
        .apps
        .iter()
        .map(|a| a.peak_rss as f64 / GIB as f64)
        .collect();
    let sum: f64 = peaks.iter().sum();
    let rows: Vec<Vec<String>> = m3
        .run
        .apps
        .iter()
        .zip(&ows.run.apps)
        .map(|(m, o)| {
            vec![
                m.name.clone(),
                format!(
                    "{:.0}",
                    m.runtime().map(|d| d.as_secs_f64()).unwrap_or(f64::NAN)
                ),
                format!(
                    "{:.0}",
                    o.runtime().map(|d| d.as_secs_f64()).unwrap_or(f64::NAN)
                ),
                format!("{:.1}", m.peak_rss as f64 / GIB as f64),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["app", "M3 runtime (s)", "OWS runtime (s)", "M3 peak (GiB)"],
            &rows
        )
    );
    println!(
        "sum of M3 peaks: {sum:.1} GiB on a 64-GiB node   (paper: 145.46 GB — peaks must not coincide)"
    );
    assert!(
        sum > 64.0,
        "the combined peaks must exceed the node for the claim to be meaningful"
    );
    let rep = speedup_report(&m3, &ows);
    println!(
        "per-app speedups M3 vs OWS: {:?}  (paper: all three finish faster under M3)",
        rep.per_app
            .iter()
            .map(|s| s.map(|v| format!("{v:.2}x")))
            .collect::<Vec<_>>()
    );
    println!(
        "mean RSS: {:.0} GiB (M3) vs {:.0} GiB (OWS)   (paper §7.3: 48 GB vs 54 GB)",
        m3.run.mean_rss / GIB as f64,
        ows.run.mean_rss / GIB as f64
    );

    let summaries = vec![
        Fig7Summary {
            system: "M3".into(),
            app_runtimes_s: m3.runtimes_secs(),
            peak_rss_gib: peaks,
            peaks_sum_gib: sum,
            mean_rss_gib: m3.run.mean_rss / GIB as f64,
        },
        Fig7Summary {
            system: "OWS".into(),
            app_runtimes_s: ows.runtimes_secs(),
            peak_rss_gib: ows
                .run
                .apps
                .iter()
                .map(|a| a.peak_rss as f64 / GIB as f64)
                .collect(),
            peaks_sum_gib: ows
                .run
                .apps
                .iter()
                .map(|a| a.peak_rss as f64 / GIB as f64)
                .sum(),
            mean_rss_gib: ows.run.mean_rss / GIB as f64,
        },
    ];
    bench.finish(&summaries);
}
