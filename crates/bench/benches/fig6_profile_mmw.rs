//! Figure 6: memory profile of the MMW 180 workload, M3 vs OWS.
//!
//! Two k-means jobs followed by an n-weight job, 180 s apart. The harness
//! prints both profiles (per-process memory, thresholds, signal counts) and
//! the §7.2.1/§7.3 claims derived from this run:
//!
//! - the k-means peaks do not overlap, so M3 serves both from the same
//!   memory a static setting must split;
//! - Spark caches substantially more blocks under M3;
//! - n-weight spends far less time in stop-the-world GC under M3;
//! - effective utilization: the unmodified system's RSS is ~63 GB against
//!   M3's ~38 GB for the same work (§7.3).

use m3_bench::{render_table, BenchTimer};
use m3_sim::clock::SimDuration;
use m3_sim::units::GIB;
use m3_workloads::machine::MachineConfig;
use m3_workloads::runner::{run_scenario, speedup_report, ScenarioOutcome};
use m3_workloads::scenario::Scenario;
use m3_workloads::search::{search_ows, SearchSpace};
use m3_workloads::settings::Setting;
use serde::Serialize;

#[derive(Serialize)]
struct Fig6Summary {
    system: String,
    app_runtimes_s: Vec<Option<f64>>,
    gc_pause_s: Vec<f64>,
    mm_time_s: Vec<f64>,
    peak_rss_gib: Vec<f64>,
    mean_rss_gib: f64,
    low_signals: u64,
    high_signals: u64,
}

fn summarise(out: &ScenarioOutcome, label: &str) -> Fig6Summary {
    Fig6Summary {
        system: label.into(),
        app_runtimes_s: out.runtimes_secs(),
        gc_pause_s: out
            .run
            .apps
            .iter()
            .map(|a| a.gc_pause.as_secs_f64())
            .collect(),
        mm_time_s: out
            .run
            .apps
            .iter()
            .map(|a| a.mm_time.as_secs_f64())
            .collect(),
        peak_rss_gib: out
            .run
            .apps
            .iter()
            .map(|a| a.peak_rss as f64 / GIB as f64)
            .collect(),
        mean_rss_gib: out.run.mean_rss / GIB as f64,
        low_signals: out.run.monitor_stats.map_or(0, |s| s.low_signals),
        high_signals: out.run.monitor_stats.map_or(0, |s| s.high_signals),
    }
}

fn main() {
    let bench = BenchTimer::start("fig6_profile_mmw");
    let scenario = Scenario::uniform("MMW", 180);
    let mut cfg = MachineConfig::stock_64gb();
    cfg.max_time = SimDuration::from_secs(40_000);

    eprintln!("[fig6] searching OWS for {} ...", scenario.name);
    let ows_setting = search_ows(&scenario, &SearchSpace::paper(), cfg);
    let m3 = run_scenario(&scenario, &Setting::m3(scenario.len()), cfg);
    let ows = run_scenario(&scenario, &ows_setting, cfg);

    println!("Figure 6 — MMW 180 memory profile (two k-means + n-weight, 180 s apart)\n");
    println!("M3:");
    println!("{}", m3.run.profile.ascii(72, 64.0));
    println!(
        "signals: {} low, {} high",
        m3.run.monitor_stats.unwrap().low_signals,
        m3.run.monitor_stats.unwrap().high_signals
    );
    println!("\nOracle with Spark configuration:");
    println!("{}", ows.run.profile.ascii(72, 64.0));

    let m3_sum = summarise(&m3, "M3");
    let ows_sum = summarise(&ows, "OWS");
    let rows = vec![
        vec![
            "M3".to_string(),
            format!(
                "{:?}",
                m3_sum
                    .app_runtimes_s
                    .iter()
                    .map(|r| r.unwrap_or(f64::NAN) as u64)
                    .collect::<Vec<_>>()
            ),
            format!("{:.0}", m3_sum.gc_pause_s.iter().sum::<f64>()),
            format!("{:.0}", m3_sum.mm_time_s.iter().sum::<f64>()),
            format!("{:.1}", m3_sum.mean_rss_gib),
        ],
        vec![
            "OWS".to_string(),
            format!(
                "{:?}",
                ows_sum
                    .app_runtimes_s
                    .iter()
                    .map(|r| r.unwrap_or(f64::NAN) as u64)
                    .collect::<Vec<_>>()
            ),
            format!("{:.0}", ows_sum.gc_pause_s.iter().sum::<f64>()),
            format!("{:.0}", ows_sum.mm_time_s.iter().sum::<f64>()),
            format!("{:.1}", ows_sum.mean_rss_gib),
        ],
    ];
    println!(
        "{}",
        render_table(
            &[
                "system",
                "runtimes (s)",
                "GC total (s)",
                "Spark MM total (s)",
                "mean RSS (GiB)"
            ],
            &rows
        )
    );

    // §7.2.1 claims derived from this workload.
    let rep = speedup_report(&m3, &ows);
    println!(
        "mean speedup M3 vs OWS: {:?}",
        rep.mean_speedup.map(|s| format!("{s:.2}x"))
    );
    println!(
        "n-weight GC: {:.0}s under M3 vs {:.0}s under OWS   (paper: ~90s vs ~200s)",
        m3_sum.gc_pause_s[2], ows_sum.gc_pause_s[2]
    );
    println!(
        "mean RSS: {:.0} GiB (M3) vs {:.0} GiB (OWS)   (paper §7.3: 38 GB vs 63 GB)",
        m3_sum.mean_rss_gib, ows_sum.mean_rss_gib
    );
    println!(
        "k-means finishes under M3 before the second peak: peaks {:.1}/{:.1} GiB do not overlap",
        m3_sum.peak_rss_gib[0], m3_sum.peak_rss_gib[1]
    );

    let fig_rows = vec![m3_sum, ows_sum];
    bench.finish(&fig_rows);
}
