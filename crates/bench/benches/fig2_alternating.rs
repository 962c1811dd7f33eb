//! Figure 2: two JVM servers with alternating load peaks.
//!
//! A Cassandra-like and an Elasticsearch-like server (both *unmodified*
//! applications on the JVM) alternate 15-GB-class load peaks. On stock
//! JVMs each process climbs to its peak and never returns memory, so the
//! combined footprint is the sum of peaks (~30 GB); under M3 the modified
//! JVM returns collected regions and the combined footprint stays near one
//! peak plus one baseline (~15 GB).

use m3_bench::{render_table, BenchTimer};
use m3_runtime::JvmConfig;
use m3_sim::clock::SimDuration;
use m3_sim::units::GIB;
use m3_workloads::alternating::AlternatingProfile;
use m3_workloads::apps::AppBlueprint;
use m3_workloads::machine::{Machine, MachineConfig};
use m3_workloads::settings::M3_HEAP_CEILING;
use serde::Serialize;

#[derive(Serialize)]
struct Fig2Row {
    system: String,
    combined_peak_gib: f64,
    combined_mean_gib: f64,
}

fn profile(offset_phases: u64) -> AlternatingProfile {
    let phase = SimDuration::from_secs(100);
    AlternatingProfile {
        baseline: 2 * GIB,
        peak: 13 * GIB,
        phase,
        offset: phase * offset_phases,
        churn_per_sec: 64 * 1024 * 1024,
        lifetime: SimDuration::from_secs(1000),
    }
}

fn run(m3: bool) -> (f64, f64, m3_sim::metrics::Profile) {
    let mut cfg = MachineConfig::scaled(64 * GIB, m3);
    cfg.max_time = SimDuration::from_secs(1200);
    let jvm = if m3 {
        JvmConfig::m3(M3_HEAP_CEILING)
    } else {
        JvmConfig::stock(16 * GIB)
    };
    let machine = Machine::new(cfg);
    let res = machine.run(vec![
        (
            "cassandra".into(),
            SimDuration::ZERO,
            AppBlueprint::Alternating {
                jvm,
                profile: profile(0),
            },
        ),
        (
            "elasticsearch".into(),
            SimDuration::ZERO,
            AppBlueprint::Alternating {
                jvm,
                profile: profile(1),
            },
        ),
    ]);
    let total = res.profile.series("total").expect("total series");
    (
        total.max().unwrap_or(0.0),
        total.mean().unwrap_or(0.0),
        res.profile,
    )
}

fn main() {
    let bench = BenchTimer::start("fig2_alternating");
    println!("Figure 2 — alternating-load JVM servers (Cassandra + Elasticsearch)\n");
    let (stock_peak, stock_mean, stock_profile) = run(false);
    let (m3_peak, m3_mean, m3_profile) = run(true);

    let rows = vec![
        vec![
            "Unmodified".to_string(),
            format!("{stock_peak:.1}"),
            format!("{stock_mean:.1}"),
        ],
        vec![
            "M3".to_string(),
            format!("{m3_peak:.1}"),
            format!("{m3_mean:.1}"),
        ],
    ];
    println!(
        "{}",
        render_table(
            &["system", "combined peak (GiB)", "combined mean (GiB)"],
            &rows
        )
    );
    println!("Unmodified (paper: JVMs climb to a combined ~30 GB and stay):");
    println!("{}", stock_profile.ascii(72, 32.0));
    println!("M3 (paper: ~15 GB suffices for the same completion time):");
    println!("{}", m3_profile.ascii(72, 32.0));
    println!(
        "provisioning ratio unmodified/M3 = {:.2}x  (paper: ~2x — 30 GB vs 15 GB)",
        stock_peak / m3_peak
    );

    let fig_rows = vec![
        Fig2Row {
            system: "unmodified".into(),
            combined_peak_gib: stock_peak,
            combined_mean_gib: stock_mean,
        },
        Fig2Row {
            system: "m3".into(),
            combined_peak_gib: m3_peak,
            combined_mean_gib: m3_mean,
        },
    ];
    bench.finish(&fig_rows);
}
