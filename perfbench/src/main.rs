//! `perfbench`: the repository's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <node_mix|kv_read|kv_write|fleet_waves>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it sets the workload up several times, then times units
//! for `--seconds` and prints every end-to-end metric. With `--trace 1` it
//! runs a fixed number of units once untraced and once span-traced, and
//! prints every per-layer metric. Either way the last line of standard
//! output is one JSON object with the keys `correct`, `attempted`, `failed`
//! and `metrics`. See `perfbench/README.md`.

mod ledger;
mod stats;
mod traced;
mod units;

use std::path::PathBuf;
use std::time::Instant;

use m3_workloads::{cache_stats, fleet_cache_stats, kvtrace_cache_stats, worker_threads};

use crate::ledger::{Ledger, Spans};
use crate::stats::{median, peak_rss_mib, percentile, reference_ms};
use crate::units::{Bench, Outcome, Workload, WARMUP_BASE};

/// Set-ups per timed run; `setup_s` is their median. Nine keep the
/// quartile spread of `fleet_waves` set-ups, each a process start and a
/// fleet run, under a third of the bound.
const SETUP_REPS: u64 = 9;

const USAGE: &str = "usage: perfbench --workload <node_mix|kv_read|kv_write|fleet_waves> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set in a unit process: run only this unit and print its outcome.
    unit: Option<u64>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut unit = None;
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                seconds = Some(s).filter(|s| *s > 0.0 && s.is_finite());
                seconds.ok_or_else(bad)?;
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--unit" => unit = Some(value.parse::<u64>().map_err(|_| bad())?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        unit,
    })
}

/// What one run prints as its last line.
struct Report {
    attempted: u64,
    failures: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    /// Counts each failing unit once and keeps its reason.
    fn add_failures<'a>(&mut self, outs: impl IntoIterator<Item = &'a Outcome>, what: &str) {
        for (i, o) in outs.into_iter().enumerate() {
            if let Some(why) = &o.failure {
                self.failures.push(format!("{what} {i}: {why}"));
            }
        }
    }

    fn json(&self, correct: bool) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failures.len(),
            metrics.join(", ")
        )
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// One unit as run: its host time, the mean host time of the reference
/// work run just before and just after it, the peak RSS of its process (0
/// when it ran here), and the outcome.
struct UnitRun {
    ms: f64,
    ref_ms: f64,
    rss_mib: f64,
    out: Outcome,
}

impl UnitRun {
    /// The unit's host time in ref-ms.
    fn norm_ms(&self, workload: Workload) -> f64 {
        self.ms * workload.ref_mix().nominal_ms() / self.ref_ms
    }
}

/// Runs unit `index` in this process, between two runs of the reference
/// work.
fn run_here(bench: &Bench, index: u64) -> UnitRun {
    let input = bench.input(index);
    let mix = bench.workload.ref_mix();
    let before = reference_ms(mix);
    let t = Instant::now();
    let raw = bench.execute(&input);
    let ms = ms_since(t);
    let ref_ms = (before + reference_ms(mix)) / 2.0;
    let out = bench.reduce(&input, &raw);
    UnitRun {
        ms,
        ref_ms,
        rss_mib: 0.0,
        out,
    }
}

/// Runs unit `index`, in a process of its own when the workload asks for
/// that (which it then waits for).
fn run_unit(args: &Args, bench: &Bench, index: u64) -> UnitRun {
    if !args.workload.isolated() {
        return run_here(bench, index);
    }
    let exe = std::env::current_exe().expect("the benchmark knows its own path");
    let result = std::process::Command::new(exe)
        .args(["--workload", args.workload.name(), "--trace", "0"])
        .args(["--seed", &args.seed.to_string(), "--seconds", "1"])
        .args(["--unit", &index.to_string()])
        .stderr(std::process::Stdio::inherit())
        .output();
    let decoded = result.ok().and_then(|o| {
        String::from_utf8_lossy(&o.stdout)
            .lines()
            .find_map(Outcome::decode)
    });
    match decoded {
        Some(([ms, ref_ms, rss_mib], out)) => UnitRun {
            ms,
            ref_ms,
            rss_mib,
            out,
        },
        None => UnitRun {
            ms: 0.0,
            ref_ms: 1.0,
            rss_mib: 0.0,
            out: Outcome {
                failure: Some(format!("unit process for unit {index} failed")),
                ..Outcome::default()
            },
        },
    }
}

/// Where the benchmark keeps its span dumps and unit digests: `out/` in
/// the benchmark's own directory of the checkout it was built in.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Compares this run's unit digests with those an earlier run of the same
/// build, workload and seed left behind, then keeps the longer list.
/// Returns the first unit whose simulated outcome differs. The build is
/// told apart by the executable's modification time, so a rebuilt
/// benchmark or program never compares against stale digests.
fn check_digests(args: &Args, outs: &[Outcome]) -> Option<usize> {
    let build = std::env::current_exe()
        .and_then(std::fs::metadata)
        .and_then(|m| m.modified())
        .ok()
        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
        .map_or(0, |d| d.as_nanos());
    let name = format!(
        "digests-{}-{}-{build:x}.txt",
        args.workload.name(),
        args.seed
    );
    let path = out_dir().join(name);
    let earlier: Vec<u64> = std::fs::read_to_string(&path)
        .unwrap_or_default()
        .lines()
        .filter_map(|l| u64::from_str_radix(l, 16).ok())
        .collect();
    if outs.len() > earlier.len() {
        let text: String = outs
            .iter()
            .map(|o| format!("{:016x}\n", o.digest))
            .collect();
        let _ = std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, text));
    }
    earlier.iter().zip(outs).position(|(d, o)| *d != o.digest)
}

/// The timed run: set up `SETUP_REPS` times, then run units for
/// `--seconds` (and at least the model units) and report every
/// end-to-end metric.
fn timed_run(args: &Args, started: Instant) -> Report {
    let mut setup_s = Vec::new();
    let mut warmups = Vec::new();
    let mut bench = None;
    for rep in 0..SETUP_REPS {
        // The first set-up counts from process start.
        let t = if rep == 0 { started } else { Instant::now() };
        let b = Bench::new(args.workload, args.seed);
        let warmup = run_unit(args, &b, WARMUP_BASE + rep);
        // Normalized by the reference runs around the warm-up, like every
        // other host time here.
        let scale = args.workload.ref_mix().nominal_ms() / warmup.ref_ms;
        setup_s.push(t.elapsed().as_secs_f64() * scale);
        warmups.push(warmup);
        bench = Some(b);
    }
    let bench = bench.expect("at least one set-up");

    let model_units = args.workload.model_units() as usize;
    let mut runs = Vec::new();
    let round = Instant::now();
    while runs.len() < model_units || round.elapsed().as_secs_f64() < args.seconds {
        runs.push(run_unit(args, &bench, runs.len() as u64));
    }

    // Same seed, same simulated outcome: unit 0 once more, untimed, and
    // every unit against an earlier run of this seed.
    if run_unit(args, &bench, 0).out.digest != runs[0].out.digest {
        runs[0]
            .out
            .failure
            .get_or_insert("repeat of unit 0 differs".into());
    }
    let outs: Vec<Outcome> = runs.iter().map(|r| r.out.clone()).collect();
    if let Some(i) = check_digests(args, &outs) {
        runs[i]
            .out
            .failure
            .get_or_insert("differs from an earlier run with this seed".into());
    }

    let norm_ms: Vec<f64> = runs.iter().map(|r| r.norm_ms(args.workload)).collect();
    let raw_ms: Vec<f64> = runs.iter().map(|r| r.ms).collect();
    let ref_ms: Vec<f64> = runs.iter().map(|r| r.ref_ms).collect();
    let ref_s: f64 = norm_ms.iter().sum::<f64>() / 1e3;
    let (p90, beyond) = percentile(&norm_ms, 90.0);
    println!(
        "# units={} model_units={model_units}; raw host ms p50={:.3}, reference ms p50={:.3}; \
         unit p90={p90:.3} ref-ms with {beyond} sample(s) beyond it{}",
        runs.len(),
        median(&raw_ms),
        median(&ref_ms),
        if beyond < 10 {
            ", too few to report"
        } else {
            ""
        }
    );
    let sum = |f: fn(&UnitRun) -> f64, runs: &[UnitRun]| runs.iter().map(f).sum::<f64>();
    let model = &runs[..model_units];
    let rss_mib = runs
        .iter()
        .chain(&warmups)
        .map(|r| r.rss_mib)
        .fold(peak_rss_mib(), f64::max);
    let mut report = Report {
        attempted: (warmups.len() + runs.len()) as u64,
        failures: Vec::new(),
        metrics: vec![
            ("setup_s", median(&setup_s), "s"),
            (
                "sim_s_per_s",
                sum(|r| r.out.sim_s, &runs) / ref_s,
                "sim-s/ref-s",
            ),
            (
                "ops_per_s",
                sum(|r| r.out.ops as f64, &runs) / ref_s,
                "ops/ref-s",
            ),
            ("unit_ms_p50", median(&norm_ms), "ref-ms"),
            ("host_rss_peak_mib", rss_mib, "MiB"),
            (
                "model_runtime_s",
                sum(|r| r.out.runtime_s, model) / sum(|r| r.out.completed as f64, model),
                "sim-s",
            ),
            (
                "model_completed_frac",
                sum(|r| r.out.completed as f64, model) / sum(|r| r.out.jobs as f64, model),
                "ratio",
            ),
        ],
    };
    report.add_failures(warmups.iter().map(|r| &r.out), "warm-up");
    report.add_failures(runs.iter().map(|r| &r.out), "unit");
    report
}

/// The traced run: a fixed number of units untraced, then the first as
/// many span-traced, reporting every per-layer metric and the difference
/// between the two passes.
fn traced_run(args: &Args) -> Report {
    let bench = Bench::new(args.workload, args.seed);
    let units = args.workload.traced_units(args.seconds);
    let warmup = run_unit(args, &bench, WARMUP_BASE).out;

    let mut untraced_ms = Vec::new();
    let mut untraced = Vec::new();
    for index in units..2 * units {
        let run = run_unit(args, &bench, index);
        untraced_ms.push(run.norm_ms(args.workload));
        untraced.push(run.out);
    }

    let mut ledger = Ledger::default();
    let mut spans = Spans::new();
    let mut traced_ms = Vec::new();
    let mut outs = Vec::new();
    for index in 0..units {
        // Every timing of this unit is in ref-ms, like the timed run's.
        let mix = args.workload.ref_mix();
        ledger.scale = mix.nominal_ms() / reference_ms(mix);
        let t = Instant::now();
        outs.push(traced::traced_unit(&bench, index, &mut spans, &mut ledger));
        traced_ms.push(ms_since(t) * ledger.scale);
    }
    if let Some(i) = check_digests(args, &outs) {
        outs[i]
            .failure
            .get_or_insert("differs from an earlier run with this seed".into());
    }
    let path = out_dir().join(format!(
        "spans-{}-{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    let _ =
        std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(path, spans.to_jsonl()));

    for ms in &untraced_ms {
        ledger.sample("bench.untraced_unit_ms", *ms);
    }
    for ms in &traced_ms {
        ledger.sample("bench.traced_unit_ms", *ms);
    }
    ledger.set(
        "bench.trace_overhead_ms",
        median(&traced_ms) - median(&untraced_ms),
    );
    println!("# units={units} traced, {units} untraced");
    let mut report = Report {
        attempted: 1 + 2 * units,
        failures: Vec::new(),
        metrics: ledger.metrics(),
    };
    report.add_failures([&warmup], "warm-up");
    report.add_failures(&untraced, "untraced unit");
    report.add_failures(&outs, "traced unit");
    report
}

fn main() {
    let started = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // One simulator worker: packet drains and fleet runs stay on this
    // thread instead of spawning scoped workers per wave.
    std::env::set_var("M3_JOBS", "1");
    // The first reference run of a process pays for cold caches and lazy
    // set-up; none of that belongs in a measurement.
    reference_ms(args.workload.ref_mix());
    if let Some(index) = args.unit {
        let run = run_here(&Bench::new(args.workload, args.seed), index);
        println!("{}", run.out.encode([run.ms, run.ref_ms, peak_rss_mib()]));
        return;
    }

    // Cold-state guard: every run starts with empty memo caches.
    let memo = [cache_stats(), fleet_cache_stats(), kvtrace_cache_stats()];
    let cold = memo.iter().all(|s| s.hits + s.misses == 0);
    println!(
        "# workload={} seed={} trace={} M3_JOBS={} host_cpus={} memo_empty_at_start={cold}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        worker_threads(),
        stats::host_cpus(),
    );

    let report = if args.trace {
        traced_run(&args)
    } else {
        timed_run(&args, started)
    };
    for (name, value, unit) in &report.metrics {
        println!("{name:>36} {value:>16.4} {unit}");
    }
    for f in &report.failures {
        println!("# FAILED {f}");
    }
    println!(
        "# fail_frac={} ratio ({} of {} units failed their output check)",
        report.failures.len() as f64 / report.attempted as f64,
        report.failures.len(),
        report.attempted
    );
    println!("{}", report.json(cold && report.failures.is_empty()));
}
