//! Experiment harness shared by the per-figure bench targets.
//!
//! Every table and figure in the paper's evaluation has a bench target in
//! `benches/` (with `harness = false`), so `cargo bench --workspace`
//! regenerates the full evaluation. Each harness prints the same rows or
//! series the paper reports and writes a JSON dump under `results/` for
//! re-plotting. This library holds the small shared pieces: table
//! rendering, number formatting, and the results-directory writer.

use m3_sim::clock::SimDuration;
use serde::Serialize;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Renders an aligned text table.
///
/// # Examples
///
/// ```
/// let t = m3_bench::render_table(
///     &["workload", "speedup"],
///     &[vec!["MMW 180".into(), "1.22x".into()]],
/// );
/// assert!(t.contains("MMW 180"));
/// ```
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let ncols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(ncols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    for (i, h) in headers.iter().enumerate() {
        let _ = write!(out, "{:>w$}  ", h, w = widths[i]);
    }
    out.push('\n');
    for (i, _) in headers.iter().enumerate() {
        let _ = write!(out, "{}  ", "-".repeat(widths[i]));
    }
    out.push('\n');
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(ncols) {
            let _ = write!(out, "{:>w$}  ", cell, w = widths[i]);
        }
        out.push('\n');
    }
    out
}

/// Formats an optional speedup the way Fig. 5 plots it (`INF` when the
/// baseline could not run the workload).
pub fn fmt_speedup(s: Option<f64>) -> String {
    match s {
        Some(v) => format!("{v:.2}x"),
        None => "INF".to_string(),
    }
}

/// Formats an optional runtime in seconds (`FAIL` for apps that did not
/// run).
pub fn fmt_runtime(r: Option<f64>) -> String {
    match r {
        Some(v) => format!("{v:.0}"),
        None => "FAIL".to_string(),
    }
}

/// Formats a duration as whole seconds.
pub fn fmt_secs(d: SimDuration) -> String {
    format!("{:.0}", d.as_secs_f64())
}

/// The results directory (`results/` at the workspace root), created on
/// demand. A relative `M3_RESULTS_DIR` is resolved against the workspace
/// root, not the bench binary's cwd (cargo runs benches from the package
/// directory, which would scatter CI results under `crates/bench/`).
pub fn results_dir() -> PathBuf {
    let root = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let p = match std::env::var("M3_RESULTS_DIR") {
        Ok(dir) if PathBuf::from(&dir).is_absolute() => PathBuf::from(dir),
        Ok(dir) => root.join(dir),
        Err(_) => root.join("results"),
    };
    std::fs::create_dir_all(&p).expect("create results dir");
    p
}

/// Writes a serialisable value as pretty JSON under `results/<name>.json`.
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let path = results_dir().join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("serialise results");
    std::fs::write(&path, json).expect("write results file");
    println!("[results written to {}]", path.display());
}

/// Times one figure sweep and writes `results/BENCH_<fig>.json` containing
/// the figure's series plus the wall clock of producing them and the worker
/// count used — so harness speedups are tracked alongside the data itself.
pub struct BenchTimer {
    fig: String,
    started: std::time::Instant,
}

impl BenchTimer {
    /// Starts timing the sweep for figure `fig`.
    pub fn start(fig: &str) -> Self {
        println!(
            "[{fig}] sweep starting on {} worker(s)",
            m3_workloads::worker_threads()
        );
        BenchTimer {
            fig: fig.to_string(),
            started: std::time::Instant::now(),
        }
    }

    /// Seconds elapsed since [`BenchTimer::start`].
    pub fn elapsed_secs(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Writes `results/BENCH_<fig>.json` with the sweep wall clock and the
    /// figure payload. Consumes the timer: one report per sweep.
    pub fn finish<T: Serialize>(self, results: &T) {
        let wall = self.elapsed_secs();
        let report = serde::Content::Map(vec![
            ("fig".into(), serde::Content::Str(self.fig.clone().into())),
            ("wall_clock_secs".into(), serde::Content::F64(wall)),
            (
                "workers".into(),
                serde::Content::U64(m3_workloads::worker_threads() as u64),
            ),
            ("results".into(), results.serialize()),
        ]);
        println!("[{}] sweep finished in {wall:.2}s", self.fig);
        write_json(&format!("BENCH_{}", self.fig), &report);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            &["a", "bbbb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("bbbb"));
        assert!(lines[2].ends_with("2  "));
    }

    #[test]
    fn speedup_formatting() {
        assert_eq!(fmt_speedup(Some(1.6049)), "1.60x");
        assert_eq!(fmt_speedup(None), "INF");
        assert_eq!(fmt_runtime(Some(123.4)), "123");
        assert_eq!(fmt_runtime(None), "FAIL");
        assert_eq!(fmt_secs(SimDuration::from_millis(2500)), "2");
    }
}
