//! Small statistics and host-process helpers.

/// Median of the samples (mean of the middle two for an even count).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` in `(0, 100]`, with the number of samples
/// that lie beyond it.
pub fn percentile(samples: &[f64], p: f64) -> (f64, usize) {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0 * v.len() as f64).ceil() as usize).clamp(1, v.len());
    (v[rank - 1], v.len() - rank)
}

/// A `/proc/self/status` field in KiB, as MiB.
fn status_mib(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Peak resident set size of this process (`VmHWM`), MiB, less what the
/// reference work's table holds: the program's footprint, not the
/// benchmark's.
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM:") - REF_TABLE.get().map_or(0.0, |r| r.resident_mib)
}

/// Host CPUs available to this process.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// How much each part of the reference work counts for a workload, and
/// how many times the reference runs per measurement (the median counts).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefMix {
    pub cpu: f64,
    pub mem: f64,
    pub reps: usize,
}

/// What the reference work's parts take on the 2-CPU host the benchmark was
/// tuned on, in its fast phases, ms: the host `ref-ms` are expressed for.
const NOMINAL_CPU_MS: f64 = 3.0;
const NOMINAL_MEM_MS: f64 = 9.0;

impl RefMix {
    /// What the mix takes on the nominal host, ms.
    pub fn nominal_ms(self) -> f64 {
        self.cpu * NOMINAL_CPU_MS + self.mem * NOMINAL_MEM_MS
    }
}

/// Keys in the memory-bound part's hash table: tens of MiB, well beyond
/// L2, like the cache store's index.
const REF_TABLE_KEYS: u64 = 1 << 20;

struct RefTable {
    table: std::collections::HashMap<u64, u32>,
    /// Resident memory the table added when it was built, MiB.
    resident_mib: f64,
}

static REF_TABLE: std::sync::OnceLock<RefTable> = std::sync::OnceLock::new();

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

fn ms_since(t: std::time::Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The compute-bound part: formatting and parsing numbers into a
/// string-keyed map, then sorting its keys.
fn cpu_part_ms() -> f64 {
    let t = std::time::Instant::now();
    let mut x = 0xdead_beef_u64;
    let mut map: std::collections::HashMap<String, f64> = std::collections::HashMap::new();
    for i in 0..5_000u64 {
        let r = xorshift(&mut x);
        let key = format!("k{}-{:x}", r % 1250, i % 7);
        let v: f64 = format!("{:.3}", (r % 100_000) as f64 / 7.0)
            .parse()
            .expect("a formatted float parses");
        *map.entry(key).or_insert(0.0) += v.sqrt();
    }
    let mut keys: Vec<&String> = map.keys().collect();
    keys.sort();
    std::hint::black_box(keys.len());
    ms_since(t)
}

/// The memory-bound part: random lookups in a million-key table, which is
/// built on first use, outside the time measured.
fn mem_part_ms() -> f64 {
    let reference = REF_TABLE.get_or_init(|| {
        let before = status_mib("VmRSS:");
        let table = (0..REF_TABLE_KEYS)
            .map(|k| (k.wrapping_mul(0x9e37_79b9_7f4a_7c15), k as u32))
            .collect();
        RefTable {
            table,
            resident_mib: status_mib("VmRSS:") - before,
        }
    });
    let t = std::time::Instant::now();
    let mut x = 0x1234_5678_9abc_def1_u64;
    let mut hits = 0u64;
    for _ in 0..80_000 {
        let k = xorshift(&mut x) % (REF_TABLE_KEYS + REF_TABLE_KEYS / 8);
        hits += u64::from(
            reference
                .table
                .contains_key(&k.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
        );
    }
    std::hint::black_box(hits);
    ms_since(t)
}

/// Host time of the benchmark's own reference work, weighted by `mix`,
/// ms. A shared host's speed can swing by up to half within minutes, and not
/// evenly: compute-bound work slows more than work that waits on memory.
/// A timing scaled by `mix.nominal_ms() / reference_ms(mix)` (`ref-ms`)
/// keeps little of that swing when the mix slows like the workload does.
pub fn reference_ms(mix: RefMix) -> f64 {
    let once = || {
        let cpu = if mix.cpu > 0.0 { cpu_part_ms() } else { 0.0 };
        let mem = if mix.mem > 0.0 { mem_part_ms() } else { 0.0 };
        mix.cpu * cpu + mix.mem * mem
    };
    median(&(0..mix.reps).map(|_| once()).collect::<Vec<_>>())
}
