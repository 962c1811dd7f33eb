//! The four workloads: how each derives a unit's inputs from the workload
//! seed, runs the unit through a public entry point, and checks its output.
//!
//! A *unit* is the smallest piece of work the benchmark times:
//!
//! - `node_mix`: the sixteen paper scenarios (Fig. 5 and Fig. 8), each run
//!   once under M3 on a 64-GB node with a unit-specific node salt;
//! - `kv_read` / `kv_write`: one M3 cache-trace run over the production key
//!   space with a unit-specific trace seed;
//! - `fleet_waves`: one scheduled fleet run of a unit-specific wave scenario.

use crate::stats::RefMix;
use m3_cache::trace::mix64;
use m3_cache::{TraceWorkload, TrafficPattern};
use m3_sim::clock::SimDuration;
use m3_sim::units::GIB;
use m3_workloads::scenario::all_scenarios;
use m3_workloads::{
    run_cache_trace, run_fleet, run_scenario, AppKind, CachePolicy, CacheTraceOutcome, FleetConfig,
    FleetResult, MachineConfig, NodeSpec, Scenario, ScenarioOutcome, Setting,
};

/// Trace operations in one kv unit (after the preload of 30 % of the keys).
pub const KV_OPS: u64 = 400_000;
/// Nodes of the `fleet_waves` fleet (every fourth one is a 32-GiB node).
pub const FLEET_NODES: usize = 2048;
/// Job waves per fleet unit; each wave submits one job per node.
pub const FLEET_WAVES: usize = 5;
/// Simulated gap between two waves, seconds.
const FLEET_WAVE_GAP_S: u64 = 960;
/// Unit indices at or above this base are reserved for set-up warm-ups, so
/// a warm-up never shares an input with a timed unit.
pub const WARMUP_BASE: u64 = 1 << 40;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    NodeMix,
    KvRead,
    KvWrite,
    FleetWaves,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::NodeMix,
        Workload::KvRead,
        Workload::KvWrite,
        Workload::FleetWaves,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::NodeMix => "node_mix",
            Workload::KvRead => "kv_read",
            Workload::KvWrite => "kv_write",
            Workload::FleetWaves => "fleet_waves",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Units the model metrics aggregate: always the first this many, so
    /// the `model_*` values repeat exactly for a seed however fast the host.
    pub fn model_units(self) -> u64 {
        match self {
            Workload::FleetWaves => 8,
            _ => 32,
        }
    }

    /// Units a traced run spans: about as many as fit in `seconds` on the
    /// host the benchmark was tuned on, a function of `seconds` alone so that the traced run's counts
    /// repeat for a seed. A traced fleet unit keeps its node runs in this
    /// process's memo cache, so at most three.
    pub fn traced_units(self, seconds: f64) -> u64 {
        let (unit_s, most) = match self {
            Workload::NodeMix => (0.4, 64),
            Workload::KvRead | Workload::KvWrite => (1.0, 32),
            Workload::FleetWaves => (3.5, 3),
        };
        ((seconds / unit_s).ceil() as u64).clamp(1, most)
    }

    /// How the reference work's parts count for this workload's timings:
    /// on the 2-CPU tuning host the node and fleet units slow with the compute-bound
    /// part alone, the kv units with both parts at equal weight (the mix
    /// with the smallest spread of normalized medians across runs). A
    /// fleet unit is long and has few siblings to share a median with, so
    /// its reference is the median of five runs.
    pub fn ref_mix(self) -> RefMix {
        match self {
            Workload::NodeMix => RefMix {
                cpu: 1.0,
                mem: 0.0,
                reps: 1,
            },
            Workload::KvRead | Workload::KvWrite => RefMix {
                cpu: 1.0,
                mem: 1.0,
                reps: 1,
            },
            Workload::FleetWaves => RefMix {
                cpu: 1.0,
                mem: 0.0,
                reps: 5,
            },
        }
    }

    /// True if each timed unit runs in a process of its own. A fleet unit
    /// leaves its ~130 node runs in the process-wide memo cache, which
    /// has no eviction: in one process, later units would grow the heap by
    /// tens of MiB each.
    pub fn isolated(self) -> bool {
        self == Workload::FleetWaves
    }
}

/// The inputs of one unit, derived from the workload seed and unit index.
pub enum Input {
    Node(MachineConfig),
    Kv(TraceWorkload),
    Fleet(Scenario),
}

/// The raw output of one unit, as the public entry points return it.
pub enum Raw {
    Node(Vec<ScenarioOutcome>),
    Kv(CacheTraceOutcome),
    Fleet(FleetResult),
}

/// One unit's output reduced to what the metrics and checks need.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    /// Simulated seconds the unit advanced.
    pub sim_s: f64,
    /// Trace operations replayed (kv) or jobs submitted (node_mix, fleet).
    pub ops: u64,
    /// Jobs submitted.
    pub jobs: u64,
    /// Jobs that completed.
    pub completed: u64,
    /// Simulated runtime summed over the completed jobs, seconds.
    pub runtime_s: f64,
    /// Why the output check failed, if it did.
    pub failure: Option<String>,
    /// Hash of the serialized model outcome.
    pub digest: u64,
}

impl Outcome {
    /// The line a unit process prints for the benchmark process that
    /// started it: the three host figures of `host`, then the outcome.
    pub fn encode(&self, host: [f64; 3]) -> String {
        let [a, b, c] = host;
        format!(
            "#unit {a} {b} {c} {} {} {} {} {} {:016x} {}",
            self.sim_s,
            self.ops,
            self.jobs,
            self.completed,
            self.runtime_s,
            self.digest,
            self.failure.as_deref().unwrap_or("-")
        )
    }

    /// Parses [`Outcome::encode`]'s line back.
    pub fn decode(line: &str) -> Option<([f64; 3], Outcome)> {
        let f: Vec<&str> = line.strip_prefix("#unit ")?.splitn(10, ' ').collect();
        let [a, b, c, sim_s, ops, jobs, completed, runtime_s, digest, failure] = f[..] else {
            return None;
        };
        let num = |s: &str| s.parse::<f64>().ok();
        let out = Outcome {
            sim_s: num(sim_s)?,
            ops: ops.parse().ok()?,
            jobs: jobs.parse().ok()?,
            completed: completed.parse().ok()?,
            runtime_s: num(runtime_s)?,
            digest: u64::from_str_radix(digest, 16).ok()?,
            failure: Some(failure).filter(|s| *s != "-").map(str::to_string),
        };
        Some(([num(a)?, num(b)?, num(c)?], out))
    }
}

/// FNV-1a over a string: a stable digest of a serialized outcome.
fn digest(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn serialized<T: serde::Serialize + ?Sized>(value: &T) -> String {
    serde_json::to_string(value).expect("model outcomes serialize")
}

/// A workload bound to its seed: builds each unit's inputs and runs them.
pub struct Bench {
    pub workload: Workload,
    seed: u64,
    scenarios: Vec<Scenario>,
    fleet: FleetConfig,
}

impl Bench {
    /// Generates the inputs every unit shares.
    pub fn new(workload: Workload, seed: u64) -> Self {
        let mut fleet = FleetConfig::homogeneous(FLEET_NODES, 64 * GIB);
        for (i, node) in fleet.nodes.iter_mut().enumerate() {
            if i % 4 == 3 {
                *node = NodeSpec {
                    phys_total: 32 * GIB,
                };
            }
        }
        Bench {
            workload,
            seed,
            scenarios: all_scenarios(),
            fleet,
        }
    }

    /// The seed of unit `index`: distinct per unit, a pure function of the
    /// workload seed.
    fn unit_seed(&self, index: u64) -> u64 {
        mix64(mix64(self.seed ^ 0x6d33_6265_6e63_6821) ^ index)
    }

    /// The inputs of unit `index`.
    pub fn input(&self, index: u64) -> Input {
        let seed = self.unit_seed(index);
        match self.workload {
            Workload::NodeMix => {
                let mut cfg = MachineConfig::m3_64gb();
                cfg.node_salt = seed;
                Input::Node(cfg)
            }
            Workload::KvRead | Workload::KvWrite => {
                let read = TraceWorkload {
                    seed,
                    total_ops: KV_OPS,
                    phase_ops: KV_OPS / 4,
                    ..TraceWorkload::production(TrafficPattern::Steady)
                };
                Input::Kv(if self.workload == Workload::KvRead {
                    read
                } else {
                    TraceWorkload {
                        get_per_mille: 400,
                        set_per_mille: 500,
                        pattern: TrafficPattern::HotKeyShift,
                        ..read
                    }
                })
            }
            Workload::FleetWaves => Input::Fleet(wave_scenario(seed)),
        }
    }

    /// Runs one unit through the public entry point.
    pub fn execute(&self, input: &Input) -> Raw {
        match input {
            Input::Node(cfg) => Raw::Node(
                self.scenarios
                    .iter()
                    .map(|s| run_scenario(s, &Setting::m3(s.len()), *cfg))
                    .collect(),
            ),
            Input::Kv(twl) => Raw::Kv(run_cache_trace(*twl, CachePolicy::M3)),
            Input::Fleet(scenario) => Raw::Fleet(run_fleet(
                scenario,
                &Setting::m3(scenario.len()),
                fleet_machine(),
                &self.fleet,
            )),
        }
    }

    /// Reduces a unit's output and checks it.
    pub fn reduce(&self, input: &Input, raw: &Raw) -> Outcome {
        let mut o = Outcome::default();
        let mut violations = 0;
        match (input, raw) {
            (Input::Node(_), Raw::Node(outs)) => {
                let mut text = String::new();
                for out in outs {
                    violations += out.run.violations.len();
                    o.sim_s += out.run.end.as_secs_f64();
                    for app in &out.run.apps {
                        o.jobs += 1;
                        if let (Some(rt), false, false) = (app.runtime(), app.killed, app.failed) {
                            o.completed += 1;
                            o.runtime_s += rt.as_secs_f64();
                        }
                    }
                    text += &serialized(&(&out.scenario, &out.run.apps, &out.run.monitor_stats));
                    text += &serialized(&out.run.end);
                }
                o.ops = o.jobs;
                o.digest = digest(&text);
            }
            (Input::Kv(twl), Raw::Kv(out)) => {
                violations = out.violations;
                o.sim_s = out.end_ms as f64 / 1000.0;
                o.ops = out.requests;
                o.jobs = 1;
                o.completed = u64::from(out.finished && !out.killed);
                o.runtime_s = o.completed as f64 * o.sim_s;
                o.digest = digest(&serialized(out));
                if o.completed == 0 || out.requests != twl.total_ops {
                    o.failure = Some(format!(
                        "cache server did not serve the whole trace: {} of {} requests, killed={}",
                        out.requests, twl.total_ops, out.killed
                    ));
                }
            }
            (Input::Fleet(scenario), Raw::Fleet(res)) => {
                violations = res.violations.len();
                for job in &res.jobs {
                    o.jobs += 1;
                    if let Some(rt) = job.runtime_s {
                        o.completed += 1;
                        o.runtime_s += rt;
                        let arrival = scenario.apps[job.job].1.as_secs_f64();
                        o.sim_s = o.sim_s.max(arrival + rt);
                    }
                }
                o.ops = o.jobs;
                o.digest = digest(&serialized(&res.jobs));
                if o.jobs != scenario.len() as u64 {
                    o.failure = Some(format!(
                        "fleet reported {} of {} jobs",
                        o.jobs,
                        scenario.len()
                    ));
                }
            }
            _ => unreachable!("raw output does not match its input"),
        }
        if violations > 0 {
            o.failure = Some(format!("{violations} oracle violation(s)"));
        }
        o
    }
}

/// Node configuration of the fleet runs: event capture and profile
/// sampling off, as in the `fleet_scale` bench.
pub fn fleet_machine() -> MachineConfig {
    let mut cfg = MachineConfig::stock_64gb();
    cfg.sample_period = None;
    cfg.capture_trace = false;
    cfg.max_time = SimDuration::from_secs(40_000);
    cfg
}

/// A wave scenario in the shape of `fleet_scale_scenario`: `FLEET_WAVES`
/// waves of one job per node, mostly k-means with an n-weight and a
/// go-cache job sprinkled in 1/64 each. The seed shifts the sprinkle and
/// names the scenario, and the name keys every node run the fleet memoizes,
/// so no two units share a node simulation.
fn wave_scenario(seed: u64) -> Scenario {
    let shift = (seed % 64) as usize;
    let mut apps = Vec::with_capacity(FLEET_WAVES * FLEET_NODES);
    for wave in 0..FLEET_WAVES {
        let at = SimDuration::from_secs(wave as u64 * FLEET_WAVE_GAP_S);
        for i in 0..FLEET_NODES {
            let kind = match (wave * 7 + i + shift) % 64 {
                5 => AppKind::NWeight,
                37 => AppKind::GoCache,
                _ => AppKind::KMeans,
            };
            apps.push((kind, at));
        }
    }
    Scenario {
        name: format!("fleet-waves {seed:016x}"),
        apps,
        classes: Vec::new(),
    }
}
