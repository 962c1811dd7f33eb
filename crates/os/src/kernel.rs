//! The kernel facade: process table, memory accounting, signal delivery, OOM.

use m3_sim::clock::SimTime;
use m3_sim::trace::{SigKind, TraceData, TraceEvent, TraceLog, TraceObserver};

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::meminfo::MemInfo;
use crate::process::{Pid, Process, ProcessState};
use crate::signals::{SendOutcome, Signal, SignalBus, SignalFaultConfig, SignalFaultStats};
use crate::swap::SwapModel;

/// Kernel construction parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct KernelConfig {
    /// Physical memory visible to applications (the cgroup limit).
    pub total: u64,
    /// Swap model (capacity + thrash curve).
    pub swap: SwapModel,
}

impl KernelConfig {
    /// A config with the given physical total and an 8-GiB-class HDD swap
    /// sized at one quarter of physical memory.
    pub fn with_total(total: u64) -> Self {
        KernelConfig {
            total,
            swap: SwapModel::hdd(total / 4),
        }
    }
}

/// Errors returned by kernel memory operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelError {
    /// The target process does not exist or has terminated.
    NoSuchProcess(Pid),
    /// Both physical memory and swap are exhausted; the allocation cannot be
    /// backed. (The caller should expect the OOM killer to fire.)
    OutOfMemory,
    /// `/proc/meminfo` could not be read (injected poll outage). The monitor
    /// is expected to degrade gracefully, not to panic.
    MemInfoUnavailable,
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::NoSuchProcess(pid) => write!(f, "no such process: {pid}"),
            KernelError::OutOfMemory => write!(f, "out of memory and swap"),
            KernelError::MemInfoUnavailable => write!(f, "meminfo read failed"),
        }
    }
}

impl std::error::Error for KernelError {}

/// The simulated kernel.
///
/// Owns the process table, byte-level (page-aligned) memory accounting, the
/// signal bus and the trace log. The world loop calls [`Kernel::grow`] /
/// [`Kernel::release`] on behalf of runtimes and reads
/// [`Kernel::meminfo`] on behalf of the M3 monitor.
#[derive(Debug, Clone)]
pub struct Kernel {
    config: KernelConfig,
    /// The process table, indexed by pid − 1: pids are handed out 1, 2,
    /// 3 … and never freed, so the next pid is the length plus one, and
    /// pid 0 (the system) and pids not yet handed out read as absent.
    procs: Vec<Process>,
    /// Running total of `committed` over all processes (see
    /// [`Kernel::committed`]).
    committed: u64,
    signals: SignalBus,
    /// Lifetime spawn counter: stamps each process with a unique
    /// incarnation so pid reuse is detectable.
    spawn_seq: u64,
    now: SimTime,
    /// Injected meminfo outage: while set, [`Kernel::try_meminfo`] fails.
    meminfo_down: bool,
    /// Structured event log (signals, kills, OOM) for tests and figures.
    /// Record into it through [`Kernel::record_trace`] or
    /// [`Kernel::record_trace_with`], which hand each event to the
    /// observer first.
    pub trace: TraceLog,
    /// Reads each event before `trace` stores it ([`Kernel::observe_with`]).
    /// It sits beside the log, not in it, so a copy of the kernel keeps the
    /// observer's state where its log is taken out and put back.
    observer: Option<Box<dyn TraceObserver>>,
}

/// Where `pid` sits in the process table: pid − 1, and `None` for pid 0.
fn slot(pid: Pid) -> Option<usize> {
    usize::try_from(pid.checked_sub(1)?).ok()
}

impl Kernel {
    /// Creates a kernel with the given configuration.
    pub fn new(config: KernelConfig) -> Self {
        Kernel {
            config,
            procs: Vec::new(),
            committed: 0,
            signals: SignalBus::new(),
            spawn_seq: 0,
            now: SimTime::ZERO,
            meminfo_down: false,
            trace: TraceLog::new(),
            observer: None,
        }
    }

    /// The kernel configuration.
    pub fn config(&self) -> &KernelConfig {
        &self.config
    }

    /// Updates the kernel's notion of "now" (used to timestamp spawns and
    /// trace events), delivering any deferred signals that have come due.
    /// The world loop calls this once per tick.
    pub fn set_time(&mut self, now: SimTime) {
        self.now = now;
        self.signals.deliver_due(now);
    }

    /// The kernel's current time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Creates a new process and returns its pid.
    pub fn spawn(&mut self, name: impl Into<String>) -> Pid {
        let pid = self.next_pid();
        self.spawn_seq += 1;
        let proc = Process::new(pid, name, self.now, self.spawn_seq);
        self.record_trace_with(pid, || TraceData::ProcSpawn {
            name: proc.name.clone(),
        });
        self.procs.push(proc);
        pid
    }

    /// The pid [`Kernel::spawn`] hands out next.
    fn next_pid(&self) -> Pid {
        self.procs.len() as Pid + 1
    }

    fn proc_mut(&mut self, pid: Pid) -> Option<&mut Process> {
        self.procs.get_mut(slot(pid)?)
    }

    /// Creates a new process *reusing* a dead process's pid (the PID-reuse
    /// hazard real registries face: a fresh, unrelated process appears under
    /// a number a stale PID file still names). The new process gets a fresh
    /// incarnation and inherits nothing — pending and in-flight signals for
    /// the old pid are discarded.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is still alive (a real kernel never reuses a live
    /// pid) or was never allocated.
    pub fn spawn_reusing(&mut self, pid: Pid, name: impl Into<String>) -> Pid {
        let old = self
            .proc_mut(pid)
            .expect("cannot reuse a pid that was never allocated");
        assert!(!old.is_alive(), "cannot reuse a live pid");
        self.signals.forget(pid);
        self.spawn_seq += 1;
        let proc = Process::new(pid, name, self.now, self.spawn_seq);
        self.record_trace_with(pid, || TraceData::ProcRespawn {
            name: proc.name.clone(),
        });
        *self.proc_mut(pid).expect("allocated") = proc;
        pid
    }

    /// Marks a process exited and releases all of its memory.
    pub fn exit(&mut self, pid: Pid) {
        if let Some(p) = self.proc_mut(pid) {
            let freed = std::mem::take(&mut p.committed);
            p.state = ProcessState::Exited;
            self.committed -= freed;
            self.signals.forget(pid);
            self.record_trace(pid, TraceData::ProcExit);
        }
    }

    /// Kills a process (OOM killer / M3 kill escalation), releasing its
    /// memory and queueing a `Kill` signal so the world loop can observe it.
    pub fn kill(&mut self, pid: Pid) {
        if let Some(p) = self.proc_mut(pid).filter(|p| p.is_alive()) {
            let freed = std::mem::take(&mut p.committed);
            p.state = ProcessState::Killed;
            self.committed -= freed;
            self.signals.send(pid, Signal::Kill);
            self.record_trace(pid, TraceData::ProcKill);
        }
    }

    /// True if `pid` exists and is running.
    pub fn is_alive(&self, pid: Pid) -> bool {
        self.process(pid).is_some_and(Process::is_alive)
    }

    /// The process table entry, if present.
    pub fn process(&self, pid: Pid) -> Option<&Process> {
        self.procs.get(slot(pid)?)
    }

    /// Pids of all running processes, in pid order.
    pub fn running_pids(&self) -> Vec<Pid> {
        self.procs
            .iter()
            .filter(|p| p.is_alive())
            .map(|p| p.pid)
            .collect()
    }

    /// Grows a process's committed memory by `bytes`.
    ///
    /// Accounting is byte-exact; page granularity is a property of the
    /// *callers* (runtimes commit region-sized chunks, caches release whole
    /// slabs), so the kernel does not re-align and the two sides of the
    /// ledger always agree.
    ///
    /// Succeeds even past physical memory — the overflow is charged to swap
    /// and slows everyone down. Growth past swap capacity also succeeds
    /// (Linux overcommit); the OOM killer fires on the next
    /// [`Kernel::check_oom`], which the world loop runs every tick.
    pub fn grow(&mut self, pid: Pid, bytes: u64) -> Result<(), KernelError> {
        let proc = self
            .proc_mut(pid)
            .filter(|p| p.is_alive())
            .ok_or(KernelError::NoSuchProcess(pid))?;
        proc.committed += bytes;
        self.committed += bytes;
        Ok(())
    }

    /// Returns `bytes` of a process's memory to the OS (`madvise(DONTNEED)`),
    /// saturating at the process's committed size.
    pub fn release(&mut self, pid: Pid, bytes: u64) -> Result<(), KernelError> {
        let proc = self
            .proc_mut(pid)
            .filter(|p| p.is_alive())
            .ok_or(KernelError::NoSuchProcess(pid))?;
        let released = bytes.min(proc.committed);
        proc.committed -= released;
        self.committed -= released;
        if released > 0 {
            self.record_trace(pid, TraceData::Madvise { bytes: released });
        }
        Ok(())
    }

    /// Records a typed trace event at the kernel's current time. Layers
    /// above the kernel (monitor, runtimes, frameworks) emit their events
    /// through this so every component shares one clock and one log.
    pub fn record_trace(&mut self, pid: Pid, data: TraceData) {
        self.record_trace_with(pid, || data);
    }

    /// Lazy variant of [`Kernel::record_trace`]: the payload is built only
    /// when tracing is enabled. The observer, if any, reads the event
    /// before the log packs it.
    pub fn record_trace_with(&mut self, pid: Pid, make: impl FnOnce() -> TraceData) {
        match &mut self.observer {
            Some(observer) => {
                let e = TraceEvent {
                    t: self.now,
                    pid,
                    data: make(),
                };
                observer.observe(&e);
                self.trace.record(e.t, e.pid, e.data);
            }
            None => self.trace.record_with(self.now, pid, make),
        }
    }

    /// Hands every event recorded from now on to `observer`, before the log
    /// packs it.
    pub fn observe_with(&mut self, observer: Box<dyn TraceObserver>) {
        self.observer = Some(observer);
    }

    /// Takes the observer out: no later event reaches it.
    pub fn take_observer(&mut self) -> Option<Box<dyn TraceObserver>> {
        self.observer.take()
    }

    /// A process's committed (resident + swapped) bytes; zero if unknown.
    pub fn rss(&self, pid: Pid) -> u64 {
        self.process(pid).map_or(0, |p| p.committed)
    }

    /// Sum of committed bytes over all running processes.
    ///
    /// O(1): the kernel keeps a running total over *every* process, updated
    /// wherever a process's bytes change (`grow`, `release`, `exit`,
    /// `kill`). That equals the sum over running processes because a dead
    /// process always holds zero bytes: `exit` and `kill` zero it, `grow`
    /// and `release` refuse the dead, and `spawn_reusing` only replaces a
    /// dead (zero-byte) entry with a fresh zero-byte one.
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// Bytes currently charged to swap (committed overflow past physical).
    pub fn swapped(&self) -> u64 {
        self.committed().saturating_sub(self.config.total)
    }

    /// `/proc/meminfo` snapshot.
    pub fn meminfo(&self) -> MemInfo {
        let committed = self.committed();
        let used = committed.min(self.config.total);
        MemInfo {
            total: self.config.total,
            used,
            available: self.config.total - used,
            swapped: committed.saturating_sub(self.config.total),
        }
    }

    /// Fallible `/proc/meminfo` read: fails while a poll outage is injected.
    /// Monitors should read through this and degrade on `Err` rather than
    /// assuming the snapshot is always available.
    pub fn try_meminfo(&self) -> Result<MemInfo, KernelError> {
        if self.meminfo_down {
            Err(KernelError::MemInfoUnavailable)
        } else {
            Ok(self.meminfo())
        }
    }

    /// Injects (or clears) a meminfo outage.
    pub fn set_meminfo_outage(&mut self, down: bool) {
        self.meminfo_down = down;
    }

    /// Installs (or clears) signal fault injection on the bus.
    pub fn set_signal_faults(&mut self, cfg: Option<SignalFaultConfig>) {
        self.signals.set_fault(cfg);
    }

    /// Signal fault-injection counters (zero when no faults are installed).
    pub fn signal_fault_stats(&self) -> SignalFaultStats {
        self.signals.fault_stats()
    }

    /// Work-speed multiplier in `(0, 1]` applied to every running process,
    /// reflecting swap thrashing.
    pub fn thrash_multiplier(&self) -> f64 {
        self.config
            .swap
            .speed_multiplier(self.swapped(), self.config.total)
    }

    /// Queues a signal for a running process, subject to any installed
    /// signal fault injection. Signals to dead processes are silently
    /// dropped (matching `kill(2)` on a reaped pid).
    pub fn send_signal(&mut self, pid: Pid, sig: Signal) {
        if self.is_alive(pid) {
            let kind = match sig {
                Signal::LowMemory => SigKind::Low,
                Signal::HighMemory => SigKind::High,
                Signal::Kill => SigKind::Kill,
            };
            let data = match self.signals.send_at(pid, sig, self.now) {
                SendOutcome::Delivered => TraceData::SignalSent { sig: kind },
                SendOutcome::Dropped => TraceData::SignalDropped { sig: kind },
                SendOutcome::Delayed => TraceData::SignalDelayed { sig: kind },
            };
            self.record_trace(pid, data);
        }
    }

    /// Drains pending signals for a process.
    pub fn take_signals(&mut self, pid: Pid) -> Vec<Signal> {
        self.signals.take(pid)
    }

    /// OOM check: if swap is exhausted, kills the largest running process
    /// and returns its pid.
    pub fn check_oom(&mut self) -> Option<Pid> {
        if !self.config.swap.exhausted(self.swapped()) {
            return None;
        }
        let victim = self
            .procs
            .iter()
            .filter(|p| p.is_alive())
            .max_by_key(|p| (p.committed, p.pid))?
            .pid;
        self.record_trace(victim, TraceData::OomKill);
        self.kill(victim);
        Some(victim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3_sim::clock::SimDuration;
    use m3_sim::units::{GIB, MIB, PAGE_SIZE};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn kernel(gib: u64) -> Kernel {
        Kernel::new(KernelConfig::with_total(gib * GIB))
    }

    #[test]
    fn spawn_grow_release_accounting() {
        let mut k = kernel(4);
        let a = k.spawn("a");
        let b = k.spawn("b");
        assert_ne!(a, b);
        k.grow(a, GIB).unwrap();
        k.grow(b, 2 * GIB).unwrap();
        assert_eq!(k.rss(a), GIB);
        assert_eq!(k.committed(), 3 * GIB);
        assert_eq!(k.meminfo().available, GIB);
        k.release(a, GIB / 2).unwrap();
        assert_eq!(k.rss(a), GIB / 2);
    }

    #[test]
    fn grow_is_byte_exact() {
        let mut k = kernel(1);
        let p = k.spawn("p");
        k.grow(p, 1).unwrap();
        assert_eq!(k.rss(p), 1);
        k.grow(p, PAGE_SIZE + 1).unwrap();
        assert_eq!(k.rss(p), PAGE_SIZE + 2, "ledger must match callers exactly");
    }

    #[test]
    fn release_saturates() {
        let mut k = kernel(1);
        let p = k.spawn("p");
        k.grow(p, MIB).unwrap();
        k.release(p, 10 * MIB).unwrap();
        assert_eq!(k.rss(p), 0);
    }

    #[test]
    fn operations_on_dead_process_fail() {
        let mut k = kernel(1);
        let p = k.spawn("p");
        k.exit(p);
        assert_eq!(k.grow(p, MIB), Err(KernelError::NoSuchProcess(p)));
        assert_eq!(k.release(p, MIB), Err(KernelError::NoSuchProcess(p)));
        assert_eq!(k.grow(999, MIB), Err(KernelError::NoSuchProcess(999)));
    }

    #[test]
    fn exit_releases_memory() {
        let mut k = kernel(4);
        let p = k.spawn("p");
        k.grow(p, 3 * GIB).unwrap();
        k.exit(p);
        assert_eq!(k.committed(), 0);
        assert_eq!(k.meminfo().available, 4 * GIB);
        assert!(!k.is_alive(p));
    }

    #[test]
    fn overcommit_goes_to_swap_and_thrashes() {
        let mut k = kernel(4);
        let p = k.spawn("p");
        k.grow(p, 4 * GIB).unwrap();
        assert_eq!(k.thrash_multiplier(), 1.0);
        k.grow(p, GIB / 2).unwrap();
        assert_eq!(k.swapped(), GIB / 2);
        assert!(k.thrash_multiplier() < 1.0);
        let mi = k.meminfo();
        assert_eq!(mi.available, 0);
        assert_eq!(mi.used, 4 * GIB);
        assert_eq!(mi.swapped, GIB / 2);
    }

    #[test]
    fn swap_exhaustion_allows_grow_until_oom() {
        let mut k = kernel(4); // swap = 1 GiB
        let p = k.spawn("p");
        k.grow(p, 5 * GIB).unwrap(); // exactly at swap capacity
        assert!(
            k.grow(p, GIB).is_ok(),
            "overcommit succeeds; OOM fires later"
        );
        assert_eq!(k.check_oom(), Some(p));
    }

    #[test]
    fn oom_kills_largest() {
        let mut k = kernel(4); // swap = 1 GiB
        let small = k.spawn("small");
        let big = k.spawn("big");
        k.grow(small, GIB).unwrap();
        k.grow(big, 4 * GIB).unwrap(); // committed 5 GiB, swapped 1 GiB: at capacity
        assert_eq!(k.check_oom(), None);
        // Push past swap capacity via the small process; the *largest* dies.
        k.grow(small, GIB / 2).unwrap();
        assert_eq!(k.check_oom(), Some(big));
        assert!(!k.is_alive(big));
        assert!(k.is_alive(small));
        assert_eq!(k.check_oom(), None, "pressure relieved after the kill");
    }

    #[test]
    fn signals_round_trip_and_drop_for_dead() {
        let mut k = kernel(1);
        let p = k.spawn("p");
        k.send_signal(p, Signal::LowMemory);
        k.send_signal(p, Signal::HighMemory);
        assert_eq!(
            k.take_signals(p),
            vec![Signal::LowMemory, Signal::HighMemory]
        );
        k.exit(p);
        k.send_signal(p, Signal::LowMemory);
        assert!(k.take_signals(p).is_empty());
    }

    #[test]
    fn kill_queues_kill_signal_and_traces() {
        let mut k = kernel(1);
        let p = k.spawn("p");
        k.grow(p, MIB).unwrap();
        k.kill(p);
        assert!(!k.is_alive(p));
        assert_eq!(k.rss(p), 0);
        assert_eq!(k.trace.count("proc.kill"), 1);
    }

    #[test]
    fn running_pids_excludes_dead() {
        let mut k = kernel(1);
        let a = k.spawn("a");
        let b = k.spawn("b");
        let c = k.spawn("c");
        k.exit(b);
        assert_eq!(k.running_pids(), vec![a, c]);
    }

    #[test]
    fn spawn_records_time() {
        let mut k = kernel(1);
        k.set_time(SimTime::from_secs(42));
        let p = k.spawn("late");
        assert_eq!(k.process(p).unwrap().spawned_at, SimTime::from_secs(42));
    }

    #[test]
    fn spawn_reusing_gets_fresh_incarnation_and_no_stale_signals() {
        let mut k = kernel(1);
        let p = k.spawn("victim");
        let first_inc = k.process(p).unwrap().incarnation;
        k.kill(p); // queues a Kill signal for the dead pid
        let reused = k.spawn_reusing(p, "bystander");
        assert_eq!(reused, p, "same pid, new process");
        assert!(k.is_alive(p));
        assert!(
            k.take_signals(p).is_empty(),
            "the reuser must not inherit the victim's Kill"
        );
        assert!(k.process(p).unwrap().incarnation > first_inc);
        assert_eq!(k.process(p).unwrap().name, "bystander");
    }

    #[test]
    #[should_panic(expected = "cannot reuse a live pid")]
    fn spawn_reusing_rejects_live_pids() {
        let mut k = kernel(1);
        let p = k.spawn("alive");
        k.spawn_reusing(p, "imposter");
    }

    #[test]
    #[should_panic(expected = "cannot reuse a pid that was never allocated")]
    fn spawn_reusing_rejects_the_system_pid() {
        let mut k = kernel(1);
        k.spawn("p");
        k.spawn_reusing(0, "imposter");
    }

    #[test]
    fn meminfo_outage_fails_try_meminfo_only() {
        let mut k = kernel(4);
        let p = k.spawn("p");
        k.grow(p, GIB).unwrap();
        assert_eq!(k.try_meminfo().unwrap().used, GIB);
        k.set_meminfo_outage(true);
        assert_eq!(k.try_meminfo(), Err(KernelError::MemInfoUnavailable));
        k.set_meminfo_outage(false);
        assert!(k.try_meminfo().is_ok());
    }

    #[test]
    fn deferred_signals_flush_on_set_time() {
        use crate::signals::SignalFaultConfig;
        let mut k = kernel(1);
        let p = k.spawn("p");
        k.set_signal_faults(Some(SignalFaultConfig::laggy(
            1,
            1.0,
            SimTime::from_secs(3).saturating_since(SimTime::ZERO),
        )));
        k.send_signal(p, Signal::HighMemory);
        assert!(k.take_signals(p).is_empty(), "in flight");
        k.set_time(SimTime::from_secs(3));
        assert_eq!(k.take_signals(p), vec![Signal::HighMemory]);
        assert_eq!(k.signal_fault_stats().delayed, 1);
    }

    #[derive(Debug, Clone)]
    enum Op {
        Spawn,
        SpawnReusing(usize),
        Grow(usize, u64),
        Release(usize, u64),
        Exit(usize),
        Kill(usize),
        CheckOom,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            Just(Op::Spawn),
            (0usize..16).prop_map(Op::SpawnReusing),
            (0usize..16, 0u64..(3 * 1024)).prop_map(|(i, mb)| Op::Grow(i, mb * MIB + i as u64)),
            (0usize..16, 0u64..(3 * 1024)).prop_map(|(i, mb)| Op::Grow(i, mb * MIB + i as u64)),
            (0usize..16, 0u64..(4 * 1024)).prop_map(|(i, mb)| Op::Release(i, mb * MIB)),
            (0usize..16).prop_map(Op::Exit),
            (0usize..16).prop_map(Op::Kill),
            Just(Op::CheckOom),
        ]
    }

    /// The process table as a map keyed by pid, with its own pid counter
    /// and fault-free signal queues: the reference the pid-indexed table
    /// is checked against.
    struct Model {
        procs: BTreeMap<Pid, Process>,
        next_pid: Pid,
        spawn_seq: u64,
        now: SimTime,
        signals: BTreeMap<Pid, Vec<Signal>>,
    }

    impl Model {
        fn new() -> Self {
            Model {
                procs: BTreeMap::new(),
                next_pid: 1,
                spawn_seq: 0,
                now: SimTime::ZERO,
                signals: BTreeMap::new(),
            }
        }

        fn alive(&self, pid: Pid) -> bool {
            self.procs.get(&pid).is_some_and(Process::is_alive)
        }

        fn committed(&self) -> u64 {
            self.procs.values().map(|p| p.committed).sum()
        }

        fn spawn(&mut self, pid: Pid) {
            self.spawn_seq += 1;
            let proc = Process::new(pid, "p", self.now, self.spawn_seq);
            self.procs.insert(pid, proc);
        }

        fn release_all(&mut self, pid: Pid, state: ProcessState) {
            let p = self.procs.get_mut(&pid).expect("known pid");
            p.committed = 0;
            p.state = state;
        }

        fn send(&mut self, pid: Pid, sig: Signal) {
            let q = self.signals.entry(pid).or_default();
            if sig == Signal::Kill || !q.contains(&sig) {
                q.push(sig);
            }
        }

        fn kill(&mut self, pid: Pid) {
            if self.alive(pid) {
                self.release_all(pid, ProcessState::Killed);
                self.send(pid, Signal::Kill);
            }
        }
    }

    #[derive(Debug, Clone)]
    enum TableOp {
        Tick,
        Spawn,
        SpawnReusing(Pid),
        Exit(Pid),
        Kill(Pid),
        Grow(Pid, u64),
        Release(Pid, u64),
        Send(Pid, Signal),
        Take(Pid),
        CheckOom,
    }

    fn table_op() -> impl Strategy<Value = TableOp> {
        // Raw pids 0..24: pid 0, allocated pids and pids never allocated.
        let pid = || 0u64..24;
        let sig = prop_oneof![
            Just(Signal::LowMemory),
            Just(Signal::HighMemory),
            Just(Signal::Kill)
        ];
        prop_oneof![
            Just(TableOp::Tick),
            Just(TableOp::Spawn),
            Just(TableOp::Spawn),
            pid().prop_map(TableOp::SpawnReusing),
            pid().prop_map(TableOp::Exit),
            pid().prop_map(TableOp::Kill),
            (pid(), 0u64..(3 * 1024)).prop_map(|(p, mb)| TableOp::Grow(p, mb * MIB)),
            (pid(), 0u64..(3 * 1024)).prop_map(|(p, mb)| TableOp::Release(p, mb * MIB)),
            (pid(), sig).prop_map(|(p, s)| TableOp::Send(p, s)),
            pid().prop_map(TableOp::Take),
            Just(TableOp::CheckOom),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn pid_indexed_table_matches_a_map_keyed_by_pid(
            ops in proptest::collection::vec(table_op(), 1..300),
        ) {
            let mut k = kernel(4); // swap = 1 GiB, so OOM kills happen
            let mut m = Model::new();
            for op in ops {
                match op {
                    TableOp::Tick => {
                        m.now += SimDuration::from_secs(1);
                        k.set_time(m.now);
                    }
                    TableOp::Spawn => {
                        let pid = m.next_pid;
                        m.next_pid += 1;
                        m.spawn(pid);
                        prop_assert_eq!(k.spawn("p"), pid);
                    }
                    TableOp::SpawnReusing(pid) => {
                        if m.procs.contains_key(&pid) && !m.alive(pid) {
                            m.signals.remove(&pid);
                            m.spawn(pid);
                            prop_assert_eq!(k.spawn_reusing(pid, "p"), pid);
                        }
                    }
                    TableOp::Exit(pid) => {
                        if m.procs.contains_key(&pid) {
                            m.release_all(pid, ProcessState::Exited);
                            m.signals.remove(&pid);
                        }
                        k.exit(pid);
                    }
                    TableOp::Kill(pid) => {
                        m.kill(pid);
                        k.kill(pid);
                    }
                    TableOp::Grow(pid, bytes) => {
                        let alive = m.alive(pid);
                        if alive {
                            m.procs.get_mut(&pid).expect("alive").committed += bytes;
                        }
                        prop_assert_eq!(k.grow(pid, bytes).is_ok(), alive);
                    }
                    TableOp::Release(pid, bytes) => {
                        let alive = m.alive(pid);
                        if alive {
                            let p = m.procs.get_mut(&pid).expect("alive");
                            p.committed -= bytes.min(p.committed);
                        }
                        prop_assert_eq!(k.release(pid, bytes).is_ok(), alive);
                    }
                    TableOp::Send(pid, sig) => {
                        if m.alive(pid) {
                            m.send(pid, sig);
                        }
                        k.send_signal(pid, sig);
                    }
                    TableOp::Take(pid) => {
                        let want = m.signals.remove(&pid).unwrap_or_default();
                        prop_assert_eq!(k.take_signals(pid), want);
                    }
                    TableOp::CheckOom => {
                        let total = k.config().total;
                        let swapped = m.committed().saturating_sub(total);
                        let victim = if k.config().swap.exhausted(swapped) {
                            (m.procs.values().filter(|p| p.is_alive()))
                                .max_by_key(|p| (p.committed, p.pid))
                                .map(|p| p.pid)
                        } else {
                            None
                        };
                        if let Some(pid) = victim {
                            m.kill(pid);
                        }
                        prop_assert_eq!(k.check_oom(), victim);
                    }
                }
                prop_assert_eq!(k.committed(), m.committed());
                let running: Vec<Pid> =
                    (m.procs.values().filter(|p| p.is_alive())).map(|p| p.pid).collect();
                prop_assert_eq!(k.running_pids(), running);
                for pid in (0..=m.next_pid + 1).chain([u64::MAX]) {
                    prop_assert_eq!(k.rss(pid), m.procs.get(&pid).map_or(0, |p| p.committed));
                    prop_assert_eq!(k.is_alive(pid), m.alive(pid));
                    prop_assert_eq!(
                        format!("{:?}", k.process(pid)),
                        format!("{:?}", m.procs.get(&pid))
                    );
                }
            }
        }

        #[test]
        fn running_ledger_matches_the_process_table(
            ops in proptest::collection::vec(op_strategy(), 1..300),
        ) {
            let mut k = kernel(4); // swap = 1 GiB, so OOM kills happen
            let mut pids: Vec<Pid> = Vec::new();
            for op in ops {
                let pick = |i: usize| pids.get(i % pids.len().max(1)).copied();
                match op {
                    Op::Spawn => pids.push(k.spawn("p")),
                    Op::SpawnReusing(i) => {
                        if let Some(pid) = pick(i).filter(|&p| !k.is_alive(p)) {
                            k.spawn_reusing(pid, "reuser");
                        }
                    }
                    Op::Grow(i, bytes) => {
                        if let Some(pid) = pick(i) {
                            let alive = k.is_alive(pid);
                            prop_assert_eq!(k.grow(pid, bytes).is_ok(), alive);
                        }
                    }
                    Op::Release(i, bytes) => {
                        if let Some(pid) = pick(i) {
                            let _ = k.release(pid, bytes);
                        }
                    }
                    Op::Exit(i) => {
                        if let Some(pid) = pick(i) {
                            k.exit(pid);
                        }
                    }
                    Op::Kill(i) => {
                        if let Some(pid) = pick(i) {
                            k.kill(pid);
                        }
                    }
                    Op::CheckOom => while k.check_oom().is_some() {},
                }
                let live: u64 = k.running_pids().iter().map(|&p| k.rss(p)).sum();
                prop_assert_eq!(k.committed(), live);
                for &pid in &pids {
                    if !k.is_alive(pid) {
                        prop_assert_eq!(k.rss(pid), 0, "dead pid {} holds bytes", pid);
                    }
                }
                let total = k.config().total;
                let swapped = live.saturating_sub(total);
                prop_assert_eq!(k.swapped(), swapped);
                let mi = k.meminfo();
                prop_assert_eq!(mi.used, live.min(total));
                prop_assert_eq!(mi.available, total - live.min(total));
                prop_assert_eq!(mi.swapped, swapped);
                let speed = k.config().swap.speed_multiplier(swapped, total);
                prop_assert_eq!(k.thrash_multiplier().to_bits(), speed.to_bits());
            }
        }
    }
}
