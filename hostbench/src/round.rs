//! One round: set up a deployment, drive the workload's operations
//! closed-loop, and check the result. The process stack and runtime are
//! type parameters, so the same code runs bare (end-to-end numbers) and
//! wrapped in probes (per-layer numbers), on either substrate.

use std::collections::BTreeMap;
use std::time::Instant;

use dbtree::{build_procs, DbProc, DbProtocol, Msg, ProcMetrics};
use simnet::driver::Driver;
use simnet::{
    threaded, ProcId, Process, Runtime, SessionConfig, SessionMsg, SessionProc, SessionStats,
    Simulation,
};

use crate::alloc;
use crate::check::{Oracle, ScanDone};
use crate::inputs::Workload;
use crate::probe::{RtTally, Tally, Timed, TimedRt};
use crate::report::quantile;

/// The per-processor process stack a round runs.
pub trait Stack: Process<Msg = SessionMsg<Msg>> + Send + Sized + 'static {
    /// Whether the stack carries probes (and the round times the runtime).
    const TRACED: bool;
    fn wrap(proc: DbProc, session: SessionConfig) -> Self;
    fn db(&self) -> &DbProc;
    fn session_stats(&self) -> &SessionStats;
    /// The outer (session-entry) tally and the inner (handler) probe.
    fn probes(&self) -> Option<(Tally, &Timed<DbProc>)>;
}

/// The deployment as the program ships it.
pub type Plain = SessionProc<DbProc>;

/// Probes around the session layer and around the dB-tree handlers.
pub type Traced = Timed<SessionProc<Timed<DbProc>>>;

impl Stack for Plain {
    const TRACED: bool = false;
    fn wrap(proc: DbProc, session: SessionConfig) -> Self {
        SessionProc::new(proc, session)
    }
    fn db(&self) -> &DbProc {
        self
    }
    fn session_stats(&self) -> &SessionStats {
        SessionProc::session_stats(self)
    }
    fn probes(&self) -> Option<(Tally, &Timed<DbProc>)> {
        None
    }
}

impl Stack for Traced {
    const TRACED: bool = true;
    fn wrap(proc: DbProc, session: SessionConfig) -> Self {
        Timed::new(SessionProc::new(Timed::new(proc, true), session), false)
    }
    fn db(&self) -> &DbProc {
        self
    }
    fn session_stats(&self) -> &SessionStats {
        SessionProc::session_stats(self)
    }
    fn probes(&self) -> Option<(Tally, &Timed<DbProc>)> {
        Some((self.total, self.inner()))
    }
}

/// A runtime a round can start and read counts from.
pub trait Substrate: Runtime + Sized {
    fn start(w: &Workload, procs: Vec<Self::Proc>) -> Self;
    /// Events delivered and network messages sent so far (simulator only).
    fn counts(&self) -> Option<(u64, u64)>;
}

impl<S: Stack> Substrate for Simulation<S> {
    fn start(w: &Workload, procs: Vec<S>) -> Self {
        Simulation::new(w.sim.clone(), procs)
    }
    fn counts(&self) -> Option<(u64, u64)> {
        Some((self.events_delivered(), self.stats().total_messages()))
    }
}

impl<S: Stack> Substrate for threaded::Cluster<S> {
    fn start(_: &Workload, procs: Vec<S>) -> Self {
        threaded::Cluster::spawn(procs)
    }
    fn counts(&self) -> Option<(u64, u64)> {
        None
    }
}

/// Set-up time, split into its two parts.
#[derive(Clone, Copy, Debug, Default)]
pub struct Setup {
    /// `dbtree::build_procs`: lay out and install the initial tree.
    pub procs_s: f64,
    /// Wrap the processes and construct (or spawn) the runtime.
    pub runtime_s: f64,
}

impl Setup {
    pub fn total(&self) -> f64 {
        self.procs_s + self.runtime_s
    }
}

/// Probe readings of one traced round.
#[derive(Debug, Default)]
pub struct LayerTrace {
    pub rt: RtTally,
    /// Session-layer entry (everything a delivery costs past the runtime).
    pub outer: Tally,
    /// dB-tree handlers.
    pub inner: Tally,
    /// dB-tree handlers per message kind (`timer` for timer firings).
    pub kinds: BTreeMap<&'static str, Tally>,
    /// Relayed updates carried by piggyback batches.
    pub batch_items: u64,
    /// Session-entry nanoseconds per processor (worker busy time).
    pub busy_ns: Vec<u64>,
}

/// Everything one round measured.
pub struct Round {
    pub setup: Setup,
    /// Host seconds of the driven region (the closed loop to quiescence).
    pub drive_s: f64,
    pub attempted: usize,
    /// Completed operations, scans included.
    pub completed: usize,
    /// Completed point operations (scans excluded).
    pub point_ops: usize,
    /// Latency in ticks of every completed operation and scan, sorted.
    pub latencies: Vec<u64>,
    pub hops: u64,
    pub chases: u64,
    /// Events delivered and network messages during the drive (simulator).
    pub counts: Option<(u64, u64)>,
    pub session: SessionStats,
    pub metrics: ProcMetrics,
    /// Node copies held across all stores at the end.
    pub live_nodes: usize,
    pub check_s: f64,
    /// Peak live heap during the round, above the heap at its start.
    pub peak_heap_bytes: i64,
    pub violations: Vec<String>,
    pub trace: Option<LayerTrace>,
}

impl Round {
    /// Completed operations per host second of the driven region.
    pub fn ops_per_s(&self) -> f64 {
        self.completed as f64 / self.drive_s
    }

    /// The counts a simulator round must reproduce exactly on the same
    /// inputs, traced or not (latency percentiles as their bit patterns).
    pub fn deterministic(&self) -> Vec<u64> {
        let (events, msgs) = self.counts.unwrap_or_default();
        vec![
            self.completed as u64,
            quantile(&self.latencies, 0.50).to_bits(),
            quantile(&self.latencies, 0.99).to_bits(),
            self.latencies.iter().sum(),
            events,
            msgs,
            self.hops,
            self.chases,
            self.metrics.splits_initiated,
            self.metrics.merges_completed,
            self.metrics.merges_declined,
            self.session.retransmissions,
            self.session.dup_suppressed,
            self.live_nodes as u64,
        ]
    }
}

/// Build the processes and the runtime, timing both parts.
pub fn setup<R: Substrate>(w: &Workload) -> (Setup, R)
where
    R::Proc: Stack,
{
    let t0 = Instant::now();
    let (procs, _log) = build_procs(&w.spec);
    let t1 = Instant::now();
    let procs = procs
        .into_iter()
        .map(|p| R::Proc::wrap(p, w.session))
        .collect();
    let rt = R::start(w, procs);
    let t2 = Instant::now();
    let setup = Setup {
        procs_s: (t1 - t0).as_secs_f64(),
        runtime_s: (t2 - t1).as_secs_f64(),
    };
    (setup, rt)
}

/// Set up, drive and check one round.
pub fn run<R: Substrate>(w: &Workload, oracle: &Oracle) -> Round
where
    R::Proc: Stack,
{
    let base = alloc::live_bytes();
    alloc::reset_peak();
    let (setup, rt) = setup::<R>(w);
    let before = rt.counts();
    let mut driver = Driver::<DbProtocol>::new();
    let (result, rt, rt_tally, drive_s) = if R::Proc::TRACED {
        let mut timed = TimedRt::new(rt);
        let start = Instant::now();
        let result = driver.try_run_closed_loop_mixed(&mut timed, &w.items, w.window);
        let drive_s = start.elapsed().as_secs_f64();
        (result, timed.rt, Some(timed.tally), drive_s)
    } else {
        let mut rt = rt;
        let start = Instant::now();
        let result = driver.try_run_closed_loop_mixed(&mut rt, &w.items, w.window);
        let drive_s = start.elapsed().as_secs_f64();
        (result, rt, None, drive_s)
    };
    let counts = match (before, rt.counts()) {
        (Some((e0, m0)), Some((e1, m1))) => Some((e1 - e0, m1 - m0)),
        _ => None,
    };
    let mut violations = Vec::new();
    let records = result.map(|s| s.records).unwrap_or_else(|e| {
        violations.push(format!("run aborted: {e}"));
        Vec::new()
    });
    let scans = driver.take_scans();
    let mut latencies: Vec<u64> = records.iter().map(|r| r.latency()).collect();
    latencies.extend(scans.iter().map(|s| s.completed - s.submitted));
    latencies.sort_unstable();
    let scans: Vec<ScanDone> = scans
        .into_iter()
        .map(|s| (s.scan.from, s.scan.limit, s.result.0))
        .collect();

    // Joins the worker threads on the threaded runtime.
    let procs = rt.into_procs();
    let mut session = SessionStats::default();
    let mut metrics = ProcMetrics::default();
    let mut live_nodes = 0;
    let mut trace = rt_tally.map(|rt| LayerTrace {
        rt,
        ..LayerTrace::default()
    });
    for p in &procs {
        session.merge(p.session_stats());
        metrics.merge(&p.db().metrics);
        live_nodes += p.db().store.len();
        if let (Some(t), Some((outer, inner))) = (trace.as_mut(), p.probes()) {
            t.outer.merge(&outer);
            t.inner.merge(&inner.total);
            t.batch_items += inner.batch_items;
            t.busy_ns.push(outer.ns);
            for (kind, tally) in &inner.kinds {
                t.kinds.entry(*kind).or_default().merge(tally);
            }
        }
    }

    let start = Instant::now();
    violations.extend(
        oracle.check(
            procs
                .iter()
                .enumerate()
                .map(|(i, p)| (ProcId(i as u32), p.db())),
            &records,
            &scans,
        ),
    );
    let check_s = start.elapsed().as_secs_f64();
    let peak_heap_bytes = alloc::peak_bytes() - base;

    Round {
        setup,
        drive_s,
        attempted: w.items.len(),
        completed: records.len() + scans.len(),
        point_ops: records.len(),
        latencies,
        hops: records.iter().map(|r| r.outcome.hops as u64).sum(),
        chases: records.iter().map(|r| r.outcome.chases as u64).sum(),
        counts,
        session,
        metrics,
        live_nodes,
        check_s,
        peak_heap_bytes,
        violations,
        trace,
    }
}
