//! The action executor shared by both runtimes.
//!
//! The paper's processing model (§1.1) has one notion of an *action*: a
//! node manager runs it atomically, and the action creates the next
//! actions. Both runtimes run every action through [`Executor::run`] and
//! hand each effect it buffered to [`route`]; they differ only in how a
//! routed send, timer or output travels (the simulator's event queue vs.
//! the threaded cluster's channels and timer thread). Everything observable
//! around an action is written here once:
//!
//! - the action's causal trace entry, with the `Process::metrics` counters
//!   the action moved as deltas;
//! - span inheritance: a payload that names its operation wins, everything
//!   else is attributed to the action that sent it;
//! - periodic per-processor sampling, the health watchdogs evaluated at
//!   each sample, and each fired alert mirrored into the trace;
//! - the output, mark, fault-drop and crash entries.
//!
//! The recorder state lives in one [`Recorder`]. The simulator owns it
//! outright; the threaded workers reach a shared one through the cluster's
//! mutex. [`Recording`] abstracts over the two, so the simulator's calls
//! stay generic — no lock, no dynamic dispatch.

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::context::{Context, Effect};
use crate::health::{Alert, HealthMonitor};
use crate::obs::{metric_deltas, Sampler};
use crate::trace::{TraceEntry, TraceEvent};
use crate::{Obs, ObsConfig, Payload, ProcId, ProcSample, Process, SimTime, Trace};

/// Everything a run records: the causal trace, the sampled series, and the
/// watchdogs with the alerts they fired.
pub(crate) struct Recorder {
    pub(crate) trace: Trace,
    trace_cap: usize,
    sampler: Sampler,
    pub(crate) series: Vec<ProcSample>,
    /// Online watchdogs (`None` unless enabled; no monitor state is even
    /// allocated then) and the alerts they have fired so far.
    health: Option<HealthMonitor>,
    pub(crate) alerts: Vec<Alert>,
}

impl Recorder {
    pub(crate) fn new(cfg: ObsConfig, n_procs: usize) -> Self {
        Recorder {
            trace: Trace::with_capacity(cfg.trace_capacity),
            trace_cap: cfg.trace_capacity,
            sampler: Sampler::new(cfg.sample_interval, n_procs),
            series: Vec::new(),
            health: cfg
                .health
                .enabled
                .then(|| HealthMonitor::new(cfg.health, n_procs)),
            alerts: Vec::new(),
        }
    }

    /// Take the recorded data, leaving fresh buffers with the same
    /// configuration.
    pub(crate) fn take_obs(&mut self) -> Obs {
        Obs {
            trace: std::mem::replace(&mut self.trace, Trace::with_capacity(self.trace_cap)),
            series: std::mem::take(&mut self.series),
            alerts: std::mem::take(&mut self.alerts),
        }
    }

    /// Sample `p` if a sample is due: its counters, its gauges plus the
    /// runtime's own, then the watchdogs over that sample, mirroring each
    /// alert into the trace.
    fn sample<P: Process>(
        &mut self,
        p: &P,
        me: ProcId,
        now: SimTime,
        rt_gauges: &[(&'static str, u64)],
    ) {
        if !self.sampler.due(me, now) {
            return;
        }
        let pairs = p.metrics();
        let mut gauges = p.gauges(now);
        gauges.extend_from_slice(rt_gauges);
        if let Some(mon) = &mut self.health {
            for alert in mon.observe(now, me, &pairs, &gauges) {
                if self.trace.enabled() {
                    let hop = Hop::local(me, alert.rule);
                    self.trace
                        .record(hop.entry(TraceEvent::Alert, now, 0, alert.detail()));
                }
                self.alerts.push(alert);
            }
        }
        self.series.push(ProcSample {
            at: now,
            proc: me,
            pairs,
            gauges,
        });
    }
}

/// How the executor reaches a [`Recorder`]: the simulator owns its own,
/// the threaded workers share one behind a mutex.
pub(crate) trait Recording {
    /// Is the causal trace on? Fixed at construction, so a shared recorder
    /// answers without taking its lock.
    fn tracing(&self) -> bool;

    /// Run `f` on the recorder — skipped when telemetry is off entirely.
    fn with(&mut self, f: impl FnOnce(&mut Recorder));

    /// Record the entry `make` builds, building it only while tracing.
    fn trace(&mut self, make: impl FnOnce() -> TraceEntry) {
        if self.tracing() {
            self.with(|r| r.trace.record(make()));
        }
    }

    /// Record that a fault dropped (or, for [`TraceEvent::Duplicate`],
    /// copied) the message `hop`; `why` names the fault.
    fn fault(&mut self, event: TraceEvent, at: SimTime, hop: Hop, wait: u64, why: &'static str) {
        self.trace(|| hop.entry(event, at, wait, why.into()));
    }

    /// Record the crash of processor `p`.
    fn crash(&mut self, at: SimTime, p: ProcId) {
        self.trace(|| Hop::local(p, "fault.crash").entry(TraceEvent::Crash, at, 0, String::new()));
    }
}

impl Recording for Recorder {
    fn tracing(&self) -> bool {
        self.trace.enabled()
    }

    fn with(&mut self, f: impl FnOnce(&mut Recorder)) {
        f(self)
    }
}

/// The message-shaped part of a trace entry: endpoints, payload kind, span
/// and the retransmission flag. Runtime-level records (timers, restarts,
/// crashes, alerts, marks) are hops from a processor to itself.
#[derive(Clone, Copy)]
pub(crate) struct Hop {
    pub(crate) from: ProcId,
    pub(crate) to: ProcId,
    pub(crate) kind: &'static str,
    pub(crate) span: Option<u64>,
    pub(crate) redelivery: bool,
}

impl Hop {
    /// `msg` travelling from `from` to `to` under `span`.
    pub(crate) fn of<M: Payload>(from: ProcId, to: ProcId, msg: &M, span: Option<u64>) -> Self {
        Hop {
            from,
            to,
            kind: msg.kind(),
            span,
            redelivery: msg.redelivery(),
        }
    }

    /// A spanless record of `kind` on processor `p`.
    fn local(p: ProcId, kind: &'static str) -> Self {
        Hop {
            from: p,
            to: p,
            kind,
            span: None,
            redelivery: false,
        }
    }

    /// The one place a runtime builds a [`TraceEntry`]; `deltas` are filled
    /// in afterwards for executed actions.
    fn entry(self, event: TraceEvent, at: SimTime, wait: u64, detail: String) -> TraceEntry {
        TraceEntry {
            seq: 0,
            at,
            from: self.from,
            to: self.to,
            event,
            kind: self.kind,
            span: self.span,
            redelivery: self.redelivery,
            wait,
            detail,
            deltas: Vec::new(),
        }
    }
}

/// What an action runs: the four ways a node manager is entered.
pub(crate) enum Action<M> {
    /// [`Process::on_start`], once per processor at spawn.
    Start,
    /// A delivered message. `span` was resolved when it was sent; `wait` is
    /// the ticks it queued behind a busy node manager (simulator
    /// service-time model; 0 on threads).
    Deliver {
        from: ProcId,
        msg: M,
        span: Option<u64>,
        wait: u64,
    },
    /// A fired timer.
    Timer { token: u64, wait: u64 },
    /// [`Process::on_restart`] after a crash.
    Restart,
}

impl<M: Payload> Action<M> {
    /// The span the action runs under: a delivery's, else none.
    pub(crate) fn span(&self) -> Option<u64> {
        match self {
            Action::Deliver { span, .. } => *span,
            _ => None,
        }
    }

    /// The action's trace entry, less its deltas, captured before the
    /// handler consumes the payload. `on_start` records none.
    fn entry(&self, me: ProcId, at: SimTime) -> Option<TraceEntry> {
        let (hop, event, wait, detail) = match self {
            Action::Start => return None,
            Action::Deliver {
                from,
                msg,
                span,
                wait,
            } => (
                Hop::of(*from, me, msg, *span),
                TraceEvent::Deliver,
                *wait,
                format!("{msg:?}"),
            ),
            Action::Timer { token, wait } => (
                Hop::local(me, "timer"),
                TraceEvent::Timer,
                *wait,
                format!("token={token}"),
            ),
            Action::Restart => (
                Hop::local(me, "fault.restart"),
                TraceEvent::Restart,
                0,
                String::new(),
            ),
        };
        Some(hop.entry(event, at, wait, detail))
    }
}

/// The state an action runs against besides its process: the buffer its
/// effects go to and the RNG it draws from. The simulator has one (its RNG
/// is the run's single stream, which the latency model also draws from);
/// each threaded worker has its own.
pub(crate) struct Executor<M> {
    pub(crate) rng: SmallRng,
    pub(crate) effects: Vec<Effect<M>>,
}

impl<M: Payload> Executor<M> {
    pub(crate) fn new(seed: u64) -> Self {
        Executor {
            rng: SmallRng::seed_from_u64(seed),
            effects: Vec::new(),
        }
    }

    /// Run one atomic action of `p` (processor `me`) at `now`: run the
    /// handler, record the action's trace entry with its metric deltas,
    /// then take a sample if one is due (with `rt_gauges` appended). The
    /// effects stay buffered in `self.effects` for the runtime to [`route`]
    /// — after this entry, so the trace stays causally ordered.
    ///
    /// With telemetry off this costs one [`Recording::tracing`] branch and
    /// one sampler check on top of the handler.
    pub(crate) fn run<P: Process<Msg = M>>(
        &mut self,
        rec: &mut impl Recording,
        p: &mut P,
        me: ProcId,
        now: SimTime,
        action: Action<M>,
        rt_gauges: &[(&'static str, u64)],
    ) {
        let pending = if rec.tracing() {
            action.entry(me, now).map(|e| (e, p.metrics()))
        } else {
            None
        };
        debug_assert!(self.effects.is_empty());
        let mut ctx = Context {
            me,
            now,
            effects: &mut self.effects,
            rng: &mut self.rng,
            span: action.span(),
        };
        match action {
            Action::Start => p.on_start(&mut ctx),
            Action::Deliver { from, msg, .. } => p.on_message(&mut ctx, from, msg),
            Action::Timer { token, .. } => p.on_timer(&mut ctx, token),
            Action::Restart => p.on_restart(&mut ctx),
        }
        rec.with(|r| {
            if let Some((mut entry, before)) = pending {
                entry.deltas = metric_deltas(&before, &p.metrics());
                r.trace.record(entry);
            }
            r.sample(p, me, now, rt_gauges);
        });
    }
}

/// What an effect asks of the runtime once [`route`] has recorded it.
pub(crate) enum Routed<M> {
    /// Deliver `msg` to processor `to` under `span`.
    Send {
        to: ProcId,
        msg: M,
        span: Option<u64>,
    },
    /// `msg` leaves the system toward [`ProcId::EXTERNAL`].
    Output(M),
    /// Fire the sender's `on_timer(token)` after `delay` ticks.
    Timer { delay: u64, token: u64 },
}

/// Route one effect of an action on `me` that ran under `span`, stamped
/// `at` (its departure time): resolve the span a send carries, record
/// outputs and marks, and return what the runtime must carry out (`None`
/// for a mark, which moves nothing).
pub(crate) fn route<M: Payload>(
    rec: &mut impl Recording,
    me: ProcId,
    at: SimTime,
    span: Option<u64>,
    effect: Effect<M>,
) -> Option<Routed<M>> {
    match effect {
        Effect::Send { to, msg } => {
            // Causal span inheritance: a payload that names its operation
            // wins; everything else is attributed to the action that sent
            // it (split rounds, copy installs, relays, replies).
            let span = msg.span().or(span);
            if !to.is_external() {
                return Some(Routed::Send { to, msg, span });
            }
            rec.trace(|| {
                let hop = Hop {
                    from: me,
                    to: ProcId::EXTERNAL,
                    kind: msg.kind(),
                    span,
                    redelivery: false,
                };
                hop.entry(TraceEvent::Output, at, 0, format!("{msg:?}"))
            });
            Some(Routed::Output(msg))
        }
        Effect::Timer { delay, token } => Some(Routed::Timer { delay, token }),
        Effect::Mark {
            event,
            kind,
            detail,
        } => {
            rec.trace(|| {
                Hop {
                    span,
                    ..Hop::local(me, kind)
                }
                .entry(event, at, 0, detail)
            });
            None
        }
    }
}
