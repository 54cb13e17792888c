//! Timing probes placed at layer boundaries from the outside: a
//! [`Process`] wrapper ([`Timed`]) and a [`Runtime`] wrapper ([`TimedRt`]).
//! Each records calls, nanoseconds and allocation calls per boundary; a
//! layer's self time is its boundary's time minus its children's.

use std::hint::black_box;
use std::ops::{Deref, DerefMut};
use std::time::Instant;

use dbtree::Msg;
use simnet::{
    Context, Obs, Payload, Poll, ProcId, Process, QuiesceError, Runtime, SessionMsg, SimTime,
};

use crate::alloc;

/// Calls, time and allocations accumulated at one boundary.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub calls: u64,
    pub ns: u64,
    pub allocs: u64,
}

impl Tally {
    pub fn merge(&mut self, other: &Tally) {
        self.calls += other.calls;
        self.ns += other.ns;
        self.allocs += other.allocs;
    }

    /// Close an interval opened by [`Mark::now`]; returns its own tally.
    #[inline]
    fn close(&mut self, mark: Mark) -> Tally {
        let one = Tally {
            calls: 1,
            ns: mark.at.elapsed().as_nanos() as u64,
            allocs: alloc::allocs() - mark.allocs,
        };
        self.merge(&one);
        one
    }
}

/// The opening edge of a timed interval.
#[derive(Clone, Copy)]
struct Mark {
    at: Instant,
    allocs: u64,
}

impl Mark {
    #[inline]
    fn now() -> Self {
        Mark {
            allocs: alloc::allocs(),
            at: Instant::now(),
        }
    }
}

/// Message facts the probes record besides the kind.
pub trait Inspect {
    /// Relayed updates carried by a piggyback batch (0 for other messages).
    fn batch_items(&self) -> usize {
        0
    }
}

impl Inspect for Msg {
    fn batch_items(&self) -> usize {
        match self {
            Msg::RelayBatch(items) => items.len(),
            _ => 0,
        }
    }
}

impl<M> Inspect for SessionMsg<M> {}

/// Label under which timer firings are tallied.
pub const TIMER: &str = "timer";

/// A [`Process`] wrapper timing every handler call of the process inside.
/// With `by_kind`, calls are also tallied per message kind.
pub struct Timed<P> {
    inner: P,
    by_kind: bool,
    /// Every timed handler call.
    pub total: Tally,
    /// Per message kind, in first-seen order (empty unless `by_kind`).
    pub kinds: Vec<(&'static str, Tally)>,
    /// Relayed updates carried by the piggyback batches delivered here.
    pub batch_items: u64,
}

/// An open handler interval of a [`Timed`].
struct Open {
    kind: &'static str,
    items: usize,
    mark: Mark,
}

impl<P> Timed<P> {
    pub fn new(inner: P, by_kind: bool) -> Self {
        Timed {
            inner,
            by_kind,
            total: Tally::default(),
            kinds: Vec::new(),
            batch_items: 0,
        }
    }

    #[inline]
    fn open(&self, kind: &'static str, items: usize) -> Open {
        Open {
            kind,
            items,
            mark: Mark::now(),
        }
    }

    #[inline]
    fn close(&mut self, open: Open) {
        let one = self.total.close(open.mark);
        if !self.by_kind {
            return;
        }
        self.batch_items += open.items as u64;
        // Kinds are static literals: compare addresses on the hot path (an
        // equal name at another address just gets its own entry, merged by
        // name when the run is reported).
        match self
            .kinds
            .iter_mut()
            .find(|(k, _)| std::ptr::eq(*k, open.kind))
        {
            Some((_, t)) => t.merge(&one),
            None => self.kinds.push((open.kind, one)),
        }
    }
}

impl<P> Deref for Timed<P> {
    type Target = P;
    fn deref(&self) -> &P {
        &self.inner
    }
}

impl<P> DerefMut for Timed<P> {
    fn deref_mut(&mut self) -> &mut P {
        &mut self.inner
    }
}

impl<P> Process for Timed<P>
where
    P: Process,
    P::Msg: Inspect,
{
    type Msg = P::Msg;

    fn on_start(&mut self, ctx: &mut Context<'_, P::Msg>) {
        // Start hooks run while the runtime is constructed: set-up, not a
        // layer of the driven region.
        self.inner.on_start(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, P::Msg>, from: ProcId, msg: P::Msg) {
        let (kind, items) = if self.by_kind {
            (msg.kind(), msg.batch_items())
        } else {
            ("", 0)
        };
        let open = self.open(kind, items);
        self.inner.on_message(ctx, from, msg);
        self.close(open);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, P::Msg>, token: u64) {
        let open = self.open(TIMER, 0);
        self.inner.on_timer(ctx, token);
        self.close(open);
    }

    fn on_restart(&mut self, ctx: &mut Context<'_, P::Msg>) {
        let open = self.open("restart", 0);
        self.inner.on_restart(ctx);
        self.close(open);
    }

    fn on_peer_change(&mut self, ctx: &mut Context<'_, P::Msg>, peer: ProcId, up: bool) {
        let open = self.open("peer-change", 0);
        self.inner.on_peer_change(ctx, peer, up);
        self.close(open);
    }

    fn metrics(&self) -> Vec<(&'static str, u64)> {
        self.inner.metrics()
    }

    fn gauges(&self, now: SimTime) -> Vec<(&'static str, u64)> {
        self.inner.gauges(now)
    }

    fn fingerprint(&self) -> Option<u64> {
        self.inner.fingerprint()
    }
}

/// Boundary tallies of the four driven [`Runtime`] entry points.
#[derive(Clone, Copy, Debug, Default)]
pub struct RtTally {
    pub inject: Tally,
    pub poll: Tally,
    pub settle: Tally,
    pub drain: Tally,
}

impl RtTally {
    pub fn merge(&mut self, other: &RtTally) {
        self.inject.merge(&other.inject);
        self.poll.merge(&other.poll);
        self.settle.merge(&other.settle);
        self.drain.merge(&other.drain);
    }

    /// All four entry points together.
    pub fn total(&self) -> Tally {
        let mut t = self.inject;
        t.merge(&self.poll);
        t.merge(&self.settle);
        t.merge(&self.drain);
        t
    }
}

/// A [`Runtime`] wrapper timing `inject`, `poll`, `settle` and
/// `drain_outputs`. `now` and `num_procs` are left untimed: they are
/// clock reads the driver makes around its own bookkeeping.
pub struct TimedRt<R> {
    pub rt: R,
    pub tally: RtTally,
}

impl<R> TimedRt<R> {
    pub fn new(rt: R) -> Self {
        TimedRt {
            rt,
            tally: RtTally::default(),
        }
    }
}

impl<R: Runtime> Runtime for TimedRt<R> {
    type Proc = R::Proc;

    fn num_procs(&self) -> usize {
        self.rt.num_procs()
    }

    fn now(&self) -> SimTime {
        self.rt.now()
    }

    fn inject(&mut self, to: ProcId, msg: <R::Proc as Process>::Msg) {
        let mark = Mark::now();
        self.rt.inject(to, msg);
        self.tally.inject.close(mark);
    }

    fn poll(&mut self, deadline: Option<SimTime>) -> Poll {
        let mark = Mark::now();
        let out = self.rt.poll(deadline);
        self.tally.poll.close(mark);
        out
    }

    fn settle(&mut self) -> Result<(), QuiesceError> {
        let mark = Mark::now();
        let out = self.rt.settle();
        self.tally.settle.close(mark);
        out
    }

    fn drain_outputs(&mut self) -> Vec<(SimTime, ProcId, <R::Proc as Process>::Msg)> {
        let mark = Mark::now();
        let out = self.rt.drain_outputs();
        self.tally.drain.close(mark);
        out
    }

    fn take_obs(&mut self) -> Obs {
        self.rt.take_obs()
    }

    fn into_procs(self) -> Vec<R::Proc> {
        self.rt.into_procs()
    }
}

/// Calibrated cost, in nanoseconds, of one boundary as its parent layer
/// sees it: `(plain, by_kind)` for a probe without and with the per-kind
/// tally. Each is the median of several timed loops over the probe's own
/// open/close code around an empty body.
pub fn calibrate() -> (f64, f64) {
    const LOOPS: usize = 7;
    const ITERS: u32 = 200_000;
    let measure = |by_kind: bool| {
        let mut probe = Timed::new((), by_kind);
        // A typical number of kinds ahead of the one looked up.
        probe.kinds = ["a", "b", "c", "d", "e", "f"]
            .map(|k| (k, Tally::default()))
            .to_vec();
        let mut runs: Vec<f64> = (0..LOOPS)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..ITERS {
                    let open = probe.open(black_box(TIMER), black_box(0));
                    probe.close(open);
                }
                start.elapsed().as_nanos() as f64 / ITERS as f64
            })
            .collect();
        black_box(&probe.total);
        runs.sort_by(f64::total_cmp);
        runs[LOOPS / 2]
    };
    (measure(false), measure(true))
}
