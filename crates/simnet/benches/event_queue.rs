//! Criterion microbench for the indexed event core: steady-state push/pop,
//! indexed removal (`pop_seq`, the schedule explorer's controlled step),
//! and crash cancellation (`cancel_for`) at pending-set sizes from 10^3 to
//! 10^6 events — the range a P=1024 closed-loop run actually holds — plus
//! the node-manager backlog (`park`/`promote`) at backlog depths from 16
//! to 4096 events behind one busy processor.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use simnet::event::{EventKind, EventQueue};
use simnet::{Payload, ProcId, SimTime};

/// Payload shaped like a small protocol message (the queue stores events
/// inline, so payload size is part of what push/pop moves around).
#[derive(Clone, Debug)]
struct Blob(#[allow(dead_code)] [u64; 8]); // never read: exists for copy cost

impl Payload for Blob {}

fn deliver(i: u64) -> EventKind<Blob> {
    EventKind::Deliver {
        from: ProcId((i % 251) as u32),
        msg: Blob([i; 8]),
        span: None,
    }
}

/// Fill with `n` events spread over 256 targets and 64 distinct ticks,
/// none at tick 0 (tick 0 is reserved by the cancel bench so its victims
/// pop first).
fn fill(q: &mut EventQueue<Blob>, n: u64) {
    for i in 0..n {
        q.push(SimTime(1 + i % 64), ProcId((i % 256) as u32), deliver(i));
    }
}

const SIZES: [u64; 4] = [1_000, 10_000, 100_000, 1_000_000];

fn bench_push_pop(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue_push_pop");
    for &n in &SIZES {
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut q = EventQueue::new();
            fill(&mut q, n);
            let mut i = n;
            let mut now = 0u64;
            b.iter(|| {
                // Steady state, shaped like the simulator's hot loop: pop
                // the earliest event (advancing the clock), then push its
                // successor one latency sample ahead. Events are never
                // scheduled into the past, matching the queue's contract.
                let e = q.pop().expect("queue stays non-empty");
                now = e.at.ticks();
                q.push(
                    SimTime(now + 1 + i % 64),
                    ProcId((i % 256) as u32),
                    deliver(i),
                );
                i += 1;
                black_box(e.seq)
            })
        });
    }
    g.finish();
}

fn bench_pop_seq(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue_pop_seq");
    for &n in &SIZES {
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut q = EventQueue::new();
            fill(&mut q, n);
            // Seqs are assigned densely in push order, so the live window
            // after k iterations is exactly [k, k + n). The first call pays
            // the one-time lazy seq-index build (O(n), explorer-only), so
            // mean times are skewed high at large n; the min is the
            // steady-state cost.
            let mut oldest = 0u64;
            let mut next = n;
            b.iter(|| {
                // The explorer's controlled step: surgically remove one
                // pending event by seq, then backfill. Exercises the seq
                // index, stale-entry accounting, and heap compaction.
                let got = q.pop_seq(oldest).is_some();
                oldest += 1;
                q.push(
                    SimTime(1 + next % 64),
                    ProcId((next % 256) as u32),
                    deliver(next),
                );
                next += 1;
                black_box(got)
            })
        });
    }
    g.finish();
}

fn bench_cancel(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue_cancel_for");
    // Cancellation scans the whole slab (crashes are rare; descents are
    // not), so the interesting number is cost vs pending-set size.
    for &n in &[1_000u64, 10_000, 100_000] {
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut q = EventQueue::new();
            fill(&mut q, n);
            let victim = ProcId(300); // outside fill()'s target range
            let mut i = n;
            b.iter(|| {
                // Steady state: arm 8 deliveries to the victim at tick 0
                // (earlier than everything else), cancel them, then pop the
                // 8 tombstones straight back out.
                for _ in 0..8 {
                    q.push(SimTime(0), victim, deliver(i));
                    i += 1;
                }
                q.cancel_for(victim);
                for _ in 0..8 {
                    black_box(q.pop());
                }
            })
        });
    }
    g.finish();
}

/// One delivered event on a busy processor, the way the simulator's
/// service-time model drives the queue: pop until the node manager is free
/// (parking what finds it busy), start the action, and send it the next
/// event. Returns the started event's wait.
fn serve_one(q: &mut EventQueue<Blob>, busy: &mut SimTime, next: &mut u64) -> u64 {
    // Service time of the busy processor (the churn workloads' base).
    const SVC: u64 = 2;
    loop {
        let e = q.pop().expect("the backlog never drains");
        if *busy > e.at {
            q.park(*busy, e);
            continue;
        }
        *busy = e.at + SVC;
        q.promote(e.to, e.seq, *busy);
        q.push(e.at + 1, e.to, deliver(*next));
        *next += 1;
        return e.wait;
    }
}

fn bench_busy_backlog(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue_busy_backlog");
    // One iteration is a few hundred ns: take many samples.
    g.sample_size(2000);
    for &depth in &[16u64, 256, 4096] {
        g.bench_with_input(BenchmarkId::from_parameter(depth), &depth, |b, &depth| {
            // `depth` events land on one processor at tick 1. Serving the
            // first parks the rest; from then on each served action sends
            // one more, so `depth` events wait in steady state.
            let mut q = EventQueue::new();
            for i in 0..depth {
                q.push(SimTime(1), ProcId(0), deliver(i));
            }
            let (mut busy, mut next) = (SimTime::ZERO, depth);
            serve_one(&mut q, &mut busy, &mut next);
            assert_eq!(q.len() as u64, depth);
            b.iter(|| black_box(serve_one(&mut q, &mut busy, &mut next)))
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_push_pop,
    bench_pop_seq,
    bench_cancel,
    bench_busy_backlog
);
criterion_main!(benches);
