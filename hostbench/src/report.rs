//! Turning measured rounds into named metrics, and printing them.

use crate::inputs::Substrate;
use crate::probe::Tally;
use crate::round::{LayerTrace, Round, Setup};

/// Bytes per MiB.
pub const MIB: f64 = 1024.0 * 1024.0;

/// One reported number.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How many samples the value summarizes, in words.
    pub samples: String,
}

fn metric(name: &str, value: f64, unit: &'static str, samples: &str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        samples: samples.to_string(),
    }
}

/// Everything one invocation measured.
pub struct Run {
    pub substrate: Substrate,
    /// Rounds of the bare deployment.
    pub plain: Vec<Round>,
    /// Rounds with probes (trace mode only).
    pub traced: Vec<Round>,
    /// Set-up samples of the bare deployment.
    pub setups: Vec<Setup>,
    /// Calibrated probe cost in ns: without and with the per-kind tally.
    pub wrapper_ns: (f64, f64),
}

/// dB-tree message kinds reported per kind (`timer` is timer firings).
pub const KINDS: [&str; 18] = [
    "client",
    "descend",
    "insert.initial",
    "insert.relay",
    "insert.relay-batch",
    "split.relay",
    "merge.req",
    "merge.grant",
    "merge.decline",
    "merge.absorb",
    "merge.absorb-relay",
    "merge.retire-relay",
    "scan",
    "mobility.link-change",
    "copy.install",
    "copy.new-root",
    "timer",
    "other",
];

/// Median (mean of the middle two for an even count); 0 when empty.
pub fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `q`-quantile of sorted whole-tick samples, interpolated inside the
/// tick that holds it (a tick `t` covers `[t - 0.5, t + 0.5)`, the
/// grouped-data rule), so the value moves with the sample counts instead of
/// snapping to whole ticks.
pub fn quantile(sorted: &[u64], q: f64) -> f64 {
    let Some(&last) = sorted.last() else {
        return 0.0;
    };
    let rank = q * sorted.len() as f64;
    let v = sorted.get(rank as usize).copied().unwrap_or(last);
    let lo = sorted.partition_point(|&x| x < v);
    let hi = sorted.partition_point(|&x| x <= v);
    v as f64 - 0.5 + (rank - lo as f64).min((hi - lo) as f64) / (hi - lo) as f64
}

/// `num / den`, or 0 when nothing was counted.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set of this process so far in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

impl Run {
    /// The set-up sample with the median total.
    fn median_setup(&self) -> Setup {
        let mut s = self.setups.clone();
        s.sort_by(|a, b| a.total().total_cmp(&b.total()));
        s[s.len() / 2]
    }

    /// End-to-end metrics, from the bare rounds.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let rounds = &self.plain;
        let n = rounds.len();
        let per_round = rounds.first().map_or(0, |r| r.latencies.len());
        let attempted: usize = rounds.iter().map(|r| r.attempted).sum();
        let completed: usize = rounds.iter().map(|r| r.completed).sum();
        let lat = |q: f64| median(rounds.iter().map(|r| quantile(&r.latencies, q)));
        let of_rounds = &format!("median of {n} rounds");
        let lat_n = &format!("{per_round} samples/round, median of {n} rounds");
        let heap = median(rounds.iter().map(|r| r.peak_heap_bytes as f64 / MIB));
        vec![
            metric(
                "ops_per_s",
                median(rounds.iter().map(Round::ops_per_s)),
                "1/s",
                of_rounds,
            ),
            metric("lat_p50_ticks", lat(0.50), "ticks", lat_n),
            metric("lat_p95_ticks", lat(0.95), "ticks", lat_n),
            metric(
                "completed_frac",
                completed as f64 / attempted as f64,
                "ratio",
                &format!("{attempted} attempted"),
            ),
            metric("setup_s", self.median_setup().total(), "s", &self.setup_n()),
            metric("peak_heap_mb", heap, "MiB", of_rounds),
        ]
    }

    fn setup_n(&self) -> String {
        format!("median of {} set-ups", self.setups.len())
    }

    /// Per-layer metrics, from the traced rounds (and the bare rounds they
    /// alternate with, for the tracing overhead and the p99). Metrics of a
    /// layer or message kind the workload lacks read 0.
    pub fn per_layer(&self) -> Vec<Metric> {
        let t = &self.traced;
        let n = t.len();
        let sim = self.substrate == Substrate::Sim;
        let only_sim = |x: f64| if sim { x } else { 0.0 };
        let only_threads = |x: f64| if sim { 0.0 } else { x };
        let traced = &format!("{n} traced rounds");
        let bare = &format!("median of {} bare rounds", self.plain.len());
        let per_round = |x: f64| x / n as f64;

        let mut layers = LayerTrace::default();
        for r in t {
            let lt = r.trace.as_ref().expect("traced round carries probes");
            layers.rt.merge(&lt.rt);
            layers.outer.merge(&lt.outer);
            layers.inner.merge(&lt.inner);
            layers.batch_items += lt.batch_items;
            for (k, v) in &lt.kinds {
                let name = if KINDS.contains(k) { *k } else { "other" };
                layers.kinds.entry(name).or_default().merge(v);
            }
        }
        let sum = |f: &dyn Fn(&Round) -> f64| t.iter().map(f).sum::<f64>();
        let ops = sum(&|r| r.completed as f64);
        let point_ops = sum(&|r| r.point_ops as f64);
        let drive_ns = sum(&|r| r.drive_s * 1e9);
        let events = sum(&|r| r.counts.map_or(0.0, |c| c.0 as f64));
        let msgs = sum(&|r| r.counts.map_or(0.0, |c| c.1 as f64));
        let retx = sum(&|r| r.session.retransmissions as f64);
        let data = sum(&|r| r.session.data_sent as f64);
        let dups = sum(&|r| r.session.dup_suppressed as f64);
        let splits = sum(&|r| r.metrics.splits_initiated as f64);
        let merges = sum(&|r| r.metrics.merges_completed as f64);
        let requested = sum(&|r| r.metrics.merges_requested as f64);
        let declined = sum(&|r| r.metrics.merges_declined as f64);
        let kind = |k: &str| layers.kinds.get(k).copied().unwrap_or_default();
        let split_msgs: u64 = layers
            .kinds
            .iter()
            .filter(|(k, _)| k.starts_with("split."))
            .map(|(_, v)| v.calls)
            .sum();
        let batches = kind("insert.relay-batch").calls as f64;
        let busy: Vec<f64> = t
            .iter()
            .flat_map(|r| {
                let lt = r.trace.as_ref().expect("traced round carries probes");
                lt.busy_ns
                    .iter()
                    .map(move |&b| b as f64 / (r.drive_s * 1e9))
            })
            .collect();
        let p99 = median(self.plain.iter().map(|r| quantile(&r.latencies, 0.99)));
        let plain_ops = median(self.plain.iter().map(Round::ops_per_s));
        let traced_ops = median(t.iter().map(Round::ops_per_s));
        let setup = self.median_setup();

        let rt = layers.rt.total();
        let (outer, inner) = (layers.outer, layers.inner);
        let selfs = SelfTimes::new(sim, drive_ns, &rt, &outer, &inner, self.wrapper_ns);
        let share = |x: f64| ratio(x, selfs.total());
        let sim_allocs = only_sim(rt.allocs.saturating_sub(outer.allocs) as f64);
        let session_allocs = outer.allocs.saturating_sub(inner.allocs) as f64;

        let mut m = vec![
            metric(
                "driver.self_ns_per_op",
                ratio(selfs.driver, ops),
                "ns",
                traced,
            ),
            metric("driver.share", share(selfs.driver), "ratio", traced),
            metric(
                "sim.self_ns_per_event",
                ratio(selfs.sim, events),
                "ns",
                traced,
            ),
            metric("sim.share", share(selfs.sim), "ratio", traced),
            metric("sim.events_per_op", ratio(events, ops), "count", traced),
            metric(
                "sim.allocs_per_event",
                ratio(sim_allocs, events),
                "count",
                traced,
            ),
            metric(
                "session.self_ns_per_delivery",
                ratio(selfs.session, outer.calls as f64),
                "ns",
                traced,
            ),
            metric(
                "session.allocs_per_delivery",
                ratio(session_allocs, outer.calls as f64),
                "count",
                traced,
            ),
            metric("session.share", share(selfs.session), "ratio", traced),
            metric(
                "session.retransmits_per_op",
                ratio(retx, ops),
                "count",
                traced,
            ),
            metric(
                "session.dup_suppressed_per_op",
                ratio(dups, ops),
                "count",
                traced,
            ),
            // A layer that sends nothing wastes nothing.
            metric(
                "session.useful_frac",
                if data == 0.0 {
                    1.0
                } else {
                    data / (data + retx)
                },
                "ratio",
                traced,
            ),
        ];
        for k in KINDS {
            let tally = kind(k);
            let calls = tally.calls as f64;
            let samples = &format!("{} messages", tally.calls);
            m.push(metric(
                &format!("dbproc.ns_per_msg.{k}"),
                ratio(tally.ns as f64, calls),
                "ns",
                samples,
            ));
            m.push(metric(
                &format!("dbproc.msgs_per_op.{k}"),
                ratio(calls, ops),
                "count",
                traced,
            ));
        }
        m.extend([
            metric(
                "dbproc.allocs_per_msg",
                ratio(inner.allocs as f64, inner.calls as f64),
                "count",
                traced,
            ),
            metric("dbproc.share", share(selfs.dbproc), "ratio", traced),
            metric(
                "nav.hops_per_op",
                ratio(sum(&|r| r.hops as f64), point_ops),
                "count",
                traced,
            ),
            metric(
                "nav.chases_per_op",
                ratio(sum(&|r| r.chases as f64), point_ops),
                "count",
                traced,
            ),
            metric("net.msgs_per_op", ratio(msgs, ops), "count", traced),
            metric("split.count", per_round(splits), "count", traced),
            metric(
                "split.msgs_per_split",
                ratio(split_msgs as f64, splits),
                "count",
                traced,
            ),
            metric(
                "relay.items_per_batch",
                ratio(layers.batch_items as f64, batches),
                "count",
                &format!("{batches} batches"),
            ),
            metric("merge.completed", per_round(merges), "count", traced),
            metric(
                "merge.declined_frac",
                ratio(declined, requested),
                "ratio",
                &format!("{requested} requests"),
            ),
            metric(
                "store.live_nodes",
                per_round(sum(&|r| r.live_nodes as f64)),
                "count",
                traced,
            ),
            metric("build.procs_s", setup.procs_s, "s", &self.setup_n()),
            metric("build.runtime_s", setup.runtime_s, "s", &self.setup_n()),
            metric(
                "threaded.poll_wait_ns_per_op",
                only_threads(ratio(layers.rt.poll.ns as f64, ops)),
                "ns",
                traced,
            ),
            metric(
                "threaded.settle_s",
                only_threads(per_round(layers.rt.settle.ns as f64 / 1e9)),
                "s",
                traced,
            ),
            metric(
                "threaded.settle_calls",
                only_threads(per_round(layers.rt.settle.calls as f64)),
                "count",
                traced,
            ),
            metric(
                "threaded.worker_busy_frac",
                only_threads(ratio(busy.iter().sum(), busy.len() as f64)),
                "ratio",
                &format!("{} worker-rounds", busy.len()),
            ),
            metric("threaded.lat_p99_us", only_threads(p99), "us", bare),
            metric("lat.p99_ticks", p99, "ticks", bare),
            metric(
                "check.s",
                median(self.plain.iter().chain(t).map(|r| r.check_s)),
                "s",
                &format!("median of {} rounds", self.plain.len() + n),
            ),
            metric(
                "trace.overhead_frac",
                ratio(plain_ops, traced_ops) - 1.0,
                "ratio",
                &format!("{} bare vs {n} traced rounds", self.plain.len()),
            ),
            metric(
                "trace.wrapper_ns",
                self.wrapper_ns.0,
                "ns",
                "median of 7 loops",
            ),
            metric("mem.peak_rss_mb", peak_rss_mb(), "MiB", "1 process"),
        ]);
        m
    }

    /// How far the traced rounds' self-times plus the calibrated probe cost
    /// are from the traced wall time, as a share of it (simulator only; the
    /// threaded layers run on several threads at once).
    pub fn accounting_error(&self) -> Vec<f64> {
        self.traced
            .iter()
            .map(|r| {
                let lt = r.trace.as_ref().expect("traced round carries probes");
                let drive_ns = r.drive_s * 1e9;
                let rt = lt.rt.total();
                let s = SelfTimes::new(true, drive_ns, &rt, &lt.outer, &lt.inner, self.wrapper_ns);
                let (w_plain, w_kind) = self.wrapper_ns;
                let probes =
                    w_plain * (rt.calls + lt.outer.calls) as f64 + w_kind * lt.inner.calls as f64;
                ((s.total() + probes) - drive_ns).abs() / drive_ns
            })
            .collect()
    }
}

/// Self time of each layer in ns, after subtracting the calibrated cost of
/// the child probes each parent interval contains. Clamped at zero.
struct SelfTimes {
    driver: f64,
    sim: f64,
    threaded: f64,
    session: f64,
    dbproc: f64,
}

impl SelfTimes {
    fn new(
        sim: bool,
        drive_ns: f64,
        rt: &Tally,
        outer: &Tally,
        inner: &Tally,
        (w_plain, w_kind): (f64, f64),
    ) -> Self {
        let f = |ns: u64| ns as f64;
        let runtime = f(rt.ns) - f(outer.ns) - w_plain * outer.calls as f64;
        SelfTimes {
            driver: (drive_ns - f(rt.ns) - w_plain * rt.calls as f64).max(0.0),
            // On threads the handlers run on worker threads, concurrently
            // with the runtime calls made from the driver's thread.
            sim: if sim { runtime.max(0.0) } else { 0.0 },
            threaded: if sim { 0.0 } else { f(rt.ns) },
            session: (f(outer.ns) - f(inner.ns) - w_kind * inner.calls as f64).max(0.0),
            dbproc: f(inner.ns),
        }
    }

    fn total(&self) -> f64 {
        self.driver + self.sim + self.threaded + self.session + self.dbproc
    }
}
