//! The three workloads: deployment, network and client inputs, all a pure
//! function of the workload name and the seed.

use std::sync::OnceLock;

use dbtree::{
    BuildSpec, ClientOp, DbSubmission, Intent, Key, PiggybackCfg, ProtocolKind, ScanSpec,
    TreeConfig,
};
use simnet::driver::Submission;
use simnet::{FaultPlan, ProcId, SessionConfig, SimConfig};
use workload::{KeyDist, Mix, OpKind, WorkloadGen, Zipf};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["sim-scale-read", "sim-churn-lossy", "thr-mixed"];

/// Which runtime executes the processes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Substrate {
    /// The deterministic discrete-event simulator.
    Sim,
    /// One OS thread per processor.
    Threads,
}

/// Everything one round of a workload needs.
pub struct Workload {
    pub substrate: Substrate,
    pub spec: BuildSpec,
    pub sim: SimConfig,
    pub session: SessionConfig,
    /// Client operations of one round, in submission order per origin.
    pub items: Vec<DbSubmission>,
    /// Closed-loop window: operations in flight per origin processor.
    pub window: usize,
    /// Preloaded keys (each stored with value = key).
    pub preload: Vec<Key>,
}

/// Entries a scan collects at most.
const SCAN_LIMIT: u32 = 20;

/// The value the workload generator attaches to an insert of `key`.
pub fn insert_value(key: Key) -> u64 {
    key.wrapping_mul(31).wrapping_add(7)
}

/// Fibonacci scatter, the bijection `KeyDist::Zipfian` applies to ranks.
fn scatter(rank: u64) -> Key {
    rank.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

fn to_item(op: &workload::Op) -> DbSubmission {
    let origin = ProcId(op.origin);
    let intent = match op.kind {
        OpKind::Search => Intent::Search,
        OpKind::Insert => Intent::Insert(op.value),
        OpKind::Delete => Intent::Delete,
        OpKind::Scan => {
            return Submission::Scan(ScanSpec {
                origin,
                from: op.key,
                limit: SCAN_LIMIT,
            })
        }
    };
    Submission::Op(ClientOp {
        origin,
        key: op.key,
        intent,
    })
}

impl Workload {
    /// Build the named workload for `seed`; `None` for an unknown name.
    pub fn new(name: &str, seed: u64) -> Option<Workload> {
        let w = match name {
            // P = 1024, path replication, 100k preloaded keys. Zipf(0.99)
            // ranks over 1M keys, scattered; ranks below 100k are the
            // preloaded keys, so most searches hit. Clean network, no
            // service time, pass-through session layer.
            "sim-scale-read" => {
                let procs = 1024;
                let preload: Vec<Key> = (0..100_000).map(scatter).collect();
                // Built once per process: every round draws from it.
                static ZIPF: OnceLock<Zipf> = OnceLock::new();
                let dist = KeyDist::Zipfian {
                    zipf: ZIPF.get_or_init(|| Zipf::new(1_000_000, 0.99)).clone(),
                    scatter: true,
                };
                Workload {
                    substrate: Substrate::Sim,
                    spec: BuildSpec::new(preload.clone(), procs, tree(TreeConfig::default())),
                    sim: SimConfig::seeded(seed),
                    session: SessionConfig::default(),
                    items: ops(dist, Mix::READ_HEAVY, procs, seed, 100_000),
                    window: 8,
                    preload,
                }
            }
            // P = 16, three copies of every node, piggybacked relays and
            // merge-at-empty. 500 preloaded keys in a 5000-key window under
            // insert/delete churn, on a network that drops 3% and
            // duplicates 1% of messages, under the reliable session layer.
            "sim-churn-lossy" => {
                let procs = 16;
                let preload: Vec<Key> = (0..500).map(|i| i * 10).collect();
                let cfg = TreeConfig {
                    fanout: 8,
                    piggyback: Some(PiggybackCfg::default()),
                    merge_at_empty: true,
                    ..TreeConfig::fixed_copies(ProtocolKind::SemiSync, 3)
                };
                let mix = Mix {
                    search_fraction: 0.10,
                    delete_fraction: 0.50,
                    scan_fraction: 0.05,
                };
                Workload {
                    substrate: Substrate::Sim,
                    spec: BuildSpec::new(preload.clone(), procs, tree(cfg)),
                    sim: SimConfig {
                        service_time: 2,
                        faults: FaultPlan {
                            drop_prob: 0.03,
                            dup_prob: 0.01,
                            ..FaultPlan::default()
                        },
                        ..SimConfig::seeded(seed)
                    },
                    session: SessionConfig::reliable(),
                    items: ops(KeyDist::Uniform { n: 5_000 }, mix, procs, seed, 10_000),
                    window: 4,
                    preload,
                }
            }
            // Two worker threads, two copies of every node, uniform keys.
            "thr-mixed" => {
                let procs = 2;
                let preload: Vec<Key> = (0..2_000).map(|i| i * 100).collect();
                let mix = Mix {
                    search_fraction: 0.5,
                    ..Mix::INSERT_ONLY
                };
                Workload {
                    substrate: Substrate::Threads,
                    spec: BuildSpec::new(
                        preload.clone(),
                        procs,
                        tree(TreeConfig::fixed_copies(ProtocolKind::SemiSync, 2)),
                    ),
                    sim: SimConfig::seeded(seed),
                    session: SessionConfig::default(),
                    items: ops(KeyDist::Uniform { n: 200_000 }, mix, procs, seed, 100_000),
                    window: 2,
                    preload,
                }
            }
            _ => return None,
        };
        Some(w)
    }
}

/// The benchmark measures the protocol, not the history recorder.
fn tree(cfg: TreeConfig) -> TreeConfig {
    TreeConfig {
        record_history: false,
        ..cfg
    }
}

fn ops(dist: KeyDist, mix: Mix, procs: u32, seed: u64, n: usize) -> Vec<DbSubmission> {
    WorkloadGen::new(dist, mix, procs, seed)
        .batch(n)
        .iter()
        .map(to_item)
        .collect()
}
