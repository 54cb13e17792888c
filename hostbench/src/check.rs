//! Post-run correctness checks, run outside every timed region.
//!
//! The checks read the final processor states through
//! [`GlobalView::from_procs`], so they apply unchanged to the simulator and
//! the threaded runtime, traced or not. Writes are last-writer-wins on
//! per-processor stamps, so a key that the workload both inserts and
//! deletes may legitimately end either way; such a key is held only to the
//! value rules, never to presence or absence.

use std::collections::{BTreeSet, HashSet};

use dbtree::{DbProc, GlobalView, Intent, Key, NodeId, OpRecord, Value};
use simnet::driver::Submission;
use simnet::ProcId;

use crate::inputs::{insert_value, Workload};

/// A completed scan: start key, limit and the collected entries.
pub type ScanDone = (Key, u32, Vec<(Key, Value)>);

/// What the workload's inputs allow the final tree to hold.
pub struct Oracle {
    preload: HashSet<Key>,
    insert_targets: HashSet<Key>,
    delete_targets: HashSet<Key>,
}

impl Oracle {
    pub fn new(w: &Workload) -> Self {
        let mut insert_targets = HashSet::new();
        let mut delete_targets = HashSet::new();
        for item in &w.items {
            if let Submission::Op(op) = item {
                match op.intent {
                    Intent::Insert(_) => insert_targets.insert(op.key),
                    Intent::Delete => delete_targets.insert(op.key),
                    Intent::Search => false,
                };
            }
        }
        Oracle {
            preload: w.preload.iter().copied().collect(),
            insert_targets,
            delete_targets,
        }
    }

    /// `value` is one some write could have left at `key`.
    fn value_ok(&self, key: Key, value: Value) -> bool {
        (value == key && self.preload.contains(&key))
            || (value == insert_value(key) && self.insert_targets.contains(&key))
    }

    /// `key` holds a value at every moment of the run.
    fn always_present(&self, key: Key) -> bool {
        self.preload.contains(&key) && !self.delete_targets.contains(&key)
    }

    /// Check the final tree against the completed operations and scans;
    /// returns one line per violation.
    pub fn check<'a>(
        &self,
        procs: impl IntoIterator<Item = (ProcId, &'a DbProc)>,
        records: &[OpRecord],
        scans: &[ScanDone],
    ) -> Vec<String> {
        let view = GlobalView::from_procs(procs);
        let mut out = Vec::new();
        self.check_outcomes(records, scans, &mut out);
        check_convergence(&view, &mut out);
        check_leaf_chain(&view, &mut out);
        self.check_contents(&view, records, &mut out);
        out
    }

    /// Every value an operation or scan reported is one the workload could
    /// have written, and no always-present key was reported missing.
    fn check_outcomes(&self, records: &[OpRecord], scans: &[ScanDone], out: &mut Vec<String>) {
        for r in records {
            let key = r.op.key;
            match r.outcome.found {
                Some(v) if !self.value_ok(key, v) => {
                    out.push(format!("op {} on key {key} saw foreign value {v}", r.id));
                }
                None if r.op.intent == Intent::Search && self.always_present(key) => {
                    out.push(format!("search {} missed always-present key {key}", r.id));
                }
                _ => {}
            }
        }
        for (from, limit, items) in scans {
            if items.len() > *limit as usize {
                out.push(format!(
                    "scan from {from} returned {} > {limit}",
                    items.len()
                ));
            }
            let mut prev: Option<Key> = None;
            for &(k, v) in items {
                if k < *from || prev.is_some_and(|p| p >= k) {
                    out.push(format!("scan from {from} out of order at key {k}"));
                }
                if !self.value_ok(k, v) {
                    out.push(format!("scan from {from} saw foreign value {v} at key {k}"));
                }
                prev = Some(k);
            }
        }
    }

    /// Keys the completed writes determine are found (or not) by root
    /// navigation, and every live leaf entry is one the workload wrote.
    fn check_contents(&self, view: &GlobalView<'_>, records: &[OpRecord], out: &mut Vec<String>) {
        let mut present: BTreeSet<Key> = self
            .preload
            .iter()
            .copied()
            .filter(|k| !self.delete_targets.contains(k))
            .collect();
        let mut absent = BTreeSet::new();
        for r in records {
            let key = r.op.key;
            match r.op.intent {
                Intent::Insert(_) if !self.delete_targets.contains(&key) => {
                    present.insert(key);
                }
                Intent::Delete if !self.insert_targets.contains(&key) => {
                    absent.insert(key);
                }
                _ => {}
            }
        }
        for &key in &present {
            match view.find(key) {
                None => out.push(format!("key {key} lost")),
                Some(v) if !self.value_ok(key, v) => {
                    out.push(format!("key {key} holds foreign value {v}"));
                }
                Some(_) => {}
            }
        }
        for &key in &absent {
            if view.find(key).is_some() {
                out.push(format!("deleted key {key} still visible"));
            }
        }
        for node in view.copies.keys() {
            let Some(leaf) = view.authoritative(*node).filter(|c| c.is_leaf()) else {
                continue;
            };
            for (&k, e) in &leaf.entries {
                let in_range = k >= leaf.range.low && leaf.range.high.is_none_or(|h| k < h);
                match e.value() {
                    Some(v) if in_range && !self.value_ok(k, v) => {
                        out.push(format!("leaf {node:?} holds foreign {k} = {v}"));
                    }
                    _ => {}
                }
            }
        }
    }
}

/// Every copy of a replicated node ends with the same digest.
fn check_convergence(view: &GlobalView<'_>, out: &mut Vec<String>) {
    for (node, list) in &view.copies {
        let digests: BTreeSet<u64> = list.iter().map(|(_, c)| c.digest()).collect();
        if digests.len() > 1 {
            out.push(format!("node {node:?} diverged across copies: {digests:?}"));
        }
    }
}

/// The leaves tile `[0, +inf)` and each right link names the successor.
fn check_leaf_chain(view: &GlobalView<'_>, out: &mut Vec<String>) {
    let mut leaves: Vec<(NodeId, Key, Option<Key>, Option<NodeId>)> = view
        .copies
        .keys()
        .filter_map(|n| view.authoritative(*n))
        .filter(|c| c.is_leaf())
        .map(|c| (c.id, c.range.low, c.range.high, c.right.map(|l| l.node)))
        .collect();
    leaves.sort_by_key(|l| l.1);
    let (Some(first), Some(last)) = (leaves.first(), leaves.last()) else {
        out.push("no leaves".into());
        return;
    };
    if first.1 != 0 {
        out.push(format!("leaf chain starts at {}", first.1));
    }
    if last.2.is_some() {
        out.push("leaf chain does not end at +inf".into());
    }
    for w in leaves.windows(2) {
        if w[0].2 != Some(w[1].1) || w[0].3 != Some(w[1].0) {
            out.push(format!(
                "leaf {:?} (high {:?}, right {:?}) is not followed by {:?} (low {})",
                w[0].0, w[0].2, w[0].3, w[1].0, w[1].1
            ));
        }
    }
}
