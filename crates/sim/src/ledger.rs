//! The causal ledger: per-cause × per-kind message accounting over the
//! provenance lineage (see `docs/PROFILING.md` for the model).
//!
//! A [`CausalLedger`] is attached to a [`crate::Simulator`] built via
//! `Simulator::instrumented`; the default constructors leave it off, and
//! the disabled path allocates nothing and touches no RNG, so an
//! instrumented run is byte-identical to an uninstrumented one in every
//! other observable (traces, metrics other than the `prov.*` family,
//! convergence ticks).
//!
//! The ledger aggregates along three axes:
//!
//! * **cause class × message kind** — sent/delivered/wasted counts, the
//!   attribution `obs top` ranks;
//! * **causal depth** — log₂-bucketed per-cause histograms plus the
//!   3-way (cause, kind, depth-bucket) cells `obs flame` folds into
//!   flamegraph stacks;
//! * **lineage shape** — root counts and per-root descendant ("cascade")
//!   sizes, the quantity the paper's bounded-cascade claim is about.

use std::collections::BTreeMap;

use crate::event::{CauseClass, Provenance};
use crate::metrics::{Histogram, Metrics};

/// Sent/delivered/wasted counts for one (cause, kind) cell.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KindStats {
    /// Link-layer transmissions: pre-loss, duplicates included — sums to
    /// `tx.total` across all cells.
    pub sent: u64,
    /// Deliveries into a protocol callback — sums to `rx.total`.
    pub delivered: u64,
    /// Deliveries whose callback queued no onward actions — sums to
    /// `rx.wasted`.
    pub wasted: u64,
}

/// Per-node message tallies.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeTally {
    /// Transmissions originated by this node.
    pub sent: u64,
    /// Deliveries to this node.
    pub received: u64,
    /// Deliveries to this node that queued no onward actions.
    pub wasted: u64,
}

/// Aggregates causal-provenance statistics for one instrumented run.
///
/// All interior maps are `BTreeMap`s keyed by `Copy` data, so iteration
/// order — and therefore every serialization downstream — is
/// deterministic. The ledger never samples the simulator RNG.
#[derive(Clone, Debug, Default)]
pub struct CausalLedger {
    messages: BTreeMap<(CauseClass, &'static str), KindStats>,
    /// (cause, kind, log₂ depth-bucket index) → delivered count: the
    /// exact aggregation `obs flame` folds into stack lines.
    flame: BTreeMap<(CauseClass, &'static str, usize), u64>,
    depth: BTreeMap<CauseClass, Histogram>,
    nodes: Vec<NodeTally>,
    /// Root event id → processed-descendant count.
    cascades: BTreeMap<u64, u64>,
    roots: u64,
}

impl CausalLedger {
    /// An empty ledger for an `n`-node simulation.
    pub fn new(n: usize) -> Self {
        CausalLedger {
            nodes: vec![NodeTally::default(); n],
            ..Default::default()
        }
    }

    /// Records an event popped from the queue: roots open a cascade,
    /// descendants grow their root's cascade.
    pub(crate) fn record_event(&mut self, prov: &Provenance) {
        if prov.depth == 0 {
            self.roots += 1;
            self.cascades.entry(prov.root).or_insert(0);
        } else {
            *self.cascades.entry(prov.root).or_insert(0) += 1;
        }
    }

    /// Records a link-layer transmission (called per copy, before loss).
    pub(crate) fn record_send(&mut self, cause: CauseClass, kind: &'static str, from: usize) {
        self.messages.entry((cause, kind)).or_default().sent += 1;
        self.nodes[from].sent += 1;
    }

    /// Records a delivery into a protocol callback.
    pub(crate) fn record_delivery(
        &mut self,
        cause: CauseClass,
        kind: &'static str,
        dst: usize,
        depth: u32,
    ) {
        self.messages.entry((cause, kind)).or_default().delivered += 1;
        *self
            .flame
            .entry((cause, kind, Histogram::bucket_index(u64::from(depth))))
            .or_insert(0) += 1;
        self.depth
            .entry(cause)
            .or_default()
            .observe(u64::from(depth));
        self.nodes[dst].received += 1;
    }

    /// Tags the preceding delivery as wasted work: its callback queued
    /// zero onward actions.
    pub(crate) fn record_wasted(&mut self, cause: CauseClass, kind: &'static str, dst: usize) {
        self.messages.entry((cause, kind)).or_default().wasted += 1;
        self.nodes[dst].wasted += 1;
    }

    /// A deterministic, mergeable snapshot for manifests and benchmarks.
    ///
    /// Per-root cascade counts are folded into a size histogram here:
    /// root event ids are only dense *within* a run, so summaries from
    /// different runs can merge without id collisions.
    pub fn summary(&self) -> ProvenanceSummary {
        let mut cascade_sizes = Histogram::new();
        for &size in self.cascades.values() {
            cascade_sizes.observe(size);
        }
        ProvenanceSummary {
            roots: self.roots,
            messages: self
                .messages
                .iter()
                .map(|(&(cause, kind), &stats)| ((cause.label(), kind), stats))
                .collect(),
            flame: self
                .flame
                .iter()
                .map(|(&(cause, kind, bucket), &count)| {
                    (
                        (cause.label(), kind, Histogram::bucket_bounds(bucket).0),
                        count,
                    )
                })
                .collect(),
            depth: self
                .depth
                .iter()
                .map(|(&cause, hist)| (cause.label(), hist.clone()))
                .collect(),
            cascade_sizes,
            nodes: self.nodes.clone(),
        }
    }
}

/// A deterministic, mergeable snapshot of a [`CausalLedger`] — what
/// manifests record and `exp_chaos` aggregates across runs.
///
/// Cause classes appear as their stable labels so the snapshot is
/// self-describing once serialized.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProvenanceSummary {
    /// Number of root events (bootstrap actions and scheduled faults).
    pub roots: u64,
    /// (cause label, message kind) → stats.
    pub messages: BTreeMap<(&'static str, &'static str), KindStats>,
    /// (cause label, message kind, depth-bucket lower bound) → delivered
    /// count.
    pub flame: BTreeMap<(&'static str, &'static str, u64), u64>,
    /// Per-cause causal-depth histograms (log₂-bucketed).
    pub depth: BTreeMap<&'static str, Histogram>,
    /// Distribution of cascade sizes: processed descendants per root.
    pub cascade_sizes: Histogram,
    /// Per-node tallies, indexed by node.
    pub nodes: Vec<NodeTally>,
}

impl ProvenanceSummary {
    /// Total deliveries attributed across all (cause, kind) cells.
    pub fn delivered(&self) -> u64 {
        self.messages.values().map(|s| s.delivered).sum()
    }

    /// Total deliveries tagged as wasted work.
    pub fn wasted(&self) -> u64 {
        self.messages.values().map(|s| s.wasted).sum()
    }

    /// Total link-layer transmissions attributed.
    pub fn sent(&self) -> u64 {
        self.messages.values().map(|s| s.sent).sum()
    }

    /// Folds `other` into `self`, cell-wise.
    pub fn merge(&mut self, other: &ProvenanceSummary) {
        self.roots += other.roots;
        for (key, stats) in &other.messages {
            let cell = self.messages.entry(*key).or_default();
            cell.sent += stats.sent;
            cell.delivered += stats.delivered;
            cell.wasted += stats.wasted;
        }
        for (key, count) in &other.flame {
            *self.flame.entry(*key).or_insert(0) += count;
        }
        for (cause, hist) in &other.depth {
            self.depth.entry(cause).or_default().merge(hist);
        }
        self.cascade_sizes.merge(&other.cascade_sizes);
        if self.nodes.len() < other.nodes.len() {
            self.nodes.resize(other.nodes.len(), NodeTally::default());
        }
        for (mine, theirs) in self.nodes.iter_mut().zip(&other.nodes) {
            mine.sent += theirs.sent;
            mine.received += theirs.received;
            mine.wasted += theirs.wasted;
        }
    }

    /// Mirrors the ledger aggregates into the canonical metrics registry
    /// (the `prov.*` family), so manifests and `obs summarize` pick them
    /// up without schema-specific handling.
    pub fn record_metrics(&self, metrics: &mut Metrics) {
        metrics.add("prov.roots", self.roots);
        metrics.add("prov.wasted", self.wasted());
        for hist in self.depth.values() {
            metrics.merge_hist("prov.depth", hist);
        }
        metrics.merge_hist("prov.cascade", &self.cascade_sizes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Provenance;

    fn sample() -> CausalLedger {
        let mut ledger = CausalLedger::new(3);
        let root = Provenance::root(1, CauseClass::Bootstrap);
        let child = Provenance::child(&root, 2, CauseClass::Bootstrap);
        ledger.record_event(&root);
        ledger.record_send(CauseClass::Bootstrap, "hello", 0);
        ledger.record_event(&child);
        ledger.record_delivery(CauseClass::Bootstrap, "hello", 1, child.depth);
        ledger.record_wasted(CauseClass::Bootstrap, "hello", 1);
        ledger
    }

    #[test]
    fn ledger_counts_and_summary_totals_agree() {
        let summary = sample().summary();
        assert_eq!(summary.roots, 1);
        assert_eq!(summary.sent(), 1);
        assert_eq!(summary.delivered(), 1);
        assert_eq!(summary.wasted(), 1);
        assert_eq!(summary.nodes[0].sent, 1);
        assert_eq!(summary.nodes[1].received, 1);
        assert_eq!(summary.nodes[1].wasted, 1);
        // one cascade with exactly one descendant
        assert_eq!(summary.cascade_sizes.count(), 1);
        assert_eq!(summary.cascade_sizes.max(), Some(1));
        // the flame cell keys by depth-bucket lower bound
        assert_eq!(
            summary.flame.get(&("bootstrap", "hello", 1)).copied(),
            Some(1)
        );
    }

    #[test]
    fn merge_is_cell_wise_addition() {
        let a = sample().summary();
        let mut twice = a.clone();
        twice.merge(&a);
        assert_eq!(twice.roots, 2);
        assert_eq!(twice.delivered(), 2);
        assert_eq!(twice.wasted(), 2);
        assert_eq!(twice.messages.get(&("bootstrap", "hello")).unwrap().sent, 2);
        assert_eq!(twice.cascade_sizes.count(), 2);
        assert_eq!(twice.nodes[1].received, 2);
    }

    #[test]
    fn summary_metrics_land_under_the_prov_family() {
        let summary = sample().summary();
        let mut metrics = Metrics::default();
        summary.record_metrics(&mut metrics);
        assert_eq!(metrics.counter("prov.roots"), 1);
        assert_eq!(metrics.counter("prov.wasted"), 1);
        assert_eq!(metrics.hist("prov.depth").unwrap().count(), 1);
        assert_eq!(metrics.hist("prov.cascade").unwrap().count(), 1);
    }
}
