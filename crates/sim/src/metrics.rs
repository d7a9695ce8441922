//! Simulation metrics: counters, gauges and log-bucketed histograms.
//!
//! Experiment E6 ("flooding cost") is a message-accounting experiment: it
//! compares how many per-link transmissions each bootstrap mechanism needs,
//! broken down by message kind. The simulator increments these counters on
//! every hop; protocols can add their own counters, gauge samples, and
//! histogram observations.
//!
//! # Canonical key namespaces
//!
//! This is the one place the metric-name contract is written down; the
//! simulator, the protocol crates, and the `obs` tooling all follow it.
//!
//! | prefix     | written by      | meaning                                          |
//! |------------|-----------------|--------------------------------------------------|
//! | `tx.*`     | simulator       | link-layer transmission outcomes: `tx.total` (every hop handed to the link layer, duplicates included), `tx.dropped` (link loss), `tx.lost_in_flight` (endpoint died / link vanished mid-flight), `tx.dup` (adversarial duplications), `tx.reordered` (bounded-delay reorderings) |
//! | `rx.*`     | simulator, protocols | deliveries to protocols: `rx.total`, and `rx.wasted` — the deliveries whose callback queued no send and no timer (the receiver already knew what the message told it); `rx.notify_known` (written by `SsrNode` and `VrrNode`) — the introductions (notifications naming a third node) delivered to a node that already held the named node as a virtual neighbour; `rx.announce_known` (the same) — the audit announcements delivered to a node that already held their sender |
//! | `msg.*`    | simulator       | per-kind transmission counts from [`crate::Protocol::kind`]; **`counter_sum("msg.")` always equals `tx.total`** (kinds are counted at transmit time, before loss sampling) |
//! | `fault.*`  | simulator       | applied faults: `fault.crash`, `fault.join`, `fault.join_dead_link` (requested link to a down peer), `fault.link_down`, `fault.link_up`, `fault.partition` / `fault.partition_cut` (severed cross-group edges), `fault.heal` / `fault.heal_link` (restored edges) |
//! | `e2e.*`    | protocols       | end-to-end messages, one per message a node originates however many hops it then takes: `e2e.sent` (SSR and ISPRP bump it where the source-routed envelope is made, and the histogram `route.len` takes the route it is sent along; `VrrNode` bumps it where a message along path state or a greedy walk starts, never at a relay) — `tx.total` over `e2e.sent` is the mean physical hops a message pays — split by payload into `e2e.notify` (introductions), `e2e.announce` (audit announcements), `e2e.ack`, `e2e.teardown`, `e2e.discover` (ring-closure answers), `e2e.succ`, `e2e.update` and `e2e.data`, which sum to it; `e2e.delivered` (SSR and ISPRP), those that reached the end of their route, or a data probe's target or a relay that took the probe over before it; and `e2e.retry` (SSR and VRR), the share of them that are handshake re-sends (sent while a retry timer is handled) |
//! | `fwd.*`    | protocols       | the transports' per-hop outcomes: `fwd.shortcut` (an SSR relay drained hops out of the route up to a physical neighbour; a VRR node handed a path message straight to its destination endpoint, a bound physical neighbour, instead of the path's own hop), `fwd.rerouted` (a VRR node whose row for a message's carrier path was gone forwarded it over another row for the same endpoint pair and rewrote the message's path id to that row's), `fwd.spliced` (an SSR relay replaced a stretch of the route by a shorter route from its own cache that a message had travelled), `fwd.redecided` (an SSR relay holding a data probe picked a node strictly closer to its target than the route's end, and routed it on itself), `fwd.refreshed` (an SSR node an envelope reached replaced its cached route to a node the envelope had passed by the shorter way the envelope came), and the drops `fwd.broken`, `fwd.truncated`, `fwd.misrouted`, `fwd.bad_trace`, `fwd.no_route`, `fwd.unexpected`, and VRR's `fwd.no_path` (no path state to forward on) and `fwd.ttl_expired` (a path message ran out of hops) |
//! | `probe.*`  | probe layer     | observer-side counters (e.g. `probe.samples`)    |
//! | `prov.*`   | causal ledger   | provenance totals mirrored from a [`crate::ProvenanceSummary`] when an instrumented run is summarized: counters `prov.roots` (causal roots) and `prov.wasted`, histograms `prov.depth` (causal depth per delivery) and `prov.cascade` (deliveries per root) |
//! | other      | protocols/exps  | protocol- or experiment-specific counters, ideally `"<crate>."`-prefixed |
//!
//! Histogram keys live in their own registry with the same style; the
//! conventional ones are `route.len` (physical hops), `route.stretch_milli`
//! (stretch × 1000, so the log buckets resolve ratios near 1), `state.entries`
//! (per-node state size), and `latency.ticks` (message latency).
//!
//! The machine-readable form of this table lives in [`crate::registry`];
//! the integration test `tests/tests/metric_keys.rs` checks every
//! metric-key literal in the workspace against it, so a new key must be
//! added there (or under an open prefix family like `msg.*`) before it will
//! pass CI. The registry
//! also numbers the counter keys: every enumerated key and every known
//! `msg.<kind>` has a dense [`CounterId`], which is how the simulator's
//! per-hop counters are written without a key search (see [`Metrics`]).

use std::collections::BTreeMap;

use crate::registry::{CounterId, COUNTER_SLOTS};

/// Counter/gauge/histogram registry for one simulation run.
///
/// Keys are static strings so that protocols can use literal message-kind
/// names without allocation. A counter whose key has a [`CounterId`] —
/// every enumerated key of [`crate::registry`] and every known `msg.<kind>`
/// — lives in a slot of a fixed array, reached either by id
/// ([`Metrics::bump`], no key search: the simulator's per-hop path) or by
/// key (the string API looks the id up); any other counter key, and every
/// gauge and histogram, lives in a `BTreeMap`. Reports see one counter per
/// key, in sorted key order, whichever path wrote it.
#[derive(Clone, Debug)]
pub struct Metrics {
    /// Counters with a dense id, by slot.
    slots: [u64; COUNTER_SLOTS],
    /// `written[slot]` — the slot was written at least once (a delta of 0
    /// counts), i.e. its key is listed by [`Metrics::counters`].
    written: [bool; COUNTER_SLOTS],
    /// Counters whose key has no dense id.
    unslotted: BTreeMap<&'static str, u64>,
    /// min/max/sum/count per gauge, enough for mean and extremes.
    gauges: BTreeMap<&'static str, GaugeStats>,
    /// Log-bucketed value distributions.
    hists: BTreeMap<&'static str, Histogram>,
}

/// Aggregate statistics of a sampled gauge.
#[derive(Clone, Copy, Debug)]
pub struct GaugeStats {
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Sum of samples.
    pub sum: f64,
    /// Number of samples.
    pub count: u64,
}

impl GaugeStats {
    const EMPTY: GaugeStats = GaugeStats {
        min: f64::INFINITY,
        max: f64::NEG_INFINITY,
        sum: 0.0,
        count: 0,
    };

    fn observe(&mut self, v: f64) {
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.sum += v;
        self.count += 1;
    }

    /// Mean of the samples.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// Number of buckets in a [`Histogram`]: one for zero plus one per bit
/// length of a `u64`.
pub const HIST_BUCKETS: usize = 65;

/// A log₂-bucketed histogram of `u64` observations.
///
/// Bucket 0 holds the value 0; bucket `i ≥ 1` holds values in
/// `[2^(i-1), 2^i)`. Merging is bucketwise addition, so it is associative
/// and commutative, and percentile estimates are exact up to bucket
/// resolution (the estimate always lands in the same bucket as the
/// nearest-rank exact percentile).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        Histogram {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The bucket index `v` falls into.
    #[inline]
    pub fn bucket_index(v: u64) -> usize {
        (u64::BITS - v.leading_zeros()) as usize
    }

    /// The half-open value range `[lo, hi)` of bucket `i` (bucket 0 is the
    /// degenerate `[0, 1)`).
    pub fn bucket_bounds(i: usize) -> (u64, u64) {
        match i {
            0 => (0, 1),
            64 => (1 << 63, u64::MAX),
            _ => (1 << (i - 1), 1 << i),
        }
    }

    /// Records one observation.
    #[inline]
    pub fn observe(&mut self, v: u64) {
        self.buckets[Self::bucket_index(v)] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest observation (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of the observations.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Nearest-rank percentile estimate for `q` in `[0, 100]`, reported as
    /// the lower bound of the bucket holding the rank (clamped into the
    /// observed `[min, max]` so single-bucket distributions report exact
    /// extremes). `None` when the histogram is empty.
    pub fn percentile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 100.0);
        let rank = ((q / 100.0 * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (lo, _) = Self::bucket_bounds(i);
                return Some(lo.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Merges another histogram into this one (bucketwise).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Non-empty buckets as `(lo, hi, count)` with `[lo, hi)` value bounds.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                let (lo, hi) = Self::bucket_bounds(i);
                (lo, hi, c)
            })
    }
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            slots: [0; COUNTER_SLOTS],
            written: [false; COUNTER_SLOTS],
            unslotted: BTreeMap::new(),
            gauges: BTreeMap::new(),
            hists: BTreeMap::new(),
        }
    }
}

impl Metrics {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the counter with dense id `id`.
    #[inline]
    fn add_slot(&mut self, id: CounterId, delta: u64) {
        self.slots[id.slot()] += delta;
        self.written[id.slot()] = true;
    }

    /// Increments the counter with dense id `id` by one — the same counter
    /// `incr(id.key())` increments, without the key search.
    #[inline]
    pub fn bump(&mut self, id: CounterId) {
        self.add_slot(id, 1);
    }

    /// Adds `delta` to counter `key`.
    #[inline]
    pub fn add(&mut self, key: &'static str, delta: u64) {
        match CounterId::lookup(key) {
            Some(id) => self.add_slot(id, delta),
            None => *self.unslotted.entry(key).or_insert(0) += delta,
        }
    }

    /// Increments counter `key` by one.
    #[inline]
    pub fn incr(&mut self, key: &'static str) {
        self.add(key, 1);
    }

    /// Current value of counter `key` (0 if never touched).
    pub fn counter(&self, key: &str) -> u64 {
        match CounterId::lookup(key) {
            Some(id) => self.slots[id.slot()],
            None => self.unslotted.get(key).copied().unwrap_or(0),
        }
    }

    /// Sum over all counters whose name starts with `prefix` — e.g. all
    /// `"msg."`-prefixed kinds for a total message count.
    pub fn counter_sum(&self, prefix: &str) -> u64 {
        self.counters()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| v)
            .sum()
    }

    /// Records one sample of gauge `key`.
    pub fn observe(&mut self, key: &'static str, value: f64) {
        self.gauges
            .entry(key)
            .or_insert(GaugeStats::EMPTY)
            .observe(value);
    }

    /// Statistics of gauge `key`, if any samples were recorded.
    pub fn gauge(&self, key: &str) -> Option<GaugeStats> {
        self.gauges.get(key).copied()
    }

    /// Records one histogram observation under `key`.
    #[inline]
    pub fn observe_hist(&mut self, key: &'static str, value: u64) {
        self.hists.entry(key).or_default().observe(value);
    }

    /// Merges a pre-aggregated histogram into the one under `key` — used
    /// when a subsystem (e.g. the causal ledger) maintains its own
    /// [`Histogram`] and mirrors it into the registry at summary time.
    pub fn merge_hist(&mut self, key: &'static str, h: &Histogram) {
        self.hists.entry(key).or_default().merge(h);
    }

    /// The histogram under `key`, if any observations were recorded.
    pub fn hist(&self, key: &str) -> Option<&Histogram> {
        self.hists.get(key)
    }

    /// All histograms in sorted key order.
    pub fn hists(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        self.hists.iter().map(|(&k, v)| (k, v))
    }

    /// All counters ever written, in sorted key order: the written slots
    /// (walked in key order) merged with the unslotted map. The two key
    /// sets are disjoint, so this is one entry per key.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        let mut slotted = CounterId::all_sorted()
            .filter(|id| self.written[id.slot()])
            .map(|id| (id.key(), self.slots[id.slot()]))
            .peekable();
        let mut unslotted = self.unslotted.iter().map(|(&k, &v)| (k, v)).peekable();
        std::iter::from_fn(move || match (slotted.peek(), unslotted.peek()) {
            (Some(a), Some(b)) if a.0 < b.0 => slotted.next(),
            (Some(_), None) => slotted.next(),
            _ => unslotted.next(),
        })
    }

    /// All gauges in sorted key order.
    pub fn gauges(&self) -> impl Iterator<Item = (&'static str, GaugeStats)> + '_ {
        self.gauges.iter().map(|(&k, &v)| (k, v))
    }

    /// Merges another registry into this one (used when aggregating
    /// repeated runs): counters and histogram buckets add, gauges combine.
    pub fn merge(&mut self, other: &Metrics) {
        for slot in 0..COUNTER_SLOTS {
            self.slots[slot] += other.slots[slot];
            self.written[slot] |= other.written[slot];
        }
        for (k, v) in &other.unslotted {
            *self.unslotted.entry(k).or_insert(0) += v;
        }
        for (k, g) in &other.gauges {
            let e = self.gauges.entry(k).or_insert(GaugeStats::EMPTY);
            e.min = e.min.min(g.min);
            e.max = e.max.max(g.max);
            e.sum += g.sum;
            e.count += g.count;
        }
        for (k, h) in &other.hists {
            self.hists.entry(k).or_default().merge(h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry;
    use proptest::prelude::*;

    /// The counter store `Metrics` had before counters got dense ids —
    /// every key in one `BTreeMap` — kept as the reference model for
    /// `counters_match_reference_map`.
    #[derive(Clone, Default)]
    struct ReferenceMap {
        counters: BTreeMap<&'static str, u64>,
    }

    impl ReferenceMap {
        fn add(&mut self, key: &'static str, delta: u64) {
            *self.counters.entry(key).or_insert(0) += delta;
        }

        fn counter(&self, key: &str) -> u64 {
            self.counters.get(key).copied().unwrap_or(0)
        }

        fn counter_sum(&self, prefix: &str) -> u64 {
            self.counters
                .iter()
                .filter(|(k, _)| k.starts_with(prefix))
                .map(|(_, v)| v)
                .sum()
        }

        fn counters(&self) -> Vec<(&'static str, u64)> {
            self.counters.iter().map(|(&k, &v)| (k, v)).collect()
        }

        fn merge(&mut self, other: &ReferenceMap) {
            for (k, v) in &other.counters {
                *self.counters.entry(k).or_insert(0) += v;
            }
        }
    }

    /// Keys the model test draws from: enumerated keys on both sides of
    /// the `msg.` family, known and unknown kinds, unregistered keys that
    /// sort before, inside and after the slotted ranges, and near misses.
    const POOL: &[&str] = &[
        "chaos.potential",
        "fault.crash",
        "fwd.unexpected",
        "probe.delivered",
        "rx.total",
        "rx.wasted",
        "tx.total",
        "tx.dup",
        "msg.ack",
        "msg.notify",
        "msg.other",
        "msg.update",
        "msg.aaa",
        "msg.unheard_of",
        "msg.zzz",
        "msg",
        "alpha",
        "mid.key",
        "tx.totall",
        "zeta",
    ];

    fn assert_same(m: &Metrics, model: &ReferenceMap) -> Result<(), TestCaseError> {
        prop_assert_eq!(m.counters().collect::<Vec<_>>(), model.counters());
        for key in POOL {
            prop_assert_eq!(m.counter(key), model.counter(key), "counter({})", key);
        }
        Ok(())
    }

    proptest! {
        /// `Metrics` and the reference map give the same answer to every
        /// query after every random sequence of writes by key, writes by
        /// id, zero deltas and merges — so whoever reads
        /// counters (`obs`, manifests, probes, `benchmark/`) cannot tell
        /// which store they came from.
        #[test]
        fn counters_match_reference_map(
            ops in proptest::collection::vec((0u8..7, 0usize..POOL.len(), 0u64..4), 1..120)
        ) {
            let (mut main, mut main_model) = (Metrics::new(), ReferenceMap::default());
            let (mut side, mut side_model) = (Metrics::new(), ReferenceMap::default());
            for &(op, pick, delta) in &ops {
                let key = POOL[pick];
                match op {
                    // delta 0 lists the key without moving it
                    0 | 1 => {
                        main.add(key, delta);
                        main_model.add(key, delta);
                    }
                    2 => {
                        main.incr(key);
                        main_model.add(key, 1);
                    }
                    // by id where the key has one, as the simulator does
                    3 | 4 => {
                        let (m, model) = if op == 3 {
                            (&mut main, &mut main_model)
                        } else {
                            (&mut side, &mut side_model)
                        };
                        match CounterId::lookup(key) {
                            Some(id) => m.bump(id),
                            None => m.incr(key),
                        }
                        model.add(key, 1);
                    }
                    5 => {
                        side.add(key, delta);
                        side_model.add(key, delta);
                    }
                    _ => {
                        main.merge(&side);
                        main_model.merge(&side_model);
                    }
                }
                assert_same(&main, &main_model)?;
                assert_same(&side, &side_model)?;
            }
            for key in POOL {
                for end in 0..=key.len() {
                    let prefix = &key[..end];
                    prop_assert_eq!(
                        main.counter_sum(prefix),
                        main_model.counter_sum(prefix),
                        "counter_sum({:?})", prefix
                    );
                }
            }
        }
    }

    /// A kind the simulator has no slot for is counted under `msg.other`;
    /// the same kind written by key keeps its own (unslotted) counter, and
    /// both are under the `msg.` sum.
    #[test]
    fn ids_and_keys_share_one_counter_per_key() {
        let mut m = Metrics::new();
        m.bump(CounterId::of_kind("notify"));
        m.incr("msg.notify");
        m.bump(CounterId::of_kind("unheard_of"));
        m.incr("msg.unheard_of");
        m.bump(CounterId::TX_TOTAL);
        m.add("tx.total", 2);
        assert_eq!(
            m.counters().collect::<Vec<_>>(),
            vec![
                ("msg.notify", 2),
                ("msg.other", 1),
                ("msg.unheard_of", 1),
                ("tx.total", 3)
            ]
        );
        assert_eq!(m.counter_sum("msg."), 4);
        assert!(registry::is_canonical_key("msg.unheard_of"));
    }

    #[test]
    fn counters_accumulate() {
        let mut m = Metrics::new();
        m.incr("msg.notify");
        m.add("msg.notify", 4);
        m.incr("msg.ack");
        assert_eq!(m.counter("msg.notify"), 5);
        assert_eq!(m.counter("msg.ack"), 1);
        assert_eq!(m.counter("missing"), 0);
    }

    #[test]
    fn prefix_sum() {
        let mut m = Metrics::new();
        m.add("msg.a", 2);
        m.add("msg.b", 3);
        m.add("other", 100);
        assert_eq!(m.counter_sum("msg."), 5);
    }

    #[test]
    fn gauges_track_min_max_mean() {
        let mut m = Metrics::new();
        for v in [1.0, 2.0, 3.0] {
            m.observe("state", v);
        }
        let g = m.gauge("state").unwrap();
        assert_eq!(g.min, 1.0);
        assert_eq!(g.max, 3.0);
        assert!((g.mean() - 2.0).abs() < 1e-12);
        assert!(m.gauge("missing").is_none());
    }

    #[test]
    fn merge_combines() {
        let mut a = Metrics::new();
        a.add("msg.x", 1);
        a.observe("g", 1.0);
        a.observe_hist("h", 4);
        let mut b = Metrics::new();
        b.add("msg.x", 2);
        b.observe("g", 5.0);
        b.observe_hist("h", 900);
        a.merge(&b);
        assert_eq!(a.counter("msg.x"), 3);
        let g = a.gauge("g").unwrap();
        assert_eq!(g.count, 2);
        assert_eq!(g.max, 5.0);
        let h = a.hist("h").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), Some(900));
    }

    #[test]
    fn iteration_is_sorted() {
        let mut m = Metrics::new();
        m.incr("zeta");
        m.incr("alpha");
        let keys: Vec<&str> = m.counters().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["alpha", "zeta"]);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        for i in 0..HIST_BUCKETS {
            let (lo, hi) = Histogram::bucket_bounds(i);
            assert!(lo < hi.max(1));
            assert_eq!(Histogram::bucket_index(lo), i);
        }
    }

    #[test]
    fn histogram_stats_and_percentiles() {
        let mut h = Histogram::new();
        assert!(h.percentile(50.0).is_none());
        for v in [1u64, 2, 3, 4, 100] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(100));
        assert!((h.mean() - 22.0).abs() < 1e-12);
        // ranks: p50 → 3rd smallest = 3, bucket [2,4) → lower bound 2
        assert_eq!(h.percentile(50.0), Some(2));
        // p100 → 100, bucket [64,128) → lower bound 64
        assert_eq!(h.percentile(100.0), Some(64));
        // p0 clamps to rank 1 → value 1
        assert_eq!(h.percentile(0.0), Some(1));
    }

    #[test]
    fn histogram_merge_matches_bulk() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut all = Histogram::new();
        for v in 0..100u64 {
            if v % 2 == 0 {
                a.observe(v * v);
            } else {
                b.observe(v * v);
            }
            all.observe(v * v);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged, all);
    }
}
