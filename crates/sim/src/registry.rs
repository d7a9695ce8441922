//! The canonical metric-name registry.
//!
//! The [`crate::metrics`] module documents the key namespaces in prose; this
//! module is the same contract in machine-readable form, so tooling can
//! check conformance. The integration test `tests/tests/metric_keys.rs`
//! resolves every string literal passed to a counter/gauge/histogram API
//! against this table: a typo'd key fails CI instead of silently forking a
//! new series that no dashboard or `obs` report ever aggregates.
//!
//! Adding a metric is a two-step change by design: register the key here
//! (with the namespace docs in [`crate::metrics`] when it opens a new
//! family), then use it. The registry tests keep the table sorted and
//! well-formed.

/// Every canonical counter and gauge key, sorted.
///
/// Counters and gauges share one namespace (a key is only ever used as one
/// of the two); histogram keys live in [`HISTOGRAMS`].
pub const KEYS: &[&str] = &[
    "chaos.potential",
    "e2e.ack",
    "e2e.announce",
    "e2e.data",
    "e2e.delivered",
    "e2e.discover",
    "e2e.notify",
    "e2e.retry",
    "e2e.sent",
    "e2e.succ",
    "e2e.teardown",
    "e2e.update",
    "fault.crash",
    "fault.heal",
    "fault.heal_link",
    "fault.join",
    "fault.join_dead_link",
    "fault.link_down",
    "fault.link_up",
    "fault.partition",
    "fault.partition_cut",
    "fwd.bad_trace",
    "fwd.broken",
    "fwd.misrouted",
    "fwd.no_path",
    "fwd.no_route",
    "fwd.redecided",
    "fwd.refreshed",
    "fwd.rerouted",
    "fwd.shortcut",
    "fwd.spliced",
    "fwd.truncated",
    "fwd.ttl_expired",
    "fwd.unexpected",
    "probe.delivered",
    "probe.fired",
    "probe.invariant.potential_rise",
    "probe.invariant.union_disconnected",
    "probe.locally_consistent",
    "probe.samples",
    "probe.stuck",
    "probe.watchdog_frozen",
    "prov.roots",
    "prov.wasted",
    "route.attempts",
    "route.delivered",
    "runs.converged",
    "runs.total",
    "rx.announce_known",
    "rx.notify_known",
    "rx.total",
    "rx.wasted",
    "tx.dropped",
    "tx.dup",
    "tx.lost_in_flight",
    "tx.reordered",
    "tx.total",
];

/// Every canonical histogram key, sorted.
pub const HISTOGRAMS: &[&str] = &[
    "chaos.recovery_msgs",
    "chaos.recovery_ticks",
    "latency.ticks",
    "probe.pending",
    "prov.cascade",
    "prov.depth",
    "rounds.to_line",
    "route.len",
    "route.stretch_milli",
    "state.entries",
    "state.peak_degree",
];

/// Open families: any key under these prefixes is canonical without being
/// enumerated. `msg.*` is open because the per-kind transmission counters
/// are derived from [`crate::Protocol::kind`] at transmit time — the set of
/// kinds belongs to the protocols, not to this registry.
pub const OPEN_PREFIXES: &[&str] = &["msg."];

/// Declares [`MSG_KINDS`] and [`MSG_KEYS`] from one list, so a kind and its
/// key cannot be spelled apart.
macro_rules! msg_kinds {
    ($($kind:literal),* $(,)?) => {
        /// The message kinds ([`crate::Protocol::kind`] values) the
        /// workspace protocols use, sorted, plus `other`: where the
        /// simulator counts a transmission of any kind not listed here — so
        /// the sum under `msg.` is always the total.
        pub const MSG_KINDS: &[&str] = &[$($kind),*];

        /// `msg.<kind>` for every entry of [`MSG_KINDS`], in the same
        /// order. The family stays open ([`OPEN_PREFIXES`]); these are the
        /// members that get a dense counter slot.
        pub const MSG_KEYS: &[&str] = &[$(concat!("msg.", $kind)),*];
    };
}

msg_kinds![
    "ack", "data", "discover", "flood", "hello", "notify", "other", "probe", "setup", "succ",
    "teardown", "update",
];

/// Number of dense counter slots: one per entry of [`KEYS`], then one per
/// entry of [`MSG_KEYS`].
pub const COUNTER_SLOTS: usize = KEYS.len() + MSG_KEYS.len();

/// A dense counter id: the slot of one key of [`KEYS`] or [`MSG_KEYS`] in
/// [`crate::Metrics`]' counter array. [`crate::Metrics::bump`] takes one
/// where the string API would search for the key, which is what the
/// simulator's per-hop sites use; both paths land in the same slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterId(u8);

impl CounterId {
    /// `tx.total` — every hop handed to the link layer.
    pub const TX_TOTAL: CounterId = CounterId::of("tx.total");
    /// `rx.total` — every delivery to a protocol.
    pub const RX_TOTAL: CounterId = CounterId::of("rx.total");
    /// `rx.wasted` — deliveries whose callback queued nothing.
    pub const RX_WASTED: CounterId = CounterId::of("rx.wasted");
    /// `msg.other` — transmissions of a kind outside [`MSG_KINDS`].
    pub const MSG_OTHER: CounterId = CounterId::of("msg.other");

    /// The id of an enumerated key. Evaluated at compile time for the
    /// constants above, so a key missing from the tables is a build error.
    ///
    /// # Panics
    /// Panics if `key` is in neither [`KEYS`] nor [`MSG_KEYS`].
    pub const fn of(key: &str) -> CounterId {
        let mut slot = 0;
        while slot < COUNTER_SLOTS {
            if bytes_eq(slot_key(slot).as_bytes(), key.as_bytes()) {
                return CounterId(slot as u8);
            }
            slot += 1;
        }
        panic!("key has no dense counter slot");
    }

    /// The id of `key` if it has a dense slot — how the string API of
    /// [`crate::Metrics`] resolves a key. A scan, not a search: equality on
    /// a few dozen short strings is decided by length almost every time,
    /// which a binary search's orderings are not (25 ns against 83 ns for
    /// the last key of the table).
    pub fn lookup(key: &str) -> Option<CounterId> {
        let slot = KEYS
            .iter()
            .chain(MSG_KEYS)
            .position(|known| *known == key)?;
        Some(CounterId(slot as u8))
    }

    /// The `msg.<kind>` id for a [`crate::Protocol::kind`] value;
    /// [`CounterId::MSG_OTHER`] for a kind outside [`MSG_KINDS`]. A scan
    /// for the same reason as [`CounterId::lookup`]; this one runs once per
    /// transmitted hop.
    pub fn of_kind(kind: &str) -> CounterId {
        match MSG_KINDS.iter().position(|known| *known == kind) {
            Some(at) => CounterId((KEYS.len() + at) as u8),
            None => CounterId::MSG_OTHER,
        }
    }

    /// The slot index, `< COUNTER_SLOTS`.
    #[inline]
    pub const fn slot(self) -> usize {
        self.0 as usize
    }

    /// The key this id counts under.
    pub const fn key(self) -> &'static str {
        slot_key(self.0 as usize)
    }

    /// Every id, in **sorted key order** (not slot order): the `msg.` keys
    /// sort between two runs of [`KEYS`], so the slots are walked as
    /// `KEYS` below `msg.`, then [`MSG_KEYS`], then the rest of `KEYS`.
    pub fn all_sorted() -> impl Iterator<Item = CounterId> {
        let split = KEYS.partition_point(|key| *key < "msg.");
        (0..split)
            .chain(KEYS.len()..COUNTER_SLOTS)
            .chain(split..KEYS.len())
            .map(|slot| CounterId(slot as u8))
    }
}

const _: () = assert!(COUNTER_SLOTS <= u8::MAX as usize);

/// The key of dense slot `slot`.
const fn slot_key(slot: usize) -> &'static str {
    if slot < KEYS.len() {
        KEYS[slot]
    } else {
        MSG_KEYS[slot - KEYS.len()]
    }
}

/// `a == b`, usable at compile time.
const fn bytes_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut i = 0;
    while i < a.len() {
        if a[i] != b[i] {
            return false;
        }
        i += 1;
    }
    true
}

/// `true` iff `key` may be written to (or read from) a metrics registry:
/// an enumerated counter/gauge/histogram key or a member of an open family.
pub fn is_canonical_key(key: &str) -> bool {
    KEYS.binary_search(&key).is_ok()
        || HISTOGRAMS.binary_search(&key).is_ok()
        || OPEN_PREFIXES.iter().any(|p| key.starts_with(p))
}

/// `true` iff `prefix` is a valid argument to a prefix-sum query
/// ([`crate::Metrics::counter_sum`]): an open family, or a prefix of at
/// least one enumerated key.
pub fn is_canonical_prefix(prefix: &str) -> bool {
    OPEN_PREFIXES.contains(&prefix)
        || KEYS.iter().any(|k| k.starts_with(prefix))
        || HISTOGRAMS.iter().any(|k| k.starts_with(prefix))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sorted_unique(table: &[&str]) {
        for w in table.windows(2) {
            assert!(
                w[0] < w[1],
                "out of order or duplicate: {} / {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn tables_are_sorted_and_unique() {
        sorted_unique(KEYS);
        sorted_unique(HISTOGRAMS);
        sorted_unique(OPEN_PREFIXES);
        sorted_unique(MSG_KINDS);
        sorted_unique(MSG_KEYS);
    }

    #[test]
    fn keys_are_namespaced() {
        for k in KEYS.iter().chain(HISTOGRAMS) {
            assert!(
                k.contains('.'),
                "{k}: canonical keys are namespaced as family.name"
            );
            assert!(!k.starts_with('.') && !k.ends_with('.'), "{k}");
        }
        for p in OPEN_PREFIXES {
            assert!(p.ends_with('.'), "{p}: open families end with the dot");
        }
    }

    #[test]
    fn no_key_shadows_an_open_family() {
        for k in KEYS.iter().chain(HISTOGRAMS) {
            assert!(
                !OPEN_PREFIXES.iter().any(|p| k.starts_with(p)),
                "{k} is already covered by an open prefix"
            );
        }
    }

    #[test]
    fn canonical_lookups() {
        assert!(is_canonical_key("tx.total"));
        assert!(is_canonical_key("route.len"));
        assert!(is_canonical_key("msg.anything"));
        assert!(!is_canonical_key("tx.totall"));
        assert!(!is_canonical_key("unregistered"));
        assert!(is_canonical_prefix("msg."));
        assert!(is_canonical_prefix("fault."));
        assert!(is_canonical_prefix("tx."));
        assert!(!is_canonical_prefix("bogus."));
    }

    /// Every dense id names a canonical key and is what both lookups return
    /// for it — guards against the id table drifting from the key tables it
    /// is derived from. (The simulator's per-hop ids are `CounterId::of`
    /// constants: a key missing from the tables does not compile.)
    #[test]
    fn simulator_counters_are_registered() {
        let ids: Vec<CounterId> = CounterId::all_sorted().collect();
        assert_eq!(ids.len(), COUNTER_SLOTS);
        for id in &ids {
            let key = id.key();
            assert!(is_canonical_key(key), "{key} missing from registry");
            assert_eq!(CounterId::lookup(key), Some(*id), "{key}");
            assert_eq!(CounterId::of(key), *id, "{key}");
        }
        let mut slots: Vec<usize> = ids.iter().map(|id| id.slot()).collect();
        slots.sort_unstable();
        assert_eq!(slots, (0..COUNTER_SLOTS).collect::<Vec<_>>());
        assert_eq!(CounterId::lookup("tx.totall"), None);
        assert_eq!(CounterId::lookup("msg.unheard_of"), None);
    }

    #[test]
    fn ids_walk_in_sorted_key_order() {
        let keys: Vec<&str> = CounterId::all_sorted().map(CounterId::key).collect();
        sorted_unique(&keys);
    }

    #[test]
    fn kinds_map_to_their_msg_key() {
        for (kind, key) in MSG_KINDS.iter().zip(MSG_KEYS) {
            assert_eq!(CounterId::of_kind(kind).key(), *key);
        }
        assert_eq!(CounterId::of_kind("unheard_of"), CounterId::MSG_OTHER);
        assert_eq!(CounterId::of_kind("msg"), CounterId::MSG_OTHER);
        assert_eq!(CounterId::of_kind(""), CounterId::MSG_OTHER);
        assert_eq!(CounterId::TX_TOTAL.key(), "tx.total");
        assert_eq!(CounterId::RX_TOTAL.key(), "rx.total");
        assert_eq!(CounterId::RX_WASTED.key(), "rx.wasted");
    }
}
