//! The event queue: a deterministic pending-delivery wheel.
//!
//! Determinism matters more than anything here: events with equal
//! timestamps are delivered in insertion order, so a simulation is a pure
//! function of `(topology, protocols, seed)`.
//!
//! The queue is a **tick wheel** — a `BTreeMap` from arrival tick to a
//! FIFO bucket of events (honoring the root `clippy.toml`'s ban on hash
//! collections). Compared to the binary heap it replaced,
//! the wheel
//!
//! * needs no global tie-break sequence number: FIFO order *within* a tick
//!   bucket is insertion order by construction;
//! * pops a whole tick's worth of events from one bucket instead of paying
//!   a heap sift per event (most events cluster on few ticks under the
//!   unit-latency round model);
//! * exposes the next occupied tick ([`EventQueue::next_tick`]) in O(1)
//!   amortized, which is what lets the run loops fast-forward across empty
//!   tick ranges instead of idling through them.
//!
//! The pre-wheel binary heap survives as the reference model in this
//! module's tests: a proptest drives both with the same random
//! push/pop/inspect sequences and requires the same answer to every call.
//! The simulator touches its queue through exactly those calls, so "same
//! answer to every call sequence" here is "same run" there.

use std::collections::{BTreeMap, VecDeque};
use std::num::NonZeroU64;

use crate::time::Time;

/// Why a causal cascade exists: the protocol phase that originated (or
/// re-tagged) the lineage an event belongs to.
///
/// Protocol callbacks set the class via `Ctx::set_cause`; events queued
/// without an explicit override inherit the class of the event being
/// processed, so attribution flows along causal chains by construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum CauseClass {
    /// Rooted at a node's `on_init` — initial startup traffic.
    Bootstrap,
    /// Rooted at an applied fault: crash/join/link/partition repair work.
    FaultRepair,
    /// The hello identification sweep re-probing unidentified links.
    HelloSweep,
    /// The linearization machinery: notify/ack handshakes, retries, and
    /// the teardowns they trigger.
    LinearizationStep,
    /// The audit heartbeat: a node's periodic re-announcement along its
    /// ring edges and the re-probe of a held ring-closure edge.
    Audit,
    /// Data-plane greedy forwarding (routing probes).
    Routing,
}

impl CauseClass {
    /// Every cause class, in `Ord` order.
    pub const ALL: [CauseClass; 6] = [
        CauseClass::Bootstrap,
        CauseClass::FaultRepair,
        CauseClass::HelloSweep,
        CauseClass::LinearizationStep,
        CauseClass::Audit,
        CauseClass::Routing,
    ];

    /// Stable label used in traces, manifests and flame output.
    pub fn label(self) -> &'static str {
        match self {
            CauseClass::Bootstrap => "bootstrap",
            CauseClass::FaultRepair => "fault-repair",
            CauseClass::HelloSweep => "hello-sweep",
            CauseClass::LinearizationStep => "linearization-step",
            CauseClass::Audit => "audit",
            CauseClass::Routing => "routing",
        }
    }
}

/// Causal provenance carried by every queued simulator event.
///
/// Ids are dense, start at 1, and are assigned at enqueue time from a
/// single monotone counter, so two same-seed runs — on either queue
/// backend — assign byte-identical ids: enqueue order is already part of
/// the determinism contract. Message copies that are dropped by the link
/// layer still consume an id, so `Send`/`Lost` trace records always
/// carry one.
///
/// The queue itself carries only the 8-byte id; the rest of the stamp
/// lives in the simulator's side table, which exists only when a trace
/// sink or the causal ledger is attached — an uninstrumented run pays
/// one counter increment per event and nothing else. The stamp is still
/// kept small (`NonZeroU64` parent, `u32` depth, 32 bytes total with a
/// niche for `Option<Provenance>`, pinned by the layout test below)
/// because the instrumented path stores one per *pending* event and the
/// dispatch frame copies it per step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Provenance {
    /// Dense event id (enqueue order, starting at 1).
    pub id: u64,
    /// Id of the event being processed when this one was enqueued;
    /// `None` for roots (bootstrap actions and scheduled faults).
    pub parent: Option<NonZeroU64>,
    /// Id of the root event of this cascade (`id` itself for roots).
    pub root: u64,
    /// Causal depth: 0 for roots, parent's depth + 1 otherwise.
    pub depth: u32,
    /// The cause class this lineage is attributed to.
    pub cause: CauseClass,
}

impl Provenance {
    /// A root event: its own cascade, at depth 0.
    pub fn root(id: u64, cause: CauseClass) -> Self {
        Provenance {
            id,
            parent: None,
            root: id,
            depth: 0,
            cause,
        }
    }

    /// A child of `parent`, one level deeper, attributed to `cause`.
    pub fn child(parent: &Provenance, id: u64, cause: CauseClass) -> Self {
        debug_assert!(parent.id != 0, "provenance ids start at 1");
        Provenance {
            id,
            parent: NonZeroU64::new(parent.id),
            root: parent.root,
            depth: parent.depth + 1,
            cause,
        }
    }
}

/// What happens when an event fires.
#[derive(Clone, Debug)]
pub enum EventKind<M> {
    /// Deliver `msg` to `dst`, sent by physical neighbor `from`.
    Deliver {
        /// Receiving node index.
        dst: usize,
        /// Sending node index (a physical neighbor of `dst` at send time).
        from: usize,
        /// The protocol payload.
        msg: M,
    },
    /// Fire a protocol timer at `node` with an opaque `token`.
    Timer {
        /// Node whose timer fires.
        node: usize,
        /// Token the node passed to `Ctx::set_timer`.
        token: u64,
    },
    /// Apply a scheduled fault (crash/join/link change).
    Fault(crate::faults::Fault),
}

/// A timestamped event as returned by [`EventQueue::pop`].
#[derive(Clone, Debug)]
pub struct QueuedEvent<M> {
    /// Firing time.
    pub at: Time,
    /// Payload.
    pub kind: EventKind<M>,
    /// Dense provenance id assigned at enqueue time. The full
    /// [`Provenance`] stamp is keyed by this id in the simulator's side
    /// table when instrumentation is attached.
    pub pid: u64,
}

/// The event queue: earliest timestamp first, FIFO among equals.
pub struct EventQueue<M> {
    wheel: BTreeMap<u64, VecDeque<(EventKind<M>, u64)>>,
    len: usize,
    peak_len: usize,
}

impl<M> Default for EventQueue<M> {
    fn default() -> Self {
        EventQueue {
            wheel: BTreeMap::new(),
            len: 0,
            peak_len: 0,
        }
    }
}

impl<M> EventQueue<M> {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `kind` at time `at`, carrying provenance id `pid`.
    pub fn push(&mut self, at: Time, kind: EventKind<M>, pid: u64) {
        self.wheel
            .entry(at.ticks())
            .or_default()
            .push_back((kind, pid));
        self.len += 1;
        self.peak_len = self.peak_len.max(self.len);
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<QueuedEvent<M>> {
        let mut entry = self.wheel.first_entry()?;
        let tick = *entry.key();
        let bucket = entry.get_mut();
        let (kind, pid) = bucket.pop_front().expect("empty bucket left in wheel");
        if bucket.is_empty() {
            entry.remove();
        }
        self.len -= 1;
        Some(QueuedEvent {
            at: Time(tick),
            kind,
            pid,
        })
    }

    /// Timestamp of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<Time> {
        self.next_tick().map(Time)
    }

    /// Earliest occupied tick, if any — the target the run loops
    /// fast-forward to across empty tick ranges.
    pub fn next_tick(&self) -> Option<u64> {
        self.wheel.keys().next().copied()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// High-water mark of [`EventQueue::len`] over the queue's lifetime —
    /// the "peak queue depth" reported by the benchmark harness.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }
}

#[cfg(test)]
mod tests {
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    use proptest::prelude::*;

    use super::*;

    /// A heap entry of the reference model: global insertion sequence
    /// breaks timestamp ties.
    struct HeapEvent {
        at: Time,
        seq: u64,
        kind: EventKind<()>,
        pid: u64,
    }

    impl PartialEq for HeapEvent {
        fn eq(&self, other: &Self) -> bool {
            self.at == other.at && self.seq == other.seq
        }
    }
    impl Eq for HeapEvent {}

    impl Ord for HeapEvent {
        fn cmp(&self, other: &Self) -> Ordering {
            // Reversed: BinaryHeap is a max-heap, we want the earliest first.
            other
                .at
                .cmp(&self.at)
                .then_with(|| other.seq.cmp(&self.seq))
        }
    }
    impl PartialOrd for HeapEvent {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    /// The pre-wheel queue — a binary heap with an insertion-sequence
    /// tie-break — kept as the reference model the wheel is checked
    /// against.
    #[derive(Default)]
    struct ReferenceHeap {
        heap: BinaryHeap<HeapEvent>,
        next_seq: u64,
        peak_len: usize,
    }

    impl ReferenceHeap {
        fn push(&mut self, at: Time, kind: EventKind<()>, pid: u64) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(HeapEvent { at, seq, kind, pid });
            self.peak_len = self.peak_len.max(self.heap.len());
        }

        fn pop(&mut self) -> Option<QueuedEvent<()>> {
            self.heap.pop().map(|e| QueuedEvent {
                at: e.at,
                kind: e.kind,
                pid: e.pid,
            })
        }

        fn next_tick(&self) -> Option<u64> {
            self.heap.peek().map(|e| e.at.ticks())
        }
    }

    fn timer(node: usize) -> EventKind<()> {
        EventKind::Timer { node, token: 0 }
    }

    /// The stamp rides on every queued event; growing it inflates the
    /// whole wheel (and every untraced benchmark run with it).
    #[test]
    fn provenance_stays_within_32_bytes() {
        assert!(std::mem::size_of::<Provenance>() <= 32);
        // the CauseClass niche keeps the frame Option free
        assert_eq!(
            std::mem::size_of::<Option<Provenance>>(),
            std::mem::size_of::<Provenance>()
        );
    }

    #[test]
    fn earliest_first() {
        let mut q = EventQueue::new();
        q.push(Time(5), timer(5), 0);
        q.push(Time(1), timer(1), 1);
        q.push(Time(3), timer(3), 2);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.at.0).collect();
        assert_eq!(order, vec![1, 3, 5]);
    }

    #[test]
    fn fifo_among_equal_timestamps() {
        let mut q = EventQueue::new();
        for node in 0..10 {
            q.push(Time(7), timer(node), node as u64);
        }
        let order: Vec<usize> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Timer { node, .. } => node,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn peek_and_len() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        assert_eq!(q.next_tick(), None);
        q.push(Time(2), timer(0), 0);
        q.push(Time(1), timer(1), 1);
        assert_eq!(q.peek_time(), Some(Time(1)));
        assert_eq!(q.next_tick(), Some(1));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn peak_depth_is_a_high_water_mark() {
        let mut q: EventQueue<()> = EventQueue::new();
        for i in 0..8 {
            q.push(Time(i), timer(0), i);
        }
        for _ in 0..8 {
            q.pop();
        }
        assert!(q.is_empty());
        assert_eq!(q.peak_len(), 8);
        q.push(Time(100), timer(0), 8);
        assert_eq!(q.peak_len(), 8, "peak must not reset");
    }

    proptest! {
        /// The wheel and the reference heap give the same answer to every
        /// call of every random interleaving of pushes (equal and distinct
        /// ticks), pops (including on an empty queue) and inspections —
        /// the whole interface the simulator uses, so equal answers here
        /// are equal runs there.
        #[test]
        fn wheel_matches_reference_heap(
            ops in proptest::collection::vec((0u8..5, 0u64..12, 0u64..1000), 1..400)
        ) {
            let mut wheel: EventQueue<()> = EventQueue::new();
            let mut heap = ReferenceHeap::default();
            for (pid, &(op, near, far)) in ops.iter().enumerate() {
                match op {
                    // pushes: a narrow tick range forces ties, a wide one
                    // sparse buckets
                    0..=2 => {
                        let at = Time(if op == 0 { far } else { near });
                        wheel.push(at, timer(pid), pid as u64);
                        heap.push(at, timer(pid), pid as u64);
                    }
                    _ => {
                        let (w, h) = (wheel.pop(), heap.pop());
                        prop_assert_eq!(w.is_some(), h.is_some());
                        if let (Some(w), Some(h)) = (w, h) {
                            prop_assert_eq!(
                                (w.at, w.pid, format!("{:?}", w.kind)),
                                (h.at, h.pid, format!("{:?}", h.kind))
                            );
                        }
                    }
                }
                prop_assert_eq!(wheel.next_tick(), heap.next_tick());
                prop_assert_eq!(wheel.peek_time(), heap.next_tick().map(Time));
                prop_assert_eq!(wheel.len(), heap.heap.len());
                prop_assert_eq!(wheel.is_empty(), heap.heap.is_empty());
                prop_assert_eq!(wheel.peak_len(), heap.peak_len);
            }
            // drain: the tail of the schedule agrees too
            while let (Some(w), Some(h)) = (wheel.pop(), heap.pop()) {
                prop_assert_eq!((w.at, w.pid), (h.at, h.pid));
            }
            prop_assert!(wheel.is_empty() && heap.heap.is_empty());
        }
    }
}
