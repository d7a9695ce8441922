//! `Timed<P>`: a protocol wrapper that times the callbacks of the protocol
//! it delegates to.
//!
//! This is how the traced run splits `Simulator::run_until` into handler
//! time and simulator self time without touching `crates/`: the simulator
//! runs `Timed<SsrNode>` (or `Timed<VrrNode>`, `Timed<Relay>`) exactly as
//! it would run the plain node — the wrapper adds no message, timer or RNG
//! draw — and the wrapper sums `Instant` intervals per message kind.
//!
//! Callbacks are aggregated, not recorded one span each: a bootstrap at
//! n = 500 makes twelve million of them. And only every
//! [`SAMPLE_EVERY`]-th callback of a class at a node is timed, the class
//! total being scaled up from the timed share: two clock reads cost about
//! as much as a third of a handler, and timing every call stretched the
//! traced run by a quarter.

use std::time::Instant;

use ssr_sim::{Ctx, Protocol};

/// Callback classes the handler time is split into: the five message
/// kinds the linearized protocols use, timer callbacks, and everything
/// else (other message kinds, link up/down). `on_init` is not timed: it
/// runs inside `Simulator::new`, which is set-up, not inside `run_until`.
pub const CLASSES: [&str; 7] = [
    "hello", "notify", "ack", "teardown", "discover", "timer", "other",
];
const TIMER: usize = 5;
const OTHER: usize = 6;

/// One callback in this many is timed (per node and class). Prime, so that
/// it does not fall in step with the protocol's own periods.
const SAMPLE_EVERY: u64 = 13;

/// Every `WIRE_SAMPLE`-th message is also encoded, outside the timed
/// interval, to measure its size on the wire.
const WIRE_SAMPLE: u64 = 64;

/// Callback totals of one node, or summed over nodes.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub calls: [u64; CLASSES.len()],
    timed_calls: [u64; CLASSES.len()],
    timed_ns: [u64; CLASSES.len()],
    pub wire_bytes: u64,
    pub wire_msgs: u64,
}

impl Tally {
    pub fn absorb(&mut self, other: &Tally) {
        for i in 0..CLASSES.len() {
            self.calls[i] += other.calls[i];
            self.timed_calls[i] += other.timed_calls[i];
            self.timed_ns[i] += other.timed_ns[i];
        }
        self.wire_bytes += other.wire_bytes;
        self.wire_msgs += other.wire_msgs;
    }

    /// Estimated nanoseconds in all callbacks of `class`: the timed ones,
    /// scaled by the share of calls that were timed.
    pub fn ns(&self, class: usize) -> u64 {
        scale_up(
            self.timed_ns[class],
            self.calls[class],
            self.timed_calls[class],
        )
    }

    pub fn total_ns(&self) -> u64 {
        (0..CLASSES.len()).map(|class| self.ns(class)).sum()
    }

    pub fn total_calls(&self) -> u64 {
        self.calls.iter().sum()
    }
}

fn scale_up(timed_ns: u64, calls: u64, timed_calls: u64) -> u64 {
    if timed_calls == 0 {
        return 0;
    }
    (timed_ns as u128 * calls as u128 / timed_calls as u128) as u64
}

pub struct Timed<P: Protocol> {
    pub inner: P,
    pub tally: Tally,
    /// Encoded size of a message, for protocols that have a wire codec.
    wire_len: Option<fn(&P::Msg) -> usize>,
}

impl<P: Protocol> Timed<P> {
    pub fn wrap(nodes: Vec<P>, wire_len: Option<fn(&P::Msg) -> usize>) -> Vec<Timed<P>> {
        nodes
            .into_iter()
            .map(|inner| Timed {
                inner,
                tally: Tally::default(),
                wire_len,
            })
            .collect()
    }

    /// The totals over all nodes.
    pub fn total(nodes: &[Timed<P>]) -> Tally {
        let mut sum = Tally::default();
        for node in nodes {
            sum.absorb(&node.tally);
        }
        sum
    }

    fn timed(&mut self, class: usize, f: impl FnOnce(&mut P)) {
        let nth = self.tally.calls[class];
        self.tally.calls[class] += 1;
        if !nth.is_multiple_of(SAMPLE_EVERY) {
            return f(&mut self.inner);
        }
        let start = Instant::now();
        f(&mut self.inner);
        self.tally.timed_ns[class] += start.elapsed().as_nanos() as u64;
        self.tally.timed_calls[class] += 1;
    }
}

fn class_of(kind: &str) -> usize {
    CLASSES[..TIMER]
        .iter()
        .position(|&c| c == kind)
        .unwrap_or(OTHER)
}

impl<P: Protocol> Protocol for Timed<P> {
    type Msg = P::Msg;

    fn on_init(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
        self.inner.on_init(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Self::Msg>, from: usize, msg: Self::Msg) {
        let class = class_of(P::kind(&msg));
        if let Some(wire_len) = self.wire_len {
            if self.tally.calls[class].is_multiple_of(WIRE_SAMPLE) {
                self.tally.wire_bytes += wire_len(&msg) as u64;
                self.tally.wire_msgs += 1;
            }
        }
        self.timed(class, |p| p.on_message(ctx, from, msg));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self::Msg>, token: u64) {
        self.timed(TIMER, |p| p.on_timer(ctx, token));
    }

    fn on_neighbor_up(&mut self, ctx: &mut Ctx<'_, Self::Msg>, neighbor: usize) {
        self.timed(OTHER, |p| p.on_neighbor_up(ctx, neighbor));
    }

    fn on_neighbor_down(&mut self, ctx: &mut Ctx<'_, Self::Msg>, neighbor: usize) {
        self.timed(OTHER, |p| p.on_neighbor_down(ctx, neighbor));
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn kind(msg: &Self::Msg) -> &'static str {
        P::kind(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_totals_scale_with_the_timed_share() {
        assert_eq!(scale_up(1_000, 130, 10), 13_000);
        assert_eq!(scale_up(0, 0, 0), 0);
        // every call timed: nothing to scale
        assert_eq!(scale_up(777, 5, 5), 777);
    }

    #[test]
    fn kinds_map_to_their_class() {
        assert_eq!(class_of("hello"), 0);
        assert_eq!(class_of("discover"), 4);
        assert_eq!(class_of("flood"), OTHER);
        // a message kind called "timer" would still not be a timer callback
        assert_eq!(class_of("timer"), OTHER);
    }
}
