//! The per-node linearization *control core* of Section 4, shared by the
//! message-level protocols (`ssr-core`'s `SsrNode`, `ssr-vrr`'s `VrrNode`).
//!
//! The paper describes one algorithm — notify the two farthest neighbors
//! of a side about each other, wait for both acknowledgments, tear the
//! delegated edge down, and close the ring with cw/ccw discovery — and
//! says the VRR transfer differs only in that "the notification messages
//! set up state along their forwarding path". [`Linearizer`] is that one
//! algorithm: neighbor membership split by [`Side`], the in-flight
//! handshake per side with same-seq exponential-backoff retries,
//! farthest-pair choice, ack matching, act batching, discovery
//! bookkeeping, ring-closure (wrap) slot arbitration and the audit round.
//! What an edge *is* stays with the protocol: the core is generic over the
//! per-edge data `E` (`()` for SSR, whose routes live in the route cache;
//! the path id for VRR).
//!
//! The core never sees a simulator. [`Linearizer::step`] takes an
//! [`Input`] and the current tick and returns the [`Effects`] the protocol
//! must carry out **in order** (sends, timers, edge retirements); the
//! remaining entry points are plain state updates. A node is therefore a
//! value that can be cloned, hashed, compared and stepped on its own.

#![warn(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]

use ssr_types::{NodeId, SeqNo, Side};

/// Same-seq re-sends before a handshake is given up.
const MAX_RETRIES: u8 = 4;

/// Most effects one step can emit — an act round: two wrap demotions, two
/// handshakes (introduction + retry timer each), two probes and the
/// discovery timer.
const MAX_EFFECTS: usize = 9;

// The schedule the control core runs on (ticks). It belongs to the core:
// every protocol on it runs the same one.

/// Batching window between a state change and the act it triggers.
pub const ACT_INTERVAL: u64 = 2;
/// Base re-send interval of an un-acknowledged handshake (doubles per retry).
pub const RETRY_INTERVAL: u64 = 24;
/// Earliest tick at which ring-closure probes are launched.
pub const DISCOVER_DELAY: u64 = 8;
/// Re-probe interval while a ring edge is unresolved.
pub const DISCOVER_RETRY: u64 = 48;
/// Audit (re-announcement) period.
pub const AUDIT_INTERVAL: u64 = 48;

/// A timer owned by the control core. Protocols hand [`Timer::token`] to
/// their timer facility and feed fired tokens back through
/// [`Timer::from_token`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Timer {
    /// The batched linearization action.
    Act,
    /// Handshake retry for one side. It carries the handshake's sequence
    /// number so a late timer from a completed handshake cannot cancel
    /// its successor.
    Retry(Side, SeqNo),
    /// Ring-closure probe (re-)launch.
    Discover,
    /// Audit round.
    Audit,
}

impl Timer {
    /// Tokens from here up are free for the protocol's own timers.
    pub const FIRST_FREE_TOKEN: u64 = 5;

    /// The timer as an opaque 64-bit token (kind in the low byte, the
    /// retry's sequence number above it).
    pub fn token(self) -> u64 {
        match self {
            Timer::Act => 0,
            Timer::Retry(Side::Left, seq) => 1 | (u64::from(seq.0) << 8),
            Timer::Retry(Side::Right, seq) => 2 | (u64::from(seq.0) << 8),
            Timer::Discover => 3,
            Timer::Audit => 4,
        }
    }

    /// Inverse of [`Timer::token`]; `None` for tokens the core does not own.
    pub fn from_token(token: u64) -> Option<Timer> {
        let seq = SeqNo((token >> 8) as u32);
        match token & 0xFF {
            0 => Some(Timer::Act),
            1 => Some(Timer::Retry(Side::Left, seq)),
            2 => Some(Timer::Retry(Side::Right, seq)),
            3 => Some(Timer::Discover),
            4 => Some(Timer::Audit),
            _ => None,
        }
    }
}

/// What can happen to the control core.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Input {
    /// The neighbor structure changed: queue a (deduplicated) act
    /// [`ACT_INTERVAL`] out and make sure audits run. Immediate per-message
    /// reactions act on half-updated neighbor sets and can sustain
    /// add/teardown churn; batching lets each step see the settled outcome
    /// of the previous wave — the asynchronous analogue of synchronous
    /// rounds.
    Changed,
    /// A timer armed through [`Effect::SetTimer`] fired.
    Timer {
        /// Which one.
        timer: Timer,
        /// Whether the node knows anyone a ring-closure probe could travel
        /// toward; probes are held back until it does.
        routable: bool,
    },
    /// A notification acknowledgment arrived. `about` names the node its
    /// sender was pointed to, which tells the two halves of a handshake
    /// apart.
    Ack {
        /// The node the acknowledging peer was introduced to.
        about: NodeId,
        /// Handshake correlation.
        seq: SeqNo,
    },
}

/// What the protocol must do on the core's behalf.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Effect<E> {
    /// Arm `timer` to fire `delay` ticks from now.
    SetTimer {
        /// Ticks from now.
        delay: u64,
        /// The timer to feed back.
        timer: Timer,
    },
    /// Introduce `keep` and `drop` to each other under `seq`. On a retry
    /// only the halves not yet acknowledged are flagged.
    Introduce {
        /// Second-farthest neighbor of the side; stays a neighbor.
        keep: NodeId,
        /// Farthest neighbor of the side; delegated to `keep`.
        drop: NodeId,
        /// Handshake correlation (unchanged across retries: a round trip
        /// longer than the retry interval could otherwise never complete).
        seq: SeqNo,
        /// `keep` still has to be told about `drop`.
        to_keep: bool,
        /// `drop` still has to be told about `keep`.
        to_drop: bool,
    },
    /// Both halves acknowledged: `peer` has left the neighbor set and its
    /// edge (`None` if the peer had already gone) can be retired.
    Delegated {
        /// The delegated neighbor.
        peer: NodeId,
        /// The edge it was held over.
        edge: Option<E>,
    },
    /// The side a ring-closure edge stood in for gained a neighbor, so the
    /// closure was premature: retire it so both ends re-resolve.
    WrapDemoted {
        /// The former ring-closure partner.
        peer: NodeId,
        /// Its edge.
        edge: E,
    },
    /// The handshake ran out of retries without hearing from `peer`. The
    /// core has dropped the handshake and nothing else; what becomes of
    /// the silent endpoint is protocol policy.
    Abandon {
        /// The endpoint that never acknowledged.
        peer: NodeId,
    },
    /// Launch a ring-closure probe travelling toward `toward`.
    Probe {
        /// [`Side::Right`] is clockwise (seeking the maximum).
        toward: Side,
    },
    /// Audit: re-announce this node to `peer` so a peer that lost the edge
    /// re-adopts it. Only the ring-relevant edges (closest per side) are
    /// audited — auditing every member would resurrect edges linearization
    /// just delegated away, and an announcement to a wrap partner would be
    /// adopted into its *side set* and linearized away (lost wrap edges
    /// self-repair through the discovery retry instead).
    Announce {
        /// The closest neighbor of a side.
        peer: NodeId,
        /// Its edge.
        edge: E,
        /// Fresh sequence number shared by the round's announcements.
        seq: SeqNo,
    },
}

/// The effects of one [`Linearizer::step`], in the order they must be
/// carried out. A bounded inline list: stepping never allocates.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Effects<E> {
    buf: [Option<Effect<E>>; MAX_EFFECTS],
    len: usize,
}

impl<E: Copy> Effects<E> {
    fn new() -> Self {
        Effects {
            buf: [None; MAX_EFFECTS],
            len: 0,
        }
    }

    fn push(&mut self, effect: Effect<E>) {
        self.buf[self.len] = Some(effect);
        self.len += 1;
    }
}

impl<E> IntoIterator for Effects<E> {
    type Item = Effect<E>;
    type IntoIter = std::iter::Flatten<std::array::IntoIter<Option<Effect<E>>, MAX_EFFECTS>>;

    fn into_iter(self) -> Self::IntoIter {
        self.buf.into_iter().flatten()
    }
}

/// Outcome of offering a claimant for a ring-closure slot
/// ([`Linearizer::offer_wrap`]).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum WrapVerdict<E> {
    /// The slot was empty or already held the claimant; it holds the
    /// claimant (over the offered edge) now.
    Installed,
    /// The claimant beat the previous holder and took the slot.
    Replaced {
        /// The displaced holder.
        old: NodeId,
        /// The edge it was held over.
        old_edge: E,
    },
    /// The holder is the better ring neighbor and stays; the claimant
    /// should be pointed at it.
    Redirect {
        /// The current (better) holder.
        holder: NodeId,
    },
}

/// An in-flight linearization handshake: both notified nodes must
/// acknowledge before the delegated edge is torn down.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct Pending {
    keep: NodeId,
    drop: NodeId,
    seq: SeqNo,
    keep_acked: bool,
    drop_acked: bool,
    retries: u8,
}

/// Linearization control state of one node; see the [module docs](self).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Linearizer<E> {
    id: NodeId,
    /// Probe counter-clockwise too (the paper's redundancy suggestion).
    ccw_redundancy: bool,
    /// Virtual neighbors by side (`Left`: addresses below `id`), each with
    /// its edge: a row sorted by address, like `Neighbors` and the route
    /// cache. Nine sides in ten hold at most four members over an SSR
    /// bootstrap; one that adopts a hub's physical neighbours starts with
    /// dozens (docs/BENCHMARKS.md has the counts).
    sides: [Vec<(NodeId, E)>; 2],
    /// Ring-closure edges: `wrap[Left]` leads across the wrap to the
    /// maximum (held by the node believing itself the minimum) and vice
    /// versa. Kept apart from `sides` so linearization never dissolves
    /// them and a peer can be both (the two-node network).
    wrap: [Option<(NodeId, E)>; 2],
    pending: [Option<Pending>; 2],
    seq: SeqNo,
    /// Outstanding probes by travel direction (cleared by the closure
    /// answer or the discovery timer).
    probe_out: [bool; 2],
    discover_armed: bool,
    act_scheduled: bool,
    /// Whether the audit timer is queued. Once armed it re-arms every round
    /// and never stops: a peer that lost its edge to this node leaves no
    /// local signal here.
    audit_armed: bool,
}

impl<E: Copy> Linearizer<E> {
    /// Fresh state for node `id`; `ccw_redundancy` launches
    /// counter-clockwise probes too (the paper's redundancy suggestion).
    pub fn new(id: NodeId, ccw_redundancy: bool) -> Self {
        Linearizer {
            id,
            ccw_redundancy,
            sides: [Vec::new(), Vec::new()],
            wrap: [None; 2],
            pending: [None; 2],
            seq: SeqNo::ZERO,
            probe_out: [false; 2],
            discover_armed: false,
            act_scheduled: false,
            audit_armed: false,
        }
    }

    // -- views -------------------------------------------------------------

    /// The node's own address.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The virtual neighbors on `side`, in address order, with their edges.
    pub fn side(&self, side: Side) -> &[(NodeId, E)] {
        &self.sides[side as usize]
    }

    /// Closest neighbor on `side` (largest address below, smallest above).
    pub fn closest(&self, side: Side) -> Option<NodeId> {
        self.closest_entry(side).map(|(peer, _)| peer)
    }

    fn closest_entry(&self, side: Side) -> Option<(NodeId, E)> {
        let members = self.side(side);
        match side {
            Side::Left => members.last(),
            Side::Right => members.first(),
        }
        .copied()
    }

    /// The ring-closure edge standing in for an empty `side`.
    pub fn wrap(&self, side: Side) -> Option<(NodeId, E)> {
        self.wrap[side as usize]
    }

    /// Ring neighbor on `side`: the closest neighbor, else the wrap edge.
    pub fn ring_neighbor(&self, side: Side) -> Option<NodeId> {
        let wrap = self.wrap(side).map(|(peer, _)| peer);
        self.closest(side).or(wrap)
    }

    /// The edge `peer` is held over as a side-set member.
    pub fn edge(&self, peer: NodeId) -> Option<E> {
        let set = self.side(self.side_of(peer)?);
        let at = position(set, peer).ok()?;
        Some(set[at].1)
    }

    /// The side `peer` belongs on; `None` for the node itself.
    fn side_of(&self, peer: NodeId) -> Option<Side> {
        match peer.cmp(&self.id) {
            std::cmp::Ordering::Less => Some(Side::Left),
            std::cmp::Ordering::Equal => None,
            std::cmp::Ordering::Greater => Some(Side::Right),
        }
    }

    /// The edge `peer` is held over as a ring-closure partner.
    pub fn wrap_edge(&self, peer: NodeId) -> Option<E> {
        let held = self.wrap.iter().flatten().find(|(p, _)| *p == peer);
        held.map(|&(_, edge)| edge)
    }

    /// The `[keep, drop]` endpoints of the handshake in flight on `side`.
    pub fn pending(&self, side: Side) -> Option<[NodeId; 2]> {
        self.pending[side as usize].map(|p| [p.keep, p.drop])
    }

    /// Locally consistent on the line: at most one neighbor per side and no
    /// handshake in flight.
    pub fn locally_consistent(&self) -> bool {
        self.sides.iter().all(|set| set.len() <= 1) && self.pending.iter().all(Option::is_none)
    }

    // -- state updates -----------------------------------------------------

    /// Allocates the next sequence number.
    pub fn next_seq(&mut self) -> SeqNo {
        self.seq.bump()
    }

    /// Records `peer` as a virtual neighbor over `edge` (replacing the edge
    /// if already known). `true` if `peer` is new to its side set.
    pub fn adopt(&mut self, peer: NodeId, edge: E) -> bool {
        let Some(side) = self.side_of(peer) else {
            return false;
        };
        let set = &mut self.sides[side as usize];
        match position(set, peer) {
            Ok(at) => {
                set[at].1 = edge;
                false
            }
            Err(at) => {
                set.insert(at, (peer, edge));
                true
            }
        }
    }

    /// Removes `peer` from the side sets, returning its edge.
    pub fn remove(&mut self, peer: NodeId) -> Option<E> {
        let set = &mut self.sides[self.side_of(peer)? as usize];
        let at = position(set, peer).ok()?;
        Some(set.remove(at).1)
    }

    /// `peer` retired its edge to this node: removes it from the side sets
    /// *and* from any ring-closure slot naming it.
    pub fn forget(&mut self, peer: NodeId) {
        self.remove(peer);
        self.retain_wraps(|p, _| p != peer);
    }

    /// Keeps only the neighbors and ring-closure partners `keep` approves.
    pub fn retain(&mut self, mut keep: impl FnMut(NodeId, &E) -> bool) {
        for set in &mut self.sides {
            set.retain(|(peer, edge)| keep(*peer, edge));
        }
        self.retain_wraps(keep);
    }

    fn retain_wraps(&mut self, mut keep: impl FnMut(NodeId, &E) -> bool) {
        for slot in &mut self.wrap {
            if slot.as_ref().is_some_and(|(peer, edge)| !keep(*peer, edge)) {
                *slot = None;
            }
        }
    }

    /// Installs a ring-closure edge unconditionally (state injection).
    pub fn set_wrap(&mut self, side: Side, peer: NodeId, edge: E) {
        self.wrap[side as usize] = Some((peer, edge));
    }

    /// The answer to the probe sent toward `toward` arrived.
    pub fn probe_answered(&mut self, toward: Side) {
        self.probe_out[toward as usize] = false;
    }

    /// Offers `claimant` for the ring-closure slot of `slot`. Competing
    /// claims are themselves linearized: the slot keeps the claimant that
    /// is closest *across the wrap* — the largest address on the left slot
    /// (the minimum's ring predecessor is the maximum), the smallest on the
    /// right — and the loser is to be introduced to the winner.
    pub fn offer_wrap(&mut self, slot: Side, claimant: NodeId, edge: E) -> WrapVerdict<E> {
        let held = &mut self.wrap[slot as usize];
        match *held {
            Some((cur, cur_edge)) if cur != claimant => {
                let better = match slot {
                    Side::Left => claimant > cur,
                    Side::Right => claimant < cur,
                };
                if !better {
                    return WrapVerdict::Redirect { holder: cur };
                }
                *held = Some((claimant, edge));
                WrapVerdict::Replaced {
                    old: cur,
                    old_edge: cur_edge,
                }
            }
            _ => {
                *held = Some((claimant, edge));
                WrapVerdict::Installed
            }
        }
    }

    // -- the step ----------------------------------------------------------

    /// Advances the state machine by one input at tick `now`.
    pub fn step(&mut self, input: Input, now: u64) -> Effects<E> {
        let mut fx = Effects::new();
        match input {
            Input::Changed => self.schedule_act(&mut fx),
            Input::Ack { about, seq } => self.ack(about, seq, &mut fx),
            Input::Timer { timer, routable } => match timer {
                Timer::Act => {
                    self.act_scheduled = false;
                    self.demote_stale_wraps(&mut fx);
                    self.linearize(Side::Right, &mut fx);
                    self.linearize(Side::Left, &mut fx);
                    self.discover(routable, now, &mut fx);
                }
                Timer::Retry(side, seq) => self.retry(side, seq, &mut fx),
                Timer::Discover => {
                    self.discover_armed = false;
                    self.probe_out = [false; 2];
                    self.discover(routable, now, &mut fx);
                }
                Timer::Audit => self.audit_round(&mut fx),
            },
        }
        fx
    }

    fn schedule_act(&mut self, fx: &mut Effects<E>) {
        if !self.act_scheduled {
            self.act_scheduled = true;
            fx.push(Effect::SetTimer {
                delay: ACT_INTERVAL,
                timer: Timer::Act,
            });
        }
        self.arm_audit(fx);
    }

    fn arm_audit(&mut self, fx: &mut Effects<E>) {
        if !std::mem::replace(&mut self.audit_armed, true) {
            fx.push(Effect::SetTimer {
                delay: AUDIT_INTERVAL,
                timer: Timer::Audit,
            });
        }
    }

    fn demote_stale_wraps(&mut self, fx: &mut Effects<E>) {
        for side in [Side::Left, Side::Right] {
            if !self.sides[side as usize].is_empty() {
                if let Some((peer, edge)) = self.wrap[side as usize].take() {
                    fx.push(Effect::WrapDemoted { peer, edge });
                }
            }
        }
    }

    /// One linearization step on `side`, if it holds more than one neighbor
    /// and no handshake is in flight: the two *farthest* (the paper's
    /// `v2 < v3` with every other right neighbor below both) are introduced
    /// to each other; the farthest will be dropped, the second-farthest
    /// kept.
    fn linearize(&mut self, side: Side, fx: &mut Effects<E>) {
        if self.pending[side as usize].is_some() {
            return;
        }
        let mut members = self.side(side).iter().map(|&(peer, _)| peer);
        let (drop, keep) = match side {
            Side::Left => (members.next(), members.next()),
            Side::Right => (members.next_back(), members.next_back()),
        };
        let (Some(drop), Some(keep)) = (drop, keep) else {
            return;
        };
        let seq = self.seq.bump();
        fx.push(Effect::Introduce {
            keep,
            drop,
            seq,
            to_keep: true,
            to_drop: true,
        });
        self.pending[side as usize] = Some(Pending {
            keep,
            drop,
            seq,
            keep_acked: false,
            drop_acked: false,
            retries: 0,
        });
        fx.push(Effect::SetTimer {
            delay: RETRY_INTERVAL,
            timer: Timer::Retry(side, seq),
        });
    }

    /// Handshake retry: re-send what is still un-acknowledged, backing off
    /// exponentially; after [`MAX_RETRIES`] the handshake is abandoned (the
    /// peer or the edge may be gone) and the next act re-evaluates from
    /// scratch.
    fn retry(&mut self, side: Side, seq: SeqNo, fx: &mut Effects<E>) {
        let slot = &mut self.pending[side as usize];
        let Some(p) = slot.as_mut().filter(|p| p.seq == seq) else {
            return; // timer from a superseded handshake
        };
        if p.retries >= MAX_RETRIES {
            let p = *p;
            *slot = None;
            for (peer, acked) in [(p.keep, p.keep_acked), (p.drop, p.drop_acked)] {
                if !acked {
                    fx.push(Effect::Abandon { peer });
                }
            }
            self.schedule_act(fx);
            return;
        }
        p.retries += 1;
        fx.push(Effect::Introduce {
            keep: p.keep,
            drop: p.drop,
            seq,
            to_keep: !p.keep_acked,
            to_drop: !p.drop_acked,
        });
        fx.push(Effect::SetTimer {
            delay: RETRY_INTERVAL << p.retries,
            timer: Timer::Retry(side, seq),
        });
    }

    fn ack(&mut self, about: NodeId, seq: SeqNo, fx: &mut Effects<E>) {
        for side in [Side::Left, Side::Right] {
            let slot = &mut self.pending[side as usize];
            let Some(p) = slot.as_mut().filter(|p| p.seq == seq) else {
                continue; // not this side's handshake (or a superseded one)
            };
            // `about == drop` means the *keep* endpoint acknowledged
            if about == p.drop {
                p.keep_acked = true;
            } else if about == p.keep {
                p.drop_acked = true;
            }
            if p.keep_acked && p.drop_acked {
                let peer = p.drop;
                *slot = None;
                // the delegated edge leaves the neighbor set — that is what
                // makes linearization progress
                let edge = self.remove(peer);
                fx.push(Effect::Delegated { peer, edge });
                self.schedule_act(fx);
            }
            return;
        }
    }

    /// Launches ring-closure probes for sides that are empty and have no
    /// wrap edge; (re)arms the probe retry timer while any is unresolved.
    fn discover(&mut self, routable: bool, now: u64, fx: &mut Effects<E>) {
        if !routable {
            return;
        }
        // a probe toward one side seeks the ring neighbor of the *other*
        let open = |s: Side| self.sides[s as usize].is_empty() && self.wrap[s as usize].is_none();
        let need = [
            (Side::Right, open(Side::Left)),
            (Side::Left, self.ccw_redundancy && open(Side::Right)),
        ];
        let unresolved = need.iter().any(|&(_, needed)| needed);
        let mut delay = DISCOVER_RETRY;
        if now < DISCOVER_DELAY {
            // too early to probe — but wake up once the settle delay is
            // over, otherwise an already-linear network would quiesce
            // without ever closing its ring
            delay = DISCOVER_DELAY - now;
        } else {
            for (toward, needed) in need {
                if needed && !std::mem::replace(&mut self.probe_out[toward as usize], true) {
                    fx.push(Effect::Probe { toward });
                }
            }
        }
        if unresolved && !std::mem::replace(&mut self.discover_armed, true) {
            fx.push(Effect::SetTimer {
                delay,
                timer: Timer::Discover,
            });
        }
    }

    fn audit_round(&mut self, fx: &mut Effects<E>) {
        self.audit_armed = false;
        let seq = self.seq.bump();
        for side in [Side::Left, Side::Right] {
            if let Some((peer, edge)) = self.closest_entry(side) {
                fx.push(Effect::Announce { peer, edge, seq });
            }
        }
        self.arm_audit(fx);
    }
}

/// Where `peer` is, or would go, in a side set.
fn position<E>(set: &[(NodeId, E)], peer: NodeId) -> Result<usize, usize> {
    set.binary_search_by_key(&peer, |&(p, _)| p)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Node 50 with the given neighbors, each held over edge `id as u8`.
    fn node(peers: &[u64]) -> Linearizer<u8> {
        let mut lin = Linearizer::new(NodeId(50), true);
        for &p in peers {
            assert!(lin.adopt(NodeId(p), p as u8));
        }
        lin
    }

    fn fire(lin: &mut Linearizer<u8>, timer: Timer) -> Vec<Effect<u8>> {
        let input = Input::Timer {
            timer,
            routable: true,
        };
        lin.step(input, 100).into_iter().collect()
    }

    fn introduce(keep: u64, drop: u64, seq: u32, to_keep: bool, to_drop: bool) -> Effect<u8> {
        Effect::Introduce {
            keep: NodeId(keep),
            drop: NodeId(drop),
            seq: SeqNo(seq),
            to_keep,
            to_drop,
        }
    }

    fn set_timer(delay: u64, timer: Timer) -> Effect<u8> {
        Effect::SetTimer { delay, timer }
    }

    #[test]
    fn the_state_is_a_plain_value() {
        fn plain<T: Clone + Eq + std::hash::Hash + std::fmt::Debug>() {}
        plain::<Linearizer<()>>();
        plain::<Linearizer<u8>>();
    }

    #[test]
    fn timer_tokens_round_trip_and_leave_the_rest_free() {
        let retry = Timer::Retry(Side::Right, SeqNo(0xABCD_EF01));
        for timer in [
            Timer::Act,
            Timer::Retry(Side::Left, SeqNo(7)),
            retry,
            Timer::Discover,
            Timer::Audit,
        ] {
            assert_eq!(Timer::from_token(timer.token()), Some(timer));
            assert!(timer.token() & 0xFF < Timer::FIRST_FREE_TOKEN);
        }
        assert_eq!(retry.token(), 2 | (0xABCD_EF01 << 8));
        assert_eq!(Timer::from_token(Timer::FIRST_FREE_TOKEN), None);
    }

    #[test]
    fn farthest_pair_is_second_farthest_keep_farthest_drop_on_both_sides() {
        let mut lin = node(&[10, 20, 30, 60, 70, 80]);
        assert!(!lin.locally_consistent());
        let fx = fire(&mut lin, Timer::Act);
        assert_eq!(
            fx,
            vec![
                introduce(70, 80, 1, true, true),
                set_timer(24, Timer::Retry(Side::Right, SeqNo(1))),
                introduce(20, 10, 2, true, true),
                set_timer(24, Timer::Retry(Side::Left, SeqNo(2))),
            ]
        );
        // one handshake per side at a time
        assert_eq!(fire(&mut lin, Timer::Act), vec![]);
    }

    #[test]
    fn both_acks_delegate_the_farthest_and_schedule_the_next_act() {
        let mut lin = node(&[40, 60, 70]);
        fire(&mut lin, Timer::Act);
        let ack = |about| Input::Ack {
            about: NodeId(about),
            seq: SeqNo(1),
        };
        // 60 (keep) was pointed at 70, 70 (drop) at 60
        assert_eq!(lin.step(ack(70), 100).into_iter().count(), 0);
        let fx: Vec<_> = lin.step(ack(60), 100).into_iter().collect();
        assert_eq!(
            fx,
            vec![
                Effect::Delegated {
                    peer: NodeId(70),
                    edge: Some(70),
                },
                set_timer(2, Timer::Act),
                set_timer(48, Timer::Audit),
            ]
        );
        assert!(lin.locally_consistent());
        assert_eq!(lin.edge(NodeId(70)), None);
    }

    #[test]
    fn lost_ack_retries_the_unacked_half_with_backoff_then_abandons_it() {
        let mut lin = node(&[40, 60, 70, 80]);
        let fx = fire(&mut lin, Timer::Act);
        assert_eq!(fx[0], introduce(70, 80, 1, true, true));
        let retry = Timer::Retry(Side::Right, SeqNo(1));
        // keep (70, pointed at 80) acknowledges; drop's ack is lost
        let ack = Input::Ack {
            about: NodeId(80),
            seq: SeqNo(1),
        };
        assert_eq!(lin.step(ack, 100).into_iter().count(), 0);
        for attempt in 1..=4 {
            assert_eq!(
                fire(&mut lin, retry),
                vec![
                    introduce(70, 80, 1, false, true), // same seq, drop half only
                    set_timer(24 << attempt, retry),
                ]
            );
        }
        assert_eq!(
            fire(&mut lin, retry),
            vec![
                Effect::Abandon { peer: NodeId(80) },
                set_timer(2, Timer::Act),
                set_timer(48, Timer::Audit),
            ]
        );
        // the core dropped the handshake and nothing else: what becomes of
        // 80 is the protocol's call, and the next act starts over
        assert_eq!(lin.edge(NodeId(80)), Some(80));
        assert_eq!(
            fire(&mut lin, Timer::Act)[0],
            introduce(70, 80, 2, true, true)
        );
    }

    #[test]
    fn silent_handshake_abandons_both_endpoints_keep_first() {
        let mut lin = node(&[40, 60, 70]);
        fire(&mut lin, Timer::Act);
        let retry = Timer::Retry(Side::Right, SeqNo(1));
        for _ in 0..4 {
            assert_eq!(fire(&mut lin, retry)[0], introduce(60, 70, 1, true, true));
        }
        assert_eq!(
            fire(&mut lin, retry)[..2],
            [
                Effect::Abandon { peer: NodeId(60) },
                Effect::Abandon { peer: NodeId(70) },
            ]
        );
    }

    #[test]
    fn superseded_seq_is_a_no_op() {
        let mut lin = node(&[40, 60, 70]);
        fire(&mut lin, Timer::Act); // handshake #1 on the right
        let before = lin.clone();
        for stale in [SeqNo(0), SeqNo(2)] {
            assert_eq!(fire(&mut lin, Timer::Retry(Side::Right, stale)), vec![]);
            let ack = Input::Ack {
                about: NodeId(70),
                seq: stale,
            };
            assert_eq!(lin.step(ack, 100).into_iter().count(), 0);
        }
        // right seq, wrong side; right seq, unrelated node
        assert_eq!(fire(&mut lin, Timer::Retry(Side::Left, SeqNo(1))), vec![]);
        let ack = Input::Ack {
            about: NodeId(99),
            seq: SeqNo(1),
        };
        assert_eq!(lin.step(ack, 100).into_iter().count(), 0);
        assert_eq!(lin, before);
    }

    #[test]
    fn wrap_arbitration_table() {
        // across the wrap the *largest* address is the left slot's best ring
        // neighbor, the *smallest* the right slot's
        for (slot, first, better, worse) in [(Side::Left, 80, 90, 70), (Side::Right, 20, 10, 30)] {
            let mut lin = node(&[]);
            let (first, better, worse) = (NodeId(first), NodeId(better), NodeId(worse));
            // none
            assert_eq!(lin.offer_wrap(slot, first, 1), WrapVerdict::Installed);
            assert_eq!(lin.wrap(slot), Some((first, 1)));
            assert_eq!(lin.wrap(slot.opposite()), None);
            // same: re-installed over the offered edge
            assert_eq!(lin.offer_wrap(slot, first, 2), WrapVerdict::Installed);
            assert_eq!(lin.wrap_edge(first), Some(2));
            // worse: the holder stays
            let verdict = lin.offer_wrap(slot, worse, 3);
            assert_eq!(verdict, WrapVerdict::Redirect { holder: first });
            assert_eq!(lin.wrap(slot), Some((first, 2)));
            // better: the holder is displaced
            let verdict = lin.offer_wrap(slot, better, 4);
            let displaced = WrapVerdict::Replaced {
                old: first,
                old_edge: 2,
            };
            assert_eq!(verdict, displaced);
            assert_eq!(lin.wrap(slot), Some((better, 4)));
            assert_eq!(lin.ring_neighbor(slot), Some(better));
        }
    }

    #[test]
    fn a_side_that_gains_a_neighbor_demotes_its_wrap_edge() {
        let mut lin = node(&[60]);
        lin.set_wrap(Side::Left, NodeId(90), 9);
        lin.set_wrap(Side::Right, NodeId(10), 1);
        assert_eq!(lin.ring_neighbor(Side::Right), Some(NodeId(60)));
        let demoted = Effect::WrapDemoted {
            peer: NodeId(10),
            edge: 1,
        };
        assert_eq!(fire(&mut lin, Timer::Act), vec![demoted]);
        assert_eq!(lin.wrap(Side::Right), None);
        assert_eq!(lin.wrap(Side::Left), Some((NodeId(90), 9)));
    }

    #[test]
    fn discovery_waits_for_the_settle_delay_and_keeps_one_probe_out() {
        let mut lin = node(&[60]); // empty left side: seeks the maximum
        let act = |routable| Input::Timer {
            timer: Timer::Act,
            routable,
        };
        let run = |lin: &mut Linearizer<u8>, input, now| -> Vec<_> {
            lin.step(input, now).into_iter().collect()
        };
        // nobody to route toward yet: not even the timer
        assert_eq!(run(&mut lin, act(false), 3), vec![]);
        // too early: wake up when the settle delay is over
        assert_eq!(
            run(&mut lin, act(true), 3),
            vec![set_timer(5, Timer::Discover)]
        );
        assert_eq!(run(&mut lin, act(true), 4), vec![]);
        let discover = Input::Timer {
            timer: Timer::Discover,
            routable: true,
        };
        let probe = Effect::Probe {
            toward: Side::Right,
        };
        assert_eq!(
            run(&mut lin, discover, 8),
            vec![probe, set_timer(48, Timer::Discover)]
        );
        // outstanding until answered or the retry timer fires
        assert_eq!(run(&mut lin, act(true), 20), vec![]);
        lin.probe_answered(Side::Right);
        assert_eq!(run(&mut lin, act(true), 30), vec![probe]);
        assert_eq!(
            run(&mut lin, discover, 56),
            vec![probe, set_timer(48, Timer::Discover)]
        );
        // resolved: the acceptor took the left slot
        assert_eq!(
            lin.offer_wrap(Side::Left, NodeId(90), 9),
            WrapVerdict::Installed
        );
        assert_eq!(run(&mut lin, discover, 104), vec![]);
        // without ccw redundancy an empty right side is left alone
        let mut lin: Linearizer<u8> = Linearizer::new(NodeId(50), false);
        lin.adopt(NodeId(40), 4);
        assert_eq!(run(&mut lin, act(true), 100), vec![]);
    }

    /// The audit timer is armed once, by the first change, and re-armed by
    /// every round it fires: rounds over an unchanged structure announce
    /// and re-arm like the first, and a change while it is queued arms no
    /// second one.
    #[test]
    fn the_audit_timer_is_armed_once_and_never_stops() {
        let mut lin = node(&[60]);
        let changed = |lin: &mut Linearizer<u8>| -> Vec<_> {
            lin.step(Input::Changed, 100).into_iter().collect()
        };
        let rearm = set_timer(48, Timer::Audit);
        assert_eq!(changed(&mut lin), vec![set_timer(2, Timer::Act), rearm]);
        assert_eq!(changed(&mut lin), vec![]); // both already queued
        let announce = |peer: u64, seq| Effect::Announce {
            peer: NodeId(peer),
            edge: peer as u8,
            seq: SeqNo(seq),
        };
        for seq in 1..=5 {
            assert_eq!(fire(&mut lin, Timer::Audit), vec![announce(60, seq), rearm]);
        }
        // a change while the round is queued queues the act only
        fire(&mut lin, Timer::Act);
        lin.adopt(NodeId(55), 55);
        assert_eq!(changed(&mut lin), vec![set_timer(2, Timer::Act)]);
        assert_eq!(fire(&mut lin, Timer::Audit), vec![announce(55, 6), rearm]);
    }

    #[test]
    fn forget_and_retain_cover_side_sets_and_wrap_slots() {
        let mut lin = node(&[40, 60]);
        lin.set_wrap(Side::Left, NodeId(60), 9); // side neighbor and wrap partner
        lin.set_wrap(Side::Right, NodeId(10), 1);
        lin.forget(NodeId(60));
        assert_eq!(lin.edge(NodeId(60)), None);
        assert_eq!(lin.wrap(Side::Left), None);
        assert_eq!(lin.wrap(Side::Right), Some((NodeId(10), 1)));
        lin.retain(|peer, &edge| peer != NodeId(40) && edge != 1);
        assert!(lin.side(Side::Left).is_empty());
        assert_eq!(lin.wrap(Side::Right), None);
        assert_eq!(lin.remove(NodeId(40)), None);
        assert!(!lin.adopt(NodeId(50), 0), "a node is not its own neighbor");
    }
}
