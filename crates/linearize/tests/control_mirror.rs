//! Mirror symmetry of the linearization control core: nothing in it may
//! prefer one end of the address space. Reflecting every identifier
//! (`x → MAX − x`) and swapping `Left`/`Right` in every input must yield
//! the reflected decisions — the same farthest pairs, retries, abandons,
//! demotions, probes, announcements and wrap verdicts. (Within one step
//! the core works right side first in *both* frames, so sequence numbers
//! and the order of a step's effects are not part of the symmetry; they
//! are erased and sorted away before comparing.)

use proptest::prelude::*;
use ssr_linearize::control::{Effect, Input, Linearizer, Timer, WrapVerdict};
use ssr_types::{NodeId, SeqNo, Side};

const SIDES: [Side; 2] = [Side::Left, Side::Right];
const ME: NodeId = NodeId(1 << 40);
const STALE: SeqNo = SeqNo(77_777);

fn reflect(id: NodeId) -> NodeId {
    NodeId(u64::MAX - id.0)
}

/// One linearizer driven in either the original or the reflected frame.
/// Everything crossing its boundary is expressed in the original frame.
struct Frame {
    lin: Linearizer<u64>,
    reflected: bool,
    /// Latest handshake per (original-frame) side: keep, drop and seq as
    /// *this* frame knows them.
    handshake: [Option<(NodeId, NodeId, SeqNo)>; 2],
}

impl Frame {
    fn new(reflected: bool) -> Self {
        let me = if reflected { reflect(ME) } else { ME };
        Frame {
            lin: Linearizer::new(me, true),
            reflected,
            handshake: [None; 2],
        }
    }

    /// Translates an id between this frame and the original (an involution).
    fn id(&self, id: NodeId) -> NodeId {
        if self.reflected {
            reflect(id)
        } else {
            id
        }
    }

    fn side(&self, side: Side) -> Side {
        if self.reflected {
            side.opposite()
        } else {
            side
        }
    }

    /// Steps and returns the effects in the original frame, sequence
    /// numbers erased, in a canonical order.
    fn step(&mut self, input: Input, now: u64) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for effect in self.lin.step(input, now) {
            let seen = match effect {
                Effect::SetTimer { delay, timer } => {
                    let timer = match timer {
                        Timer::Retry(side, _) => Timer::Retry(self.side(side), SeqNo::ZERO),
                        Timer::Act | Timer::Discover | Timer::Audit => timer,
                    };
                    Effect::SetTimer { delay, timer }
                }
                Effect::Introduce {
                    keep,
                    drop,
                    seq,
                    to_keep,
                    to_drop,
                } => {
                    let own = if keep < self.id(ME) {
                        Side::Left
                    } else {
                        Side::Right
                    };
                    self.handshake[self.side(own) as usize] = Some((keep, drop, seq));
                    Effect::Introduce {
                        keep: self.id(keep),
                        drop: self.id(drop),
                        seq: SeqNo::ZERO,
                        to_keep,
                        to_drop,
                    }
                }
                Effect::Delegated { peer, edge } => Effect::Delegated {
                    peer: self.id(peer),
                    edge,
                },
                Effect::WrapDemoted { peer, edge } => Effect::WrapDemoted {
                    peer: self.id(peer),
                    edge,
                },
                Effect::Abandon { peer } => Effect::Abandon {
                    peer: self.id(peer),
                },
                Effect::Probe { toward } => Effect::Probe {
                    toward: self.side(toward),
                },
                Effect::Announce { peer, edge, .. } => Effect::Announce {
                    peer: self.id(peer),
                    edge,
                    seq: SeqNo::ZERO,
                },
            };
            out.push(format!("{seen:?}"));
        }
        out.sort();
        out
    }

    /// Applies one scripted operation (given in the original frame) and
    /// reports what it did, in the original frame.
    fn apply(&mut self, pool: &[NodeId], (op, pick, now): (u8, u8, u64)) -> Vec<String> {
        let index = (pick >> 2) as usize % pool.len();
        let (peer, edge) = (self.id(pool[index]), index as u64);
        let orig_side = SIDES[(pick & 1) as usize];
        let side = self.side(orig_side);
        let handshake = self.handshake[orig_side as usize];
        let timer = |timer| Input::Timer {
            timer,
            routable: pick & 2 == 0,
        };
        match op {
            0 => vec![format!("adopt new={}", self.lin.adopt(peer, edge))],
            1 => {
                self.lin.forget(peer);
                vec![]
            }
            2 => self.step(Input::Changed, now),
            3 => self.step(timer(Timer::Act), now),
            4 => self.step(timer(Timer::Discover), now),
            5 => self.step(timer(Timer::Audit), now),
            6 => {
                let seq = handshake.map_or(STALE, |(_, _, seq)| seq);
                self.step(timer(Timer::Retry(side, seq)), now)
            }
            7 => {
                let (about, seq) = match handshake {
                    Some((keep, _, seq)) if pick & 2 == 0 => (keep, seq),
                    Some((_, drop, seq)) => (drop, seq),
                    None => (peer, STALE),
                };
                self.step(Input::Ack { about, seq }, now)
            }
            8 => {
                let verdict = match self.lin.offer_wrap(side, peer, edge) {
                    WrapVerdict::Installed => WrapVerdict::Installed,
                    WrapVerdict::Replaced { old, old_edge } => WrapVerdict::Replaced {
                        old: self.id(old),
                        old_edge,
                    },
                    WrapVerdict::Redirect { holder } => WrapVerdict::Redirect {
                        holder: self.id(holder),
                    },
                };
                vec![format!("{verdict:?}")]
            }
            _ => {
                self.lin.probe_answered(side);
                vec![]
            }
        }
    }

    /// The neighbor structure, in the original frame.
    fn structure(&self) -> Vec<String> {
        let mut out = Vec::new();
        for orig_side in SIDES {
            let side = self.side(orig_side);
            let mut members: Vec<(NodeId, u64)> = self
                .lin
                .side(side)
                .iter()
                .map(|&(peer, edge)| (self.id(peer), edge))
                .collect();
            members.sort();
            let wrap = self
                .lin
                .wrap(side)
                .map(|(peer, edge)| (self.id(peer), edge));
            let ring = self.lin.ring_neighbor(side).map(|peer| self.id(peer));
            out.push(format!(
                "{orig_side:?}: {members:?} wrap {wrap:?} ring {ring:?}"
            ));
        }
        out.push(format!("consistent {}", self.lin.locally_consistent()));
        out
    }
}

/// Distinct addresses on both sides of [`ME`].
fn pool() -> impl Strategy<Value = Vec<NodeId>> {
    proptest::collection::btree_set(1u64..60_000, 2..12).prop_map(|offsets| {
        offsets
            .into_iter()
            .map(|v| match v {
                0..=29_999 => NodeId(ME.0 - v),
                _ => NodeId(ME.0 + v - 29_999),
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn reflecting_ids_and_swapping_sides_reflects_every_decision(
        pool in pool(),
        script in proptest::collection::vec((0u8..10, any::<u8>(), 0u64..200), 1..80),
    ) {
        let mut original = Frame::new(false);
        let mut mirror = Frame::new(true);
        for (step, &op) in script.iter().enumerate() {
            let seen = original.apply(&pool, op);
            let reflected = mirror.apply(&pool, op);
            prop_assert_eq!(seen, reflected, "step {} {:?} diverged", step, op);
            prop_assert_eq!(original.structure(), mirror.structure());
        }
    }
}
