//! Protocol messages shared by the linearized SSR bootstrap and the ISPRP
//! baseline, plus a binary wire codec (bench B6 measures realistic header
//! cost — source routes travel in packet headers).
//!
//! Transport model: [`SsrMsg::Hello`] is a link-local broadcast;
//! [`SsrMsg::Flood`] is the (baseline-only) network flood;
//! [`SsrMsg::Forward`] is the source-routed envelope that carries every
//! end-to-end [`Payload`] hop by hop along an explicit route.
//!
//! The envelope is the one record of who sent a payload and of the way
//! back: its route starts at the sender, and no relay rewrites the hops up
//! to the holder, so the receiver reads the sender as `route[0]` and the
//! reversed route as a path to it. No payload names its sender.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use ssr_types::wire::{self, DecodeError};
use ssr_types::{NodeId, SeqNo, Side};

/// Which way a discovery probe travels around the address space.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Direction {
    /// Clockwise: launched by a node with an empty *left* set, seeking the
    /// ring's maximum.
    Cw,
    /// Counter-clockwise: launched by a node with an empty *right* set,
    /// seeking the ring's minimum (the paper's redundancy suggestion).
    Ccw,
}

impl Direction {
    /// The side of the address space the probe travels toward (clockwise is
    /// toward larger addresses).
    pub fn toward(self) -> Side {
        match self {
            Direction::Cw => Side::Right,
            Direction::Ccw => Side::Left,
        }
    }
}

impl From<Side> for Direction {
    /// The direction of a probe travelling toward `side`.
    fn from(side: Side) -> Direction {
        match side {
            Side::Right => Direction::Cw,
            Side::Left => Direction::Ccw,
        }
    }
}

/// End-to-end payloads delivered at the final node of a [`ForwardEnvelope`],
/// whose route names the sender.
#[derive(Clone, Debug, PartialEq)]
pub enum Payload {
    /// "Consider `target_route.last()` your virtual neighbor; here is a
    /// source route to it." The linearization workhorse (Section 4), sent
    /// by the node performing the step (v1). Naming the sender itself, it
    /// is an audit announcement.
    Notify {
        /// Route from the *receiver* to the introduced node.
        target_route: Vec<NodeId>,
        /// Handshake correlation.
        seq: SeqNo,
    },
    /// Acknowledgment of a [`Payload::Notify`], back to its sender.
    NotifyAck {
        /// The node the receiver was pointed to.
        about: NodeId,
        /// Echoed handshake correlation.
        seq: SeqNo,
    },
    /// "I removed my virtual edge to you — drop yours too": sent for a
    /// demoted ring-closure edge. A delegated edge is retired without it.
    Teardown,
    /// Ring-closure probe, greedily routed along the virtual line.
    Discover {
        /// The node with the empty neighbor set that launched the probe.
        origin: NodeId,
        /// Travel direction.
        dir: Direction,
    },
    /// Ring-closure acceptance by its sender — the believed max for CW,
    /// the believed min for CCW — source-routed back to the probe's origin
    /// along the reversed accumulated trace.
    CloseRing {
        /// Probe direction being answered.
        dir: Direction,
        /// The full physical route `origin → acceptor` (pruned trace).
        route: Vec<NodeId>,
    },
    /// ISPRP: "you are my successor" (baseline protocol), from the
    /// claimant.
    SuccNotify {
        /// Route from the receiver back to the claimant, the one it was
        /// sent along reversed.
        reply_route: Vec<NodeId>,
    },
    /// ISPRP: "your successor is `better`, not me" — carries a complete
    /// source route from the receiver to `better` (the paper's
    /// `B→A ++ A→C` construction, precomputed by the sender).
    SuccUpdate {
        /// The better successor.
        better: NodeId,
        /// Route from the receiver to `better`.
        route_to_better: Vec<NodeId>,
    },
    /// An application probe used by the routing experiments: carried
    /// greedily toward `target`.
    DataProbe {
        /// Final virtual destination.
        target: NodeId,
        /// Physical hops travelled so far: up to the start of this
        /// virtual hop in flight, raised on arrival by the route the
        /// envelope travelled (`node_util::receive_forward`).
        hops: u32,
    },
}

impl Payload {
    /// Whether envelopes carrying this payload record their physical trace
    /// (needed by discovery so the closing edge has a source route).
    pub fn wants_trace(&self) -> bool {
        matches!(self, Payload::Discover { .. })
    }

    /// Message kind for metrics (`ssr_sim::Protocol::kind`).
    pub fn kind(&self) -> &'static str {
        match self {
            Payload::Notify { .. } => "notify",
            Payload::NotifyAck { .. } => "ack",
            Payload::Teardown => "teardown",
            Payload::Discover { .. } | Payload::CloseRing { .. } => "discover",
            Payload::SuccNotify { .. } => "succ",
            Payload::SuccUpdate { .. } => "update",
            Payload::DataProbe { .. } => "data",
        }
    }

    /// The `e2e.*` counter an end-to-end send of this payload by `sender`
    /// is counted under: `e2e.` and its [`Payload::kind`], except that a
    /// notification naming its own sender — an audit announcement — is
    /// counted as `e2e.announce`, not with a handshake's introductions.
    pub fn e2e_key(&self, sender: NodeId) -> &'static str {
        match self {
            Payload::Notify { target_route, .. } if target_route.last() == Some(&sender) => {
                "e2e.announce"
            }
            Payload::Notify { .. } => "e2e.notify",
            Payload::NotifyAck { .. } => "e2e.ack",
            Payload::Teardown => "e2e.teardown",
            Payload::Discover { .. } | Payload::CloseRing { .. } => "e2e.discover",
            Payload::SuccNotify { .. } => "e2e.succ",
            Payload::SuccUpdate { .. } => "e2e.update",
            Payload::DataProbe { .. } => "e2e.data",
        }
    }
}

/// The source-routed transport envelope.
#[derive(Clone, Debug, PartialEq)]
pub struct ForwardEnvelope {
    /// The explicit route, first entry = originating virtual node (the
    /// payload's sender), last = destination virtual node. Relays only
    /// rewrite the hops after the holder.
    pub route: Vec<NodeId>,
    /// Index of the current holder within `route`.
    pub pos: usize,
    /// Accumulated physical trace since the original initiator (only
    /// maintained when `payload.wants_trace()`).
    pub trace: Vec<NodeId>,
    /// The end-to-end content.
    pub payload: Payload,
}

/// All messages exchanged by the SSR protocols.
#[derive(Clone, Debug, PartialEq)]
pub enum SsrMsg {
    /// Link-local neighbor discovery: "my address is `id`".
    ///
    /// `probe` asks the receiver to reply with its own hello even if it
    /// already knows the sender. Initial broadcasts and retries set it:
    /// adjacency knowledge must end up *mutual*, and without a solicited
    /// reply a node whose hellos were all lost could never repair the
    /// asymmetry — its peer, already satisfied, would stay silent forever.
    Hello {
        /// Sender's address.
        id: NodeId,
        /// Whether the sender requests a reply unconditionally.
        probe: bool,
    },
    /// Source-routed transport. The envelope lives on the heap, allocated
    /// once where the packet is born, so a relayed hop moves one pointer
    /// through the handler, the send and the event queue instead of the
    /// envelope's three vectors and payload.
    Forward(Box<ForwardEnvelope>),
    /// Network flood used by the ISPRP baseline's representative mechanism
    /// (this is exactly the message class linearization eliminates). Boxed
    /// like the envelope: only the baseline sends it, and inline it would
    /// double the size of every queued message.
    Flood(Box<Flood>),
}

/// The body of an [`SsrMsg::Flood`].
#[derive(Clone, Debug, PartialEq)]
pub struct Flood {
    /// The flood's origin (the self-believed representative).
    pub origin: NodeId,
    /// Physical trace from the origin to the current holder.
    pub trace: Vec<NodeId>,
}

impl SsrMsg {
    /// A flood from `origin` that has travelled `trace`.
    pub fn flood(origin: NodeId, trace: Vec<NodeId>) -> Self {
        SsrMsg::Flood(Box::new(Flood { origin, trace }))
    }
}

impl SsrMsg {
    /// Metrics kind (see `ssr_sim`'s per-kind counters).
    pub fn kind(&self) -> &'static str {
        match self {
            SsrMsg::Hello { .. } => "hello",
            SsrMsg::Forward(env) => env.payload.kind(),
            SsrMsg::Flood(_) => "flood",
        }
    }
}

// ---------------------------------------------------------------------------
// Wire codec
// ---------------------------------------------------------------------------

const TAG_HELLO: u8 = 0;
const TAG_FORWARD: u8 = 1;
const TAG_FLOOD: u8 = 2;

const PTAG_NOTIFY: u8 = 0;
const PTAG_NOTIFY_ACK: u8 = 1;
const PTAG_TEARDOWN: u8 = 2;
const PTAG_DISCOVER: u8 = 3;
const PTAG_CLOSE_RING: u8 = 4;
const PTAG_SUCC_NOTIFY: u8 = 5;
const PTAG_SUCC_UPDATE: u8 = 6;
const PTAG_DATA_PROBE: u8 = 7;

fn put_dir(buf: &mut BytesMut, dir: Direction) {
    buf.put_u8(match dir {
        Direction::Cw => 0,
        Direction::Ccw => 1,
    });
}

fn get_dir(buf: &mut Bytes) -> Result<Direction, DecodeError> {
    if buf.remaining() < 1 {
        return Err(DecodeError {
            context: "direction",
        });
    }
    match buf.get_u8() {
        0 => Ok(Direction::Cw),
        1 => Ok(Direction::Ccw),
        _ => Err(DecodeError {
            context: "direction tag",
        }),
    }
}

/// Encodes a message into `buf`.
pub fn encode(msg: &SsrMsg, buf: &mut BytesMut) {
    match msg {
        SsrMsg::Hello { id, probe } => {
            buf.put_u8(TAG_HELLO);
            wire::put_node_id(buf, *id);
            buf.put_u8(u8::from(*probe));
        }
        SsrMsg::Forward(env) => {
            buf.put_u8(TAG_FORWARD);
            wire::put_id_list(buf, &env.route);
            buf.put_u32(env.pos as u32);
            wire::put_id_list(buf, &env.trace);
            encode_payload(&env.payload, buf);
        }
        SsrMsg::Flood(flood) => {
            buf.put_u8(TAG_FLOOD);
            wire::put_node_id(buf, flood.origin);
            wire::put_id_list(buf, &flood.trace);
        }
    }
}

fn encode_payload(p: &Payload, buf: &mut BytesMut) {
    match p {
        Payload::Notify { target_route, seq } => {
            buf.put_u8(PTAG_NOTIFY);
            wire::put_id_list(buf, target_route);
            wire::put_seq(buf, *seq);
        }
        Payload::NotifyAck { about, seq } => {
            buf.put_u8(PTAG_NOTIFY_ACK);
            wire::put_node_id(buf, *about);
            wire::put_seq(buf, *seq);
        }
        Payload::Teardown => buf.put_u8(PTAG_TEARDOWN),
        Payload::Discover { origin, dir } => {
            buf.put_u8(PTAG_DISCOVER);
            wire::put_node_id(buf, *origin);
            put_dir(buf, *dir);
        }
        Payload::CloseRing { dir, route } => {
            buf.put_u8(PTAG_CLOSE_RING);
            put_dir(buf, *dir);
            wire::put_id_list(buf, route);
        }
        Payload::SuccNotify { reply_route } => {
            buf.put_u8(PTAG_SUCC_NOTIFY);
            wire::put_id_list(buf, reply_route);
        }
        Payload::SuccUpdate {
            better,
            route_to_better,
        } => {
            buf.put_u8(PTAG_SUCC_UPDATE);
            wire::put_node_id(buf, *better);
            wire::put_id_list(buf, route_to_better);
        }
        Payload::DataProbe { target, hops } => {
            buf.put_u8(PTAG_DATA_PROBE);
            wire::put_node_id(buf, *target);
            buf.put_u32(*hops);
        }
    }
}

/// Decodes a message from `buf`.
pub fn decode(buf: &mut Bytes) -> Result<SsrMsg, DecodeError> {
    if buf.remaining() < 1 {
        return Err(DecodeError {
            context: "message tag",
        });
    }
    match buf.get_u8() {
        TAG_HELLO => {
            let id = wire::get_node_id(buf)?;
            if buf.remaining() < 1 {
                return Err(DecodeError {
                    context: "hello probe flag",
                });
            }
            Ok(SsrMsg::Hello {
                id,
                probe: buf.get_u8() != 0,
            })
        }
        TAG_FORWARD => {
            let route = wire::get_id_list(buf)?;
            if buf.remaining() < 4 {
                return Err(DecodeError {
                    context: "envelope position",
                });
            }
            let pos = buf.get_u32() as usize;
            let trace = wire::get_id_list(buf)?;
            let payload = decode_payload(buf)?;
            Ok(SsrMsg::Forward(Box::new(ForwardEnvelope {
                route,
                pos,
                trace,
                payload,
            })))
        }
        TAG_FLOOD => {
            let origin = wire::get_node_id(buf)?;
            Ok(SsrMsg::flood(origin, wire::get_id_list(buf)?))
        }
        _ => Err(DecodeError {
            context: "message tag value",
        }),
    }
}

fn decode_payload(buf: &mut Bytes) -> Result<Payload, DecodeError> {
    if buf.remaining() < 1 {
        return Err(DecodeError {
            context: "payload tag",
        });
    }
    match buf.get_u8() {
        PTAG_NOTIFY => Ok(Payload::Notify {
            target_route: wire::get_id_list(buf)?,
            seq: wire::get_seq(buf)?,
        }),
        PTAG_NOTIFY_ACK => Ok(Payload::NotifyAck {
            about: wire::get_node_id(buf)?,
            seq: wire::get_seq(buf)?,
        }),
        PTAG_TEARDOWN => Ok(Payload::Teardown),
        PTAG_DISCOVER => Ok(Payload::Discover {
            origin: wire::get_node_id(buf)?,
            dir: get_dir(buf)?,
        }),
        PTAG_CLOSE_RING => Ok(Payload::CloseRing {
            dir: get_dir(buf)?,
            route: wire::get_id_list(buf)?,
        }),
        PTAG_SUCC_NOTIFY => Ok(Payload::SuccNotify {
            reply_route: wire::get_id_list(buf)?,
        }),
        PTAG_SUCC_UPDATE => Ok(Payload::SuccUpdate {
            better: wire::get_node_id(buf)?,
            route_to_better: wire::get_id_list(buf)?,
        }),
        PTAG_DATA_PROBE => {
            let target = wire::get_node_id(buf)?;
            if buf.remaining() < 4 {
                return Err(DecodeError {
                    context: "probe hops",
                });
            }
            Ok(Payload::DataProbe {
                target,
                hops: buf.get_u32(),
            })
        }
        _ => Err(DecodeError {
            context: "payload tag value",
        }),
    }
}

/// Encodes into a fresh buffer (convenience for tests and benches).
pub fn encode_to_bytes(msg: &SsrMsg) -> Bytes {
    let mut buf = BytesMut::new();
    encode(msg, &mut buf);
    buf.freeze()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u64]) -> Vec<NodeId> {
        v.iter().map(|&i| NodeId(i)).collect()
    }

    fn roundtrip(msg: SsrMsg) {
        let mut b = encode_to_bytes(&msg);
        let back = decode(&mut b).expect("decode");
        assert_eq!(back, msg);
        assert_eq!(b.remaining(), 0, "trailing bytes");
    }

    #[test]
    fn hello_roundtrip() {
        roundtrip(SsrMsg::Hello {
            id: NodeId(7),
            probe: false,
        });
        roundtrip(SsrMsg::Hello {
            id: NodeId(7),
            probe: true,
        });
    }

    #[test]
    fn all_payloads_roundtrip() {
        for payload in payloads() {
            roundtrip(SsrMsg::Forward(Box::new(ForwardEnvelope {
                route: ids(&[1, 2]),
                pos: 0,
                trace: if payload.wants_trace() {
                    ids(&[1])
                } else {
                    vec![]
                },
                payload,
            })));
        }
    }

    /// Every `e2e.*` key is registered, and only a notification naming its
    /// sender counts as an announcement.
    #[test]
    fn e2e_keys_are_registered_and_split_announcements() {
        for payload in payloads() {
            let key = payload.e2e_key(NodeId(1));
            assert!(ssr_sim::registry::is_canonical_key(key), "{key}");
        }
        let notify = |target: &[u64]| Payload::Notify {
            target_route: ids(target),
            seq: SeqNo(9),
        };
        assert_eq!(notify(&[2, 1]).e2e_key(NodeId(1)), "e2e.announce");
        assert_eq!(notify(&[2, 1, 3]).e2e_key(NodeId(1)), "e2e.notify");
        assert_eq!(notify(&[2, 1]).e2e_key(NodeId(3)), "e2e.notify");
    }

    /// One of every payload variant.
    fn payloads() -> Vec<Payload> {
        vec![
            Payload::Notify {
                target_route: ids(&[2, 1, 3]),
                seq: SeqNo(9),
            },
            Payload::NotifyAck {
                about: NodeId(3),
                seq: SeqNo(9),
            },
            Payload::Teardown,
            Payload::Discover {
                origin: NodeId(4),
                dir: Direction::Cw,
            },
            Payload::Discover {
                origin: NodeId(4),
                dir: Direction::Ccw,
            },
            Payload::CloseRing {
                dir: Direction::Cw,
                route: ids(&[4, 9, 30]),
            },
            Payload::SuccNotify {
                reply_route: ids(&[6, 5]),
            },
            Payload::SuccUpdate {
                better: NodeId(8),
                route_to_better: ids(&[6, 5, 8]),
            },
            Payload::DataProbe {
                target: NodeId(99),
                hops: 12,
            },
        ]
    }

    #[test]
    fn flood_roundtrip() {
        roundtrip(SsrMsg::flood(NodeId(42), ids(&[42, 3, 5])));
    }

    #[test]
    fn kinds() {
        assert_eq!(
            SsrMsg::Hello {
                id: NodeId(0),
                probe: false
            }
            .kind(),
            "hello"
        );
        assert_eq!(SsrMsg::flood(NodeId(0), vec![]).kind(), "flood");
        let env = |payload| {
            SsrMsg::Forward(Box::new(ForwardEnvelope {
                route: vec![],
                pos: 0,
                trace: vec![],
                payload,
            }))
        };
        assert_eq!(env(Payload::Teardown).kind(), "teardown");
        assert_eq!(
            env(Payload::Discover {
                origin: NodeId(0),
                dir: Direction::Cw
            })
            .kind(),
            "discover"
        );
        assert_eq!(
            env(Payload::DataProbe {
                target: NodeId(0),
                hops: 0
            })
            .kind(),
            "data"
        );
    }

    #[test]
    fn truncated_input_is_an_error_not_a_panic() {
        let full = encode_to_bytes(&SsrMsg::Forward(Box::new(ForwardEnvelope {
            route: ids(&[1, 2, 3]),
            pos: 1,
            trace: vec![],
            payload: Payload::Teardown,
        })));
        for cut in 0..full.len() {
            let mut b = full.slice(..cut);
            assert!(decode(&mut b).is_err(), "cut at {cut} decoded");
        }
    }

    #[test]
    fn only_discover_wants_trace() {
        assert!(Payload::Discover {
            origin: NodeId(0),
            dir: Direction::Cw
        }
        .wants_trace());
        assert!(!Payload::Teardown.wants_trace());
        assert!(!Payload::CloseRing {
            dir: Direction::Cw,
            route: vec![]
        }
        .wants_trace());
    }

    #[test]
    fn a_relayed_message_is_a_pointer() {
        // what every hop moves through the handler, `Ctx::send` and the
        // event queue; the envelope itself stays where `send_payload` put it
        assert!(std::mem::size_of::<SsrMsg>() <= 16);
        assert!(std::mem::size_of::<ssr_sim::event::EventKind<SsrMsg>>() <= 24);
    }

    /// One message per variant with the bytes the codec emits, written out:
    /// the wire moves only on purpose. A payload's sender is the envelope
    /// route's first hop, so no payload encodes it.
    #[test]
    fn wire_bytes_are_pinned() {
        let fwd = |payload: Payload| {
            SsrMsg::Forward(Box::new(ForwardEnvelope {
                route: ids(&[0x0a, 0x0b, 0x0c]),
                pos: 1,
                trace: if payload.wants_trace() {
                    ids(&[0x0a, 0x0b])
                } else {
                    vec![]
                },
                payload,
            }))
        };
        let table: Vec<(SsrMsg, &str)> = vec![
            (
                SsrMsg::Hello {
                    id: NodeId(0x0102_0304_0506_0708),
                    probe: true,
                },
                "00010203040506070801",
            ),
            (
                SsrMsg::flood(NodeId(42), ids(&[42, 3, 5])),
                "02000000000000002a00000003000000000000002a00000000000000030000000000000005",
            ),
            (
                fwd(Payload::Notify {
                    target_route: ids(&[2, 1, 3]),
                    seq: SeqNo(9),
                }),
                "0100000003000000000000000a000000000000000b000000000000000c0000000100000000000000000300000000000000020000000000000001000000000000000300000009",
            ),
            (
                fwd(Payload::NotifyAck {
                    about: NodeId(3),
                    seq: SeqNo(9),
                }),
                "0100000003000000000000000a000000000000000b000000000000000c000000010000000001000000000000000300000009",
            ),
            (
                fwd(Payload::Teardown),
                "0100000003000000000000000a000000000000000b000000000000000c000000010000000002",
            ),
            (
                fwd(Payload::Discover {
                    origin: NodeId(4),
                    dir: Direction::Ccw,
                }),
                "0100000003000000000000000a000000000000000b000000000000000c0000000100000002000000000000000a000000000000000b03000000000000000401",
            ),
            (
                fwd(Payload::CloseRing {
                    dir: Direction::Cw,
                    route: ids(&[4, 9, 30]),
                }),
                "0100000003000000000000000a000000000000000b000000000000000c000000010000000004000000000300000000000000040000000000000009000000000000001e",
            ),
            (
                fwd(Payload::SuccNotify {
                    reply_route: ids(&[6, 5]),
                }),
                "0100000003000000000000000a000000000000000b000000000000000c0000000100000000050000000200000000000000060000000000000005",
            ),
            (
                fwd(Payload::SuccUpdate {
                    better: NodeId(8),
                    route_to_better: ids(&[6, 5, 8]),
                }),
                "0100000003000000000000000a000000000000000b000000000000000c000000010000000006000000000000000800000003000000000000000600000000000000050000000000000008",
            ),
            (
                fwd(Payload::DataProbe {
                    target: NodeId(99),
                    hops: 12,
                }),
                "0100000003000000000000000a000000000000000b000000000000000c00000001000000000700000000000000630000000c",
            ),
        ];
        for (msg, want) in table {
            let hex: String = encode_to_bytes(&msg)
                .as_ref()
                .iter()
                .map(|b| format!("{b:02x}"))
                .collect();
            assert_eq!(hex, want, "{msg:?}");
            roundtrip(msg);
        }
    }
}
