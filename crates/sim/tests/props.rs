//! Property-based tests for the simulator's core guarantees: event
//! ordering, deterministic replay, and message conservation.

use proptest::prelude::*;
use ssr_graph::{generators, Graph};
use ssr_sim::event::{EventKind, EventQueue};
use ssr_sim::{Ctx, LinkConfig, Protocol, Simulator, Time};
use ssr_types::Rng;

#[derive(Clone)]
struct Gossip {
    fanout_left: u32,
    seen: u64,
}

#[derive(Clone, Debug)]
struct Token(u64);

impl Protocol for Gossip {
    type Msg = Token;
    fn on_init(&mut self, ctx: &mut Ctx<'_, Token>) {
        if self.fanout_left > 0 {
            ctx.broadcast(Token(1));
        }
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_, Token>, _from: usize, msg: Token) {
        self.seen = self.seen.wrapping_mul(31).wrapping_add(msg.0);
        if self.fanout_left > 0 {
            self.fanout_left -= 1;
            ctx.broadcast(Token(msg.0 + 1));
        }
    }
    fn reset(&mut self) {
        self.seen = 0;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn event_queue_pops_in_time_then_fifo_order(times in proptest::collection::vec(0u64..100, 1..200)) {
        let mut q: EventQueue<()> = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(Time(t), EventKind::Timer { node: i, token: 0 }, i as u64);
        }
        let mut last: Option<(u64, usize)> = None;
        let mut popped = 0;
        // FIFO among equal timestamps == insertion index increases
        let mut per_time_last: std::collections::BTreeMap<u64, usize> = Default::default();
        while let Some(ev) = q.pop() {
            popped += 1;
            if let Some((lt, _)) = last {
                prop_assert!(ev.at.ticks() >= lt);
            }
            if let EventKind::Timer { node, .. } = ev.kind {
                if let Some(&prev) = per_time_last.get(&ev.at.ticks()) {
                    prop_assert!(node > prev, "FIFO violated at t={}", ev.at.ticks());
                }
                per_time_last.insert(ev.at.ticks(), node);
                last = Some((ev.at.ticks(), node));
            }
        }
        prop_assert_eq!(popped, times.len());
    }

    #[test]
    fn replay_is_deterministic(seed: u64, n in 4usize..40, p in 0.05f64..0.3, fanout in 1u32..4) {
        let run = || {
            let mut rng = Rng::new(seed);
            let mut g: Graph = generators::gnp(n, p, &mut rng);
            generators::ensure_connected(&mut g, &mut rng);
            let protocols = vec![Gossip { fanout_left: fanout, seen: 0 }; n];
            let mut sim = Simulator::new(g, protocols, LinkConfig::jittered(1, 3), seed);
            sim.run_to_quiescence(100_000);
            let states: Vec<u64> = sim.protocols().iter().map(|p| p.seen).collect();
            (states, sim.metrics().counter("tx.total"), sim.now())
        };
        prop_assert_eq!(run(), run());
    }

    #[test]
    fn no_loss_means_rx_equals_tx(seed: u64, n in 4usize..30) {
        let mut rng = Rng::new(seed);
        let mut g: Graph = generators::gnp(n, 0.2, &mut rng);
        generators::ensure_connected(&mut g, &mut rng);
        let protocols = vec![Gossip { fanout_left: 2, seen: 0 }; n];
        let mut sim = Simulator::new(g, protocols, LinkConfig::ideal(), seed);
        let outcome = sim.run_to_quiescence(100_000);
        prop_assert!(outcome.is_quiescent());
        prop_assert_eq!(sim.metrics().counter("rx.total"), sim.metrics().counter("tx.total"));
    }

    #[test]
    fn lossy_links_conserve_messages(seed: u64, n in 4usize..30, drop in 0.05f64..0.5) {
        let mut rng = Rng::new(seed);
        let mut g: Graph = generators::gnp(n, 0.2, &mut rng);
        generators::ensure_connected(&mut g, &mut rng);
        let protocols = vec![Gossip { fanout_left: 2, seen: 0 }; n];
        let mut sim = Simulator::new(g, protocols, LinkConfig::lossy(drop), seed);
        sim.run_to_quiescence(100_000);
        let m = sim.metrics();
        // every transmission is delivered, dropped at send, or lost in flight
        prop_assert_eq!(
            m.counter("tx.total"),
            m.counter("rx.total") + m.counter("tx.dropped") + m.counter("tx.lost_in_flight")
        );
    }
}
