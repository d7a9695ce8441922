//! The adversary: per-direction link overrides, scheduled [`Fault`]s, and
//! applying them — the only code that writes the world's topology and liveness.

use super::{BTreeMap, CauseClass, EventKind, LinkConfig, Protocol, Simulator, Time, TraceEvent};
use crate::faults::Fault;

impl<P: Protocol> Simulator<P> {
    /// Overrides the link configuration for the single direction
    /// `from → to` — transmissions in that direction use `cfg` instead of
    /// the global default. Overriding only one direction yields asymmetric
    /// loss/latency; override both for a symmetric adversarial link.
    /// Installing an override for a non-existent edge is allowed (it
    /// simply applies once such an edge appears via `LinkUp`/`Join`).
    pub fn set_link_override(&mut self, from: usize, to: usize, cfg: LinkConfig) {
        assert!(from != to, "a link needs two distinct endpoints");
        self.link_overrides.insert((from, to), cfg);
    }

    /// Removes all per-direction link overrides (back to the global
    /// default).
    pub fn clear_link_overrides(&mut self) {
        self.link_overrides.clear();
    }

    /// Schedules a fault at absolute time `at` (must not be in the past).
    /// Fault events are provenance roots: every callback and message they
    /// trigger is attributed to [`CauseClass::FaultRepair`] (unless a
    /// protocol re-tags it).
    pub fn schedule_fault(&mut self, at: Time, fault: Fault) {
        assert!(at >= self.now, "fault scheduled in the past");
        let prov = self.alloc_prov(CauseClass::FaultRepair);
        self.queue
            .push(at, EventKind::Fault(Box::new(fault)), prov.id);
    }

    pub(super) fn apply_fault(&mut self, fault: Fault) {
        self.state_gen += 1;
        if self.trace.enabled() {
            self.trace.record(TraceEvent::Fault {
                at: self.now,
                desc: format!("{fault:?}"),
                prov: self.frame.expect("fault outside an event frame"),
            });
        }
        match fault {
            Fault::Crash { node } => {
                if !self.world.is_alive(node) {
                    return;
                }
                self.world.set_alive(node, false);
                self.metrics.incr("fault.crash");
                for v in self.world.live(node).to_vec() {
                    self.dispatch(v, |p, ctx| p.on_neighbor_down(ctx, node));
                }
            }
            Fault::Join { node, links } => {
                if self.world.is_alive(node) {
                    return;
                }
                // Sever any stale physical edges from before the crash, then
                // install the new ones.
                self.world.topo_mut().isolate(node);
                self.world.set_alive(node, true);
                self.metrics.incr("fault.join");
                let mut fresh = Vec::new();
                for l in links {
                    if l == node || l >= self.world.topo().node_count() {
                        continue;
                    }
                    if self.world.is_alive(l) {
                        self.world.topo_mut().add_edge(node, l);
                        fresh.push(l);
                    } else {
                        // The requested peer is down: the link cannot come
                        // up. Count it — a rejoin trace replaying stale
                        // links otherwise loses edges silently.
                        self.metrics.incr("fault.join_dead_link");
                    }
                }
                self.protocols[node].reset();
                self.dispatch(node, |p, ctx| p.on_init(ctx));
                for v in fresh {
                    self.dispatch(v, |p, ctx| p.on_neighbor_up(ctx, node));
                }
            }
            Fault::LinkDown { a, b } => {
                if self.world.topo_mut().remove_edge(a, b) {
                    self.metrics.incr("fault.link_down");
                    self.link_changed(a, b, false);
                }
            }
            Fault::LinkUp { a, b } => {
                if a != b
                    && self.world.is_alive(a)
                    && self.world.is_alive(b)
                    && self.world.topo_mut().add_edge(a, b)
                {
                    self.metrics.incr("fault.link_up");
                    self.link_changed(a, b, true);
                }
            }
            Fault::Partition { groups } => {
                self.metrics.incr("fault.partition");
                // Map each grouped node to its group id; nodes absent from
                // every group are unconstrained and keep all their links.
                let mut group_of: BTreeMap<usize, usize> = BTreeMap::new();
                for (gi, group) in groups.iter().enumerate() {
                    for &u in group {
                        group_of.insert(u, gi);
                    }
                }
                let cuts: Vec<(usize, usize)> = self
                    .world
                    .topo()
                    .edges()
                    .filter(|&(a, b)| match (group_of.get(&a), group_of.get(&b)) {
                        (Some(ga), Some(gb)) => ga != gb,
                        _ => false,
                    })
                    .collect();
                for (a, b) in cuts {
                    if self.world.topo_mut().remove_edge(a, b) {
                        self.metrics.incr("fault.partition_cut");
                        self.severed.push((a, b));
                        self.link_changed(a, b, false);
                    }
                }
            }
            Fault::Heal => {
                self.metrics.incr("fault.heal");
                let severed = std::mem::take(&mut self.severed);
                for (a, b) in severed {
                    if self.world.is_alive(a)
                        && self.world.is_alive(b)
                        && self.world.topo_mut().add_edge(a, b)
                    {
                        self.metrics.incr("fault.heal_link");
                        self.link_changed(a, b, true);
                    }
                }
            }
        }
    }

    /// Tells each live end of the link `a`–`b`, `a` first, that the link
    /// came up (`up`) or went down.
    fn link_changed(&mut self, a: usize, b: usize, up: bool) {
        for (u, v) in [(a, b), (b, a)] {
            if self.world.is_alive(u) {
                self.dispatch(u, |p, ctx| match up {
                    true => p.on_neighbor_up(ctx, v),
                    false => p.on_neighbor_down(ctx, v),
                });
            }
        }
    }
}
