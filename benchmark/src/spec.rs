//! The names the benchmark emits: workloads, end-to-end metrics and
//! per-layer metrics, with units and directions. `BENCHMARK.json` declares
//! the same sets (plus the bounds); `ssr-benchmark check` fails when the
//! two drift apart.

use crate::json::{self, Value};

/// `BENCHMARK.json`, read when the benchmark is built.
const DECLARED: &str = include_str!("../../BENCHMARK.json");

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Higher,
    }
}

/// A metric a workload does not define is written as this in the driver's
/// result line, which wants every end-to-end metric on every workload and
/// none of them zero. `all` prints such a pair as `-`.
pub const NOT_DEFINED: f64 = 1.0;

/// Measured with tracing off.
pub const END_TO_END: [Metric; 10] = [
    lower("setup_s", "s"),
    lower("wall_s", "s"),
    higher("deliveries_per_s", "1/s"),
    higher("queries_per_s", "1/s"),
    lower("ticks_to_consistent", "ticks"),
    lower("msgs_per_node", "msgs"),
    lower("state_per_node", "entries"),
    lower("rounds_to_line", "rounds"),
    lower("route_stretch", "ratio"),
    lower("peak_rss_mb", "MB"),
];

/// Measured by the traced run. A metric a workload does not define reads 0
/// there: no time spent and nothing counted in that layer.
pub const PER_LAYER: [Metric; 85] = [
    // ssr-sim: the run loop
    lower("sim.run_s", "s"),
    lower("sim.self_s", "s"),
    lower("sim.self_ns_per_event", "ns"),
    lower("sim.ns_per_delivery", "ns"),
    lower("sim.events", "count"),
    lower("sim.deliveries", "count"),
    lower("sim.activations", "count"),
    lower("sim.peak_queue_depth", "count"),
    // ssr-core::node: handlers and messages
    lower("core.node.handler_s", "s"),
    lower("core.node.handler_ns_per_call", "ns"),
    lower("core.node.handler_s.hello", "s"),
    lower("core.node.handler_s.notify", "s"),
    lower("core.node.handler_s.ack", "s"),
    lower("core.node.handler_s.teardown", "s"),
    lower("core.node.handler_s.discover", "s"),
    lower("core.node.handler_s.timer", "s"),
    lower("core.node.msgs.hello", "count"),
    lower("core.node.msgs.notify", "count"),
    lower("core.node.msgs.ack", "count"),
    lower("core.node.msgs.teardown", "count"),
    lower("core.node.msgs.discover", "count"),
    lower("core.node.wasted_per_mille", "per_mille"),
    lower("core.node.rest_msgs_per_node_per_kilotick", "msgs"),
    lower("core.message.wire_bytes_per_msg", "bytes"),
    // ssr-core::consistency: the observer
    lower("core.consistency.check_s", "s"),
    lower("core.consistency.checks", "count"),
    lower("core.consistency.check_ring_us", "us"),
    // ssr-core::isprp: the flooding baseline (E6)
    higher("core.isprp.msgs_ratio", "ratio"),
    higher("core.isprp.ticks_ratio", "ratio"),
    higher("core.isprp.flood_msgs", "count"),
    // growth with n, and the tail seed
    lower("scaling.msgs_exponent", "exponent"),
    lower("scaling.ticks_exponent", "exponent"),
    lower("ticks_to_consistent.max", "ticks"),
    lower("msgs_per_node.max", "msgs"),
    // ssr-sim under the relay, and on its own
    lower("sim.relay.handler_ns_per_call", "ns"),
    lower("sim.relay.timers", "count"),
    lower("sim.idle_ns_per_grid_point", "ns"),
    lower("sim.event.push_pop_ns.dense", "ns"),
    lower("sim.event.push_pop_ns.sparse", "ns"),
    lower("sim.metrics.incr_ns", "ns"),
    lower("sim.metrics.observe_hist_ns", "ns"),
    // ssr-sim::link and faults under chaos
    lower("sim.link.dropped", "count"),
    lower("sim.link.dup", "count"),
    lower("sim.link.reordered", "count"),
    lower("sim.link.lost_in_flight", "count"),
    lower("sim.run_s.fault_window", "s"),
    lower("sim.run_s.recovery", "s"),
    lower("sim.watchdog.probes_fired", "count"),
    // ssr-vrr
    lower("vrr.node.handler_s", "s"),
    lower("vrr.node.handler_ns_per_call", "ns"),
    lower("vrr.node.msgs.hello", "count"),
    lower("vrr.node.msgs.notify", "count"),
    lower("vrr.node.msgs.ack", "count"),
    lower("vrr.node.msgs.teardown", "count"),
    lower("vrr.node.msgs.discover", "count"),
    lower("vrr.node.wasted_per_mille", "per_mille"),
    lower("vrr.table.entries_mean", "entries"),
    lower("vrr.table.entries_max", "entries"),
    lower("vrr.verdict.frozen_crossing", "count"),
    lower("vrr.verdict.frozen_stuck", "count"),
    lower("vrr.verdict.active", "count"),
    // ssr-linearize::engine
    lower("linearize.relabel_ms", "ms"),
    lower("linearize.round_ms.mean", "ms"),
    lower("linearize.round_ms.max", "ms"),
    lower("linearize.ns_per_edge_round", "ns"),
    lower("linearize.peak_degree", "count"),
    lower("linearize.peak_edges", "count"),
    // ssr-core::routing, cache and route
    lower("core.routing.view_build_ms", "ms"),
    lower("core.routing.ns_per_query.p50", "ns"),
    lower("core.routing.ns_per_query.p99", "ns"),
    lower("core.routing.virtual_hops_mean", "hops"),
    lower("core.routing.phys_hops_mean", "hops"),
    lower("core.cache.best_toward_ns", "ns"),
    lower("core.cache.insert_ns", "ns"),
    lower("core.cache.entries_mean", "entries"),
    lower("core.cache.entries_max", "entries"),
    lower("core.route.concat_ns", "ns"),
    // set-up, layer by layer
    lower("graph.instance_ms", "ms"),
    lower("graph.bfs_all_pairs_ms", "ms"),
    lower("core.bootstrap.make_nodes_ms", "ms"),
    lower("sim.new_ms", "ms"),
    // the cost of looking, and the two zero-or-broken counts
    lower("trace.overhead_pct", "%"),
    lower("trace.spans", "count"),
    lower("failed_share", "ratio"),
    lower("determinism_breaks", "count"),
];

/// What `BENCHMARK.json` declares.
pub struct Declared {
    pub workloads: Vec<String>,
    pub run_seconds: f64,
    /// (name, unit, better, bound)
    pub end_to_end: Vec<(String, String, String, f64)>,
    /// (name, unit, better)
    pub per_layer: Vec<(String, String, String)>,
}

impl Declared {
    pub fn load() -> Result<Declared, String> {
        let doc = json::parse(DECLARED)?;
        let text = |v: &Value, key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("BENCHMARK.json: entry without \"{key}\""))
        };
        let list = |key: &str| doc.get(key).map(Value::as_arr).unwrap_or_default();
        let mut declared = Declared {
            workloads: Vec::new(),
            run_seconds: doc
                .get("run_seconds")
                .and_then(Value::as_f64)
                .ok_or("BENCHMARK.json: no run_seconds")?,
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
        };
        for w in list("workloads") {
            declared.workloads.push(text(w, "name")?);
        }
        for m in list("end_to_end") {
            let bound = m
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or("BENCHMARK.json: end-to-end metric without a bound")?;
            declared.end_to_end.push((
                text(m, "name")?,
                text(m, "unit")?,
                text(m, "better")?,
                bound,
            ));
        }
        for m in list("per_layer") {
            declared
                .per_layer
                .push((text(m, "name")?, text(m, "unit")?, text(m, "better")?));
        }
        Ok(declared)
    }

    pub fn bound(&self, metric: &str) -> Option<f64> {
        self.end_to_end
            .iter()
            .find(|(name, ..)| name == metric)
            .map(|&(.., bound)| bound)
    }
}

/// Names are made of letters, digits, `_`, `.` and `-`.
pub fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}
