//! The six workloads. Names are the contract with `BENCHMARK.json`.

use crate::common::{Config, Report};
use crate::span::Tracer;

pub mod abstract_linearize;
pub mod chaos_recovery;
pub mod greedy_routing;
pub mod sim_relay;
pub mod ssr_bootstrap;
pub mod vrr_bootstrap;

pub struct Workload {
    pub name: &'static str,
    /// Timed passes for `cfg.seconds`: the end-to-end metrics.
    pub untraced: fn(&Config) -> Report,
    /// One reference pass and the traced replays: the per-layer metrics.
    pub traced: fn(&Config, &mut Tracer) -> Report,
}

pub const ALL: [Workload; 6] = [
    Workload {
        name: "ssr_bootstrap",
        untraced: ssr_bootstrap::untraced,
        traced: ssr_bootstrap::traced,
    },
    Workload {
        name: "sim_relay",
        untraced: sim_relay::untraced,
        traced: sim_relay::traced,
    },
    Workload {
        name: "abstract_linearize",
        untraced: abstract_linearize::untraced,
        traced: abstract_linearize::traced,
    },
    Workload {
        name: "greedy_routing",
        untraced: greedy_routing::untraced,
        traced: greedy_routing::traced,
    },
    Workload {
        name: "chaos_recovery",
        untraced: chaos_recovery::untraced,
        traced: chaos_recovery::traced,
    },
    Workload {
        name: "vrr_bootstrap",
        untraced: vrr_bootstrap::untraced,
        traced: vrr_bootstrap::traced,
    },
];

pub fn find(name: &str) -> Result<&'static Workload, String> {
    ALL.iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload {name}"))
}
