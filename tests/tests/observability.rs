//! Observability guarantees, workspace-level: histogram merge laws,
//! percentile accuracy, and the determinism contract — two same-seed runs
//! must produce byte-identical JSONL traces and manifests, and the `obs`
//! diff must surface real differences between different-seed runs.

use proptest::prelude::*;
use ssr_core::bootstrap::{make_ssr_nodes, run_linearized_bootstrap, BootstrapConfig};
use ssr_core::routing::RoutingView;
use ssr_obs::Manifest;
use ssr_sim::{Histogram, LinkConfig, Simulator, Time, TraceSink};
use ssr_vrr::bootstrap::run_vrr_bootstrap;
use ssr_vrr::{VrrMode, VrrRoutingView};
use ssr_workloads::Topology;

fn hist_of(values: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for &v in values {
        h.observe(v);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Merging is bucketwise, so it must be associative and commutative,
    /// and merging per-seed histograms must equal histogramming the
    /// concatenated observations — the property the cross-seed manifest
    /// merge relies on.
    #[test]
    fn histogram_merge_is_associative_and_commutative(
        xs in proptest::collection::vec(any::<u64>(), 0..40),
        ys in proptest::collection::vec(any::<u64>(), 0..40),
        zs in proptest::collection::vec(any::<u64>(), 0..40),
    ) {
        let (a, b, c) = (hist_of(&xs), hist_of(&ys), hist_of(&zs));

        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(&ab_c, &a_bc);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba);

        let concat: Vec<u64> = xs.iter().chain(&ys).chain(&zs).copied().collect();
        prop_assert_eq!(&ab_c, &hist_of(&concat));
    }

    /// The percentile estimate always lands in the same log₂ bucket as the
    /// exact nearest-rank percentile (and never outside `[min, max]`).
    #[test]
    fn percentile_lands_in_the_exact_value_bucket(
        values in proptest::collection::vec(any::<u64>(), 1..80),
        q in 0.0f64..100.0,
    ) {
        let h = hist_of(&values);
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let rank = ((q / 100.0 * sorted.len() as f64).ceil() as usize).max(1);
        let exact = sorted[rank - 1];
        let est = h.percentile(q).unwrap();
        prop_assert_eq!(
            Histogram::bucket_index(est),
            Histogram::bucket_index(exact),
            "q={} exact={} est={}", q, exact, est
        );
        prop_assert!(est >= h.min().unwrap() && est <= h.max().unwrap());
    }
}

fn bootstrap_manifest(instance_seed: u64) -> Manifest {
    let topo = Topology::UnitDisk { n: 30, scale: 1.3 };
    let (g, labels) = topo.instance(instance_seed);
    let cfg = BootstrapConfig::default();
    let (report, sim) = run_linearized_bootstrap(&g, &labels, &cfg);
    assert!(report.converged);
    let mut man = Manifest::new("determinism_test");
    man.seed(instance_seed)
        .config("n", 30)
        .record_metrics(sim.metrics());
    for p in &report.timeline {
        man.timeline_point(ssr_obs::TimelinePoint {
            tick: p.tick,
            shape: p.shape.label(),
            locally_consistent: p.locally_consistent as u64,
            nodes: p.nodes as u64,
            churn: p.succ_churn as u64,
        });
    }
    man
}

/// Two runs with identical seeds and configuration must serialize to
/// byte-identical manifests (wall time is never recorded here).
#[test]
fn same_seed_runs_produce_byte_identical_manifests() {
    let a = bootstrap_manifest(7);
    let b = bootstrap_manifest(7);
    assert!(a.timeline_len() > 0, "timeline must be recorded");
    assert_eq!(a.to_json(), b.to_json());
}

/// Two runs with identical seeds streaming to JSONL files must produce
/// byte-identical traces.
#[test]
fn same_seed_runs_produce_byte_identical_jsonl_traces() {
    let dir = std::env::temp_dir().join("ssr_obs_determinism");
    std::fs::create_dir_all(&dir).unwrap();
    let run = |path: &std::path::Path| {
        let topo = Topology::UnitDisk { n: 20, scale: 1.3 };
        let (g, labels) = topo.instance(3);
        let sink = TraceSink::jsonl_file(path).unwrap();
        let cfg = BootstrapConfig::default();
        let nodes = make_ssr_nodes(&labels, cfg.ssr);
        let mut sim = Simulator::with_trace(g, nodes, LinkConfig::lossy(0.05), 3, sink.clone());
        sim.run_until(Time(400));
        sink.flush().unwrap();
        sink.len()
    };
    let pa = dir.join("a.jsonl");
    let pb = dir.join("b.jsonl");
    let la = run(&pa);
    let lb = run(&pb);
    assert_eq!(la, lb);
    assert!(la > 0, "the run must emit trace events");
    let ta = std::fs::read(&pa).unwrap();
    let tb = std::fs::read(&pb).unwrap();
    assert!(!ta.is_empty());
    assert_eq!(ta, tb, "same-seed JSONL traces must be byte-identical");
    // every line is valid JSON with the stable schema fields
    for line in String::from_utf8(ta).unwrap().lines() {
        let v = ssr_obs::parse(line).unwrap();
        assert!(
            v.get("ev").is_some() && v.get("at").is_some(),
            "bad line: {line}"
        );
    }
}

/// Nothing route-visible may depend on hasher seeding. The routing layers
/// hold no map, hashed or ordered — `RouteCache` is a destination-sorted row,
/// `RoutingView`/`VrrRoutingView` are address-sorted tables, route
/// loop-pruning is a scan — so determinism follows from sorted vectors.
/// This pins that down end to end: two same-seed runs — SSR and VRR alike —
/// must produce an *identical* per-pair routing transcript, not merely equal
/// aggregate stats.
#[test]
fn same_seed_routing_transcripts_are_identical() {
    fn ssr_transcript(seed: u64) -> String {
        let topo = Topology::UnitDisk { n: 24, scale: 1.3 };
        let (g, labels) = topo.instance(seed);
        let cfg = BootstrapConfig::default();
        let (report, sim) = run_linearized_bootstrap(&g, &labels, &cfg);
        assert!(report.converged);
        let view = RoutingView::new(sim.protocols());
        let mut out = String::new();
        for a in 0..24usize {
            for b in 0..24usize {
                let outcome = view.route(labels.id(a), labels.id(b), 96);
                out.push_str(&format!("{a}->{b} {outcome:?}\n"));
            }
        }
        out
    }
    fn vrr_transcript(seed: u64) -> String {
        let topo = Topology::UnitDisk { n: 16, scale: 1.3 };
        let (g, labels) = topo.instance(seed);
        let (report, sim) = run_vrr_bootstrap(
            &g,
            &labels,
            VrrMode::Linearized,
            LinkConfig::ideal(),
            seed,
            60_000,
        );
        assert!(report.converged);
        let view = VrrRoutingView::new(sim.protocols());
        let mut out = String::new();
        for a in 0..16usize {
            for b in 0..16usize {
                let outcome = view.route(labels.id(a), labels.id(b), 64);
                out.push_str(&format!("{a}->{b} {outcome:?}\n"));
            }
        }
        out
    }
    let ssr = ssr_transcript(11);
    assert!(
        ssr.contains("Delivered"),
        "SSR transcript must route something"
    );
    assert_eq!(
        ssr,
        ssr_transcript(11),
        "SSR routing must be seed-deterministic"
    );
    let vrr = vrr_transcript(11);
    assert!(
        vrr.contains("Delivered"),
        "VRR transcript must route something"
    );
    assert_eq!(
        vrr,
        vrr_transcript(11),
        "VRR routing must be seed-deterministic"
    );
}

/// Different-seed manifests must diff as *different*: counter deltas are
/// reported and the "no differences" path is not taken.
#[test]
fn diff_of_different_seed_manifests_reports_deltas() {
    let a = bootstrap_manifest(1);
    let b = bootstrap_manifest(2);
    let report = ssr_obs::diff(
        &ssr_obs::parse(&a.to_json()).unwrap(),
        &ssr_obs::parse(&b.to_json()).unwrap(),
    );
    assert!(
        !report.contains("no differences"),
        "different seeds must differ:\n{report}"
    );
    assert!(
        report.contains("tx.total"),
        "counter deltas must be reported:\n{report}"
    );
    // identical manifests still diff clean
    let clean = ssr_obs::diff(
        &ssr_obs::parse(&a.to_json()).unwrap(),
        &ssr_obs::parse(&a.to_json()).unwrap(),
    );
    assert!(clean.contains("no differences"), "{clean}");
}
