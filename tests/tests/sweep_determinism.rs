//! The sweep orchestrator's headline guarantee, pinned end to end: a
//! merged experiment artifact — manifest JSON *and* the concatenated JSONL
//! event trace — is **byte-identical** across `--workers 1`, `2`, and `8`,
//! and independent of completion order (a deliberately slow first job
//! forces completion order ≠ input order).
//!
//! The matrix here is E11 (`exp_chaos`) in miniature: corrupted-start
//! recovery scenarios × network size × seed, each cell a sealed simulation
//! with the trace sink on. See docs/SWEEPS.md for the contract this test
//! enforces.

use std::sync::atomic::{AtomicUsize, Ordering};

use ssr_core::bootstrap::{make_ssr_nodes, BootstrapConfig};
use ssr_core::{chaos, consistency};
use ssr_obs::Manifest;
use ssr_sim::{trace::event_to_jsonl, LinkConfig, Metrics, Simulator, TraceSink};
use ssr_types::Rng;
use ssr_workloads::{run_matrix, Matrix, Topology};

/// One sweep cell: an E11-style corrupted-start recovery run with the
/// trace ledger on. Returns (recovery ticks, metrics registry, JSONL
/// trace lines) — everything a merged artifact is built from.
fn run_cell(scenario: &str, n: usize, seed: u64) -> (u64, Metrics, Vec<String>) {
    let topo = Topology::UnitDisk { n, scale: 1.4 };
    let (g, labels) = topo.instance(seed.wrapping_mul(41) ^ n as u64);
    let cfg = BootstrapConfig::default();
    let nodes = make_ssr_nodes(&labels, cfg.ssr);
    let sink = TraceSink::memory();
    let mut sim = Simulator::with_trace(g, nodes, LinkConfig::ideal(), seed, sink.clone());
    let succ = match scenario {
        "wound" => chaos::wound_ring_succ(labels.ids(), 2.min(n)),
        "split" => chaos::split_rings_succ(labels.ids(), 2),
        _ => chaos::random_succ(labels.ids(), &mut Rng::new(seed ^ 0xBEEF)),
    };
    chaos::apply_succ_corruption(&mut sim, &labels, &succ, true);
    let outcome = sim.run_until_stable(8, 100_000, |nodes, _| {
        consistency::check_ring(nodes).consistent()
    });
    assert!(
        outcome.is_quiescent(),
        "recovery failed ({scenario}, n={n}, seed={seed})"
    );
    let trace = sink.take().iter().map(event_to_jsonl).collect();
    (sim.now().ticks(), sim.metrics().clone(), trace)
}

/// The mini E11 matrix every test here sweeps.
fn matrix() -> Matrix {
    Matrix::new(["wound", "split", "random"], vec![10, 16], 3)
}

/// Builds the canonical merged artifact from a sweep's outputs: a manifest
/// (merged metrics + per-cell aggregates, no wall time) and the
/// job-order-concatenated JSONL trace.
fn artifact(sweep: &ssr_workloads::SweepOutcome<(u64, Metrics, Vec<String>)>) -> (String, String) {
    let mut man = Manifest::new("sweep_determinism");
    man.seed(sweep.matrix.seeds[0])
        .config("matrix", sweep.matrix.describe());
    man.record_metrics(&sweep.merge_metrics(|o| &o.1));
    for (scenario, n, cell) in sweep.cells() {
        let ticks: u64 = cell.iter().map(|c| c.0).sum();
        man.extra(&format!("{scenario}_n{n}_ticks"), ticks.into());
    }
    let trace: Vec<String> = sweep
        .outputs
        .iter()
        .flat_map(|o| o.2.iter().cloned())
        .collect();
    (man.to_json(), trace.join("\n"))
}

/// The tentpole guarantee: manifest bytes and trace bytes are identical at
/// worker counts 1, 2, and 8 — the schedule never reaches the artifact.
#[test]
fn merged_artifact_bytes_are_worker_count_independent() {
    let m = matrix();
    let (ref_json, ref_trace) = {
        let sweep = run_matrix(&m, 1, |job| run_cell(m.name(job), job.n, job.seed));
        artifact(&sweep)
    };
    assert!(ref_json.contains("wound_n10_ticks"));
    assert!(!ref_trace.is_empty(), "cells must emit trace events");
    for workers in [2, 8] {
        let sweep = run_matrix(&m, workers, |job| run_cell(m.name(job), job.n, job.seed));
        let (json, trace) = artifact(&sweep);
        assert_eq!(
            json, ref_json,
            "manifest bytes drifted at workers={workers}"
        );
        assert_eq!(trace, ref_trace, "trace bytes drifted at workers={workers}");
    }
}

/// Completion order is adversarial: the first job busy-waits until every
/// other job has finished, so it completes *last* — the artifact must not
/// move a byte, because results are collected by job index, not by
/// completion order.
#[test]
fn slow_first_job_cannot_reorder_the_artifact() {
    let m = matrix();
    let serial = {
        let sweep = run_matrix(&m, 1, |job| run_cell(m.name(job), job.n, job.seed));
        artifact(&sweep)
    };
    let done = AtomicUsize::new(0);
    let total = m.len();
    let sweep = run_matrix(&m, 4, |job| {
        if job.index == 0 {
            while done.load(Ordering::SeqCst) < total - 1 {
                std::hint::spin_loop();
            }
        }
        let out = run_cell(m.name(job), job.n, job.seed);
        done.fetch_add(1, Ordering::SeqCst);
        out
    });
    assert_eq!(artifact(&sweep), serial);
}

/// `--matrix` reshaping composes with the guarantee: an overridden matrix
/// is still byte-stable across worker counts and records its resolved
/// dimensions (never the worker count).
#[test]
fn overridden_matrix_is_byte_stable_too() {
    let mut m = matrix();
    m.override_with("scenario=wound,random;n=12;seeds=2")
        .unwrap();
    let run = |workers| {
        let sweep = run_matrix(&m, workers, |job| run_cell(m.name(job), job.n, job.seed));
        artifact(&sweep)
    };
    let (json, trace) = run(1);
    assert_eq!(run(8), (json.clone(), trace));
    assert!(json.contains("scenario=wound,random;n=12;seed=0,1"));
    assert!(!json.contains("workers"));
}
