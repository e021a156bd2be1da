//! Dispatch-layer equivalence tests.
//!
//! The launch path runs on persistent pooled workers, fuses each rule's
//! per-row commands into batched stream dispatches, and replays recorded
//! launch graphs across rules. None of that may change *what* the
//! engine reports: every variant below must produce byte-identical
//! canonical violation sets against the plain sequential baseline,
//! across engine modes, host thread counts, and 25 seeded fault
//! schedules. Per-stream
//! fault-injection ordinals are part of the contract — a fused batch
//! ticks the same alloc/transfer/launch ordinals as the direct stream
//! calls it packs (pinned in the xpu stream tests) — but run-level
//! totals are scheduling-dependent, so here only the reported result is
//! asserted.

use odrc::{rule, Engine, EngineOptions, Mode, RuleDeck};
use odrc_layoutgen::{generate_layout, tech, DesignSpec};
use odrc_xpu::{Device, FaultPlan};

/// Several rules per layer so the planner has row sets to share — the
/// two M1 spacing rules replay one launch graph, width/area share the
/// polygon buffer, and M2 gets its own graph.
fn shared_deck() -> RuleDeck {
    RuleDeck::new(vec![
        rule()
            .layer(tech::M1)
            .width()
            .greater_than(tech::M1_WIDTH)
            .named("M1.W.1"),
        rule()
            .layer(tech::M1)
            .space()
            .greater_than(tech::M1_SPACE)
            .named("M1.S.1"),
        rule()
            .layer(tech::M1)
            .space()
            .when_projection_at_least(tech::M1_WIDTH)
            .greater_than(tech::M1_SPACE)
            .named("M1.S.2"),
        rule()
            .layer(tech::M2)
            .space()
            .greater_than(tech::M2_SPACE)
            .named("M2.S.1"),
        rule()
            .layer(tech::V1)
            .enclosed_by(tech::M2)
            .greater_than(tech::V1_M2_ENCLOSURE)
            .named("V1.M2.EN.1"),
    ])
}

fn options(host_threads: usize) -> EngineOptions {
    EngineOptions {
        host_threads: Some(host_threads),
        retry_backoff_ms: 0,
        ..EngineOptions::default()
    }
}

/// The full variant matrix: modes × host threads {1,2,8}, all against
/// the plain sequential baseline.
#[test]
fn dispatch_variants_are_byte_identical() {
    for design_seed in [7u64, 23] {
        let layout = generate_layout(&DesignSpec::tiny(design_seed));
        let deck = shared_deck();
        let baseline = Engine::sequential().check(&layout, &deck).violations;
        for mode in [Mode::Sequential, Mode::Parallel] {
            for host_threads in [1usize, 2, 8] {
                let engine = match mode {
                    Mode::Sequential => Engine::sequential(),
                    Mode::Parallel => Engine::parallel_on(Device::new(3)),
                };
                let got = engine
                    .with_options(options(host_threads))
                    .check(&layout, &deck)
                    .violations;
                assert_eq!(
                    got, baseline,
                    "design {design_seed} mode {mode:?} host_threads {host_threads} diverged"
                );
            }
        }
    }
}

/// Under 25 seeded fault schedules, the pooled parallel engine reports
/// the clean sequential baseline, with degradation accounted iff faults
/// actually fired. (The *per-stream* guarantee that a fused batch ticks
/// the same fault ordinals as direct stream calls is pinned by the xpu
/// stream tests; the *total* fired across a run is scheduling-dependent,
/// because concurrent streams race for the device-global ordinal
/// counter — only the reported result is contractual.)
#[test]
fn fault_seeds_agree_across_dispatch_variants() {
    let layout = generate_layout(&DesignSpec::tiny(11));
    let deck = shared_deck();
    let clean = Engine::sequential().check(&layout, &deck).violations;
    for fault_seed in 0u64..25 {
        let device = Device::new(3);
        device.set_fault_plan(Some(FaultPlan::from_seed(fault_seed, 6)));
        let report = Engine::parallel_on(device.clone())
            .with_options(options(2))
            .check(&layout, &deck);
        assert_eq!(
            report.violations, clean,
            "seed {fault_seed} changed the results"
        );
        assert_eq!(
            report.stats.degraded(),
            device.faults_injected() > 0,
            "seed {fault_seed}: degradation must be reported iff faults fired"
        );
    }
}

/// The dispatch counters surface through `EngineStats`: fused launches
/// in any parallel run, and graph replays whenever two rules share a row
/// set.
#[test]
fn dispatch_counters_are_reported() {
    let layout = generate_layout(&DesignSpec::tiny(5));
    let deck = shared_deck();
    let fused = Engine::parallel_on(Device::new(3))
        .with_options(options(1))
        .check(&layout, &deck);
    assert!(
        fused.stats.launches_fused > 0,
        "a parallel run must count fused launches"
    );
    assert!(
        fused.stats.graph_replays > 0,
        "the two M1 spacing rules share one row set, so the second \
         must replay the recorded graph"
    );
    assert_eq!(
        fused.violations,
        Engine::sequential().check(&layout, &deck).violations
    );
}
