//! Execution-planner equivalence and accounting tests.
//!
//! The planner changes *when* work happens — one scene per layer, one
//! upload per row set, parallel rules issued ahead of collection — but
//! must never change *what* is reported. Every test here pits the
//! parallel engine against the sequential reference (each rule run to
//! completion before the next) and demands byte-identical canonical
//! violation sets, with and without injected device faults. The
//! sharing itself is pinned by absolute counts.

use odrc::{rule, Engine, EngineOptions, Mode, RuleDeck, Violation};
use odrc_layoutgen::{generate_layout, tech, DesignSpec};
use odrc_xpu::{Device, FaultPlan};
use proptest::prelude::*;

/// A deck with several rules per layer so the planner has sharing to
/// exploit: the two M1 spacing rules share one partitioned row set
/// (same layer, same distance), width + area share the M1 polygon
/// buffer, and the enclosure's outer scene is the M2 spacing scene.
fn shared_deck() -> RuleDeck {
    RuleDeck::new(vec![
        rule()
            .layer(tech::M1)
            .width()
            .greater_than(tech::M1_WIDTH)
            .named("M1.W.1"),
        rule()
            .layer(tech::M1)
            .area()
            .greater_than(tech::M1_AREA)
            .named("M1.A.1"),
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

fn engine(mode: Mode) -> Engine {
    let base = match mode {
        Mode::Sequential => Engine::sequential(),
        Mode::Parallel => Engine::parallel_on(Device::new(3)),
    };
    base.with_options(EngineOptions {
        retry_backoff_ms: 0,
        ..EngineOptions::default()
    })
}

fn check(layout: &odrc_db::Layout, mode: Mode) -> odrc::CheckReport {
    engine(mode).check(layout, &shared_deck())
}

#[test]
fn sequential_scene_memo_builds_each_layer_once() {
    let layout = generate_layout(&DesignSpec::tiny(31));
    // Two spacing rules on M1 and the enclosure reading M2: each
    // layer's scene is built exactly once per run.
    let deck = RuleDeck::new(vec![
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
    ]);
    let report = Engine::sequential().check(&layout, &deck);
    // Scene reads: M1 twice (the two spacing rules), M2 twice (space +
    // enclosure outer), V1 once (enclosure inner) — three builds, two
    // memo hits.
    assert_eq!(report.stats.scenes_built, 3, "one build per layer");
    assert_eq!(report.stats.scenes_reused, 2, "every re-read is a memo hit");
    assert_eq!(
        engine(Mode::Parallel).check(&layout, &deck).violations,
        report.violations
    );
}

#[test]
fn planner_shares_row_uploads_across_rules() {
    let layout = generate_layout(&DesignSpec::tiny(32));
    let m1_space = rule()
        .layer(tech::M1)
        .space()
        .greater_than(tech::M1_SPACE)
        .named("M1.S.1");
    // Same layer and distance as M1.S.1, so the same row-set key.
    let m1_space_projected = rule()
        .layer(tech::M1)
        .space()
        .when_projection_at_least(tech::M1_WIDTH)
        .greater_than(tech::M1_SPACE)
        .named("M1.S.2");
    let one = RuleDeck::new(vec![m1_space.clone()]);
    let two = RuleDeck::new(vec![m1_space, m1_space_projected]);
    let single = engine(Mode::Parallel).check(&layout, &one);
    let shared = engine(Mode::Parallel).check(&layout, &two);
    assert!(
        single.stats.bytes_uploaded > 0,
        "the first rule uploads its rows"
    );
    assert_eq!(
        shared.stats.bytes_uploaded, single.stats.bytes_uploaded,
        "a second rule on the same row set uploads nothing"
    );
    assert!(
        shared.stats.uploads_elided > single.stats.uploads_elided,
        "the second rule acquires the resident rows ({} vs {})",
        shared.stats.uploads_elided,
        single.stats.uploads_elided
    );
    assert_eq!(
        shared.violations,
        engine(Mode::Sequential).check(&layout, &two).violations
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// On generated designs, the planned parallel engine and the
    /// sequential per-rule loop report byte-identical canonical
    /// violations.
    #[test]
    fn prop_planner_matches_per_rule_loop(design_seed in 0u64..1_000) {
        let layout = generate_layout(&DesignSpec::tiny(design_seed));
        let baseline = check(&layout, Mode::Sequential).violations;
        let got = check(&layout, Mode::Parallel).violations;
        prop_assert_eq!(
            &got, &baseline,
            "parallel mode diverged on design seed {}",
            design_seed
        );
    }

    /// Under seeded fault schedules, the planned concurrent engine
    /// still reports exactly the fault-free sequential reference.
    #[test]
    fn prop_planner_survives_fault_injection(
        design_seed in 0u64..100,
        fault_seed in 0u64..200,
    ) {
        let layout = generate_layout(&DesignSpec::tiny(design_seed));
        let baseline: Vec<Violation> = check(&layout, Mode::Sequential).violations;
        let device = Device::new(3);
        device.set_fault_plan(Some(FaultPlan::from_seed(fault_seed, 6)));
        let report = Engine::parallel_on(device.clone())
            .with_options(EngineOptions {
                retry_backoff_ms: 0,
                ..EngineOptions::default()
            })
            .check(&layout, &shared_deck());
        prop_assert_eq!(
            &report.violations, &baseline,
            "fault seed {} changed the results on design {}",
            fault_seed, design_seed
        );
        prop_assert_eq!(
            report.stats.degraded(),
            device.faults_injected() > 0,
            "degradation must be reported iff faults fired"
        );
    }
}
