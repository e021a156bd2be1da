//! Host-executor equivalence tests.
//!
//! The work-stealing host executor (`infra::host`) changes *where* the
//! hot host phases run — scene flattening, row partitioning, row
//! checking, edge packing, canonicalization fan out across worker
//! threads — but must never change *what* is reported. Every test here
//! pits multi-threaded runs against the single-threaded baseline
//! (`host_threads = 1`, which runs every fan-out inline on the caller)
//! and demands byte-identical canonical violation sets, across modes
//! and injected device faults.

use odrc::{rule, Engine, EngineOptions, Mode, RuleDeck, Violation};
use odrc_layoutgen::{generate_layout, tech, DesignSpec};
use odrc_xpu::{Device, FaultPlan};
use proptest::prelude::*;

/// Thread counts under test: the serial baseline, a minimal fan-out,
/// and an oversubscribed pool (more workers than this host has cores).
const THREADS: [usize; 3] = [1, 2, 8];

/// A deck touching every parallelized phase: spacing (partition, pack,
/// row checks), width/area (intra fan-out), and enclosure (gather).
fn deck() -> RuleDeck {
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

fn engine(mode: Mode, host_threads: usize) -> Engine {
    let base = match mode {
        Mode::Sequential => Engine::sequential(),
        Mode::Parallel => Engine::parallel_on(Device::new(3)),
    };
    base.with_options(EngineOptions {
        retry_backoff_ms: 0,
        host_threads: Some(host_threads),
        ..EngineOptions::default()
    })
}

fn check(layout: &odrc_db::Layout, mode: Mode, host_threads: usize) -> odrc::CheckReport {
    engine(mode, host_threads).check(layout, &deck())
}

/// Running the exact same configuration repeatedly must reproduce the
/// exact same violations — work stealing shifts tasks between workers
/// from run to run, but the ordered merge erases every trace of it.
#[test]
fn repeated_runs_are_deterministic() {
    let layout = generate_layout(&DesignSpec::tiny(77));
    for (mode, threads) in [(Mode::Sequential, 8), (Mode::Parallel, 8)] {
        let first = check(&layout, mode, threads);
        for _ in 0..4 {
            let again = check(&layout, mode, threads);
            assert_eq!(
                again.violations, first.violations,
                "mode {mode:?} with {threads} host threads is not deterministic"
            );
            if mode == Mode::Sequential {
                // No device pool in this mode, so the full stats line
                // is reproducible too (parallel-mode upload elision
                // depends on cross-stream timing).
                assert_eq!(again.stats.checks_computed, first.stats.checks_computed);
                assert_eq!(again.stats.checks_reused, first.stats.checks_reused);
                assert_eq!(again.stats.candidate_pairs, first.stats.candidate_pairs);
                assert_eq!(again.stats.host_tasks, first.stats.host_tasks);
            }
        }
    }
}

/// `host_threads = 1` runs the same tasks inline, so it never steals;
/// every thread count does the same deterministic work.
#[test]
fn task_accounting_tracks_thread_count() {
    let layout = generate_layout(&DesignSpec::tiny(78));
    let serial = check(&layout, Mode::Sequential, 1);
    assert!(
        serial.stats.host_tasks > 0,
        "the one-thread executor must run the host phases as inline tasks"
    );
    assert_eq!(serial.stats.host_steals, 0);
    let fanned = check(&layout, Mode::Sequential, 2);
    assert!(
        fanned.stats.host_tasks > 0,
        "a two-thread pool must route host phases through the executor"
    );
    assert_eq!(fanned.violations, serial.violations);
    assert_eq!(fanned.stats.work(), serial.stats.work());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// On generated designs, every host-thread count reports violations
    /// byte-identical to the single-threaded run, in both modes.
    #[test]
    fn prop_host_threads_match_serial(design_seed in 0u64..1_000) {
        let layout = generate_layout(&DesignSpec::tiny(design_seed));
        let baseline = check(&layout, Mode::Sequential, 1).violations;
        for mode in [Mode::Sequential, Mode::Parallel] {
            for threads in THREADS {
                let got = check(&layout, mode, threads).violations;
                prop_assert_eq!(
                    &got, &baseline,
                    "mode {:?} host_threads {} diverged on design seed {}",
                    mode, threads, design_seed
                );
            }
        }
    }

    /// Under a seeded fault schedule, multi-threaded runs still report
    /// exactly the fault-free baseline, and degradation is reported iff
    /// faults actually fired.
    #[test]
    fn prop_host_threads_survive_fault_injection(
        design_seed in 0u64..100,
        fault_seed in 0u64..200,
    ) {
        let layout = generate_layout(&DesignSpec::tiny(design_seed));
        let baseline: Vec<Violation> =
            check(&layout, Mode::Sequential, 1).violations;
        for threads in THREADS {
            let device = Device::new(3);
            device.set_fault_plan(Some(FaultPlan::from_seed(fault_seed, 6)));
            let report = Engine::parallel_on(device.clone())
                .with_options(EngineOptions {
                    retry_backoff_ms: 0,
                    host_threads: Some(threads),
                    ..EngineOptions::default()
                })
                .check(&layout, &deck());
            prop_assert_eq!(
                &report.violations, &baseline,
                "host_threads {} fault seed {} changed the results on design {}",
                threads, fault_seed, design_seed
            );
            prop_assert_eq!(
                report.stats.degraded(),
                device.faults_injected() > 0,
                "host_threads {}: degradation must be reported iff faults fired",
                threads
            );
        }
    }
}
