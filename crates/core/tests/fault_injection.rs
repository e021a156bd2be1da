//! Fault-injection integration tests: the engine must survive every
//! device failure the fault injector can produce, degrade gracefully
//! to the host, and report *identical* violations to a fault-free run.
//!
//! The property test at the bottom is the PR's acceptance gate: 100
//! seeded fault schedules across the paper's `uart` and `aes` layouts,
//! each compared byte-for-byte against the fault-free parallel run.

use odrc::{rule, Engine, EngineOptions, RuleDeck};
use odrc_layoutgen::{generate_layout, tech, DesignSpec};
use odrc_xpu::{Device, Fault, FaultPlan};

/// A deck exercising every parallel code path: the row-pipelined space
/// kernels, the per-polygon intra kernels (width, area, rectilinear),
/// and the pair-based enclosure and overlap kernels.
fn deck() -> RuleDeck {
    RuleDeck::new(vec![
        rule()
            .layer(tech::M2)
            .width()
            .greater_than(tech::M2_WIDTH)
            .named("M2.W.1"),
        rule()
            .layer(tech::M1)
            .area()
            .greater_than(tech::M1_AREA)
            .named("M1.A.1"),
        rule()
            .layer(tech::M2)
            .space()
            .greater_than(tech::M2_SPACE)
            .named("M2.S.1"),
        rule()
            .layer(tech::M3)
            .space()
            .greater_than(tech::M3_SPACE)
            .named("M3.S.1"),
        rule()
            .layer(tech::V1)
            .enclosed_by(tech::M2)
            .greater_than(tech::V1_M2_ENCLOSURE)
            .named("V1.M2.EN.1"),
        rule()
            .layer(tech::V1)
            .overlapping(tech::M2)
            .area_at_least(100)
            .named("V1.M2.OVL.1"),
    ])
}

fn parallel_engine(device: Device) -> Engine {
    // Fast test turnaround: retries are exercised, but backoff stays
    // sub-millisecond.
    Engine::parallel_on(device).with_options(EngineOptions {
        retry_backoff_ms: 0,
        ..EngineOptions::default()
    })
}

/// Checks `layout` on a faulted device and asserts the degraded run
/// matches the fault-free `baseline` exactly.
fn check_with_plan(
    layout: &odrc_db::Layout,
    baseline: &[odrc::Violation],
    plan: FaultPlan,
    label: &str,
) -> odrc::EngineStats {
    let device = Device::new(3);
    device.set_fault_plan(Some(plan));
    let report = parallel_engine(device).check(layout, &deck());
    assert_eq!(
        report.violations, baseline,
        "{label}: degraded run must match the fault-free violation set"
    );
    report.stats
}

#[test]
fn fault_free_run_reports_no_degradation() {
    let layout = generate_layout(&DesignSpec::tiny(21));
    let report = parallel_engine(Device::new(3)).check(&layout, &deck());
    assert_eq!(report.stats.device_retries, 0);
    assert_eq!(report.stats.device_fallbacks, 0);
    assert!(!report.stats.degraded());
}

#[test]
fn engine_survives_injected_oom() {
    let layout = generate_layout(&DesignSpec::tiny(22));
    let baseline = parallel_engine(Device::new(3)).check(&layout, &deck());
    let plan = FaultPlan::new()
        .with(Fault::AllocOom { nth: 0 })
        .with(Fault::AllocOom { nth: 1 })
        .with(Fault::AllocOom { nth: 5 });
    let stats = check_with_plan(&layout, &baseline.violations, plan, "oom");
    assert!(
        stats.degraded(),
        "injected OOMs must be visible in the stats"
    );
}

#[test]
fn engine_survives_injected_kernel_panics() {
    let layout = generate_layout(&DesignSpec::tiny(23));
    let baseline = parallel_engine(Device::new(3)).check(&layout, &deck());
    let plan = FaultPlan::new()
        .with(Fault::KernelPanic {
            kernel: 0,
            thread: 0,
        })
        .with(Fault::KernelPanic {
            kernel: 2,
            thread: 1,
        })
        .with(Fault::KernelPanic {
            kernel: 3,
            thread: 0,
        });
    let stats = check_with_plan(&layout, &baseline.violations, plan, "kernel-panic");
    assert!(stats.degraded());
}

#[test]
fn engine_survives_injected_stream_stalls() {
    let layout = generate_layout(&DesignSpec::tiny(24));
    let baseline = parallel_engine(Device::new(3)).check(&layout, &deck());
    let plan = FaultPlan::new()
        .with(Fault::StreamStall { nth: 0 })
        .with(Fault::StreamStall { nth: 3 })
        .with(Fault::StreamStall { nth: 7 });
    let stats = check_with_plan(&layout, &baseline.violations, plan, "stream-stall");
    assert!(stats.degraded());
}

#[test]
fn engine_survives_injected_transfer_failures() {
    let layout = generate_layout(&DesignSpec::tiny(25));
    let baseline = parallel_engine(Device::new(3)).check(&layout, &deck());
    let plan = FaultPlan::new()
        .with(Fault::TransferFail { nth: 0 })
        .with(Fault::TransferFail { nth: 2 })
        .with(Fault::TransferFail { nth: 4 });
    let stats = check_with_plan(&layout, &baseline.violations, plan, "transfer-fail");
    assert!(stats.degraded());
}

#[test]
fn engine_survives_memory_budget_exhaustion() {
    // A budget too small for any real row forces every device
    // allocation down the OOM path; the engine must complete entirely
    // on the host with identical results.
    let layout = generate_layout(&DesignSpec::tiny(26));
    let baseline = parallel_engine(Device::new(3)).check(&layout, &deck());
    let device = Device::with_budget(3, 256);
    let report = parallel_engine(device).check(&layout, &deck());
    assert_eq!(report.violations, baseline.violations);
    assert!(
        report.stats.device_fallbacks > 0,
        "a starved device must fall back to the host"
    );
}

#[test]
fn sequential_mode_ignores_device_faults() {
    // The sequential engine never touches the device: a hostile plan
    // on its (unused) device changes nothing.
    let layout = generate_layout(&DesignSpec::tiny(27));
    let baseline = Engine::sequential().check(&layout, &deck());
    let engine = Engine::sequential();
    engine
        .device()
        .set_fault_plan(Some(FaultPlan::from_seed(99, 32)));
    let report = engine.check(&layout, &deck());
    assert_eq!(report.violations, baseline.violations);
    assert!(!report.stats.degraded());
}

/// The acceptance property: for 100 seeded fault schedules across the
/// paper's `uart` and `aes` designs, the degraded engine produces a
/// violation set byte-identical to the fault-free parallel run, and
/// the stats report retries/fallbacks exactly when faults actually
/// fired.
///
/// Every schedule is also replayed through the out-of-core sharded
/// path, where shard loads tick the device's [`Fault::AllocFail`]
/// schedule: a fired fault degrades that load to build-check-drop, and
/// the violation set must still match byte for byte. The sweep asserts
/// at least one schedule per design actually degraded a shard load, so
/// the `AllocFail` arm of [`FaultPlan::from_seed`] cannot go dormant.
#[test]
fn property_seeded_fault_schedules_preserve_results() {
    // `uart` is cheap, `aes` is the big design: split the 100 seeds to
    // keep debug-mode runtime reasonable while still hammering the
    // large layout.
    let designs = [("uart", 80u64..160), ("aes", 0u64..20)];
    for (name, seeds) in designs {
        let spec = DesignSpec::paper(name).expect("paper design");
        let layout = generate_layout(&spec);
        let deck = deck();
        let baseline = parallel_engine(Device::new(3)).check(&layout, &deck);
        assert!(
            !baseline.violations.is_empty(),
            "{name}: paper designs carry injected violations"
        );
        assert!(!baseline.stats.degraded());
        let mut seeds_fired = 0usize;
        let mut shards_degraded = 0usize;
        let total_seeds = seeds.clone().count();
        for seed in seeds {
            let device = Device::new(3);
            device.set_fault_plan(Some(FaultPlan::from_seed(seed, 6)));
            let report = parallel_engine(device.clone()).check(&layout, &deck);
            assert_eq!(
                report.violations, baseline.violations,
                "{name} seed {seed}: fault injection changed the results"
            );
            let fired = device.faults_injected() > 0;
            seeds_fired += usize::from(fired);
            assert_eq!(
                report.stats.degraded(),
                fired,
                "{name} seed {seed}: stats must report degradation iff faults fired \
                 (injected={}, retries={}, fallbacks={})",
                device.faults_injected(),
                report.stats.device_retries,
                report.stats.device_fallbacks
            );

            // The same schedule through the out-of-core sharded path:
            // cache-missing shard loads consume the AllocFail faults.
            let ooc_device = Device::new(3);
            ooc_device.set_fault_plan(Some(FaultPlan::from_seed(seed, 6)));
            let ooc = Engine::parallel_on(ooc_device)
                .with_options(EngineOptions {
                    retry_backoff_ms: 0,
                    out_of_core: true,
                    shard_rows: Some(2),
                    ..EngineOptions::default()
                })
                .check(&layout, &deck);
            assert_eq!(
                ooc.violations, baseline.violations,
                "{name} seed {seed}: out-of-core fault injection changed the results"
            );
            shards_degraded += ooc.stats.shards_degraded;
        }
        // The property must not hold vacuously: the seeded schedules
        // target small ordinal ranges precisely so most of them hit.
        assert!(
            seeds_fired * 2 > total_seeds,
            "{name}: only {seeds_fired}/{total_seeds} schedules fired any fault"
        );
        assert!(
            shards_degraded > 0,
            "{name}: no seeded AllocFail ever degraded a shard load"
        );
    }
}

/// Delta re-checks run each rule issue → collect → recovery drain on a
/// fresh stream of its own. Under 25 seeded fault schedules a parallel
/// `check_delta` must still equal the clean full check of the edited
/// layout, and report degradation iff faults fired.
#[test]
fn parallel_delta_survives_seeded_fault_schedules() {
    use odrc_db::LayerPolygon;
    use odrc_geometry::{Point, Polygon, Rect, Transform};

    let old = generate_layout(&DesignSpec::paper("uart").expect("paper design"));
    // Two edits: shift the first top-level placement, and drop a small
    // M2 shape in the middle of the die.
    let mut new = old.clone();
    let top = new.top();
    let moved = new.cell(top).refs()[0]
        .transform
        .then(&Transform::translation(Point::new(7, 0)));
    new.move_ref(top, 0, moved).expect("valid move");
    let mbr = new.cell(top).mbr().expect("non-empty design");
    let (cx, cy) = ((mbr.lo().x + mbr.hi().x) / 2, (mbr.lo().y + mbr.hi().y) / 2);
    new.add_polygon(
        top,
        LayerPolygon {
            layer: tech::M2,
            datatype: 0,
            polygon: Polygon::rect(Rect::from_coords(cx, cy, cx + 30, cy + 12)),
            name: None,
        },
    )
    .expect("valid polygon");

    let deck = deck();
    let base = parallel_engine(Device::new(3)).check(&old, &deck);
    let full = parallel_engine(Device::new(3)).check(&new, &deck);
    let mut seeds_fired = 0usize;
    for seed in 0u64..25 {
        let device = Device::new(3);
        device.set_fault_plan(Some(FaultPlan::from_seed(seed, 6)));
        let report =
            parallel_engine(device.clone()).check_delta(&old, &base.violations, &new, &deck);
        assert!(!report.dirty.is_empty(), "the edits must dirty the layout");
        assert_eq!(
            report.violations, full.violations,
            "seed {seed}: faulted delta re-check diverged from the clean full check"
        );
        let fired = device.faults_injected() > 0;
        seeds_fired += usize::from(fired);
        assert_eq!(
            report.stats.degraded(),
            fired,
            "seed {seed}: degradation must be reported iff faults fired"
        );
    }
    assert!(seeds_fired > 0, "no seeded schedule fired any fault");
}
