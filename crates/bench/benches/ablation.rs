//! Criterion benches for the ablations: interval merging variants,
//! overlap reporting variants, and engine options.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use odrc::{Engine, EngineOptions};
use odrc_bench::{load_designs, no_partition, no_pruning, space_rules};
use odrc_geometry::Rect;
use odrc_infra::merge::{merge_pigeonhole, merge_sorted};
use odrc_infra::sweep::{brute_force_overlap_pairs, sweep_overlap_pairs};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

fn bench_merge(c: &mut Criterion) {
    let mut group = c.benchmark_group("merge");
    group.sample_size(20);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    let mut rng = StdRng::seed_from_u64(3);
    for &(k, n) in &[(50_000usize, 64usize), (50_000, 4096)] {
        let intervals: Vec<(usize, usize)> = (0..k)
            .map(|_| {
                let a = rng.gen_range(0..n);
                (a, rng.gen_range(a..n))
            })
            .collect();
        group.bench_with_input(
            BenchmarkId::new("pigeonhole", format!("k{k}-n{n}")),
            &intervals,
            |b, iv| b.iter(|| merge_pigeonhole(n, iv.iter().copied())),
        );
        group.bench_with_input(
            BenchmarkId::new("sorted", format!("k{k}-n{n}")),
            &intervals,
            |b, iv| b.iter(|| merge_sorted(iv.clone())),
        );
    }
    group.finish();
}

fn bench_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("overlap");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    let mut rng = StdRng::seed_from_u64(4);
    for &n in &[500usize, 2000] {
        let rects: Vec<Rect> = (0..n)
            .map(|_| {
                let x = rng.gen_range(-10_000..10_000);
                let y = rng.gen_range(-10_000..10_000);
                Rect::from_coords(x, y, x + rng.gen_range(1..200), y + rng.gen_range(1..200))
            })
            .collect();
        group.bench_with_input(BenchmarkId::new("sweepline", n), &rects, |b, r| {
            b.iter(|| sweep_overlap_pairs(r))
        });
        group.bench_with_input(BenchmarkId::new("quadratic", n), &rects, |b, r| {
            b.iter(|| brute_force_overlap_pairs(r))
        });
    }
    group.finish();
}

fn bench_spatial_indices(c: &mut Criterion) {
    use odrc_infra::RTree;
    let mut group = c.benchmark_group("spatial-index");
    group.sample_size(20);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    let mut rng = StdRng::seed_from_u64(5);
    let n = 20_000usize;
    let rects: Vec<Rect> = (0..n)
        .map(|_| {
            let x = rng.gen_range(-100_000..100_000);
            let y = rng.gen_range(-100_000..100_000);
            Rect::from_coords(x, y, x + rng.gen_range(1..500), y + rng.gen_range(1..500))
        })
        .collect();
    let windows: Vec<Rect> = (0..200)
        .map(|_| {
            let x = rng.gen_range(-100_000..100_000);
            let y = rng.gen_range(-100_000..100_000);
            Rect::from_coords(x, y, x + 2000, y + 2000)
        })
        .collect();
    group.bench_function("rtree-build", |b| b.iter(|| RTree::bulk_load(&rects)));
    let rtree = RTree::bulk_load(&rects);
    group.bench_function("rtree-200-queries", |b| {
        b.iter(|| windows.iter().map(|&w| rtree.query(w).len()).sum::<usize>())
    });
    group.bench_function("linear-200-queries", |b| {
        b.iter(|| {
            windows
                .iter()
                .map(|&w| rects.iter().filter(|r| r.overlaps(w)).count())
                .sum::<usize>()
        })
    });
    group.finish();
}

fn bench_region_ops(c: &mut Criterion) {
    use odrc_infra::Region;
    let mut group = c.benchmark_group("region");
    group.sample_size(20);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    let mut rng = StdRng::seed_from_u64(6);
    let make = |rng: &mut StdRng, n: usize| -> Vec<Rect> {
        (0..n)
            .map(|_| {
                let x = rng.gen_range(-5_000..5_000);
                let y = rng.gen_range(-5_000..5_000);
                Rect::from_coords(x, y, x + rng.gen_range(1..300), y + rng.gen_range(1..300))
            })
            .collect()
    };
    let ra = make(&mut rng, 2000);
    let rb = make(&mut rng, 2000);
    group.bench_function("from-2000-rects", |b| {
        b.iter(|| Region::from_rects(ra.iter().copied()))
    });
    let a = Region::from_rects(ra.iter().copied());
    let b_reg = Region::from_rects(rb.iter().copied());
    group.bench_function("union", |b| b.iter(|| a.union(&b_reg)));
    group.bench_function("intersection", |b| b.iter(|| a.intersection(&b_reg)));
    group.finish();
}

fn bench_engine_options(c: &mut Criterion) {
    let designs = load_designs(Some("uart"));
    let d = &designs[0];
    let rule = &space_rules()[0]; // M1.S.1: the hierarchical one
    let mut group = c.benchmark_group("engine-options");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    group.bench_function("seq-baseline", |b| {
        b.iter(|| Engine::sequential().check(&d.layout, &rule.deck))
    });
    group.bench_function("seq-no-pruning", |b| {
        b.iter(|| {
            Engine::sequential()
                .with_options(no_pruning())
                .check(&d.layout, &rule.deck)
        })
    });
    group.bench_function("seq-no-partition", |b| {
        b.iter(|| {
            Engine::sequential()
                .with_options(no_partition())
                .check(&d.layout, &rule.deck)
        })
    });
    group.bench_function("par-sweep-executor", |b| {
        b.iter(|| {
            Engine::parallel()
                .with_options(EngineOptions {
                    sweep_threshold: 0,
                    ..EngineOptions::default()
                })
                .check(&d.layout, &rule.deck)
        })
    });
    group.bench_function("par-brute-executor", |b| {
        b.iter(|| {
            Engine::parallel()
                .with_options(EngineOptions {
                    sweep_threshold: usize::MAX,
                    ..EngineOptions::default()
                })
                .check(&d.layout, &rule.deck)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_merge,
    bench_sweep,
    bench_spatial_indices,
    bench_region_ops,
    bench_engine_options
);
criterion_main!(benches);
