//! Ablation studies for the design choices the paper (and DESIGN.md)
//! call out:
//!
//! (a) pigeonhole vs sort-based interval merging (§IV-B argues the
//!     `Θ(k + N)` array wins when `k ≫ N`),
//! (b) hierarchical check-result reuse on/off (§IV-C),
//! (c) adaptive row partition on/off (§IV-B),
//! (d) brute-force vs sweepline parallel executor threshold (§IV-E),
//! (e) interval-tree sweepline vs quadratic overlap enumeration
//!     (§IV-D).

use std::time::Instant;

use odrc::{Engine, EngineOptions};
use odrc_bench::{load_designs, no_partition, no_pruning, parse_args, space_rules};
use odrc_geometry::Rect;
use odrc_infra::merge::{merge_pigeonhole, merge_sorted};
use odrc_infra::sweep::{brute_force_overlap_pairs, sweep_overlap_pairs};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn time<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let start = Instant::now();
    let r = f();
    (start.elapsed().as_secs_f64(), r)
}

fn main() {
    let (filter, _repeat) = parse_args();

    // (a) Interval merging: k intervals over a domain of N unique
    // coordinates, k >> N as in row partitioning.
    println!("\n=== Ablation (a): interval merging, k intervals over N-coordinate domain ===");
    println!(
        "{:>10} {:>8} {:>14} {:>14}",
        "k", "N", "pigeonhole(s)", "sorted(s)"
    );
    let mut rng = StdRng::seed_from_u64(7);
    for &(k, n) in &[
        (10_000usize, 64usize),
        (100_000, 64),
        (1_000_000, 64),
        (1_000_000, 4096),
    ] {
        let intervals: Vec<(usize, usize)> = (0..k)
            .map(|_| {
                let a = rng.gen_range(0..n);
                let b = rng.gen_range(a..n);
                (a, b)
            })
            .collect();
        let (tp, mp) = time(|| merge_pigeonhole(n, intervals.iter().copied()));
        let (ts, ms) = time(|| merge_sorted(intervals.clone()));
        assert_eq!(mp, ms, "merge variants disagree");
        println!("{k:>10} {n:>8} {tp:>14.4} {ts:>14.4}");
    }

    // (e) Overlap reporting: sweepline vs quadratic.
    println!("\n=== Ablation (e): MBR overlap reporting ===");
    println!(
        "{:>10} {:>14} {:>14} {:>10}",
        "rects", "sweepline(s)", "quadratic(s)", "pairs"
    );
    for &n in &[500usize, 2000, 8000] {
        let rects: Vec<Rect> = (0..n)
            .map(|_| {
                let x = rng.gen_range(-10_000..10_000);
                let y = rng.gen_range(-10_000..10_000);
                Rect::from_coords(x, y, x + rng.gen_range(1..200), y + rng.gen_range(1..200))
            })
            .collect();
        let (t1, p1) = time(|| sweep_overlap_pairs(&rects));
        let (t2, p2) = time(|| brute_force_overlap_pairs(&rects));
        assert_eq!(p1, p2);
        println!("{n:>10} {t1:>14.4} {t2:>14.4} {:>10}", p1.len());
    }

    // (g) Window-query structures: linear scan vs R-tree.
    {
        use odrc_infra::RTree;
        println!("\n=== Ablation (g): window queries, 20k rects x 200 windows ===");
        let mut rng2 = StdRng::seed_from_u64(9);
        let rects: Vec<Rect> = (0..20_000)
            .map(|_| {
                let x = rng2.gen_range(-100_000..100_000);
                let y = rng2.gen_range(-100_000..100_000);
                Rect::from_coords(x, y, x + rng2.gen_range(1..500), y + rng2.gen_range(1..500))
            })
            .collect();
        let windows: Vec<Rect> = (0..200)
            .map(|_| {
                let x = rng2.gen_range(-100_000..100_000);
                let y = rng2.gen_range(-100_000..100_000);
                Rect::from_coords(x, y, x + 2000, y + 2000)
            })
            .collect();
        let (t_rb, rtree) = time(|| RTree::bulk_load(&rects));
        let (t_r, hits_r) = time(|| windows.iter().map(|&w| rtree.query(w).len()).sum::<usize>());
        let (t_l, hits_l) = time(|| {
            windows
                .iter()
                .map(|&w| rects.iter().filter(|r| r.overlaps(w)).count())
                .sum::<usize>()
        });
        assert_eq!(hits_r, hits_l);
        println!("{:>12} {:>12} {:>12}", "structure", "build(s)", "query(s)");
        println!("{:>12} {:>12} {:>12.4}", "linear", "-", t_l);
        println!("{:>12} {:>12.4} {:>12.4}", "rtree", t_rb, t_r);
    }

    // (f) Baseline strength: the as-drawn flat checker vs the
    // merged-region variant (closer to real KLayout's region engine).
    // The gap shows how much region machinery the paper's KLayout
    // numbers include that our stronger baseline does not.
    {
        use odrc_baselines::{Checker, FlatChecker};
        println!("\n=== Ablation (f): flat baseline, as-drawn vs merged regions ===");
        println!(
            "{:<10} {:<10} {:>12} {:>12}",
            "design", "rule", "as-drawn(s)", "merged(s)"
        );
        let designs = odrc_bench::load_designs(Some("uart,ibex"));
        for d in &designs {
            for r in &space_rules() {
                let (t_plain, a) = time(|| FlatChecker::new().check(&d.layout, &r.deck));
                let (t_merged, b) = time(|| FlatChecker::with_merge().check(&d.layout, &r.deck));
                assert_eq!(
                    a.violations, b.violations,
                    "disjoint layouts: merge must not change results"
                );
                println!(
                    "{:<10} {:<10} {t_plain:>12.4} {t_merged:>12.4}",
                    d.name, r.name
                );
            }
        }
    }

    // (h) Pair-discovery structure inside the sequential engine.
    {
        println!("\n=== Ablation (h): sequential pair discovery, sweepline vs R-tree ===");
        println!(
            "{:<10} {:<10} {:>14} {:>12}",
            "design", "rule", "sweepline(s)", "rtree(s)"
        );
        let designs = odrc_bench::load_designs(Some("ibex,aes"));
        for d in &designs {
            for r in &space_rules() {
                let (t_sw, a) = time(|| Engine::sequential().check(&d.layout, &r.deck));
                let (t_rt, b) = time(|| {
                    Engine::sequential()
                        .with_options(EngineOptions {
                            pair_index: odrc::PairIndex::RTree,
                            ..EngineOptions::default()
                        })
                        .check(&d.layout, &r.deck)
                });
                assert_eq!(a.violations, b.violations);
                println!("{:<10} {:<10} {t_sw:>14.4} {t_rt:>12.4}", d.name, r.name);
            }
        }
    }

    // (b)-(d): engine ablations on the benchmark designs.
    let designs = load_designs(filter.as_deref());
    println!("\n=== Ablations (b)-(d): engine options on sequential/parallel space checks ===");
    println!(
        "{:<10} {:<10} {:>10} {:>12} {:>12} {:>11} {:>11}",
        "design", "rule", "seq(s)", "no-prune(s)", "no-part(s)", "par-sw(s)", "par-bf(s)"
    );
    for d in &designs {
        for r in &space_rules() {
            let (t_base, base) = time(|| Engine::sequential().check(&d.layout, &r.deck));
            let (t_noprune, a) = time(|| {
                Engine::sequential()
                    .with_options(no_pruning())
                    .check(&d.layout, &r.deck)
            });
            let (t_nopart, b) = time(|| {
                Engine::sequential()
                    .with_options(no_partition())
                    .check(&d.layout, &r.deck)
            });
            let (t_sw, c) = time(|| {
                Engine::parallel()
                    .with_options(EngineOptions {
                        sweep_threshold: 0,
                        ..EngineOptions::default()
                    })
                    .check(&d.layout, &r.deck)
            });
            let (t_bf, e) = time(|| {
                Engine::parallel()
                    .with_options(EngineOptions {
                        sweep_threshold: usize::MAX,
                        ..EngineOptions::default()
                    })
                    .check(&d.layout, &r.deck)
            });
            for other in [&a, &b, &c, &e] {
                assert_eq!(
                    base.violations, other.violations,
                    "ablation changed results"
                );
            }
            println!(
                "{:<10} {:<10} {:>10.4} {:>12.4} {:>12.4} {:>11.4} {:>11.4}",
                d.name, r.name, t_base, t_noprune, t_nopart, t_sw, t_bf
            );
        }
    }
}
