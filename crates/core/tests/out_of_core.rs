//! Out-of-core sharded checking properties.
//!
//! The sharded pipeline's contract is *byte-identity*: for ANY memory
//! budget, shard geometry, engine mode, and crash interleaving, the
//! canonical violation set must equal the unbudgeted in-core run's.
//! These tests sweep (budget × shard size × cancel points × modes) and
//! additionally pin down the accounting: shard units conserve exactly
//! across an interrupt/resume pair, a second resume re-checks nothing
//! (idempotence), a zero budget degrades every load without aborting,
//! and an unlimited budget never evicts.

use odrc::{
    rule, rule_signature, CancelToken, CheckpointJournal, Engine, EngineOptions, Mode, RuleDeck,
    RuleStatus, RunKey, Violation,
};
use odrc_layoutgen::{generate_layout, tech, DesignSpec};
use odrc_xpu::Device;
use proptest::prelude::*;
use std::path::PathBuf;

/// Width/area intra rules (whole-rule units) alongside every sharded
/// family: plain and projection-gated spacing, enclosure, and overlap
/// area.
fn deck() -> RuleDeck {
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
            .layer(tech::M2)
            .space()
            .when_projection_at_least(tech::M2_WIDTH)
            .greater_than(tech::M2_SPACE)
            .named("M2.S.2"),
        rule()
            .layer(tech::V1)
            .enclosed_by(tech::M2)
            .greater_than(tech::V1_M2_ENCLOSURE)
            .named("V1.M2.EN.1"),
        rule()
            .layer(tech::V1)
            .overlapping(tech::M2)
            .area_at_least(100)
            .named("V1.M2.OV.1"),
    ])
}

fn engine(mode: Mode, options: EngineOptions) -> Engine {
    match mode {
        Mode::Sequential => Engine::sequential(),
        Mode::Parallel => Engine::parallel_on(Device::new(2)),
    }
    .with_options(options)
}

fn out_of_core_options(budget: Option<u64>, shard_rows: usize) -> EngineOptions {
    EngineOptions {
        memory_budget: budget,
        shard_rows: Some(shard_rows),
        retry_backoff_ms: 0,
        ..EngineOptions::default()
    }
}

fn baseline(mode: Mode, layout: &odrc_db::Layout) -> Vec<Violation> {
    engine(
        mode,
        EngineOptions {
            retry_backoff_ms: 0,
            ..EngineOptions::default()
        },
    )
    .check(layout, &deck())
    .violations
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("odrc-ooc-{}-{}", tag, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The shard count of each deck rule under this plan geometry, via a
/// single-rule out-of-core run (the plan is a pure function of layout,
/// rule, and `shard_rows`, so these counts are exact). Intra rules
/// count zero — they are whole-rule units.
fn per_rule_shards(layout: &odrc_db::Layout, deck: &RuleDeck, shard_rows: usize) -> Vec<usize> {
    deck.rules()
        .iter()
        .map(|r| {
            if r.is_intra_polygon() {
                0
            } else {
                engine(Mode::Sequential, out_of_core_options(None, shard_rows))
                    .check(layout, &RuleDeck::new(vec![r.clone()]))
                    .stats
                    .shards_checked
            }
        })
        .collect()
}

/// Byte-identity of a budgeted sharded run against the in-core run,
/// for any (budget, shard size, mode, pruning, host threads)
/// combination — with the shard units actually exercised.
fn equivalence_case(
    seed: u64,
    budget: Option<u64>,
    shard_rows: usize,
    mode: Mode,
    pruning: bool,
    host_threads: usize,
) -> Result<(), String> {
    let layout = generate_layout(&DesignSpec::tiny(seed));
    let base = baseline(mode, &layout);
    let mut options = out_of_core_options(budget, shard_rows);
    options.pruning = pruning;
    options.host_threads = Some(host_threads);
    let report = engine(mode, options).check(&layout, &deck());
    if report.violations != base {
        return Err(format!(
            "sharded run diverged: {} vs {} violations (seed {seed}, budget {budget:?}, \
             shard_rows {shard_rows}, mode {mode:?}, pruning {pruning}, \
             host_threads {host_threads})",
            report.violations.len(),
            base.len()
        ));
    }
    if report.stats.shards_checked == 0 {
        return Err("sharded run checked no shards".into());
    }
    if budget.is_none() && report.stats.shards_evicted + report.stats.shards_degraded != 0 {
        return Err("unlimited budget must never evict or degrade".into());
    }
    Ok(())
}

/// Cancel at a seeded poll (a rule *or shard* boundary), resume from
/// the journal, and demand: byte-identical final set, exact unit
/// conservation, and double-resume idempotence (a third run restores
/// everything whole and checks nothing).
fn kill_resume_case(
    seed: u64,
    budget: Option<u64>,
    shard_rows: usize,
    mode: Mode,
    polls: usize,
    tag: &str,
) -> Result<(), String> {
    let layout = generate_layout(&DesignSpec::tiny(seed));
    let deck = deck();
    let base = baseline(mode, &layout);
    let run_key = RunKey::compute(&layout, &deck);
    let counts = per_rule_shards(&layout, &deck, shard_rows);
    let total_shards: usize = counts.iter().sum();

    // The uninterrupted out-of-core run agrees with the per-rule plan.
    let full = engine(mode, out_of_core_options(budget, shard_rows)).check(&layout, &deck);
    if full.violations != base {
        return Err("uninterrupted sharded run diverged from in-core baseline".into());
    }
    if full.stats.shards_checked != total_shards {
        return Err(format!(
            "full run checked {} shards, per-rule plans sum to {total_shards}",
            full.stats.shards_checked
        ));
    }

    let dir = fresh_dir(tag);
    // Run 1: cancelled at a deterministic poll boundary.
    let mut journal = CheckpointJournal::open_dir(&dir, run_key).map_err(|e| e.to_string())?;
    let interrupted = engine(mode, out_of_core_options(budget, shard_rows))
        .with_cancel(CancelToken::after_polls(polls))
        .check_resumable(&layout, &deck, None, Some(&mut journal));
    drop(journal);

    // Shard units the first run completed inside rules it *finished*
    // (their whole-rule records supersede the shard records on resume)
    // versus inside the rule it was cancelled out of (these must be
    // restored shard by shard).
    let finished_shards: usize = interrupted
        .rule_status
        .iter()
        .zip(&counts)
        .filter(|((_, s), _)| *s == RuleStatus::Completed)
        .map(|(_, n)| *n)
        .sum();
    let mid_rule_shards = interrupted.stats.shards_checked - finished_shards;

    // Run 2: resume. Every journaled unit restores; the rest re-runs.
    let mut journal = CheckpointJournal::open_dir(&dir, run_key).map_err(|e| e.to_string())?;
    let resumed = engine(mode, out_of_core_options(budget, shard_rows)).check_resumable(
        &layout,
        &deck,
        None,
        Some(&mut journal),
    );
    drop(journal);
    if resumed.interrupted.is_some() {
        return Err("resume run was itself interrupted".into());
    }
    if resumed.violations != base {
        return Err(format!(
            "resumed violations diverged (seed {seed}, polls {polls}, shard_rows {shard_rows}, \
             mode {mode:?}): {} vs {}",
            resumed.violations.len(),
            base.len()
        ));
    }
    let completed_rules = interrupted
        .rule_status
        .iter()
        .zip(deck.rules())
        .filter(|((_, s), r)| *s == RuleStatus::Completed && rule_signature(r).is_some())
        .count();
    if resumed.stats.rules_resumed != completed_rules {
        return Err(format!(
            "resume restored {} whole rules, first run completed {completed_rules}",
            resumed.stats.rules_resumed
        ));
    }
    if resumed.stats.shards_resumed != mid_rule_shards {
        return Err(format!(
            "resume restored {} shards, first run journaled {mid_rule_shards} mid-rule \
             (seed {seed}, polls {polls}, shard_rows {shard_rows}, mode {mode:?})",
            resumed.stats.shards_resumed
        ));
    }
    if resumed.stats.shards_checked != total_shards - finished_shards - mid_rule_shards {
        return Err(format!(
            "resume checked {} shards, expected total {total_shards} - finished \
             {finished_shards} - restored {mid_rule_shards}",
            resumed.stats.shards_checked
        ));
    }

    // Run 3: double resume — everything restores whole, nothing runs.
    let mut journal = CheckpointJournal::open_dir(&dir, run_key).map_err(|e| e.to_string())?;
    let again = engine(mode, out_of_core_options(budget, shard_rows)).check_resumable(
        &layout,
        &deck,
        None,
        Some(&mut journal),
    );
    drop(journal);
    if again.violations != base {
        return Err("double-resume violations diverged".into());
    }
    if again.stats.shards_checked != 0 || again.stats.shards_resumed != 0 {
        return Err(format!(
            "double resume must restore whole rules only; checked {} shards, resumed {}",
            again.stats.shards_checked, again.stats.shards_resumed
        ));
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn sharded_equals_in_core(
        seed in 0u64..12,
        budget_class in 0usize..3,
        shard_rows in 1usize..5,
        parallel in proptest::bool::ANY,
        pruning in proptest::bool::ANY,
        host_threads in 1usize..3,
    ) {
        let budget = [None, Some(16 << 10), Some(4 << 20)][budget_class];
        let mode = if parallel { Mode::Parallel } else { Mode::Sequential };
        if let Err(msg) = equivalence_case(seed, budget, shard_rows, mode, pruning, host_threads) {
            prop_assert!(false, "{}", msg);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn kill_resume_is_byte_identical(
        seed in 0u64..6,
        budget_class in 0usize..2,
        shard_rows in 1usize..4,
        parallel in proptest::bool::ANY,
        polls in 1usize..24,
    ) {
        let budget = [None, Some(16 << 10)][budget_class];
        let mode = if parallel { Mode::Parallel } else { Mode::Sequential };
        let tag = format!("kr-{seed}-{budget_class}-{shard_rows}-{parallel}-{polls}");
        if let Err(msg) = kill_resume_case(seed, budget, shard_rows, mode, polls, &tag) {
            prop_assert!(false, "{}", msg);
        }
    }
}

/// A zero budget can cache nothing: every shard load degrades to
/// build-check-drop, nothing evicts (nothing was resident), and the
/// result still matches the in-core run.
#[test]
fn zero_budget_degrades_every_load_and_stays_correct() {
    let layout = generate_layout(&DesignSpec::tiny(7));
    let base = baseline(Mode::Sequential, &layout);
    let report = engine(Mode::Sequential, out_of_core_options(Some(0), 2)).check(&layout, &deck());
    assert_eq!(report.violations, base);
    assert!(report.stats.shards_built > 0);
    assert_eq!(report.stats.shards_degraded, report.stats.shards_built);
    assert_eq!(report.stats.shards_evicted, 0);
}

/// A small (but non-zero) budget must evict under pressure and still
/// produce the in-core result.
#[test]
fn tight_budget_evicts_and_stays_correct() {
    let layout = generate_layout(&DesignSpec::tiny(3));
    let base = baseline(Mode::Sequential, &layout);
    let report =
        engine(Mode::Sequential, out_of_core_options(Some(24 << 10), 1)).check(&layout, &deck());
    assert_eq!(report.violations, base);
    assert!(
        report.stats.shards_evicted > 0,
        "expected evictions under a 24 KiB budget; built {} degraded {}",
        report.stats.shards_built,
        report.stats.shards_degraded
    );
}

/// Worker slices cover the shard space exactly: every worker journals
/// its own shards, the parent merges the worker journals, and the
/// merged restore is byte-identical to in-core with no shard re-run.
#[test]
fn worker_slices_merge_to_in_core_result() {
    let layout = generate_layout(&DesignSpec::tiny(11));
    let deck = deck();
    let base = baseline(Mode::Sequential, &layout);
    let run_key = RunKey::compute(&layout, &deck);
    let dir = fresh_dir("slices");
    let workers = 3usize;
    for w in 0..workers {
        let mut journal =
            CheckpointJournal::open_dir(&dir.join(format!("worker-{w}")), run_key).unwrap();
        let mut options = out_of_core_options(None, 2);
        options.shard_slice = Some((w, workers));
        let report = engine(Mode::Sequential, options).check_resumable(
            &layout,
            &deck,
            None,
            Some(&mut journal),
        );
        // A slice completes only the whole rules it owns; sharded
        // rules stay partial in every worker (their shards are in the
        // journal, not the report).
        assert!(report
            .rule_status
            .iter()
            .any(|(_, s)| *s == RuleStatus::Interrupted));
    }
    // Parent: merge the worker journals and restore everything.
    let mut merged = CheckpointJournal::open_dir(&dir, run_key).unwrap();
    for w in 0..workers {
        merged.absorb_dir(&dir.join(format!("worker-{w}"))).unwrap();
    }
    let report = engine(Mode::Sequential, out_of_core_options(None, 2)).check_resumable(
        &layout,
        &deck,
        None,
        Some(&mut merged),
    );
    drop(merged);
    assert_eq!(report.violations, base);
    assert!(
        report.stats.shards_resumed > 0,
        "sharded rules must restore from worker shards"
    );
    assert_eq!(
        report.stats.shards_checked, 0,
        "no shard should re-run after the merge"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
