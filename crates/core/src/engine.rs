//! The engine controller (the paper's "application layer", §V-A).

use odrc_db::Layout;
use odrc_infra::{CancelReason, CancelToken, Profiler};
use odrc_xpu::Device;

use crate::cache::{rule_signature, CacheHandle, CacheKeys, ResultCache};
use crate::checkpoint::CheckpointJournal;
use crate::parallel;
use crate::rules::{Rule, RuleDeck};
use crate::sequential::{self, RunContext};
use crate::violation::{canonicalize, Violation};

/// Execution mode of the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The cell-level sweep pipeline on the CPU (§IV-D).
    Sequential,
    /// Row-by-row edge kernels on the device (§IV-E).
    Parallel,
}

/// Which structure discovers candidate object pairs in the sequential
/// mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PairIndex {
    /// The top-down sweepline with an interval tree (§IV-D) — the
    /// paper's choice and the default.
    #[default]
    Sweepline,
    /// An STR-packed R-tree queried per object — the bounding-volume
    /// alternative the paper cites (§I), kept for the ablation.
    RTree,
}

/// Tuning knobs, including the ablation switches DESIGN.md calls out.
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// Enable hierarchical check-result reuse (§IV-C). Disabling it
    /// re-checks every instance — the pruning ablation.
    pub pruning: bool,
    /// Enable the adaptive row-based partition (§IV-B). Disabling it
    /// processes the whole layout as one row — the partition ablation.
    pub partition: bool,
    /// Row edge count at or below which the parallel mode uses the
    /// brute-force executor instead of the sweepline executor (§IV-E).
    pub sweep_threshold: usize,
    /// Candidate-pair discovery structure for the sequential mode.
    pub pair_index: PairIndex,
    /// Base delay of the capped exponential backoff between device
    /// retries, in milliseconds.
    pub retry_backoff_ms: u64,
    /// Worker threads for the shared work-stealing host executor that
    /// fans out scene builds, partition assignment, row packing, the
    /// row-parallel sequential checks, and violation canonicalization.
    /// `None` (the default) sizes it to the host's available
    /// parallelism. The budget is shared with — not additive to — the
    /// device's kernel dispatch, and `Some(1)` runs every fan-out
    /// inline on the calling thread.
    pub host_threads: Option<usize>,
    /// An *external* extra-thread budget shared across engine runs —
    /// the multi-tenant generalization of the sizing handshake. A
    /// check server installs one process-wide [`ThreadGate`] here so
    /// every concurrent job's host fan-outs and device dispatches draw
    /// from a single permit pool instead of each run assuming it owns
    /// the machine. `None` (the default, and the single-run CLI case)
    /// keeps the per-run gate owned by the run's own executor.
    ///
    /// [`ThreadGate`]: odrc_infra::ThreadGate
    pub shared_gate: Option<std::sync::Arc<odrc_infra::ThreadGate>>,
    /// Hard byte budget for out-of-core shard residency. `Some` routes
    /// inter-object rules (space, enclosure, overlap) through the
    /// sharded host pipeline: per-shard scenes are built lazily behind
    /// an LRU pool charged against this budget, evicted scenes rebuild
    /// on demand, and a scene that alone exceeds the budget degrades to
    /// build-check-drop processing instead of aborting. `None` (the
    /// default) keeps the in-core pipeline.
    pub memory_budget: Option<u64>,
    /// Force out-of-core sharded checking even without a memory budget
    /// or explicit shard geometry (the `--out-of-core` CLI flag).
    /// Redundant when [`EngineOptions::memory_budget`],
    /// [`EngineOptions::shard_rows`], or
    /// [`EngineOptions::shard_slice`] is set — each implies it.
    pub out_of_core: bool,
    /// Partition rows per shard in out-of-core mode. `None` sizes
    /// shards to roughly [`crate::shard::DEFAULT_SHARDS`] per rule.
    /// `Some(_)` also *enables* out-of-core sharding by itself (with an
    /// unlimited residency budget), which is how the equivalence tests
    /// sweep shard geometry without memory pressure.
    pub shard_rows: Option<usize>,
    /// Worker slice `(worker, of)` of the multi-process out-of-core
    /// mode: this process checks only shards with `id % of == worker`
    /// (and whole rules with `index % of == worker`), journaling each
    /// completed unit. Sliced-away rules finish as
    /// [`RuleStatus::Interrupted`] — the parent process merges worker
    /// journals and restores everything, so a worker's own report is
    /// scaffolding, not a result.
    pub shard_slice: Option<(usize, usize)>,
    /// Deterministic chaos switch: abort the process (as if SIGKILLed)
    /// right after the Nth shard of the run is journaled. Drives the
    /// kill/resume coverage of the out-of-core path.
    pub chaos_kill_at_shard: Option<u64>,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            pruning: true,
            partition: true,
            sweep_threshold: 512,
            pair_index: PairIndex::default(),
            retry_backoff_ms: 1,
            host_threads: None,
            shared_gate: None,
            memory_budget: None,
            out_of_core: false,
            shard_rows: None,
            shard_slice: None,
            chaos_kill_at_shard: None,
        }
    }
}

impl EngineOptions {
    /// The effective host-executor thread count: the explicit setting,
    /// or the host's available parallelism.
    pub fn resolved_host_threads(&self) -> usize {
        self.host_threads
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
            .max(1)
    }
}

/// How one rule of the deck fared in a (possibly interrupted) run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleStatus {
    /// The rule ran to completion this run.
    Completed,
    /// The rule was restored from a checkpoint journal without
    /// re-checking.
    Resumed,
    /// The run was cancelled before the rule finished; it contributed
    /// **no** violations (partial results are discarded so a resumed
    /// run stays byte-identical to an uninterrupted one).
    Interrupted,
}

impl std::fmt::Display for RuleStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RuleStatus::Completed => "completed",
            RuleStatus::Resumed => "resumed",
            RuleStatus::Interrupted => "interrupted",
        })
    }
}

/// Work accounting for a check run: the deterministic work counters of
/// [`EngineStats::work`] plus scheduling telemetry (host tasks and
/// steals, device retries, fused launches, worker wakeups) that two
/// identical runs need not repeat. Compare runs through
/// [`EngineStats::work`].
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineStats {
    /// Checks actually executed (cell-level units for intra rules,
    /// emitted records for device space kernels).
    pub checks_computed: usize,
    /// Checks answered from the hierarchy memo instead of running
    /// (§IV-C).
    pub checks_reused: usize,
    /// Candidate object pairs produced by the sweepline.
    pub candidate_pairs: usize,
    /// Rows produced by the adaptive partition, summed over rules.
    pub rows: usize,
    /// Device re-attempts after transient faults (fresh-stream retries).
    pub device_retries: usize,
    /// Work units recomputed on the host after the device gave up.
    pub device_fallbacks: usize,
    /// Full layer scenes built this run (windowed delta scenes are not
    /// counted — they are rule-specific by construction).
    pub scenes_built: usize,
    /// Scene requests answered by the planner's per-run memo.
    pub scenes_reused: usize,
    /// Host→device uploads skipped because the data was already
    /// device-resident (the planner's buffer cache).
    pub uploads_elided: usize,
    /// Bytes actually moved host→device through the planner's shared
    /// upload path (shallow sizes at the upload call sites).
    pub bytes_uploaded: u64,
    /// Tasks executed by the host executor's fan-outs, inline or on
    /// workers. Scheduling telemetry, left out of [`EngineStats::work`].
    pub host_tasks: u64,
    /// Successful work steals between host-executor workers.
    /// Scheduling telemetry: varies run to run.
    pub host_steals: u64,
    /// Rules that ran to completion this run.
    pub rules_completed: usize,
    /// Rules restored from a checkpoint journal instead of re-running.
    pub rules_resumed: usize,
    /// Rules the run was cancelled out of (they contributed nothing).
    pub rules_interrupted: usize,
    /// Stream commands that rode a fused batch dispatch instead of an
    /// individual submit (device-counter delta over this run).
    pub launches_fused: u64,
    /// Spacing rules that replayed another rule's recorded launch
    /// graph instead of re-deriving their row schedule.
    pub graph_replays: usize,
    /// Times a persistent pool worker woke to take dispatch chunks
    /// (device-counter delta over this run).
    pub worker_wakeups: u64,
    /// `(rule, shard)` units checked by the out-of-core path this run.
    pub shards_checked: usize,
    /// Shard scenes built (cache misses of the shard pool).
    pub shards_built: usize,
    /// Resident shard scenes evicted LRU-first to respect the memory
    /// budget.
    pub shards_evicted: usize,
    /// `(rule, shard)` units restored from the checkpoint journal
    /// instead of re-checked.
    pub shards_resumed: usize,
    /// Shard loads degraded to build-check-drop (oversized for the
    /// budget, or a seeded allocation failure) instead of aborting.
    pub shards_degraded: usize,
}

impl EngineStats {
    /// `true` if any device work was retried or recomputed on the host
    /// — the run completed, but not entirely on the fast path.
    pub fn degraded(&self) -> bool {
        self.device_retries > 0 || self.device_fallbacks > 0
    }

    /// The counters that repeat exactly for the same layout, deck and
    /// options, whatever the thread count or scheduling.
    pub fn work(&self) -> WorkStats {
        WorkStats {
            checks_computed: self.checks_computed,
            checks_reused: self.checks_reused,
            candidate_pairs: self.candidate_pairs,
            rows: self.rows,
            scenes_built: self.scenes_built,
            scenes_reused: self.scenes_reused,
            uploads_elided: self.uploads_elided,
            bytes_uploaded: self.bytes_uploaded,
            rules_completed: self.rules_completed,
            rules_resumed: self.rules_resumed,
            rules_interrupted: self.rules_interrupted,
            graph_replays: self.graph_replays,
            shards_checked: self.shards_checked,
            shards_built: self.shards_built,
            shards_evicted: self.shards_evicted,
            shards_resumed: self.shards_resumed,
            shards_degraded: self.shards_degraded,
        }
    }
}

/// The deterministic subset of [`EngineStats`] (see
/// [`EngineStats::work`]); each field means the same as there. Device
/// retries and fallbacks are left out: under a fault schedule,
/// concurrent streams race for the device-wide fault ordinals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkStats {
    pub checks_computed: usize,
    pub checks_reused: usize,
    pub candidate_pairs: usize,
    pub rows: usize,
    pub scenes_built: usize,
    pub scenes_reused: usize,
    pub uploads_elided: usize,
    pub bytes_uploaded: u64,
    pub rules_completed: usize,
    pub rules_resumed: usize,
    pub rules_interrupted: usize,
    pub graph_replays: usize,
    pub shards_checked: usize,
    pub shards_built: usize,
    pub shards_evicted: usize,
    pub shards_resumed: usize,
    pub shards_degraded: usize,
}

/// The result of [`Engine::check`].
#[derive(Debug)]
pub struct CheckReport {
    /// All violations, canonicalized (sorted, deduplicated).
    pub violations: Vec<Violation>,
    /// Wall-clock per pipeline phase (drives the Fig. 4 breakdown).
    pub profile: Profiler,
    /// Work accounting.
    pub stats: EngineStats,
    /// `Some(reason)` when the run was cancelled (signal or deadline)
    /// before every rule finished. [`CheckReport::violations`] then
    /// covers only the rules marked [`RuleStatus::Completed`] or
    /// [`RuleStatus::Resumed`].
    pub interrupted: Option<CancelReason>,
    /// Per-rule completion status, in deck order.
    pub rule_status: Vec<(String, RuleStatus)>,
}

impl CheckReport {
    /// Violations of one rule.
    pub fn violations_of<'a>(&'a self, rule: &'a str) -> impl Iterator<Item = &'a Violation> + 'a {
        self.violations.iter().filter(move |v| v.rule == rule)
    }
}

/// A per-rule progress observer: called with the rule's name and its
/// new [`RuleStatus`] as the run finalizes (or restores) each rule.
/// Invoked from the engine's single control thread, in completion
/// order; a long-running deck streams progress instead of going dark
/// until the report. Used by `odrc serve` to push `rule` events to
/// clients while their job runs.
pub type ProgressFn = std::sync::Arc<dyn Fn(&str, RuleStatus) + Send + Sync>;

/// The OpenDRC engine.
///
/// # Examples
///
/// ```
/// use odrc::{rules::rule, Engine, RuleDeck};
/// use odrc_layoutgen::{generate_layout, tech, DesignSpec};
///
/// let layout = generate_layout(&DesignSpec::tiny(1));
/// let deck = RuleDeck::new(vec![
///     rule().layer(tech::M2).width().greater_than(tech::M2_WIDTH).named("M2.W.1"),
///     rule().layer(tech::M2).space().greater_than(tech::M2_SPACE).named("M2.S.1"),
/// ]);
/// let report = Engine::sequential().check(&layout, &deck);
/// assert!(report.violations.iter().all(|v| v.rule.starts_with("M2")));
/// ```
pub struct Engine {
    pub(crate) mode: Mode,
    pub(crate) options: EngineOptions,
    pub(crate) device: Device,
    pub(crate) cancel: Option<CancelToken>,
    pub(crate) progress: Option<ProgressFn>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("mode", &self.mode)
            .field("options", &self.options)
            .field("device", &self.device)
            .field("cancel", &self.cancel)
            .field("progress", &self.progress.as_ref().map(|_| "<fn>"))
            .finish()
    }
}

impl Default for Engine {
    fn default() -> Self {
        Engine::sequential()
    }
}

impl Engine {
    /// A sequential-mode engine.
    pub fn sequential() -> Engine {
        Engine {
            mode: Mode::Sequential,
            options: EngineOptions::default(),
            device: Device::new(1),
            cancel: None,
            progress: None,
        }
    }

    /// A parallel-mode engine on a default-sized device.
    pub fn parallel() -> Engine {
        Engine::parallel_on(Device::default())
    }

    /// A parallel-mode engine on a specific device.
    pub fn parallel_on(device: Device) -> Engine {
        Engine {
            mode: Mode::Parallel,
            options: EngineOptions::default(),
            device,
            cancel: None,
            progress: None,
        }
    }

    /// Overrides the tuning options.
    #[must_use]
    pub fn with_options(mut self, options: EngineOptions) -> Engine {
        self.options = options;
        self
    }

    /// Attaches a cooperative [`CancelToken`]. While a check runs, the
    /// engine polls the token at every rule boundary (and the deferred
    /// recovery drain between units): once it trips — SIGINT/SIGTERM
    /// via [`odrc_infra::install_signal_handlers`], a wall-clock
    /// deadline, or an explicit [`CancelToken::cancel`] — the engine
    /// stops issuing new rules, drains in-flight device work, marks
    /// unfinished rules [`RuleStatus::Interrupted`], and returns a
    /// report with [`CheckReport::interrupted`] set.
    #[must_use]
    pub fn with_cancel(mut self, cancel: CancelToken) -> Engine {
        self.cancel = Some(cancel);
        self
    }

    /// Installs (or with `None` clears) the cooperative cancel token in
    /// place — the long-lived-engine variant of [`Engine::with_cancel`].
    /// A server session keeps one engine across many jobs and swaps in
    /// each job's token before running it.
    pub fn set_cancel(&mut self, cancel: Option<CancelToken>) {
        self.cancel = cancel;
    }

    /// Installs (or with `None` clears) a per-rule [`ProgressFn`] in
    /// place. The callback fires on the control thread as each rule
    /// completes (or is restored from a journal), before the run's
    /// report exists.
    pub fn set_progress(&mut self, progress: Option<ProgressFn>) {
        self.progress = progress;
    }

    /// Builder form of [`Engine::set_progress`].
    #[must_use]
    pub fn with_progress(mut self, progress: ProgressFn) -> Engine {
        self.progress = Some(progress);
        self
    }

    /// The engine's mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// The engine's device (meaningful in parallel mode).
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Runs every rule of the deck against the layout.
    ///
    /// Both modes produce the same canonical violation set; the
    /// integration tests assert this equivalence on every generated
    /// design.
    pub fn check(&self, layout: &Layout, deck: &RuleDeck) -> CheckReport {
        self.check_impl(layout, deck, None, None)
    }

    /// [`Engine::check`] with run-level resilience hooks: an optional
    /// persistent result cache (as in [`Engine::check_with_cache`]) and
    /// an optional [`CheckpointJournal`]. With a journal, each rule's
    /// canonical violations are appended as the rule completes, and
    /// rules the journal already holds (under the same layout/deck run
    /// key) are *restored* instead of re-checked — counted in
    /// [`EngineStats::rules_resumed`]. Combined with
    /// [`Engine::with_cancel`] this is the kill/resume path: an
    /// interrupted run's journal lets the next run pick up where it
    /// stopped, with a final violation set byte-identical to an
    /// uninterrupted run.
    pub fn check_resumable(
        &self,
        layout: &Layout,
        deck: &RuleDeck,
        cache: Option<&mut ResultCache>,
        journal: Option<&mut CheckpointJournal>,
    ) -> CheckReport {
        match cache {
            Some(cache) => {
                let keys = CacheKeys::compute(layout);
                self.check_impl(layout, deck, Some((cache, &keys)), journal)
            }
            None => self.check_impl(layout, deck, None, journal),
        }
    }

    /// Like [`Engine::check`], but backed by a persistent result cache:
    /// per-cell results keyed by structural content hashes (§IV-C,
    /// rekeyed so the memo survives edits and processes). The cache is
    /// consulted and updated in place; hits count as `checks_reused`.
    pub fn check_with_cache(
        &self,
        layout: &Layout,
        deck: &RuleDeck,
        cache: &mut ResultCache,
    ) -> CheckReport {
        let keys = CacheKeys::compute(layout);
        self.check_impl(layout, deck, Some((cache, &keys)), None)
    }

    /// [`Engine::check_with_cache`] with precomputed content keys —
    /// for callers (edit sessions) that already hashed the layout.
    /// `keys` must be [`CacheKeys::compute`] of this exact `layout`.
    pub fn check_with_cache_keyed(
        &self,
        layout: &Layout,
        keys: &CacheKeys,
        deck: &RuleDeck,
        cache: &mut ResultCache,
    ) -> CheckReport {
        self.check_impl(layout, deck, Some((cache, keys)), None)
    }

    pub(crate) fn check_impl(
        &self,
        layout: &Layout,
        deck: &RuleDeck,
        cache: Option<(&mut ResultCache, &CacheKeys)>,
        mut journal: Option<&mut CheckpointJournal>,
    ) -> CheckReport {
        let mut profiler = Profiler::new();
        let mut stats = EngineStats::default();
        let rules = deck.rules();
        // One buffer per rule so completed rules can be journaled (and
        // interrupted rules' partials discarded) independently.
        let mut per_rule: Vec<Vec<Violation>> = vec![Vec::new(); rules.len()];
        // Rules start Interrupted: every path that finishes a rule
        // upgrades it, so a cancelled run reports exactly the rules it
        // never finished without extra bookkeeping.
        let mut status = vec![RuleStatus::Interrupted; rules.len()];
        // Rules whose collect ran (parallel mode): they are candidates
        // for finalization once their deferred recovery units drain.
        let mut collected = vec![false; rules.len()];
        let mut interrupted: Option<CancelReason> = None;
        // Device counters are process-cumulative; deltas over the run
        // are what the report attributes to it.
        let fused_before = self.device.stats().launches_fused();
        let wakeups_before = self.device.stats().worker_wakeups();
        let violations;
        {
            let mut ctx = RunContext::new(layout, &self.options, &mut profiler, &mut stats);
            if let Some((cache, keys)) = cache {
                ctx = ctx.with_cache(CacheHandle { cache, keys });
            }
            // Restore rules the journal already holds for this exact
            // (layout, deck) run: they are never re-issued.
            if let Some(j) = journal.as_deref_mut() {
                for (ri, rule) in rules.iter().enumerate() {
                    if let Some(done) = rule_signature(rule).and_then(|sig| j.completed(sig)) {
                        per_rule[ri] = done.as_ref().clone();
                        status[ri] = RuleStatus::Resumed;
                        ctx.stats.rules_resumed += 1;
                        if let Some(cb) = &self.progress {
                            cb(&rule.name, RuleStatus::Resumed);
                        }
                    }
                }
            }
            // The pool-sizing handshake: while this run is live, kernel
            // dispatch draws its spawned threads from the host
            // executor's gate (None when the executor is serial, which
            // restores the ungated pre-existing pool).
            self.device.set_host_gate(ctx.host.gate());
            // The cancellation handshake: the device births poisoned
            // streams after the token trips (so stale retries fail
            // fast) and the host executor stops work-stealing (every
            // queued task still runs exactly once, keeping merges
            // deterministic).
            self.device.set_cancel(self.cancel.clone());
            ctx.host.set_cancel(self.cancel.clone());
            // One loop for both modes, in plan order: rules grouped by
            // the layer they read, so the first rule of a group warms
            // the run's scene and row-set memo for the rest. A sharded
            // rule runs its host shard pipeline inline (the device row
            // path assumes whole-layer resident scenes, which is the
            // working set the budget exists to bound). A sequential rule
            // runs inline too. A parallel rule is issued on its own
            // stream ahead of collection, so independent device work
            // overlaps across streams with synchronization deferred to
            // each rule's collect (§IV-E, §V-C). Stream errors are
            // sticky, so one stream per rule keeps a fault from
            // poisoning the rest of the deck. In-flight rules are
            // bounded by the host's parallelism: past that point extra
            // live streams only add contention.
            let plan = ctx
                .profiler
                .time("plan", || crate::plan::ExecutionPlan::build(deck));
            let window = ctx.host.threads().clamp(2, 8);
            let mut inflight: std::collections::VecDeque<(usize, parallel::InFlightRule)> =
                std::collections::VecDeque::with_capacity(window);
            for &ri in &plan.order {
                let rule = &rules[ri];
                let sharded = crate::shard::sharded_rule(&self.options, rule);
                if status[ri] == RuleStatus::Resumed
                    || (!sharded && !crate::shard::whole_rule_assigned(&self.options, ri))
                {
                    // Restored from the journal, or another worker's
                    // rule (left Interrupted).
                    continue;
                }
                // Cancellation stops *issuing*; whatever is already in
                // flight is still collected below (drain, don't
                // abandon, device work).
                poll_cancel(&self.cancel, &mut interrupted);
                if interrupted.is_some() {
                    continue;
                }
                if !sharded && self.mode == Mode::Parallel {
                    if inflight.len() >= window {
                        let (ci, fl) = inflight.pop_front().expect("window is non-empty");
                        parallel::collect_rule(&mut ctx, fl, &mut per_rule[ci]);
                        collected[ci] = true;
                        maybe_finalize(
                            &mut ctx,
                            &mut journal,
                            &self.progress,
                            rules,
                            ci,
                            &mut per_rule,
                            &mut status,
                        );
                    }
                    let fl = parallel::issue_rule(&mut ctx, self.device.stream(), rule, None);
                    inflight.push_back((ri, fl));
                    continue;
                }
                let run = if sharded {
                    crate::shard::check_rule_sharded(
                        &mut ctx,
                        &self.device,
                        rule,
                        &mut journal,
                        self.cancel.as_ref(),
                        &mut per_rule[ri],
                    )
                } else {
                    sequential::check_rule(&mut ctx, rule, None, &mut per_rule[ri]);
                    crate::shard::ShardRun::Done
                };
                // Partial (worker slice, or cancelled mid-rule): the rule
                // stays Interrupted; its completed shards live in the
                // journal, not the report.
                if run == crate::shard::ShardRun::Done {
                    finalize_rule(
                        &mut ctx,
                        &mut journal,
                        &self.progress,
                        rule,
                        &mut per_rule[ri],
                        &mut status[ri],
                    );
                }
            }
            for (ci, fl) in inflight {
                parallel::collect_rule(&mut ctx, fl, &mut per_rule[ci]);
                collected[ci] = true;
                maybe_finalize(
                    &mut ctx,
                    &mut journal,
                    &self.progress,
                    rules,
                    ci,
                    &mut per_rule,
                    &mut status,
                );
            }
            // Failed work units were deferred so healthy rules could
            // keep draining; retry them (with backoff deadlines) or fall
            // back to the host now. Under cancellation the queue is
            // abandoned instead and the affected rules downgraded to
            // Interrupted. (A sequential run defers nothing.)
            let by_name = rule_indices_by_name(rules);
            let abandoned = {
                let per_rule = &mut per_rule;
                parallel::drain_recovery_routed(
                    &mut ctx,
                    &self.device,
                    self.cancel.as_ref(),
                    &mut |name, vs| {
                        if let Some(&ri) = by_name.get(name) {
                            per_rule[ri].extend(vs);
                        }
                    },
                )
            };
            if !abandoned.is_empty() {
                poll_cancel(&self.cancel, &mut interrupted);
            }
            // Rules whose deferred recovery units all drained are now
            // final: canonicalize and journal them. Abandoned rules stay
            // Interrupted — their partial results are discarded below.
            for (ri, rule) in rules.iter().enumerate() {
                if collected[ri]
                    && status[ri] == RuleStatus::Interrupted
                    && !abandoned.iter().any(|n| n == &rule.name)
                {
                    finalize_rule(
                        &mut ctx,
                        &mut journal,
                        &self.progress,
                        rule,
                        &mut per_rule[ri],
                        &mut status[ri],
                    );
                }
            }
            // A cancelled rule must contribute nothing: partial sets
            // would make an interrupted+resumed run diverge from an
            // uninterrupted one.
            for (ri, st) in status.iter().enumerate() {
                if *st == RuleStatus::Interrupted {
                    per_rule[ri].clear();
                }
            }
            ctx.stats.rules_interrupted = status
                .iter()
                .filter(|s| **s == RuleStatus::Interrupted)
                .count();
            violations = {
                let all: Vec<Violation> = per_rule.into_iter().flatten().collect();
                let host = std::sync::Arc::clone(&ctx.host);
                crate::violation::canonicalize_on(&host, all)
            };
            ctx.stats.host_tasks += ctx.host.tasks();
            ctx.stats.host_steals += ctx.host.steals();
            ctx.stats.launches_fused += self
                .device
                .stats()
                .launches_fused()
                .saturating_sub(fused_before);
            ctx.stats.worker_wakeups += self
                .device
                .stats()
                .worker_wakeups()
                .saturating_sub(wakeups_before);
            // Wall-clock-attributed device wait: cumulative kernel-wait
            // sums pipelined waits that cover the same physical seconds
            // (and can exceed wall time); the interval union cannot.
            let wall = interval_union(std::mem::take(&mut ctx.wait_spans));
            ctx.profiler.add("device-wait-wall", wall);
            ctx.host.drain_utilization_into(ctx.profiler);
            self.device.set_host_gate(None);
            self.device.set_cancel(None);
            ctx.host.set_cancel(None);
        }
        // Safety net: an abandoned drain can interrupt rules even when
        // every boundary poll passed beforehand; report it faithfully.
        if interrupted.is_none() && status.contains(&RuleStatus::Interrupted) {
            if let Some(tok) = &self.cancel {
                interrupted = tok.cancelled();
            }
        }
        CheckReport {
            violations,
            profile: profiler,
            stats,
            interrupted,
            rule_status: rules.iter().map(|r| r.name.clone()).zip(status).collect(),
        }
    }
}

/// Total covered duration of a set of (possibly overlapping) spans:
/// sort by start, merge overlaps, sum the merged lengths.
fn interval_union(mut spans: Vec<(std::time::Instant, std::time::Instant)>) -> std::time::Duration {
    spans.sort_by_key(|&(start, _)| start);
    let mut total = std::time::Duration::ZERO;
    let mut current: Option<(std::time::Instant, std::time::Instant)> = None;
    for (start, end) in spans {
        match &mut current {
            Some((_, cur_end)) if start <= *cur_end => {
                if end > *cur_end {
                    *cur_end = end;
                }
            }
            _ => {
                if let Some((s, e)) = current.take() {
                    total += e.duration_since(s);
                }
                current = Some((start, end));
            }
        }
    }
    if let Some((s, e)) = current {
        total += e.duration_since(s);
    }
    total
}

/// Latches the first cancellation reason observed at a rule boundary.
/// Polling stops once a reason is recorded, so a token's deterministic
/// poll budget (used by the kill/resume tests) is consumed only while
/// the run is still live.
fn poll_cancel(cancel: &Option<CancelToken>, interrupted: &mut Option<CancelReason>) {
    if interrupted.is_none() {
        if let Some(tok) = cancel {
            *interrupted = tok.cancelled();
        }
    }
}

/// Marks one rule completed: canonicalizes its buffer in place, tallies
/// it, notifies the progress observer, and appends it to the checkpoint
/// journal (if any). A journal write failure disables checkpointing for
/// the rest of the run — a checkpoint is an accelerator, never a reason
/// to abort a check.
fn finalize_rule(
    ctx: &mut RunContext<'_>,
    journal: &mut Option<&mut CheckpointJournal>,
    progress: &Option<ProgressFn>,
    rule: &Rule,
    buf: &mut Vec<Violation>,
    status: &mut RuleStatus,
) {
    *buf = canonicalize(std::mem::take(buf));
    *status = RuleStatus::Completed;
    ctx.stats.rules_completed += 1;
    if let Some(cb) = progress {
        cb(&rule.name, RuleStatus::Completed);
    }
    if let Some(j) = journal.as_deref_mut() {
        if let Some(sig) = rule_signature(rule) {
            if let Err(e) = j.record(&rule.name, sig, buf) {
                eprintln!(
                    "odrc: warning: checkpoint journal write failed ({e}); checkpointing disabled"
                );
                *journal = None;
            }
        }
    }
}

/// Finalizes a just-collected rule unless it still has work parked in
/// the deferred recovery queue — those rules are finalized (or
/// abandoned) after the drain.
fn maybe_finalize(
    ctx: &mut RunContext<'_>,
    journal: &mut Option<&mut CheckpointJournal>,
    progress: &Option<ProgressFn>,
    rules: &[Rule],
    ri: usize,
    per_rule: &mut [Vec<Violation>],
    status: &mut [RuleStatus],
) {
    if !parallel::recovery_pending_for(ctx, &rules[ri].name) {
        finalize_rule(
            ctx,
            journal,
            progress,
            &rules[ri],
            &mut per_rule[ri],
            &mut status[ri],
        );
    }
}

/// Name → deck index, first occurrence winning, for routing recovered
/// violations and abandoned-rule names back to per-rule buffers.
fn rule_indices_by_name(rules: &[Rule]) -> std::collections::HashMap<&str, usize> {
    let mut map = std::collections::HashMap::new();
    for (ri, rule) in rules.iter().enumerate() {
        map.entry(rule.name.as_str()).or_insert(ri);
    }
    map
}
