//! The shared work-stealing host executor.
//!
//! The paper's Fig. 4 attributes essentially all of the sequential
//! mode's runtime to host-side phases (partition ~15%, sweepline ~35%,
//! edge checks ~40-50%), and the row partition of §IV-B makes those
//! phases embarrassingly row-parallel. [`HostExecutor`] turns an index
//! range `0..n` of independent tasks into per-worker work-stealing
//! deques: each worker pops from the front of its own deque and, when
//! empty, steals the rear half of a victim's deque — the classic
//! Chase-Lev split between cheap owner pops and contended steals,
//! implemented here on a packed `AtomicU64` range (no external deque
//! crate; the workspace dependency list is fixed).
//!
//! Determinism is the design constraint: `run` returns results in task
//! index order no matter which worker executed what, so callers merge
//! with byte-identical output regardless of thread count or steal
//! interleaving. An executor with one thread (or an exhausted
//! [`ThreadGate`]) runs every task inline on the caller — the serial
//! path is the parallel path with zero workers, not a separate code
//! shape.
//!
//! # Sizing handshake
//!
//! The executor owns a [`ThreadGate`] holding `threads - 1` extra-thread
//! permits. Its own fan-outs draw worker threads from the gate, and the
//! simulated device can be handed the same gate so kernel dispatches
//! draw from the *same* budget — host phases and device kernels share
//! one pool-sized allowance instead of adding up, and nested fan-outs
//! (a task that launches a device sort) degrade to inline execution
//! instead of oversubscribing the machine.
//!
//! # Adaptive granularity
//!
//! Requesting N threads does not mean every fan-out should use N. On a
//! host with fewer physical cores than configured threads, or for a
//! phase whose total work is smaller than the cost of standing up the
//! workers, spawning only adds overhead — the pathology that made
//! `--host-threads 2` *slower* than serial on small hosts. Each
//! executor therefore keeps a per-phase cost model (an EWMA of
//! nanoseconds per task, learned from its own measured busy time) and
//! plans each fan-out as `workers = min(requested, physical cores,
//! total_estimated_ns / fanout_cost_ns)`, where the fan-out cost is
//! calibrated once per process by timing a no-op scoped spawn. Phases
//! the model has never seen run optimistically and are measured; the
//! planner only ever changes *how many* workers execute, never what
//! they produce, so results stay byte-identical either way.

use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::cancel::CancelToken;
use crate::profile::Profiler;

/// A task panicked inside a [`HostExecutor`] fan-out.
///
/// Worker bodies run under `catch_unwind` (mirroring the xpu SPMD
/// pool), so a panicking task fails the whole fan-out with this typed
/// error instead of unwinding through the thread scope — which would
/// skip the gate release and permanently shrink the shared thread
/// budget ("poisoning" every later run down to inline execution).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostPanic {
    /// Phase label the fan-out was running under.
    pub phase: String,
    /// Index of the first (lowest-indexed) panicking task.
    pub task: usize,
    /// The panic payload, stringified.
    pub message: String,
}

impl std::fmt::Display for HostPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "host task {} panicked in phase '{}': {}",
            self.task, self.phase, self.message
        )
    }
}

impl std::error::Error for HostPanic {}

/// Stringifies a caught panic payload (same shape as the xpu pool's
/// `panic_message`).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_owned()
    }
}

/// A budget of *extra* threads, shared between the host executor and
/// any other thread-spawning component (the simulated device's kernel
/// dispatch). Acquire-at-most semantics: a request returns however many
/// permits are available (possibly zero), never blocks, and the caller
/// runs inline with whatever it got — so sharing the gate can starve
/// parallelism but never deadlock.
#[derive(Debug)]
pub struct ThreadGate {
    permits: AtomicUsize,
}

impl ThreadGate {
    /// A gate holding `permits` extra-thread permits.
    pub fn new(permits: usize) -> Self {
        ThreadGate {
            permits: AtomicUsize::new(permits),
        }
    }

    /// Takes up to `want` permits, returning how many were granted.
    pub fn try_acquire(&self, want: usize) -> usize {
        if want == 0 {
            return 0;
        }
        let mut cur = self.permits.load(Ordering::Relaxed);
        loop {
            let take = cur.min(want);
            if take == 0 {
                return 0;
            }
            match self.permits.compare_exchange_weak(
                cur,
                cur - take,
                Ordering::Acquire,
                Ordering::Relaxed,
            ) {
                Ok(_) => return take,
                Err(now) => cur = now,
            }
        }
    }

    /// Returns `n` permits to the gate.
    pub fn release(&self, n: usize) {
        if n > 0 {
            self.permits.fetch_add(n, Ordering::Release);
        }
    }

    /// Permits currently available.
    pub fn available(&self) -> usize {
        self.permits.load(Ordering::Relaxed)
    }
}

/// One worker's deque: a half-open index range packed into an
/// `AtomicU64` (`lo` in the high word, `hi` in the low word). The owner
/// claims single indices from the front; thieves claim the rear half in
/// one CAS. Every transition only shrinks the current range (or
/// installs a freshly stolen one into an empty deque), so each index is
/// claimed exactly once.
struct RangeDeque(AtomicU64);

#[inline]
fn pack_range(lo: u32, hi: u32) -> u64 {
    (u64::from(lo) << 32) | u64::from(hi)
}

#[inline]
fn unpack_range(v: u64) -> (u32, u32) {
    ((v >> 32) as u32, v as u32)
}

impl RangeDeque {
    fn new(lo: usize, hi: usize) -> Self {
        RangeDeque(AtomicU64::new(pack_range(lo as u32, hi as u32)))
    }

    /// Owner side: claim the front index.
    fn pop_front(&self) -> Option<usize> {
        let mut cur = self.0.load(Ordering::Acquire);
        loop {
            let (lo, hi) = unpack_range(cur);
            if lo >= hi {
                return None;
            }
            match self.0.compare_exchange_weak(
                cur,
                pack_range(lo + 1, hi),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(lo as usize),
                Err(now) => cur = now,
            }
        }
    }

    /// Thief side: claim the rear half (at least one index).
    fn steal_back(&self) -> Option<std::ops::Range<usize>> {
        let mut cur = self.0.load(Ordering::Acquire);
        loop {
            let (lo, hi) = unpack_range(cur);
            if lo >= hi {
                return None;
            }
            let take = (hi - lo).div_ceil(2);
            match self.0.compare_exchange_weak(
                cur,
                pack_range(lo, hi - take),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some((hi - take) as usize..hi as usize),
                Err(now) => cur = now,
            }
        }
    }

    /// Owner side: install a stolen range into this (empty) deque.
    fn install(&self, r: std::ops::Range<usize>) {
        self.0
            .store(pack_range(r.start as u32, r.end as u32), Ordering::Release);
    }
}

/// What one worker brings back from a fan-out.
struct WorkerResult<T> {
    results: Vec<(usize, T)>,
    busy: Duration,
    /// First panicking task on this worker, if any.
    panic: Option<(usize, String)>,
}

/// Per-phase utilization sample accumulated by [`HostExecutor::run`].
struct UtilSample {
    phase: String,
    wall: Duration,
    busy: Vec<Duration>,
}

/// Measured cost of standing up one extra scoped worker (spawn + join),
/// calibrated once per process. Floored at 20µs so a suspiciously fast
/// calibration run can't convince the planner that threads are free.
fn fanout_cost() -> Duration {
    static COST: OnceLock<Duration> = OnceLock::new();
    *COST.get_or_init(|| {
        let mut best = Duration::MAX;
        for _ in 0..4 {
            let t0 = Instant::now();
            std::thread::scope(|s| {
                s.spawn(|| {});
            });
            best = best.min(t0.elapsed());
        }
        best.max(Duration::from_micros(20))
    })
}

/// Physical parallelism of this host, cached once per process.
fn physical_parallelism() -> usize {
    static PHYS: OnceLock<usize> = OnceLock::new();
    *PHYS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The shared work-stealing host executor (see the [module docs](self)).
///
/// # Examples
///
/// ```
/// use odrc_infra::host::HostExecutor;
///
/// let host = HostExecutor::new(4);
/// let squares = host.run("demo", 100, |i| i * i);
/// assert_eq!(squares[7], 49); // results come back in index order
/// assert!(host.tasks() >= 100);
/// ```
pub struct HostExecutor {
    threads: usize,
    gate: Option<Arc<ThreadGate>>,
    cancel: Mutex<Option<CancelToken>>,
    tasks: AtomicU64,
    steals: AtomicU64,
    util: Mutex<Vec<UtilSample>>,
    /// Adaptive granularity switch (see the module docs). On by
    /// default; tests that must exercise the multi-worker path on a
    /// single-core host switch it off.
    adaptive: AtomicBool,
    /// EWMA of per-task nanoseconds, keyed by phase label.
    cost_model: Mutex<HashMap<String, f64>>,
}

impl std::fmt::Debug for HostExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HostExecutor")
            .field("threads", &self.threads)
            .field("tasks", &self.tasks())
            .field("steals", &self.steals())
            .finish()
    }
}

impl HostExecutor {
    /// An executor sized to `threads` (clamped to at least 1). One
    /// thread means strictly inline execution — no gate, no spawns.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        HostExecutor {
            threads,
            gate: (threads > 1).then(|| Arc::new(ThreadGate::new(threads - 1))),
            cancel: Mutex::new(None),
            tasks: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            util: Mutex::new(Vec::new()),
            adaptive: AtomicBool::new(true),
            cost_model: Mutex::new(HashMap::new()),
        }
    }

    /// An executor that draws its extra workers from an *external*
    /// gate instead of owning one — the multi-tenant generalization of
    /// the sizing handshake. Every engine run inside a server shares
    /// one process-wide permit budget: concurrent runs' fan-outs (and,
    /// via [`HostExecutor::gate`], their devices' kernel dispatches)
    /// contend for the same permits, so N simultaneous jobs never
    /// oversubscribe the machine — late-coming fan-outs degrade toward
    /// inline execution exactly like nested fan-outs always have.
    ///
    /// `threads` caps how many workers *this* executor will use per
    /// fan-out (it still never takes more than the gate can grant).
    /// With `threads <= 1` the executor is serial and the gate is
    /// untouched.
    pub fn with_shared_gate(threads: usize, gate: Arc<ThreadGate>) -> Self {
        let threads = threads.max(1);
        HostExecutor {
            threads,
            gate: (threads > 1).then_some(gate),
            cancel: Mutex::new(None),
            tasks: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            util: Mutex::new(Vec::new()),
            adaptive: AtomicBool::new(true),
            cost_model: Mutex::new(HashMap::new()),
        }
    }

    /// Attaches (or clears) the run's cancel token. A cancelled token
    /// makes workers stop *stealing*: every seeded task still executes
    /// exactly once — the deterministic index-ordered merge is
    /// unaffected — but load balancing stops, so an in-flight fan-out
    /// winds down on the cheapest path instead of redistributing work
    /// the run is about to discard.
    pub fn set_cancel(&self, token: Option<CancelToken>) {
        *self.cancel.lock().expect("cancel lock") = token;
    }

    /// The configured thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The extra-thread gate, for sharing the budget with other
    /// components (the device's kernel dispatch). `None` when serial.
    pub fn gate(&self) -> Option<Arc<ThreadGate>> {
        self.gate.clone()
    }

    /// Tasks executed so far (across all `run` calls).
    pub fn tasks(&self) -> u64 {
        self.tasks.load(Ordering::Relaxed)
    }

    /// Successful steals so far.
    pub fn steals(&self) -> u64 {
        self.steals.load(Ordering::Relaxed)
    }

    /// Enables or disables the adaptive granularity planner (on by
    /// default). With it off, every fan-out uses the full configured
    /// thread count — the pre-cost-model behavior, kept for tests that
    /// must exercise the multi-worker path regardless of host shape.
    pub fn set_adaptive(&self, on: bool) {
        self.adaptive.store(on, Ordering::Relaxed);
    }

    /// Decides how many workers a fan-out of `n` tasks in `phase`
    /// should use, given that the caller wants `want`. Only ever
    /// shrinks: never above the physical core count, and never so many
    /// that the calibrated fan-out cost exceeds the phase's estimated
    /// total work. Unknown phases run optimistically and get measured.
    fn plan_workers(&self, phase: &str, want: usize, n: usize) -> usize {
        if want <= 1 || !self.adaptive.load(Ordering::Relaxed) {
            return want;
        }
        let phys = physical_parallelism();
        if phys <= 1 {
            return 1;
        }
        let want = want.min(phys);
        let est = {
            let model = self.cost_model.lock().expect("cost model lock");
            model.get(phase).copied()
        };
        match est {
            None => want,
            Some(ns_per_task) => {
                let total_ns = ns_per_task * n as f64;
                let spawn_ns = fanout_cost().as_nanos() as f64;
                let by_work = (total_ns / spawn_ns) as usize;
                want.min(by_work.max(1))
            }
        }
    }

    /// Feeds a measured fan-out back into the per-phase cost model.
    /// `busy` is the summed worker busy time, so the estimate tracks
    /// work per task independent of how many workers ran it.
    fn observe(&self, phase: &str, n: usize, busy: Duration) {
        if n == 0 {
            return;
        }
        let sample = busy.as_nanos() as f64 / n as f64;
        let mut model = self.cost_model.lock().expect("cost model lock");
        match model.get_mut(phase) {
            Some(est) => *est = 0.7 * *est + 0.3 * sample,
            None => {
                model.insert(phase.to_owned(), sample);
            }
        }
    }

    /// Runs tasks `0..n` of `f`, returning the results in index order.
    ///
    /// Infallible wrapper over [`HostExecutor::try_run`]: a panicking
    /// task re-raises the panic on the caller — but only *after* the
    /// fan-out has wound down and the gate permits are back, so the
    /// executor stays usable.
    pub fn run<T, F>(&self, phase: &str, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        match self.try_run(phase, n, f) {
            Ok(out) => out,
            Err(e) => panic!("{e}"),
        }
    }

    /// Runs tasks `0..n` of `f`, returning the results in index order,
    /// or a typed [`HostPanic`] if any task panicked.
    ///
    /// Tasks are distributed over up to `threads` workers (the caller
    /// is worker 0; extra workers are scoped threads drawn from the
    /// gate) with rear-half stealing for load balance. `phase` labels
    /// the per-worker busy time accumulated for
    /// [`HostExecutor::drain_utilization_into`].
    ///
    /// Each task body runs under `catch_unwind`; on a panic the
    /// affected worker stops claiming work, the other workers drain
    /// normally, the gate permits are released, and the error reports
    /// the lowest-indexed panicking task (deterministic regardless of
    /// scheduling).
    pub fn try_run<T, F>(&self, phase: &str, n: usize, f: F) -> Result<Vec<T>, HostPanic>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.tasks.fetch_add(n as u64, Ordering::Relaxed);
        if n == 0 {
            return Ok(Vec::new());
        }
        let want = self.plan_workers(phase, self.threads.min(n), n);
        let extra = match (&self.gate, want) {
            (Some(gate), w) if w > 1 => gate.try_acquire(w - 1),
            _ => 0,
        };
        if extra == 0 {
            let start = Instant::now();
            let mut out: Vec<T> = Vec::with_capacity(n);
            for i in 0..n {
                match std::panic::catch_unwind(AssertUnwindSafe(|| f(i))) {
                    Ok(v) => out.push(v),
                    Err(payload) => {
                        self.note_util(phase, start.elapsed(), vec![start.elapsed()]);
                        return Err(HostPanic {
                            phase: phase.to_owned(),
                            task: i,
                            message: panic_message(payload),
                        });
                    }
                }
            }
            self.observe(phase, n, start.elapsed());
            self.note_util(phase, start.elapsed(), vec![start.elapsed()]);
            return Ok(out);
        }
        let workers = extra + 1;

        // Seed per-worker deques with contiguous slices of the range.
        let chunk = n.div_ceil(workers);
        let deques: Vec<RangeDeque> = (0..workers)
            .map(|w| RangeDeque::new((w * chunk).min(n), ((w + 1) * chunk).min(n)))
            .collect();
        let deques = &deques;
        let f = &f;
        let steals = &self.steals;
        let cancel = self.cancel.lock().expect("cancel lock").clone();
        let cancel = &cancel;
        let worker_loop = move |w: usize| -> WorkerResult<T> {
            let mut local: Vec<(usize, T)> = Vec::new();
            let mut busy = Duration::ZERO;
            loop {
                while let Some(i) = deques[w].pop_front() {
                    let t0 = Instant::now();
                    match std::panic::catch_unwind(AssertUnwindSafe(|| f(i))) {
                        Ok(v) => local.push((i, v)),
                        Err(payload) => {
                            busy += t0.elapsed();
                            return WorkerResult {
                                results: local,
                                busy,
                                panic: Some((i, panic_message(payload))),
                            };
                        }
                    }
                    busy += t0.elapsed();
                }
                // A cancelled run stops load balancing: every seeded
                // task still runs exactly once (owners drain their own
                // deques), but nothing is redistributed.
                let stealing_allowed = cancel.as_ref().is_none_or(|t| !t.is_cancelled());
                let mut refilled = false;
                if stealing_allowed {
                    for off in 1..deques.len() {
                        let victim = (w + off) % deques.len();
                        if let Some(r) = deques[victim].steal_back() {
                            steals.fetch_add(1, Ordering::Relaxed);
                            deques[w].install(r);
                            refilled = true;
                            break;
                        }
                    }
                }
                if !refilled {
                    return WorkerResult {
                        results: local,
                        busy,
                        panic: None,
                    };
                }
            }
        };

        let start = Instant::now();
        let mut per_worker: Vec<WorkerResult<T>> = Vec::with_capacity(workers);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (1..workers)
                .map(|w| scope.spawn(move || worker_loop(w)))
                .collect();
            per_worker.push(worker_loop(0));
            for h in handles {
                match h.join() {
                    Ok(r) => per_worker.push(r),
                    // Unreachable in practice (the task body is caught),
                    // but never let a join failure skip the gate release.
                    Err(payload) => per_worker.push(WorkerResult {
                        results: Vec::new(),
                        busy: Duration::ZERO,
                        panic: Some((usize::MAX, panic_message(payload))),
                    }),
                }
            }
        });
        let wall = start.elapsed();
        if let Some(gate) = &self.gate {
            gate.release(extra);
        }

        let busy: Vec<Duration> = per_worker.iter().map(|r| r.busy).collect();
        self.observe(phase, n, busy.iter().sum());
        self.note_util(phase, wall, busy);

        // Deterministic failure: report the lowest-indexed panic no
        // matter which worker hit it first.
        if let Some((task, message)) = per_worker
            .iter()
            .filter_map(|r| r.panic.clone())
            .min_by_key(|(i, _)| *i)
        {
            return Err(HostPanic {
                phase: phase.to_owned(),
                task,
                message,
            });
        }

        // Deterministic merge: place every result by its task index.
        let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
        for r in per_worker {
            for (i, v) in r.results {
                debug_assert!(slots[i].is_none(), "task {i} claimed twice");
                slots[i] = Some(v);
            }
        }
        Ok(slots
            .into_iter()
            .map(|s| s.expect("every task index claimed exactly once"))
            .collect())
    }

    fn note_util(&self, phase: &str, wall: Duration, busy: Vec<Duration>) {
        let mut util = self.util.lock().expect("utilization lock");
        if let Some(sample) = util.iter_mut().find(|s| s.phase == phase) {
            sample.wall += wall;
            for (i, b) in busy.into_iter().enumerate() {
                if i < sample.busy.len() {
                    sample.busy[i] += b;
                } else {
                    sample.busy.push(b);
                }
            }
        } else {
            util.push(UtilSample {
                phase: phase.to_owned(),
                wall,
                busy,
            });
        }
    }

    /// Moves the accumulated per-phase host-thread utilization into a
    /// profiler (busy vs idle per worker, keyed by phase).
    pub fn drain_utilization_into(&self, profiler: &mut Profiler) {
        let mut util = self.util.lock().expect("utilization lock");
        for sample in util.drain(..) {
            profiler.add_host_util(&sample.phase, sample.wall, &sample.busy);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_executor_runs_inline() {
        let host = HostExecutor::new(1);
        assert!(host.gate().is_none());
        let out = host.run("t", 10, |i| i + 1);
        assert_eq!(out, (1..=10).collect::<Vec<_>>());
        assert_eq!(host.tasks(), 10);
        assert_eq!(host.steals(), 0);
    }

    #[test]
    fn results_in_index_order_any_thread_count() {
        for threads in [1, 2, 3, 8] {
            let host = HostExecutor::new(threads);
            host.set_adaptive(false);
            let out = host.run("t", 1000, |i| i * 3);
            assert_eq!(out, (0..1000).map(|i| i * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_run() {
        let host = HostExecutor::new(4);
        let out: Vec<usize> = host.run("t", 0, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn uneven_tasks_balance_via_stealing() {
        let host = HostExecutor::new(4);
        host.set_adaptive(false);
        // A few heavy tasks at the front force front-loaded deques to be
        // drained by thieves on multicore hosts; on any host the result
        // must still come back in order.
        let out = host.run("t", 64, |i| {
            if i < 4 {
                let mut acc = 0u64;
                for k in 0..200_000u64 {
                    acc = acc.wrapping_add(k ^ i as u64);
                }
                acc & 1
            } else {
                (i as u64) & 1
            }
        });
        assert_eq!(out.len(), 64);
        for (i, v) in out.iter().enumerate().skip(4) {
            assert_eq!(*v, (i as u64) & 1);
        }
    }

    #[test]
    fn gate_bounds_extra_threads() {
        let gate = ThreadGate::new(3);
        assert_eq!(gate.try_acquire(2), 2);
        assert_eq!(gate.try_acquire(5), 1);
        assert_eq!(gate.try_acquire(1), 0);
        gate.release(3);
        assert_eq!(gate.available(), 3);
        assert_eq!(gate.try_acquire(0), 0);
    }

    #[test]
    fn executor_shares_gate_budget() {
        let host = HostExecutor::new(4);
        host.set_adaptive(false);
        let gate = host.gate().expect("parallel executor has a gate");
        assert_eq!(gate.available(), 3);
        // Drain the gate: the next run degrades to inline but completes.
        let taken = gate.try_acquire(3);
        assert_eq!(taken, 3);
        let out = host.run("t", 100, |i| i);
        assert_eq!(out, (0..100).collect::<Vec<_>>());
        gate.release(taken);
        assert_eq!(gate.available(), 3);
        // And after release the budget is intact for a parallel run.
        let out = host.run("t", 100, |i| i);
        assert_eq!(out.len(), 100);
        assert_eq!(gate.available(), 3);
    }

    #[test]
    fn shared_gate_spans_executors() {
        // Two executors over one gate: permits drawn by either come
        // from (and return to) the same budget.
        let gate = Arc::new(ThreadGate::new(3));
        let a = HostExecutor::with_shared_gate(4, Arc::clone(&gate));
        let b = HostExecutor::with_shared_gate(4, Arc::clone(&gate));
        assert!(Arc::ptr_eq(&a.gate().unwrap(), &b.gate().unwrap()));
        // Drain the shared budget: both executors degrade to inline
        // but still complete with index-ordered results.
        let taken = gate.try_acquire(3);
        assert_eq!(taken, 3);
        assert_eq!(a.run("t", 20, |i| i), (0..20).collect::<Vec<_>>());
        assert_eq!(b.run("t", 20, |i| i + 1), (1..=20).collect::<Vec<_>>());
        gate.release(taken);
        assert_eq!(gate.available(), 3);
        // With permits back, a fan-out returns them when done.
        let out = a.run("t", 200, |i| i);
        assert_eq!(out.len(), 200);
        assert_eq!(gate.available(), 3);
    }

    #[test]
    fn shared_gate_serial_executor_ignores_gate() {
        let gate = Arc::new(ThreadGate::new(2));
        let host = HostExecutor::with_shared_gate(1, Arc::clone(&gate));
        assert!(host.gate().is_none());
        assert_eq!(host.run("t", 5, |i| i), vec![0, 1, 2, 3, 4]);
        assert_eq!(gate.available(), 2);
    }

    #[test]
    fn utilization_accumulates_per_phase() {
        let host = HostExecutor::new(2);
        host.set_adaptive(false);
        host.run("alpha", 50, |i| i);
        host.run("alpha", 50, |i| i);
        host.run("beta", 10, |i| i);
        let mut prof = Profiler::new();
        host.drain_utilization_into(&mut prof);
        let util = prof.host_util();
        assert_eq!(util.len(), 2);
        assert_eq!(util[0].phase, "alpha");
        assert!(!util[0].busy.is_empty());
        // Drained: a second drain adds nothing.
        let mut prof2 = Profiler::new();
        host.drain_utilization_into(&mut prof2);
        assert!(prof2.host_util().is_empty());
    }

    #[test]
    fn panicking_task_fails_with_typed_error_and_keeps_pool() {
        let host = HostExecutor::new(4);
        host.set_adaptive(false);
        let gate = host.gate().expect("parallel executor has a gate");
        let err = host
            .try_run("t", 64, |i| {
                if i == 17 {
                    panic!("task {i} exploded");
                }
                i
            })
            .expect_err("task 17 panics");
        assert_eq!(err.task, 17);
        assert_eq!(err.phase, "t");
        assert!(err.message.contains("exploded"), "got: {}", err.message);
        // Regression: the fan-out used to unwind through the thread
        // scope, skipping the gate release and degrading every later
        // run to inline execution. The permits must all be back.
        assert_eq!(gate.available(), 3);
        let out = host.run("t", 100, |i| i);
        assert_eq!(out, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn panicking_task_fails_inline_path_too() {
        let host = HostExecutor::new(1);
        let err = host
            .try_run("serial", 8, |i| {
                if i == 3 {
                    panic!("boom");
                }
                i
            })
            .expect_err("task 3 panics");
        assert_eq!(err.task, 3);
        assert!(err.message.contains("boom"));
    }

    #[test]
    fn run_repanics_after_releasing_gate() {
        let host = HostExecutor::new(4);
        host.set_adaptive(false);
        let gate = host.gate().expect("gate");
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            host.run("t", 16, |i| {
                if i == 5 {
                    panic!("inner");
                }
                i
            })
        }));
        assert!(result.is_err());
        assert_eq!(gate.available(), 3);
    }

    #[test]
    fn lowest_indexed_panic_wins() {
        // Several tasks panic; the reported task index must be the
        // minimum regardless of worker scheduling.
        for _ in 0..8 {
            let host = HostExecutor::new(4);
            host.set_adaptive(false);
            let err = host
                .try_run("t", 64, |i| {
                    if i % 9 == 4 {
                        panic!("p{i}");
                    }
                    i
                })
                .expect_err("several tasks panic");
            assert_eq!(err.task, 4);
        }
    }

    #[test]
    fn cancelled_token_still_runs_every_task() {
        let host = HostExecutor::new(4);
        host.set_adaptive(false);
        let token = CancelToken::new();
        token.cancel(crate::cancel::CancelReason::Interrupt);
        host.set_cancel(Some(token));
        // Stealing is disabled, but all seeded tasks still execute and
        // merge deterministically.
        let out = host.run("t", 500, |i| i * 2);
        assert_eq!(out, (0..500).map(|i| i * 2).collect::<Vec<_>>());
        host.set_cancel(None);
    }

    #[test]
    fn planner_never_exceeds_physical_cores() {
        let host = HostExecutor::new(64);
        let planned = host.plan_workers("t", 64, 10_000);
        assert!(planned <= physical_parallelism());
        assert!(planned >= 1);
    }

    #[test]
    fn planner_shrinks_cheap_phases_to_inline() {
        let host = HostExecutor::new(4);
        // Teach the model that "cheap" tasks are ~40ns each: total work
        // for a small fan-out is far below the calibrated spawn cost,
        // so the planner must refuse to spawn.
        host.observe("cheap", 1000, Duration::from_nanos(40_000));
        assert_eq!(host.plan_workers("cheap", 4, 8), 1);
        // An expensive phase keeps its workers (modulo physical cores).
        host.observe("heavy", 10, Duration::from_millis(400));
        let planned = host.plan_workers("heavy", 4, 10);
        assert_eq!(planned, 4.min(physical_parallelism()));
    }

    #[test]
    fn planner_is_optimistic_for_unknown_phases() {
        let host = HostExecutor::new(4);
        let expect = 4.min(physical_parallelism());
        assert_eq!(host.plan_workers("never-seen", 4, 100), expect);
    }

    #[test]
    fn disabling_adaptive_restores_full_fanout() {
        let host = HostExecutor::new(4);
        host.set_adaptive(false);
        host.observe("cheap", 1000, Duration::from_nanos(40_000));
        assert_eq!(host.plan_workers("cheap", 4, 8), 4);
    }

    #[test]
    fn cost_model_learns_from_runs() {
        let host = HostExecutor::new(2);
        host.run("spin", 32, |i| {
            let mut acc = 0u64;
            for k in 0..50_000u64 {
                acc = acc.wrapping_add(k ^ i as u64);
            }
            acc
        });
        let model = host.cost_model.lock().unwrap();
        let est = model.get("spin").copied().expect("phase was measured");
        assert!(est > 0.0);
    }

    #[test]
    fn adaptive_results_match_full_fanout() {
        // The planner changes worker counts, never results.
        let adaptive = HostExecutor::new(8);
        let pinned = HostExecutor::new(8);
        pinned.set_adaptive(false);
        for _ in 0..3 {
            let a = adaptive.run("t", 777, |i| i * 31 + 7);
            let b = pinned.run("t", 777, |i| i * 31 + 7);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn range_deque_claims_each_index_once() {
        let d = RangeDeque::new(0, 10);
        let stolen = d.steal_back().expect("non-empty");
        assert_eq!(stolen, 5..10);
        let mut fronts = Vec::new();
        while let Some(i) = d.pop_front() {
            fronts.push(i);
        }
        assert_eq!(fronts, vec![0, 1, 2, 3, 4]);
        assert!(d.steal_back().is_none());
        assert!(d.pop_front().is_none());
    }
}
