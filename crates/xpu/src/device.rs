//! The simulated SPMD device.

use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use crate::buffer::DeviceBuffer;
use crate::error::{TransferDirection, XpuError, XpuResult};
use crate::fault::{FaultPlan, FaultState};
use crate::stream::Stream;

/// Per-thread identity inside a kernel launch, mirroring CUDA's
/// `blockIdx` / `threadIdx` / `blockDim` / `gridDim` built-ins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadCtx {
    /// Index of this thread's block within the grid.
    pub block_idx: usize,
    /// Index of this thread within its block.
    pub thread_idx: usize,
    /// Threads per block.
    pub block_dim: usize,
    /// Blocks in the grid.
    pub grid_dim: usize,
}

impl ThreadCtx {
    /// The flattened global thread id
    /// (`blockIdx.x * blockDim.x + threadIdx.x`).
    #[inline]
    pub fn global_id(&self) -> usize {
        self.block_idx * self.block_dim + self.thread_idx
    }

    /// Total threads in the launch.
    #[inline]
    pub fn total_threads(&self) -> usize {
        self.block_dim * self.grid_dim
    }
}

/// A kernel launch configuration: grid and block dimensions.
///
/// Launches are 1-D; the engine's edge kernels never need 2-D/3-D
/// shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchConfig {
    /// Blocks in the grid.
    pub grid_dim: usize,
    /// Threads per block.
    pub block_dim: usize,
}

impl LaunchConfig {
    /// The default CUDA-style block size.
    pub const DEFAULT_BLOCK: usize = 256;

    /// A config with at least `n` threads using the default block size
    /// (the usual `(n + B - 1) / B` grid computation).
    pub fn for_threads(n: usize) -> Self {
        Self::for_threads_with_block(n, Self::DEFAULT_BLOCK)
    }

    /// A config with at least `n` threads and the given block size.
    ///
    /// # Panics
    ///
    /// Panics if `block_dim` is zero.
    pub fn for_threads_with_block(n: usize, block_dim: usize) -> Self {
        assert!(block_dim > 0, "block dimension must be positive");
        LaunchConfig {
            grid_dim: n.div_ceil(block_dim).max(1),
            block_dim,
        }
    }

    /// Total threads launched.
    #[inline]
    pub fn total_threads(&self) -> usize {
        self.grid_dim * self.block_dim
    }
}

/// Cumulative device statistics, useful for asserting that work really
/// executed on the device (e.g. that copies were hidden behind compute).
#[derive(Debug, Default)]
pub struct DeviceStats {
    kernels_launched: AtomicU64,
    threads_executed: AtomicU64,
    bytes_h2d: AtomicU64,
    bytes_d2h: AtomicU64,
    launches_fused: AtomicU64,
    /// Shared with the persistent pool workers (which must not keep the
    /// device alive), hence the `Arc`.
    worker_wakeups: Arc<AtomicU64>,
}

impl DeviceStats {
    /// Number of kernel launches so far.
    pub fn kernels_launched(&self) -> u64 {
        self.kernels_launched.load(Ordering::Relaxed)
    }

    /// Number of SPMD threads executed so far.
    pub fn threads_executed(&self) -> u64 {
        self.threads_executed.load(Ordering::Relaxed)
    }

    /// Bytes copied host → device.
    pub fn bytes_h2d(&self) -> u64 {
        self.bytes_h2d.load(Ordering::Relaxed)
    }

    /// Bytes copied device → host.
    pub fn bytes_d2h(&self) -> u64 {
        self.bytes_d2h.load(Ordering::Relaxed)
    }

    /// Number of kernel launches that rode a fused batch instead of a
    /// dedicated stream command.
    pub fn launches_fused(&self) -> u64 {
        self.launches_fused.load(Ordering::Relaxed)
    }

    /// Times a persistent pool worker woke up and joined a dispatch.
    pub fn worker_wakeups(&self) -> u64 {
        self.worker_wakeups.load(Ordering::Relaxed)
    }

    pub(crate) fn record_fused(&self, launches: u64) {
        self.launches_fused.fetch_add(launches, Ordering::Relaxed);
    }

    pub(crate) fn wakeups_handle(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.worker_wakeups)
    }

    pub(crate) fn record_launch(&self, threads: usize) {
        self.kernels_launched.fetch_add(1, Ordering::Relaxed);
        self.threads_executed
            .fetch_add(threads as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_h2d(&self, bytes: usize) {
        self.bytes_h2d.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_d2h(&self, bytes: usize) {
        self.bytes_d2h.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

pub(crate) struct DeviceInner {
    workers: usize,
    stats: DeviceStats,
    /// Device-memory budget in bytes; `None` means unlimited.
    budget: Option<usize>,
    /// Bytes currently reserved by live stream-ordered buffers.
    mem_in_use: AtomicUsize,
    /// Deterministic ordinals addressed by [`FaultPlan`] entries.
    alloc_ordinal: AtomicU64,
    transfer_ordinal: AtomicU64,
    launch_ordinal: AtomicU64,
    stream_op_ordinal: AtomicU64,
    shard_load_ordinal: AtomicU64,
    /// Installed fault schedule; `None` (the default) injects nothing.
    faults: Mutex<Option<FaultState>>,
    /// Fast-path flag mirroring `faults.is_some()` so the common
    /// fault-free case pays one relaxed load, not a mutex.
    faults_enabled: AtomicU64,
    /// Extra-thread budget shared with the host executor. When
    /// installed, kernel dispatch draws its worker threads from this
    /// gate so host fan-outs and device launches never add up past the
    /// configured host parallelism; `None` (the default) reproduces the
    /// ungated pool exactly.
    host_gate: Mutex<Option<Arc<odrc_infra::ThreadGate>>>,
    /// Stream watchdog limit in nanoseconds; 0 means no watchdog. Waits
    /// on streams of this device poll the in-flight operation and
    /// surface ops stalled past the limit as
    /// [`XpuError::StreamTimeout`](crate::XpuError::StreamTimeout).
    watchdog_nanos: AtomicU64,
    /// The run's cancel token. Streams created after cancellation are
    /// born poisoned with [`XpuError::Cancelled`](crate::XpuError::Cancelled),
    /// so retry/recovery loops fail fast during shutdown.
    cancel: Mutex<Option<odrc_infra::CancelToken>>,
    /// Persistent worker pool, started lazily at the first parallel
    /// dispatch. `None` until then; shut down and joined on drop.
    pool: Mutex<Option<Arc<PoolShared>>>,
    /// Join handles of the pool workers (lock order: `pool` first).
    pool_handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

/// State shared between dispatching threads and pool workers.
struct PoolShared {
    state: Mutex<PoolState>,
    /// Workers park here; signalled when a job is published or on
    /// shutdown.
    work_cv: Condvar,
    /// Dispatchers park here while draining a retracted job's last
    /// participants.
    done_cv: Condvar,
    wakeups: Arc<AtomicU64>,
}

struct PoolState {
    /// Published jobs with unclaimed chunks. A job is retracted by its
    /// dispatcher (under this lock) before the dispatcher returns, so a
    /// handle in this list always points at a live header.
    jobs: Vec<JobHandle>,
    shutdown: bool,
}

/// Type-erased pointer to a dispatcher-owned [`JobHeader`]; only valid
/// while the job is published or the holder is a registered
/// participant.
#[derive(Clone, Copy, PartialEq, Eq)]
struct JobHandle(*const JobHeader);

// SAFETY: the pointee is shared across threads only under the
// publication/participation protocol documented on `PoolState::jobs`,
// and `JobHeader` itself is `Sync` (atomics + immutable fields).
unsafe impl Send for JobHandle {}
unsafe impl Sync for JobHandle {}

/// One launch's chunk mailbox, living on the dispatcher's stack.
struct JobHeader {
    /// Next unclaimed chunk index; claimed with `fetch_add`.
    next: AtomicUsize,
    n_chunks: usize,
    /// Pool workers currently executing chunks of this job. Mutated
    /// only while holding the pool state lock; the dispatcher waits for
    /// zero (under the same lock) before freeing the header.
    participants: AtomicUsize,
    /// Cap on pool workers that may join (the gate handshake size).
    max_workers: usize,
    /// Points at the dispatcher's [`ChunkSet`].
    data: *const (),
    /// Monomorphized chunk runner for `data`.
    run: unsafe fn(*const (), usize),
}

/// The typed side of a job: raw chunk descriptors plus the kernel body.
struct ChunkSet<'a, T, F> {
    chunks: Vec<RawChunk<T>>,
    body: &'a F,
    /// First panic payload from any chunk; re-thrown by the dispatcher
    /// after the job completes, as a panicking thread in a `std::thread::scope`
    /// would propagate.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

/// A disjoint sub-slice of the launch's work, sendable by raw pointer.
struct RawChunk<T> {
    start: usize,
    ptr: *mut T,
    len: usize,
}

/// Runs chunk `idx` of the [`ChunkSet`] behind `data`.
///
/// # Safety
///
/// `data` must point at a live `ChunkSet<'_, T, F>` whose chunks are
/// disjoint, and no two callers may pass the same `idx`.
unsafe fn run_chunk<T, F>(data: *const (), idx: usize)
where
    T: Send,
    F: Fn(std::ops::Range<usize>, &mut [T]) + Send + Sync,
{
    let set = &*(data as *const ChunkSet<'_, T, F>);
    let c = &set.chunks[idx];
    let chunk = std::slice::from_raw_parts_mut(c.ptr, c.len);
    let range = c.start..c.start + c.len;
    let result =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| (set.body)(range, chunk)));
    if let Err(payload) = result {
        let mut slot = set.panic.lock();
        if slot.is_none() {
            *slot = Some(payload);
        }
    }
}

/// Body of a persistent pool worker: park until a job is published,
/// register as a participant, drain chunks, deregister, repeat.
fn pool_worker(pool: Arc<PoolShared>) {
    let mut state = pool.state.lock();
    loop {
        if state.shutdown {
            return;
        }
        let found = state.jobs.iter().copied().find(|j| {
            // SAFETY: published handles point at live headers (see
            // `PoolState::jobs`); we hold the state lock.
            let h = unsafe { &*j.0 };
            h.participants.load(Ordering::Relaxed) < h.max_workers
                && h.next.load(Ordering::Relaxed) < h.n_chunks
        });
        let Some(job) = found else {
            pool.work_cv.wait(&mut state);
            continue;
        };
        // SAFETY: registering under the lock keeps the header alive
        // past the unlock — the dispatcher retracts the job and then
        // waits (under this lock) for participants to reach zero
        // before its stack frame unwinds.
        let header = unsafe { &*job.0 };
        header.participants.fetch_add(1, Ordering::Relaxed);
        drop(state);
        pool.wakeups.fetch_add(1, Ordering::Relaxed);
        loop {
            let idx = header.next.fetch_add(1, Ordering::Relaxed);
            if idx >= header.n_chunks {
                break;
            }
            // SAFETY: `fetch_add` hands out each index exactly once.
            unsafe { (header.run)(header.data, idx) };
        }
        state = pool.state.lock();
        header.participants.fetch_sub(1, Ordering::Relaxed);
        pool.done_cv.notify_all();
    }
}

impl Drop for DeviceInner {
    fn drop(&mut self) {
        if let Some(pool) = self.pool.get_mut().take() {
            pool.state.lock().shutdown = true;
            pool.work_cv.notify_all();
            for handle in self.pool_handles.get_mut().drain(..) {
                let _ = handle.join();
            }
        }
    }
}

/// A device-memory reservation held by a [`DeviceBuffer`]; releases its
/// bytes when the last buffer handle drops.
pub(crate) struct MemReservation {
    inner: Arc<DeviceInner>,
    bytes: usize,
}

impl fmt::Debug for MemReservation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MemReservation({} bytes)", self.bytes)
    }
}

impl Drop for MemReservation {
    fn drop(&mut self) {
        self.inner
            .mem_in_use
            .fetch_sub(self.bytes, Ordering::Relaxed);
    }
}

/// The simulated SPMD device.
///
/// A `Device` is cheap to clone (it is a handle). Kernels launched on it
/// execute their threads in parallel across `workers` OS threads, in
/// SPMD style: every thread runs the same closure with its own
/// [`ThreadCtx`].
///
/// # Failure model
///
/// The fallible entry points (`try_*` on [`Stream`], and
/// [`Device::try_launch_map_blocking`] /
/// [`Device::try_launch_scatter_blocking`] here) return
/// [`XpuResult`]s; kernel panics are caught per SPMD thread, so one bad
/// thread fails the *launch*, never the worker pool. A configurable
/// memory budget ([`Device::with_budget`]) bounds stream-ordered
/// allocations, and a deterministic [`FaultPlan`]
/// ([`Device::set_fault_plan`]) injects seeded OOM / panic / stall /
/// transfer faults for testing recovery paths. The legacy infallible
/// methods remain and panic on device errors.
///
/// # Examples
///
/// See the [crate-level example](crate).
#[derive(Clone)]
pub struct Device {
    inner: Arc<DeviceInner>,
}

impl fmt::Debug for Device {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Device")
            .field("workers", &self.inner.workers)
            .field("kernels_launched", &self.stats().kernels_launched())
            .finish()
    }
}

impl Default for Device {
    /// A device sized to the host's available parallelism.
    fn default() -> Self {
        Device::new(physical_parallelism())
    }
}

/// Physical parallelism of this host, cached once per process.
fn physical_parallelism() -> usize {
    static PHYS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *PHYS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

impl Device {
    /// Creates a device with the given number of worker threads and no
    /// memory budget.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn new(workers: usize) -> Self {
        Device::build(workers, None)
    }

    /// Creates a device with a memory budget: stream-ordered
    /// allocations ([`Stream::try_alloc`], [`Stream::try_upload`]) that
    /// would push the total reserved bytes past `budget_bytes` fail
    /// with [`XpuError::Oom`]. Bytes are released when the last handle
    /// to a buffer drops.
    ///
    /// [`Stream::try_alloc`]: crate::Stream::try_alloc
    /// [`Stream::try_upload`]: crate::Stream::try_upload
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn with_budget(workers: usize, budget_bytes: usize) -> Self {
        Device::build(workers, Some(budget_bytes))
    }

    fn build(workers: usize, budget: Option<usize>) -> Self {
        assert!(workers > 0, "device needs at least one worker");
        Device {
            inner: Arc::new(DeviceInner {
                workers,
                stats: DeviceStats::default(),
                budget,
                mem_in_use: AtomicUsize::new(0),
                alloc_ordinal: AtomicU64::new(0),
                transfer_ordinal: AtomicU64::new(0),
                launch_ordinal: AtomicU64::new(0),
                stream_op_ordinal: AtomicU64::new(0),
                shard_load_ordinal: AtomicU64::new(0),
                faults: Mutex::new(None),
                faults_enabled: AtomicU64::new(0),
                host_gate: Mutex::new(None),
                watchdog_nanos: AtomicU64::new(0),
                cancel: Mutex::new(None),
                pool: Mutex::new(None),
                pool_handles: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.inner.workers
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> &DeviceStats {
        &self.inner.stats
    }

    /// The configured memory budget in bytes, if any.
    pub fn budget(&self) -> Option<usize> {
        self.inner.budget
    }

    /// Bytes currently reserved by live stream-ordered buffers.
    pub fn mem_in_use(&self) -> usize {
        self.inner.mem_in_use.load(Ordering::Relaxed)
    }

    /// Installs (or with `None` removes) the extra-thread gate shared
    /// with the host executor — the pool-sizing handshake. While a gate
    /// is installed, kernel dispatch acquires its spawned threads from
    /// the gate (the dispatching thread always proceeds inline, so an
    /// exhausted gate degrades to sequential execution rather than
    /// deadlocking) and releases them when the launch completes.
    /// Without a gate the pre-existing ungated worker pool is used,
    /// bit-for-bit.
    pub fn set_host_gate(&self, gate: Option<Arc<odrc_infra::ThreadGate>>) {
        *self.inner.host_gate.lock() = gate;
    }

    /// Arms (or with `None` disarms) the stream watchdog: waits on this
    /// device's streams ([`Stream::try_synchronize`], [`Pending::result`])
    /// poll the stream's in-flight operation and surface any op stalled
    /// past `limit` as [`XpuError::StreamTimeout`] — poisoning the
    /// stream exactly like an injected stall, so the engine's
    /// retry-on-a-fresh-stream / CPU-fallback path handles genuine
    /// hangs the same way.
    ///
    /// The watchdog *detects* stalls; it cannot abort the wedged
    /// operation (neither can CUDA). The stalled op keeps the worker
    /// until it finishes, and dropping the stream joins the worker, so
    /// a truly infinite hang still blocks teardown — the policy is
    /// detect-and-route-around, not kill.
    ///
    /// [`Stream::try_synchronize`]: crate::Stream::try_synchronize
    /// [`Pending::result`]: crate::Pending::result
    pub fn set_watchdog(&self, limit: Option<std::time::Duration>) {
        let nanos = limit.map_or(0, |d| {
            u64::try_from(d.as_nanos()).unwrap_or(u64::MAX).max(1)
        });
        self.inner.watchdog_nanos.store(nanos, Ordering::Relaxed);
    }

    /// The armed watchdog limit, if any.
    pub fn watchdog(&self) -> Option<std::time::Duration> {
        match self.inner.watchdog_nanos.load(Ordering::Relaxed) {
            0 => None,
            n => Some(std::time::Duration::from_nanos(n)),
        }
    }

    /// Attaches (or with `None` detaches) the run's cancel token.
    /// Streams created while the token reports cancelled are born
    /// poisoned with [`XpuError::Cancelled`], so recovery loops that
    /// retry on fresh streams fail fast during shutdown instead of
    /// re-issuing work the run is about to discard. Streams that
    /// already exist are unaffected — in-flight work drains normally.
    pub fn set_cancel(&self, token: Option<odrc_infra::CancelToken>) {
        *self.inner.cancel.lock() = token;
    }

    /// `Some(XpuError::Cancelled)` once the attached token (if any)
    /// reports cancelled.
    pub(crate) fn cancel_error(&self) -> Option<XpuError> {
        self.inner
            .cancel
            .lock()
            .as_ref()
            .filter(|t| t.is_cancelled())
            .map(|_| XpuError::Cancelled)
    }

    /// Installs (or with `None` removes) a fault schedule at runtime.
    /// Replacing a plan resets nothing else: ordinals keep counting, so
    /// a plan installed mid-run addresses operations by their absolute
    /// device-wide index.
    pub fn set_fault_plan(&self, plan: Option<FaultPlan>) {
        let mut guard = self.inner.faults.lock();
        self.inner
            .faults_enabled
            .store(u64::from(plan.is_some()), Ordering::Relaxed);
        *guard = plan.map(FaultState::new);
    }

    /// Number of faults the installed plans have actually delivered.
    pub fn faults_injected(&self) -> u64 {
        self.inner
            .faults
            .lock()
            .as_ref()
            .map(|s| s.injected())
            .unwrap_or(0)
    }

    #[inline]
    fn faults_on(&self) -> bool {
        self.inner.faults_enabled.load(Ordering::Relaxed) != 0
    }

    /// Ticks the allocation ordinal and reports an injected OOM, if the
    /// plan schedules one here.
    pub(crate) fn fault_alloc(&self, requested: usize) -> Option<XpuError> {
        let n = self.inner.alloc_ordinal.fetch_add(1, Ordering::Relaxed);
        if !self.faults_on() {
            return None;
        }
        let fired = self
            .inner
            .faults
            .lock()
            .as_mut()
            .is_some_and(|s| s.take_alloc(n));
        fired.then(|| XpuError::Oom {
            requested,
            in_use: self.mem_in_use(),
            budget: self.inner.budget.unwrap_or(usize::MAX),
        })
    }

    /// Ticks the shard-load ordinal and reports whether the plan
    /// schedules an injected allocation failure for this load.
    ///
    /// Shard loads are host-side scene builds, not device allocations,
    /// but they are addressed by the same deterministic-schedule
    /// machinery ([`Fault::AllocFail`](crate::Fault::AllocFail)) so the
    /// out-of-core evict/degrade path is exercised by the seeded fault
    /// sweeps. Like every fault consult this is one relaxed load when
    /// no plan is installed.
    pub fn fault_shard_load(&self) -> bool {
        let n = self
            .inner
            .shard_load_ordinal
            .fetch_add(1, Ordering::Relaxed);
        if !self.faults_on() {
            return false;
        }
        self.inner
            .faults
            .lock()
            .as_mut()
            .is_some_and(|s| s.take_shard_load(n))
    }

    /// Ticks the transfer ordinal and reports an injected transfer
    /// failure, if the plan schedules one here.
    pub(crate) fn fault_transfer(
        &self,
        direction: TransferDirection,
        bytes: usize,
    ) -> Option<XpuError> {
        let n = self.inner.transfer_ordinal.fetch_add(1, Ordering::Relaxed);
        if !self.faults_on() {
            return None;
        }
        let fired = self
            .inner
            .faults
            .lock()
            .as_mut()
            .is_some_and(|s| s.take_transfer(n));
        fired.then_some(XpuError::TransferError { direction, bytes })
    }

    /// Ticks the stream-op ordinal and reports an injected stall, if
    /// the plan schedules one here. A scheduled *hang*
    /// ([`Fault::StreamHang`]) sleeps for its duration right here — on
    /// the stream worker, with the op already marked in flight — so an
    /// armed watchdog observes a genuine stall; the op then proceeds
    /// normally.
    pub(crate) fn fault_stream_op(&self, op: &'static str) -> Option<XpuError> {
        let n = self.inner.stream_op_ordinal.fetch_add(1, Ordering::Relaxed);
        if !self.faults_on() {
            return None;
        }
        let (hang_millis, stalled) = match self.inner.faults.lock().as_mut() {
            Some(s) => (s.take_stream_hang(n), s.take_stream_op(n)),
            None => (None, false),
        };
        if let Some(millis) = hang_millis {
            std::thread::sleep(std::time::Duration::from_millis(millis));
        }
        stalled.then_some(XpuError::StreamTimeout { op })
    }

    /// Ticks the launch ordinal and returns `(ordinal, thread to panic
    /// in)` if the plan schedules a kernel fault for this launch.
    fn next_launch(&self, useful_threads: usize) -> (u64, Option<usize>) {
        let k = self.inner.launch_ordinal.fetch_add(1, Ordering::Relaxed);
        if !self.faults_on() {
            return (k, None);
        }
        let thread = self
            .inner
            .faults
            .lock()
            .as_mut()
            .and_then(|s| s.take_kernel(k, useful_threads));
        (k, thread)
    }

    /// Reserves `bytes` against the budget, failing with
    /// [`XpuError::Oom`] when the budget would be exceeded.
    pub(crate) fn try_reserve(&self, bytes: usize) -> XpuResult<Option<Arc<MemReservation>>> {
        let Some(budget) = self.inner.budget else {
            return Ok(None); // unlimited: skip the accounting entirely
        };
        // Optimistic reservation: add, then check, then roll back on
        // failure — correct under concurrent reservers.
        let prev = self.inner.mem_in_use.fetch_add(bytes, Ordering::Relaxed);
        if prev.saturating_add(bytes) > budget {
            self.inner.mem_in_use.fetch_sub(bytes, Ordering::Relaxed);
            return Err(XpuError::Oom {
                requested: bytes,
                in_use: prev,
                budget,
            });
        }
        Ok(Some(Arc::new(MemReservation {
            inner: Arc::clone(&self.inner),
            bytes,
        })))
    }

    /// Creates a new asynchronous command [`Stream`] on this device
    /// ("When OpenDRC starts, it creates CUDA stream objects that are
    /// responsible for asynchronous operations", §V-C).
    pub fn stream(&self) -> Stream {
        Stream::new(self.clone())
    }

    /// Fallible synchronous kernel launch where thread `i` receives
    /// exclusive access to `out[i]`.
    ///
    /// A panic in any SPMD thread — a genuine kernel bug or an injected
    /// [`Fault::KernelPanic`] — is caught per thread and surfaces as
    /// [`XpuError::KernelPanic`] carrying the launch ordinal and the
    /// first panicking global thread id. The worker pool survives; the
    /// device remains usable.
    ///
    /// [`Fault::KernelPanic`]: crate::Fault::KernelPanic
    ///
    /// # Panics
    ///
    /// Panics if the config provides fewer threads than `out.len()`
    /// (a programmer error, not a device fault).
    pub fn try_launch_map_blocking<T, F>(
        &self,
        cfg: LaunchConfig,
        out: &DeviceBuffer<T>,
        kernel: F,
    ) -> XpuResult<()>
    where
        T: Send + Sync,
        F: Fn(ThreadCtx, &mut T) + Send + Sync,
    {
        let mut guard = out.write();
        let slots: &mut [T] = &mut guard;
        assert!(
            cfg.total_threads() >= slots.len(),
            "launch config provides {} threads for {} outputs",
            cfg.total_threads(),
            slots.len()
        );
        let (launch_id, panic_thread) = self.next_launch(slots.len());
        self.inner.stats.record_launch(slots.len());
        let block_dim = cfg.block_dim;
        let grid_dim = cfg.grid_dim;
        let kernel = &kernel;
        let panicked: Mutex<Option<(usize, String)>> = Mutex::new(None);
        self.dispatch_slices(slots, |range, chunk: &mut [T]| {
            for (offset, slot) in range.zip(chunk.iter_mut()) {
                let ctx = ThreadCtx {
                    block_idx: offset / block_dim,
                    thread_idx: offset % block_dim,
                    block_dim,
                    grid_dim,
                };
                run_spmd_thread(
                    offset,
                    panic_thread,
                    launch_id,
                    &panicked,
                    std::panic::AssertUnwindSafe(|| kernel(ctx, slot)),
                );
            }
        });
        finish_launch(launch_id, panicked)
    }

    /// Synchronously launches a kernel where thread `i` receives
    /// exclusive access to `out[i]`.
    ///
    /// The number of useful threads is `out.len()`; surplus threads in
    /// the launch config (block-size round-up) are masked out, exactly
    /// like the `if (tid < n) return;` guard of CUDA kernels.
    ///
    /// Most callers go through [`Stream::launch_map`], which enqueues
    /// the launch asynchronously.
    ///
    /// # Panics
    ///
    /// Panics if the config provides fewer threads than `out.len()`, if
    /// the kernel reads its own output buffer (lock recursion), or if
    /// any kernel thread panics (see
    /// [`Device::try_launch_map_blocking`] for the recoverable form).
    pub fn launch_map_blocking<T, F>(&self, cfg: LaunchConfig, out: &DeviceBuffer<T>, kernel: F)
    where
        T: Send + Sync,
        F: Fn(ThreadCtx, &mut T) + Send + Sync,
    {
        if let Err(e) = self.try_launch_map_blocking(cfg, out, kernel) {
            panic!("device launch failed: {e}");
        }
    }

    /// Fallible synchronous *scatter* launch where thread `i` receives
    /// exclusive access to the slice `out[offsets[i]..offsets[i + 1]]`.
    /// See [`Device::try_launch_map_blocking`] for the failure model.
    ///
    /// # Panics
    ///
    /// Panics on malformed `offsets` or an undersized launch config
    /// (programmer errors, not device faults).
    pub fn try_launch_scatter_blocking<T, F>(
        &self,
        cfg: LaunchConfig,
        out: &DeviceBuffer<T>,
        offsets: &[usize],
        kernel: F,
    ) -> XpuResult<()>
    where
        T: Send + Sync,
        F: Fn(ThreadCtx, &mut [T]) + Send + Sync,
    {
        let n_threads = offsets.len().saturating_sub(1);
        assert!(
            cfg.total_threads() >= n_threads,
            "launch config provides {} threads for {} ranges",
            cfg.total_threads(),
            n_threads
        );
        let mut guard = out.write();
        let mut rest: &mut [T] = &mut guard;
        let total = rest.len();
        assert!(
            offsets.last().copied().unwrap_or(0) <= total,
            "offsets end past the output buffer"
        );
        // Slice the output into per-thread disjoint ranges up front; the
        // split is sequential but O(n_threads) and cheap.
        let mut slices: Vec<&mut [T]> = Vec::with_capacity(n_threads);
        let mut consumed = 0usize;
        for w in offsets.windows(2) {
            let (lo, hi) = (w[0], w[1]);
            assert!(lo <= hi, "offsets must be non-decreasing");
            let (skip, tail) = rest.split_at_mut(lo - consumed);
            debug_assert!(skip.is_empty() || lo > consumed);
            let (mine, tail) = tail.split_at_mut(hi - lo);
            slices.push(mine);
            rest = tail;
            consumed = hi;
        }
        let (launch_id, panic_thread) = self.next_launch(n_threads);
        self.inner.stats.record_launch(n_threads);
        let block_dim = cfg.block_dim;
        let grid_dim = cfg.grid_dim;
        let kernel = &kernel;
        let panicked: Mutex<Option<(usize, String)>> = Mutex::new(None);
        self.dispatch_slices(&mut slices, |range, chunk: &mut [&mut [T]]| {
            for (offset, slice) in range.zip(chunk.iter_mut()) {
                let ctx = ThreadCtx {
                    block_idx: offset / block_dim,
                    thread_idx: offset % block_dim,
                    block_dim,
                    grid_dim,
                };
                run_spmd_thread(
                    offset,
                    panic_thread,
                    launch_id,
                    &panicked,
                    std::panic::AssertUnwindSafe(|| kernel(ctx, slice)),
                );
            }
        });
        finish_launch(launch_id, panicked)
    }

    /// Synchronously launches a *scatter* kernel where thread `i`
    /// receives exclusive access to the slice
    /// `out[offsets[i]..offsets[i + 1]]`.
    ///
    /// This is the output pattern of the second phase of the parallel
    /// sweepline (§IV-E): a prefix-sum of per-thread counts determines
    /// each thread's private output range.
    ///
    /// # Panics
    ///
    /// Panics if `offsets` is not monotonically non-decreasing, if its
    /// last entry exceeds `out.len()`, if the config provides fewer
    /// threads than `offsets.len() - 1`, or if any kernel thread
    /// panics (see [`Device::try_launch_scatter_blocking`]).
    pub fn launch_scatter_blocking<T, F>(
        &self,
        cfg: LaunchConfig,
        out: &DeviceBuffer<T>,
        offsets: &[usize],
        kernel: F,
    ) where
        T: Send + Sync,
        F: Fn(ThreadCtx, &mut [T]) + Send + Sync,
    {
        if let Err(e) = self.try_launch_scatter_blocking(cfg, out, offsets, kernel) {
            panic!("device launch failed: {e}");
        }
    }

    /// Fallible synchronous *tile* launch: the kernel is handed whole
    /// contiguous ranges of `out` (one call per dispatch chunk) instead
    /// of one call per element, so per-element framework overhead —
    /// panic boundary, context construction, buffer-lock traffic — is
    /// paid once per tile. Semantically identical to
    /// [`Device::try_launch_map_blocking`] with a kernel that loops
    /// over its tile: ordinals tick once per launch, injected
    /// per-thread faults still fire for exactly their thread (the tile
    /// is split around the faulted element), and a genuine tile panic
    /// surfaces as [`XpuError::KernelPanic`] carrying the tile's first
    /// global id.
    ///
    /// # Panics
    ///
    /// Panics if the config provides fewer threads than `out.len()`.
    pub fn try_launch_tiles_blocking<T, F>(
        &self,
        cfg: LaunchConfig,
        out: &DeviceBuffer<T>,
        kernel: F,
    ) -> XpuResult<()>
    where
        T: Send + Sync,
        F: Fn(std::ops::Range<usize>, &mut [T]) + Send + Sync,
    {
        let mut guard = out.write();
        let slots: &mut [T] = &mut guard;
        assert!(
            cfg.total_threads() >= slots.len(),
            "launch config provides {} threads for {} outputs",
            cfg.total_threads(),
            slots.len()
        );
        let (launch_id, panic_thread) = self.next_launch(slots.len());
        self.inner.stats.record_launch(slots.len());
        let kernel = &kernel;
        let panicked: Mutex<Option<(usize, String)>> = Mutex::new(None);
        self.dispatch_slices(slots, |range, chunk: &mut [T]| {
            run_spmd_tile(range, chunk, panic_thread, launch_id, &panicked, kernel);
        });
        finish_launch(launch_id, panicked)
    }

    /// Fallible synchronous *scatter tile* launch: like
    /// [`Device::try_launch_scatter_blocking`], but the kernel receives
    /// a contiguous tile of per-thread output slices
    /// (`out[offsets[i]..offsets[i + 1]]` for each `i` in the tile's
    /// range) per call. See [`Device::try_launch_tiles_blocking`] for
    /// the tile semantics and failure model.
    ///
    /// # Panics
    ///
    /// Panics on malformed `offsets` or an undersized launch config.
    pub fn try_launch_scatter_tiles_blocking<T, F>(
        &self,
        cfg: LaunchConfig,
        out: &DeviceBuffer<T>,
        offsets: &[usize],
        kernel: F,
    ) -> XpuResult<()>
    where
        T: Send + Sync,
        F: Fn(std::ops::Range<usize>, &mut [&mut [T]]) + Send + Sync,
    {
        let n_threads = offsets.len().saturating_sub(1);
        assert!(
            cfg.total_threads() >= n_threads,
            "launch config provides {} threads for {} ranges",
            cfg.total_threads(),
            n_threads
        );
        let mut guard = out.write();
        let mut rest: &mut [T] = &mut guard;
        let total = rest.len();
        assert!(
            offsets.last().copied().unwrap_or(0) <= total,
            "offsets end past the output buffer"
        );
        let mut slices: Vec<&mut [T]> = Vec::with_capacity(n_threads);
        let mut consumed = 0usize;
        for w in offsets.windows(2) {
            let (lo, hi) = (w[0], w[1]);
            assert!(lo <= hi, "offsets must be non-decreasing");
            let (skip, tail) = rest.split_at_mut(lo - consumed);
            debug_assert!(skip.is_empty() || lo > consumed);
            let (mine, tail) = tail.split_at_mut(hi - lo);
            slices.push(mine);
            rest = tail;
            consumed = hi;
        }
        let (launch_id, panic_thread) = self.next_launch(n_threads);
        self.inner.stats.record_launch(n_threads);
        let kernel = &kernel;
        let panicked: Mutex<Option<(usize, String)>> = Mutex::new(None);
        self.dispatch_slices(&mut slices, |range, chunk: &mut [&mut [T]]| {
            run_spmd_tile(range, chunk, panic_thread, launch_id, &panicked, kernel);
        });
        finish_launch(launch_id, panicked)
    }

    /// Returns the persistent pool, starting its workers on first use.
    fn pool(&self) -> Arc<PoolShared> {
        let mut guard = self.inner.pool.lock();
        if let Some(pool) = guard.as_ref() {
            return Arc::clone(pool);
        }
        let pool = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                jobs: Vec::new(),
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            wakeups: self.inner.stats.wakeups_handle(),
        });
        let mut handles = self.inner.pool_handles.lock();
        for i in 0..self.inner.workers.saturating_sub(1) {
            let worker_pool = Arc::clone(&pool);
            let handle = std::thread::Builder::new()
                .name(format!("xpu-pool-{i}"))
                .spawn(move || pool_worker(worker_pool))
                .expect("failed to spawn xpu pool worker");
            handles.push(handle);
        }
        *guard = Some(Arc::clone(&pool));
        pool
    }

    /// Publishes one launch's chunks to the pool mailbox, drains chunks
    /// on the dispatching thread, then retracts the job and waits for
    /// any participating workers before returning.
    fn pool_dispatch<T, F>(&self, work: &mut [T], chunk_size: usize, max_workers: usize, body: &F)
    where
        T: Send,
        F: Fn(std::ops::Range<usize>, &mut [T]) + Send + Sync,
    {
        let mut chunks = Vec::new();
        let mut start = 0usize;
        for chunk in work.chunks_mut(chunk_size) {
            chunks.push(RawChunk {
                start,
                ptr: chunk.as_mut_ptr(),
                len: chunk.len(),
            });
            start += chunk.len();
        }
        let n_chunks = chunks.len();
        let set = ChunkSet {
            chunks,
            body,
            panic: Mutex::new(None),
        };
        let header = JobHeader {
            next: AtomicUsize::new(0),
            n_chunks,
            participants: AtomicUsize::new(0),
            max_workers,
            data: &set as *const ChunkSet<'_, T, F> as *const (),
            run: run_chunk::<T, F>,
        };
        let pool = self.pool();
        let handle = JobHandle(&header as *const JobHeader);
        pool.state.lock().jobs.push(handle);
        pool.work_cv.notify_all();
        // The dispatcher is participant zero: it drains chunks inline
        // rather than parking, so a launch never blocks on a wake.
        loop {
            let idx = header.next.fetch_add(1, Ordering::Relaxed);
            if idx >= n_chunks {
                break;
            }
            // SAFETY: each index is claimed exactly once via fetch_add.
            unsafe { (header.run)(header.data, idx) };
        }
        {
            let mut state = pool.state.lock();
            state.jobs.retain(|j| *j != handle);
            // Workers register/deregister under this lock, so once the
            // count reads zero with the job retracted, no worker can
            // touch the header or chunks again.
            while header.participants.load(Ordering::Relaxed) != 0 {
                pool.done_cv.wait(&mut state);
            }
        }
        if let Some(payload) = set.panic.into_inner() {
            std::panic::resume_unwind(payload);
        }
    }

    /// Runs `body(range, chunk)` for contiguous chunks of `work`
    /// distributed over the device's workers.
    ///
    /// Gated and ungated launches share one code path: an installed
    /// host gate caps the extra threads by the shared budget, while the
    /// absence of a gate grants the full pool width. Either way the
    /// dispatching thread works chunks itself, so a launch uses at most
    /// `1 + extra` threads and degrades to inline execution when no
    /// extra thread is available.
    pub(crate) fn dispatch_slices<T, F>(&self, work: &mut [T], body: F)
    where
        T: Send,
        F: Fn(std::ops::Range<usize>, &mut [T]) + Send + Sync,
    {
        let n = work.len();
        if n == 0 {
            return;
        }
        let workers = self.inner.workers.min(n);
        if workers == 1 {
            body(0..n, work);
            return;
        }
        let gate = self.inner.host_gate.lock().clone();
        let extra = match &gate {
            // The sizing handshake exists to keep the engine from
            // oversubscribing the machine, so a gated launch is also
            // clamped to the cores that physically exist — waking pool
            // workers past that count only adds switch latency (an
            // ungated device keeps its configured width so unit tests
            // exercise the pool regardless of host shape).
            Some(g) => g.try_acquire((workers - 1).min(physical_parallelism() - 1)),
            None => workers - 1,
        };
        if extra == 0 {
            body(0..n, work);
            return;
        }
        let chunk_size = n.div_ceil(extra + 1);
        self.pool_dispatch(work, chunk_size, extra, &body);
        if let Some(g) = &gate {
            g.release(extra);
        }
    }
}

/// Executes one SPMD thread with a per-thread panic boundary: a panic
/// (genuine or injected) is recorded in `panicked` instead of
/// propagating into the worker pool. Only the first panic is kept.
fn run_spmd_thread<F: FnOnce()>(
    global_id: usize,
    injected_panic_thread: Option<usize>,
    launch_id: u64,
    panicked: &Mutex<Option<(usize, String)>>,
    body: std::panic::AssertUnwindSafe<F>,
) {
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if injected_panic_thread == Some(global_id) {
            panic!("injected fault: kernel #{launch_id} thread {global_id}");
        }
        let std::panic::AssertUnwindSafe(f) = body;
        f();
    }));
    if let Err(payload) = result {
        let message = panic_message(payload.as_ref());
        let mut slot = panicked.lock();
        if slot.is_none() {
            *slot = Some((global_id, message));
        }
    }
}

/// Executes one tile of SPMD threads with a single panic boundary. An
/// injected per-thread fault splits the tile around the faulted thread
/// so its neighbours still execute — preserving the per-thread fault
/// semantics of the element-granular dispatch. A genuine panic inside
/// the tile records the tile's first global id (the per-element path
/// records the exact id; multi-worker recording was already
/// first-wins-racy, and errors only feed recovery, which re-runs).
fn run_spmd_tile<E, F>(
    range: std::ops::Range<usize>,
    chunk: &mut [E],
    injected_panic_thread: Option<usize>,
    launch_id: u64,
    panicked: &Mutex<Option<(usize, String)>>,
    kernel: &F,
) where
    F: Fn(std::ops::Range<usize>, &mut [E]),
{
    if let Some(p) = injected_panic_thread {
        if range.contains(&p) {
            let split = p - range.start;
            let (lo, rest) = chunk.split_at_mut(split);
            let (_faulted, hi) = rest.split_at_mut(1);
            run_tile_guarded(range.start..p, lo, panicked, kernel);
            run_spmd_thread(
                p,
                Some(p),
                launch_id,
                panicked,
                std::panic::AssertUnwindSafe(|| {}),
            );
            run_tile_guarded(p + 1..range.end, hi, panicked, kernel);
            return;
        }
    }
    run_tile_guarded(range, chunk, panicked, kernel);
}

/// Runs a (sub-)tile behind one `catch_unwind`, recording the first
/// panic against the tile's first global id.
fn run_tile_guarded<E, F>(
    range: std::ops::Range<usize>,
    chunk: &mut [E],
    panicked: &Mutex<Option<(usize, String)>>,
    kernel: &F,
) where
    F: Fn(std::ops::Range<usize>, &mut [E]),
{
    if range.is_empty() {
        return;
    }
    let first = range.start;
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| kernel(range, chunk)));
    if let Err(payload) = result {
        let message = panic_message(payload.as_ref());
        let mut slot = panicked.lock();
        if slot.is_none() {
            *slot = Some((first, message));
        }
    }
}

/// Converts the first recorded SPMD-thread panic into the launch error.
fn finish_launch(launch_id: u64, panicked: Mutex<Option<(usize, String)>>) -> XpuResult<()> {
    match panicked.into_inner() {
        None => Ok(()),
        Some((global_id, message)) => Err(XpuError::KernelPanic {
            kernel: launch_id,
            global_id,
            message,
        }),
    }
}

/// Stringifies a panic payload (`&str` and `String` payloads cover
/// `panic!` and runtime panics; anything else gets a placeholder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::Fault;

    #[test]
    fn launch_config_round_up() {
        let cfg = LaunchConfig::for_threads(1000);
        assert_eq!(cfg.block_dim, 256);
        assert_eq!(cfg.grid_dim, 4);
        assert_eq!(cfg.total_threads(), 1024);
        let one = LaunchConfig::for_threads(0);
        assert_eq!(one.grid_dim, 1);
    }

    #[test]
    #[should_panic(expected = "block dimension")]
    fn zero_block_panics() {
        let _ = LaunchConfig::for_threads_with_block(10, 0);
    }

    #[test]
    fn thread_ctx_global_id() {
        let ctx = ThreadCtx {
            block_idx: 3,
            thread_idx: 17,
            block_dim: 256,
            grid_dim: 8,
        };
        assert_eq!(ctx.global_id(), 3 * 256 + 17);
        assert_eq!(ctx.total_threads(), 2048);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        let _ = Device::new(0);
    }

    #[test]
    fn launch_map_validates_thread_count() {
        let d = Device::new(2);
        let buf = crate::buffer::DeviceBuffer::from_vec(vec![0u8; 10]);
        let cfg = LaunchConfig {
            grid_dim: 1,
            block_dim: 4, // 4 threads for 10 outputs
        };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            d.launch_map_blocking(cfg, &buf, |_, _| {});
        }));
        assert!(result.is_err(), "undersized launch must panic");
    }

    #[test]
    fn launch_scatter_validates_offsets() {
        let d = Device::new(2);
        let buf = crate::buffer::DeviceBuffer::from_vec(vec![0u8; 4]);
        // Non-monotonic offsets.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            d.launch_scatter_blocking(LaunchConfig::for_threads(2), &buf, &[0, 3, 1], |_, _| {});
        }));
        assert!(result.is_err());
        // Offsets past the buffer end.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            d.launch_scatter_blocking(LaunchConfig::for_threads(2), &buf, &[0, 2, 9], |_, _| {});
        }));
        assert!(result.is_err());
    }

    #[test]
    fn launch_scatter_empty_ranges_ok() {
        let d = Device::new(2);
        let buf = crate::buffer::DeviceBuffer::from_vec(vec![0u32; 3]);
        // Threads 0 and 2 own nothing; thread 1 owns everything.
        d.launch_scatter_blocking(
            LaunchConfig::for_threads(3),
            &buf,
            &[0, 0, 3, 3],
            |ctx, slice| {
                for s in slice.iter_mut() {
                    *s = ctx.global_id() as u32 + 1;
                }
            },
        );
        assert_eq!(buf.to_vec(), vec![2, 2, 2]);
    }

    #[test]
    fn stats_accumulate() {
        let d = Device::new(2);
        let s = d.stream();
        let buf = s.alloc::<u64>(100);
        s.launch_map(LaunchConfig::for_threads(100), &buf, |ctx, out| {
            *out = ctx.global_id() as u64;
        });
        s.synchronize();
        assert_eq!(d.stats().kernels_launched(), 1);
        assert_eq!(d.stats().threads_executed(), 100);
    }

    #[test]
    fn genuine_kernel_panic_is_caught() {
        let d = Device::new(3);
        let buf = DeviceBuffer::from_vec(vec![0u32; 600]);
        let err = d
            .try_launch_map_blocking(LaunchConfig::for_threads(600), &buf, |ctx, out| {
                if ctx.global_id() == 300 {
                    panic!("boom at {}", ctx.global_id());
                }
                *out = 1;
            })
            .unwrap_err();
        match err {
            XpuError::KernelPanic {
                global_id, message, ..
            } => {
                assert_eq!(global_id, 300);
                assert!(message.contains("boom"));
            }
            other => panic!("expected KernelPanic, got {other:?}"),
        }
        // The pool survived: the device still launches fine.
        d.launch_map_blocking(LaunchConfig::for_threads(600), &buf, |_, out| *out = 2);
        assert!(buf.to_vec().iter().all(|&v| v == 2));
    }

    #[test]
    fn injected_kernel_panic_names_kernel_and_thread() {
        let d = Device::new(2);
        d.set_fault_plan(Some(FaultPlan::new().with(Fault::KernelPanic {
            kernel: 0,
            thread: 5,
        })));
        let buf = DeviceBuffer::from_vec(vec![0u8; 16]);
        let err = d
            .try_launch_map_blocking(LaunchConfig::for_threads(16), &buf, |_, _| {})
            .unwrap_err();
        assert_eq!(
            err,
            XpuError::KernelPanic {
                kernel: 0,
                global_id: 5,
                message: "injected fault: kernel #0 thread 5".to_owned(),
            }
        );
        assert_eq!(d.faults_injected(), 1);
        // Consumed: the next launch succeeds.
        assert!(d
            .try_launch_map_blocking(LaunchConfig::for_threads(16), &buf, |_, _| {})
            .is_ok());
    }

    #[test]
    fn budget_reserve_and_release() {
        let d = Device::with_budget(2, 1000);
        let r1 = d.try_reserve(600).unwrap();
        assert_eq!(d.mem_in_use(), 600);
        let err = d.try_reserve(600).unwrap_err();
        assert!(matches!(err, XpuError::Oom { requested: 600, .. }));
        drop(r1);
        assert_eq!(d.mem_in_use(), 0);
        assert!(d.try_reserve(600).is_ok());
    }

    #[test]
    fn unlimited_device_skips_accounting() {
        let d = Device::new(1);
        assert!(d.try_reserve(usize::MAX).unwrap().is_none());
        assert_eq!(d.mem_in_use(), 0);
    }
}
