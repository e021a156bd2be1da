//! Infrastructure algorithms for the OpenDRC design rule checking engine.
//!
//! This crate is the paper's "infrastructure layer" (§V-A): abstract data
//! structures and algorithms that the engine's application and algorithm
//! layers build upon.
//!
//! * [`IntervalTree`] — the interval tree of §IV-D, a binary search tree
//!   whose nodes keep their intervals in two sorted lists (by left and by
//!   right endpoint) to answer overlap queries output-sensitively.
//! * [`sweep::sweep_overlaps`] — the top-to-bottom sweepline that reports
//!   all pairs of overlapping MBRs (§IV-D, Fig. 3).
//! * [`merge`] — Algorithm 1's pigeonhole interval merging in
//!   `Θ(k + N)`, plus the `Ω(k log k)` sort-based alternative the paper
//!   contrasts it with (§IV-B).
//! * [`partition`] — the adaptive row-based layout partitioner built on
//!   interval merging (§IV-B), including the secondary x-axis clip
//!   partition within each row.
//! * [`profile`] — phase timers backing the runtime breakdown of Fig. 4.
//! * [`host`] — the shared work-stealing host executor that fans the
//!   row/cell-parallel phases above out over `--host-threads` workers
//!   with deterministic index-ordered merges.
//! * [`cancel`] — the cooperative [`CancelToken`] threaded through the
//!   engine, host executor, and device layer so SIGINT/SIGTERM and
//!   wall-clock deadlines wind a run down at rule boundaries.
//! * [`atomic_io`] — crash-safe write-temp-then-rename sidecar writes
//!   (result cache, checkpoint journal, stats JSON).
//!
//! # Examples
//!
//! ```
//! use odrc_geometry::Rect;
//! use odrc_infra::partition::partition_rows;
//!
//! let mbrs = [
//!     Rect::from_coords(0, 0, 10, 10),
//!     Rect::from_coords(20, 2, 30, 9),
//!     Rect::from_coords(5, 40, 15, 50),
//! ];
//! let rows = partition_rows(&mbrs, 0);
//! assert_eq!(rows.len(), 2); // two independent rows along y
//! ```

pub mod atomic_io;
pub mod cancel;
pub mod host;
pub mod interval_tree;
pub mod journal;
pub mod merge;
pub mod partition;
pub mod profile;
pub mod region;
pub mod rss;
pub mod rtree;
pub mod sweep;

pub use atomic_io::{fsync_dir, write_atomic, FileLock};
pub use cancel::{install_signal_handlers, CancelReason, CancelToken};
pub use host::{HostExecutor, HostPanic, ThreadGate};
pub use interval_tree::IntervalTree;
pub use journal::{fnv1a64, RecordLog};
pub use partition::{partition_rows, Row, RowPartition};
pub use profile::Profiler;
pub use region::{BoolOp, Region};
pub use rss::{peak_rss_bytes, reset_peak_rss};
pub use rtree::RTree;
pub use sweep::sweep_overlaps;
