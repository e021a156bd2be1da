//! The adaptive row-based layout partition of §IV-B.
//!
//! Layouts are partitioned into non-overlapping regions (rows) along the
//! y-axis by merging the vertical extents of cell MBRs; cells in
//! different rows cannot interact, which enables both check pruning and
//! row-level parallelism. Within a row, the same merging along the
//! x-axis yields independent *clips* (the paper's second intuition:
//! "x-coordinates of cells in a row are more likely to be separated as
//! well").

use odrc_geometry::{Coord, Interval, Rect};

use crate::host::HostExecutor;
use crate::merge::merge_pigeonhole;

/// One independent row of the partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    /// Vertical extent of the row (inflated extents merged).
    pub y: Interval,
    /// Indices (into the input MBR slice) of the members of this row,
    /// in ascending index order.
    pub members: Vec<usize>,
}

/// The result of the adaptive row partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowPartition {
    rows: Vec<Row>,
}

impl RowPartition {
    /// Builds a partition from explicit rows (used by ablation modes
    /// that bypass the adaptive partition, e.g. a single all-covering
    /// row).
    pub fn from_rows(rows: Vec<Row>) -> Self {
        RowPartition { rows }
    }

    /// The rows in ascending y order.
    #[inline]
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` when the input had no cells.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Iterates over the rows.
    pub fn iter(&self) -> std::slice::Iter<'_, Row> {
        self.rows.iter()
    }
}

impl<'a> IntoIterator for &'a RowPartition {
    type Item = &'a Row;
    type IntoIter = std::slice::Iter<'a, Row>;
    fn into_iter(self) -> Self::IntoIter {
        self.rows.iter()
    }
}

/// Partitions cell MBRs into independent rows along the y-axis.
///
/// `expand` inflates every extent by the minimum rule distance before
/// merging, so that "different rows" really implies "no rule interaction
/// across rows" (§IV-C's MBR-inflation argument applied to rows). Rows
/// whose inflated extents share a coordinate are merged.
///
/// The merge itself runs in `Θ(k + N)` using the pigeonhole array of
/// Algorithm 1, where `k` is the number of cells and `N` the number of
/// unique (inflated) y-coordinates.
///
/// # Examples
///
/// ```
/// use odrc_geometry::Rect;
/// use odrc_infra::partition::partition_rows;
///
/// let mbrs = [
///     Rect::from_coords(0, 0, 10, 8),
///     Rect::from_coords(12, 2, 30, 6),   // same band as the first
///     Rect::from_coords(0, 100, 10, 108),
/// ];
/// let part = partition_rows(&mbrs, 0);
/// assert_eq!(part.len(), 2);
/// assert_eq!(part.rows()[0].members, vec![0, 1]);
/// assert_eq!(part.rows()[1].members, vec![2]);
/// ```
pub fn partition_rows(mbrs: &[Rect], expand: Coord) -> RowPartition {
    let extents: Vec<Interval> = mbrs.iter().map(|m| m.y_range().inflate(expand)).collect();
    let rows = partition_intervals(&extents, None);
    RowPartition { rows }
}

/// [`partition_rows`] with the per-extent row assignment fanned out on
/// a host executor. The output is identical: assignment positions are
/// computed in parallel (a pure binary search per extent) and the
/// member lists are then filled serially in ascending index order.
pub fn partition_rows_on(mbrs: &[Rect], expand: Coord, host: &HostExecutor) -> RowPartition {
    let extents: Vec<Interval> = mbrs.iter().map(|m| m.y_range().inflate(expand)).collect();
    let rows = partition_intervals(&extents, Some(host));
    RowPartition { rows }
}

/// Partitions the members of one row into independent clips along the
/// x-axis, using the same interval merging.
///
/// Returns the clips as lists of indices into `mbrs` (subsets of
/// `members`), in ascending x order.
pub fn partition_clips(mbrs: &[Rect], members: &[usize], expand: Coord) -> Vec<Vec<usize>> {
    let extents: Vec<Interval> = members
        .iter()
        .map(|&i| mbrs[i].x_range().inflate(expand))
        .collect();
    partition_intervals(&extents, None)
        .into_iter()
        .map(|row| {
            row.members
                .into_iter()
                .map(|local| members[local])
                .collect()
        })
        .collect()
}

/// Shared 1-D machinery: merge the (already inflated) extents and assign
/// each input to its merged interval.
fn partition_intervals(extents: &[Interval], host: Option<&HostExecutor>) -> Vec<Row> {
    if extents.is_empty() {
        return Vec::new();
    }
    // Discretize unique coordinates.
    let mut coords: Vec<Coord> = Vec::with_capacity(extents.len() * 2);
    for e in extents {
        coords.push(e.lo());
        coords.push(e.hi());
    }
    coords.sort_unstable();
    coords.dedup();
    let index_of = |c: Coord| -> usize {
        coords
            .binary_search(&c)
            .expect("coordinate was collected above")
    };

    let merged = merge_pigeonhole(
        coords.len(),
        extents.iter().map(|e| (index_of(e.lo()), index_of(e.hi()))),
    );

    let mut rows: Vec<Row> = merged
        .into_iter()
        .map(|(l, r)| Row {
            y: Interval::new(coords[l], coords[r]),
            members: Vec::new(),
        })
        .collect();

    // Assign each extent to the unique merged interval containing it,
    // found by binary search on row start. The searches fan out on the
    // executor when one is given (a one-thread executor runs them inline
    // in index order); the member fill stays serial, which keeps member
    // lists in ascending index order.
    let find = |i: usize| rows.partition_point(|row| row.y.lo() <= extents[i].lo());
    let positions: Vec<usize> = match host {
        Some(host) => host.run("partition", extents.len(), find),
        None => (0..extents.len()).map(find).collect(),
    };
    for (i, (pos, e)) in positions.into_iter().zip(extents).enumerate() {
        debug_assert!(pos > 0, "extent {e} precedes every row");
        let row = &mut rows[pos - 1];
        debug_assert!(
            row.y.contains(e.lo()) && row.y.contains(e.hi()),
            "extent {e} not contained in its row {}",
            row.y
        );
        row.members.push(i);
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn r(x0: Coord, y0: Coord, x1: Coord, y1: Coord) -> Rect {
        Rect::from_coords(x0, y0, x1, y1)
    }

    #[test]
    fn empty_layout() {
        let part = partition_rows(&[], 0);
        assert!(part.is_empty());
        assert_eq!(part.len(), 0);
    }

    #[test]
    fn single_cell_single_row() {
        let part = partition_rows(&[r(0, 0, 10, 10)], 0);
        assert_eq!(part.len(), 1);
        assert_eq!(part.rows()[0].y, Interval::new(0, 10));
        assert_eq!(part.rows()[0].members, vec![0]);
    }

    #[test]
    fn standard_cell_rows_separate() {
        // Three placement rows of height 8 with 2 units of space.
        let mut mbrs = Vec::new();
        for row in 0..3 {
            let y0 = row * 10;
            for col in 0..4 {
                mbrs.push(r(col * 20, y0, col * 20 + 15, y0 + 8));
            }
        }
        let part = partition_rows(&mbrs, 0);
        assert_eq!(part.len(), 3);
        for (i, row) in part.iter().enumerate() {
            assert_eq!(row.members.len(), 4);
            assert_eq!(row.y, Interval::new(i as Coord * 10, i as Coord * 10 + 8));
        }
    }

    #[test]
    fn expansion_merges_close_rows() {
        let mbrs = [r(0, 0, 10, 8), r(0, 10, 10, 18)];
        assert_eq!(partition_rows(&mbrs, 0).len(), 2);
        // Inflating by 1 leaves a gap ([−1,9] vs [9,19] touch at 9 — merged).
        assert_eq!(partition_rows(&mbrs, 1).len(), 1);
    }

    #[test]
    fn tall_cell_bridges_rows() {
        let mbrs = [
            r(0, 0, 10, 8),
            r(0, 20, 10, 28),
            r(50, 0, 60, 28), // spans both bands
        ];
        let part = partition_rows(&mbrs, 0);
        assert_eq!(part.len(), 1);
        assert_eq!(part.rows()[0].members, vec![0, 1, 2]);
    }

    #[test]
    fn clips_within_row() {
        let mbrs = [r(0, 0, 10, 8), r(12, 0, 20, 8), r(100, 0, 110, 8)];
        let part = partition_rows(&mbrs, 0);
        assert_eq!(part.len(), 1);
        let clips = partition_clips(&mbrs, &part.rows()[0].members, 0);
        assert_eq!(clips, vec![vec![0], vec![1], vec![2]]);
        // Inflating by 1 bridges the 2-unit gap between the first two.
        let clips = partition_clips(&mbrs, &part.rows()[0].members, 1);
        assert_eq!(clips, vec![vec![0, 1], vec![2]]);
        // Expanding enough merges the first two clips with the third.
        let clips = partition_clips(&mbrs, &part.rows()[0].members, 40);
        assert_eq!(clips, vec![vec![0, 1, 2]]);
    }

    proptest! {
        #[test]
        fn rows_are_disjoint_and_complete(
            specs in proptest::collection::vec(
                (-200i32..200, -200i32..200, 1i32..60, 1i32..60), 1..80),
            expand in 0i32..10,
        ) {
            let mbrs: Vec<Rect> = specs.iter()
                .map(|&(x, y, w, h)| r(x, y, x + w, y + h))
                .collect();
            let part = partition_rows(&mbrs, expand);

            // Every cell appears in exactly one row.
            let mut seen = vec![0usize; mbrs.len()];
            for row in &part {
                for &m in &row.members {
                    seen[m] += 1;
                }
            }
            prop_assert!(seen.iter().all(|&c| c == 1));

            // Rows are ordered and their y-extents never overlap.
            for w in part.rows().windows(2) {
                prop_assert!(w[0].y.hi() < w[1].y.lo());
            }

            // No inflated cell extent crosses a row boundary, i.e. cells
            // of different rows are farther than 2*expand apart in y.
            for row in &part {
                for &m in &row.members {
                    let e = mbrs[m].y_range().inflate(expand);
                    prop_assert!(row.y.contains(e.lo()) && row.y.contains(e.hi()));
                }
            }
        }

        #[test]
        fn parallel_assignment_matches_serial(
            specs in proptest::collection::vec(
                (-200i32..200, -200i32..200, 1i32..60, 1i32..60), 1..80),
            expand in 0i32..10,
            threads in 1usize..5,
        ) {
            let mbrs: Vec<Rect> = specs.iter()
                .map(|&(x, y, w, h)| r(x, y, x + w, y + h))
                .collect();
            let host = HostExecutor::new(threads);
            prop_assert_eq!(
                partition_rows_on(&mbrs, expand, &host),
                partition_rows(&mbrs, expand)
            );
        }

        #[test]
        fn cross_row_cells_cannot_violate_spacing(
            specs in proptest::collection::vec(
                (-100i32..100, -100i32..100, 1i32..30, 1i32..30), 2..40),
            rule in 1i32..10,
        ) {
            let mbrs: Vec<Rect> = specs.iter()
                .map(|&(x, y, w, h)| r(x, y, x + w, y + h))
                .collect();
            // Inflate by the rule distance: the partition contract is that
            // any two cells in different rows have y-gap > 0 after
            // inflation by `rule`, hence real gap >= 2*rule > rule.
            let part = partition_rows(&mbrs, rule);
            for (ri, row_a) in part.rows().iter().enumerate() {
                for row_b in part.rows().iter().skip(ri + 1) {
                    for &a in &row_a.members {
                        for &b in &row_b.members {
                            prop_assert!(mbrs[a].gap(mbrs[b]) > i64::from(rule));
                        }
                    }
                }
            }
        }
    }
}
