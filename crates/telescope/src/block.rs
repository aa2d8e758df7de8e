//! The classifier's output: the qualifying [`RsdosRecord`]s of one feed
//! interval, one plain row each.
//!
//! [`RecordBlock`] is a thin owner of the row vector. It exists for the
//! call shape `classify_into_block` → `episodes_from_block` →
//! `iter().collect()` that the benchmark's traced replica of
//! `longitudinal::run` compiles against; once that replica goes, the
//! classifier can hand out the `Vec` itself.

use crate::RsdosRecord;

/// The qualifying feed records of one classification, in observation order.
#[derive(Clone, Debug, PartialEq)]
pub struct RecordBlock {
    rows: Vec<RsdosRecord>,
}

impl RecordBlock {
    pub(crate) fn new(rows: Vec<RsdosRecord>) -> RecordBlock {
        RecordBlock { rows }
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    pub(crate) fn rows(&self) -> &[RsdosRecord] {
        &self.rows
    }

    /// The rows, by value.
    pub fn iter(&self) -> impl Iterator<Item = RsdosRecord> + '_ {
        self.rows.iter().copied()
    }
}
