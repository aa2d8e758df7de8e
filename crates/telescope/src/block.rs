//! Arena-backed feed-record blocks.
//!
//! The classifier packs the qualifying [`RsdosRecord`]s into one
//! contiguous, refcounted byte arena ([`bytes::Bytes`]) instead of a `Vec`
//! of row structs: building appends fixed-width big-endian rows into a
//! [`bytes::BytesMut`], freezing makes the block immutable, and a clone is
//! a refcount bump on the same arena. Rows decode on the fly during
//! iteration; the row structs stay the differential reference — a block
//! round-trips to exactly the rows it was built from, and the block-fed
//! classifier is locked against the row-fed one by the tests below and in
//! `rsdos.rs`.

use crate::RsdosRecord;
use attack::Protocol;
use bytes::{Bytes, BytesMut};
use simcore::time::Window;
use std::net::Ipv4Addr;

/// Packed size of one [`RsdosRecord`] row.
pub const RECORD_ROW_BYTES: usize = 37;

fn protocol_from_number(n: u8) -> Protocol {
    match n {
        1 => Protocol::Icmp,
        6 => Protocol::Tcp,
        17 => Protocol::Udp,
        other => panic!("corrupt block: unknown protocol number {other}"),
    }
}

fn u16_at(b: &[u8], i: usize) -> u16 {
    u16::from_be_bytes([b[i], b[i + 1]])
}

fn u32_at(b: &[u8], i: usize) -> u32 {
    u32::from_be_bytes([b[i], b[i + 1], b[i + 2], b[i + 3]])
}

fn u64_at(b: &[u8], i: usize) -> u64 {
    u64::from_be_bytes([b[i], b[i + 1], b[i + 2], b[i + 3], b[i + 4], b[i + 5], b[i + 6], b[i + 7]])
}

fn decode_record_row(row: &[u8]) -> RsdosRecord {
    RsdosRecord {
        window: Window(u64_at(row, 0)),
        victim: Ipv4Addr::from(u32_at(row, 8)),
        slash16s: u32_at(row, 12),
        protocol: protocol_from_number(row[16]),
        first_port: u16_at(row, 17),
        unique_ports: u16_at(row, 19),
        max_ppm: f64::from_bits(u64_at(row, 21)),
        packets: u64_at(row, 29),
    }
}

/// Builder accumulating [`RsdosRecord`]s into one arena.
#[derive(Default)]
pub struct RecordBlockBuilder {
    arena: BytesMut,
    len: usize,
}

impl RecordBlockBuilder {
    pub fn new() -> RecordBlockBuilder {
        RecordBlockBuilder::default()
    }

    pub fn with_capacity(records: usize) -> RecordBlockBuilder {
        RecordBlockBuilder { arena: BytesMut::with_capacity(records * RECORD_ROW_BYTES), len: 0 }
    }

    pub fn push(&mut self, r: &RsdosRecord) {
        // One stack-assembled row, one arena append: the per-field
        // append calls were the packing hot spot at feed scale.
        let mut row = [0u8; RECORD_ROW_BYTES];
        row[0..8].copy_from_slice(&r.window.0.to_be_bytes());
        row[8..12].copy_from_slice(&u32::from(r.victim).to_be_bytes());
        row[12..16].copy_from_slice(&r.slash16s.to_be_bytes());
        row[16] = r.protocol.number();
        row[17..19].copy_from_slice(&r.first_port.to_be_bytes());
        row[19..21].copy_from_slice(&r.unique_ports.to_be_bytes());
        row[21..29].copy_from_slice(&r.max_ppm.to_bits().to_be_bytes());
        row[29..37].copy_from_slice(&r.packets.to_be_bytes());
        self.arena.extend_from_slice(&row);
        self.len += 1;
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Freeze into an immutable, cheap-to-clone block.
    pub fn finish(self) -> RecordBlock {
        RecordBlock { arena: self.arena.freeze(), len: self.len }
    }
}

/// An immutable batch of [`RsdosRecord`]s in one shared arena. `Clone` is
/// a refcount bump; the arena is never copied.
#[derive(Clone, PartialEq)]
pub struct RecordBlock {
    arena: Bytes,
    len: usize,
}

impl RecordBlock {
    pub fn from_records<'a, I: IntoIterator<Item = &'a RsdosRecord>>(records: I) -> RecordBlock {
        let mut b = RecordBlockBuilder::new();
        for r in records {
            b.push(r);
        }
        b.finish()
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes of the backing arena.
    pub fn arena_bytes(&self) -> usize {
        self.arena.len()
    }

    /// Decode row `i`.
    pub fn get(&self, i: usize) -> RsdosRecord {
        assert!(i < self.len, "row {i} out of bounds (len {})", self.len);
        decode_record_row(&self.arena[i * RECORD_ROW_BYTES..(i + 1) * RECORD_ROW_BYTES])
    }

    pub fn iter(&self) -> impl Iterator<Item = RsdosRecord> + '_ {
        self.arena.chunks_exact(RECORD_ROW_BYTES).map(decode_record_row)
    }

    /// Whether two blocks share one arena allocation (zero-copy clones).
    pub fn same_arena(a: &RecordBlock, b: &RecordBlock) -> bool {
        Bytes::same_storage(&a.arena, &b.arena)
    }
}

impl std::fmt::Debug for RecordBlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecordBlock")
            .field("len", &self.len)
            .field("arena_bytes", &self.arena.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(victim: &str, w: u64, packets: u64, proto: Protocol) -> RsdosRecord {
        RsdosRecord {
            window: Window(w),
            victim: victim.parse().unwrap(),
            slash16s: 7,
            protocol: proto,
            first_port: 443,
            unique_ports: 3,
            max_ppm: 1234.5,
            packets,
        }
    }

    #[test]
    fn record_block_round_trips_rows() {
        let rows = vec![
            record("10.0.0.1", 3, 100, Protocol::Tcp),
            record("192.0.2.7", 4, 2_000, Protocol::Udp),
            record("203.0.113.9", 5, 31, Protocol::Icmp),
        ];
        let block = RecordBlock::from_records(&rows);
        assert_eq!(block.len(), 3);
        assert_eq!(block.arena_bytes(), 3 * RECORD_ROW_BYTES);
        let back: Vec<RsdosRecord> = block.iter().collect();
        assert_eq!(back, rows);
        assert_eq!(block.get(1), rows[1]);
    }

    #[test]
    fn clones_share_the_arena() {
        let block = RecordBlock::from_records(&[record("10.0.0.1", 1, 5, Protocol::Tcp)]);
        let fanout: Vec<RecordBlock> = (0..4).map(|_| block.clone()).collect();
        for c in &fanout {
            assert!(RecordBlock::same_arena(&block, c), "clone copied the arena");
            assert_eq!(c.get(0), block.get(0));
        }
        let rebuilt = RecordBlock::from_records(&[record("10.0.0.1", 1, 5, Protocol::Tcp)]);
        assert!(!RecordBlock::same_arena(&block, &rebuilt));
        assert_eq!(block, rebuilt, "equality is by contents, not storage");
    }

    #[test]
    fn empty_blocks() {
        let rb = RecordBlockBuilder::new().finish();
        assert!(rb.is_empty());
        assert_eq!(rb.iter().count(), 0);
    }

    #[test]
    fn builder_len_tracks_pushes() {
        let mut b = RecordBlockBuilder::with_capacity(2);
        assert!(b.is_empty());
        b.push(&record("10.0.0.1", 1, 5, Protocol::Tcp));
        b.push(&record("10.0.0.2", 2, 6, Protocol::Udp));
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn special_float_values_survive_packing() {
        let mut r = record("10.0.0.1", 1, 5, Protocol::Tcp);
        r.max_ppm = 0.1 + 0.2; // not exactly representable
        let block = RecordBlock::from_records(&[r.clone()]);
        assert_eq!(block.get(0).max_ppm.to_bits(), r.max_ppm.to_bits(), "bit-exact f64");
    }
}
