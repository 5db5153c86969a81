//! # durable — RAM-first durability engine
//!
//! CliqueMap proper treats a backend's RAM as the only copy and recovers a
//! crashed backend by en-masse peer repair over the fabric (§ unplanned
//! maintenance). This crate supplies the RAM-first *alternative* in the
//! ClawStore mold: reads never touch storage, every mutation is appended to
//! a per-backend write-ahead log whose fsyncs are amortized by **group
//! commit**, a background **trickle flush** checkpoints the log prefix into
//! a snapshot (bounding log length), and a restart **replays** snapshot +
//! log locally so only the un-fsynced tail has to be delta-repaired from
//! peers.
//!
//! The crate is deliberately engine-only and dependency-free: it knows
//! nothing about simulated time, devices, or RPC. The simulation glue
//! (when fsyncs complete, what they cost) lives in `simnet`'s device model
//! and `cliquemap`'s backend; tests drive the engine directly.
//!
//! ## Crash model
//!
//! Durability state is split in two:
//!
//! * [`Media`] — what survives a crash: fsynced WAL bytes plus the
//!   checkpoint snapshot. The owning process holds it behind
//!   `Rc<RefCell<Media>>` so a revived node reattaches to the same media.
//! * [`GroupCommit`] — what dies with the process: the in-RAM pending
//!   batch and the batch whose fsync is in flight. A crash loses both,
//!   which is exactly the un-fsynced tail the warm restart must fetch back
//!   from peers.
//!
//! Torn tails are first-class: [`decode_stream`] drops a truncated or
//! corrupt final record instead of failing, because a crash mid-device-
//! write legitimately leaves one, and the first [`Media::commit`] after a
//! tear cuts the torn suffix off before appending, as opening a real log
//! for append does — so [`Media::wal_records`] is always what
//! [`Media::recover`] replays.
//!
//! Both halves keep only what replay can install: versions are a total
//! order and replay is version-gated, so a record whose key has a strictly
//! newer one in the same pending batch is absorbed by it, and a durable
//! record whose key has a strictly newer *durable* one is dropped from the
//! log. A crash still loses exactly the un-fsynced tail.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, VecDeque};

/// WAL record kind: a key/value set (or repair-set, CAS — anything that
/// installs a value at a version).
pub const KIND_SET: u8 = 0;
/// WAL record kind: an erase tombstone at a version.
pub const KIND_ERASE: u8 = 1;

/// Fixed per-record framing bytes: `len` + `crc` + `kind` + `version` +
/// `key_len`.
pub const RECORD_HEADER: usize = 4 + 4 + 1 + 16 + 4;

/// Body bytes before the key: `kind` + `version` + `key_len`.
const BODY_FIXED: usize = RECORD_HEADER - 8;

/// Offsets of the fixed fields within an encoded record.
const CRC_AT: usize = 4;
const KIND_AT: usize = 8;
const VERSION_AT: usize = 9;
const KEY_LEN_AT: usize = 25;

/// One logical WAL record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// [`KIND_SET`] or [`KIND_ERASE`].
    pub kind: u8,
    /// The store's version number for this mutation (128-bit, TrueTime
    /// derived upstream). Replay is version-gated on this.
    pub version: u128,
    /// Key bytes.
    pub key: Vec<u8>,
    /// Value bytes (empty for [`KIND_ERASE`]).
    pub value: Vec<u8>,
}

impl Record {
    /// Encoded on-log size of this record in bytes.
    pub fn encoded_len(&self) -> usize {
        RECORD_HEADER + self.key.len() + self.value.len()
    }
}

/// One decoded WAL record borrowing its key and value from the log bytes.
#[derive(Debug, Clone, Copy)]
struct RecordRef<'a> {
    kind: u8,
    version: u128,
    key: &'a [u8],
    value: &'a [u8],
}

impl RecordRef<'_> {
    fn to_record(self) -> Record {
        Record {
            kind: self.kind,
            version: self.version,
            key: self.key.to_vec(),
            value: self.value.to_vec(),
        }
    }
}

/// The checksum guarding each record's body: four independent 64-bit
/// multiply-xor lanes over 32-byte strides (one multiply per 8 bytes, four
/// in flight), folded to the 4-byte field. The length seeds the lanes so a
/// short body is never confused with a zero-padded longer one; each lane
/// step and each combining step is a bijection in the word it absorbs, so
/// one changed word always changes the 64-bit state before the final fold.
pub fn record_checksum(body: &[u8]) -> u32 {
    let h = hash64(body);
    (h ^ (h >> 32)) as u32
}

/// The 64-bit state [`record_checksum`] folds; [`GroupCommit`] and
/// [`Media`] key their indexes on this hash of a record's key bytes.
fn hash64(body: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let word = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("8-byte lane"));
    // The rotate keeps a flipped top bit from staying a top bit, where a
    // second flip in the same lane would cancel it.
    let absorb = |lane: u64, w: u64| (lane.rotate_left(29) ^ w).wrapping_mul(PRIME);
    let seed = 0xcbf2_9ce4_8422_2325 ^ (body.len() as u64).wrapping_mul(PRIME);
    let mut lanes = [
        seed,
        seed.rotate_left(16),
        seed.rotate_left(32),
        seed.rotate_left(48),
    ];
    let mut strides = body.chunks_exact(32);
    for s in &mut strides {
        for (lane, w) in lanes.iter_mut().zip(s.chunks_exact(8)) {
            *lane = absorb(*lane, word(w));
        }
    }
    for (lane, w) in lanes.iter_mut().zip(strides.remainder().chunks(8)) {
        let mut tail = [0u8; 8];
        tail[..w.len()].copy_from_slice(w);
        *lane = absorb(*lane, u64::from_le_bytes(tail));
    }
    let mut h = lanes[0];
    for &lane in &lanes[1..] {
        h = absorb(h, lane);
    }
    h ^= h >> 33;
    h.wrapping_mul(0xff51_afd7_ed55_8ccd)
}

/// Append one record's wire form to `buf` straight from borrowed parts;
/// returns the encoded length. This is the only encoder: each key and
/// value byte is copied once, into `buf`, and checksummed once there.
///
/// Layout (all integers little-endian):
/// `[total_len u32][crc u32][kind u8][version u128][key_len u32][key][value]`
/// where `total_len` counts everything including itself and `crc` is
/// [`record_checksum`] over the body (everything after the `crc` field).
pub fn append_parts(buf: &mut Vec<u8>, kind: u8, version: u128, key: &[u8], value: &[u8]) -> usize {
    let total = RECORD_HEADER + key.len() + value.len();
    buf.reserve(total);
    buf.extend_from_slice(&(total as u32).to_le_bytes());
    let crc_at = buf.len();
    buf.extend_from_slice(&[0u8; 4]);
    buf.push(kind);
    buf.extend_from_slice(&version.to_le_bytes());
    buf.extend_from_slice(&(key.len() as u32).to_le_bytes());
    buf.extend_from_slice(key);
    buf.extend_from_slice(value);
    let crc = record_checksum(&buf[crc_at + 4..]);
    buf[crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());
    total
}

/// Append `rec`'s wire form to `buf` (see [`append_parts`]); returns the
/// encoded length.
pub fn append_record(buf: &mut Vec<u8>, rec: &Record) -> usize {
    append_parts(buf, rec.kind, rec.version, &rec.key, &rec.value)
}

#[cfg(test)]
thread_local! {
    /// Records decoded on this thread, so tests can bound how much of a
    /// log an operation walks.
    static DECODED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Decode the record at the front of `bytes`: the record and its encoded
/// length, or `None` when the front is a torn record (truncated header,
/// truncated body, impossible length or checksum mismatch). Never panics
/// and never reads past a length it has not checked against `bytes`.
fn decode_front(bytes: &[u8]) -> Option<(RecordRef<'_>, usize)> {
    let total = u32::from_le_bytes(bytes.get(..4)?.try_into().ok()?) as usize;
    if total < RECORD_HEADER || bytes.len() < total {
        return None;
    }
    let crc = u32::from_le_bytes(bytes[4..8].try_into().ok()?);
    let body = &bytes[8..total];
    if record_checksum(body) != crc {
        return None;
    }
    let key_len = u32::from_le_bytes(body[17..BODY_FIXED].try_into().ok()?) as usize;
    let (key, value) = body[BODY_FIXED..].split_at_checked(key_len)?;
    #[cfg(test)]
    DECODED.with(|d| d.set(d.get() + 1));
    let rec = RecordRef {
        kind: body[0],
        version: u128::from_le_bytes(body[1..17].try_into().ok()?),
        key,
        value,
    };
    Some((rec, total))
}

/// A superseded record still lying in the log: `(segment seq, offset, len)`.
type Dead = (u64, usize, usize);

/// One segment as a walk sees it: its bytes, its superseded records
/// (ascending offsets) and the offset the walk starts at.
type SegmentView<'a> = (&'a [u8], &'a [Dead], usize);

/// Streaming decoder over a log held as a sequence of segments, each made
/// of whole records: yields the intact live records in log order, steps
/// over superseded ones without decoding them, and stops for good at the
/// first torn record. The one WAL walker — [`decode_stream`],
/// [`Media::prefix`], [`Media::flush_prefix`] and [`Media::recover`] all
/// read the log through it, and none decodes more than it consumes.
struct Walker<'a, I> {
    segments: I,
    buf: &'a [u8],
    dead: &'a [Dead],
    /// Offset in `buf` of the next record.
    at: usize,
    /// Segments entered so far: `buf` is segment `entered - 1`.
    entered: usize,
    /// Bytes of the intact records yielded so far.
    consumed: usize,
    /// Whether the walk ended at a torn record.
    torn: bool,
}

impl<'a, I: Iterator<Item = SegmentView<'a>>> Walker<'a, I> {
    fn new(segments: I) -> Walker<'a, I> {
        Walker {
            segments,
            buf: &[],
            dead: &[],
            at: 0,
            entered: 0,
            consumed: 0,
            torn: false,
        }
    }
}

impl<'a, I: Iterator<Item = SegmentView<'a>>> Iterator for Walker<'a, I> {
    type Item = RecordRef<'a>;

    fn next(&mut self) -> Option<RecordRef<'a>> {
        if self.torn {
            return None;
        }
        loop {
            // Step over superseded records: every range lies at or after
            // the offset a segment's walk starts at.
            while let Some((&(_, off, len), rest)) = self.dead.split_first() {
                if off != self.at {
                    break;
                }
                self.at += len;
                self.dead = rest;
            }
            if self.at < self.buf.len() {
                break;
            }
            (self.buf, self.dead, self.at) = self.segments.next()?;
            self.entered += 1;
        }
        match decode_front(&self.buf[self.at..]) {
            Some((rec, total)) => {
                self.at += total;
                self.consumed += total;
                Some(rec)
            }
            None => {
                self.torn = true;
                None
            }
        }
    }
}

/// Outcome of decoding a WAL byte stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DecodeTail {
    /// Bytes consumed by fully valid records.
    pub consumed: usize,
    /// Whether a torn tail (truncated or checksum-failing final record)
    /// was dropped. Anything *after* a torn record is unreachable — the
    /// log is append-only, so a tear can only be last.
    pub torn: bool,
}

/// Decode every intact record from `bytes`, dropping a torn tail. Never
/// panics on corrupt input: a truncated header, a truncated body, or a
/// checksum mismatch ends the decode at the last good record.
pub fn decode_stream(bytes: &[u8]) -> (Vec<Record>, DecodeTail) {
    let mut walk = Walker::new(std::iter::once((bytes, &[][..], 0)));
    let recs = walk.by_ref().map(|r| r.to_record()).collect();
    let tail = DecodeTail {
        consumed: walk.consumed,
        torn: walk.torn,
    };
    (recs, tail)
}

/// The checkpoint map: key → (kind, version, value).
type Snapshot = BTreeMap<Vec<u8>, (u8, u128, Vec<u8>)>;

fn apply_parts(map: &mut Snapshot, kind: u8, version: u128, key: &[u8], value: &[u8]) {
    match map.get_mut(key) {
        Some(slot) => {
            if version > slot.1 {
                *slot = (kind, version, value.to_vec());
            }
        }
        None => {
            map.insert(key.to_vec(), (kind, version, value.to_vec()));
        }
    }
}

/// Version-gated apply of one record onto a plain map — the reference
/// semantics replay tests compare the store against. An entry only moves
/// forward in version; erases leave a tombstone version so a slower SET
/// can't resurrect the key.
pub fn apply_record(map: &mut BTreeMap<Vec<u8>, (u8, u128, Vec<u8>)>, rec: &Record) {
    apply_parts(map, rec.kind, rec.version, &rec.key, &rec.value);
}

/// What a process recovers from its [`Media`] at warm restart.
#[derive(Debug, Clone, Default)]
pub struct Recovery {
    /// Records to replay, snapshot entries first (oldest state), then WAL
    /// records in log order. Replay through a version-gated store is
    /// idempotent, so replaying twice yields an identical store.
    pub records: Vec<Record>,
    /// Entries recovered from the checkpoint snapshot.
    pub from_snapshot: u64,
    /// Records recovered from the WAL proper.
    pub from_wal: u64,
    /// Whether a torn WAL tail was dropped.
    pub torn_tail: bool,
}

/// A segment is rewritten once at least `1 / COMPACT_DIVISOR` of its bytes
/// are garbage (superseded records, or checkpointed ones behind the
/// cursor): a segment then never holds more than 4/3 of its live bytes.
const COMPACT_DIVISOR: usize = 4;

/// Where a durable record lies: `(segment seq, offset)`.
type Loc = (u64, usize);

/// One sealed batch as the log holds it.
#[derive(Debug, Clone)]
struct Segment {
    /// Position in the log, unique for the media's life; ascending along
    /// the queue, so an index [`Loc`] outlives the removal of others.
    seq: u64,
    /// Whole records as one fsync delivered them, less any rewritten away;
    /// the newest segment may end in the torn record a power cut left.
    buf: Vec<u8>,
    /// Bytes of `buf` held by superseded records.
    dead_bytes: usize,
}

/// The crash-surviving half of durability: fsynced WAL bytes plus the
/// checkpoint snapshot trickle flush maintains. Only
/// [`Media::commit`] (a completed fsync) and [`Media::flush_prefix`] (a
/// completed checkpoint write) mutate it, mirroring the device protocol.
///
/// The log is a queue of sealed batch buffers, each as one fsync delivered
/// it, plus a cursor into the oldest: a commit moves its batch in at the
/// back, a trickle flush advances the cursor and drops whole batches off
/// the front. It holds what recovery can install: versions are a total
/// order and replay is version-gated, so once a strictly newer record of a
/// key is durable the older one can never win, and a commit marks it dead.
/// Readers step over dead records; a segment whose garbage reaches
/// `1 / COMPACT_DIVISOR` is rewritten with its live records in log order.
#[derive(Debug, Clone, Default)]
pub struct Media {
    /// Sealed batches, oldest first.
    segments: VecDeque<Segment>,
    /// Seq the next committed segment takes.
    next_seq: u64,
    /// Offset of the oldest live record within `segments[0]` (everything
    /// before it has been truncated into the snapshot).
    head: usize,
    /// Bytes of torn record at the end of the newest segment.
    torn_bytes: usize,
    /// [`index_hash`] of a key → its newest durable record, for every key
    /// with a live record a later commit may supersede. As in
    /// [`GroupCommit`], a second key with the same hash is never indexed.
    index: HashMap<u64, Loc>,
    /// Every segment's superseded records, sorted; one list for the whole
    /// log, so marking a record allocates nothing once it has grown.
    dead: Vec<Dead>,
    /// Live WAL bytes from the cursor on, torn suffix included.
    wal_bytes: u64,
    /// Intact live records from the cursor on.
    wal_records: u64,
    /// Checkpoint: key → (kind, version, value). Tombstones are kept so a
    /// replayed erase still fences slower sets.
    snapshot: Snapshot,
    /// Cumulative WAL bytes retired into the snapshot (log truncation).
    truncated_bytes: u64,
}

/// Walk the live log from the cursor. A free function over the fields so a
/// caller can hold the walk while it mutates the snapshot and the index.
fn walk_log<'a>(
    segments: &'a VecDeque<Segment>,
    dead: &'a [Dead],
    head: usize,
) -> Walker<'a, impl Iterator<Item = SegmentView<'a>>> {
    let (mut dead, mut at) = (dead, head);
    Walker::new(segments.iter().map(move |s| {
        let (own, rest) = dead.split_at(dead.partition_point(|d| d.0 <= s.seq));
        dead = rest;
        (&s.buf[..], own, std::mem::take(&mut at))
    }))
}

/// Position in `segments` of the segment numbered `seq`.
fn position(segments: &VecDeque<Segment>, seq: u64) -> usize {
    segments
        .binary_search_by_key(&seq, |s| s.seq)
        .expect("an indexed or dead record lies in a queued segment")
}

/// Rewrite `seg` without its garbage: the bytes before `from`, the `dead`
/// ranges, none of them indexed. Live records keep their order, and index
/// entries pointing at a moved record follow it; `torn` trailing bytes are
/// kept unparsed.
fn rewrite(
    seg: &mut Segment,
    from: usize,
    dead: &[Dead],
    torn: usize,
    index: &mut HashMap<u64, Loc>,
) {
    let end = seg.buf.len();
    let holes = dead.iter().map(|&(_, off, len)| (off, len));
    let (mut read, mut write) = (from, 0);
    for (hole, len) in holes.chain(std::iter::once((end, 0))) {
        let parsed = if hole == end { end - torn } else { hole };
        let mut at = read;
        while at < parsed {
            let (rec_len, _, key) = header_at(&seg.buf, at);
            if let Some(loc) = index.get_mut(&index_hash(key)) {
                if *loc == (seg.seq, at) {
                    loc.1 = write + (at - read);
                }
            }
            at += rec_len;
        }
        seg.buf.copy_within(read..hole, write);
        write += hole - read;
        read = hole + len;
    }
    seg.buf.truncate(write);
    seg.buf.shrink_to_fit();
    seg.dead_bytes = 0;
}

impl Media {
    /// Whether nothing has ever been made durable (a cold, first-boot
    /// media).
    pub fn is_empty(&self) -> bool {
        self.wal_bytes == 0 && self.snapshot.is_empty()
    }

    /// Apply a completed fsync: `encoded` (records of wire form) is now
    /// durable.
    pub fn commit(&mut self, encoded: &[u8]) {
        self.commit_batch(encoded.to_vec());
    }

    /// [`Media::commit`] of a batch the caller no longer needs: the
    /// buffer itself becomes the log's newest segment. A log that ends in
    /// a torn record is first cut back to its last intact one — what
    /// opening a real WAL for append does — so nothing acknowledged as
    /// durable ever lands behind bytes recovery cannot cross.
    ///
    /// The batch's intact records are then walked in log order, each one
    /// superseding the durable record of its key it is strictly newer
    /// than; a record no newer than its key's, or whose key's hash another
    /// key holds in the index, supersedes nothing and stays (the
    /// [`GroupCommit`] rule). Whatever follows the first torn record is the
    /// batch's torn suffix.
    pub fn commit_batch(&mut self, encoded: Vec<u8>) {
        if self.torn_bytes > 0 {
            let last = self
                .segments
                .back_mut()
                .expect("torn bytes live in a segment");
            last.buf.truncate(last.buf.len() - self.torn_bytes);
            self.wal_bytes -= self.torn_bytes as u64;
            self.torn_bytes = 0;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.segments.push_back(Segment {
            seq,
            buf: encoded,
            dead_bytes: 0,
        });
        let newest = self.segments.len() - 1;
        let (mut at, mut superseded) = (0, false);
        while let Some((rec, total)) = decode_front(&self.segments[newest].buf[at..]) {
            self.wal_records += 1;
            self.wal_bytes += total as u64;
            let old = match self.index.entry(index_hash(rec.key)) {
                Entry::Vacant(slot) => {
                    slot.insert((seq, at));
                    None
                }
                Entry::Occupied(mut slot) => {
                    let (old_seq, old_at) = *slot.get();
                    let i = position(&self.segments, old_seq);
                    let (len, version, key) = header_at(&self.segments[i].buf, old_at);
                    (key == rec.key && version < rec.version).then(|| {
                        slot.insert((seq, at));
                        (i, old_seq, old_at, len)
                    })
                }
            };
            if let Some((i, old_seq, old_at, len)) = old {
                self.segments[i].dead_bytes += len;
                self.dead.push((old_seq, old_at, len));
                self.wal_records -= 1;
                self.wal_bytes -= len as u64;
                superseded = true;
            }
            at += total;
        }
        self.torn_bytes = self.segments[newest].buf.len() - at;
        self.wal_bytes += self.torn_bytes as u64;
        if superseded {
            self.dead.sort_unstable();
        }
        self.reclaim();
    }

    /// Drop every segment that holds nothing live and rewrite every one
    /// whose garbage reached `1 / COMPACT_DIVISOR`, taking their ranges
    /// out of `dead`. Reclaiming log space costs no device time in this
    /// model, as dropping a checkpointed segment never did.
    fn reclaim(&mut self) {
        let (mut i, mut read, mut kept) = (0, 0, 0);
        while i < self.segments.len() {
            let seg = &self.segments[i];
            let start = read;
            read += self.dead[read..].partition_point(|d| d.0 <= seg.seq);
            let from = if i == 0 { self.head } else { 0 };
            let garbage = from + seg.dead_bytes;
            if garbage == seg.buf.len() {
                self.segments.remove(i);
                if i == 0 {
                    self.head = 0;
                }
                continue;
            }
            if garbage * COMPACT_DIVISOR >= seg.buf.len() {
                let torn = if i + 1 == self.segments.len() {
                    self.torn_bytes
                } else {
                    0
                };
                let seg = &mut self.segments[i];
                rewrite(seg, from, &self.dead[start..read], torn, &mut self.index);
                if i == 0 {
                    self.head = 0;
                }
            } else {
                self.dead.copy_within(start..read, kept);
                kept += read - start;
            }
            i += 1;
        }
        self.dead.truncate(kept);
    }

    /// Crash-model variant of [`Media::commit`]: only the first `keep`
    /// bytes of the batch reached the platter (the device lost power mid
    /// transfer). Produces exactly the torn tail [`decode_stream`] drops.
    pub fn commit_partial(&mut self, encoded: &[u8], keep: usize) {
        self.commit(&encoded[..keep.min(encoded.len())]);
    }

    /// Live WAL length in bytes: the intact records recovery replays,
    /// plus a torn suffix if the last commit left one.
    pub fn wal_bytes(&self) -> u64 {
        self.wal_bytes
    }

    /// Records in the live WAL — exactly what [`Media::recover`] replays
    /// from it.
    pub fn wal_records(&self) -> u64 {
        self.wal_records
    }

    /// Bytes the log's segments hold: [`Media::wal_bytes`] plus the
    /// superseded and checkpointed records not yet rewritten away.
    pub fn resident_bytes(&self) -> u64 {
        self.segments.iter().map(|s| s.buf.len() as u64).sum()
    }

    /// Entries in the checkpoint snapshot.
    pub fn snapshot_entries(&self) -> u64 {
        self.snapshot.len() as u64
    }

    /// Cumulative bytes truncated off the WAL by trickle flushes.
    pub fn truncated_bytes(&self) -> u64 {
        self.truncated_bytes
    }

    /// Peek the oldest WAL prefix of at most `max_records` records:
    /// returns `(records, bytes)` without mutating anything. The trickle
    /// flusher sizes its checkpoint device write from this.
    pub fn prefix(&self, max_records: u64) -> (u64, u64) {
        let cap = usize::try_from(max_records).unwrap_or(usize::MAX);
        let mut walk = walk_log(&self.segments, &self.dead, self.head);
        let records = walk.by_ref().take(cap).count() as u64;
        (records, walk.consumed as u64)
    }

    /// Apply a completed trickle flush: fold the oldest `max_records` WAL
    /// records into the snapshot (version-gated) and truncate them off the
    /// log front. Returns `(records, bytes)` retired.
    pub fn flush_prefix(&mut self, max_records: u64) -> (u64, u64) {
        let (records, bytes, entered, at) = {
            let mut walk = walk_log(&self.segments, &self.dead, self.head);
            let mut records = 0u64;
            while records < max_records {
                let Some(rec) = walk.next() else { break };
                apply_parts(
                    &mut self.snapshot,
                    rec.kind,
                    rec.version,
                    rec.key,
                    rec.value,
                );
                // A checkpointed record supersedes nothing in the log any
                // more: the key's next record starts afresh.
                let seq = self.segments[walk.entered - 1].seq;
                let len = RECORD_HEADER + rec.key.len() + rec.value.len();
                if let Entry::Occupied(slot) = self.index.entry(index_hash(rec.key)) {
                    if *slot.get() == (seq, walk.at - len) {
                        slot.remove();
                    }
                }
                records += 1;
            }
            (records, walk.consumed, walk.entered, walk.at)
        };
        if records == 0 {
            return (0, 0);
        }
        // Advance the cursor to just past the last record flushed: drop the
        // batches it leaves behind, and the dead ranges behind it.
        self.segments.drain(..entered - 1);
        self.head = at;
        let front = self
            .segments
            .front_mut()
            .expect("the cursor lies in a segment");
        let behind = self
            .dead
            .partition_point(|&(seq, off, _)| (seq, off) < (front.seq, at));
        for &(seq, _, len) in &self.dead[..behind] {
            if seq == front.seq {
                front.dead_bytes -= len;
            }
        }
        self.dead.drain(..behind);
        self.wal_records -= records;
        self.wal_bytes -= bytes as u64;
        self.truncated_bytes += bytes as u64;
        self.reclaim();
        (records, bytes as u64)
    }

    /// Directly install a snapshot entry, as if an earlier trickle flush
    /// had checkpointed it. Harness/test seeding only — models a process
    /// that had been up (and flushing) long before the experiment window.
    pub fn install_snapshot(&mut self, kind: u8, version: u128, key: &[u8], value: &[u8]) {
        apply_parts(&mut self.snapshot, kind, version, key, value);
    }

    /// Visit everything a warm restart replays, as borrowed
    /// `(kind, version, key, value)` parts: snapshot entries (in key order
    /// — order is irrelevant, versions gate), then WAL records in log
    /// order. Returns whether a torn WAL tail was dropped. Nothing is
    /// copied: replaying a large log costs no second copy of it.
    pub fn for_each_record(&self, mut visit: impl FnMut(u8, u128, &[u8], &[u8])) -> bool {
        for (key, (kind, version, value)) in &self.snapshot {
            visit(*kind, *version, key, value);
        }
        let mut walk = walk_log(&self.segments, &self.dead, self.head);
        for rec in walk.by_ref() {
            visit(rec.kind, rec.version, rec.key, rec.value);
        }
        walk.torn
    }

    /// [`Media::for_each_record`] collected into owned [`Record`]s, for
    /// tests and tools that want to hold the recovery.
    pub fn recover(&self) -> Recovery {
        let mut records = Vec::new();
        let torn_tail = self.for_each_record(|kind, version, key, value| {
            records.push(Record {
                kind,
                version,
                key: key.to_vec(),
                value: value.to_vec(),
            });
        });
        let from_snapshot = self.snapshot.len() as u64;
        Recovery {
            from_wal: records.len() as u64 - from_snapshot,
            records,
            from_snapshot,
            torn_tail,
        }
    }
}

/// Counters a [`GroupCommit`] maintains.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroupCommitStats {
    /// Records appended.
    pub appends: u64,
    /// Appends that replaced a pending older version of their key instead
    /// of growing the batch.
    pub absorbed: u64,
    /// Commit (fsync) transactions completed.
    pub commits: u64,
    /// Records made durable across all completed commits (absorbed appends
    /// are durable through the record that replaced them, and not counted).
    pub committed_records: u64,
    /// Bytes made durable across all completed commits.
    pub committed_bytes: u64,
    /// Largest single committed batch, in records.
    pub max_batch: u64,
}

/// The in-RAM half of durability: a double-buffered group-commit batcher.
///
/// Appends land in the *pending* buffer. [`GroupCommit::start_commit`]
/// moves pending to *committing* — but only when no commit is in flight,
/// so while the device chews on one fsync every new append coalesces into
/// the next batch. That queueing is the whole amortization story: under
/// load the batch grows to whatever arrived during one fsync, and the
/// per-record cost collapses by the batch factor.
///
/// The pending batch is a dirty set, not an op log. Replay is
/// version-gated ([`apply_record`]), so of one key's records in a batch
/// only the newest can win; an append whose key is already pending at an
/// older version therefore *absorbs* that record: it overwrites it in
/// place when the encoded length is unchanged, and otherwise marks it dead
/// and appends, the dead ranges being squeezed out when the batch is
/// sealed. A batch is thus bounded by the distinct keys mutated during one
/// device transaction, whatever the op rate, and recovers exactly what the
/// unabsorbed batch would — per key; a *torn* absorbed batch is no longer
/// a prefix of the op stream, only a subset of its keys' newest versions.
///
/// Both buffers are process RAM: a crash loses them (the un-fsynced tail).
#[derive(Debug, Default)]
pub struct GroupCommit {
    pending: Vec<u8>,
    /// Live records in `pending`.
    pending_records: u64,
    /// [`index_hash`] of a pending key → offset in `pending` of that key's
    /// newest record. A second key with the same hash is never indexed.
    index: HashMap<u64, usize>,
    /// `(offset, len)` of the absorbed records still lying in `pending`.
    dead: Vec<(usize, usize)>,
    committing: Vec<u8>,
    committing_records: u64,
    in_flight: bool,
    stats: GroupCommitStats,
}

#[cfg(test)]
thread_local! {
    /// ANDed into every [`index_hash`] on this thread, so a test can make
    /// keys collide.
    static INDEX_HASH_MASK: std::cell::Cell<u64> = const { std::cell::Cell::new(u64::MAX) };
}

fn index_hash(key: &[u8]) -> u64 {
    let h = hash64(key);
    #[cfg(test)]
    let h = h & INDEX_HASH_MASK.with(|m| m.get());
    h
}

/// Length, version and key of the record at `at` in a buffer this process
/// encoded itself: the bytes never left RAM, so no checksum pass.
fn header_at(buf: &[u8], at: usize) -> (usize, u128, &[u8]) {
    let rec = &buf[at..];
    let u32_at =
        |at: usize| u32::from_le_bytes(rec[at..at + 4].try_into().expect("4-byte field")) as usize;
    let version = rec[VERSION_AT..KEY_LEN_AT]
        .try_into()
        .expect("16-byte version");
    (
        u32_at(0),
        u128::from_le_bytes(version),
        &rec[RECORD_HEADER..RECORD_HEADER + u32_at(KEY_LEN_AT)],
    )
}

/// Rewrite the encoded record `rec` as a newer version of the same key
/// with a value of the same length: kind, version, value and checksum
/// change, the framing and key stay.
fn overwrite_record(rec: &mut [u8], kind: u8, version: u128, value: &[u8]) {
    rec[KIND_AT] = kind;
    rec[VERSION_AT..KEY_LEN_AT].copy_from_slice(&version.to_le_bytes());
    let value_at = rec.len() - value.len();
    rec[value_at..].copy_from_slice(value);
    let crc = record_checksum(&rec[KIND_AT..]);
    rec[CRC_AT..KIND_AT].copy_from_slice(&crc.to_le_bytes());
}

impl GroupCommit {
    /// Append one record to the pending batch; returns the batch's new
    /// record count (how many records the next fsync will cover).
    pub fn append(&mut self, rec: &Record) -> u64 {
        self.append_parts(rec.kind, rec.version, &rec.key, &rec.value)
    }

    /// [`GroupCommit::append`] from borrowed parts: the key and value are
    /// copied exactly once, into the pending batch. The returned count
    /// does not grow when the append absorbed a pending older version of
    /// its key.
    pub fn append_parts(&mut self, kind: u8, version: u128, key: &[u8], value: &[u8]) -> u64 {
        self.stats.appends += 1;
        let end = self.pending.len();
        match self.index.entry(index_hash(key)) {
            Entry::Vacant(slot) => {
                slot.insert(end);
            }
            Entry::Occupied(mut slot) => {
                let at = *slot.get();
                let (old_len, old_version, old_key) = header_at(&self.pending, at);
                // Another key with this hash, or a late record no newer
                // than the pending one, supersedes nothing: it is a plain
                // append and the index keeps pointing at the newest.
                if old_key == key && old_version < version {
                    self.stats.absorbed += 1;
                    if old_len == RECORD_HEADER + key.len() + value.len() {
                        let rec = &mut self.pending[at..at + old_len];
                        overwrite_record(rec, kind, version, value);
                    } else {
                        self.dead.push((at, old_len));
                        slot.insert(end);
                        append_parts(&mut self.pending, kind, version, key, value);
                    }
                    return self.pending_records;
                }
            }
        }
        append_parts(&mut self.pending, kind, version, key, value);
        self.pending_records += 1;
        self.pending_records
    }

    /// Close the gaps absorbed records left in `pending`, live records
    /// keeping their order: one left-to-right `copy_within` pass.
    fn squeeze(&mut self) {
        if self.dead.is_empty() {
            return;
        }
        self.dead.sort_unstable();
        // Sentinel hole: the last live run ends where the buffer does.
        self.dead.push((self.pending.len(), 0));
        let mut write = self.dead[0].0;
        for hole in self.dead.windows(2) {
            let live = hole[0].0 + hole[0].1..hole[1].0;
            let moved = live.len();
            self.pending.copy_within(live, write);
            write += moved;
        }
        self.pending.truncate(write);
        self.dead.clear();
    }

    /// Records waiting in the pending batch.
    pub fn pending_records(&self) -> u64 {
        self.pending_records
    }

    /// Whether a commit transaction is in flight on the device.
    pub fn in_flight(&self) -> bool {
        self.in_flight
    }

    /// Whether any appended record is not yet durable (pending or in
    /// flight).
    pub fn dirty(&self) -> bool {
        self.in_flight || self.pending_records > 0
    }

    /// Try to start a commit: if none is in flight and the pending batch
    /// is non-empty, seal it and return `(bytes, records)` for the caller
    /// to issue as one device write+fsync transaction. Returns `None` if
    /// there's nothing to do or a commit is already in flight.
    pub fn start_commit(&mut self) -> Option<(u64, u64)> {
        if self.in_flight || self.pending_records == 0 {
            return None;
        }
        self.squeeze();
        self.index.clear();
        std::mem::swap(&mut self.pending, &mut self.committing);
        self.committing_records = self.pending_records;
        self.pending_records = 0;
        self.pending.clear();
        self.in_flight = true;
        Some((self.committing.len() as u64, self.committing_records))
    }

    /// The device transaction completed: the committing batch is durable.
    /// Moves it into `media` (the sealed buffer becomes the log's newest
    /// segment) and returns the number of records committed.
    pub fn finish_commit(&mut self, media: &mut Media) -> u64 {
        debug_assert!(self.in_flight, "finish_commit without start_commit");
        let records = self.committing_records;
        self.stats.commits += 1;
        self.stats.committed_records += records;
        self.stats.committed_bytes += self.committing.len() as u64;
        self.stats.max_batch = self.stats.max_batch.max(records);
        media.commit_batch(std::mem::take(&mut self.committing));
        self.committing_records = 0;
        self.in_flight = false;
        records
    }

    /// Counter snapshot.
    pub fn stats(&self) -> GroupCommitStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(kind: u8, version: u128, key: &[u8], value: &[u8]) -> Record {
        Record {
            kind,
            version,
            key: key.to_vec(),
            value: value.to_vec(),
        }
    }

    #[test]
    fn codec_roundtrip() {
        let mut buf = Vec::new();
        let a = rec(KIND_SET, 7, b"k1", b"hello");
        let b = rec(KIND_ERASE, 9, b"k2", b"");
        append_record(&mut buf, &a);
        append_record(&mut buf, &b);
        let (recs, tail) = decode_stream(&buf);
        assert_eq!(recs, vec![a, b]);
        assert!(!tail.torn);
        assert_eq!(tail.consumed, buf.len());
    }

    #[test]
    fn torn_tail_is_dropped_at_every_cut() {
        let mut buf = Vec::new();
        let a = rec(KIND_SET, 1, b"key-a", b"value-a");
        let b = rec(KIND_SET, 2, b"key-b", b"value-b");
        append_record(&mut buf, &a);
        let a_len = buf.len();
        append_record(&mut buf, &b);
        // Every possible tear point inside the second record keeps exactly
        // the first record and flags a torn tail.
        for cut in a_len + 1..buf.len() {
            let (recs, tail) = decode_stream(&buf[..cut]);
            assert_eq!(recs, vec![a.clone()], "cut={cut}");
            assert!(tail.torn, "cut={cut}");
            assert_eq!(tail.consumed, a_len);
        }
        // Any flipped bit of the second record — length, checksum or body
        // — fails it the same way.
        for bit in a_len * 8..buf.len() * 8 {
            let mut corrupt = buf.clone();
            corrupt[bit / 8] ^= 1 << (bit % 8);
            let (recs, tail) = decode_stream(&corrupt);
            assert_eq!(recs, vec![a.clone()], "bit={bit}");
            assert!(tail.torn, "bit={bit}");
        }
    }

    #[test]
    fn checksum_sees_every_lane_and_the_length() {
        // 100 bytes: three full 32-byte strides plus a 4-byte tail lane.
        let body: Vec<u8> = (0..100u8).collect();
        let base = record_checksum(&body);
        for at in 0..body.len() {
            let mut other = body.clone();
            other[at] ^= 0x80;
            assert_ne!(record_checksum(&other), base, "byte {at}");
        }
        // Top-bit flips in two words of one lane do not cancel.
        let mut other = body.clone();
        other[7] ^= 0x80;
        other[39] ^= 0x80;
        assert_ne!(record_checksum(&other), base);
        // Zero padding is not the same body.
        let mut padded = body.clone();
        padded.push(0);
        assert_ne!(record_checksum(&padded), base);
        assert_ne!(record_checksum(&[]), record_checksum(&[0]));
    }

    #[test]
    fn commit_after_torn_tail_is_recovered() {
        let recs: Vec<Record> = (0..11u128)
            .map(|v| rec(KIND_SET, v + 1, format!("k{v}").as_bytes(), b"payload"))
            .collect();
        let mut first = Vec::new();
        let mut ends = Vec::new();
        for r in &recs[..8] {
            append_record(&mut first, r);
            ends.push(first.len());
        }
        let mut second = Vec::new();
        for r in &recs[8..] {
            append_record(&mut second, r);
        }
        // Power cut inside record 5 of 8: records 1-4 are durable.
        let mut media = Media::default();
        media.commit_partial(&first, ends[3] + 9);
        assert_eq!(media.wal_records(), 4);
        assert!(media.recover().torn_tail);
        // The next commit must land where recovery can reach it.
        media.commit(&second);
        let r = media.recover();
        let want: Vec<Record> = recs[..4].iter().chain(&recs[8..]).cloned().collect();
        assert_eq!(r.records, want);
        assert!(!r.torn_tail, "the torn suffix was cut off at append");
        assert_eq!(media.wal_records(), 7);
        assert_eq!(media.wal_bytes(), (ends[3] + second.len()) as u64);
        assert_eq!(media.flush_prefix(u64::MAX), (7, media.truncated_bytes()));
        assert_eq!((media.wal_records(), media.wal_bytes()), (0, 0));
    }

    #[test]
    fn trickle_decodes_only_what_it_flushes() {
        // 50K records in 50 sealed batches. Each batch rewrites the 1,000
        // keys of the batch five before it, which the log then drops whole:
        // only the last five batches are live.
        let mut media = Media::default();
        let mut gc = GroupCommit::default();
        for v in 0..50_000u128 {
            gc.append_parts(KIND_SET, v + 1, &(v as u32 % 5_000).to_le_bytes(), b"v");
            if v % 1_000 == 999 {
                gc.start_commit().expect("batch pending");
                gc.finish_commit(&mut media);
            }
        }
        assert_eq!(media.wal_records(), 5_000);
        assert_eq!(media.resident_bytes(), media.wal_bytes());
        // Each call walks the 256 records it reports, never the whole log.
        let decoded = || DECODED.with(|d| d.get());
        let t0 = decoded();
        let peek = media.prefix(256);
        let t1 = decoded();
        let flushed = media.flush_prefix(256);
        let t2 = decoded();
        assert_eq!(peek, flushed);
        assert_eq!(flushed.0, 256);
        assert!(t1 - t0 <= 257, "prefix decoded {} records", t1 - t0);
        assert!(t2 - t1 <= 257, "flush_prefix decoded {} records", t2 - t1);
        assert_eq!(media.wal_records(), 5_000 - 256);
        // Crossing a batch boundary drops the batch behind the cursor.
        assert_eq!(media.flush_prefix(1_000).0, 1_000);
        assert_eq!(media.recover().from_wal, 5_000 - 1_256);
    }

    #[test]
    fn group_commit_batches_while_in_flight() {
        let mut gc = GroupCommit::default();
        let mut media = Media::default();
        gc.append(&rec(KIND_SET, 1, b"a", b"1"));
        let (bytes, records) = gc.start_commit().expect("first commit starts");
        assert_eq!(records, 1);
        assert!(bytes > 0);
        // While that fsync is in flight, appends coalesce.
        for (v, key) in (2..=5u128).zip([b"a", b"b", b"c", b"d"]) {
            gc.append(&rec(KIND_SET, v, key, b"x"));
        }
        // A newer version of a key already in the batch replaces its
        // record: the batch does not grow.
        assert_eq!(gc.append(&rec(KIND_SET, 6, b"c", b"y")), 4);
        assert!(gc.start_commit().is_none(), "no overlap while in flight");
        assert_eq!(gc.finish_commit(&mut media), 1);
        assert_eq!(media.wal_records(), 1);
        let (_, records) = gc.start_commit().expect("batched commit starts");
        assert_eq!(records, 4, "all four appends share one fsync");
        gc.finish_commit(&mut media);
        // Five records are durable, but "a" at version 2 superseded the
        // first batch's "a": the log holds the four recovery can install.
        assert_eq!(media.wal_records(), 4);
        let s = gc.stats();
        assert_eq!(
            (s.appends, s.absorbed, s.commits, s.max_batch),
            (6, 1, 2, 4)
        );
        let c = &media.recover().records[2];
        assert_eq!((c.version, c.value.as_slice()), (6, b"y".as_slice()));
    }

    /// Version-gated replay of everything `media` holds.
    fn replayed(media: &Media) -> Snapshot {
        let mut map = Snapshot::new();
        media.for_each_record(|kind, version, key, value| {
            apply_parts(&mut map, kind, version, key, value)
        });
        map
    }

    #[test]
    fn pending_batch_is_bounded_by_distinct_keys() {
        // 100,000 fixed-length SETs over 1,000 keys between two seals: the
        // batch holds one record per key, not one per append.
        let value = [7u8; 100];
        let record_len = RECORD_HEADER + 4 + value.len();
        let mut gc = GroupCommit::default();
        for v in 0..100_000u32 {
            let batch = gc.append_parts(
                KIND_SET,
                u128::from(v) + 1,
                &(v % 1_000).to_le_bytes(),
                &value,
            );
            assert!(batch <= 1_000);
        }
        assert_eq!(gc.pending_records(), 1_000);
        assert_eq!(gc.stats().absorbed, 99_000);
        assert!(gc.pending.capacity() <= 2 * 1_000 * record_len);
        assert_eq!(
            gc.start_commit(),
            Some((1_000 * record_len as u64, 1_000)),
            "the sealed batch is exactly one record per key"
        );
        let mut media = Media::default();
        gc.finish_commit(&mut media);
        // Each key recovers at the newest version appended for it.
        let map = replayed(&media);
        assert_eq!(map.len(), 1_000);
        for (key, (_, version, _)) in &map {
            let k = u32::from_le_bytes(key.as_slice().try_into().unwrap());
            assert_eq!(*version, u128::from(99_000 + k) + 1);
        }
    }

    #[test]
    fn absorption_survives_index_hash_collisions() {
        // Every key hashes alike: only the first key of a batch is indexed
        // (and absorbs); every other key is a plain append. Nothing is
        // lost or misattributed either way.
        INDEX_HASH_MASK.with(|m| m.set(0));
        let mut gc = GroupCommit::default();
        let mut media = Media::default();
        let mut want = Snapshot::new();
        for v in 1..=40u128 {
            let key = [b"first", b"other"][(v % 2) as usize];
            let value = vec![v as u8; if v % 8 < 4 { 3 } else { 5 }];
            gc.append_parts(KIND_SET, v, key, &value);
            apply_parts(&mut want, KIND_SET, v, key, &value);
            if v % 10 == 0 {
                // "other" opened the batch, so it holds the index slot
                // and one record; each of "first"'s five is a plain append.
                let (_, records) = gc.start_commit().expect("batch pending");
                assert_eq!(records, 1 + 5);
                gc.finish_commit(&mut media);
                assert_eq!(replayed(&media), want);
            }
        }
        INDEX_HASH_MASK.with(|m| m.set(u64::MAX));
        assert_eq!(gc.stats().absorbed, 4 * 4);
        assert!(!media.recover().torn_tail);
    }

    fn encode_batch(recs: &[Record]) -> Vec<u8> {
        let mut buf = Vec::new();
        for r in recs {
            append_record(&mut buf, r);
        }
        buf
    }

    #[test]
    fn compaction_survives_index_hash_collisions() {
        // Random commits, tears and trickle flushes over six keys, with
        // late and equal versions (equal ones of different values), with
        // every key hashing alike, with four index buckets and with the
        // real hash. However little the index can tell apart, replay folds
        // to what every intact record committed folds to, the counters are
        // what recovery replays, and no segment holds a quarter of garbage.
        for mask in [0, 3, u64::MAX] {
            INDEX_HASH_MASK.with(|m| m.set(mask));
            let mut state = 0x9e37_79b9_7f4a_7c15 ^ mask;
            let mut next = |n: u64| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (state >> 33) % n
            };
            for _ in 0..32 {
                let mut media = Media::default();
                let mut committed = Snapshot::new();
                for step in 0..60 {
                    if next(8) < 5 {
                        let recs: Vec<Record> = (0..1 + next(12))
                            .map(|_| {
                                let (v, key) = (1 + u128::from(next(40)), [next(6) as u8]);
                                match next(6) {
                                    0 => rec(KIND_ERASE, v, &key, b""),
                                    len => rec(KIND_SET, v, &key, &vec![v as u8; len as usize]),
                                }
                            })
                            .collect();
                        let encoded = encode_batch(&recs);
                        let keep = match next(4) {
                            0 => next(encoded.len() as u64 + 1) as usize,
                            _ => encoded.len(),
                        };
                        for r in &decode_stream(&encoded[..keep]).0 {
                            apply_record(&mut committed, r);
                        }
                        media.commit_partial(&encoded, keep);
                    } else {
                        media.flush_prefix(next(10));
                    }
                    assert_eq!(replayed(&media), committed, "mask {mask:#x} step {step}");
                    assert_eq!(media.wal_records(), media.recover().from_wal);
                    assert!(3 * media.resident_bytes() <= 4 * media.wal_bytes());
                }
            }
        }
        INDEX_HASH_MASK.with(|m| m.set(u64::MAX));
    }

    #[test]
    fn compaction_rewrites_a_segment_and_the_index_follows() {
        // Eight 35-byte records in one batch, then batches superseding
        // them one at a time.
        let keys: Vec<[u8; 1]> = (0..8u8).map(|k| [k]).collect();
        let first: Vec<Record> = keys.iter().map(|k| rec(KIND_SET, 1, k, b"v1v1v")).collect();
        let newer = |k: usize| encode_batch(&[rec(KIND_SET, 2, &keys[k], b"v2v2v")]);
        let mut media = Media::default();
        media.commit(&encode_batch(&first));
        media.commit(&newer(0));
        // One dead record of eight is held until the segment is rewritten...
        assert_eq!(media.wal_records(), 8);
        assert_eq!(media.resident_bytes(), media.wal_bytes() + 35);
        // ...which the second one — a quarter of its bytes — triggers.
        media.commit(&newer(1));
        assert_eq!(media.resident_bytes(), media.wal_bytes());
        assert_eq!(media.wal_bytes(), 8 * 35);
        // Key 7's record moved 70 bytes down; its successor still finds it.
        media.commit(&newer(7));
        assert_eq!(media.wal_records(), 8);
        let order: Vec<(u8, u128)> = media
            .recover()
            .records
            .iter()
            .map(|r| (r.key[0], r.version))
            .collect();
        let mut want: Vec<(u8, u128)> = (2..7).map(|k| (k, 1)).collect();
        want.extend([(0, 2), (1, 2), (7, 2)]);
        assert_eq!(order, want, "live records keep log order");
    }

    #[test]
    fn erase_survives_while_an_older_set_sits_in_the_snapshot() {
        let mut media = Media::default();
        media.commit(&encode_batch(&[rec(KIND_SET, 5, b"k", b"v5")]));
        media.flush_prefix(1);
        // The snapshot holds k at 5; the log's erase at 8 fences it. Other
        // keys' traffic, a late SET of k and rewrites leave it in place.
        media.commit(&encode_batch(&[rec(KIND_ERASE, 8, b"k", b"")]));
        for v in 10..50u128 {
            media.commit(&encode_batch(&[rec(KIND_SET, v, b"j", b"x")]));
        }
        media.commit(&encode_batch(&[rec(KIND_SET, 6, b"k", b"v6")]));
        assert_eq!(
            media.wal_records(),
            3,
            "the erase, the late SET, the newest j"
        );
        assert_eq!(replayed(&media)[b"k".as_slice()].0, KIND_ERASE);
        // A newer SET is what supersedes the tombstone.
        media.commit(&encode_batch(&[rec(KIND_SET, 9, b"k", b"v9")]));
        assert_eq!(media.wal_records(), 3, "the late SET, the newest j, k at 9");
        assert_eq!(replayed(&media)[b"k".as_slice()].1, 9);
        assert!(!media.recover().torn_tail);
    }

    #[test]
    fn bit_flips_yield_a_prefix_and_stop_for_good() {
        // A multi-record batch as group commit seals it: "b" overwritten
        // in place, "c" regrown (dead + append, squeezed), an erase.
        let mut gc = GroupCommit::default();
        gc.append_parts(KIND_SET, 1, b"a", b"value-a");
        gc.append_parts(KIND_SET, 2, b"b", b"value-b");
        gc.append_parts(KIND_SET, 3, b"c", b"short");
        gc.append_parts(KIND_SET, 4, b"b", b"VALUE-B");
        gc.append_parts(KIND_SET, 5, b"c", b"a longer value");
        gc.append_parts(KIND_ERASE, 6, b"d", b"");
        gc.start_commit().expect("batch pending");
        let log = gc.committing.clone();
        let (intact, tail) = decode_stream(&log);
        assert!(!tail.torn);
        let keys: Vec<&[u8]> = intact.iter().map(|r| r.key.as_slice()).collect();
        assert_eq!(keys, [b"a", b"b", b"c", b"d"]);
        assert_eq!(intact[2], rec(KIND_SET, 5, b"c", b"a longer value"));
        assert_eq!(intact[1], rec(KIND_SET, 4, b"b", b"VALUE-B"));
        let ends: Vec<usize> = intact
            .iter()
            .scan(0, |end, r| {
                *end += r.encoded_len();
                Some(*end)
            })
            .collect();
        for bit in 0..log.len() * 8 {
            let mut corrupt = log.clone();
            corrupt[bit / 8] ^= 1 << (bit % 8);
            let (recs, tail) = decode_stream(&corrupt);
            // Exactly the records before the flipped one, and nothing
            // after it however intact the rest is.
            let hit = ends.iter().position(|&end| bit / 8 < end).unwrap();
            assert_eq!(recs, intact[..hit], "bit={bit}");
            assert!(tail.torn, "bit={bit}");
            assert_eq!(tail.consumed, hit.checked_sub(1).map_or(0, |i| ends[i]));
            // The same through the media: counted, recovered, and cut off
            // by the next commit.
            let mut media = Media::default();
            media.commit_partial(&corrupt, corrupt.len());
            assert_eq!(media.wal_records(), hit as u64, "bit={bit}");
            assert_eq!(media.recover().records, intact[..hit], "bit={bit}");
            media.commit(&log[..ends[0]]);
            assert_eq!(media.wal_records(), hit as u64 + 1, "bit={bit}");
            assert!(!media.recover().torn_tail, "bit={bit}");
        }
    }

    #[test]
    fn flush_prefix_checkpoints_and_truncates() {
        let mut media = Media::default();
        let mut buf = Vec::new();
        for v in 1..=10u128 {
            append_record(
                &mut buf,
                &rec(KIND_SET, v, format!("k{v}").as_bytes(), b"v"),
            );
        }
        media.commit(&buf);
        let (peek_recs, peek_bytes) = media.prefix(4);
        assert_eq!(peek_recs, 4);
        let (recs, bytes) = media.flush_prefix(4);
        assert_eq!((recs, bytes), (peek_recs, peek_bytes));
        assert_eq!(media.wal_records(), 6);
        assert_eq!(media.snapshot_entries(), 4);
        assert_eq!(media.truncated_bytes(), bytes);
        // Recovery sees the same 10 logical records either way.
        let r = media.recover();
        assert_eq!(r.records.len(), 10);
        assert_eq!((r.from_snapshot, r.from_wal), (4, 6));
        assert!(!r.torn_tail);
    }

    #[test]
    fn erase_tombstone_survives_flush_and_fences_older_set() {
        let mut media = Media::default();
        let mut buf = Vec::new();
        append_record(&mut buf, &rec(KIND_SET, 5, b"k", b"v5"));
        append_record(&mut buf, &rec(KIND_ERASE, 8, b"k", b""));
        media.commit(&buf);
        media.flush_prefix(2);
        assert_eq!(media.wal_records(), 0);
        // The tombstone is retained in the snapshot at version 8.
        let r = media.recover();
        assert_eq!(r.records.len(), 1);
        assert_eq!(r.records[0].kind, KIND_ERASE);
        assert_eq!(r.records[0].version, 8);
        // A slower SET (version 6) replayed through apply_record loses.
        let mut map = BTreeMap::new();
        for rr in &r.records {
            apply_record(&mut map, rr);
        }
        apply_record(&mut map, &rec(KIND_SET, 6, b"k", b"v6"));
        assert_eq!(map[&b"k".to_vec()].0, KIND_ERASE);
    }
}
