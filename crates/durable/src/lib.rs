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
//! * [`Media`] — what survives a crash: fsynced WAL records plus the
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
//!
//! ## One buffer per record
//!
//! A version names exactly one mutation, so the replicas of a key log
//! byte-identical records. Batches and log segments hold handles into a
//! [`RecordTable`] that every log of a cell shares: the first log to append
//! a record encodes and checksums it once, every other log holding the
//! same record holds the same buffer, and the buffer returns to its size
//! class's free list when its last holder lets go. Every count a log
//! reports — batch and prefix bytes, [`Media::wal_bytes`],
//! [`Media::resident_bytes`] — is still that log's own, as if it held
//! its copy.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::cell::RefCell;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::rc::Rc;

/// WAL record kind: a key/value set (or repair-set, CAS — anything that
/// installs a value at a version).
pub const KIND_SET: u8 = 0;
/// WAL record kind: an erase tombstone at a version.
pub const KIND_ERASE: u8 = 1;

/// Fixed per-record framing bytes: `len` + `crc` + `kind` + `version` +
/// `key_len`.
pub const RECORD_HEADER: usize = 4 + 4 + 1 + 16 + 4;

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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

    fn encoded_len(&self) -> usize {
        RECORD_HEADER + self.key.len() + self.value.len()
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

/// A record's framing: `len`, a zero `crc`, `kind`, `version`, `key_len`.
fn header(kind: u8, version: u128, key: &[u8], value: &[u8]) -> [u8; RECORD_HEADER] {
    let mut head = [0; RECORD_HEADER];
    let total = RECORD_HEADER + key.len() + value.len();
    head[..CRC_AT].copy_from_slice(&(total as u32).to_le_bytes());
    head[KIND_AT] = kind;
    head[VERSION_AT..KEY_LEN_AT].copy_from_slice(&version.to_le_bytes());
    head[KEY_LEN_AT..].copy_from_slice(&(key.len() as u32).to_le_bytes());
    head
}

/// Fill in the `crc` of `rec`, one whole record: [`record_checksum`] of its
/// body. The encoders' one checksum pass.
fn seal(rec: &mut [u8]) {
    let crc = record_checksum(&rec[KIND_AT..]);
    rec[CRC_AT..KIND_AT].copy_from_slice(&crc.to_le_bytes());
}

/// Write one record's wire form (see [`append_parts`]) into `out`, which
/// is exactly its encoded length: each key and value byte is copied once,
/// into `out`, and checksummed once there.
fn encode_into(out: &mut [u8], kind: u8, version: u128, key: &[u8], value: &[u8]) {
    let (head, body) = out.split_at_mut(RECORD_HEADER);
    let (key_out, value_out) = body.split_at_mut(key.len());
    head.copy_from_slice(&header(kind, version, key, value));
    key_out.copy_from_slice(key);
    value_out.copy_from_slice(value);
    seal(out);
}

/// Append one record's wire form to `buf` straight from borrowed parts;
/// returns the encoded length. As [`encode_into`], each key and value
/// byte is copied once and checksummed once.
///
/// Layout (all integers little-endian):
/// `[total_len u32][crc u32][kind u8][version u128][key_len u32][key][value]`
/// where `total_len` counts everything including itself and `crc` is
/// [`record_checksum`] over the body (everything after the `crc` field).
pub fn append_parts(buf: &mut Vec<u8>, kind: u8, version: u128, key: &[u8], value: &[u8]) -> usize {
    let at = buf.len();
    buf.extend_from_slice(&header(kind, version, key, value));
    buf.extend_from_slice(key);
    buf.extend_from_slice(value);
    seal(&mut buf[at..]);
    buf.len() - at
}

/// Append `rec`'s wire form to `buf` (see [`append_parts`]); returns the
/// encoded length.
pub fn append_record(buf: &mut Vec<u8>, rec: &Record) -> usize {
    append_parts(buf, rec.kind, rec.version, &rec.key, &rec.value)
}

#[cfg(test)]
thread_local! {
    /// Records parsed on this thread, so tests can bound how much of a
    /// log an operation walks.
    static DECODED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// The fields of one whole record, its framing and checksum already
/// trusted; `None` when its key length overruns it.
fn parse(rec: &[u8]) -> Option<RecordRef<'_>> {
    let key_len = u32::from_le_bytes(rec[KEY_LEN_AT..RECORD_HEADER].try_into().ok()?) as usize;
    let (key, value) = rec[RECORD_HEADER..].split_at_checked(key_len)?;
    #[cfg(test)]
    DECODED.with(|d| d.set(d.get() + 1));
    Some(RecordRef {
        kind: rec[KIND_AT],
        version: u128::from_le_bytes(rec[VERSION_AT..KEY_LEN_AT].try_into().ok()?),
        key,
        value,
    })
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
    let rec = &bytes[..total];
    let crc = u32::from_le_bytes(rec[CRC_AT..KIND_AT].try_into().ok()?);
    if record_checksum(&rec[KIND_AT..]) != crc {
        return None;
    }
    Some((parse(rec)?, total))
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
    let (mut recs, mut consumed) = (Vec::new(), 0);
    while let Some((rec, total)) = decode_front(&bytes[consumed..]) {
        recs.push(rec.to_record());
        consumed += total;
    }
    let torn = consumed < bytes.len();
    (recs, DecodeTail { consumed, torn })
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

/// Hasher of the maps keyed by a hash this crate already mixed (a key
/// hash, a record tag): the key is its own hash, so a lookup costs no
/// second hash of it.
#[derive(Default)]
struct Prehashed(u64);

impl Hasher for Prehashed {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("keys are u64 hashes")
    }

    fn write_u64(&mut self, h: u64) {
        self.0 = h;
    }
}

/// A map keyed by a 64-bit hash.
type HashIndex<V> = HashMap<u64, V, BuildHasherDefault<Prehashed>>;

/// Heap bytes of `map`: hashbrown's buckets (a power of two, 7/8 of them
/// usable from eight on), an entry and a control byte each, plus one
/// 16-byte control group.
fn map_bytes<V>(map: &HashIndex<V>) -> usize {
    let cap = map.capacity();
    if cap == 0 {
        return 0;
    }
    let buckets = if cap < 8 { cap + 1 } else { cap / 7 * 8 };
    buckets * (size_of::<(u64, V)>() + 1) + 16
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

/// The [`Table::shared`] key of a record: its key's [`index_hash`], its
/// version and its kind in one word. Records with equal tags are told
/// apart by their bytes.
fn tag(key_hash: u64, version: u128, kind: u8) -> u64 {
    let v = (version as u64) ^ ((version >> 64) as u64).rotate_left(32);
    key_hash ^ (v.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ u64::from(kind)).rotate_left(29)
}

/// Bytes of slot memory a size class carves at a time. A class whose
/// slots are larger takes one slot's worth per record, and hands it back
/// to the allocator when that record's last holder lets go.
const CHUNK: usize = 32 << 10;

/// The size class of a `len`-byte record: its index and its slots' bytes.
/// Classes are 32 B apart up to 1 KiB, then 16 to a doubling, so a slot
/// wastes less than 1/16 of a record longer than 512 B.
fn class_of(len: usize) -> (usize, usize) {
    if len <= 1024 {
        let n = len.div_ceil(32).max(1);
        return (n - 1, n * 32);
    }
    // 2^(b-1) < len <= 2^b, b >= 11: sixteen steps of 2^(b-5).
    let b = (usize::BITS - (len - 1).leading_zeros()) as usize;
    let n = (len - (1 << (b - 1))).div_ceil(1 << (b - 5));
    (32 + (b - 11) * 16 + n - 1, (1 << (b - 1)) + (n << (b - 5)))
}

/// A record in a [`RecordTable`]: the number of its buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Rec(u32);

/// One buffer of a [`RecordTable`]: a slot of its size class, for good.
#[derive(Debug, Clone, Copy)]
struct Buf {
    chunk: u32,
    /// Offset of the slot in the chunk.
    at: u32,
    /// Encoded length of the record in the slot.
    len: u32,
    /// Batches and segments holding the record; 0 while the slot is free.
    refs: u32,
    /// [`index_hash`] of the record's key, kept for the logs' indexes.
    key_hash: u64,
}

/// One size class's slots.
#[derive(Debug, Default)]
struct Class {
    /// Buffers whose last holder let go.
    free: Vec<u32>,
    /// The chunk being carved and the offset of its next slot.
    open: Option<(u32, u32)>,
}

#[derive(Default)]
struct Table {
    bufs: Vec<Buf>,
    chunks: Vec<Box<[u8]>>,
    classes: Vec<Class>,
    /// [`tag`] → the live buffer that took it first. A record whose tag
    /// another record holds gets a buffer of its own and goes unshared.
    shared: HashIndex<u32>,
    /// Live buffers, and the bytes of their records.
    live: u64,
    live_bytes: u64,
}

impl Table {
    fn bytes(&self, r: Rec) -> &[u8] {
        let b = self.bufs[r.0 as usize];
        &self.chunks[b.chunk as usize][b.at as usize..][..b.len as usize]
    }

    fn record(&self, r: Rec) -> RecordRef<'_> {
        parse(self.bytes(r)).expect("a stored record parses")
    }

    fn len(&self, r: Rec) -> usize {
        self.bufs[r.0 as usize].len as usize
    }

    fn key_hash(&self, r: Rec) -> u64 {
        self.bufs[r.0 as usize].key_hash
    }

    /// One more holder of `rec`: the live buffer that holds the same bytes
    /// under its tag, else a fresh one holding a copy of `encoded` when
    /// given, else `rec` encoded (its one checksum pass).
    fn intern(&mut self, rec: RecordRef<'_>, key_hash: u64, encoded: Option<&[u8]>) -> Rec {
        let tag = tag(key_hash, rec.version, rec.kind);
        let held = self.shared.get(&tag).map(|&id| Rec(id));
        if let Some(r) = held.filter(|&r| self.record(r) == rec) {
            self.bufs[r.0 as usize].refs += 1;
            return r;
        }
        let r = self.alloc(rec.encoded_len(), key_hash);
        let b = self.bufs[r.0 as usize];
        let out = &mut self.chunks[b.chunk as usize][b.at as usize..][..b.len as usize];
        match encoded {
            Some(bytes) => out.copy_from_slice(bytes),
            None => encode_into(out, rec.kind, rec.version, rec.key, rec.value),
        }
        if held.is_none() {
            self.shared.insert(tag, r.0);
        }
        r
    }

    /// A buffer of `len`'s class with one holder: a free one, else the
    /// next slot of the class's open chunk, else the first of a new chunk.
    fn alloc(&mut self, len: usize, key_hash: u64) -> Rec {
        let (class, size) = class_of(len);
        if self.classes.len() <= class {
            self.classes.resize_with(class + 1, Class::default);
        }
        let c = &mut self.classes[class];
        let id = match c.free.pop() {
            Some(id) => {
                let chunk = &mut self.chunks[self.bufs[id as usize].chunk as usize];
                if chunk.is_empty() {
                    *chunk = vec![0; size].into_boxed_slice();
                }
                id
            }
            None => {
                let (chunk, at) = match c.open {
                    Some((chunk, at))
                        if at as usize + size <= self.chunks[chunk as usize].len() =>
                    {
                        (chunk, at)
                    }
                    _ => {
                        let slots = (CHUNK / size).max(1);
                        self.chunks.push(vec![0; slots * size].into_boxed_slice());
                        (self.chunks.len() as u32 - 1, 0)
                    }
                };
                c.open = Some((chunk, at + size as u32));
                self.bufs.push(Buf {
                    chunk,
                    at,
                    len: 0,
                    refs: 0,
                    key_hash: 0,
                });
                self.bufs.len() as u32 - 1
            }
        };
        let b = &mut self.bufs[id as usize];
        (b.len, b.refs, b.key_hash) = (len as u32, 1, key_hash);
        self.live += 1;
        self.live_bytes += len as u64;
        Rec(id)
    }

    fn retain(&mut self, r: Rec) {
        self.bufs[r.0 as usize].refs += 1;
    }

    /// One holder of `r` lets go; the last one frees its buffer.
    fn release(&mut self, r: Rec) {
        let b = &mut self.bufs[r.0 as usize];
        b.refs -= 1;
        if b.refs > 0 {
            return;
        }
        let b = *b;
        let rec = self.bytes(r);
        let version = u128::from_le_bytes(rec[VERSION_AT..KEY_LEN_AT].try_into().expect("16 B"));
        let tag = tag(b.key_hash, version, rec[KIND_AT]);
        if self.shared.get(&tag) == Some(&r.0) {
            self.shared.remove(&tag);
        }
        let (class, size) = class_of(b.len as usize);
        if size > CHUNK {
            self.chunks[b.chunk as usize] = Box::default();
        }
        self.classes[class].free.push(r.0);
        self.live -= 1;
        self.live_bytes -= u64::from(b.len);
    }

    fn reserved_bytes(&self) -> usize {
        let chunks: usize = self.chunks.iter().map(|c| c.len()).sum();
        let free: usize = self.classes.iter().map(|c| c.free.capacity()).sum();
        self.bufs.capacity() * size_of::<Buf>()
            + self.chunks.capacity() * size_of::<Box<[u8]>>()
            + chunks
            + self.classes.capacity() * size_of::<Class>()
            + free * size_of::<u32>()
            + map_bytes(&self.shared)
    }
}

/// Encoded WAL records, each held once however many logs hold it: a
/// cell's backends log the same record for every replica of a SET, and
/// the table keeps one buffer for all of them. A cheap-clone handle; a
/// [`GroupCommit`] and the [`Media`] it commits to should share one, and
/// every log of a cell can.
///
/// A record is found by its key's hash, its version and its kind, and
/// confirmed by its bytes: an equal version of other bytes, or a record
/// whose tag another record holds, gets a buffer of its own. Buffers are
/// slots of size classes carved from 32 KiB chunks; a freed slot waits on
/// its class's free list for the next record of the class, so a log in
/// steady state allocates nothing.
#[derive(Clone, Default)]
pub struct RecordTable(Rc<RefCell<Table>>);

impl RecordTable {
    /// An empty table.
    pub fn new() -> RecordTable {
        RecordTable::default()
    }

    /// Distinct records held.
    pub fn records(&self) -> u64 {
        self.0.borrow().live
    }

    /// Encoded bytes of the distinct records held: each once, however many
    /// logs hold it.
    pub fn bytes(&self) -> u64 {
        self.0.borrow().live_bytes
    }

    /// Host bytes the table holds: its chunks (free slots and slack
    /// included), buffer records, free lists and tag index.
    pub fn reserved_bytes(&self) -> usize {
        self.0.borrow().reserved_bytes()
    }
}

impl fmt::Debug for RecordTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RecordTable")
            .field("records", &self.records())
            .field("bytes", &self.bytes())
            .finish()
    }
}

/// A segment is compacted once at least `1 / COMPACT_DIVISOR` of its bytes
/// are garbage (superseded or checkpointed records): a segment then never
/// holds more than 4/3 of its live bytes.
const COMPACT_DIVISOR: usize = 4;

/// Where a durable record lies: `(segment seq, position in the segment)`.
type Loc = (u64, usize);

/// One sealed batch as the log holds it.
#[derive(Debug, Clone)]
struct Segment {
    /// Position in the log, unique for the media's life; ascending along
    /// the queue, so an index [`Loc`] outlives the removal of others.
    seq: u64,
    /// Its records in log order, as one fsync delivered them less any
    /// compacted away; `None` where a record was superseded or
    /// checkpointed since.
    recs: Vec<Option<Rec>>,
    /// Bytes the segment holds on the log: its records, dead ones not yet
    /// compacted away included, and the torn suffix a power cut left on
    /// the newest segment.
    len: usize,
    /// Bytes of `len` held by dead records.
    dead_bytes: usize,
}

/// The crash-surviving half of durability: fsynced WAL records plus the
/// checkpoint snapshot trickle flush maintains. Only
/// [`Media::commit`] (a completed fsync) and [`Media::flush_prefix`] (a
/// completed checkpoint write) mutate it, mirroring the device protocol.
///
/// The log is a queue of sealed batches, each as one fsync delivered it: a
/// commit moves its batch in at the back, a trickle flush checkpoints
/// records off the front. It holds what recovery can install: versions
/// are a total order and replay is version-gated, so once a strictly newer
/// record of a key is durable the older one can never win, and a commit
/// marks it dead. Readers step over dead records; a segment whose garbage
/// reaches `1 / COMPACT_DIVISOR` is compacted to its live records in log
/// order. The records themselves live in a [`RecordTable`], which a dead
/// record leaves at once.
#[derive(Debug, Default)]
pub struct Media {
    table: RecordTable,
    /// Sealed batches, oldest first.
    segments: VecDeque<Segment>,
    /// Seq the next committed segment takes.
    next_seq: u64,
    /// Bytes of torn record at the end of the newest segment.
    torn_bytes: usize,
    /// [`index_hash`] of a key → its newest durable record, for every key
    /// with a live record a later commit may supersede. As in
    /// [`GroupCommit`], a second key with the same hash is never indexed.
    index: HashIndex<Loc>,
    /// Live WAL bytes, torn suffix included.
    wal_bytes: u64,
    /// Intact live records.
    wal_records: u64,
    /// Checkpoint: key → (kind, version, value). Tombstones are kept so a
    /// replayed erase still fences slower sets.
    snapshot: Snapshot,
    /// Cumulative WAL bytes retired into the snapshot (log truncation).
    truncated_bytes: u64,
}

/// Position in `segments` of the segment numbered `seq`.
fn position(segments: &VecDeque<Segment>, seq: u64) -> usize {
    segments
        .binary_search_by_key(&seq, |s| s.seq)
        .expect("an indexed record lies in a queued segment")
}

/// Compact `seg` to its live records, in order; index entries of the
/// records that move follow them.
fn compact(seg: &mut Segment, table: &Table, index: &mut HashIndex<Loc>) {
    let mut kept = 0;
    for at in 0..seg.recs.len() {
        let Some(r) = seg.recs[at] else { continue };
        if let Some(loc) = index.get_mut(&table.key_hash(r)) {
            if *loc == (seg.seq, at) {
                loc.1 = kept;
            }
        }
        seg.recs[kept] = Some(r);
        kept += 1;
    }
    seg.recs.truncate(kept);
    seg.recs.shrink_to_fit();
    seg.len -= seg.dead_bytes;
    seg.dead_bytes = 0;
}

impl Media {
    /// An empty media whose records live in `table`.
    pub fn new(table: RecordTable) -> Media {
        let mut media = Media::default();
        media.table = table;
        media
    }

    /// The table this media's records live in.
    pub fn table(&self) -> &RecordTable {
        &self.table
    }

    /// Whether nothing has ever been made durable (a cold, first-boot
    /// media).
    pub fn is_empty(&self) -> bool {
        self.wal_bytes == 0 && self.snapshot.is_empty()
    }

    /// Apply a completed fsync: `encoded` (records of wire form) is now
    /// durable. Its intact records are decoded with the checksum check and
    /// held in the table; whatever follows the first torn record is the
    /// batch's torn suffix, kept as a byte count.
    pub fn commit(&mut self, encoded: &[u8]) {
        let mut recs = Vec::new();
        let mut at = 0;
        let mut table = self.table.0.borrow_mut();
        while let Some((rec, total)) = decode_front(&encoded[at..]) {
            let bytes = &encoded[at..at + total];
            recs.push(Some(table.intern(rec, index_hash(rec.key), Some(bytes))));
            at += total;
        }
        drop(table);
        self.push_segment(recs, encoded.len() - at);
    }

    /// Make `recs` (held for this media already) the log's newest segment,
    /// followed by `torn` bytes of torn record. A log that ends in a torn
    /// record is first cut back to its last intact one — what opening a
    /// real WAL for append does — so nothing acknowledged as durable ever
    /// lands behind bytes recovery cannot cross.
    ///
    /// The batch's records are then walked in log order, each one
    /// superseding the durable record of its key it is strictly newer
    /// than; a record no newer than its key's, or whose key's hash another
    /// key holds in the index, supersedes nothing and stays (the
    /// [`GroupCommit`] rule).
    fn push_segment(&mut self, recs: Vec<Option<Rec>>, torn: usize) {
        if self.torn_bytes > 0 {
            let last = self
                .segments
                .back_mut()
                .expect("torn bytes live in a segment");
            last.len -= self.torn_bytes;
            self.wal_bytes -= self.torn_bytes as u64;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let mut table = self.table.0.borrow_mut();
        let len = recs.iter().flatten().map(|&r| table.len(r)).sum::<usize>() + torn;
        let count = recs.len();
        self.segments.push_back(Segment {
            seq,
            recs,
            len,
            dead_bytes: 0,
        });
        let newest = self.segments.len() - 1;
        for at in 0..count {
            let r = self.segments[newest].recs[at].expect("a new record is live");
            self.wal_records += 1;
            self.wal_bytes += table.len(r) as u64;
            let mut slot = match self.index.entry(table.key_hash(r)) {
                Entry::Vacant(slot) => {
                    slot.insert((seq, at));
                    continue;
                }
                Entry::Occupied(slot) => slot,
            };
            let (old_seq, old_at) = *slot.get();
            let i = position(&self.segments, old_seq);
            let old = self.segments[i].recs[old_at].expect("an indexed record is live");
            let (was, now) = (table.record(old), table.record(r));
            if was.key == now.key && was.version < now.version {
                slot.insert((seq, at));
                let len = table.len(old);
                let seg = &mut self.segments[i];
                seg.recs[old_at] = None;
                seg.dead_bytes += len;
                self.wal_records -= 1;
                self.wal_bytes -= len as u64;
                table.release(old);
            }
        }
        drop(table);
        self.torn_bytes = torn;
        self.wal_bytes += torn as u64;
        self.reclaim();
    }

    /// Drop every segment that holds nothing live and compact every one
    /// whose garbage reached `1 / COMPACT_DIVISOR`. Reclaiming log space
    /// costs no device time in this model, as dropping a checkpointed
    /// segment never did.
    fn reclaim(&mut self) {
        let table = self.table.0.borrow();
        let index = &mut self.index;
        self.segments.retain_mut(|seg| {
            if seg.dead_bytes == seg.len {
                return false;
            }
            if seg.dead_bytes * COMPACT_DIVISOR >= seg.len {
                compact(seg, &table, index);
            }
            true
        });
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
    /// superseded and checkpointed records not yet compacted away. A
    /// count of this log's own: records it shares with other logs in its
    /// [`RecordTable`] count in full in each.
    pub fn resident_bytes(&self) -> u64 {
        self.segments.iter().map(|s| s.len as u64).sum()
    }

    /// Entries in the checkpoint snapshot.
    pub fn snapshot_entries(&self) -> u64 {
        self.snapshot.len() as u64
    }

    /// Cumulative bytes truncated off the WAL by trickle flushes.
    pub fn truncated_bytes(&self) -> u64 {
        self.truncated_bytes
    }

    /// The live log in order.
    fn live(&self) -> impl Iterator<Item = Rec> + '_ {
        self.segments
            .iter()
            .flat_map(|s| s.recs.iter().flatten().copied())
    }

    /// Peek the oldest WAL prefix of at most `max_records` records:
    /// returns `(records, bytes)` without mutating anything. The trickle
    /// flusher sizes its checkpoint device write from this.
    pub fn prefix(&self, max_records: u64) -> (u64, u64) {
        let cap = usize::try_from(max_records).unwrap_or(usize::MAX);
        let table = self.table.0.borrow();
        self.live()
            .take(cap)
            .fold((0, 0), |(n, bytes), r| (n + 1, bytes + table.len(r) as u64))
    }

    /// Apply a completed trickle flush: fold the oldest `max_records` WAL
    /// records into the snapshot (version-gated) and truncate them off the
    /// log front. Returns `(records, bytes)` retired.
    pub fn flush_prefix(&mut self, max_records: u64) -> (u64, u64) {
        let (mut records, mut bytes) = (0u64, 0u64);
        let mut table = self.table.0.borrow_mut();
        'walk: for seg in &mut self.segments {
            for (at, slot) in seg.recs.iter_mut().enumerate() {
                if records == max_records {
                    break 'walk;
                }
                let Some(r) = *slot else { continue };
                let rec = table.record(r);
                apply_parts(
                    &mut self.snapshot,
                    rec.kind,
                    rec.version,
                    rec.key,
                    rec.value,
                );
                // A checkpointed record supersedes nothing in the log any
                // more: the key's next record starts afresh.
                if let Entry::Occupied(e) = self.index.entry(table.key_hash(r)) {
                    if *e.get() == (seg.seq, at) {
                        e.remove();
                    }
                }
                let len = table.len(r);
                *slot = None;
                seg.dead_bytes += len;
                table.release(r);
                records += 1;
                bytes += len as u64;
            }
        }
        drop(table);
        if records == 0 {
            return (0, 0);
        }
        self.wal_records -= records;
        self.wal_bytes -= bytes;
        self.truncated_bytes += bytes;
        self.reclaim();
        (records, bytes)
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
        let table = self.table.0.borrow();
        for r in self.live() {
            let rec = table.record(r);
            visit(rec.kind, rec.version, rec.key, rec.value);
        }
        self.torn_bytes > 0
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

    /// Host bytes the log holds of its own: the segment queue, each
    /// segment's handles and the key index, plus the checkpoint snapshot
    /// (its B-tree nodes estimated at 2/3 full). The records themselves are
    /// the [`RecordTable`]'s.
    pub fn reserved_bytes(&self) -> usize {
        let handles: usize = self.segments.iter().map(|s| s.recs.capacity()).sum();
        let entry = size_of::<(Vec<u8>, (u8, u128, Vec<u8>))>();
        let snapshot: usize = self
            .snapshot
            .iter()
            .map(|(k, (_, _, v))| entry * 3 / 2 + k.capacity() + v.capacity())
            .sum();
        self.segments.capacity() * size_of::<Segment>()
            + handles * size_of::<Option<Rec>>()
            + map_bytes(&self.index)
            + snapshot
    }
}

impl Clone for Media {
    /// A second media holding the same records: every live record gains a
    /// holder in the shared table.
    fn clone(&self) -> Media {
        let mut table = self.table.0.borrow_mut();
        for r in self.live() {
            table.retain(r);
        }
        Media {
            table: self.table.clone(),
            segments: self.segments.clone(),
            next_seq: self.next_seq,
            torn_bytes: self.torn_bytes,
            index: self.index.clone(),
            wal_bytes: self.wal_bytes,
            wal_records: self.wal_records,
            snapshot: self.snapshot.clone(),
            truncated_bytes: self.truncated_bytes,
        }
    }
}

impl Drop for Media {
    fn drop(&mut self) {
        let mut table = self.table.0.borrow_mut();
        for r in self.live() {
            table.release(r);
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
/// Appends land in the *pending* batch. [`GroupCommit::start_commit`]
/// moves pending to *committing* — but only when no commit is in flight,
/// so while the device chews on one fsync every new append coalesces into
/// the next batch. That queueing is the whole amortization story: under
/// load the batch grows to whatever arrived during one fsync, and the
/// per-record cost collapses by the batch factor.
///
/// The pending batch is a dirty set, not an op log. Replay is
/// version-gated ([`apply_record`]), so of one key's records in a batch
/// only the newest can win; an append whose key is already pending at an
/// older version therefore *absorbs* that record: it takes the old
/// record's place when the encoded length is unchanged, and otherwise
/// marks it dead and appends, the dead places being dropped when the batch
/// is sealed. A batch is thus bounded by the distinct keys mutated during
/// one device transaction, whatever the op rate, and recovers exactly what
/// the unabsorbed batch would — per key; a *torn* absorbed batch is no
/// longer a prefix of the op stream, only a subset of its keys' newest
/// versions.
///
/// Both batches are process RAM: a crash loses them (the un-fsynced
/// tail), and dropping the batcher lets go of their records.
#[derive(Debug, Default)]
pub struct GroupCommit {
    table: RecordTable,
    /// The pending batch in log order; `None` where an absorbed record
    /// lay until the seal.
    pending: Vec<Option<Rec>>,
    /// Live records in `pending`, and their encoded bytes.
    pending_records: u64,
    pending_bytes: u64,
    /// [`index_hash`] of a pending key → position in `pending` of that
    /// key's newest record. A second key with the same hash is never
    /// indexed.
    index: HashIndex<usize>,
    committing: Vec<Rec>,
    committing_bytes: u64,
    in_flight: bool,
    stats: GroupCommitStats,
}

impl GroupCommit {
    /// A batcher whose records live in `table` — its [`Media`]'s, so a
    /// completed commit hands them over without a copy.
    pub fn new(table: RecordTable) -> GroupCommit {
        let mut gc = GroupCommit::default();
        gc.table = table;
        gc
    }

    /// Append one record to the pending batch; returns the batch's new
    /// record count (how many records the next fsync will cover).
    pub fn append(&mut self, rec: &Record) -> u64 {
        self.append_parts(rec.kind, rec.version, &rec.key, &rec.value)
    }

    /// [`GroupCommit::append`] from borrowed parts: the record is encoded
    /// into the table unless another log already holds it there. The
    /// returned count does not grow when the append absorbed a pending
    /// older version of its key.
    pub fn append_parts(&mut self, kind: u8, version: u128, key: &[u8], value: &[u8]) -> u64 {
        self.stats.appends += 1;
        let rec = RecordRef {
            kind,
            version,
            key,
            value,
        };
        let key_hash = index_hash(key);
        let end = self.pending.len();
        let mut table = self.table.0.borrow_mut();
        match self.index.entry(key_hash) {
            Entry::Vacant(slot) => {
                slot.insert(end);
            }
            Entry::Occupied(mut slot) => {
                let at = *slot.get();
                let old = self.pending[at].expect("an indexed record is live");
                let was = table.record(old);
                // Another key with this hash, or a late record no newer
                // than the pending one, supersedes nothing: it is a plain
                // append and the index keeps pointing at the newest.
                if was.key == key && was.version < version {
                    self.stats.absorbed += 1;
                    let old_len = was.encoded_len();
                    let new = table.intern(rec, key_hash, None);
                    table.release(old);
                    self.pending_bytes += rec.encoded_len() as u64;
                    self.pending_bytes -= old_len as u64;
                    if old_len == rec.encoded_len() {
                        self.pending[at] = Some(new);
                    } else {
                        self.pending[at] = None;
                        slot.insert(end);
                        self.pending.push(Some(new));
                    }
                    return self.pending_records;
                }
            }
        }
        self.pending.push(Some(table.intern(rec, key_hash, None)));
        self.pending_records += 1;
        self.pending_bytes += rec.encoded_len() as u64;
        self.pending_records
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
        self.index.clear();
        self.committing.extend(self.pending.drain(..).flatten());
        self.committing_bytes = std::mem::take(&mut self.pending_bytes);
        self.pending_records = 0;
        self.in_flight = true;
        Some((self.committing_bytes, self.committing.len() as u64))
    }

    /// The device transaction completed: the committing batch is durable.
    /// Hands its records to `media` as the log's newest segment — copies
    /// of them when `media` holds records in another table — and returns
    /// the number of records committed.
    pub fn finish_commit(&mut self, media: &mut Media) -> u64 {
        debug_assert!(self.in_flight, "finish_commit without start_commit");
        let records = self.committing.len() as u64;
        self.stats.commits += 1;
        self.stats.committed_records += records;
        self.stats.committed_bytes += self.committing_bytes;
        self.stats.max_batch = self.stats.max_batch.max(records);
        if media.live().next().is_none() {
            // A log holding no record takes the batcher's table.
            media.table = self.table.clone();
        }
        let recs = if Rc::ptr_eq(&self.table.0, &media.table.0) {
            self.committing.drain(..).map(Some).collect()
        } else {
            let mut from = self.table.0.borrow_mut();
            let mut to = media.table.0.borrow_mut();
            self.committing
                .drain(..)
                .map(|r| {
                    let copy = to.intern(from.record(r), from.key_hash(r), Some(from.bytes(r)));
                    from.release(r);
                    Some(copy)
                })
                .collect()
        };
        media.push_segment(recs, 0);
        self.committing_bytes = 0;
        self.in_flight = false;
        records
    }

    /// Counter snapshot.
    pub fn stats(&self) -> GroupCommitStats {
        self.stats
    }

    /// Encoded bytes of the pending and the committing batch: the
    /// batcher's count of its own, as [`Media::resident_bytes`] is the
    /// log's.
    pub fn held_bytes(&self) -> u64 {
        self.pending_bytes + self.committing_bytes
    }

    /// Visit the committing batch's records, then the pending batch's, as
    /// borrowed `(kind, version, key, value)` parts.
    pub fn for_each_record(&self, mut visit: impl FnMut(u8, u128, &[u8], &[u8])) {
        let table = self.table.0.borrow();
        for &r in self.committing.iter().chain(self.pending.iter().flatten()) {
            let rec = table.record(r);
            visit(rec.kind, rec.version, rec.key, rec.value);
        }
    }

    /// Host bytes the batcher holds of its own: both batches' handles and
    /// the pending-key index. The records are the [`RecordTable`]'s.
    pub fn reserved_bytes(&self) -> usize {
        self.pending.capacity() * size_of::<Option<Rec>>()
            + self.committing.capacity() * size_of::<Rec>()
            + map_bytes(&self.index)
    }
}

impl Drop for GroupCommit {
    fn drop(&mut self) {
        let mut table = self.table.0.borrow_mut();
        for &r in self.pending.iter().flatten().chain(&self.committing) {
            table.release(r);
        }
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
        // Each absorbed record took its predecessor's place and freed it.
        assert_eq!(gc.pending.len(), 1_000);
        assert_eq!(gc.table.bytes(), 1_000 * record_len as u64);
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
        // Key 7's record moved two places down; its successor still finds
        // it.
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
        // A multi-record batch as group commit seals it: "b" replaced in
        // place, "c" regrown (dead + append, dropped at the seal), an
        // erase.
        let mut gc = GroupCommit::default();
        gc.append_parts(KIND_SET, 1, b"a", b"value-a");
        gc.append_parts(KIND_SET, 2, b"b", b"value-b");
        gc.append_parts(KIND_SET, 3, b"c", b"short");
        gc.append_parts(KIND_SET, 4, b"b", b"VALUE-B");
        gc.append_parts(KIND_SET, 5, b"c", b"a longer value");
        gc.append_parts(KIND_ERASE, 6, b"d", b"");
        gc.start_commit().expect("batch pending");
        let table = gc.table.0.borrow();
        let log: Vec<u8> = gc
            .committing
            .iter()
            .flat_map(|&r| table.bytes(r))
            .copied()
            .collect();
        drop(table);
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

    /// The record every holder below shares: key, version, value.
    const SHARED: (&[u8], u128, &[u8]) = (b"k", 5, b"value");

    /// The buffer on `table` holding [`SHARED`], and its holders (0 once
    /// freed).
    fn shared(table: &RecordTable) -> Option<(Rec, u32)> {
        let (key, version, value) = SHARED;
        let t = table.0.borrow();
        let r = Rec(*t.shared.get(&tag(index_hash(key), version, KIND_SET))?);
        let want = RecordRef {
            kind: KIND_SET,
            version,
            key,
            value,
        };
        assert_eq!(t.record(r), want);
        Some((r, t.bufs[r.0 as usize].refs))
    }

    /// How one log lets go of the shared record.
    #[derive(Debug, Clone, Copy)]
    enum LetGo {
        /// A batcher absorbs it into a newer record of its length...
        Absorbed,
        /// ...or of another length.
        Regrown,
        /// A batcher dies with its process.
        Crashed,
        /// A log marks it dead under a newer durable record, its segment
        /// too live to compact...
        Superseded,
        /// ...or compacted for it.
        Compacted,
        /// A log checkpoints it.
        Flushed,
        /// A log is dropped.
        Dropped,
    }

    const LET_GO: [LetGo; 7] = [
        LetGo::Absorbed,
        LetGo::Regrown,
        LetGo::Crashed,
        LetGo::Superseded,
        LetGo::Compacted,
        LetGo::Flushed,
        LetGo::Dropped,
    ];

    enum Holder {
        Batch(GroupCommit),
        Log(Media),
    }

    /// A holder of the shared record on `table` that can let go of it `how`.
    fn hold(table: &RecordTable, how: LetGo) -> Holder {
        let (key, version, value) = SHARED;
        let mut gc = GroupCommit::new(table.clone());
        gc.append_parts(KIND_SET, version, key, value);
        if matches!(how, LetGo::Absorbed | LetGo::Regrown | LetGo::Crashed) {
            return Holder::Batch(gc);
        }
        // The shared record and 2 or 7 more of its length: a quarter of
        // the segment's bytes dies with it, or an eighth.
        let others = if matches!(how, LetGo::Compacted) {
            2
        } else {
            7
        };
        for k in 0..others {
            gc.append_parts(KIND_SET, version, &[b'a' + k], value);
        }
        let mut media = Media::new(table.clone());
        gc.start_commit().expect("batch pending");
        gc.finish_commit(&mut media);
        Holder::Log(media)
    }

    /// `holder` lets go of the shared record `how`; what is left of it.
    fn let_go(holder: Holder, how: LetGo) -> Option<Holder> {
        let (key, version, _) = SHARED;
        let newer = |value: &[u8]| encode_batch(&[rec(KIND_SET, version + 1, key, value)]);
        match (holder, how) {
            (Holder::Batch(mut gc), LetGo::Absorbed) => {
                gc.append_parts(KIND_SET, version + 1, key, b"VALUE");
                Some(Holder::Batch(gc))
            }
            (Holder::Batch(mut gc), LetGo::Regrown) => {
                gc.append_parts(KIND_SET, version + 1, key, b"a longer value");
                assert_eq!(gc.pending, [None, gc.pending[1]]);
                Some(Holder::Batch(gc))
            }
            (Holder::Log(mut media), LetGo::Superseded | LetGo::Compacted) => {
                let held = media.resident_bytes();
                media.commit(&newer(b"VALUE"));
                let compacted = matches!(how, LetGo::Compacted);
                assert_eq!(media.resident_bytes() == held, compacted, "{how:?}");
                Some(Holder::Log(media))
            }
            (Holder::Log(mut media), LetGo::Flushed) => {
                assert_eq!(media.flush_prefix(1).0, 1);
                Some(Holder::Log(media))
            }
            (Holder::Batch(_), LetGo::Crashed) | (Holder::Log(_), LetGo::Dropped) => None,
            _ => unreachable!("{how:?} is not this holder's"),
        }
    }

    /// Whether `holder` still reads the shared record where it left it.
    fn still_holds(holder: &Holder) -> bool {
        let (key, version, value) = SHARED;
        match holder {
            Holder::Batch(gc) => {
                let t = gc.table.0.borrow();
                let first = gc.pending[0].map(|r| t.record(r).to_record());
                first == Some(rec(KIND_SET, version, key, value))
            }
            Holder::Log(media) => media.recover().records[0] == rec(KIND_SET, version, key, value),
        }
    }

    #[test]
    fn a_shared_record_lives_until_its_last_holder_lets_go() {
        for first in LET_GO {
            for second in LET_GO {
                let table = RecordTable::new();
                let (a, b) = (hold(&table, first), hold(&table, second));
                let (r, holders) = shared(&table).expect("held");
                assert_eq!(holders, 2, "{first:?}, {second:?}");
                let a = let_go(a, first);
                assert_eq!(shared(&table), Some((r, 1)), "{first:?}, {second:?}");
                assert!(still_holds(&b), "{first:?}, {second:?}");
                let b = let_go(b, second);
                assert_eq!(shared(&table), None, "{first:?}, {second:?}");
                // Its buffer waits for the next record of its class.
                let t = table.0.borrow();
                let class = class_of(t.len(r)).0;
                assert!(t.classes[class].free.contains(&r.0));
                drop(t);
                drop((a, b));
                assert_eq!(
                    (table.records(), table.bytes()),
                    (0, 0),
                    "every buffer freed"
                );
            }
        }
    }

    #[test]
    fn colliding_and_equal_version_records_get_buffers_of_their_own() {
        // Every key hashes alike, so "j" at version 5 has the tag "k" at
        // version 5 holds.
        INDEX_HASH_MASK.with(|m| m.set(0));
        let table = RecordTable::new();
        let batches: [&[(&[u8], &[u8])]; 4] = [
            &[(b"k", b"one")],
            &[(b"j", b"one")],
            &[(b"k", b"two")],
            &[(b"k", b"one"), (b"j", b"one")],
        ];
        let mut logs = Vec::new();
        for batch in batches {
            let mut gc = GroupCommit::new(table.clone());
            let mut media = Media::new(table.clone());
            for (key, value) in batch {
                gc.append_parts(KIND_SET, 5, key, value);
            }
            gc.start_commit().expect("batch pending");
            gc.finish_commit(&mut media);
            logs.push(media);
        }
        INDEX_HASH_MASK.with(|m| m.set(u64::MAX));
        // "k" = "one" is shared; each "j" = "one" lost the tag to it and
        // "k" = "two" is an equal version of other bytes.
        assert_eq!(table.records(), 4);
        for (media, batch) in logs.iter().zip(batches) {
            let want: Vec<Record> = batch.iter().map(|(k, v)| rec(KIND_SET, 5, k, v)).collect();
            assert_eq!(media.recover().records, want);
        }
        drop(logs);
        assert_eq!(table.records(), 0);
    }

    #[test]
    fn a_log_on_another_table_gets_copies_and_an_empty_one_takes_ours() {
        let (ours, theirs) = (RecordTable::new(), RecordTable::new());
        let mut gc = GroupCommit::new(ours.clone());
        let commit = |gc: &mut GroupCommit, media: &mut Media, v: u128| {
            gc.append_parts(KIND_SET, v, &[v as u8], b"value");
            gc.start_commit().expect("batch pending");
            gc.finish_commit(media);
        };
        // A log holding records in its own table gets copies.
        let mut media = Media::new(theirs.clone());
        media.commit(&encode_batch(&[rec(KIND_SET, 1, b"k", b"value")]));
        commit(&mut gc, &mut media, 2);
        assert_eq!((ours.records(), theirs.records()), (0, 2));
        assert_eq!(media.recover().records[1], rec(KIND_SET, 2, &[2], b"value"));
        // A log holding none takes the batcher's table.
        let mut empty = Media::new(theirs.clone());
        commit(&mut gc, &mut empty, 3);
        assert!(Rc::ptr_eq(&empty.table().0, &ours.0));
        assert_eq!((ours.records(), theirs.records()), (1, 2));
    }

    #[test]
    fn size_classes_hold_their_records_and_tile_the_lengths() {
        let mut last = class_of(RECORD_HEADER);
        assert_eq!(last, (0, 32));
        for len in RECORD_HEADER + 1..100_000 {
            let (class, size) = class_of(len);
            assert!(size >= len, "{len}");
            if size != last.1 {
                assert_eq!((class, len - 1), (last.0 + 1, last.1), "{len}");
            }
            if len > 512 {
                assert!(16 * (size - len) < len, "{len} wastes {}", size - len);
            }
            last = (class, size);
        }
    }
}
