//! The backend store: CliqueMap's RMA-accessible hash table plus all the
//! server-side machinery of §4 — slab allocation, eviction on capacity and
//! associativity conflicts, tombstones, index reshaping, and on-demand data
//! region growth.
//!
//! The store is deliberately *time-free*: it mutates memory when told to,
//! and the owning [`BackendNode`](crate::backend::BackendNode) decides when
//! — in particular, SET data bytes are written in **chunks across simulated
//! time** between [`BackendStore::prepare_set`] and
//! [`BackendStore::commit_set`], which is what makes torn RMA reads real.
//!
//! The replicas of a SET commit byte-identical DataEntries — an entry is
//! its key, value and version, nothing of the backend — so a replicated
//! cell keeps one buffer per committed (key hash, version) in a
//! [`SharedEntries`] table its stores share: a store's data region borrows
//! each chunk of a prepared entry from the entry's own buffer as it streams
//! in, and at commit takes the cell's buffer for the pair, confirmed byte
//! for byte, in place of it (the first replica's becomes the cell's).
//! Every read is still the flat buffer's.

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;

use rma::{BufferId, RegionTable, ScarOutcome, ScarResolver, WindowId};
use rpc::Status;
use simnet::{IdMap, IdSet};

use crate::hash::KeyHash;
use crate::interned::{Pair, Rows, SharedStats};
use crate::layout::{
    self, bucket_size, data_entry_size, encode_data_entry_into, parse_data_entry, IndexEntry,
    Pointer, CHECKSUM_BYTES, DATA_ENTRY_HEADER_BYTES,
};
use crate::messages::{Geometry, ScanPage};
use crate::policy::LruPolicy;
use crate::tombstone::TombstoneCache;
use crate::version::VersionNumber;

/// Static configuration of one backend store.
#[derive(Debug, Clone)]
pub struct StoreCfg {
    /// Logical shard served.
    pub shard: u32,
    /// Cell configuration id stamped into bucket headers.
    pub config_id: u32,
    /// Initial bucket count (grows by doubling).
    pub num_buckets: u64,
    /// IndexEntries per bucket.
    pub assoc: u16,
    /// Initially populated data-region bytes.
    pub data_capacity: usize,
    /// Upper bound of the reserved virtual range for the data region.
    pub max_data_capacity: usize,
    /// Slab size for the data allocator.
    pub slab_bytes: usize,
    /// Tombstone cache entries.
    pub tombstone_capacity: usize,
    /// Index load factor that triggers reshaping.
    pub resize_load_factor: f64,
    /// Data utilization that triggers region growth.
    pub data_high_watermark: f64,
    /// Entries kept in the RPC-only overflow side table (§4.2): KV pairs
    /// displaced by associativity conflicts stay servable over RPC. Zero
    /// disables the fallback.
    pub overflow_capacity: usize,
}

impl Default for StoreCfg {
    fn default() -> Self {
        StoreCfg {
            shard: 0,
            config_id: 1,
            num_buckets: 1024,
            assoc: 14,
            data_capacity: 16 << 20,
            max_data_capacity: 256 << 20,
            slab_bytes: 64 << 10,
            tombstone_capacity: 4096,
            resize_load_factor: 0.7,
            data_high_watermark: 0.85,
            overflow_capacity: 1024,
        }
    }
}

/// Counters the backend exports.
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreStats {
    /// Successful SET commits.
    pub sets: u64,
    /// Successful ERASEs.
    pub erases: u64,
    /// Version-rejected mutations.
    pub version_rejects: u64,
    /// Evictions performed (capacity + associativity).
    pub evictions: u64,
    /// Associativity conflicts (bucket-full evictions).
    pub assoc_conflicts: u64,
    /// Capacity conflicts (data-pool-full evictions).
    pub capacity_conflicts: u64,
    /// Index reshapes completed.
    pub index_reshapes: u64,
    /// Data region growth steps performed.
    pub data_growths: u64,
    /// Entries parked in the RPC-only overflow table.
    pub overflow_inserts: u64,
}

/// A SET that has been admitted but whose data bytes are still being
/// written (possibly in chunks across time). Committing publishes the
/// IndexEntry — the ordering point after which the new value is visible.
///
/// Because other mutations (and even an index reshape) may land between
/// prepare and commit, [`BackendStore::commit_set`] re-resolves the slot
/// and re-checks version monotonicity; the prepare-time slot is only a
/// admission check.
#[derive(Debug, Clone)]
pub struct PreparedSet {
    /// KeyHash being installed.
    pub key_hash: KeyHash,
    /// Version being installed.
    pub version: VersionNumber,
    /// Serialized DataEntry (checksummed), in a buffer a data region can
    /// share.
    pub entry_bytes: Rc<[u8]>,
    /// Length of the key inside `entry_bytes`.
    pub key_len: usize,
    /// Where in the data buffer the entry is being written.
    pub data_offset: u64,
    /// Pointer that will be published at commit.
    pub ptr: Pointer,
    /// For CAS: the stored version the caller expects; re-validated at
    /// commit so two racing CAS ops can never both win.
    pub expected: Option<VersionNumber>,
}

impl PreparedSet {
    /// The key being installed, borrowed from the entry it was encoded
    /// into (no re-parse, no checksum pass).
    pub fn key(&self) -> &[u8] {
        &self.entry_bytes[DATA_ENTRY_HEADER_BYTES..DATA_ENTRY_HEADER_BYTES + self.key_len]
    }

    /// The value being installed, borrowed the same way.
    pub fn value(&self) -> &[u8] {
        let end = self.entry_bytes.len() - CHECKSUM_BYTES;
        &self.entry_bytes[DATA_ENTRY_HEADER_BYTES + self.key_len..end]
    }
}

/// The committed DataEntries of a replicated cell, one immutable buffer
/// per (key hash, version) however many replicas commit the pair: each
/// replica's data region holds a handle on the buffer, the table counts
/// the stores that hold it, and the last one to let go takes the row
/// away. A cheap-clone handle; the simulator is single-threaded.
#[derive(Debug, Clone, Default)]
pub struct SharedEntries(Rc<RefCell<Rows<Rc<[u8]>>>>);

impl SharedEntries {
    /// An empty table.
    pub fn new() -> SharedEntries {
        SharedEntries::default()
    }

    /// Size and traffic counters (`shared` counts replicas that found
    /// their entry committed already, `copied` the first of each pair).
    pub fn stats(&self) -> SharedStats {
        self.0.borrow().stats()
    }

    /// Distinct committed (key hash, version) pairs held.
    pub fn entries(&self) -> usize {
        self.stats().entries
    }

    /// Entry bytes held, one buffer per pair.
    pub fn bytes(&self) -> usize {
        self.stats().bytes
    }

    /// Host bytes the table holds: its map, and each buffer with its
    /// reference counts.
    pub fn reserved_bytes(&self) -> usize {
        let rows = self.0.borrow();
        let bufs: usize = rows
            .buffers()
            .map(|b| b.len() + 2 * size_of::<usize>())
            .sum();
        rows.map_bytes() + bufs
    }

    /// A claim on `pair`'s buffer: the cell's when `same` confirms its
    /// bytes, else — no row yet — `fresh()`, which becomes the cell's. `None`
    /// when the pair's buffer holds other bytes (no claim is taken).
    fn acquire(
        &self,
        pair: Pair,
        fresh: impl FnOnce() -> Rc<[u8]>,
        same: impl FnOnce(&[u8]) -> bool,
    ) -> Option<Rc<[u8]>> {
        let mut rows = self.0.borrow_mut();
        rows.acquire(pair, fresh, |buf| same(buf)).cloned()
    }

    /// A store gives back its claim on `pair`.
    fn release(&self, pair: Pair) {
        let released = self.0.borrow_mut().release(pair, |_| true);
        debug_assert!(released, "released an entry nobody committed");
    }
}

/// Multiplier for each data-region growth step.
const DATA_GROWTH_FACTOR: usize = 2;

/// Poison stamp written over freed DataEntries so stale pointer chases fail
/// checksum validation rather than returning ghosts.
const POISON: [u8; 8] = *b"\xDE\xAD\xFA\xCE\xDE\xAD\xFA\xCE";

/// The store itself.
pub struct BackendStore {
    cfg: StoreCfg,
    regions: RegionTable,
    index_buffer: BufferId,
    index_window: WindowId,
    data_buffer: BufferId,
    data_window: WindowId,
    slab: crate::slab::SlabAllocator,
    policy: LruPolicy,
    tombstones: TombstoneCache,
    num_buckets: u64,
    live_entries: u64,
    resizing: bool,
    /// RPC-only overflow table: bucket-displaced entries by hash, with a
    /// FIFO order for bounded capacity. Not RMA-accessible — exactly the
    /// MICA-style "send an RPC, still serve a hit" tradeoff of §4.2.
    overflow: IdMap<KeyHash, (Bytes, Bytes, VersionNumber)>,
    overflow_order: std::collections::VecDeque<KeyHash>,
    /// The cell's committed entries, when it is replicated: the data
    /// region holds these buffers instead of copies of its own.
    entries: Option<SharedEntries>,
    /// Prepared SETs by slot offset, with whether each holds a claim on
    /// its pair's buffer in `entries`: one a commit keeps, an abort (or
    /// the store going away) gives back. A few at a time.
    inflight: Vec<(u64, Pair, bool)>,
    /// Committed pairs whose buffer in `entries` held other bytes (a
    /// version naming two values, which §5.2 rules out): the store keeps
    /// its own, and has no claim to give back.
    unshared: IdSet<Pair>,
    /// [`POISON`], shared over a freed entry when the cell shares entries:
    /// the entry's buffer keeps the rest.
    poison: Rc<[u8]>,
    /// Stats counters.
    pub stats: StoreStats,
}

impl std::fmt::Debug for BackendStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BackendStore")
            .field("shard", &self.cfg.shard)
            .field("buckets", &self.num_buckets)
            .field("live", &self.live_entries)
            .field("resizing", &self.resizing)
            .finish()
    }
}

/// Allocate and register an index region of `num_buckets` zeroed buckets:
/// a tiled buffer, one tile per bucket, so a bucket costs host memory only
/// once something is written into it.
fn alloc_index(regions: &mut RegionTable, num_buckets: u64, assoc: usize) -> (BufferId, WindowId) {
    let bucket = vec![0u8; bucket_size(assoc)];
    let buffer = regions.alloc_tiled_buffer(&bucket, num_buckets as usize);
    let window = regions.register_window(buffer, 0, num_buckets * bucket.len() as u64);
    (buffer, window)
}

impl BackendStore {
    /// Build a store: allocates the index region, the initially-populated
    /// data region, and registers RMA windows over both. `policy` is kept by
    /// value; it comes boxed to match the benchmark crate's layer probes.
    #[allow(clippy::boxed_local)]
    pub fn new(cfg: StoreCfg, policy: Box<LruPolicy>) -> BackendStore {
        let mut regions = RegionTable::new();
        let (index_buffer, index_window) =
            alloc_index(&mut regions, cfg.num_buckets, cfg.assoc as usize);
        let data_buffer = regions.alloc_buffer(cfg.data_capacity);
        let data_window = regions.register_window(data_buffer, 0, cfg.data_capacity as u64);
        let slab = crate::slab::SlabAllocator::with_slab_size(cfg.data_capacity, cfg.slab_bytes);
        let mut store = BackendStore {
            num_buckets: cfg.num_buckets,
            tombstones: TombstoneCache::new(cfg.tombstone_capacity),
            cfg,
            regions,
            index_buffer,
            index_window,
            data_buffer,
            data_window,
            slab,
            policy: *policy,
            live_entries: 0,
            resizing: false,
            overflow: IdMap::default(),
            overflow_order: std::collections::VecDeque::new(),
            entries: None,
            inflight: Vec::new(),
            unshared: IdSet::default(),
            poison: Rc::from(&POISON[..]),
            stats: StoreStats::default(),
        };
        store.stamp_all_buckets();
        store
    }

    /// This store, keeping the entries it commits in `entries`, the table
    /// the other replicas of its cell share (`None`: an entry of its own
    /// per commit). Set before the first SET.
    pub fn with_entries(mut self, entries: Option<SharedEntries>) -> BackendStore {
        debug_assert_eq!(
            self.live_entries, 0,
            "entries are shared from the first SET"
        );
        self.entries = entries;
        self
    }

    /// The cell's entry table this store shares, if any.
    pub fn shared_entries(&self) -> Option<&SharedEntries> {
        self.entries.as_ref()
    }

    fn bucket_bytes(&self) -> usize {
        bucket_size(self.cfg.assoc as usize)
    }

    /// Stamp the config id into every bucket header, preserving the flags
    /// byte (the overflow hint must survive restamps).
    fn stamp_all_buckets(&mut self) {
        self.regions
            .write_every_tile(self.index_buffer, 0, &self.cfg.config_id.to_le_bytes());
    }

    /// Re-derive overflow hint bits from the overflow side table (used
    /// after an index rebuild resets all headers).
    fn restamp_overflow_hints(&mut self) {
        let hashes: Vec<KeyHash> = self.overflow.keys().copied().collect();
        for hash in hashes {
            let bucket = self.bucket_of(hash);
            self.set_overflow(bucket, true);
        }
    }

    /// The geometry clients need to address this backend over RMA.
    pub fn geometry(&self) -> Geometry {
        Geometry {
            config_id: self.cfg.config_id,
            index_window: self.index_window.0,
            index_generation: self.regions.window_generation(self.index_window),
            num_buckets: self.num_buckets,
            assoc: self.cfg.assoc,
            data_window: self.data_window.0,
            data_generation: self.regions.window_generation(self.data_window),
            shard: self.cfg.shard,
        }
    }

    /// Shared memory table, for serving RMA frames.
    pub fn regions(&self) -> &RegionTable {
        &self.regions
    }

    /// Host bytes the data region holds: its own extents and its handles
    /// on entry buffers, not the buffers the cell's [`SharedEntries`]
    /// table counts.
    pub fn data_reserved_bytes(&self) -> usize {
        self.regions.buffer_reserved_bytes(self.data_buffer)
    }

    /// Bucket index of a key hash.
    pub fn bucket_of(&self, hash: KeyHash) -> u64 {
        (hash as u64) % self.num_buckets
    }

    /// Byte offset of a bucket in the index window.
    pub fn bucket_offset(&self, bucket: u64) -> u64 {
        bucket * self.bucket_bytes() as u64
    }

    /// A bucket is a tile of the index buffer: the store addresses it by
    /// number, only RMA reads go through byte offsets. What the store sees
    /// is the bucket's stored room — its header and the slots writes have
    /// reached — or the whole template when nobody wrote it; the slots past
    /// a room are the template's, all vacant.
    fn bucket_raw(&self, bucket: u64) -> &[u8] {
        self.regions.tile(self.index_buffer, bucket as usize)
    }

    /// The bucket's room, grown to hold its first `end` bytes.
    fn bucket_raw_mut(&mut self, bucket: u64, end: usize) -> &mut [u8] {
        self.regions
            .tile_mut(self.index_buffer, bucket as usize, end)
    }

    fn write_slot(&mut self, bucket: u64, slot: usize, entry: &IndexEntry) {
        let end = layout::bucket_size(slot + 1);
        entry.encode_into(layout::bucket_slot_mut(
            self.bucket_raw_mut(bucket, end),
            slot,
        ));
    }

    fn set_overflow(&mut self, bucket: u64, overflowed: bool) {
        let header = self.bucket_raw_mut(bucket, layout::BUCKET_HEADER_BYTES);
        layout::set_bucket_overflow(header, overflowed);
    }

    /// The first vacant slot of `bucket`, the one a full-width scan finds:
    /// in its room, or else the first slot past the room.
    fn first_vacant(&self, bucket: u64) -> Option<usize> {
        let room = self.bucket_raw(bucket);
        layout::find_vacant(room).or_else(|| {
            let past = layout::bucket_assoc(room);
            (past < self.cfg.assoc as usize).then_some(past)
        })
    }

    /// Look up an index entry by hash (server-side, no RMA semantics).
    pub fn lookup(&self, hash: KeyHash) -> Option<(u64, usize, IndexEntry)> {
        let bucket = self.bucket_of(hash);
        let (hit, _) = layout::scan_bucket(self.bucket_raw(bucket), hash);
        hit.map(|(slot, e)| (bucket, slot, e))
    }

    /// Version floor a mutation of `hash` must exceed: the live entry's
    /// version and the tombstone floor, whichever is higher.
    pub fn version_floor(&self, hash: KeyHash) -> VersionNumber {
        let live = self
            .lookup(hash)
            .map(|(_, _, e)| e.version)
            .unwrap_or(VersionNumber::ZERO);
        let overflowed = self
            .overflow
            .get(&hash)
            .map(|(_, _, v)| *v)
            .unwrap_or(VersionNumber::ZERO);
        live.max(overflowed).max(self.tombstones.floor(hash))
    }

    /// Admit a SET: version check, slot selection (with associativity
    /// eviction), data allocation (with capacity eviction). The caller then
    /// streams `entry_bytes` into the data buffer via [`Self::write_data`]
    /// and finally calls [`Self::commit_set`].
    pub fn prepare_set(
        &mut self,
        key: &[u8],
        value: &[u8],
        hash: KeyHash,
        version: VersionNumber,
    ) -> Result<PreparedSet, Status> {
        if self.resizing {
            return Err(Status::Stalled);
        }
        let floor = self.version_floor(hash);
        if version <= floor {
            self.stats.version_rejects += 1;
            return Err(Status::VersionRejected);
        }
        // Admission: make sure a slot exists now (evicting if the bucket is
        // full) so the client learns about hard conflicts before streaming
        // data. The slot is re-resolved at commit.
        self.resolve_slot(hash)?;
        // Data space, evicting on capacity conflicts.
        let len = data_entry_size(key.len(), value.len());
        let data_offset = self.alloc_with_eviction(len, hash)?;
        // One stored extent for the whole entry, made while its slot is
        // handed out: the streamed chunks land in it, and a read of the
        // entry borrows it whole. When the cell shares entries the chunks
        // are slices of the entry's buffer instead, which grow into one.
        if self.entries.is_none() {
            self.regions
                .reserve(self.data_buffer, data_offset as usize, len);
        }
        let encode = || {
            let mut entry: Rc<[u8]> = std::iter::repeat_n(0, len).collect();
            let out = Rc::get_mut(&mut entry).expect("a new buffer");
            encode_data_entry_into(out, key, value, version);
            entry
        };
        // Encoded once per cell: a replica that finds the pair's buffer
        // takes a claim on it instead.
        let entry_bytes = match &self.entries {
            None => encode(),
            Some(table) => {
                let same = |buf: &[u8]| layout::entry_holds(buf, key, value, version);
                let claim = table.acquire((hash, version), encode, same);
                self.inflight
                    .push((data_offset, (hash, version), claim.is_some()));
                claim.unwrap_or_else(encode)
            }
        };
        let ptr = Pointer {
            window: self.data_window.0,
            generation: self.regions.window_generation(self.data_window),
            offset: data_offset,
            len: len as u32,
        };
        Ok(PreparedSet {
            key_hash: hash,
            version,
            entry_bytes,
            key_len: key.len(),
            data_offset,
            ptr,
            expected: None,
        })
    }

    /// Find (or make) a slot for `hash` in its bucket: the existing mapping
    /// if present, else a vacant slot, else an associativity eviction.
    fn resolve_slot(&mut self, hash: KeyHash) -> Result<(u64, usize, Option<IndexEntry>), Status> {
        let bucket = self.bucket_of(hash);
        match layout::scan_bucket(self.bucket_raw(bucket), hash).0 {
            Some((slot, e)) => Ok((bucket, slot, Some(e))),
            None => match self.first_vacant(bucket) {
                Some(slot) => Ok((bucket, slot, None)),
                None => {
                    let slot = self.evict_from_bucket(bucket, hash)?;
                    Ok((bucket, slot, None))
                }
            },
        }
    }

    fn evict_from_bucket(&mut self, bucket: u64, incoming: KeyHash) -> Result<usize, Status> {
        self.stats.assoc_conflicts += 1;
        let raw = self.bucket_raw(bucket);
        let occupants: Vec<KeyHash> = (0..layout::bucket_assoc(raw))
            .map(|i| IndexEntry::decode(layout::bucket_slot(raw, i)).key_hash)
            .filter(|&h| h != 0 && h != incoming)
            .collect();
        let victim = self
            .policy
            .pick_among(&occupants)
            .ok_or(Status::Overloaded)?;
        let (_, slot, entry) = self.lookup(victim).ok_or(Status::Internal)?;
        // §4.2 RPC fallback: the displaced pair stays servable (over RPC
        // only) in the bounded overflow side table.
        if self.cfg.overflow_capacity > 0 {
            if let Some(pair) = self.read_pair(entry.ptr) {
                self.overflow_insert(victim, pair);
            }
        }
        self.remove_entry(bucket, slot, entry);
        self.stats.evictions += 1;
        // Mark the bucket overflowed: clients may fall back to RPC (§4.2).
        self.set_overflow(bucket, true);
        Ok(slot)
    }

    fn alloc_with_eviction(&mut self, len: usize, incoming: KeyHash) -> Result<u64, Status> {
        for _attempt in 0..128 {
            match self.slab.alloc(len) {
                Ok(off) => return Ok(off),
                Err(crate::slab::AllocError::Unsatisfiable) => return Err(Status::Internal),
                Err(crate::slab::AllocError::OutOfMemory) => {
                    self.stats.capacity_conflicts += 1;
                    let Some(victim) = self.policy.victim() else {
                        return Err(Status::Overloaded);
                    };
                    if victim == incoming {
                        // Never evict the key being installed; refresh it so
                        // the policy offers a different victim.
                        self.policy.on_touch(victim);
                        continue;
                    }
                    let Some((bucket, slot, entry)) = self.lookup(victim) else {
                        // Policy out of sync (shouldn't happen); drop it.
                        self.policy.on_remove(victim);
                        continue;
                    };
                    self.remove_entry(bucket, slot, entry);
                    self.stats.evictions += 1;
                }
            }
        }
        Err(Status::Overloaded)
    }

    /// Remove a live entry: clear the slot, poison + free its DataEntry.
    fn remove_entry(&mut self, bucket: u64, slot: usize, entry: IndexEntry) {
        self.write_slot(bucket, slot, &IndexEntry::default());
        self.free_entry(&entry);
        self.policy.on_remove(entry.key_hash);
        self.live_entries -= 1;
    }

    /// Let go of a DataEntry the index no longer points to: give the
    /// cell's buffer back, poison the entry so in-flight pointer chases
    /// fail checksum validation instead of resurrecting the value, and
    /// free its slot.
    fn free_entry(&mut self, e: &IndexEntry) {
        self.release(e);
        let (at, len) = (e.ptr.offset as usize, e.ptr.len as usize);
        let poison_len = POISON.len().min(len);
        if self.entries.is_some() {
            self.regions
                .share(self.data_buffer, at, &self.poison, 0, poison_len);
        } else {
            self.regions
                .write(self.data_buffer, at, &POISON[..poison_len]);
        }
        self.slab.free(e.ptr.offset, len);
    }

    /// Commit `p`'s entry when the cell shares entries: the prepare's
    /// claim on the cell's buffer (streamed in from it already) is the
    /// committed entry's now.
    fn publish(&mut self, p: &PreparedSet) {
        if let Some((pair, false)) = self.take_inflight(p.data_offset) {
            self.unshared.insert(pair);
        }
    }

    /// The prepared SET at `offset` is committed or aborted: its pair, and
    /// whether it holds a claim.
    fn take_inflight(&mut self, offset: u64) -> Option<(Pair, bool)> {
        let i = self.inflight.iter().position(|&(at, ..)| at == offset)?;
        let (_, pair, claim) = self.inflight.swap_remove(i);
        Some((pair, claim))
    }

    fn read_pair(&self, ptr: Pointer) -> Option<(Bytes, Bytes, VersionNumber)> {
        let raw = self
            .regions
            .read_buffer(self.data_buffer, ptr.offset as usize, ptr.len as usize);
        let parsed = parse_data_entry(&raw).ok()?;
        Some((
            Bytes::copy_from_slice(parsed.key),
            Bytes::copy_from_slice(parsed.data),
            parsed.version,
        ))
    }

    fn overflow_insert(&mut self, hash: KeyHash, pair: (Bytes, Bytes, VersionNumber)) {
        while self.overflow.len() >= self.cfg.overflow_capacity {
            match self.overflow_order.pop_front() {
                Some(old) => {
                    self.overflow.remove(&old);
                }
                None => break,
            }
        }
        if self.overflow.insert(hash, pair).is_none() {
            self.overflow_order.push_back(hash);
        }
        self.stats.overflow_inserts += 1;
    }

    fn overflow_remove(&mut self, hash: KeyHash) {
        self.overflow.remove(&hash);
        // overflow_order entries are cleaned lazily by overflow_insert.
    }

    /// Entries currently parked in the RPC-only overflow table.
    pub fn overflow_len(&self) -> usize {
        self.overflow.len()
    }

    /// Stream part of a prepared SET's DataEntry into the data buffer.
    pub fn write_data(&mut self, offset: u64, bytes: &[u8]) {
        self.regions.write(self.data_buffer, offset as usize, bytes);
    }

    /// Stream bytes `from..to` of a prepared SET's DataEntry into its slot:
    /// copied, or — when the cell shares entries — borrowed from the
    /// entry's buffer, the last piece settling what an older, longer entry
    /// left after it.
    pub fn write_entry(&mut self, p: &PreparedSet, from: usize, to: usize) {
        let at = p.data_offset as usize + from;
        if self.entries.is_none() {
            return self.write_data(at as u64, &p.entry_bytes[from..to]);
        }
        let buf = &p.entry_bytes;
        self.regions
            .share(self.data_buffer, at, buf, from, to - from);
        if to == buf.len() {
            let end = p.data_offset as usize + to;
            self.regions.settle_tail(self.data_buffer, end);
        }
    }

    /// Publish a prepared SET: writes the IndexEntry (the ordering point),
    /// reclaims the replaced DataEntry, and updates eviction/tombstone
    /// bookkeeping.
    ///
    /// The slot and version floor are re-checked here because other
    /// mutations may have landed while this SET's data bytes were being
    /// streamed; "backends apply SETs only when doing so monotonically
    /// increases a particular KV pair's version" (§3).
    pub fn commit_set(&mut self, p: &PreparedSet) -> Status {
        if self.resizing {
            self.abort_set(p);
            return Status::Stalled;
        }
        if p.version <= self.version_floor(p.key_hash) {
            self.abort_set(p);
            self.stats.version_rejects += 1;
            return Status::VersionRejected;
        }
        // CAS: the expectation must still hold at the ordering point, not
        // just at admission — a racing mutation that landed while this
        // CAS's data bytes streamed must defeat it.
        if let Some(expected) = p.expected {
            let stored = self
                .lookup(p.key_hash)
                .map(|(_, _, e)| e.version)
                .unwrap_or(VersionNumber::ZERO);
            if stored != expected {
                self.abort_set(p);
                self.stats.version_rejects += 1;
                return Status::VersionRejected;
            }
        }
        let (bucket, slot, old) = match self.resolve_slot(p.key_hash) {
            Ok(r) => r,
            Err(s) => {
                self.abort_set(p);
                return s;
            }
        };
        self.write_slot(
            bucket,
            slot,
            &IndexEntry {
                key_hash: p.key_hash,
                version: p.version,
                ptr: p.ptr,
            },
        );
        match old {
            Some(old) => self.free_entry(&old),
            None => self.live_entries += 1,
        }
        self.publish(p);
        self.policy.on_insert(p.key_hash);
        self.tombstones.remove(p.key_hash);
        self.overflow_remove(p.key_hash);
        self.stats.sets += 1;
        Status::Ok
    }

    /// SET in one step: admit, write the whole DataEntry, publish. The form
    /// every caller wants except the RPC handler that streams the entry in
    /// timed chunks between [`Self::prepare_set`] and [`Self::commit_set`].
    pub fn install(
        &mut self,
        key: &[u8],
        value: &[u8],
        hash: KeyHash,
        version: VersionNumber,
    ) -> Status {
        match self.prepare_set(key, value, hash, version) {
            Err(status) => status,
            Ok(p) => {
                self.write_entry(&p, 0, p.entry_bytes.len());
                self.commit_set(&p)
            }
        }
    }

    /// Abandon a prepared SET (e.g. the backend is shutting down).
    pub fn abort_set(&mut self, p: &PreparedSet) {
        self.slab.free(p.data_offset, p.entry_bytes.len());
        if let Some((pair, true)) = self.take_inflight(p.data_offset) {
            self.entries
                .as_ref()
                .expect("claims are on it")
                .release(pair);
        }
    }

    /// ERASE: version-checked removal plus tombstone.
    pub fn erase(&mut self, hash: KeyHash, version: VersionNumber) -> Status {
        if self.resizing {
            return Status::Stalled;
        }
        let floor = self.version_floor(hash);
        if version <= floor {
            self.stats.version_rejects += 1;
            return Status::VersionRejected;
        }
        if let Some((bucket, slot, entry)) = self.lookup(hash) {
            self.remove_entry(bucket, slot, entry);
        }
        self.overflow_remove(hash);
        self.tombstones.insert(hash, version);
        self.stats.erases += 1;
        Status::Ok
    }

    /// CAS admission: like SET but conditioned on the stored version.
    pub fn prepare_cas(
        &mut self,
        key: &[u8],
        value: &[u8],
        hash: KeyHash,
        expected: VersionNumber,
        new_version: VersionNumber,
    ) -> Result<PreparedSet, Status> {
        if self.resizing {
            return Err(Status::Stalled);
        }
        let stored = match self.lookup(hash) {
            Some((_, _, e)) => e.version,
            None => return Err(Status::NotFound),
        };
        if stored != expected {
            return Err(Status::VersionRejected);
        }
        let mut prepared = self.prepare_set(key, value, hash, new_version)?;
        prepared.expected = Some(expected);
        Ok(prepared)
    }

    /// Server-side lookup of the full pair (RPC fallback / repair sourcing).
    /// Consults the index first, then the RPC-only overflow table — an
    /// overflow entry is a hit the RMA path cannot see (§4.2).
    pub fn fetch(&self, hash: KeyHash) -> Option<(Bytes, Bytes, VersionNumber)> {
        match self.lookup(hash) {
            Some((_, _, entry)) => self.read_pair(entry.ptr),
            None => self.overflow.get(&hash).cloned(),
        }
    }

    /// Ingest batched access records (client RMA touches) into the policy.
    pub fn apply_access_records(&mut self, hashes: &[KeyHash]) {
        for &h in hashes {
            self.policy.on_touch(h);
        }
    }

    /// The occupied IndexEntries of `buckets`, in bucket then slot order.
    fn occupied(&self, buckets: std::ops::Range<u64>) -> impl Iterator<Item = IndexEntry> + '_ {
        buckets
            .flat_map(move |b| {
                let raw = self.bucket_raw(b);
                (0..layout::bucket_assoc(raw))
                    .map(move |i| IndexEntry::decode(layout::bucket_slot(raw, i)))
            })
            .filter(IndexEntry::is_occupied)
    }

    /// One page of a cohort scan. Pages walk the bucket array; `page_size`
    /// is in buckets. A page carries the live (hash, version) pairs of its
    /// buckets and the exact tombstones of keys that hash into them.
    pub fn scan_page(&self, page: u32, page_size: u64) -> ScanPage {
        let start = page as u64 * page_size;
        let stop = (start + page_size).min(self.num_buckets);
        let pairs = self.occupied(start..stop).map(|e| (e.key_hash, e.version));
        let in_page = |&(hash, _): &(KeyHash, _)| (start..stop).contains(&self.bucket_of(hash));
        let mut tombstones: Vec<_> = self.tombstones.iter().filter(in_page).collect();
        tombstones.sort_unstable();
        ScanPage {
            page,
            done: stop >= self.num_buckets,
            pairs: pairs.collect(),
            tombstones,
        }
    }

    /// Every live (hash, version) pair — the full local inventory used by
    /// cohort reconciliation.
    pub fn scan_all_pairs(&self) -> Vec<(KeyHash, VersionNumber)> {
        let mut out = Vec::with_capacity(self.live_entries as usize);
        out.extend(
            self.occupied(0..self.num_buckets)
                .map(|e| (e.key_hash, e.version)),
        );
        out
    }

    /// Every live pair (spare migration, tests). Order is bucket order.
    pub fn all_entries(&self) -> Vec<(Bytes, Bytes, VersionNumber)> {
        let mut out = Vec::with_capacity(self.live_entries as usize);
        out.extend(
            self.occupied(0..self.num_buckets)
                .filter_map(|e| self.read_pair(e.ptr)),
        );
        out
    }

    /// Every pair [`Self::fetch`] serves (a warm-spare handoff's snapshot):
    /// [`Self::all_entries`], then the RPC-only overflow table's pairs by
    /// ascending key hash.
    pub fn fetchable_entries(&self) -> Vec<(Bytes, Bytes, VersionNumber)> {
        let mut out = self.all_entries();
        let mut overflow: Vec<_> = self.overflow.iter().collect();
        overflow.sort_unstable_by_key(|&(&hash, _)| hash);
        out.extend(overflow.into_iter().map(|(_, pair)| pair.clone()));
        out
    }

    // ---- Reshaping ------------------------------------------------------

    /// Whether the index has crossed its reshape load factor.
    pub fn needs_index_resize(&self) -> bool {
        !self.resizing && self.load_factor() > self.cfg.resize_load_factor
    }

    /// Index load factor (live entries over total slots).
    pub fn load_factor(&self) -> f64 {
        self.live_entries as f64 / (self.num_buckets * self.cfg.assoc as u64) as f64
    }

    /// Begin an index reshape: revoke the old window (client RMAs start
    /// failing, pushing them onto the RPC retry path) and stall mutations.
    pub fn begin_index_resize(&mut self) {
        assert!(!self.resizing);
        self.resizing = true;
        self.regions.revoke_window(self.index_window);
    }

    /// Whether a resize is in progress (mutations answer `Stalled`).
    pub fn is_resizing(&self) -> bool {
        self.resizing
    }

    /// Finish the reshape: build the doubled index, re-place every entry,
    /// and register a fresh window.
    pub fn finish_index_resize(&mut self) {
        assert!(self.resizing);
        let old_buckets = self.num_buckets;
        let new_buckets = old_buckets * 2;
        // Collect live entries from the old index, then let it go: its
        // window was revoked when the reshape began.
        let mut live: Vec<IndexEntry> = Vec::with_capacity(self.live_entries as usize);
        live.extend(self.occupied(0..old_buckets));
        self.regions.realloc_buffer(self.index_buffer, 0);
        // Build the new index.
        (self.index_buffer, self.index_window) =
            alloc_index(&mut self.regions, new_buckets, self.cfg.assoc as usize);
        self.num_buckets = new_buckets;
        self.stamp_all_buckets();
        for e in live {
            let bucket = self.bucket_of(e.key_hash);
            let slot = self
                .first_vacant(bucket)
                .expect("doubled index cannot overflow on re-placement");
            self.write_slot(bucket, slot, &e);
        }
        // The fresh index lost its overflow hints; keys parked in the
        // RPC-only table must keep advertising the fallback.
        self.restamp_overflow_hints();
        self.resizing = false;
        self.stats.index_reshapes += 1;
    }

    /// Whether the data region should grow (high-watermark policy, §4.1).
    pub fn needs_data_growth(&self) -> bool {
        self.slab.utilization() > self.cfg.data_high_watermark
            && self.slab.capacity() < self.cfg.max_data_capacity
    }

    /// Grow the data region: populate more of the reserved range and
    /// register a second, larger, overlapping window. Old windows stay
    /// valid, so in-flight reads and stale pointers keep working; new
    /// entries use the new window and clients converge over time.
    pub fn grow_data(&mut self) {
        let new_cap = (self.slab.capacity() * DATA_GROWTH_FACTOR)
            .min(self.cfg.max_data_capacity)
            .max(self.slab.capacity() + self.cfg.slab_bytes);
        let new_cap = new_cap.min(self.cfg.max_data_capacity);
        self.regions.grow_buffer(self.data_buffer, new_cap);
        self.slab.set_capacity(new_cap);
        self.data_window = self
            .regions
            .register_window(self.data_buffer, 0, new_cap as u64);
        self.stats.data_growths += 1;
    }

    /// Non-disruptive restart with a right-sized data region (§4.1: "data
    /// region downsizing occurs with non-disruptive restart"). The corpus
    /// is preserved; the data pool is rebuilt at `live * (1 + slack)`
    /// bytes, rounded up to whole slabs.
    pub fn compact_restart(&mut self, slack: f64) {
        let entries: Vec<(KeyHash, VersionNumber, Vec<u8>)> = self
            .occupied(0..self.num_buckets)
            .map(|e| {
                let (at, len) = (e.ptr.offset as usize, e.ptr.len as usize);
                let bytes = self.regions.read_buffer(self.data_buffer, at, len);
                (e.key_hash, e.version, bytes.to_vec())
            })
            .collect();
        // Size the new pool on slot-rounded (size-class) footprints, plus
        // one slab of headroom per size class (each partially-filled class
        // pins a whole slab).
        let sizer = crate::slab::SlabAllocator::with_slab_size(0, self.cfg.slab_bytes);
        let live_bytes: usize = entries
            .iter()
            .map(|(_, _, b)| sizer.rounded_size(b.len()))
            .sum();
        let classes = (self.cfg.slab_bytes / crate::slab::MIN_SLOT).ilog2() as usize + 1;
        let target = (((live_bytes as f64 * (1.0 + slack.max(0.0))) as usize)
            .div_ceil(self.cfg.slab_bytes)
            .max(1)
            + classes)
            * self.cfg.slab_bytes;
        // Fresh data pool + window. Every window over the old pool — the
        // current one and each one `grow_data` left serving — is dead (the
        // process restarted): reallocating revokes them all, and lets go
        // of the cell's entries (taken again as they are re-placed).
        self.release_entries();
        self.regions.realloc_buffer(self.data_buffer, target);
        self.slab = crate::slab::SlabAllocator::with_slab_size(target, self.cfg.slab_bytes);
        self.data_window = self
            .regions
            .register_window(self.data_buffer, 0, target as u64);
        let generation = self.regions.window_generation(self.data_window);
        // Re-place every entry; the index keeps its geometry, only pointers
        // change. Occupied slots all lie in their bucket's room.
        for b in 0..self.num_buckets {
            for i in 0..layout::bucket_assoc(self.bucket_raw(b)) {
                let slot = layout::bucket_slot(self.bucket_raw(b), i);
                if IndexEntry::decode(slot).is_occupied() {
                    self.write_slot(b, i, &IndexEntry::default());
                }
            }
        }
        self.live_entries = 0;
        for (hash, version, bytes) in entries {
            let offset = self
                .slab
                .alloc(bytes.len())
                .expect("compacted pool fits the live corpus");
            let bucket = self.bucket_of(hash);
            let slot = self.first_vacant(bucket).expect("index geometry unchanged");
            let ptr = Pointer {
                window: self.data_window.0,
                generation,
                offset,
                len: bytes.len() as u32,
            };
            self.write_slot(
                bucket,
                slot,
                &IndexEntry {
                    key_hash: hash,
                    version,
                    ptr,
                },
            );
            self.place_entry(hash, version, offset as usize, &bytes);
            self.live_entries += 1;
        }
    }

    /// Write `bytes`, the committed entry of (`hash`, `version`), at `at`:
    /// when the cell shares entries, as a claim on the pair's buffer.
    fn place_entry(&mut self, hash: KeyHash, version: VersionNumber, at: usize, bytes: &[u8]) {
        let Some(table) = &self.entries else {
            return self.regions.write(self.data_buffer, at, bytes);
        };
        let pair = (hash, version);
        let claim = table.acquire(pair, || Rc::from(bytes), |buf| buf == bytes);
        let buf = claim.unwrap_or_else(|| {
            self.unshared.insert(pair);
            Rc::from(bytes)
        });
        self.regions.share(self.data_buffer, at, &buf, 0, buf.len());
        self.regions.settle_tail(self.data_buffer, at + buf.len());
    }

    /// Give back this store's claim on the cell's buffer of `e`, if it
    /// has one.
    fn release(&mut self, e: &IndexEntry) {
        let Some(table) = &self.entries else {
            return;
        };
        let pair = (e.key_hash, e.version);
        if self.unshared.is_empty() || !self.unshared.remove(&pair) {
            table.release(pair);
        }
    }

    /// Give back every committed entry's claim on the cell's buffer.
    fn release_entries(&mut self) {
        if self.entries.is_some() {
            let live: Vec<IndexEntry> = self.occupied(0..self.num_buckets).collect();
            live.iter().for_each(|e| self.release(e));
        }
    }

    /// Resident DRAM in bytes (index + populated data region) — the Fig. 3
    /// quantity.
    pub fn resident_bytes(&self) -> u64 {
        self.regions.resident_bytes()
    }

    /// Bytes of live data (slot-rounded) in the data region.
    pub fn used_data_bytes(&self) -> usize {
        self.slab.used_bytes()
    }

    /// Live KV pairs.
    pub fn live_entries(&self) -> u64 {
        self.live_entries
    }

    /// The store's shard.
    pub fn shard(&self) -> u32 {
        self.cfg.shard
    }

    /// The config id stamped into buckets.
    pub fn config_id(&self) -> u32 {
        self.cfg.config_id
    }

    /// Adopt a new cell config id (spare takeover) — restamps every bucket.
    pub fn set_config_id(&mut self, config_id: u32) {
        self.cfg.config_id = config_id;
        self.stamp_all_buckets();
    }

    /// Adopt a new shard identity (spare takeover).
    pub fn set_shard(&mut self, shard: u32) {
        self.cfg.shard = shard;
    }

    /// Tombstone cache (read access for repair decisions).
    pub fn tombstones(&self) -> &TombstoneCache {
        &self.tombstones
    }

    /// Associativity of the index.
    pub fn assoc(&self) -> u16 {
        self.cfg.assoc
    }

    /// Current bucket count.
    pub fn num_buckets(&self) -> u64 {
        self.num_buckets
    }
}

impl Drop for BackendStore {
    /// A store that goes away (its backend crashed and was rebuilt, or the
    /// run ended) gives back its claims on the cell's entries; the region's
    /// handles go with it.
    fn drop(&mut self) {
        self.release_entries();
        if let Some(table) = &self.entries {
            let claims = self.inflight.iter().filter(|(.., claim)| *claim);
            claims.for_each(|&(_, pair, _)| table.release(pair));
        }
    }
}

/// The NIC-resident SCAR scan program over CliqueMap's bucket layout.
#[derive(Debug, Clone, Copy, Default)]
pub struct CliqueScarResolver;

impl ScarResolver for CliqueScarResolver {
    fn resolve(&self, head: &[u8], tail: &[u8], key_hash: u128) -> ScarOutcome {
        let (hit, scanned) = layout::scan_bucket_parts(head, tail, key_hash);
        match hit {
            Some((_, e)) => ScarOutcome::Hit {
                window: e.ptr.window_id(),
                generation: e.ptr.generation,
                offset: e.ptr.offset,
                len: e.ptr.len,
                entries_scanned: scanned,
            },
            None => ScarOutcome::Miss {
                entries_scanned: scanned,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::{DefaultHasher, KeyHasher};

    fn small_store() -> BackendStore {
        BackendStore::new(
            StoreCfg {
                num_buckets: 16,
                assoc: 4,
                data_capacity: 64 << 10,
                max_data_capacity: 1 << 20,
                slab_bytes: 4 << 10,
                ..StoreCfg::default()
            },
            Box::new(LruPolicy::new()),
        )
    }

    /// A 16 KiB data region that wants to grow once half full.
    fn growable_store() -> BackendStore {
        BackendStore::new(
            StoreCfg {
                num_buckets: 256,
                assoc: 8,
                data_capacity: 16 << 10,
                max_data_capacity: 256 << 10,
                slab_bytes: 4 << 10,
                data_high_watermark: 0.5,
                ..StoreCfg::default()
            },
            Box::new(LruPolicy::new()),
        )
    }

    fn v(n: u64) -> VersionNumber {
        VersionNumber::new(n, 1, 1)
    }

    fn do_set(s: &mut BackendStore, key: &[u8], value: &[u8], ver: VersionNumber) -> Status {
        s.install(key, value, DefaultHasher.hash(key), ver)
    }

    #[test]
    fn set_then_fetch() {
        let mut s = small_store();
        assert_eq!(do_set(&mut s, b"k1", b"hello", v(1)), Status::Ok);
        let hash = DefaultHasher.hash(b"k1");
        let (key, value, ver) = s.fetch(hash).unwrap();
        assert_eq!(&key[..], b"k1");
        assert_eq!(&value[..], b"hello");
        assert_eq!(ver, v(1));
        assert_eq!(s.live_entries(), 1);
    }

    #[test]
    fn overwrite_replaces_and_frees() {
        let mut s = small_store();
        do_set(&mut s, b"k", b"old-value", v(1));
        let before = s.used_data_bytes();
        do_set(&mut s, b"k", b"new", v(2));
        let (_, value, ver) = s.fetch(DefaultHasher.hash(b"k")).unwrap();
        assert_eq!(&value[..], b"new");
        assert_eq!(ver, v(2));
        assert_eq!(s.live_entries(), 1);
        assert!(s.used_data_bytes() <= before, "old entry not reclaimed");
    }

    #[test]
    fn version_monotonicity_enforced() {
        let mut s = small_store();
        do_set(&mut s, b"k", b"v5", v(5));
        assert_eq!(do_set(&mut s, b"k", b"v3", v(3)), Status::VersionRejected);
        assert_eq!(do_set(&mut s, b"k", b"v5", v(5)), Status::VersionRejected);
        assert_eq!(do_set(&mut s, b"k", b"v6", v(6)), Status::Ok);
        assert_eq!(s.stats.version_rejects, 2);
    }

    #[test]
    fn erase_tombstones_block_late_sets() {
        let mut s = small_store();
        do_set(&mut s, b"k", b"v", v(10));
        let hash = DefaultHasher.hash(b"k");
        assert_eq!(s.erase(hash, v(20)), Status::Ok);
        assert!(s.fetch(hash).is_none());
        // A late SET below the tombstone version must be rejected.
        assert_eq!(
            do_set(&mut s, b"k", b"ghost", v(15)),
            Status::VersionRejected
        );
        // A newer SET resurrects the key legitimately.
        assert_eq!(do_set(&mut s, b"k", b"alive", v(30)), Status::Ok);
        assert_eq!(s.live_entries(), 1);
    }

    #[test]
    fn erase_of_absent_key_still_tombstones() {
        let mut s = small_store();
        let hash = DefaultHasher.hash(b"never-set");
        assert_eq!(s.erase(hash, v(7)), Status::Ok);
        assert_eq!(
            do_set(&mut s, b"never-set", b"x", v(5)),
            Status::VersionRejected
        );
    }

    #[test]
    fn erase_version_check() {
        let mut s = small_store();
        do_set(&mut s, b"k", b"v", v(10));
        let hash = DefaultHasher.hash(b"k");
        assert_eq!(s.erase(hash, v(5)), Status::VersionRejected);
        assert!(s.fetch(hash).is_some());
    }

    #[test]
    fn cas_semantics() {
        let mut s = small_store();
        do_set(&mut s, b"k", b"v1", v(1));
        let hash = DefaultHasher.hash(b"k");
        // Wrong expected version.
        assert_eq!(
            s.prepare_cas(b"k", b"v2", hash, v(9), v(10)).unwrap_err(),
            Status::VersionRejected
        );
        // Missing key.
        let h2 = DefaultHasher.hash(b"absent");
        assert_eq!(
            s.prepare_cas(b"absent", b"x", h2, v(1), v(2)).unwrap_err(),
            Status::NotFound
        );
        // Correct expected version.
        let p = s.prepare_cas(b"k", b"v2", hash, v(1), v(2)).unwrap();
        s.write_data(p.data_offset, &p.entry_bytes);
        s.commit_set(&p);
        let (_, value, ver) = s.fetch(hash).unwrap();
        assert_eq!(&value[..], b"v2");
        assert_eq!(ver, v(2));
    }

    #[test]
    fn capacity_eviction_makes_room() {
        let mut s = BackendStore::new(
            StoreCfg {
                num_buckets: 64,
                assoc: 8,
                data_capacity: 16 << 10, // tiny: 4 slabs of 4K
                max_data_capacity: 16 << 10,
                slab_bytes: 4 << 10,
                ..StoreCfg::default()
            },
            Box::new(LruPolicy::new()),
        );
        // Insert far more than fits; evictions must keep SETs succeeding.
        for i in 0..100u32 {
            let key = format!("key-{i}");
            let status = do_set(&mut s, key.as_bytes(), &[7u8; 1000], v(i as u64 + 1));
            assert_eq!(status, Status::Ok, "set {i} failed");
        }
        assert!(s.stats.evictions > 0);
        assert!(s.stats.capacity_conflicts > 0);
        assert!(s.live_entries() < 100);
        // The most recent key survives (LRU).
        assert!(s.fetch(DefaultHasher.hash(b"key-99")).is_some());
    }

    #[test]
    fn associativity_eviction_sets_overflow_bit() {
        // One bucket forces every key into the same 2-slot bucket.
        let mut s = BackendStore::new(
            StoreCfg {
                num_buckets: 1,
                assoc: 2,
                data_capacity: 64 << 10,
                max_data_capacity: 64 << 10,
                slab_bytes: 4 << 10,
                ..StoreCfg::default()
            },
            Box::new(LruPolicy::new()),
        );
        for i in 0..5u32 {
            let key = format!("k{i}");
            assert_eq!(
                do_set(&mut s, key.as_bytes(), b"x", v(i as u64 + 1)),
                Status::Ok
            );
        }
        assert!(s.stats.assoc_conflicts >= 3);
        assert_eq!(s.live_entries(), 2);
        let raw = s.bucket_raw(0).to_vec();
        assert!(layout::bucket_overflowed(&raw));
    }

    #[test]
    fn index_resize_preserves_corpus_and_doubles() {
        let mut s = small_store(); // 16 buckets * 4 = 64 slots
                                   // Insert until the load factor crosses the reshape threshold (some
                                   // keys may be lost to associativity evictions along the way).
        let mut i = 0u32;
        while !s.needs_index_resize() {
            let key = format!("key-{i}");
            do_set(&mut s, key.as_bytes(), b"value", v(i as u64 + 1));
            i += 1;
            assert!(i < 500, "never crossed the reshape threshold");
        }
        let before = s.all_entries();
        assert!(!before.is_empty());
        s.begin_index_resize();
        assert!(s.is_resizing());
        // Mutations stall during the resize.
        assert_eq!(do_set(&mut s, b"stalled", b"x", v(1000)), Status::Stalled);
        assert_eq!(
            s.erase(DefaultHasher.hash(b"key-0"), v(1001)),
            Status::Stalled
        );
        s.finish_index_resize();
        assert_eq!(s.num_buckets(), 32);
        assert!(!s.is_resizing());
        // Every pair live before the resize is still reachable after.
        for (key, value, _) in before {
            let (k, val, _) = s.fetch(DefaultHasher.hash(&key)).unwrap();
            assert_eq!(k, key);
            assert_eq!(val, value);
        }
        assert_eq!(s.stats.index_reshapes, 1);
        assert!(s.load_factor() < 0.5);
    }

    #[test]
    fn reshape_releases_the_old_index() {
        let mut s = small_store();
        do_set(&mut s, b"k", b"v", v(1));
        let index_bytes = |s: &BackendStore| s.num_buckets() * bucket_size(4) as u64;
        let data_bytes = s.resident_bytes() - index_bytes(&s);
        for _ in 0..3 {
            s.begin_index_resize();
            s.finish_index_resize();
            assert_eq!(s.resident_bytes(), index_bytes(&s) + data_bytes);
        }
        assert_eq!(s.num_buckets(), 128);
        assert!(s.fetch(DefaultHasher.hash(b"k")).is_some());
    }

    #[test]
    fn resize_changes_index_generation() {
        let mut s = small_store();
        let g0 = s.geometry();
        s.begin_index_resize();
        s.finish_index_resize();
        let g1 = s.geometry();
        assert_ne!(g0.index_generation, g1.index_generation);
        assert_eq!(g1.num_buckets, g0.num_buckets * 2);
    }

    #[test]
    fn data_growth_registers_overlapping_window() {
        let mut s = growable_store();
        do_set(&mut s, b"old", b"old-value", v(1));
        let old_geom = s.geometry();
        // Fill past the watermark.
        for i in 0..3u32 {
            do_set(
                &mut s,
                format!("f{i}").as_bytes(),
                &[1u8; 3000],
                v(i as u64 + 2),
            );
        }
        assert!(s.needs_data_growth());
        let before = s.resident_bytes();
        s.grow_data();
        assert!(s.resident_bytes() > before);
        let new_geom = s.geometry();
        assert_ne!(old_geom.data_window, new_geom.data_window);
        // The old entry (pointing at the old window) is still fetchable.
        assert!(s.fetch(DefaultHasher.hash(b"old")).is_some());
        // And new SETs land in the new window.
        do_set(&mut s, b"new", b"new-value", v(100));
        let (_, _, e) = s.lookup(DefaultHasher.hash(b"new")).unwrap();
        assert_eq!(e.ptr.window, new_geom.data_window);
        assert_eq!(s.stats.data_growths, 1);
    }

    #[test]
    fn restart_revokes_pre_growth_data_windows() {
        let mut s = growable_store();
        do_set(&mut s, b"old", b"old-value", v(1));
        let (_, _, old) = s.lookup(DefaultHasher.hash(b"old")).unwrap();
        for i in 0..3u32 {
            let key = format!("f{i}");
            do_set(&mut s, key.as_bytes(), &[1u8; 3000], v(i as u64 + 2));
        }
        assert!(s.needs_data_growth());
        s.grow_data();
        assert_ne!(s.geometry().data_window, old.ptr.window);
        s.compact_restart(0.1);
        // The pool moved: a pointer from before the restart — through the
        // grown window or the one it superseded — must send the client back
        // to RPC, not read whatever now sits at that offset.
        for window in [old.ptr.window, old.ptr.window + 1] {
            let generation = s.regions().window_generation(WindowId(window));
            let read =
                s.regions()
                    .read_window(WindowId(window), generation, old.ptr.offset, old.ptr.len);
            assert_eq!(read, Err(rma::RmaStatus::WindowRevoked), "window {window}");
        }
        let (_, value, _) = s.fetch(DefaultHasher.hash(b"old")).unwrap();
        assert_eq!(&value[..], b"old-value");
    }

    #[test]
    fn scan_pages_cover_all_entries() {
        let mut s = small_store();
        for i in 0..20u32 {
            do_set(&mut s, format!("k{i}").as_bytes(), b"v", v(i as u64 + 1));
        }
        let erased = DefaultHasher.hash(b"k0");
        assert_eq!(s.erase(erased, v(100)), Status::Ok);
        let mut seen = std::collections::HashSet::new();
        let mut tombstones = Vec::new();
        let mut page = 0;
        loop {
            let p = s.scan_page(page, 4);
            for (h, _) in p.pairs {
                seen.insert(h);
            }
            // A tombstone rides the page whose buckets its key hashes into.
            for &(h, _) in &p.tombstones {
                assert_eq!(s.bucket_of(h) / 4, page as u64);
            }
            tombstones.extend(p.tombstones);
            if p.done {
                break;
            }
            page += 1;
        }
        assert_eq!(seen.len(), 19);
        assert_eq!(tombstones, [(erased, v(100))]);
    }

    #[test]
    fn all_entries_roundtrip() {
        let mut s = small_store();
        for i in 0..10u32 {
            do_set(
                &mut s,
                format!("key-{i}").as_bytes(),
                format!("val-{i}").as_bytes(),
                v(i as u64 + 1),
            );
        }
        let entries = s.all_entries();
        assert_eq!(entries.len(), 10);
        for (k, val, _) in entries {
            let ks = String::from_utf8(k.to_vec()).unwrap();
            let idx: u32 = ks.strip_prefix("key-").unwrap().parse().unwrap();
            assert_eq!(&val[..], format!("val-{idx}").as_bytes());
        }
    }

    #[test]
    fn poisoned_free_space_fails_checksum() {
        let mut s = small_store();
        do_set(&mut s, b"k", b"victim-value", v(1));
        let (_, _, entry) = s.lookup(DefaultHasher.hash(b"k")).unwrap();
        let ptr = entry.ptr;
        s.erase(DefaultHasher.hash(b"k"), v(2));
        // A stale pointer chase (what a racing client would do) now reads
        // poisoned bytes that fail validation.
        let raw = s
            .regions()
            .read_window(WindowId(ptr.window), ptr.generation, ptr.offset, ptr.len)
            .unwrap();
        assert!(parse_data_entry(&raw).is_err());
    }

    #[test]
    fn scar_resolver_chases_pointer() {
        let mut s = small_store();
        do_set(&mut s, b"k", b"scar-me", v(1));
        let hash = DefaultHasher.hash(b"k");
        let bucket = s.bucket_of(hash);
        let raw = s.bucket_raw(bucket).to_vec();
        match CliqueScarResolver.resolve(&raw, &[], hash) {
            ScarOutcome::Hit { len, .. } => {
                assert_eq!(len as usize, data_entry_size(1, 7));
            }
            other => panic!("{other:?}"),
        }
        match CliqueScarResolver.resolve(&raw, &[], hash ^ 1) {
            ScarOutcome::Miss { entries_scanned } => assert!(entries_scanned > 0),
            other => panic!("{other:?}"),
        }
    }

    /// SCAR's scan of `bucket` for `hash`, over the pieces the index region
    /// serves the bucket in.
    fn scar_scan(s: &BackendStore, bucket: u64, hash: KeyHash) -> ScarOutcome {
        let g = s.geometry();
        let pieces = s
            .regions()
            .read_window_slice(
                WindowId(g.index_window),
                g.index_generation,
                s.bucket_offset(bucket),
                bucket_size(g.assoc as usize) as u32,
            )
            .expect("index window serves");
        CliqueScarResolver.resolve(&pieces.head, pieces.tail, hash)
    }

    /// Every key of the one-bucket store `s` sits where the full-width
    /// bucket `model` has it, SCAR's hit scans `slot + 1` entries and its
    /// miss all of them.
    fn assert_placed_as(s: &BackendStore, model: &[Option<KeyHash>]) {
        for (slot, hash) in model.iter().enumerate() {
            let Some(hash) = *hash else { continue };
            assert_eq!(s.lookup(hash).map(|(_, at, _)| at), Some(slot));
            match scar_scan(s, 0, hash) {
                ScarOutcome::Hit {
                    entries_scanned, ..
                } => assert_eq!(entries_scanned, slot + 1),
                miss => panic!("slot {slot}: {miss:?}"),
            }
        }
        match scar_scan(s, 0, DefaultHasher.hash(b"absent")) {
            ScarOutcome::Miss { entries_scanned } => assert_eq!(entries_scanned, model.len()),
            hit => panic!("{hit:?}"),
        }
    }

    /// Install `key` where a full-width bucket's first vacant slot is.
    fn install_as_full_width(s: &mut BackendStore, model: &mut [Option<KeyHash>], key: &str) {
        let hash = DefaultHasher.hash(key.as_bytes());
        let want = model
            .iter()
            .position(Option::is_none)
            .expect("a vacant slot");
        assert_eq!(s.install(key.as_bytes(), b"v", hash, v(1)), Status::Ok);
        model[want] = Some(hash);
        assert_placed_as(s, model);
    }

    #[test]
    fn a_bucket_fills_slot_by_slot_as_a_full_width_one_would() {
        // One bucket: every key lands in it, its room growing slot by slot
        // through every class up to the whole bucket.
        let mut s = BackendStore::new(
            StoreCfg {
                num_buckets: 1,
                data_capacity: 1 << 20,
                max_data_capacity: 1 << 20,
                slab_bytes: 4 << 10,
                ..StoreCfg::default()
            },
            Box::new(LruPolicy::new()),
        );
        let assoc = s.assoc() as usize;
        let mut model = vec![None; assoc];
        assert_placed_as(&s, &model);
        for i in 0..assoc {
            install_as_full_width(&mut s, &mut model, &format!("k{i}"));
        }
        // Erase a middle slot: the next install refills it.
        let hash = model[assoc / 2].take().expect("filled");
        assert_eq!(s.erase(hash, v(2)), Status::Ok);
        assert_placed_as(&s, &model);
        install_as_full_width(&mut s, &mut model, "refill");
        assert_eq!(s.live_entries(), assoc as u64);
        assert_eq!(s.stats.assoc_conflicts, 0);
    }

    /// What a client's RMA read of `bucket` returns.
    fn rma_bucket(s: &BackendStore, bucket: u64) -> Bytes {
        let g = s.geometry();
        let len = bucket_size(g.assoc as usize) as u32;
        s.regions()
            .read_window(
                WindowId(g.index_window),
                g.index_generation,
                s.bucket_offset(bucket),
                len,
            )
            .expect("index window serves")
    }

    #[test]
    fn never_written_bucket_reads_stamped_and_vacant() {
        let s = small_store();
        for bucket in 0..s.num_buckets() {
            let raw = rma_bucket(&s, bucket);
            assert_eq!(layout::bucket_config_id(&raw), s.config_id());
            assert!(raw[4..].iter().all(|&b| b == 0), "bucket {bucket}");
            assert_eq!(&raw[..], s.bucket_raw(bucket));
        }
    }

    #[test]
    fn config_id_restamp() {
        let mut s = small_store();
        do_set(&mut s, b"k", b"v", v(1));
        let hash = DefaultHasher.hash(b"k");
        let bucket = s.bucket_of(hash);
        s.set_overflow(bucket, true);
        s.set_config_id(99);
        // Written and never-written buckets both carry the new id, over RMA
        // and server-side.
        for b in 0..s.num_buckets() {
            assert_eq!(layout::bucket_config_id(&rma_bucket(&s, b)), 99);
            assert_eq!(layout::bucket_config_id(s.bucket_raw(b)), 99);
            assert_eq!(layout::bucket_overflowed(s.bucket_raw(b)), b == bucket);
        }
        // Restamping must not clobber entries.
        assert!(s.fetch(hash).is_some());
        assert_eq!(s.geometry().config_id, 99);
    }

    #[test]
    fn racing_cas_prepares_only_one_wins() {
        // Two CAS ops against the same expectation, interleaved the way
        // chunked writes interleave them: both prepare before either
        // commits. Exactly one may win.
        let mut s = small_store();
        do_set(&mut s, b"k", b"v0", v(1));
        let hash = DefaultHasher.hash(b"k");
        let p1 = s.prepare_cas(b"k", b"a", hash, v(1), v(10)).unwrap();
        let p2 = s.prepare_cas(b"k", b"b", hash, v(1), v(20)).unwrap();
        s.write_data(p1.data_offset, &p1.entry_bytes);
        s.write_data(p2.data_offset, &p2.entry_bytes);
        let r1 = s.commit_set(&p1);
        let r2 = s.commit_set(&p2);
        assert_eq!(r1, Status::Ok);
        assert_eq!(r2, Status::VersionRejected, "both CAS won");
        let (_, value, ver) = s.fetch(hash).unwrap();
        assert_eq!(&value[..], b"a");
        assert_eq!(ver, v(10));
    }

    #[test]
    fn overflow_table_serves_displaced_entries() {
        // One 2-slot bucket: the third insert displaces a victim into the
        // RPC-only overflow table.
        let mut s = BackendStore::new(
            StoreCfg {
                num_buckets: 1,
                assoc: 2,
                data_capacity: 64 << 10,
                max_data_capacity: 64 << 10,
                slab_bytes: 4 << 10,
                overflow_capacity: 8,
                ..StoreCfg::default()
            },
            Box::new(LruPolicy::new()),
        );
        for i in 0..3u32 {
            do_set(
                &mut s,
                format!("k{i}").as_bytes(),
                format!("v{i}").as_bytes(),
                v(i as u64 + 1),
            );
        }
        assert_eq!(s.live_entries(), 2);
        assert_eq!(s.overflow_len(), 1);
        // The displaced key (k0, LRU victim) is index-invisible but still
        // fetchable via the RPC path.
        let h0 = DefaultHasher.hash(b"k0");
        assert!(s.lookup(h0).is_none());
        let (key, value, _) = s.fetch(h0).expect("overflow hit");
        assert_eq!(&key[..], b"k0");
        assert_eq!(&value[..], b"v0");
        // Re-SETting the key pulls it out of overflow (back into the
        // index, displacing someone else).
        assert_eq!(do_set(&mut s, b"k0", b"v0b", v(10)), Status::Ok);
        assert!(s.lookup(h0).is_some());
        let (_, value, _) = s.fetch(h0).unwrap();
        assert_eq!(&value[..], b"v0b");
    }

    #[test]
    fn overflow_version_floor_blocks_stale_sets() {
        let mut s = BackendStore::new(
            StoreCfg {
                num_buckets: 1,
                assoc: 1,
                data_capacity: 64 << 10,
                max_data_capacity: 64 << 10,
                slab_bytes: 4 << 10,
                overflow_capacity: 8,
                ..StoreCfg::default()
            },
            Box::new(LruPolicy::new()),
        );
        do_set(&mut s, b"a", b"1", v(100));
        do_set(&mut s, b"b", b"2", v(5)); // displaces a into overflow
        assert_eq!(s.overflow_len(), 1);
        // A stale SET of the overflowed key must still be rejected.
        assert_eq!(
            do_set(&mut s, b"a", b"stale", v(50)),
            Status::VersionRejected
        );
        assert_eq!(do_set(&mut s, b"a", b"fresh", v(200)), Status::Ok);
    }

    #[test]
    fn overflow_capacity_bounded_fifo() {
        let mut s = BackendStore::new(
            StoreCfg {
                num_buckets: 1,
                assoc: 1,
                data_capacity: 256 << 10,
                max_data_capacity: 256 << 10,
                slab_bytes: 4 << 10,
                overflow_capacity: 3,
                ..StoreCfg::default()
            },
            Box::new(LruPolicy::new()),
        );
        for i in 0..10u32 {
            do_set(&mut s, format!("k{i}").as_bytes(), b"x", v(i as u64 + 1));
        }
        assert!(s.overflow_len() <= 3);
        assert!(s.stats.overflow_inserts >= 6);
        // Erase cleans the overflow entry too.
        let latest_overflowed = DefaultHasher.hash(b"k8");
        if s.fetch(latest_overflowed).is_some() {
            s.erase(latest_overflowed, v(100));
            assert!(s.fetch(latest_overflowed).is_none());
        }
    }

    #[test]
    fn overflow_disabled_when_capacity_zero() {
        let mut s = BackendStore::new(
            StoreCfg {
                num_buckets: 1,
                assoc: 1,
                data_capacity: 64 << 10,
                max_data_capacity: 64 << 10,
                slab_bytes: 4 << 10,
                overflow_capacity: 0,
                ..StoreCfg::default()
            },
            Box::new(LruPolicy::new()),
        );
        do_set(&mut s, b"a", b"1", v(1));
        do_set(&mut s, b"b", b"2", v(2));
        assert_eq!(s.overflow_len(), 0);
        assert!(s.fetch(DefaultHasher.hash(b"a")).is_none());
    }

    #[test]
    fn torn_write_visible_between_chunks() {
        // The scenario behind Fig. 5: commit publishes only after all data
        // chunks land; a read between chunks sees a half-written entry that
        // fails checksum validation IF the space was previously readable.
        let mut s = small_store();
        do_set(&mut s, b"a", b"0123456789abcdef", v(1));
        let hash_a = DefaultHasher.hash(b"a");
        let (_, _, old_entry) = s.lookup(hash_a).unwrap();
        // Erase frees the space...
        s.erase(hash_a, v(2));
        // ...and a new SET reuses it (same size class).
        let hash_b = DefaultHasher.hash(b"b");
        let p = s
            .prepare_set(b"b", b"fedcba9876543210", hash_b, v(3))
            .unwrap();
        assert_eq!(p.data_offset, old_entry.ptr.offset, "slab must reuse slot");
        // Write only half the entry: a racing reader holding the old
        // pointer snapshots a torn mix.
        let half = p.entry_bytes.len() / 2;
        s.write_data(p.data_offset, &p.entry_bytes[..half]);
        let raw = s
            .regions()
            .read_window(
                WindowId(old_entry.ptr.window),
                old_entry.ptr.generation,
                old_entry.ptr.offset,
                old_entry.ptr.len,
            )
            .unwrap();
        assert!(parse_data_entry(&raw).is_err(), "torn read went undetected");
        // Finish the write and commit; the new key is clean.
        s.write_data(p.data_offset + half as u64, &p.entry_bytes[half..]);
        s.commit_set(&p);
        let (_, value, _) = s.fetch(hash_b).unwrap();
        assert_eq!(&value[..], b"fedcba9876543210");
    }
}
