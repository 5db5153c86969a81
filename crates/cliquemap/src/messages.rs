//! CliqueMap's RPC method ids and message bodies.
//!
//! Everything that is *not* a GET travels as one of these messages inside
//! an [`rpc`] envelope: mutations (SET/ERASE/CAS), connection setup
//! (geometry exchange), the RPC lookup fallback, batched access records,
//! cohort scans and repairs, warm-spare migration, and configuration
//! traffic. Bodies are hand-encoded over `bytes`, length-prefixed, and
//! tolerant of trailing extensions (the same evolution posture as the RPC
//! envelope itself).

use bytes::{Buf, BufMut, Bytes, BytesMut, Pool};

use crate::hash::KeyHash;
use crate::version::VersionNumber;

/// RPC method ids.
pub mod method {
    /// Geometry/connection handshake.
    pub const CONNECT: u16 = 1;
    /// SET mutation.
    pub const SET: u16 = 2;
    /// ERASE mutation.
    pub const ERASE: u16 = 3;
    /// Compare-and-set mutation.
    pub const CAS: u16 = 4;
    /// RPC-path lookup (WAN fallback, bucket-overflow fallback, MSG mode).
    pub const GET_RPC: u16 = 5;
    /// Batched client access records for eviction recency.
    pub const ACCESS_RECORDS: u16 = 6;
    /// Cohort scan page (KeyHash + version exchange).
    pub const SCAN: u16 = 7;
    /// Repair-SET from a cohort backend (§5.4).
    pub const REPAIR_SET: u16 = 8;
    /// Warm-spare migration chunk (§6.1).
    pub const MIGRATE_CHUNK: u16 = 9;
    /// Operator notification of planned maintenance.
    pub const PREPARE_MAINTENANCE: u16 = 10;
    /// Fetch the cell configuration from the config store.
    pub const GET_CONFIG: u16 = 11;
    /// Install a new cell configuration at the config store.
    pub const UPDATE_CONFIG: u16 = 12;
    /// Fetch a full KV pair by KeyHash (repair data sourcing).
    pub const FETCH_BY_HASH: u16 = 13;
    /// Two-sided messaging lookup (the MSG strategy of Fig. 7): same body
    /// as GET_RPC but served on the lean messaging path, waking a server
    /// thread instead of running the full RPC framework.
    pub const MSG_GET: u16 = 14;
    /// Doorbell-batched lookup on the full RPC path: one request frame
    /// carries every key destined for this host, one response frame a
    /// per-sub-op status vector.
    pub const MULTI_GET_RPC: u16 = 15;
    /// Doorbell-batched lookup on the lean messaging path (MSG strategy):
    /// same body as MULTI_GET_RPC, served at messaging cost.
    pub const MSG_MULTI_GET: u16 = 16;
    /// Doorbell-batched mutation: one frame of (key, value, version)
    /// triples, one response frame of per-sub-op statuses.
    pub const MULTI_SET: u16 = 17;
}

fn put_bytes(b: &mut BytesMut, v: &[u8]) {
    b.put_u32_le(v.len() as u32);
    b.put_slice(v);
}

fn get_bytes(b: &mut Bytes) -> Option<Bytes> {
    if b.len() < 4 {
        return None;
    }
    let len = b.get_u32_le() as usize;
    if b.len() < len {
        return None;
    }
    Some(b.split_to(len))
}

/// SET request body: install `key -> value` at `version`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SetReq {
    /// The key.
    pub key: Bytes,
    /// The value.
    pub value: Bytes,
    /// Client-nominated version.
    pub version: VersionNumber,
}

impl SetReq {
    fn write(&self, b: &mut BytesMut) {
        b.put_u128_le(self.version.0);
        put_bytes(b, &self.key);
        put_bytes(b, &self.value);
    }

    /// Encode to an unpooled body. Kept for the benchmark's pinned API;
    /// everything else encodes with [`Self::encode_in`].
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(24 + self.key.len() + self.value.len());
        self.write(&mut b);
        b.freeze()
    }

    /// Encode to a body in a pooled buffer.
    pub fn encode_in(&self, pool: &Pool) -> Bytes {
        let mut b = pool.get(24 + self.key.len() + self.value.len());
        self.write(&mut b);
        b.freeze()
    }

    /// Decode from a body.
    pub fn decode(mut body: Bytes) -> Option<SetReq> {
        if body.len() < 16 {
            return None;
        }
        let version = VersionNumber(body.get_u128_le());
        let key = get_bytes(&mut body)?;
        let value = get_bytes(&mut body)?;
        Some(SetReq {
            key,
            value,
            version,
        })
    }
}

/// ERASE request body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EraseReq {
    /// The key.
    pub key: Bytes,
    /// Client-nominated version for the tombstone.
    pub version: VersionNumber,
}

impl EraseReq {
    /// Encode to a body in a pooled buffer.
    pub fn encode_in(&self, pool: &Pool) -> Bytes {
        let mut b = pool.get(20 + self.key.len());
        b.put_u128_le(self.version.0);
        put_bytes(&mut b, &self.key);
        b.freeze()
    }

    /// Decode from a body.
    pub fn decode(mut body: Bytes) -> Option<EraseReq> {
        if body.len() < 16 {
            return None;
        }
        let version = VersionNumber(body.get_u128_le());
        let key = get_bytes(&mut body)?;
        Some(EraseReq { key, version })
    }
}

/// CAS request body: install `value` at `new_version` iff the stored
/// version equals `expected`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CasReq {
    /// The key.
    pub key: Bytes,
    /// The replacement value.
    pub value: Bytes,
    /// Version the caller believes is stored (memoized from a prior op).
    pub expected: VersionNumber,
    /// Version to install on success.
    pub new_version: VersionNumber,
}

impl CasReq {
    /// Encode to a body in a pooled buffer.
    pub fn encode_in(&self, pool: &Pool) -> Bytes {
        let mut b = pool.get(40 + self.key.len() + self.value.len());
        b.put_u128_le(self.expected.0);
        b.put_u128_le(self.new_version.0);
        put_bytes(&mut b, &self.key);
        put_bytes(&mut b, &self.value);
        b.freeze()
    }

    /// Decode from a body.
    pub fn decode(mut body: Bytes) -> Option<CasReq> {
        if body.len() < 32 {
            return None;
        }
        let expected = VersionNumber(body.get_u128_le());
        let new_version = VersionNumber(body.get_u128_le());
        let key = get_bytes(&mut body)?;
        let value = get_bytes(&mut body)?;
        Some(CasReq {
            key,
            value,
            expected,
            new_version,
        })
    }
}

/// GET_RPC / FETCH_BY_HASH response body: the stored pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GetResp {
    /// The full key (echoed so hash-based fetches learn it).
    pub key: Bytes,
    /// The value.
    pub value: Bytes,
    /// The stored version.
    pub version: VersionNumber,
}

impl GetResp {
    fn write(&self, b: &mut BytesMut) {
        b.put_u128_le(self.version.0);
        put_bytes(b, &self.key);
        put_bytes(b, &self.value);
    }

    /// Encode to an unpooled body. Kept for the benchmark's pinned API;
    /// everything else encodes with [`Self::encode_in`].
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(24 + self.key.len() + self.value.len());
        self.write(&mut b);
        b.freeze()
    }

    /// Encode to a body in a pooled buffer.
    pub fn encode_in(&self, pool: &Pool) -> Bytes {
        let mut b = pool.get(24 + self.key.len() + self.value.len());
        self.write(&mut b);
        b.freeze()
    }

    /// Decode from a body.
    pub fn decode(mut body: Bytes) -> Option<GetResp> {
        if body.len() < 16 {
            return None;
        }
        let version = VersionNumber(body.get_u128_le());
        let key = get_bytes(&mut body)?;
        let value = get_bytes(&mut body)?;
        Some(GetResp {
            key,
            value,
            version,
        })
    }
}

/// GET_RPC request body: lookup by full key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GetReq {
    /// The key to look up.
    pub key: Bytes,
}

impl GetReq {
    /// Encode to a body in a pooled buffer.
    pub fn encode_in(&self, pool: &Pool) -> Bytes {
        let mut b = pool.get(4 + self.key.len());
        put_bytes(&mut b, &self.key);
        b.freeze()
    }

    /// Decode from a body.
    pub fn decode(mut body: Bytes) -> Option<GetReq> {
        Some(GetReq {
            key: get_bytes(&mut body)?,
        })
    }
}

/// FETCH_BY_HASH request body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchByHashReq {
    /// KeyHash to fetch.
    pub key_hash: KeyHash,
}

impl FetchByHashReq {
    /// Encode to a body in a pooled buffer.
    pub fn encode_in(&self, pool: &Pool) -> Bytes {
        let mut b = pool.get(16);
        b.put_u128_le(self.key_hash);
        b.freeze()
    }

    /// Decode from a body.
    pub fn decode(mut body: Bytes) -> Option<FetchByHashReq> {
        if body.len() < 16 {
            return None;
        }
        Some(FetchByHashReq {
            key_hash: body.get_u128_le(),
        })
    }
}

/// Batched access records: the KeyHashes a client recently read via RMA.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AccessRecords {
    /// Touched hashes.
    pub hashes: Vec<KeyHash>,
}

impl AccessRecords {
    /// Encode to a body in a pooled buffer.
    pub fn encode_in(&self, pool: &Pool) -> Bytes {
        let mut b = pool.get(4 + 16 * self.hashes.len());
        b.put_u32_le(self.hashes.len() as u32);
        for h in &self.hashes {
            b.put_u128_le(*h);
        }
        b.freeze()
    }

    /// Decode from a body.
    pub fn decode(mut body: Bytes) -> Option<AccessRecords> {
        if body.len() < 4 {
            return None;
        }
        let n = body.get_u32_le() as usize;
        if body.len() < n.saturating_mul(16) {
            return None;
        }
        let mut hashes = Vec::with_capacity(n);
        for _ in 0..n {
            hashes.push(body.get_u128_le());
        }
        Some(AccessRecords { hashes })
    }
}

/// One page of a cohort scan: the (KeyHash, version) pairs of the live
/// entries in its bucket range (§5.4 — "detected via KeyHash exchange to
/// minimize overhead"), then the exact tombstones of keys in that range.
/// The tombstone section is a trailing extension written only when
/// non-empty, so a page without tombstones is the original format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanPage {
    /// Page being returned.
    pub page: u32,
    /// Whether this is the final page.
    pub done: bool,
    /// The (hash, version) pairs in this page.
    pub pairs: Vec<(KeyHash, VersionNumber)>,
    /// The (hash, erased-at version) tombstones in this page.
    pub tombstones: Vec<(KeyHash, VersionNumber)>,
}

fn put_pairs(b: &mut BytesMut, pairs: &[(KeyHash, VersionNumber)]) {
    b.put_u32_le(pairs.len() as u32);
    for (h, v) in pairs {
        b.put_u128_le(*h);
        b.put_u128_le(v.0);
    }
}

/// A `u32` count and that many (hash, version) pairs; `None` if the body
/// cannot hold the count it claims.
fn get_pairs(b: &mut Bytes) -> Option<Vec<(KeyHash, VersionNumber)>> {
    if b.len() < 4 {
        return None;
    }
    let n = b.get_u32_le() as usize;
    if b.len() < n.saturating_mul(32) {
        return None;
    }
    Some(
        (0..n)
            .map(|_| (b.get_u128_le(), VersionNumber(b.get_u128_le())))
            .collect(),
    )
}

impl ScanPage {
    /// Encode to a body in a pooled buffer.
    pub fn encode_in(&self, pool: &Pool) -> Bytes {
        let extension = match self.tombstones.len() {
            0 => 0,
            n => 4 + 32 * n,
        };
        let mut b = pool.get(9 + 32 * self.pairs.len() + extension);
        b.put_u32_le(self.page);
        b.put_u8(self.done as u8);
        put_pairs(&mut b, &self.pairs);
        if extension > 0 {
            put_pairs(&mut b, &self.tombstones);
        }
        b.freeze()
    }

    /// Decode from a body.
    pub fn decode(mut body: Bytes) -> Option<ScanPage> {
        if body.len() < 9 {
            return None;
        }
        let page = body.get_u32_le();
        let done = body.get_u8() != 0;
        let pairs = get_pairs(&mut body)?;
        let tombstones = if body.is_empty() {
            Vec::new()
        } else {
            get_pairs(&mut body)?
        };
        Some(ScanPage {
            page,
            done,
            pairs,
            tombstones,
        })
    }
}

/// A scan request: which page of the shard's key space to return.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanReq {
    /// Page number (fixed page size at the server).
    pub page: u32,
}

impl ScanReq {
    /// Encode to a body in a pooled buffer.
    pub fn encode_in(&self, pool: &Pool) -> Bytes {
        let mut b = pool.get(4);
        b.put_u32_le(self.page);
        b.freeze()
    }

    /// Decode from a body.
    pub fn decode(mut body: Bytes) -> Option<ScanReq> {
        if body.len() < 4 {
            return None;
        }
        Some(ScanReq {
            page: body.get_u32_le(),
        })
    }
}

/// A chunk of a shard handing off to a warm spare (§6.1). The final chunk
/// carries the identity the receiver adopts: the shard number and the new
/// cell config id. Keys erased while the handoff was open ride a trailing
/// section written only when non-empty, so a chunk without erases is the
/// original format.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MigrateChunk {
    /// Whether this is the final chunk.
    pub last: bool,
    /// Shard identity the receiver adopts on the final chunk.
    pub shard: u32,
    /// New config id the receiver stamps into its buckets on the final
    /// chunk.
    pub new_config_id: u32,
    /// Full KV pairs with their versions.
    pub entries: Vec<(Bytes, Bytes, VersionNumber)>,
    /// Erased keys with their erase versions.
    pub erased: Vec<(Bytes, VersionNumber)>,
}

impl MigrateChunk {
    /// Encode to a body in a pooled buffer.
    pub fn encode_in(&self, pool: &Pool) -> Bytes {
        let extension = match self.erased.len() {
            0 => 0,
            _ => 4 + self.erased.iter().map(|(k, _)| 20 + k.len()).sum::<usize>(),
        };
        let len = 13
            + self
                .entries
                .iter()
                .map(|(k, v, _)| 24 + k.len() + v.len())
                .sum::<usize>()
            + extension;
        let mut b = pool.get(len);
        b.put_u8(self.last as u8);
        b.put_u32_le(self.shard);
        b.put_u32_le(self.new_config_id);
        b.put_u32_le(self.entries.len() as u32);
        for (k, v, ver) in &self.entries {
            b.put_u128_le(ver.0);
            put_bytes(&mut b, k);
            put_bytes(&mut b, v);
        }
        if extension > 0 {
            b.put_u32_le(self.erased.len() as u32);
            for (k, ver) in &self.erased {
                b.put_u128_le(ver.0);
                put_bytes(&mut b, k);
            }
        }
        b.freeze()
    }

    /// Decode from a body.
    pub fn decode(mut body: Bytes) -> Option<MigrateChunk> {
        if body.len() < 13 {
            return None;
        }
        let last = body.get_u8() != 0;
        let shard = body.get_u32_le();
        let new_config_id = body.get_u32_le();
        let n = body.get_u32_le() as usize;
        // Each entry needs at least version(16) + two length prefixes(8);
        // reject wire counts the body cannot possibly hold before trusting
        // them for allocation.
        if body.len() < n.saturating_mul(24) {
            return None;
        }
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            if body.len() < 16 {
                return None;
            }
            let ver = VersionNumber(body.get_u128_le());
            let k = get_bytes(&mut body)?;
            let v = get_bytes(&mut body)?;
            entries.push((k, v, ver));
        }
        let mut erased = Vec::new();
        if !body.is_empty() {
            if body.len() < 4 {
                return None;
            }
            let n = body.get_u32_le() as usize;
            // version(16) + a length prefix(4) at least, as above.
            if body.len() < n.saturating_mul(20) {
                return None;
            }
            erased.reserve_exact(n);
            for _ in 0..n {
                if body.len() < 16 {
                    return None;
                }
                let ver = VersionNumber(body.get_u128_le());
                erased.push((get_bytes(&mut body)?, ver));
            }
        }
        Some(MigrateChunk {
            last,
            shard,
            new_config_id,
            entries,
            erased,
        })
    }
}

/// MULTI_GET_RPC / MSG_MULTI_GET request body: every key of one batch
/// destined for one replica host, in sub-op order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MultiGetReq {
    /// Per-sub-op tags, echoed verbatim in the response so the client can
    /// demux without positional bookkeeping surviving reordering.
    pub subs: Vec<u64>,
    /// The keys, parallel to `subs`.
    pub keys: Vec<Bytes>,
}

impl MultiGetReq {
    /// Encode to a body in a pooled buffer.
    pub fn encode_in(&self, pool: &Pool) -> Bytes {
        let len = 4 + self.keys.iter().map(|k| 12 + k.len()).sum::<usize>();
        let mut b = pool.get(len);
        b.put_u32_le(self.keys.len() as u32);
        for (sub, k) in self.subs.iter().zip(&self.keys) {
            b.put_u64_le(*sub);
            put_bytes(&mut b, k);
        }
        b.freeze()
    }

    /// Decode from a body.
    pub fn decode(mut body: Bytes) -> Option<MultiGetReq> {
        if body.len() < 4 {
            return None;
        }
        let n = body.get_u32_le() as usize;
        // Each entry needs at least sub(8) + length prefix(4).
        if body.len() < n.saturating_mul(12) {
            return None;
        }
        let mut subs = Vec::with_capacity(n);
        let mut keys = Vec::with_capacity(n);
        for _ in 0..n {
            if body.len() < 8 {
                return None;
            }
            subs.push(body.get_u64_le());
            keys.push(get_bytes(&mut body)?);
        }
        Some(MultiGetReq { subs, keys })
    }
}

/// One sub-op's result inside a [`MultiGetResp`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiGetEntry {
    /// Echoed sub-op tag.
    pub sub: u64,
    /// Per-sub-op status (`rpc::Status` as u8): Ok or NotFound.
    pub status: u8,
    /// The stored version (zero on NotFound).
    pub version: VersionNumber,
    /// The value (empty on NotFound).
    pub value: Bytes,
}

/// MULTI_GET_RPC / MSG_MULTI_GET response body: one status vector for the
/// whole batch in one pooled frame.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MultiGetResp {
    /// Per-sub-op results, in request order.
    pub entries: Vec<MultiGetEntry>,
}

impl MultiGetResp {
    /// Encode to a body in a pooled buffer.
    pub fn encode_in(&self, pool: &Pool) -> Bytes {
        let len = 4 + self
            .entries
            .iter()
            .map(|e| 29 + e.value.len())
            .sum::<usize>();
        let mut b = pool.get(len);
        b.put_u32_le(self.entries.len() as u32);
        for e in &self.entries {
            b.put_u64_le(e.sub);
            b.put_u8(e.status);
            b.put_u128_le(e.version.0);
            put_bytes(&mut b, &e.value);
        }
        b.freeze()
    }

    /// Decode from a body.
    pub fn decode(mut body: Bytes) -> Option<MultiGetResp> {
        if body.len() < 4 {
            return None;
        }
        let n = body.get_u32_le() as usize;
        // Each entry needs at least sub(8) + status(1) + version(16) +
        // length prefix(4).
        if body.len() < n.saturating_mul(29) {
            return None;
        }
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            if body.len() < 25 {
                return None;
            }
            let sub = body.get_u64_le();
            let status = body.get_u8();
            let version = VersionNumber(body.get_u128_le());
            let value = get_bytes(&mut body)?;
            entries.push(MultiGetEntry {
                sub,
                status,
                version,
                value,
            });
        }
        Some(MultiGetResp { entries })
    }
}

/// MULTI_SET request body: every (key, value, version) of one batch
/// destined for one replica, in sub-op order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MultiSetReq {
    /// Per-sub-op tags, echoed in the response status vector's order.
    pub subs: Vec<u64>,
    /// (key, value, client-nominated version) triples, parallel to `subs`.
    pub entries: Vec<(Bytes, Bytes, VersionNumber)>,
}

impl MultiSetReq {
    /// Encode to a body in a pooled buffer.
    pub fn encode_in(&self, pool: &Pool) -> Bytes {
        let len = 4 + self
            .entries
            .iter()
            .map(|(k, v, _)| 32 + k.len() + v.len())
            .sum::<usize>();
        let mut b = pool.get(len);
        b.put_u32_le(self.entries.len() as u32);
        for (sub, (k, v, ver)) in self.subs.iter().zip(&self.entries) {
            b.put_u64_le(*sub);
            b.put_u128_le(ver.0);
            put_bytes(&mut b, k);
            put_bytes(&mut b, v);
        }
        b.freeze()
    }

    /// Decode from a body.
    pub fn decode(mut body: Bytes) -> Option<MultiSetReq> {
        if body.len() < 4 {
            return None;
        }
        let n = body.get_u32_le() as usize;
        // Each entry needs at least sub(8) + version(16) + two length
        // prefixes(8).
        if body.len() < n.saturating_mul(32) {
            return None;
        }
        let mut subs = Vec::with_capacity(n);
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            if body.len() < 24 {
                return None;
            }
            subs.push(body.get_u64_le());
            let ver = VersionNumber(body.get_u128_le());
            let k = get_bytes(&mut body)?;
            let v = get_bytes(&mut body)?;
            entries.push((k, v, ver));
        }
        Some(MultiSetReq { subs, entries })
    }
}

/// MULTI_SET response body: one `rpc::Status` byte per sub-op, tagged.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MultiSetResp {
    /// (echoed sub tag, `rpc::Status` as u8) per sub-op, request order.
    pub statuses: Vec<(u64, u8)>,
}

impl MultiSetResp {
    /// Encode to a body in a pooled buffer.
    pub fn encode_in(&self, pool: &Pool) -> Bytes {
        let mut b = pool.get(4 + 9 * self.statuses.len());
        b.put_u32_le(self.statuses.len() as u32);
        for (sub, s) in &self.statuses {
            b.put_u64_le(*sub);
            b.put_u8(*s);
        }
        b.freeze()
    }

    /// Decode from a body.
    pub fn decode(mut body: Bytes) -> Option<MultiSetResp> {
        if body.len() < 4 {
            return None;
        }
        let n = body.get_u32_le() as usize;
        if body.len() < n.saturating_mul(9) {
            return None;
        }
        let mut statuses = Vec::with_capacity(n);
        for _ in 0..n {
            let sub = body.get_u64_le();
            let s = body.get_u8();
            statuses.push((sub, s));
        }
        Some(MultiSetResp { statuses })
    }
}

/// PREPARE_MAINTENANCE body: where to migrate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrepareMaintenance {
    /// NodeId of the warm spare that will take over this shard.
    pub spare_node: u32,
}

impl PrepareMaintenance {
    /// Encode to a body in a pooled buffer.
    pub fn encode_in(&self, pool: &Pool) -> Bytes {
        let mut b = pool.get(4);
        b.put_u32_le(self.spare_node);
        b.freeze()
    }

    /// Decode from a body.
    pub fn decode(mut body: Bytes) -> Option<PrepareMaintenance> {
        if body.len() < 4 {
            return None;
        }
        Some(PrepareMaintenance {
            spare_node: body.get_u32_le(),
        })
    }
}

/// Geometry advertised at CONNECT time: everything a client needs to issue
/// RMA reads against this backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Geometry {
    /// Cell configuration id the backend believes in.
    pub config_id: u32,
    /// Index region window.
    pub index_window: u32,
    /// Index window generation.
    pub index_generation: u32,
    /// Number of buckets in the index.
    pub num_buckets: u64,
    /// Entries per bucket.
    pub assoc: u16,
    /// Data region window.
    pub data_window: u32,
    /// Data window generation.
    pub data_generation: u32,
    /// Logical shard this backend serves.
    pub shard: u32,
}

impl Geometry {
    /// Encode to a body in a pooled buffer.
    pub fn encode_in(&self, pool: &Pool) -> Bytes {
        let mut b = pool.get(34);
        b.put_u32_le(self.config_id);
        b.put_u32_le(self.index_window);
        b.put_u32_le(self.index_generation);
        b.put_u64_le(self.num_buckets);
        b.put_u16_le(self.assoc);
        b.put_u32_le(self.data_window);
        b.put_u32_le(self.data_generation);
        b.put_u32_le(self.shard);
        b.freeze()
    }

    /// Decode from a body. An index of no buckets is not one: a client
    /// addresses a key's bucket modulo the bucket count.
    pub fn decode(mut body: Bytes) -> Option<Geometry> {
        if body.len() < 34 {
            return None;
        }
        let geom = Geometry {
            config_id: body.get_u32_le(),
            index_window: body.get_u32_le(),
            index_generation: body.get_u32_le(),
            num_buckets: body.get_u64_le(),
            assoc: body.get_u16_le(),
            data_window: body.get_u32_le(),
            data_generation: body.get_u32_le(),
            shard: body.get_u32_le(),
        };
        (geom.num_buckets != 0).then_some(geom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_roundtrip() {
        let m = SetReq {
            key: Bytes::from_static(b"k"),
            value: Bytes::from_static(b"v-bytes"),
            version: VersionNumber::new(1, 2, 3),
        };
        // The unpooled form the benchmark pins writes the same bytes.
        assert_eq!(m.encode(), m.encode_in(&Pool::new()));
        assert_eq!(SetReq::decode(m.encode()), Some(m));
        assert_eq!(SetReq::decode(Bytes::from_static(b"xx")), None);
    }

    #[test]
    fn erase_roundtrip() {
        let m = EraseReq {
            key: Bytes::from_static(b"gone"),
            version: VersionNumber::new(9, 9, 9),
        };
        assert_eq!(EraseReq::decode(m.encode_in(&Pool::new())), Some(m));
    }

    #[test]
    fn cas_roundtrip() {
        let m = CasReq {
            key: Bytes::from_static(b"key"),
            value: Bytes::from_static(b"new"),
            expected: VersionNumber::new(1, 1, 1),
            new_version: VersionNumber::new(2, 2, 2),
        };
        assert_eq!(CasReq::decode(m.encode_in(&Pool::new())), Some(m));
    }

    #[test]
    fn get_roundtrips() {
        let req = GetReq {
            key: Bytes::from_static(b"lookup-me"),
        };
        assert_eq!(GetReq::decode(req.encode_in(&Pool::new())), Some(req));
        let resp = GetResp {
            key: Bytes::from_static(b"lookup-me"),
            value: Bytes::from_static(b"found"),
            version: VersionNumber::new(5, 5, 5),
        };
        assert_eq!(resp.encode(), resp.encode_in(&Pool::new()));
        assert_eq!(GetResp::decode(resp.encode()), Some(resp));
    }

    #[test]
    fn fetch_by_hash_roundtrip() {
        let m = FetchByHashReq { key_hash: 0xF00D };
        assert_eq!(FetchByHashReq::decode(m.encode_in(&Pool::new())), Some(m));
        assert_eq!(FetchByHashReq::decode(Bytes::from_static(b"short")), None);
    }

    #[test]
    fn access_records_roundtrip() {
        let m = AccessRecords {
            hashes: vec![1, 2, 3, u128::MAX],
        };
        assert_eq!(AccessRecords::decode(m.encode_in(&Pool::new())), Some(m));
        let empty = AccessRecords::default();
        assert_eq!(
            AccessRecords::decode(empty.encode_in(&Pool::new())),
            Some(empty)
        );
    }

    #[test]
    fn scan_roundtrips() {
        let req = ScanReq { page: 7 };
        assert_eq!(ScanReq::decode(req.encode_in(&Pool::new())), Some(req));
        let page = ScanPage {
            page: 7,
            done: true,
            pairs: vec![(1, VersionNumber::new(1, 1, 1)), (2, VersionNumber::ZERO)],
            tombstones: Vec::new(),
        };
        let erased = ScanPage {
            tombstones: vec![(3, VersionNumber::new(2, 2, 2))],
            ..page.clone()
        };
        for page in [page, erased] {
            assert_eq!(ScanPage::decode(page.encode_in(&Pool::new())), Some(page));
        }
    }

    #[test]
    fn migrate_chunk_roundtrip() {
        let m = MigrateChunk {
            last: false,
            shard: 3,
            new_config_id: 9,
            entries: vec![
                (
                    Bytes::from_static(b"a"),
                    Bytes::from_static(b"1"),
                    VersionNumber::new(1, 1, 1),
                ),
                (
                    Bytes::from_static(b"b"),
                    Bytes::from_static(b"2"),
                    VersionNumber::new(2, 2, 2),
                ),
            ],
            erased: Vec::new(),
        };
        let erasing = MigrateChunk {
            erased: vec![(Bytes::from_static(b"c"), VersionNumber::new(3, 3, 3))],
            ..m.clone()
        };
        for m in [m, erasing] {
            assert_eq!(MigrateChunk::decode(m.encode_in(&Pool::new())), Some(m));
        }
        // Truncated chunk fails cleanly.
        let wire = MigrateChunk {
            last: true,
            entries: vec![(
                Bytes::from_static(b"k"),
                Bytes::from_static(b"v"),
                VersionNumber::ZERO,
            )],
            ..MigrateChunk::default()
        }
        .encode_in(&Pool::new());
        assert_eq!(MigrateChunk::decode(wire.slice(0..wire.len() - 1)), None);
    }

    #[test]
    fn geometry_roundtrip() {
        let g = Geometry {
            config_id: 1,
            index_window: 2,
            index_generation: 3,
            num_buckets: 1 << 20,
            assoc: 14,
            data_window: 4,
            data_generation: 5,
            shard: 6,
        };
        assert_eq!(Geometry::decode(g.encode_in(&Pool::new())), Some(g));
        assert_eq!(Geometry::decode(Bytes::from_static(b"tiny")), None);
    }

    #[test]
    fn a_geometry_of_no_buckets_does_not_decode() {
        let g = Geometry {
            config_id: 1,
            index_window: 2,
            index_generation: 3,
            num_buckets: 0,
            assoc: 14,
            data_window: 4,
            data_generation: 5,
            shard: 6,
        };
        assert_eq!(Geometry::decode(g.encode_in(&Pool::new())), None);
        let one = Geometry {
            num_buckets: 1,
            ..g
        };
        assert_eq!(Geometry::decode(one.encode_in(&Pool::new())), Some(one));
    }

    #[test]
    fn decoders_tolerate_trailing_extensions() {
        // Post-deployment evolution (§6): a newer peer may append fields;
        // older decoders parse the prefix they understand and ignore the
        // rest — this is how the paper shipped "over a hundred" protocol
        // changes without lockstep upgrades.
        let set = SetReq {
            key: Bytes::from_static(b"k"),
            value: Bytes::from_static(b"v"),
            version: VersionNumber::new(1, 2, 3),
        };
        let mut wire = BytesMut::from(&set.encode_in(&Pool::new())[..]);
        wire.extend_from_slice(b"\x09future-proof-extension");
        assert_eq!(SetReq::decode(wire.freeze()), Some(set));

        let geom = Geometry {
            config_id: 1,
            index_window: 2,
            index_generation: 3,
            num_buckets: 64,
            assoc: 14,
            data_window: 4,
            data_generation: 5,
            shard: 6,
        };
        let mut wire = BytesMut::from(&geom.encode_in(&Pool::new())[..]);
        wire.extend_from_slice(&[0xFF; 32]);
        assert_eq!(Geometry::decode(wire.freeze()), Some(geom));
    }

    #[test]
    fn adversarial_length_fields_rejected_cheaply() {
        // A frame claiming 2^31 entries in 30 bytes must fail fast (no
        // allocation) — regression test for the fuzz finding.
        let mut b = BytesMut::new();
        b.put_u8(0); // not last
        b.put_u32_le(0); // shard
        b.put_u32_le(0); // config id
        b.put_u32_le(u32::MAX); // entry count lie
        b.extend_from_slice(&[0u8; 16]);
        assert_eq!(MigrateChunk::decode(b.freeze()), None);
    }

    #[test]
    fn prepare_maintenance_roundtrip() {
        let m = PrepareMaintenance { spare_node: 42 };
        assert_eq!(
            PrepareMaintenance::decode(m.encode_in(&Pool::new())),
            Some(m)
        );
    }

    #[test]
    fn multi_get_roundtrips() {
        let req = MultiGetReq {
            subs: vec![100, 101],
            keys: vec![Bytes::from_static(b"a"), Bytes::from_static(b"bb")],
        };
        assert_eq!(MultiGetReq::decode(req.encode_in(&Pool::new())), Some(req));
        let resp = MultiGetResp {
            entries: vec![
                MultiGetEntry {
                    sub: 100,
                    status: 0,
                    version: VersionNumber::new(1, 2, 3),
                    value: Bytes::from_static(b"v1"),
                },
                MultiGetEntry {
                    sub: 101,
                    status: 1, // NotFound
                    version: VersionNumber::ZERO,
                    value: Bytes::new(),
                },
            ],
        };
        assert_eq!(
            MultiGetResp::decode(resp.encode_in(&Pool::new())),
            Some(resp)
        );
        // Empty batch roundtrips.
        let empty = MultiGetReq::default();
        assert_eq!(
            MultiGetReq::decode(empty.encode_in(&Pool::new())),
            Some(empty)
        );
    }

    #[test]
    fn multi_set_roundtrips() {
        let req = MultiSetReq {
            subs: vec![7, 8],
            entries: vec![
                (
                    Bytes::from_static(b"k1"),
                    Bytes::from_static(b"v1"),
                    VersionNumber::new(1, 1, 1),
                ),
                (
                    Bytes::from_static(b"k2"),
                    Bytes::from_static(b"v2"),
                    VersionNumber::new(2, 2, 2),
                ),
            ],
        };
        assert_eq!(MultiSetReq::decode(req.encode_in(&Pool::new())), Some(req));
        let resp = MultiSetResp {
            statuses: vec![(7, 0), (8, 2)],
        };
        assert_eq!(
            MultiSetResp::decode(resp.encode_in(&Pool::new())),
            Some(resp)
        );
    }

    #[test]
    fn batch_bodies_reject_adversarial_counts() {
        // Count lies larger than the body can hold fail before allocating.
        let mut b = BytesMut::new();
        b.put_u32_le(u32::MAX);
        b.extend_from_slice(&[0u8; 24]);
        let wire = b.freeze();
        assert_eq!(MultiGetReq::decode(wire.clone()), None);
        assert_eq!(MultiGetResp::decode(wire.clone()), None);
        assert_eq!(MultiSetReq::decode(wire.clone()), None);
        assert_eq!(MultiSetResp::decode(wire), None);
        // Truncated frames fail cleanly.
        let good = MultiSetReq {
            subs: vec![1],
            entries: vec![(
                Bytes::from_static(b"k"),
                Bytes::from_static(b"v"),
                VersionNumber::ZERO,
            )],
        }
        .encode_in(&Pool::new());
        assert_eq!(MultiSetReq::decode(good.slice(0..good.len() - 1)), None);
    }
}
