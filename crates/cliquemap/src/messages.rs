//! CliqueMap's RPC method ids and message bodies.
//!
//! Everything that is *not* a GET travels as one of these messages inside
//! an [`rpc`] envelope: mutations (SET/ERASE/CAS), connection setup
//! (geometry exchange), the RPC lookup fallback, batched access records,
//! cohort scans and repairs, warm-spare migration, and configuration
//! traffic. Each body names its fields once, in wire order, and its
//! length, encoder and decoder follow from that through the field codec of
//! [`rpc::codec`], which also holds the evolution rule: decoders ignore
//! trailing bytes, and a section appended after a body shipped is an
//! [`Ext`], absent when empty.

use bytes::{Bytes, BytesMut, Pool};
use rpc::codec::{self, get_count, get_ext, get_seq, Ext, Put, Seq, Wire};

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

impl Put for VersionNumber {
    #[inline]
    fn wire_len(&self) -> usize {
        self.0.wire_len()
    }
    #[inline]
    fn put(&self, b: &mut BytesMut) {
        self.0.put(b);
    }
}

impl Wire for VersionNumber {
    const MIN_LEN: usize = u128::MIN_LEN;
    #[inline]
    fn get(b: &mut Bytes) -> Option<Self> {
        u128::get(b).map(VersionNumber)
    }
}

/// Declares a message body and its `encode_in`/`decode`: with
/// [`rpc::wire_struct!`] when its fields in declaration order are its wire
/// form, or, for a body that stores its fields in another shape, from a
/// view of them in wire order (`put |m| view`) and a decoder
/// (`get |b| value`).
macro_rules! body {
    ($(#[$meta:meta])* pub struct $name:ident $fields:tt $(if |$m:ident| $valid:expr)?) => {
        rpc::wire_struct! { $(#[$meta])* pub struct $name $fields $(if |$m| $valid)? }
        body!(@fns $name, |body| $name::get(&mut body));
    };
    ($name:ident: put |$m:ident| $view:expr, get |$b:ident| $get:expr) => {
        impl Put for $name {
            #[inline]
            fn wire_len(&self) -> usize {
                let $m = self;
                $view.wire_len()
            }
            #[inline]
            fn put(&self, b: &mut BytesMut) {
                let $m = self;
                $view.put(b)
            }
        }
        body!(@fns $name, |$b| $get);
    };
    (@fns $name:ident, |$b:ident| $get:expr) => {
        impl $name {
            /// Encode to a body in a pooled buffer.
            pub fn encode_in(&self, pool: &Pool) -> Bytes {
                codec::encode_in(self, pool)
            }

            /// Decode from a body; bytes after it are ignored.
            pub fn decode(mut $b: Bytes) -> Option<$name> {
                $get
            }
        }
    };
}

body! {
    /// SET request body: install `key -> value` at `version`.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SetReq {
        /// Client-nominated version.
        pub version: VersionNumber,
        /// The key.
        pub key: Bytes,
        /// The value.
        pub value: Bytes,
    }
}

impl SetReq {
    /// Encode to an unpooled body, the same bytes as [`Self::encode_in`].
    /// Kept for the benchmark's pinned API.
    pub fn encode(&self) -> Bytes {
        codec::encode(self)
    }
}

body! {
    /// ERASE request body.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct EraseReq {
        /// Client-nominated version for the tombstone.
        pub version: VersionNumber,
        /// The key.
        pub key: Bytes,
    }
}

body! {
    /// CAS request body: install `value` at `new_version` iff the stored
    /// version equals `expected`.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct CasReq {
        /// Version the caller believes is stored (memoized from a prior op).
        pub expected: VersionNumber,
        /// Version to install on success.
        pub new_version: VersionNumber,
        /// The key.
        pub key: Bytes,
        /// The replacement value.
        pub value: Bytes,
    }
}

body! {
    /// GET_RPC / FETCH_BY_HASH response body: the stored pair.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct GetResp {
        /// The stored version.
        pub version: VersionNumber,
        /// The full key (echoed so hash-based fetches learn it).
        pub key: Bytes,
        /// The value.
        pub value: Bytes,
    }
}

impl GetResp {
    /// Encode to an unpooled body, the same bytes as [`Self::encode_in`].
    /// Kept for the benchmark's pinned API.
    pub fn encode(&self) -> Bytes {
        codec::encode(self)
    }
}

body! {
    /// GET_RPC request body: lookup by full key.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct GetReq {
        /// The key to look up.
        pub key: Bytes,
    }
}

body! {
    /// FETCH_BY_HASH request body.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct FetchByHashReq {
        /// KeyHash to fetch.
        pub key_hash: KeyHash,
    }
}

body! {
    /// Batched access records: the KeyHashes a client recently read via RMA.
    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    pub struct AccessRecords {
        /// Touched hashes.
        pub hashes: Vec<KeyHash>,
    }
}

/// One page of a cohort scan: the (KeyHash, version) pairs of the live
/// entries in its bucket range (§5.4 — "detected via KeyHash exchange to
/// minimize overhead"), then the exact tombstones of keys in that range.
/// The tombstone section is an [`Ext`], so a page without tombstones is
/// the original format.
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

body! {
    ScanPage: put |m| (m.page, m.done, &m.pairs, Ext(m.tombstones.iter())),
    get |b| Some(ScanPage {
        page: Wire::get(&mut b)?,
        done: Wire::get(&mut b)?,
        pairs: Wire::get(&mut b)?,
        tombstones: get_ext(&mut b, |t| t)?,
    })
}

body! {
    /// A scan request: which page of the shard's key space to return.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct ScanReq {
        /// Page number (fixed page size at the server).
        pub page: u32,
    }
}

/// A chunk of a shard handing off to a warm spare (§6.1). The final chunk
/// carries the identity the receiver adopts: the shard number and the new
/// cell config id. Keys erased while the handoff was open ride an [`Ext`],
/// so a chunk without erases is the original format.
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

body! {
    MigrateChunk: put |m| (
        (m.last, m.shard, m.new_config_id),
        Seq(m.entries.iter().map(|(k, v, ver)| (ver, k, v))),
        Ext(m.erased.iter().map(|(k, ver)| (ver, k))),
    ),
    get |b| Some(MigrateChunk {
        last: Wire::get(&mut b)?,
        shard: Wire::get(&mut b)?,
        new_config_id: Wire::get(&mut b)?,
        entries: get_seq(&mut b, |(ver, k, v)| (k, v, ver))?,
        erased: get_ext(&mut b, |(ver, k)| (k, ver))?,
    })
}

/// MULTI_GET_RPC / MSG_MULTI_GET request body: every key of one batch
/// destined for one replica host, in sub-op order; on the wire, one
/// counted run of (sub, key).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MultiGetReq {
    /// Per-sub-op tags, echoed verbatim in the response so the client can
    /// demux without positional bookkeeping surviving reordering.
    pub subs: Vec<u64>,
    /// The keys, parallel to `subs`.
    pub keys: Vec<Bytes>,
}

body! {
    MultiGetReq: put |m| Seq(m.subs.iter().zip(&m.keys)),
    get |b| {
        let n = get_count::<(u64, Bytes)>(&mut b)?;
        let (mut subs, mut keys) = (Vec::with_capacity(n), Vec::with_capacity(n));
        for _ in 0..n {
            let (sub, key) = Wire::get(&mut b)?;
            subs.push(sub);
            keys.push(key);
        }
        Some(MultiGetReq { subs, keys })
    }
}

rpc::wire_struct! {
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
}

body! {
    /// MULTI_GET_RPC / MSG_MULTI_GET response body: one status vector for
    /// the whole batch in one pooled frame.
    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    pub struct MultiGetResp {
        /// Per-sub-op results, in request order.
        pub entries: Vec<MultiGetEntry>,
    }
}

/// MULTI_SET request body: every (key, value, version) of one batch
/// destined for one replica, in sub-op order; on the wire, one counted run
/// of (sub, version, key, value).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MultiSetReq {
    /// Per-sub-op tags, echoed in the response status vector's order.
    pub subs: Vec<u64>,
    /// (key, value, client-nominated version) triples, parallel to `subs`.
    pub entries: Vec<(Bytes, Bytes, VersionNumber)>,
}

body! {
    MultiSetReq: put |m| Seq(
        m.subs.iter().zip(&m.entries).map(|(sub, (k, v, ver))| (sub, ver, k, v)),
    ),
    get |b| {
        let n = get_count::<(u64, VersionNumber, Bytes, Bytes)>(&mut b)?;
        let (mut subs, mut entries) = (Vec::with_capacity(n), Vec::with_capacity(n));
        for _ in 0..n {
            let (sub, ver, k, v) = Wire::get(&mut b)?;
            subs.push(sub);
            entries.push((k, v, ver));
        }
        Some(MultiSetReq { subs, entries })
    }
}

body! {
    /// MULTI_SET response body: one `rpc::Status` byte per sub-op, tagged.
    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    pub struct MultiSetResp {
        /// (echoed sub tag, `rpc::Status` as u8) per sub-op, request order.
        pub statuses: Vec<(u64, u8)>,
    }
}

body! {
    /// PREPARE_MAINTENANCE body: where to migrate.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct PrepareMaintenance {
        /// NodeId of the warm spare that will take over this shard.
        pub spare_node: u32,
    }
}

body! {
    /// Geometry advertised at CONNECT time: everything a client needs to
    /// issue RMA reads against this backend. An index of no buckets is not
    /// one (a client addresses a key's bucket modulo the bucket count), so
    /// it does not decode.
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
    if |g| g.num_buckets != 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BufMut;

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

    /// A fixed sample of every body and both envelopes, byte for byte as
    /// the hand-written encoders that preceded the field codec wrote them.
    #[test]
    fn every_body_keeps_its_wire_bytes() {
        use crate::config::{CellConfig, ReplicationMode};
        let pool = Pool::new();
        let b = Bytes::from_static;
        let v = VersionNumber::new(1, 2, 3);
        let w = VersionNumber::new(4, 5, 6);
        let geometry = Geometry {
            config_id: 1,
            index_window: 2,
            index_generation: 3,
            num_buckets: 64,
            assoc: 14,
            data_window: 4,
            data_generation: 5,
            shard: 6,
        };
        let config = CellConfig {
            config_id: 5,
            replication: ReplicationMode::R32,
            shards: vec![10, 11, 12],
            spares: vec![13],
        };
        let request = rpc::Request {
            version: rpc::PROTOCOL_VERSION,
            method: method::SET,
            id: 0x1122,
            auth: 7,
            deadline_ns: 1_000,
            body: b(b"body"),
        };
        let response = rpc::Response {
            version: rpc::PROTOCOL_VERSION,
            status: rpc::Status::VersionRejected,
            id: 99,
            body: b(b"resp"),
        };
        let frames: [(&str, Bytes, &str); 19] = [
            (
                "SetReq",
                SetReq {
                    key: b(b"key"),
                    value: b(b"value"),
                    version: v,
                }
                .encode_in(&pool),
                "03000000020000000100000000000000030000006b65790500000076616c7565",
            ),
            (
                "EraseReq",
                EraseReq {
                    key: b(b"gone"),
                    version: w,
                }
                .encode_in(&pool),
                "0600000005000000040000000000000004000000676f6e65",
            ),
            (
                "CasReq",
                CasReq {
                    key: b(b"k"),
                    value: b(b"new"),
                    expected: v,
                    new_version: w,
                }
                .encode_in(&pool),
                "0300000002000000010000000000000006000000050000000400000000000000\
                 010000006b030000006e6577",
            ),
            (
                "GetResp",
                GetResp {
                    key: b(b"k"),
                    value: b(b"found"),
                    version: v,
                }
                .encode_in(&pool),
                "03000000020000000100000000000000010000006b05000000666f756e64",
            ),
            (
                "GetReq",
                GetReq { key: b(b"lookup") }.encode_in(&pool),
                "060000006c6f6f6b7570",
            ),
            (
                "FetchByHashReq",
                FetchByHashReq {
                    key_hash: 0x0102_0304,
                }
                .encode_in(&pool),
                "04030201000000000000000000000000",
            ),
            (
                "AccessRecords",
                AccessRecords {
                    hashes: vec![1, u128::MAX],
                }
                .encode_in(&pool),
                "0200000001000000000000000000000000000000ffffffffffffffffffffffffffffffff",
            ),
            ("ScanReq", ScanReq { page: 7 }.encode_in(&pool), "07000000"),
            (
                "ScanPage",
                ScanPage {
                    page: 3,
                    done: true,
                    pairs: vec![(5, v)],
                    tombstones: vec![(6, w)],
                }
                .encode_in(&pool),
                "0300000001010000000500000000000000000000000000000003000000020000\
                 0001000000000000000100000006000000000000000000000000000000060000\
                 00050000000400000000000000",
            ),
            (
                "MigrateChunk",
                MigrateChunk {
                    last: true,
                    shard: 2,
                    new_config_id: 9,
                    entries: vec![(b(b"a"), b(b"1"), v)],
                    erased: vec![(b(b"b"), w)],
                }
                .encode_in(&pool),
                "0102000000090000000100000003000000020000000100000000000000010000\
                 0061010000003101000000060000000500000004000000000000000100000062",
            ),
            (
                "MultiGetReq",
                MultiGetReq {
                    subs: vec![10, 11],
                    keys: vec![b(b"a"), b(b"bb")],
                }
                .encode_in(&pool),
                "020000000a0000000000000001000000610b00000000000000020000006262",
            ),
            (
                "MultiGetResp",
                MultiGetResp {
                    entries: vec![
                        MultiGetEntry {
                            sub: 10,
                            status: 0,
                            version: v,
                            value: b(b"v"),
                        },
                        MultiGetEntry {
                            sub: 11,
                            status: 1,
                            version: VersionNumber::ZERO,
                            value: Bytes::new(),
                        },
                    ],
                }
                .encode_in(&pool),
                "020000000a000000000000000003000000020000000100000000000000010000\
                 00760b00000000000000010000000000000000000000000000000000000000",
            ),
            (
                "MultiSetReq",
                MultiSetReq {
                    subs: vec![7],
                    entries: vec![(b(b"k"), b(b"v"), w)],
                }
                .encode_in(&pool),
                "0100000007000000000000000600000005000000040000000000000001000000\
                 6b0100000076",
            ),
            (
                "MultiSetResp",
                MultiSetResp {
                    statuses: vec![(7, 0), (8, 2)],
                }
                .encode_in(&pool),
                "02000000070000000000000000080000000000000002",
            ),
            (
                "PrepareMaintenance",
                PrepareMaintenance { spare_node: 42 }.encode_in(&pool),
                "2a000000",
            ),
            (
                "Geometry",
                geometry.encode_in(&pool),
                "01000000020000000300000040000000000000000e00040000000500000006000000",
            ),
            (
                "CellConfig",
                config.encode(),
                "0500000003030000000a0000000b0000000c000000010000000d000000",
            ),
            (
                "rpc::Request",
                rpc::encode_request(&request),
                "5052010300020022110000000000000700000000000000e80300000000000004000000626f6479",
            ),
            (
                "rpc::Response",
                rpc::encode_response_in(&response, &pool),
                "50520203000263000000000000000400000072657370",
            ),
        ];
        for (name, frame, golden) in frames {
            let hex: String = frame.iter().map(|x| format!("{x:02x}")).collect();
            assert_eq!(hex, golden, "{name}");
        }
    }
}
