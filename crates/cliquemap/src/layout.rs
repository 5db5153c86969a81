//! Backend memory layout (paper Figure 1): the index region's Buckets of
//! IndexEntries, and the data region's self-validating DataEntries.
//!
//! Everything here operates on raw byte slices, because this is exactly the
//! data a remote NIC reads: clients and SCAR programs parse whatever bytes
//! were in memory at the instant of the read — possibly a torn, mid-mutation
//! state. The checksum at the tail of every DataEntry is what makes such
//! reads *detectable* rather than *dangerous*.
//!
//! ```text
//! IndexEntry (52B):  key_hash u128 | version u128 | ptr{window u32,
//!                    generation u32, offset u64, len u32}
//! Bucket:            header{config_id u32, flags u8, pad[3]} | entries[A]
//! DataEntry:         key_len u16 | data_len u32 | version u128 |
//!                    key[key_len] | data[data_len] | checksum u64
//! ```

use rma::WindowId;

use crate::hash::KeyHash;
use crate::version::VersionNumber;

/// Size of one serialized IndexEntry.
pub const INDEX_ENTRY_BYTES: usize = 52;
/// Size of the per-bucket header.
pub const BUCKET_HEADER_BYTES: usize = 8;
/// Fixed part of a DataEntry before key/data.
pub const DATA_ENTRY_HEADER_BYTES: usize = 2 + 4 + 16;
/// Trailing checksum size.
pub const CHECKSUM_BYTES: usize = 8;
/// Bucket flag bit: set when the bucket has overflowed (RPC fallback hint).
pub const BUCKET_FLAG_OVERFLOW: u8 = 0x01;

/// Total serialized size of a DataEntry holding `key_len` + `data_len`.
pub fn data_entry_size(key_len: usize, data_len: usize) -> usize {
    DATA_ENTRY_HEADER_BYTES + key_len + data_len + CHECKSUM_BYTES
}

/// Total serialized size of a bucket with `assoc` entries.
pub fn bucket_size(assoc: usize) -> usize {
    BUCKET_HEADER_BYTES + assoc * INDEX_ENTRY_BYTES
}

/// A pointer from an IndexEntry into the data region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Pointer {
    /// RMA window holding the DataEntry.
    pub window: u32,
    /// Expected generation of that window.
    pub generation: u32,
    /// Byte offset of the DataEntry within the window.
    pub offset: u64,
    /// Serialized DataEntry length.
    pub len: u32,
}

impl Pointer {
    /// The window as a typed id.
    pub fn window_id(&self) -> WindowId {
        WindowId(self.window)
    }
}

/// One slot in a bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IndexEntry {
    /// KeyHash of the stored pair; zero marks a vacant slot.
    pub key_hash: KeyHash,
    /// Version of the stored pair.
    pub version: VersionNumber,
    /// Location of the DataEntry.
    pub ptr: Pointer,
}

impl IndexEntry {
    /// Whether this slot holds a live entry.
    pub fn is_occupied(&self) -> bool {
        self.key_hash != 0
    }

    /// Serialize into exactly [`INDEX_ENTRY_BYTES`] at `out`.
    pub fn encode_into(&self, out: &mut [u8]) {
        assert_eq!(out.len(), INDEX_ENTRY_BYTES);
        out[0..16].copy_from_slice(&self.key_hash.to_le_bytes());
        out[16..32].copy_from_slice(&self.version.to_bytes());
        out[32..36].copy_from_slice(&self.ptr.window.to_le_bytes());
        out[36..40].copy_from_slice(&self.ptr.generation.to_le_bytes());
        out[40..48].copy_from_slice(&self.ptr.offset.to_le_bytes());
        out[48..52].copy_from_slice(&self.ptr.len.to_le_bytes());
    }

    /// Parse from exactly [`INDEX_ENTRY_BYTES`].
    pub fn decode(raw: &[u8]) -> IndexEntry {
        assert_eq!(raw.len(), INDEX_ENTRY_BYTES);
        IndexEntry {
            key_hash: u128::from_le_bytes(raw[0..16].try_into().unwrap()),
            version: VersionNumber::from_bytes(raw[16..32].try_into().unwrap()),
            ptr: Pointer {
                window: u32::from_le_bytes(raw[32..36].try_into().unwrap()),
                generation: u32::from_le_bytes(raw[36..40].try_into().unwrap()),
                offset: u64::from_le_bytes(raw[40..48].try_into().unwrap()),
                len: u32::from_le_bytes(raw[48..52].try_into().unwrap()),
            },
        }
    }
}

/// Read a bucket's config id from its header.
pub fn bucket_config_id(bucket: &[u8]) -> u32 {
    u32::from_le_bytes(bucket[0..4].try_into().unwrap())
}

/// Write a bucket's config id.
pub fn set_bucket_config_id(bucket: &mut [u8], config_id: u32) {
    bucket[0..4].copy_from_slice(&config_id.to_le_bytes());
}

/// Read a bucket's flags byte.
pub fn bucket_flags(bucket: &[u8]) -> u8 {
    bucket[4]
}

/// Set or clear the overflow flag.
pub fn set_bucket_overflow(bucket: &mut [u8], overflowed: bool) {
    if overflowed {
        bucket[4] |= BUCKET_FLAG_OVERFLOW;
    } else {
        bucket[4] &= !BUCKET_FLAG_OVERFLOW;
    }
}

/// Whether a fetched bucket advertises overflow (RPC-fallback hint, §4.2).
pub fn bucket_overflowed(bucket: &[u8]) -> bool {
    bucket_flags(bucket) & BUCKET_FLAG_OVERFLOW != 0
}

/// Number of entry slots in a bucket byte slice.
pub fn bucket_assoc(bucket: &[u8]) -> usize {
    (bucket.len().saturating_sub(BUCKET_HEADER_BYTES)) / INDEX_ENTRY_BYTES
}

/// Borrow the raw bytes of slot `i`.
pub fn bucket_slot(bucket: &[u8], i: usize) -> &[u8] {
    let at = BUCKET_HEADER_BYTES + i * INDEX_ENTRY_BYTES;
    &bucket[at..at + INDEX_ENTRY_BYTES]
}

/// Mutably borrow the raw bytes of slot `i`.
pub fn bucket_slot_mut(bucket: &mut [u8], i: usize) -> &mut [u8] {
    let at = BUCKET_HEADER_BYTES + i * INDEX_ENTRY_BYTES;
    &mut bucket[at..at + INDEX_ENTRY_BYTES]
}

/// Scan a bucket for `key_hash`. Returns `(slot, entry, entries_scanned)`;
/// used identically by the client-side 2×R scan and the NIC-side SCAR
/// program.
pub fn scan_bucket(bucket: &[u8], key_hash: KeyHash) -> (Option<(usize, IndexEntry)>, usize) {
    let n = bucket_assoc(bucket);
    for i in 0..n {
        let e = IndexEntry::decode(bucket_slot(bucket, i));
        if e.key_hash == key_hash && e.is_occupied() {
            return (Some((i, e)), i + 1);
        }
    }
    (None, n)
}

/// [`scan_bucket`] over a bucket held in two pieces, `head` then `tail` —
/// how the index region holds one (its stored room, then the template) —
/// with the answer the joined bytes give: the slot a room's end cuts is
/// joined on the stack, and a miss has scanned every slot of both.
pub fn scan_bucket_parts(
    head: &[u8],
    tail: &[u8],
    key_hash: KeyHash,
) -> (Option<(usize, IndexEntry)>, usize) {
    let n = (head.len() + tail.len()).saturating_sub(BUCKET_HEADER_BYTES) / INDEX_ENTRY_BYTES;
    let whole = bucket_assoc(head).min(n);
    if let (Some(hit), scanned) = scan_bucket(&head[..bucket_size(whole).min(head.len())], key_hash)
    {
        return (Some(hit), scanned);
    }
    let mut joined = [0u8; INDEX_ENTRY_BYTES];
    for i in whole..n {
        let at = bucket_size(i);
        let raw = match at.checked_sub(head.len()) {
            Some(past) => &tail[past..past + INDEX_ENTRY_BYTES],
            None => {
                let (first, second) = joined.split_at_mut(head.len() - at);
                first.copy_from_slice(&head[at..]);
                second.copy_from_slice(&tail[..second.len()]);
                &joined
            }
        };
        let e = IndexEntry::decode(raw);
        if e.key_hash == key_hash && e.is_occupied() {
            return (Some((i, e)), i + 1);
        }
    }
    (None, n)
}

/// Find the first vacant slot in a bucket.
pub fn find_vacant(bucket: &[u8]) -> Option<usize> {
    let n = bucket_assoc(bucket);
    (0..n).find(|&i| !IndexEntry::decode(bucket_slot(bucket, i)).is_occupied())
}

/// 64-bit FNV-1a over 8-byte lanes with an avalanche finish — the
/// end-to-end checksum that guards every DataEntry against torn reads.
///
/// Lane-wise rather than byte-wise: one multiply per 8 bytes instead of
/// per byte. The length seeds the state so a short input is never confused
/// with a zero-padded longer one, and the tail lane is zero-padded. Any
/// single differing lane changes the pre-finish state with certainty
/// (multiplication by the odd FNV prime is a bijection mod 2^64); the
/// murmur-style finish then avalanches the difference across all 64 bits.
/// This runs ~8x faster than byte-wise FNV on the multi-KB values every
/// validated GET checksums — the simulator's hottest single loop.
pub fn checksum(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x100000001b3;
    let mut h: u64 = 0xcbf29ce484222325 ^ (bytes.len() as u64).wrapping_mul(PRIME);
    let mut lanes = bytes.chunks_exact(8);
    for lane in &mut lanes {
        h = (h ^ u64::from_le_bytes(lane.try_into().unwrap())).wrapping_mul(PRIME);
    }
    let rem = lanes.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        h = (h ^ u64::from_le_bytes(tail)).wrapping_mul(PRIME);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51afd7ed558ccd);
    h ^ (h >> 29)
}

/// Serialize a DataEntry.
pub fn encode_data_entry(key: &[u8], data: &[u8], version: VersionNumber) -> Vec<u8> {
    let mut out = vec![0; data_entry_size(key.len(), data.len())];
    encode_data_entry_into(&mut out, key, data, version);
    out
}

/// Serialize a DataEntry into `out`, which is [`data_entry_size`] long.
pub fn encode_data_entry_into(out: &mut [u8], key: &[u8], data: &[u8], version: VersionNumber) {
    assert!(key.len() <= u16::MAX as usize, "key too large");
    assert!(data.len() <= u32::MAX as usize, "value too large");
    let (body, sum) = out.split_at_mut(out.len() - CHECKSUM_BYTES);
    let (head, rest) = body.split_at_mut(DATA_ENTRY_HEADER_BYTES);
    let (lens, stamp) = head.split_at_mut(6);
    lens[..2].copy_from_slice(&(key.len() as u16).to_le_bytes());
    lens[2..].copy_from_slice(&(data.len() as u32).to_le_bytes());
    stamp.copy_from_slice(&version.to_bytes());
    let (k, d) = rest.split_at_mut(key.len());
    k.copy_from_slice(key);
    d.copy_from_slice(data);
    sum.copy_from_slice(&checksum(body).to_le_bytes());
}

/// Whether `entry` is the DataEntry [`encode_data_entry`] makes of `key`,
/// `data` and `version` (its checksum follows from them).
pub fn entry_holds(entry: &[u8], key: &[u8], data: &[u8], version: VersionNumber) -> bool {
    let body = DATA_ENTRY_HEADER_BYTES + key.len();
    entry.len() == data_entry_size(key.len(), data.len())
        && entry[..2] == (key.len() as u16).to_le_bytes()
        && entry[2..6] == (data.len() as u32).to_le_bytes()
        && entry[6..DATA_ENTRY_HEADER_BYTES] == version.to_bytes()
        && &entry[DATA_ENTRY_HEADER_BYTES..body] == key
        && &entry[body..body + data.len()] == data
}

/// Validation failures when parsing a fetched DataEntry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryError {
    /// The byte slice is shorter than its own headers claim.
    Truncated,
    /// The trailing checksum does not match — a torn read (or garbage).
    ChecksumMismatch,
}

/// A parsed, checksum-validated DataEntry borrowing from the fetched bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataEntryRef<'a> {
    /// The full stored key.
    pub key: &'a [u8],
    /// The stored value.
    pub data: &'a [u8],
    /// The stored version.
    pub version: VersionNumber,
}

/// Parse and checksum-validate a fetched DataEntry. This is the client's
/// end-to-end self-validation step (§3, step 5a).
pub fn parse_data_entry(raw: &[u8]) -> Result<DataEntryRef<'_>, EntryError> {
    if raw.len() < DATA_ENTRY_HEADER_BYTES + CHECKSUM_BYTES {
        return Err(EntryError::Truncated);
    }
    let key_len = u16::from_le_bytes(raw[0..2].try_into().unwrap()) as usize;
    let data_len = u32::from_le_bytes(raw[2..6].try_into().unwrap()) as usize;
    let total = data_entry_size(key_len, data_len);
    if raw.len() < total {
        return Err(EntryError::Truncated);
    }
    let body = &raw[..total - CHECKSUM_BYTES];
    let stored = u64::from_le_bytes(raw[total - CHECKSUM_BYTES..total].try_into().unwrap());
    if checksum(body) != stored {
        return Err(EntryError::ChecksumMismatch);
    }
    let version = VersionNumber::from_bytes(raw[6..22].try_into().unwrap());
    let key = &raw[22..22 + key_len];
    let data = &raw[22 + key_len..22 + key_len + data_len];
    Ok(DataEntryRef { key, data, version })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_entry_roundtrip() {
        let e = IndexEntry {
            key_hash: 0xAABB_CCDD_0011_2233_4455_6677_8899_AABB,
            version: VersionNumber::new(1_000, 2, 3),
            ptr: Pointer {
                window: 5,
                generation: 9,
                offset: 1 << 33,
                len: 4096,
            },
        };
        let mut raw = [0u8; INDEX_ENTRY_BYTES];
        e.encode_into(&mut raw);
        assert_eq!(IndexEntry::decode(&raw), e);
        assert!(e.is_occupied());
        assert!(!IndexEntry::default().is_occupied());
    }

    #[test]
    fn bucket_header_fields() {
        let mut bucket = vec![0u8; bucket_size(4)];
        set_bucket_config_id(&mut bucket, 77);
        assert_eq!(bucket_config_id(&bucket), 77);
        assert!(!bucket_overflowed(&bucket));
        set_bucket_overflow(&mut bucket, true);
        assert!(bucket_overflowed(&bucket));
        set_bucket_overflow(&mut bucket, false);
        assert!(!bucket_overflowed(&bucket));
        assert_eq!(bucket_assoc(&bucket), 4);
    }

    #[test]
    fn scan_finds_entry_and_counts() {
        let mut bucket = vec![0u8; bucket_size(8)];
        let mut e = IndexEntry {
            key_hash: 42,
            version: VersionNumber::new(1, 1, 1),
            ptr: Pointer::default(),
        };
        e.encode_into(bucket_slot_mut(&mut bucket, 3));
        e.key_hash = 43;
        e.encode_into(bucket_slot_mut(&mut bucket, 5));
        let (hit, scanned) = scan_bucket(&bucket, 42);
        let (slot, entry) = hit.unwrap();
        assert_eq!(slot, 3);
        assert_eq!(entry.key_hash, 42);
        assert_eq!(scanned, 4);
        let (miss, scanned) = scan_bucket(&bucket, 99);
        assert!(miss.is_none());
        assert_eq!(scanned, 8);
        // Vacant slot search skips occupied ones.
        assert_eq!(find_vacant(&bucket), Some(0));
    }

    #[test]
    fn a_bucket_in_two_pieces_scans_as_joined() {
        let mut bucket = vec![0u8; bucket_size(5)];
        for (slot, hash) in [(0, 7), (1, 8), (3, 9)] {
            let e = IndexEntry {
                key_hash: hash,
                version: VersionNumber::new(hash as u64, 1, 1),
                ptr: Pointer::default(),
            };
            e.encode_into(bucket_slot_mut(&mut bucket, slot));
        }
        for cut in 0..=bucket.len() {
            let (head, tail) = bucket.split_at(cut);
            for hash in [7, 8, 9, 10, 0] {
                assert_eq!(
                    scan_bucket_parts(head, tail, hash),
                    scan_bucket(&bucket, hash),
                    "cut {cut}, hash {hash}"
                );
            }
        }
    }

    #[test]
    fn scan_ignores_hash_zero() {
        let bucket = vec![0u8; bucket_size(4)];
        let (hit, _) = scan_bucket(&bucket, 0);
        assert!(hit.is_none(), "vacant slots must not match hash 0");
    }

    #[test]
    fn data_entry_roundtrip() {
        let v = VersionNumber::new(123, 4, 5);
        let raw = encode_data_entry(b"user:77", b"value-bytes", v);
        assert_eq!(raw.len(), data_entry_size(7, 11));
        let parsed = parse_data_entry(&raw).unwrap();
        assert_eq!(parsed.key, b"user:77");
        assert_eq!(parsed.data, b"value-bytes");
        assert_eq!(parsed.version, v);
    }

    #[test]
    fn empty_key_and_value() {
        let raw = encode_data_entry(b"", b"", VersionNumber::ZERO);
        let parsed = parse_data_entry(&raw).unwrap();
        assert!(parsed.key.is_empty());
        assert!(parsed.data.is_empty());
    }

    #[test]
    fn torn_read_detected() {
        let v = VersionNumber::new(9, 9, 9);
        let a = encode_data_entry(b"key", b"AAAAAAAAAAAAAAAA", v);
        let b = encode_data_entry(b"key", b"BBBBBBBBBBBBBBBB", v);
        // A torn read: the new write's prefix (through part of the value)
        // combined with the old entry's suffix and checksum.
        let mut torn = b.clone();
        let cut = a.len() * 3 / 4;
        torn[..cut].copy_from_slice(&a[..cut]);
        assert_eq!(parse_data_entry(&torn), Err(EntryError::ChecksumMismatch));
    }

    #[test]
    fn single_flipped_bit_detected() {
        let raw = encode_data_entry(b"k", b"some value", VersionNumber::new(1, 1, 1));
        for bit in 0..raw.len() * 8 {
            let mut corrupted = raw.clone();
            corrupted[bit / 8] ^= 1 << (bit % 8);
            assert!(
                parse_data_entry(&corrupted).is_err(),
                "flip at bit {bit} went undetected"
            );
        }
    }

    #[test]
    fn truncation_detected() {
        let raw = encode_data_entry(b"key", b"value", VersionNumber::new(1, 1, 1));
        for cut in 0..raw.len() {
            assert!(parse_data_entry(&raw[..cut]).is_err(), "cut at {cut}");
        }
        // Garbage header claiming a huge body.
        let mut junk = vec![0xFFu8; 40];
        junk[0] = 0xFF;
        assert_eq!(parse_data_entry(&junk), Err(EntryError::Truncated));
    }

    #[test]
    fn checksum_avalanches() {
        let a = checksum(b"hello world");
        let b = checksum(b"hello worle");
        assert_ne!(a, b);
        // Differing halves of the 64-bit output.
        assert_ne!(a >> 32, b >> 32);
        assert_ne!(a & 0xFFFF_FFFF, b & 0xFFFF_FFFF);
    }
}
