//! RPC wire format: one field codec, and the envelope written in it.
//!
//! [`Wire`] gives each field type one wire form: integers little-endian,
//! a `bool` and a [`Status`] as one byte, [`Bytes`] as a `u32` length and
//! the bytes, a sequence ([`Seq`], `Vec<T>`) as a `u32` count and the
//! items, a tuple as its fields in order. A message is its fields in wire
//! order ([`wire_struct!`](crate::wire_struct)), so its length, its
//! encoder and its decoder follow from one field list, and every decoder
//! survives truncation and corruption by construction: each field checks
//! the bytes it needs, and a sequence's count is checked against
//! [`Wire::MIN_LEN`] bytes an item before anything is allocated for it.
//!
//! Evolution: a decoder reads the prefix it understands and ignores the
//! bytes after it, so a newer peer may append fields that an older peer
//! skips — how the paper evolves its protocol "over a hundred" times
//! without lockstep upgrades. A field appended to a message that has
//! shipped is an [`Ext`]: written only when it is not empty, so a message
//! without it is byte for byte the older format.
//!
//! The envelope (all integers little-endian) carries the productionization
//! fields CliqueMap's paper credits RPC frameworks for: a protocol version,
//! an authentication stamp (ALTS-like), a method id and a deadline.
//!
//! ```text
//! Request:  magic u16 | kind u8 | version u16 | method u16 | id u64 |
//!           auth u64 | deadline_ns u64 | body_len u32 | body...
//! Response: magic u16 | kind u8 | version u16 | status u8 | id u64 |
//!           body_len u32 | body...
//! ```

use bytes::{Buf, BufMut, Bytes, BytesMut, Pool};

/// The writing half of [`Wire`]. References and views implement it too —
/// [`Seq`] and [`Ext`] over an iterator, tuples of references — so a
/// message can write fields it stores in another shape without copying
/// them.
pub trait Put {
    /// Exact length of the wire form.
    fn wire_len(&self) -> usize;
    /// Appends the wire form to `b`.
    fn put(&self, b: &mut BytesMut);
}

/// A field type with one wire form.
pub trait Wire: Put + Sized {
    /// The fewest bytes any value takes on the wire: what a sequence's
    /// count is checked against before it sizes an allocation.
    const MIN_LEN: usize;
    /// Reads a value off the front of `b`; `None` if `b` ends first or
    /// holds no valid value.
    fn get(b: &mut Bytes) -> Option<Self>;
}

/// `v` alone in an unpooled buffer of exactly its wire length
/// (control-plane one-shots; also the forms the benchmark pins).
pub fn encode(v: &impl Put) -> Bytes {
    let mut b = BytesMut::with_capacity(v.wire_len());
    v.put(&mut b);
    b.freeze()
}

/// `v` alone in a buffer from `pool` of exactly its wire length (the hot
/// path: the frame recycles into `pool` when the receiver drops it).
pub fn encode_in(v: &impl Put, pool: &Pool) -> Bytes {
    let mut b = pool.get(v.wire_len());
    v.put(&mut b);
    b.freeze()
}

macro_rules! ints {
    ($($t:ty: $put:ident, $get:ident;)*) => {$(
        impl Put for $t {
            #[inline]
            fn wire_len(&self) -> usize {
                Self::MIN_LEN
            }
            #[inline]
            fn put(&self, b: &mut BytesMut) {
                b.$put(*self);
            }
        }

        impl Wire for $t {
            const MIN_LEN: usize = std::mem::size_of::<$t>();
            #[inline]
            fn get(b: &mut Bytes) -> Option<Self> {
                (b.len() >= Self::MIN_LEN).then(|| b.$get())
            }
        }
    )*};
}

ints! {
    u8: put_u8, get_u8;
    u16: put_u16_le, get_u16_le;
    u32: put_u32_le, get_u32_le;
    u64: put_u64_le, get_u64_le;
    u128: put_u128_le, get_u128_le;
}

macro_rules! one_byte {
    ($($t:ty: $from_u8:expr;)*) => {$(
        impl Put for $t {
            #[inline]
            fn wire_len(&self) -> usize {
                Self::MIN_LEN
            }
            #[inline]
            fn put(&self, b: &mut BytesMut) {
                (*self as u8).put(b);
            }
        }

        impl Wire for $t {
            const MIN_LEN: usize = u8::MIN_LEN;
            #[inline]
            fn get(b: &mut Bytes) -> Option<Self> {
                u8::get(b).map($from_u8)
            }
        }
    )*};
}

one_byte! {
    bool: |v| v != 0;
    Status: Status::from_u8;
}

impl Put for Bytes {
    #[inline]
    fn wire_len(&self) -> usize {
        Self::MIN_LEN + self.len()
    }
    #[inline]
    fn put(&self, b: &mut BytesMut) {
        (self.len() as u32).put(b);
        b.put_slice(self);
    }
}

impl Wire for Bytes {
    const MIN_LEN: usize = u32::MIN_LEN;
    #[inline]
    fn get(b: &mut Bytes) -> Option<Self> {
        let len = u32::get(b)? as usize;
        (b.len() >= len).then(|| b.split_to(len))
    }
}

impl<T: Put + ?Sized> Put for &T {
    #[inline]
    fn wire_len(&self) -> usize {
        (**self).wire_len()
    }
    #[inline]
    fn put(&self, b: &mut BytesMut) {
        (**self).put(b);
    }
}

macro_rules! tuples {
    ($(($($t:ident $i:tt),+))*) => {$(
        impl<$($t: Put),+> Put for ($($t,)+) {
            #[inline]
            fn wire_len(&self) -> usize {
                0 $(+ self.$i.wire_len())+
            }
            #[inline]
            fn put(&self, b: &mut BytesMut) {
                $(self.$i.put(b);)+
            }
        }

        impl<$($t: Wire),+> Wire for ($($t,)+) {
            const MIN_LEN: usize = 0 $(+ $t::MIN_LEN)+;
            #[inline]
            fn get(b: &mut Bytes) -> Option<Self> {
                Some(($($t::get(b)?,)+))
            }
        }
    )*};
}

tuples! {
    (A 0, B 1)
    (A 0, B 1, C 2)
    (A 0, B 1, C 2, D 3)
}

/// A sequence as a `u32` count and each item: the wire form of every
/// `Vec<T>`, and a view that writes one a message stores in another shape
/// (parallel vectors, tuples in another order) without copying it.
pub struct Seq<I>(pub I);

impl<I> Put for Seq<I>
where
    I: ExactSizeIterator + Clone,
    I::Item: Put,
{
    #[inline]
    fn wire_len(&self) -> usize {
        u32::MIN_LEN + self.0.clone().map(|x| x.wire_len()).sum::<usize>()
    }
    #[inline]
    fn put(&self, b: &mut BytesMut) {
        (self.0.len() as u32).put(b);
        self.0.clone().for_each(|x| x.put(b));
    }
}

/// A sequence appended to a message after it shipped: written only when it
/// is not empty, so a message without it is byte for byte the older
/// format; read back by [`get_ext`].
pub struct Ext<I>(pub I);

impl<I> Ext<I>
where
    I: ExactSizeIterator + Clone,
{
    fn seq(&self) -> Option<Seq<I>> {
        (self.0.len() != 0).then(|| Seq(self.0.clone()))
    }
}

impl<I> Put for Ext<I>
where
    I: ExactSizeIterator + Clone,
    I::Item: Put,
{
    #[inline]
    fn wire_len(&self) -> usize {
        self.seq().map_or(0, |s| s.wire_len())
    }
    #[inline]
    fn put(&self, b: &mut BytesMut) {
        if let Some(s) = self.seq() {
            s.put(b);
        }
    }
}

impl<T: Put> Put for Vec<T> {
    #[inline]
    fn wire_len(&self) -> usize {
        Seq(self.iter()).wire_len()
    }
    #[inline]
    fn put(&self, b: &mut BytesMut) {
        Seq(self.iter()).put(b);
    }
}

impl<T: Wire> Wire for Vec<T> {
    const MIN_LEN: usize = u32::MIN_LEN;
    #[inline]
    fn get(b: &mut Bytes) -> Option<Self> {
        get_seq(b, |x: T| x)
    }
}

/// Reads a sequence's `u32` count; `None` if the rest of `b` cannot hold
/// that many `T` at [`Wire::MIN_LEN`] bytes each, so a lying count sizes no
/// allocation.
#[inline]
pub fn get_count<T: Wire>(b: &mut Bytes) -> Option<usize> {
    let n = u32::get(b)? as usize;
    (b.len() >= n.saturating_mul(T::MIN_LEN)).then_some(n)
}

/// Reads a sequence of `T`, shaping each item with `f` (the inverse of the
/// view that wrote it).
#[inline]
pub fn get_seq<T: Wire, U>(b: &mut Bytes, mut f: impl FnMut(T) -> U) -> Option<Vec<U>> {
    let n = get_count::<T>(b)?;
    let mut items = Vec::with_capacity(n);
    for _ in 0..n {
        items.push(f(T::get(b)?));
    }
    Some(items)
}

/// Reads an [`Ext`]: empty when the message ends before it.
#[inline]
pub fn get_ext<T: Wire, U>(b: &mut Bytes, f: impl FnMut(T) -> U) -> Option<Vec<U>> {
    if b.is_empty() {
        Some(Vec::new())
    } else {
        get_seq(b, f)
    }
}

/// Declares a message struct whose fields, in declaration order, are its
/// wire form, and implements [`Put`] and [`Wire`] for it from that one
/// field list. A trailing `if |m| <condition>` rejects a decoded value
/// that is not one. The calling crate depends on `bytes`.
#[macro_export]
macro_rules! wire_struct {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $($(#[$fmeta:meta])* pub $field:ident: $ty:ty),* $(,)?
        }
        $(if |$m:ident| $valid:expr)?
    ) => {
        $(#[$meta])*
        pub struct $name {
            $($(#[$fmeta])* pub $field: $ty,)*
        }

        impl $crate::codec::Put for $name {
            #[inline]
            fn wire_len(&self) -> usize {
                0 $(+ $crate::codec::Put::wire_len(&self.$field))*
            }
            #[inline]
            fn put(&self, b: &mut ::bytes::BytesMut) {
                $($crate::codec::Put::put(&self.$field, b);)*
            }
        }

        impl $crate::codec::Wire for $name {
            const MIN_LEN: usize = 0 $(+ <$ty as $crate::codec::Wire>::MIN_LEN)*;
            #[inline]
            fn get(b: &mut ::bytes::Bytes) -> Option<Self> {
                let value = $name {
                    $($field: $crate::codec::Wire::get(b)?,)*
                };
                $(let $m = &value; if !$valid { return None; })?
                Some(value)
            }
        }
    };
}

/// Magic tag identifying RPC envelopes (vs. RMA frames sharing the fabric).
pub const RPC_MAGIC: u16 = 0x5250; // "RP"

/// Envelope kind: request.
pub const KIND_REQUEST: u8 = 1;
/// Envelope kind: response.
pub const KIND_RESPONSE: u8 = 2;

/// Current protocol version spoken by this build.
pub const PROTOCOL_VERSION: u16 = 3;
/// Oldest protocol version this build still accepts.
pub const MIN_PROTOCOL_VERSION: u16 = 1;

/// Result status of an RPC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Status {
    /// Success.
    Ok = 0,
    /// Key (or other addressed entity) not found.
    NotFound = 1,
    /// The server refused the proposed version (stale mutation).
    VersionRejected = 2,
    /// Server temporarily overloaded; retry after backoff.
    Overloaded = 3,
    /// Peer speaks an incompatible protocol version.
    ProtocolMismatch = 4,
    /// Authentication stamp rejected.
    Unauthenticated = 5,
    /// The addressed shard moved (client must refresh configuration).
    WrongShard = 6,
    /// Mutations stalled (e.g. index resize in progress); retry.
    Stalled = 7,
    /// Catch-all server error.
    Internal = 8,
}

impl Status {
    /// Decode from a wire byte.
    pub fn from_u8(v: u8) -> Status {
        match v {
            0 => Status::Ok,
            1 => Status::NotFound,
            2 => Status::VersionRejected,
            3 => Status::Overloaded,
            4 => Status::ProtocolMismatch,
            5 => Status::Unauthenticated,
            6 => Status::WrongShard,
            7 => Status::Stalled,
            _ => Status::Internal,
        }
    }
}

wire_struct! {
    /// A decoded RPC request.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Request {
        /// Protocol version the client speaks.
        pub version: u16,
        /// Method id (application-defined).
        pub method: u16,
        /// Call id, unique per (client, connection).
        pub id: u64,
        /// Authentication stamp (ALTS-like identity token).
        pub auth: u64,
        /// Absolute deadline in simulation nanoseconds (0 = none).
        pub deadline_ns: u64,
        /// Method payload.
        pub body: Bytes,
    }
}

wire_struct! {
    /// A decoded RPC response.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Response {
        /// Protocol version the server speaks.
        pub version: u16,
        /// Result status.
        pub status: Status,
        /// Echoed call id.
        pub id: u64,
        /// Method payload.
        pub body: Bytes,
    }
}

/// Encode a request envelope into an unpooled buffer (control-plane
/// one-shots; also the form the benchmark pins).
pub fn encode_request(req: &Request) -> Bytes {
    encode(&(RPC_MAGIC, KIND_REQUEST, req))
}

/// Encode a request envelope into a pooled buffer (the hot path: the frame
/// recycles into `pool` when the receiver drops it).
pub fn encode_request_in(req: &Request, pool: &Pool) -> Bytes {
    encode_in(&(RPC_MAGIC, KIND_REQUEST, req), pool)
}

/// Encode a response envelope into a pooled buffer.
pub fn encode_response_in(resp: &Response, pool: &Pool) -> Bytes {
    encode_in(&(RPC_MAGIC, KIND_RESPONSE, resp), pool)
}

/// Anything that can arrive on an RPC channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Envelope {
    /// A request from a client.
    Request(Request),
    /// A response from a server.
    Response(Response),
}

/// Decode an envelope; `None` for anything that is not a well-formed RPC
/// frame (other protocols share the fabric — callers try decoders in turn).
/// Bytes after the body are a newer peer's extension and are ignored.
pub fn decode(mut buf: Bytes) -> Option<Envelope> {
    if u16::get(&mut buf)? != RPC_MAGIC {
        return None;
    }
    match u8::get(&mut buf)? {
        KIND_REQUEST => Request::get(&mut buf).map(Envelope::Request),
        KIND_RESPONSE => Response::get(&mut buf).map(Envelope::Response),
        _ => None,
    }
}

/// Whether a peer protocol version is acceptable to this build.
pub fn version_compatible(peer: u16) -> bool {
    peer >= MIN_PROTOCOL_VERSION
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> Request {
        Request {
            version: PROTOCOL_VERSION,
            method: 7,
            id: 0xDEAD_BEEF,
            auth: 42,
            deadline_ns: 1_000_000,
            body: Bytes::from_static(b"hello world"),
        }
    }

    #[test]
    fn request_roundtrip() {
        let req = sample_request();
        let wire = encode_request(&req);
        match decode(wire) {
            Some(Envelope::Request(got)) => assert_eq!(got, req),
            other => panic!("bad decode: {other:?}"),
        }
    }

    #[test]
    fn response_roundtrip() {
        let resp = Response {
            version: PROTOCOL_VERSION,
            status: Status::VersionRejected,
            id: 99,
            body: Bytes::from_static(&[1, 2, 3]),
        };
        let wire = encode_response_in(&resp, &Pool::new());
        match decode(wire) {
            Some(Envelope::Response(got)) => assert_eq!(got, resp),
            other => panic!("bad decode: {other:?}"),
        }
    }

    #[test]
    fn empty_body_roundtrip() {
        let mut req = sample_request();
        req.body = Bytes::new();
        let wire = encode_request(&req);
        assert!(matches!(decode(wire), Some(Envelope::Request(r)) if r.body.is_empty()));
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(decode(Bytes::from_static(b"")), None);
        assert_eq!(decode(Bytes::from_static(b"xx")), None);
        assert_eq!(decode(Bytes::from_static(b"\x00\x00\x01garbage")), None);
        // Right magic, bad kind.
        let mut b = BytesMut::new();
        b.put_u16_le(RPC_MAGIC);
        b.put_u8(9);
        assert_eq!(decode(b.freeze()), None);
    }

    #[test]
    fn rejects_truncated_body() {
        let req = sample_request();
        let wire = encode_request(&req);
        let truncated = wire.slice(0..wire.len() - 3);
        assert_eq!(decode(truncated), None);
    }

    #[test]
    fn tolerates_trailing_extension() {
        // A future version appends bytes after the body; old decoders must
        // still parse the prefix they understand.
        let req = sample_request();
        let mut wire = BytesMut::from(&encode_request(&req)[..]);
        wire.extend_from_slice(b"future-extension-fields");
        match decode(wire.freeze()) {
            Some(Envelope::Request(got)) => assert_eq!(got, req),
            other => panic!("bad decode: {other:?}"),
        }
    }

    #[test]
    fn pooled_encode_matches_plain_and_recycles() {
        let pool = Pool::new();
        let req = sample_request();
        let pooled = encode_request_in(&req, &pool);
        assert_eq!(pooled, encode_request(&req));
        let resp = Response {
            version: PROTOCOL_VERSION,
            status: Status::Ok,
            id: 7,
            body: Bytes::from_static(b"payload"),
        };
        let pooled_resp = encode_response_in(&resp, &pool);
        drop(pooled);
        drop(pooled_resp);
        assert_eq!(pool.idle_buffers(), 2, "frames recycle on drop");
    }

    #[test]
    fn status_codes_roundtrip() {
        for v in 0..=8u8 {
            let s = Status::from_u8(v);
            assert_eq!(s as u8, v);
        }
        assert_eq!(Status::from_u8(200), Status::Internal);
    }

    #[test]
    fn version_compatibility_window() {
        assert!(version_compatible(PROTOCOL_VERSION));
        assert!(version_compatible(MIN_PROTOCOL_VERSION));
        assert!(!version_compatible(0));
    }
}
