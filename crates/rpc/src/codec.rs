//! RPC wire format.
//!
//! A hand-rolled binary envelope over `bytes`, with the productionization
//! fields CliqueMap's paper credits RPC frameworks for: a protocol version
//! (forward/backward evolution), an authentication stamp (ALTS-like), a
//! method id, and a deadline. The format is length-explicit so decoding is
//! tolerant of trailing extensions — newer peers may append fields that
//! older peers skip, which is exactly how the paper evolves its protocol
//! "over a hundred" times without lockstep upgrades.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! Request:  magic u16 | kind u8 | version u16 | method u16 | id u64 |
//!           auth u64 | deadline_ns u64 | body_len u32 | body...
//! Response: magic u16 | kind u8 | version u16 | status u8 | id u64 |
//!           body_len u32 | body...
//! ```

use bytes::{Buf, BufMut, Bytes, BytesMut, Pool};

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

    /// Whether a client should retry an op that ended with this status.
    pub fn is_retryable(self) -> bool {
        matches!(
            self,
            Status::Overloaded | Status::WrongShard | Status::Stalled
        )
    }
}

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

fn write_request(b: &mut BytesMut, req: &Request) {
    b.put_u16_le(RPC_MAGIC);
    b.put_u8(KIND_REQUEST);
    b.put_u16_le(req.version);
    b.put_u16_le(req.method);
    b.put_u64_le(req.id);
    b.put_u64_le(req.auth);
    b.put_u64_le(req.deadline_ns);
    b.put_u32_le(req.body.len() as u32);
    b.extend_from_slice(&req.body);
}

/// Encode a request envelope into an unpooled buffer (control-plane
/// one-shots; also the form the benchmark pins).
pub fn encode_request(req: &Request) -> Bytes {
    let mut b = BytesMut::with_capacity(35 + req.body.len());
    write_request(&mut b, req);
    b.freeze()
}

/// Encode a request envelope into a pooled buffer (the hot path: the frame
/// recycles into `pool` when the receiver drops it).
pub fn encode_request_in(req: &Request, pool: &Pool) -> Bytes {
    let mut b = pool.get(35 + req.body.len());
    write_request(&mut b, req);
    b.freeze()
}

/// Encode a response envelope into a pooled buffer.
pub fn encode_response_in(resp: &Response, pool: &Pool) -> Bytes {
    let mut b = pool.get(18 + resp.body.len());
    b.put_u16_le(RPC_MAGIC);
    b.put_u8(KIND_RESPONSE);
    b.put_u16_le(resp.version);
    b.put_u8(resp.status as u8);
    b.put_u64_le(resp.id);
    b.put_u32_le(resp.body.len() as u32);
    b.extend_from_slice(&resp.body);
    b.freeze()
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
pub fn decode(mut buf: Bytes) -> Option<Envelope> {
    if buf.len() < 3 {
        return None;
    }
    if buf.get_u16_le() != RPC_MAGIC {
        return None;
    }
    match buf.get_u8() {
        KIND_REQUEST => {
            if buf.len() < 32 {
                return None;
            }
            let version = buf.get_u16_le();
            let method = buf.get_u16_le();
            let id = buf.get_u64_le();
            let auth = buf.get_u64_le();
            let deadline_ns = buf.get_u64_le();
            let body_len = buf.get_u32_le() as usize;
            if buf.len() < body_len {
                return None;
            }
            let body = buf.split_to(body_len);
            // Trailing bytes are tolerated: a newer peer may extend the
            // envelope; we parse what we understand.
            Some(Envelope::Request(Request {
                version,
                method,
                id,
                auth,
                deadline_ns,
                body,
            }))
        }
        KIND_RESPONSE => {
            if buf.len() < 15 {
                return None;
            }
            let version = buf.get_u16_le();
            let status = Status::from_u8(buf.get_u8());
            let id = buf.get_u64_le();
            let body_len = buf.get_u32_le() as usize;
            if buf.len() < body_len {
                return None;
            }
            let body = buf.split_to(body_len);
            Some(Envelope::Response(Response {
                version,
                status,
                id,
                body,
            }))
        }
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
    fn retryable_statuses() {
        assert!(Status::Overloaded.is_retryable());
        assert!(Status::WrongShard.is_retryable());
        assert!(Status::Stalled.is_retryable());
        assert!(!Status::Ok.is_retryable());
        assert!(!Status::VersionRejected.is_retryable());
        assert!(!Status::Unauthenticated.is_retryable());
    }

    #[test]
    fn version_compatibility_window() {
        assert!(version_compatible(PROTOCOL_VERSION));
        assert!(version_compatible(MIN_PROTOCOL_VERSION));
        assert!(!version_compatible(0));
    }
}
