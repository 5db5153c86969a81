//! The field codec every frame on the fabric is written in.
//!
//! [`Wire`] gives each field type one wire form: integers little-endian,
//! a `bool` and a [`wire_enum!`](crate::wire_enum) as one byte, [`Bytes`]
//! and `[u8]` as a `u32` length and the bytes, a sequence ([`Seq`],
//! `Vec<T>`) as a `u32` count and the items, a tuple as its fields in
//! order, an [`Answer`] as an id, a status and two byte strings. A message
//! is its fields in wire order ([`wire_struct!`](crate::wire_struct)), so
//! its length, its encoder and its decoder follow from one field list, and
//! every decoder survives truncation and corruption by construction: each
//! field checks the bytes it needs, and a sequence's count is checked
//! against [`Wire::MIN_LEN`] bytes an item before anything is allocated
//! for it.
//!
//! Evolution: a decoder reads the prefix it understands and ignores the
//! bytes after it, so a newer peer may append fields that an older peer
//! skips — how the paper evolves its protocol "over a hundred" times
//! without lockstep upgrades. A field appended to a message that has
//! shipped is an [`Ext`]: written only when it is not empty, so a message
//! without it is byte for byte the older format.

use bytes::{Buf, BufMut, Bytes, BytesMut, Pool};

/// The writing half of [`Wire`]. References and views implement it too —
/// [`Seq`] and [`Ext`] over an iterator, tuples of references, `[u8]`, an
/// [`Answer`] over borrowed slices — so a message can write fields it
/// stores in another shape, or that live in another buffer, without
/// copying them first.
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

/// Implements [`Put`] and [`Wire`] for a `Copy` type whose wire form is
/// one byte: `v as u8` out, and in, `$from_u8`, a `fn(u8) -> Option<Self>`
/// (`None` rejects the byte).
#[macro_export]
macro_rules! wire_byte {
    ($t:ty: $from_u8:expr) => {
        impl $crate::wire::Put for $t {
            #[inline]
            fn wire_len(&self) -> usize {
                1
            }
            #[inline]
            fn put(&self, b: &mut ::bytes::BytesMut) {
                $crate::wire::Put::put(&(*self as u8), b);
            }
        }

        impl $crate::wire::Wire for $t {
            const MIN_LEN: usize = 1;
            #[inline]
            fn get(b: &mut ::bytes::Bytes) -> Option<Self> {
                <u8 as $crate::wire::Wire>::get(b).and_then($from_u8)
            }
        }
    };
}

wire_byte!(bool: |v| Some(v != 0));

/// Declares a fieldless `#[repr(u8)]` enum whose wire form is its one
/// discriminant byte, with a `from_u8` that reads a byte no variant has as
/// the variant named after `else` (a status from a newer peer is that
/// catch-all, not a garbled frame). The enum derives at least `Copy`.
#[macro_export]
macro_rules! wire_enum {
    (
        $(#[$meta:meta])*
        pub enum $name:ident {
            $($(#[$vmeta:meta])* $variant:ident = $v:literal,)+
        }
        else $other:ident
    ) => {
        $(#[$meta])*
        #[repr(u8)]
        pub enum $name {
            $($(#[$vmeta])* $variant = $v,)+
        }

        impl $name {
            #[doc = concat!("Decode from a wire byte; an unknown byte is `",
                stringify!($other), "`.")]
            pub fn from_u8(v: u8) -> $name {
                match v {
                    $($v => $name::$variant,)+
                    _ => $name::$other,
                }
            }
        }

        $crate::wire_byte!($name: |v| Some($name::from_u8(v)));
    };
}

impl Put for [u8] {
    #[inline]
    fn wire_len(&self) -> usize {
        u32::MIN_LEN + self.len()
    }
    #[inline]
    fn put(&self, b: &mut BytesMut) {
        (self.len() as u32).put(b);
        b.put_slice(self);
    }
}

impl Put for Bytes {
    #[inline]
    fn wire_len(&self) -> usize {
        self[..].wire_len()
    }
    #[inline]
    fn put(&self, b: &mut BytesMut) {
        self[..].put(b);
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

/// An answer carrying two byte strings, both lengths ahead of both:
/// `id u64 | status | head_len u32 | body_len u32 | head | body`. `B` is
/// [`Bytes`] when read and borrowed bytes when written, so a server copies
/// the memory it holds straight into the frame. `repr(C)` (aligned moves
/// of a decoded answer), an always-inlined `get` and splitting the strings
/// before building the answer, together, keep a batch decode ~15 % over a
/// hand-written one instead of ~40 %.
#[derive(Debug, Clone, PartialEq, Eq)]
#[repr(C)]
pub struct Answer<S, B = Bytes> {
    /// The id the answer echoes.
    pub id: u64,
    /// Result status.
    pub status: S,
    /// The first byte string.
    pub head: B,
    /// The second byte string.
    pub body: B,
}

impl<S: Put, B: AsRef<[u8]>> Put for Answer<S, B> {
    #[inline]
    fn wire_len(&self) -> usize {
        let strings = self.head.as_ref().len() + self.body.as_ref().len();
        self.id.wire_len() + self.status.wire_len() + 2 * u32::MIN_LEN + strings
    }
    #[inline]
    fn put(&self, b: &mut BytesMut) {
        let (head, body) = (self.head.as_ref(), self.body.as_ref());
        (self.id, &self.status, head.len() as u32, body.len() as u32).put(b);
        b.put_slice(head);
        b.put_slice(body);
    }
}

impl<S: Wire> Wire for Answer<S> {
    const MIN_LEN: usize = <(u64, S, u32, u32)>::MIN_LEN;
    #[inline(always)]
    fn get(b: &mut Bytes) -> Option<Self> {
        let (id, status, head_len, body_len): (u64, S, u32, u32) = Wire::get(b)?;
        let (head_len, body_len) = (head_len as usize, body_len as usize);
        if b.len() < head_len.checked_add(body_len)? {
            return None;
        }
        let head = b.split_to(head_len);
        let body = b.split_to(body_len);
        Some(Answer {
            id,
            status,
            head,
            body,
        })
    }
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

        impl $crate::wire::Put for $name {
            #[inline]
            fn wire_len(&self) -> usize {
                0 $(+ $crate::wire::Put::wire_len(&self.$field))*
            }
            #[inline]
            fn put(&self, b: &mut ::bytes::BytesMut) {
                $($crate::wire::Put::put(&self.$field, b);)*
            }
        }

        impl $crate::wire::Wire for $name {
            const MIN_LEN: usize = 0 $(+ <$ty as $crate::wire::Wire>::MIN_LEN)*;
            #[inline]
            fn get(b: &mut ::bytes::Bytes) -> Option<Self> {
                let value = $name {
                    $($field: $crate::wire::Wire::get(b)?,)*
                };
                $(let $m = &value; if !$valid { return None; })?
                Some(value)
            }
        }
    };
}
