//! Cheaply-cloneable byte buffers, replacing the crates.io `bytes` crate.
//!
//! The workspace builds hermetically with zero external dependencies, so the
//! small slice of `bytes::Bytes`/`bytes::BytesMut` the protocol stack uses is
//! provided here: [`Bytes`] is a bare `Arc<[u8]>` — cloning a payload shares
//! the allocation, and a stored message pays 16 bytes for its payload handle
//! — and [`BytesMut`] is a thin `Vec<u8>` writer that freezes into a `Bytes`.
//! Reading is slicing: the wire decoder parses the borrowed datagram, not a
//! `Bytes`.
//!
//! All multi-byte integers are big-endian, matching both the crates.io crate
//! and the wire format in `drum-net::codec`.
//!
//! # Examples
//!
//! ```
//! use drum_core::bytes::{Bytes, BytesMut};
//!
//! let mut w = BytesMut::with_capacity(6);
//! w.put_u16(0xBEEF);
//! w.put_slice(b"data");
//! let b = w.freeze();
//! let cheap_copy = b.clone(); // shares the allocation
//! assert_eq!(&b[..2], &[0xBE, 0xEF]);
//! assert_eq!(&b[2..], b"data");
//! assert_eq!(cheap_copy, b);
//! ```

use std::sync::Arc;

/// An immutable, cheaply-cloneable byte buffer.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<[u8]>,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Bytes::default()
    }

    /// Wraps a static slice (copied once into a shared allocation).
    pub fn from_static(data: &'static [u8]) -> Self {
        Bytes::copy_from_slice(data)
    }

    /// Copies a slice into a new shared allocation.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes {
            data: Arc::from(data),
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The bytes as a slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.data
    }
}

impl core::ops::Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(data: Vec<u8>) -> Self {
        Bytes {
            data: Arc::from(data),
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(data: &[u8]) -> Self {
        Bytes::copy_from_slice(data)
    }
}

impl core::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            for c in core::ascii::escape_default(b) {
                write!(f, "{}", c as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl core::hash::Hash for Bytes {
    fn hash<H: core::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

/// A growable byte writer that freezes into an immutable [`Bytes`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// An empty writer.
    pub fn new() -> Self {
        BytesMut::default()
    }

    /// An empty writer with pre-reserved capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        BytesMut {
            data: Vec::with_capacity(capacity),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.data.push(v);
    }

    /// Appends a big-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.data.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.data.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.data.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a slice.
    pub fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }

    /// Clears the written bytes, retaining the allocation so the writer can
    /// be reused as encode scratch.
    pub fn clear(&mut self) {
        self.data.clear();
    }

    /// Converts the written bytes into an immutable shared [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.data)
    }
}

impl core::ops::Deref for BytesMut {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_allocation() {
        let b = Bytes::from(vec![1u8, 2, 3]);
        let c = b.clone();
        assert!(Arc::ptr_eq(&b.data, &c.data));
        assert_eq!(b, c);
    }

    /// Equality and hashing follow the contents, whatever built them.
    #[test]
    fn equal_contents_compare_and_hash_equal() {
        let a = Bytes::from(vec![1u8, 2]);
        let b = Bytes::copy_from_slice(&[1, 2]);
        assert!(!Arc::ptr_eq(&a.data, &b.data));
        assert_eq!(a, b);
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let hash = |x: &Bytes| {
            let mut h = DefaultHasher::new();
            x.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&a), hash(&b));
    }

    /// A payload handle is the shared slice's pointer and length, nothing
    /// more: a stored message pays 16 bytes for it on 64-bit targets.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn a_bytes_is_a_bare_shared_slice() {
        assert_eq!(std::mem::size_of::<Bytes>(), 16);
    }

    #[test]
    fn slice_conveniences() {
        let b = Bytes::from_static(b"hello");
        assert_eq!(b.to_vec(), b"hello".to_vec());
        assert_eq!(b.split_first(), Some((&b'h', &b"ello"[..])));
        assert_eq!(b, &b"hello"[..]);
        assert_eq!(b[1], b'e');
    }

    #[test]
    fn debug_escapes() {
        let b = Bytes::from(vec![b'a', 0, b'"']);
        assert_eq!(format!("{b:?}"), "b\"a\\x00\\\"\"");
    }

    #[test]
    fn empty_defaults() {
        assert!(Bytes::new().is_empty());
        assert_eq!(Bytes::default().len(), 0);
        assert!(BytesMut::new().is_empty());
    }

    #[test]
    fn clear_retains_capacity() {
        let mut w = BytesMut::with_capacity(64);
        w.put_slice(b"scratch");
        let cap = w.data.capacity();
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.data.capacity(), cap);
        w.put_u8(1);
        assert_eq!(&w[..], &[1]);
    }
}
