//! In-repo stand-in for the `bytes` crate.
//!
//! The build environment has no access to the crates.io registry, so the
//! workspace vendors the small API subset it actually uses: big-endian
//! integer put/get on a growable write buffer ([`BytesMut`]) and a cheaply
//! cloneable read view ([`Bytes`]). Semantics match the real crate for this
//! subset; anything else is deliberately absent.

#![warn(missing_docs)]

use std::ops::{Bound, RangeBounds};
use std::sync::Arc;

/// Read access to a byte buffer with a cursor (subset of `bytes::Buf`).
pub trait Buf {
    /// Bytes left between the cursor and the end of the buffer.
    fn remaining(&self) -> usize;
    /// Reads one byte, advancing the cursor.
    ///
    /// # Panics
    /// Panics if the buffer is exhausted.
    fn get_u8(&mut self) -> u8;
    /// Reads a big-endian `u32`, advancing the cursor.
    ///
    /// # Panics
    /// Panics if fewer than 4 bytes remain.
    fn get_u32(&mut self) -> u32;
    /// Reads a big-endian `u64`, advancing the cursor.
    ///
    /// # Panics
    /// Panics if fewer than 8 bytes remain.
    fn get_u64(&mut self) -> u64;
}

/// Write access to a growable byte buffer (subset of `bytes::BufMut`).
pub trait BufMut {
    /// Appends one byte.
    fn put_u8(&mut self, v: u8);
    /// Appends a big-endian `u32`.
    fn put_u32(&mut self, v: u32);
    /// Appends a big-endian `u64`.
    fn put_u64(&mut self, v: u64);
    /// Appends a byte slice.
    fn put_slice(&mut self, src: &[u8]);
}

/// A growable write buffer; freeze it into [`Bytes`] to read it back.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> Self {
        BytesMut { data: Vec::new() }
    }

    /// An empty buffer with `cap` bytes preallocated.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            data: Vec::with_capacity(cap),
        }
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Converts the written bytes into an immutable, cheaply cloneable
    /// [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes {
            data: Arc::from(self.data.into_boxed_slice()),
            start: 0,
            pos: 0,
            end: None,
        }
    }
}

impl BufMut for BytesMut {
    fn put_u8(&mut self, v: u8) {
        self.data.push(v);
    }

    fn put_u32(&mut self, v: u32) {
        self.data.extend_from_slice(&v.to_be_bytes());
    }

    fn put_u64(&mut self, v: u64) {
        self.data.extend_from_slice(&v.to_be_bytes());
    }

    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

/// An immutable byte view with a read cursor. Clones share the underlying
/// allocation.
#[derive(Clone, Debug)]
pub struct Bytes {
    data: Arc<[u8]>,
    /// Start of this view within `data`.
    start: usize,
    /// Read cursor, relative to `start`.
    pos: usize,
    /// Exclusive end of this view within `data` (`None` = end of `data`).
    end: Option<usize>,
}

impl Bytes {
    /// Wraps a static byte slice.
    pub fn from_static(data: &'static [u8]) -> Self {
        Bytes {
            data: Arc::from(data),
            start: 0,
            pos: 0,
            end: None,
        }
    }

    fn view(&self) -> &[u8] {
        let end = self.end.unwrap_or(self.data.len());
        &self.data[self.start..end]
    }

    /// Length of the view (ignores the cursor).
    pub fn len(&self) -> usize {
        self.view().len()
    }

    /// `true` if the view is empty.
    pub fn is_empty(&self) -> bool {
        self.view().is_empty()
    }

    /// A sub-view of this view (cursor reset to its start). Shares the
    /// underlying allocation.
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let len = self.len();
        let lo = match range.start_bound() {
            Bound::Included(&i) => i,
            Bound::Excluded(&i) => i + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&i) => i + 1,
            Bound::Excluded(&i) => i,
            Bound::Unbounded => len,
        };
        assert!(
            lo <= hi && hi <= len,
            "slice {lo}..{hi} out of range 0..{len}"
        );
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + lo,
            pos: 0,
            end: Some(self.start + hi),
        }
    }

    fn take(&mut self, n: usize) -> &[u8] {
        let view_start = self.pos;
        assert!(
            self.remaining() >= n,
            "buffer exhausted: need {n}, have {}",
            self.remaining()
        );
        self.pos += n;
        let end = self.end.unwrap_or(self.data.len());
        &self.data[self.start..end][view_start..view_start + n]
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len() - self.pos
    }

    fn get_u8(&mut self) -> u8 {
        self.take(1)[0]
    }

    fn get_u32(&mut self) -> u32 {
        u32::from_be_bytes(self.take(4).try_into().unwrap())
    }

    fn get_u64(&mut self) -> u64 {
        u64::from_be_bytes(self.take(8).try_into().unwrap())
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(data: Vec<u8>) -> Self {
        Bytes {
            data: Arc::from(data.into_boxed_slice()),
            start: 0,
            pos: 0,
            end: None,
        }
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.view() == other.view()
    }
}

impl Eq for Bytes {}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.view()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip() {
        let mut buf = BytesMut::new();
        buf.put_u8(7);
        buf.put_u32(0xDEAD_BEEF);
        buf.put_u64(0x0123_4567_89AB_CDEF);
        assert_eq!(buf.len(), 13);
        let mut b = buf.freeze();
        assert_eq!(b.remaining(), 13);
        assert_eq!(b.get_u8(), 7);
        assert_eq!(b.get_u32(), 0xDEAD_BEEF);
        assert_eq!(b.get_u64(), 0x0123_4567_89AB_CDEF);
        assert_eq!(b.remaining(), 0);
    }

    #[test]
    fn slice_is_a_sub_view() {
        let mut buf = BytesMut::new();
        buf.put_slice(&[1, 2, 3, 4, 5]);
        let b = buf.freeze();
        let s = b.slice(1..4);
        assert_eq!(s.as_ref(), &[2, 3, 4]);
        let s2 = s.slice(..2);
        assert_eq!(s2.as_ref(), &[2, 3]);
    }

    #[test]
    fn clones_do_not_share_the_cursor() {
        let mut buf = BytesMut::new();
        buf.put_u32(42);
        let mut a = buf.freeze();
        let mut b = a.clone();
        assert_eq!(a.get_u32(), 42);
        assert_eq!(a.remaining(), 0);
        assert_eq!(b.remaining(), 4);
        assert_eq!(b.get_u32(), 42);
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn overread_panics() {
        let mut b = Bytes::from_static(&[1, 2]);
        b.get_u32();
    }
}
