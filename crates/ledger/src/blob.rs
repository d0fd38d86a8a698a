//! [`Blob`]: an immutable byte string that shares its buffer.
//!
//! Replay reads a journal file into one buffer, and every
//! [`RecordKind::Event`](crate::RecordKind::Event) payload it returns is
//! a range of that buffer, so decoding an event copies nothing and
//! allocates nothing. A payload built by its producer owns its buffer
//! alone.

use std::fmt;
use std::ops::{Deref, Range};
use std::sync::Arc;

/// A shared, immutable view of bytes: one reference-counted buffer plus
/// the range of it this view covers. Cloning copies no bytes; equality
/// and `Debug` see only the bytes, as they would for a `Vec<u8>`.
#[derive(Clone)]
pub struct Blob {
    buf: Arc<Vec<u8>>,
    range: Range<usize>,
}

impl Blob {
    /// The bytes at `range` of this view, sharing its buffer. Panics if
    /// `range` is out of bounds, as slice indexing does.
    pub(crate) fn slice(&self, range: Range<usize>) -> Blob {
        assert!(range.start <= range.end && range.end <= self.len(), "blob slice out of bounds");
        let start = self.range.start;
        Blob { buf: Arc::clone(&self.buf), range: start + range.start..start + range.end }
    }
}

impl From<Vec<u8>> for Blob {
    fn from(bytes: Vec<u8>) -> Self {
        let range = 0..bytes.len();
        Blob { buf: Arc::new(bytes), range }
    }
}

impl Deref for Blob {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.buf[self.range.clone()]
    }
}

impl PartialEq for Blob {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl fmt::Debug for Blob {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slice_shares_the_buffer_and_compares_by_bytes() {
        let whole = Blob::from(vec![9, 1, 2, 3, 9]);
        let inner = whole.slice(1..4);
        assert_eq!(&*inner, &[1, 2, 3]);
        assert!(Arc::ptr_eq(&whole.buf, &inner.buf));
        assert_eq!(inner, Blob::from(vec![1, 2, 3]));
        assert_ne!(inner, whole);
        assert_eq!(inner.slice(1..2), Blob::from(vec![2]));
        assert_eq!(format!("{inner:?}"), format!("{:?}", vec![1u8, 2, 3]));
    }
}
