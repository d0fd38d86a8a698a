//! Minimal local implementation of the parts of the `bytes` crate this
//! workspace uses, so the build resolves without registry access.
//!
//! Semantics match `bytes` 1.x for the implemented subset: [`Bytes`] is a
//! cheaply cloneable view into shared storage, [`BytesMut`] is a growable
//! buffer, and the [`Buf`]/[`BufMut`] traits read and write scalars in
//! network (big-endian) byte order.
//!
//! Storage comes back as it does in `bytes` ≥ 1.6:
//! [`Bytes::try_into_mut`] turns a uniquely held buffer into a
//! [`BytesMut`] without allocating, and fails, handing the view back
//! unchanged, while any other handle or slice of it is alive. The
//! `BytesMut` it returns keeps the emptied reference-counted block (its
//! *shell*), and [`BytesMut::freeze`] moves the bytes back into that
//! shell, so a buffer that goes round write → freeze → reclaim →
//! write allocates nothing once its capacity suffices. Writes never touch
//! the shell: a `BytesMut` writes to a plain `Vec<u8>` either way.

use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// A cheaply cloneable, immutable view into shared byte storage. The
/// storage is the `Vec` it was built from, moved (not copied) behind the
/// reference count, so [`BytesMut::freeze`] is O(1).
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// A buffer viewing a static slice (copied; identical observable
    /// behaviour, minus the allocation the real crate avoids).
    pub fn from_static(s: &'static [u8]) -> Self {
        Self::from(s.to_vec())
    }

    /// A buffer holding a copy of `s`.
    pub fn copy_from_slice(s: &[u8]) -> Self {
        Self::from(s.to_vec())
    }

    /// Length of the view.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A sub-view of the same storage.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(lo <= hi && hi <= self.len(), "slice out of range");
        Self { data: Arc::clone(&self.data), start: self.start + lo, end: self.start + hi }
    }

    /// Split off and return the first `at` bytes, leaving the rest.
    pub fn split_to(&mut self, at: usize) -> Self {
        assert!(at <= self.len(), "split_to out of range");
        let head = self.slice(0..at);
        self.start += at;
        head
    }

    /// Turn this view back into a [`BytesMut`] holding exactly its
    /// bytes, without allocating, when it is the storage's only handle;
    /// otherwise hand it back unchanged. The returned buffer keeps the
    /// storage's capacity and its reference-counted block, which its next
    /// [`freeze`](BytesMut::freeze) reuses.
    pub fn try_into_mut(mut self) -> Result<BytesMut, Bytes> {
        let Some(storage) = Arc::get_mut(&mut self.data) else { return Err(self) };
        let mut data = std::mem::take(storage);
        data.truncate(self.end);
        data.drain(..self.start);
        Ok(BytesMut { data, shell: Some(self.data) })
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Self { data: Arc::new(v), start: 0, end }
    }
}

impl From<&[u8]> for Bytes {
    fn from(s: &[u8]) -> Self {
        Self::from(s.to_vec())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        &self[..] == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        &self[..] == other.as_slice()
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self[..].hash(state);
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"")?;
        for &b in self.iter() {
            write!(f, "{}", std::ascii::escape_default(b))?;
        }
        write!(f, "\"")
    }
}

/// A growable byte buffer.
#[derive(Default)]
pub struct BytesMut {
    data: Vec<u8>,
    /// An emptied, uniquely held storage block left by
    /// [`Bytes::try_into_mut`], refilled by [`BytesMut::freeze`].
    shell: Option<Arc<Vec<u8>>>,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty buffer with reserved capacity.
    pub fn with_capacity(n: usize) -> Self {
        Self { data: Vec::with_capacity(n), shell: None }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Bytes the buffer holds without reallocating.
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Freeze into an immutable [`Bytes`]: into the reclaimed shell when
    /// there is one, allocating nothing.
    pub fn freeze(self) -> Bytes {
        let Some(mut shell) = self.shell else { return Bytes::from(self.data) };
        let end = self.data.len();
        *Arc::get_mut(&mut shell).expect("a shell is uniquely held") = self.data;
        Bytes { data: shell, start: 0, end }
    }

    /// Split off and return the first `at` bytes, leaving the rest.
    pub fn split_to(&mut self, at: usize) -> Self {
        let rest = self.data.split_off(at);
        Self { data: std::mem::replace(&mut self.data, rest), shell: None }
    }

    /// Ensure room for `additional` more bytes without reallocating.
    pub fn reserve(&mut self, additional: usize) {
        self.data.reserve(additional);
    }

    /// Remove all bytes, keeping the allocation for reuse.
    pub fn clear(&mut self) {
        self.data.clear();
    }
}

impl Clone for BytesMut {
    fn clone(&self) -> Self {
        Self { data: self.data.clone(), shell: None }
    }
}

impl PartialEq for BytesMut {
    fn eq(&self, other: &Self) -> bool {
        self.data == other.data
    }
}

impl Eq for BytesMut {}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl std::ops::DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

impl std::fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        Bytes::from(self.data.clone()).fmt(f)
    }
}

/// Read access to a byte cursor; scalars are big-endian.
pub trait Buf {
    /// Bytes left to consume.
    fn remaining(&self) -> usize;
    /// The unread bytes.
    fn chunk(&self) -> &[u8];
    /// Skip `n` bytes.
    fn advance(&mut self, n: usize);

    /// Whether any bytes remain.
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    /// Copy out `dst.len()` bytes.
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(self.remaining() >= dst.len(), "buffer underflow");
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }

    /// Read one byte.
    fn get_u8(&mut self) -> u8 {
        let mut b = [0u8; 1];
        self.copy_to_slice(&mut b);
        b[0]
    }

    /// Read a big-endian `u16`.
    fn get_u16(&mut self) -> u16 {
        let mut b = [0u8; 2];
        self.copy_to_slice(&mut b);
        u16::from_be_bytes(b)
    }

    /// Read a big-endian `u32`.
    fn get_u32(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_be_bytes(b)
    }

    /// Read a big-endian `u64`.
    fn get_u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_be_bytes(b)
    }

    /// Read a big-endian `i32`.
    fn get_i32(&mut self) -> i32 {
        self.get_u32() as i32
    }

    /// Read a big-endian `i64`.
    fn get_i64(&mut self) -> i64 {
        self.get_u64() as i64
    }

    /// Read a big-endian `f32`.
    fn get_f32(&mut self) -> f32 {
        f32::from_bits(self.get_u32())
    }

    /// Read a big-endian `f64`.
    fn get_f64(&mut self) -> f64 {
        f64::from_bits(self.get_u64())
    }

    /// Read a little-endian `u32`.
    fn get_u32_le(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_le_bytes(b)
    }

    /// Read a little-endian `i32`.
    fn get_i32_le(&mut self) -> i32 {
        self.get_u32_le() as i32
    }

    /// Read a little-endian `f32`.
    fn get_f32_le(&mut self) -> f32 {
        f32::from_bits(self.get_u32_le())
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self
    }
    fn advance(&mut self, n: usize) {
        assert!(n <= self.len(), "advance out of range");
        self.start += n;
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self
    }
    fn advance(&mut self, n: usize) {
        *self = &self[n..];
    }
}

/// Append access to a byte buffer; scalars are big-endian.
pub trait BufMut {
    /// Append raw bytes.
    fn put_slice(&mut self, s: &[u8]);

    /// Append one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Append a big-endian `u16`.
    fn put_u16(&mut self, v: u16) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Append a big-endian `u32`.
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Append a big-endian `u64`.
    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Append a big-endian `i32`.
    fn put_i32(&mut self, v: i32) {
        self.put_u32(v as u32);
    }

    /// Append a big-endian `i64`.
    fn put_i64(&mut self, v: i64) {
        self.put_u64(v as u64);
    }

    /// Append a big-endian `f32`.
    fn put_f32(&mut self, v: f32) {
        self.put_u32(v.to_bits());
    }

    /// Append a big-endian `f64`.
    fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }
}

impl BufMut for BytesMut {
    #[inline]
    fn put_slice(&mut self, s: &[u8]) {
        self.data.extend_from_slice(s);
    }
}

impl BufMut for Vec<u8> {
    #[inline]
    fn put_slice(&mut self, s: &[u8]) {
        self.extend_from_slice(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_scalars() {
        let mut m = BytesMut::with_capacity(32);
        m.put_u8(7);
        m.put_u16(0x0102);
        m.put_u32(0xDEADBEEF);
        m.put_u64(42);
        m.put_i64(-9);
        m.put_f32(1.5);
        m.put_f64(-2.25);
        let mut b = m.freeze();
        assert_eq!(b.get_u8(), 7);
        assert_eq!(b.get_u16(), 0x0102);
        assert_eq!(b.get_u32(), 0xDEADBEEF);
        assert_eq!(b.get_u64(), 42);
        assert_eq!(b.get_i64(), -9);
        assert_eq!(b.get_f32(), 1.5);
        assert_eq!(b.get_f64(), -2.25);
        assert!(!b.has_remaining());
    }

    #[test]
    fn big_endian_layout() {
        let mut m = BytesMut::new();
        m.put_u16(0x0102);
        assert_eq!(&m[..], &[1, 2]);
    }

    #[test]
    fn slice_and_split_share_storage() {
        let mut b = Bytes::from(vec![1, 2, 3, 4, 5]);
        let s = b.slice(1..4);
        assert_eq!(&s[..], &[2, 3, 4]);
        let head = b.split_to(2);
        assert_eq!(&head[..], &[1, 2]);
        assert_eq!(&b[..], &[3, 4, 5]);
        let tail = s.slice(2..);
        assert_eq!(&tail[..], &[4]);
    }

    #[test]
    fn freeze_keeps_the_buffer_it_was_given() {
        let mut m = BytesMut::with_capacity(1 << 16);
        m.put_slice(&[7u8; 1 << 16]);
        let before = m.as_ptr();
        let b = m.freeze();
        assert_eq!(b.as_ptr(), before, "freeze must not copy the payload");
        assert_eq!(b.slice(16..).as_ptr(), before.wrapping_add(16));
        assert_eq!(b.len(), 1 << 16);
    }

    #[test]
    fn try_into_mut_on_a_unique_buffer_returns_its_bytes() {
        let b = Bytes::from(vec![1, 2, 3, 4]);
        let m = b.try_into_mut().expect("sole handle");
        assert_eq!(&m[..], &[1, 2, 3, 4]);
        assert!(m.capacity() >= 4);
    }

    #[test]
    fn try_into_mut_on_a_sub_slice_returns_the_view() {
        let b = Bytes::from(vec![1, 2, 3, 4, 5, 6]).slice(2..5);
        let m = b.try_into_mut().expect("sole handle");
        assert_eq!(&m[..], &[3, 4, 5]);
        let mut tail = Bytes::from(vec![9, 8, 7]);
        tail.advance(1);
        assert_eq!(&tail.try_into_mut().unwrap()[..], &[8, 7]);
    }

    #[test]
    fn try_into_mut_on_a_shared_buffer_hands_the_view_back() {
        let b = Bytes::from(vec![1, 2, 3, 4, 5]);
        let view = b.slice(1..4);
        let back = view.try_into_mut().expect_err("the parent still holds the storage");
        assert_eq!(&back[..], &[2, 3, 4]);
        let other = b.clone();
        let b = b.try_into_mut().expect_err("a clone still holds the storage");
        assert_eq!(b, other);
        drop((other, back));
        assert_eq!(&b.try_into_mut().unwrap()[..], &[1, 2, 3, 4, 5]);
    }

    #[test]
    fn clone_and_eq_ignore_the_shell() {
        let m = Bytes::from(vec![5, 6]).try_into_mut().unwrap();
        let c = m.clone();
        let mut plain = BytesMut::new();
        plain.put_slice(&[5, 6]);
        assert_eq!(c, m);
        assert_eq!(c, plain);
        // The clone owns no shell: freezing both leaves two storages.
        let (a, b) = (m.freeze(), c.freeze());
        assert_ne!(a.as_ptr(), b.as_ptr());
        assert_eq!(a, b);
    }

    #[test]
    fn buf_for_slices() {
        let mut s: &[u8] = &[0, 0, 0, 5, 9];
        assert_eq!(s.get_u32(), 5);
        assert_eq!(s.remaining(), 1);
        assert_eq!(s.get_u8(), 9);
    }
}
