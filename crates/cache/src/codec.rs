//! Minimal little-endian binary codec for persisted payloads (the
//! `CMLF` flight bundles).
//!
//! Deliberately tiny and dependency-free: fixed-width little-endian
//! integers, `f64` bit patterns, and length-prefixed vectors. Every
//! reader method is fallible — a truncated or corrupt payload surfaces
//! as `None` at the exact field that went bad, and the consumer turns
//! that into a typed error, never garbage.

/// Append-only payload writer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Fresh empty writer.
    #[must_use]
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// Fresh writer with `cap` bytes preallocated.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        ByteWriter {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` widened to `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends an `f64` by exact bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a length-prefixed `f64` slice (bit patterns).
    pub fn put_f64_slice(&mut self, vs: &[f64]) {
        self.put_usize(vs.len());
        for &v in vs {
            self.put_f64(v);
        }
    }

    /// Bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the payload.
    #[must_use]
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked payload reader over a byte slice.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Reader positioned at the start of `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Option<u32> {
        self.take(4).map(|s| {
            let mut b = [0u8; 4];
            b.copy_from_slice(s);
            u32::from_le_bytes(b)
        })
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Option<u64> {
        self.take(8).map(|s| {
            let mut b = [0u8; 8];
            b.copy_from_slice(s);
            u64::from_le_bytes(b)
        })
    }

    /// Reads a `u64` and narrows it to `usize`.
    pub fn get_usize(&mut self) -> Option<usize> {
        self.get_u64().and_then(|v| usize::try_from(v).ok())
    }

    /// Reads an `f64` bit pattern.
    pub fn get_f64(&mut self) -> Option<f64> {
        self.get_u64().map(f64::from_bits)
    }

    /// Reads a length-prefixed `f64` vector. The length is sanity
    /// bounded by the remaining bytes, so a corrupt length cannot
    /// trigger a huge allocation.
    pub fn get_f64_vec(&mut self) -> Option<Vec<f64>> {
        let n = self.get_usize()?;
        if n > self.remaining() / 8 {
            return None;
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.get_f64()?);
        }
        Some(out)
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the reader consumed the payload exactly (trailing bytes
    /// in a payload are as suspicious as missing ones).
    #[must_use]
    pub fn exhausted(&self) -> bool {
        self.remaining() == 0
    }
}

#[cfg(test)]
#[allow(clippy::expect_used, clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_field_types() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u32(0xdead_beef);
        w.put_u64(u64::MAX - 3);
        w.put_usize(42);
        w.put_f64(-0.0);
        w.put_f64_slice(&[f64::NAN, 1.5e-300]);
        let bytes = w.finish();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8(), Some(7));
        assert_eq!(r.get_u32(), Some(0xdead_beef));
        assert_eq!(r.get_u64(), Some(u64::MAX - 3));
        assert_eq!(r.get_usize(), Some(42));
        assert_eq!(r.get_f64().map(f64::to_bits), Some((-0.0f64).to_bits()));
        let fs = r.get_f64_vec().expect("f64 vec");
        assert_eq!(fs.len(), 2);
        assert!(fs[0].is_nan());
        assert_eq!(fs[1], 1.5e-300);
        assert!(r.exhausted());
    }

    #[test]
    fn truncation_fails_cleanly() {
        let mut w = ByteWriter::new();
        w.put_u64(12345);
        let bytes = w.finish();
        let mut r = ByteReader::new(&bytes[..5]);
        assert_eq!(r.get_u64(), None);
    }

    #[test]
    fn corrupt_length_cannot_allocate_huge() {
        let mut w = ByteWriter::new();
        w.put_usize(usize::MAX / 2); // insane length prefix, no elements
        let bytes = w.finish();
        assert_eq!(ByteReader::new(&bytes).get_f64_vec(), None);
    }
}
