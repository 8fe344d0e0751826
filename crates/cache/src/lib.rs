//! Process-wide content-addressed store for topology-keyed solver
//! artifacts.
//!
//! Every expensive pre-numeric artifact in the simulator — recorded
//! stamp patterns, symbolic Gilbert–Peierls analyses, factored AC
//! reference states — is a pure function of circuit structure (and, for
//! value-dependent artifacts, of the values they were derived from).
//! This crate interns them in memory
//! ([`intern`]): a sharded `RwLock` map from [`Key`] to `Arc`-shared
//! artifacts. Compute-under-write-lock guarantees exactly one cold
//! derivation per unique key process-wide, which is what keeps the
//! cache hit/miss telemetry thread-count-invariant.
//!
//! The store is *advisory by construction*: consumers re-validate
//! content-keyed artifacts against the live circuit and fall back to
//! cold derivation on any mismatch, so a colliding entry can never
//! change results.
//!
//! The cache has no process-wide switch: each solve opts in or out
//! through its own options (`NewtonOptions::cache` in `cml-spice`).

#![forbid(unsafe_code)]

pub mod codec;
pub mod intern;

use std::sync::atomic::{AtomicU64, Ordering};

// ---------------------------------------------------------------------
// Keys
// ---------------------------------------------------------------------

/// What family of artifact a [`Key`] names. The kind is part of the key:
/// two artifact families derived from the same topology hash must not
/// collide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum ArtifactKind {
    /// DC-mode Jacobian stamp pattern + symbolic LU (topology-keyed).
    DcPattern = 1,
    /// Transient-mode Jacobian stamp pattern + symbolic LU
    /// (topology-keyed; the `C` of the reactive elements widens the
    /// pattern).
    TranPattern = 2,
    /// AC `G + jωC` stamp pattern + symbolic LU (topology-keyed).
    AcPattern = 3,
    /// Numerically factored AC reference state (topology-keyed, one
    /// entry per topology; the consumer bit-compares the assembled
    /// matrix before use and replaces the entry on a mismatch).
    AcFactor = 4,
}

impl ArtifactKind {
    /// Stable numeric tag (mixed into the interner's shard index).
    #[must_use]
    pub fn as_u8(self) -> u8 {
        self as u8
    }
}

/// A cache key: artifact kind plus a 64-bit content/topology digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Key {
    /// Artifact family.
    pub kind: ArtifactKind,
    /// FNV-1a digest of whatever identifies the artifact (topology hash,
    /// optionally folded with dimensions / value bits — the consumer
    /// decides, this crate only routes).
    pub hash: u64,
}

impl Key {
    /// Builds a key.
    #[must_use]
    pub fn new(kind: ArtifactKind, hash: u64) -> Self {
        Key { kind, hash }
    }
}

// ---------------------------------------------------------------------
// FNV-1a hashing
// ---------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming FNV-1a 64-bit hasher: deterministic across processes and
/// platforms (unlike `DefaultHasher`, whose seed is randomized), which
/// is what makes the digests usable as persistent identities (circuit
/// hashes, flight-bundle checksums).
#[derive(Debug, Clone)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// Fresh hasher at the FNV offset basis.
    #[must_use]
    pub fn new() -> Self {
        Fnv64(FNV_OFFSET)
    }

    /// Absorbs raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs a `u64` (little-endian bytes).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorbs a `usize` widened to `u64`.
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Absorbs a single byte.
    pub fn write_u8(&mut self, v: u8) {
        self.write(&[v]);
    }

    /// Absorbs an `f64` by exact bit pattern.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Absorbs a string (bytes plus a length separator so `"ab","c"`
    /// and `"a","bc"` digest differently).
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write(s.as_bytes());
    }

    /// The digest so far.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot FNV-1a 64 digest of a byte slice.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

// ---------------------------------------------------------------------
// Global statistics (process-wide observability, *not* telemetry)
// ---------------------------------------------------------------------
//
// These atomics feed bench hit-rate reports and assertions. The
// deterministic, thread-count-invariant accounting that analyses report
// lives in `cml-telemetry` counters at the (single compute per key) call
// sites — the two deliberately do not share storage, because the global
// atomics aggregate across *all* work in the process, including
// unrelated concurrent runs.

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static VALIDATION_FAILURES: AtomicU64 = AtomicU64::new(0);
static EVICTIONS: AtomicU64 = AtomicU64::new(0);

/// Records an interner hit. Public for consumers that probe the interner
/// manually (e.g. content-keyed artifacts that bit-compare before use).
pub fn note_hit() {
    HITS.fetch_add(1, Ordering::Relaxed);
}
/// Records a cold derivation.
pub fn note_miss() {
    MISSES.fetch_add(1, Ordering::Relaxed);
}
/// Records a failed artifact validation (colliding entry rejected).
/// Public because consumers validate artifacts against live circuit
/// structure, which this crate cannot see.
pub fn note_validation_failure() {
    VALIDATION_FAILURES.fetch_add(1, Ordering::Relaxed);
}
pub(crate) fn note_eviction() {
    EVICTIONS.fetch_add(1, Ordering::Relaxed);
}

/// Point-in-time copy of the process-wide cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Lookups served from the interner.
    pub hits: u64,
    /// Lookups that required a cold derivation.
    pub misses: u64,
    /// Interned artifacts rejected by re-verification against the live
    /// circuit.
    pub validation_failures: u64,
    /// Entries evicted at the in-memory shard cap.
    pub evictions: u64,
    /// Live entries currently interned in memory.
    pub in_memory_entries: u64,
}

impl StatsSnapshot {
    /// Hit rate over all lookups; 0 when nothing was looked up.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Reads the process-wide statistics.
#[must_use]
pub fn stats() -> StatsSnapshot {
    StatsSnapshot {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        validation_failures: VALIDATION_FAILURES.load(Ordering::Relaxed),
        evictions: EVICTIONS.load(Ordering::Relaxed),
        in_memory_entries: intern::len() as u64,
    }
}

/// Zeroes the process-wide statistics (bench legs, tests).
pub fn reset_stats() {
    HITS.store(0, Ordering::Relaxed);
    MISSES.store(0, Ordering::Relaxed);
    VALIDATION_FAILURES.store(0, Ordering::Relaxed);
    EVICTIONS.store(0, Ordering::Relaxed);
}

/// Serializes unit tests that touch the process-global interner or
/// stats (cargo runs tests of one binary concurrently).
#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn streaming_equals_one_shot() {
        let mut h = Fnv64::new();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv1a64(b"foobar"));
    }

    #[test]
    fn str_write_is_length_prefixed() {
        let mut a = Fnv64::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = Fnv64::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }
}
