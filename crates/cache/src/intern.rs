//! The process-wide in-memory artifact interner.
//!
//! A sharded `RwLock` map from [`Key`] to type-erased `Arc` artifacts.
//! The load-bearing property is **compute-under-write-lock**: a miss
//! takes the shard's write lock, re-probes (a racer that lost the lock
//! race finds the winner's entry and counts a hit), and only then runs
//! the cold derivation. Per unique key there is therefore exactly one
//! cold derivation process-wide, no matter how many workers ask — which
//! is what keeps cache hit/miss *totals* thread-count-invariant even
//! when the individual hit lands on a different worker each run.
//!
//! Shards are FIFO-capped: interned artifacts are cheap to rebuild and
//! the cap only exists to bound memory on pathological workloads that
//! stream unbounded distinct topologies through one process.

use crate::Key;
use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, OnceLock, RwLock, RwLockWriteGuard};

/// Shard count (power of two; indexed by the key hash's low bits).
const SHARDS: usize = 16;

/// Per-shard entry cap. 16 shards × 256 entries bounds the interner at
/// a few thousand artifacts — far above any real workload's working set
/// (one entry per distinct topology × artifact kind).
const SHARD_CAP: usize = 256;

type Erased = Arc<dyn Any + Send + Sync>;

#[derive(Default)]
struct Shard {
    map: HashMap<Key, Erased>,
    /// Insertion order, for deterministic FIFO eviction at the cap.
    order: VecDeque<Key>,
}

fn shards() -> &'static [RwLock<Shard>; SHARDS] {
    static CELL: OnceLock<[RwLock<Shard>; SHARDS]> = OnceLock::new();
    CELL.get_or_init(|| std::array::from_fn(|_| RwLock::new(Shard::default())))
}

fn shard_for(key: Key) -> &'static RwLock<Shard> {
    // Mix the kind in so same-hash keys of different kinds spread out.
    let idx = (key.hash ^ (u64::from(key.kind.as_u8()) << 56)) as usize % SHARDS;
    &shards()[idx]
}

fn read_probe<T: Send + Sync + 'static>(shard: &RwLock<Shard>, key: Key) -> Option<Arc<T>> {
    let guard = match shard.read() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    };
    guard
        .map
        .get(&key)
        .and_then(|e| Arc::clone(e).downcast::<T>().ok())
}

fn write_guard(shard: &RwLock<Shard>) -> RwLockWriteGuard<'_, Shard> {
    match shard.write() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

fn insert_capped(guard: &mut Shard, key: Key, value: Erased) {
    if guard.map.len() >= SHARD_CAP {
        // FIFO eviction: deterministic (insertion order), and safe by
        // the advisory-cache contract — an evicted artifact is simply
        // re-derived cold on next use.
        while let Some(old) = guard.order.pop_front() {
            if guard.map.remove(&old).is_some() {
                crate::note_eviction();
                break;
            }
        }
    }
    if guard.map.insert(key, value).is_none() {
        guard.order.push_back(key);
    }
}

/// Probes the interner for `key` without computing anything. Counts
/// nothing: the caller validates what it finds and records the hit or
/// miss itself ([`crate::note_hit`], [`crate::note_miss`]).
pub fn lookup<T: Send + Sync + 'static>(key: Key) -> Option<Arc<T>> {
    read_probe::<T>(shard_for(key), key)
}

/// Interns `value` under `key`, replacing any previous entry.
pub fn insert<T: Send + Sync + 'static>(key: Key, value: Arc<T>) {
    let shard = shard_for(key);
    let mut guard = write_guard(shard);
    insert_capped(&mut guard, key, value);
}

/// The interner's core: returns the artifact for `key`, running `make`
/// **at most once process-wide per key** (while holding the shard's
/// write lock) when no entry exists. Returns the artifact and whether
/// it was served from cache (`true`) or computed by this call (`false`).
/// `make` returning `None` (derivation failed) is propagated and
/// nothing is interned, so failures are retried by later callers.
pub fn get_or_insert_with<T, F>(key: Key, make: F) -> Option<(Arc<T>, bool)>
where
    T: Send + Sync + 'static,
    F: FnOnce() -> Option<Arc<T>>,
{
    let shard = shard_for(key);
    if let Some(found) = read_probe::<T>(shard, key) {
        crate::note_hit();
        return Some((found, true));
    }
    let mut guard = write_guard(shard);
    // Re-probe under the write lock: a racer may have filled the entry
    // between our read probe and the lock acquisition.
    if let Some(found) = guard
        .map
        .get(&key)
        .and_then(|e| Arc::clone(e).downcast::<T>().ok())
    {
        crate::note_hit();
        return Some((found, true));
    }
    crate::note_miss();
    let value = make()?;
    insert_capped(&mut guard, key, Arc::clone(&value) as Erased);
    Some((value, false))
}

/// Total interned entries across all shards.
#[must_use]
pub fn len() -> usize {
    shards()
        .iter()
        .map(|s| match s.read() {
            Ok(g) => g.map.len(),
            Err(p) => p.into_inner().map.len(),
        })
        .sum()
}

/// Empties the interner (simulates a process restart; used by the
/// cold-vs-warm equivalence tests and benches).
pub fn clear_in_memory() {
    for s in shards() {
        let mut guard = write_guard(s);
        guard.map.clear();
        guard.order.clear();
    }
}

#[cfg(test)]
#[allow(clippy::expect_used, clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::ArtifactKind;

    fn k(h: u64) -> Key {
        Key::new(ArtifactKind::DcPattern, h)
    }

    #[test]
    fn miss_then_hit() {
        let _g = crate::test_guard();
        clear_in_memory();
        let mut computed = 0;
        let (v, hit) = get_or_insert_with(k(0xdead_0001), || {
            computed += 1;
            Some(Arc::new(41_u64))
        })
        .expect("computed");
        assert!(!hit);
        assert_eq!(*v, 41);
        assert_eq!(computed, 1);
        let (v2, hit2) = get_or_insert_with(k(0xdead_0001), || -> Option<Arc<u64>> {
            panic!("must not recompute on a hit")
        })
        .expect("cached");
        assert!(hit2);
        assert_eq!(*v2, 41);
        assert_eq!(lookup::<u64>(k(0xdead_0001)).as_deref(), Some(&41));
    }

    #[test]
    fn failed_derivations_are_not_interned() {
        let _g = crate::test_guard();
        clear_in_memory();
        assert!(get_or_insert_with::<u64, _>(k(0xdead_0002), || None).is_none());
        // The failure was not cached: the next caller retries.
        let (v, hit) =
            get_or_insert_with(k(0xdead_0002), || Some(Arc::new(7_u64))).expect("retry works");
        assert!(!hit);
        assert_eq!(*v, 7);
    }

    #[test]
    fn distinct_kinds_do_not_collide() {
        let _g = crate::test_guard();
        clear_in_memory();
        insert(Key::new(ArtifactKind::DcPattern, 99), Arc::new(1_u64));
        insert(Key::new(ArtifactKind::TranPattern, 99), Arc::new(2_u64));
        assert_eq!(
            lookup::<u64>(Key::new(ArtifactKind::DcPattern, 99)).as_deref(),
            Some(&1)
        );
        assert_eq!(
            lookup::<u64>(Key::new(ArtifactKind::TranPattern, 99)).as_deref(),
            Some(&2)
        );
    }

    #[test]
    fn shard_cap_evicts_fifo() {
        let _g = crate::test_guard();
        clear_in_memory();
        // Fill one shard far past its cap; len() must stay bounded.
        for i in 0..(SHARD_CAP as u64 * SHARDS as u64 * 2) {
            insert(k(i), Arc::new(i));
        }
        assert!(len() <= SHARD_CAP * SHARDS);
        clear_in_memory();
        assert_eq!(len(), 0);
    }

    #[test]
    fn concurrent_get_or_insert_computes_once() {
        let _g = crate::test_guard();
        clear_in_memory();
        let computed = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let key = k(0xdead_0003);
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let computed = Arc::clone(&computed);
                std::thread::spawn(move || {
                    let (v, _hit) = get_or_insert_with(key, || {
                        computed.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                        Some(Arc::new(123_u64))
                    })
                    .expect("value");
                    *v
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().expect("thread"), 123);
        }
        assert_eq!(
            computed.load(std::sync::atomic::Ordering::SeqCst),
            1,
            "exactly one cold derivation process-wide"
        );
    }
}
