//! Process-wide memo tables: sharded concurrent caches shared by every
//! thread, used for exact Omega-test verdicts (tier 2) and for gist
//! results.
//!
//! The scanning recursion re-asks identical queries from many sibling
//! subtrees; with parallel scanning those siblings run on different worker
//! threads, so a thread-local table would re-solve each query once per
//! thread. Sharding by fingerprint keeps lock contention negligible (64
//! independent mutexes per cache), and eviction is bounded second-chance
//! instead of a full wipe: entries re-hit since the last sweep survive, so
//! the hot working set outlives each sweep.
//!
//! **Only exact results are ever inserted.** A verdict or gist computed
//! under a tripped resource limit ([`crate::limits`]) depends on the
//! caller's `Limits`, while cache keys fingerprint only the query — so a
//! degraded value served to a later caller with a fresh budget would be a
//! wrong-but-confident answer (cache poisoning). Callers in
//! [`crate::sat`] and [`crate::gist`] enforce the policy at insertion
//! time; its payoff is that every cache hit can be reported as
//! [`crate::Certainty::Exact`] unconditionally.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::{Mutex, OnceLock};

const SHARD_BITS: u32 = 6;
const SHARDS: usize = 1 << SHARD_BITS;

/// Pass-through hasher for keys that are already uniform 128-bit
/// fingerprints (splitmix-avalanched in `sat::cache_key` and
/// `gist::gist_key`). Re-hashing them with SipHash on every warm lookup
/// costs more than the probe itself; folding the two halves together
/// preserves their uniformity.
#[derive(Default)]
struct FpHasher(u64);

impl std::hash::Hasher for FpHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback (unused by `(u64, u64)` keys, which call
        // `write_u64` twice).
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = self.0.rotate_left(32) ^ x;
    }
}

/// Exact satisfiability verdicts, keyed by a commutative row fingerprint.
/// Capacity matches the old thread-local cache.
pub(crate) static SAT: ShardedCache<bool> = ShardedCache::new((1 << 20) / SHARDS);

/// Gist results, keyed by an order-sensitive fingerprint of the
/// `(conjunct, context)` pair. Values are whole conjuncts, so the bound is
/// much smaller than the sat cache's.
pub(crate) static GIST: ShardedCache<crate::conjunct::Conjunct> =
    ShardedCache::new((1 << 14) / SHARDS);

struct Entry<V> {
    value: V,
    /// Second-chance bit: set on every hit, cleared (once) by a sweep.
    hot: bool,
}

type ShardMap<V> = HashMap<(u64, u64), Entry<V>, BuildHasherDefault<FpHasher>>;
type Shard<V> = Mutex<ShardMap<V>>;

/// A fixed-shard concurrent map with second-chance eviction. Lookups clone
/// the stored value, so `V` should be cheap to clone relative to the work
/// it memoizes.
pub(crate) struct ShardedCache<V> {
    shards: OnceLock<Box<[Shard<V>]>>,
    shard_capacity: usize,
}

impl<V: Clone> ShardedCache<V> {
    pub const fn new(shard_capacity: usize) -> ShardedCache<V> {
        ShardedCache {
            shards: OnceLock::new(),
            shard_capacity,
        }
    }

    fn shard(&self, key: (u64, u64)) -> &Shard<V> {
        let shards = self.shards.get_or_init(|| {
            (0..SHARDS)
                .map(|_| Mutex::new(HashMap::default()))
                .collect()
        });
        // The map's own hashing consumes the low bits; pick the shard from
        // the high bits of the independent second fingerprint half.
        &shards[(key.1 >> (64 - SHARD_BITS)) as usize]
    }

    pub fn lookup(&self, key: (u64, u64)) -> Option<V> {
        let mut map = lock(self.shard(key));
        let e = map.get_mut(&key)?;
        e.hot = true;
        Some(e.value.clone())
    }

    pub fn insert(&self, key: (u64, u64), value: V) {
        let mut map = lock(self.shard(key));
        if map.len() >= self.shard_capacity {
            sweep(&mut map);
        }
        map.insert(key, Entry { value, hot: false });
    }

    /// Empties every shard. Exposed (via `omega::reset_sat_cache`) for
    /// benchmarks that need cold-cache timings and for tests.
    pub fn clear(&self) {
        if let Some(shards) = self.shards.get() {
            for shard in shards.iter() {
                lock(shard).clear();
            }
        }
    }
}

fn lock<V>(shard: &Shard<V>) -> std::sync::MutexGuard<'_, ShardMap<V>> {
    // A panic while holding the lock leaves only a cache, never broken
    // invariants; ignore poisoning.
    shard.lock().unwrap_or_else(|e| e.into_inner())
}

/// Second-chance eviction: drop cold entries, demote hot ones. If the whole
/// shard is hot (every entry re-hit since the last sweep), fall back to
/// keeping every other entry so the sweep always frees space.
fn sweep<V, S>(map: &mut HashMap<(u64, u64), Entry<V>, S>) {
    let before = map.len();
    map.retain(|_, e| std::mem::replace(&mut e.hot, false));
    if map.len() == before {
        let mut keep = false;
        map.retain(|_, _| {
            keep = !keep;
            keep
        });
    }
    let evicted = (before - map.len()) as u64;
    crate::stats::bump!(evictions, evicted);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_insert_and_survives_sweep_when_hot() {
        let mut map: HashMap<(u64, u64), Entry<bool>> = HashMap::new();
        for i in 0..100u64 {
            map.insert(
                (i, i),
                Entry {
                    value: true,
                    hot: i < 10, // first ten are hot
                },
            );
        }
        sweep(&mut map);
        assert_eq!(map.len(), 10);
        // Survivors were demoted: a second sweep with no hits in between
        // finds them all cold and drops them.
        sweep(&mut map);
        assert_eq!(map.len(), 0);
    }

    #[test]
    fn all_hot_shard_still_frees_space() {
        let mut map: HashMap<(u64, u64), Entry<bool>> = HashMap::new();
        for i in 0..64u64 {
            map.insert(
                (i, i),
                Entry {
                    value: false,
                    hot: true,
                },
            );
        }
        sweep(&mut map);
        assert_eq!(map.len(), 32);
    }

    #[test]
    fn global_roundtrip() {
        let key = (0xdead_beef_0000_0001, 0xfeed_face_0000_0002);
        SAT.insert(key, false);
        assert_eq!(SAT.lookup(key), Some(false));
    }

    #[test]
    fn bounded_insertions_trigger_sweep() {
        let cache: ShardedCache<u64> = ShardedCache::new(8);
        // All keys map to one shard (same high bits of key.1): inserting
        // past capacity must evict rather than grow without bound.
        for i in 0..100u64 {
            cache.insert((i, i), i);
        }
        let shards = cache.shards.get().unwrap();
        assert!(shards.iter().all(|s| lock(s).len() <= 9));
    }
}
