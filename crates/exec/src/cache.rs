//! Memoizing evaluation cache keyed by quantized parameter vectors.
//!
//! Optimizer loops revisit (nearly) identical candidates constantly —
//! elitist GA generations re-seed champions, annealers oscillate around
//! accepted points, multi-start inits re-sample tight log ranges. Keying
//! a cost cache on *quantized* parameter values turns those revisits into
//! lookups instead of simulator calls.
//!
//! # Key quantization
//!
//! Each `f64` coordinate is mapped to its IEEE-754 bit pattern with the
//! low [`QUANT_MANTISSA_BITS`] mantissa bits cleared (plus `-0.0 → +0.0`
//! and NaN canonicalization). Clearing 20 of the 52 mantissa bits buckets
//! values by ~2⁻³² relative spacing — far finer than any physical
//! parameter tolerance in this flow, but coarse enough that re-derived
//! values differing only in final-rounding noise share a bucket. Two
//! vectors in the same bucket return the first-computed cost, so a cached
//! cost can differ from a fresh evaluation by at most the cost function's
//! variation over a 2⁻³² relative box. Quantization is a pure function of
//! the value: cache behavior is deterministic and thread-count
//! independent (see [`EvalCache::eval_batch`]).

// det-lint: allow(hash-collection): keyed memoization; exports sort by insertion index
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::pool::par_map_indexed;

/// Low mantissa bits cleared when quantizing a coordinate for cache
/// lookup (52-bit mantissa ⇒ ~2⁻³² relative bucket spacing).
pub const QUANT_MANTISSA_BITS: u32 = 20;

/// Quantizes one coordinate to its cache-key bit pattern.
pub fn quantize(v: f64) -> u64 {
    if v.is_nan() {
        return f64::NAN.to_bits(); // canonical NaN: all NaNs collide
    }
    if v == 0.0 {
        return 0; // fold -0.0 into +0.0
    }
    v.to_bits() & !((1u64 << QUANT_MANTISSA_BITS) - 1)
}

/// A quantized parameter-vector key. `tag` namespaces heterogeneous
/// evaluations sharing one cache (e.g. the GA's per-topology genomes).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey {
    tag: u64,
    /// A boxed slice, not a `Vec`: dropping the capacity word pays for the
    /// insertion index each [`EvalCache`] entry carries, so an entry
    /// (key, cost, index) stays five words.
    coords: Box<[u64]>,
}

/// Derives the canonical namespace tag for an evaluator from its stable
/// name (FNV-1a over the UTF-8 bytes).
///
/// Every optimizer front end — GA, annealer, simopt templates, equation
/// models, polish — must derive its cache tag through this one function
/// so that probes for the *same* cost function collide across
/// generations, optimizers, and (with the persistent cache)
/// across process runs. Ad-hoc per-callsite tag constants defeat the
/// cache: two sites evaluating the same model under different tags never
/// share an entry.
pub fn cache_tag(name: &str) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

impl CacheKey {
    /// The canonical key-construction path: quantizes every coordinate of
    /// a candidate's parameter vector under a [`cache_tag`]-derived
    /// namespace tag. All optimizers build keys here so identical
    /// `(evaluator, params)` pairs collide regardless of which loop asks.
    pub fn for_candidate(tag: u64, params: &[f64]) -> Self {
        CacheKey {
            tag,
            coords: params.iter().copied().map(quantize).collect(),
        }
    }

    /// Rebuilds a key from its raw parts (checkpoint import).
    pub fn from_parts(tag: u64, coords: Vec<u64>) -> Self {
        CacheKey {
            tag,
            coords: coords.into_boxed_slice(),
        }
    }

    /// The namespace tag.
    pub fn tag(&self) -> u64 {
        self.tag
    }

    /// The quantized coordinate bit patterns.
    pub fn coords(&self) -> &[u64] {
        &self.coords
    }
}

/// Hit/miss totals for one cache instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Evaluations served from the cache (or deduplicated within a batch).
    pub hits: u64,
    /// Evaluations actually computed.
    pub misses: u64,
}

impl CacheStats {
    /// Hits as a fraction of all requests (0.0 when empty).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A memoizing cost cache shared by the workers of one optimization run.
///
/// Batch evaluation keeps the cache deterministic under parallelism:
/// lookups and hit/miss accounting happen serially before the parallel
/// compute of misses, and insertions happen serially after it, in item
/// order. The cache's observable state therefore never depends on thread
/// scheduling.
///
/// Each entry remembers when its key was first inserted, so persistence
/// layers can write only what is new: [`EvalCache::mark`] names the
/// present, and [`EvalCache::entries_since`] returns the entries first
/// inserted after a mark, without keeping a second copy of any key.
#[derive(Debug, Default)]
pub struct EvalCache {
    map: Mutex<HashMap<CacheKey, Slot>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// `AMS_EVAL_CACHE=off`: every request computes, nothing is stored.
    disabled: bool,
}

impl EvalCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// A pass-through cache: every request is a miss, nothing is stored,
    /// in-batch duplicates are computed individually. Used for the
    /// `AMS_EVAL_CACHE=off` leg of the cache-mode matrix; results are
    /// bit-identical to the memoizing modes because cached costs are the
    /// exact bits a fresh evaluation would produce.
    pub fn disabled() -> Self {
        EvalCache {
            disabled: true,
            ..Self::default()
        }
    }

    /// True when this instance is a pass-through (`AMS_EVAL_CACHE=off`).
    pub fn is_disabled(&self) -> bool {
        self.disabled
    }

    /// Hit/miss totals so far.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Number of distinct cached points.
    pub fn len(&self) -> usize {
        lock(&self.map).len()
    }

    /// True if nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The present point in the cache's insertion order: the number of
    /// distinct keys inserted so far. Pass it to
    /// [`EvalCache::entries_since`] later to get what was added after it.
    pub fn mark(&self) -> u64 {
        lock(&self.map).len() as u64
    }

    /// Exports the entries whose keys were first inserted at or after
    /// `mark` (every entry for `mark == 0`), in insertion order, which is
    /// deterministic like every insertion. Costs are returned as raw
    /// IEEE-754 bit patterns so an export/import round trip is byte-exact.
    pub fn entries_since(&self, mark: u64) -> Vec<(CacheKey, u64)> {
        let map = lock(&self.map);
        let mut out: Vec<(u64, CacheKey, u64)> = map
            .iter()
            .filter(|(_, s)| s.seq >= mark)
            .map(|(k, s)| (s.seq, k.clone(), s.cost.to_bits()))
            .collect();
        out.sort_unstable_by_key(|e| e.0);
        out.into_iter().map(|(_, k, bits)| (k, bits)).collect()
    }

    /// Re-inserts entries previously produced by
    /// [`EvalCache::entries_since`], in order. Existing entries with the same key are overwritten and keep
    /// their insertion index; hit/miss statistics are untouched, so a
    /// resumed optimizer's cache counters evolve exactly as the
    /// uninterrupted run's did from this point on.
    pub fn import_entries(&self, entries: &[(CacheKey, u64)]) {
        let mut map = lock(&self.map);
        for (k, bits) in entries {
            insert(&mut map, k.clone(), f64::from_bits(*bits));
        }
    }

    /// Evaluates a batch of parameter points, memoizing by quantized key.
    ///
    /// Convenience wrapper over [`EvalCache::eval_batch_keyed`] for
    /// homogeneous batches sharing one `tag`.
    pub fn eval_batch<F>(&self, tag: u64, points: &[Vec<f64>], f: F) -> Vec<f64>
    where
        F: Fn(usize, &[f64]) -> f64 + Sync,
    {
        self.eval_batch_keyed(points, |x| CacheKey::for_candidate(tag, x), |i, x| f(i, x))
    }

    /// Evaluates a batch of arbitrary items with a caller-supplied key.
    ///
    /// Phases: (1) serial — probe the cache for every item and decide the
    /// hit/miss pattern (duplicates of an in-batch miss count as hits and
    /// are computed once); (2) serial — charge the whole batch's computed
    /// evaluations to the active [`ams_guard::budget`] in one metered
    /// step, so budget spend is decided before any worker runs and is
    /// identical at every thread count; (3) parallel — evaluate the
    /// distinct misses via [`par_map_indexed`], with `f(batch_index,
    /// item)` receiving the index of the first occurrence; (4) serial —
    /// insert results in item order and assemble the output. Emits
    /// `exec.cache.hit` / `exec.cache.miss`, both deterministic.
    pub fn eval_batch_keyed<T, K, F>(&self, items: &[T], key: K, f: F) -> Vec<f64>
    where
        T: Sync,
        K: Fn(&T) -> CacheKey,
        F: Fn(usize, &T) -> f64 + Sync,
    {
        let mut out: Vec<Option<f64>> = vec![None; items.len()];
        // first occurrence of an uncached key -> its slot in `compute`
        let mut first: HashMap<CacheKey, usize> = HashMap::new();
        let mut compute: Vec<usize> = Vec::new(); // batch indices to evaluate
        let mut dup_of: Vec<(usize, usize)> = Vec::new(); // (batch idx, compute slot)
        let (mut hits, mut misses) = (0u64, 0u64);
        if self.disabled {
            compute.extend(0..items.len());
            misses = items.len() as u64;
        } else {
            let map = lock(&self.map);
            for (i, x) in items.iter().enumerate() {
                let k = key(x);
                if let Some(s) = map.get(&k) {
                    out[i] = Some(s.cost);
                    hits += 1;
                } else if let Some(&slot) = first.get(&k) {
                    dup_of.push((i, slot));
                    hits += 1;
                } else {
                    first.insert(k, compute.len());
                    compute.push(i);
                    misses += 1;
                }
            }
        }
        self.hits.fetch_add(hits, Ordering::Relaxed);
        self.misses.fetch_add(misses, Ordering::Relaxed);
        ams_trace::counter_add("exec.cache.hit", hits);
        ams_trace::counter_add("exec.cache.miss", misses);
        if hits + misses > 0 {
            // Per-batch hit rate; deterministic (probe order is item order).
            ams_trace::record("exec.cache.hit_rate", hits as f64 / (hits + misses) as f64);
        }
        // Batch-level budget metering: the whole batch's computed-eval
        // count is charged here, serially, so exhaustion (observed by the
        // caller at batch boundaries) never depends on worker scheduling.
        let _ = ams_guard::budget::charge_evals(misses);

        let computed: Vec<f64> =
            par_map_indexed(&compute, |_, &batch_idx| f(batch_idx, &items[batch_idx]));

        if !self.disabled {
            let mut map = lock(&self.map);
            for (slot, &batch_idx) in compute.iter().enumerate() {
                insert(&mut map, key(&items[batch_idx]), computed[slot]);
            }
        }
        for (slot, &batch_idx) in compute.iter().enumerate() {
            out[batch_idx] = Some(computed[slot]);
        }
        for (i, slot) in dup_of {
            out[i] = Some(computed[slot]);
        }
        out.into_iter()
            .map(|v| v.expect("every point resolved"))
            .collect()
    }

    /// Evaluates a single point through the cache, serially: probe, and
    /// on a miss compute with `f` and insert. No parallel dispatch and
    /// **no budget charge** — serial chains (the annealer's Metropolis
    /// loop) meter their own moves. Emits the same `exec.cache.hit` /
    /// `exec.cache.miss` counters as the batch path.
    pub fn eval_with<F>(&self, key: CacheKey, f: F) -> f64
    where
        F: FnOnce() -> f64,
    {
        if !self.disabled {
            if let Some(s) = lock(&self.map).get(&key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                ams_trace::counter_add("exec.cache.hit", 1);
                return s.cost;
            }
        }
        let v = f();
        self.misses.fetch_add(1, Ordering::Relaxed);
        ams_trace::counter_add("exec.cache.miss", 1);
        if !self.disabled {
            insert(&mut lock(&self.map), key, v);
        }
        v
    }
}

/// One cached cost and the index at which its key was first inserted.
#[derive(Debug, Clone, Copy)]
struct Slot {
    cost: f64,
    seq: u64,
}

/// Stores `cost` under `key`. A new key takes the next insertion index
/// (entries are never removed, so that is the map's length); an existing
/// one keeps its index.
fn insert(map: &mut HashMap<CacheKey, Slot>, key: CacheKey, cost: f64) {
    let seq = map.len() as u64;
    map.entry(key)
        .and_modify(|s| s.cost = cost)
        .or_insert(Slot { cost, seq });
}

fn lock(m: &Mutex<HashMap<CacheKey, Slot>>) -> std::sync::MutexGuard<'_, HashMap<CacheKey, Slot>> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The guard budget is process-global; serialize every test that
    /// triggers a `charge_evals` so spend assertions are exact.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn quantization_buckets_rounding_noise_but_separates_parameters() {
        // Final-rounding noise collides…
        assert_eq!(quantize(0.1 + 0.2), quantize(0.3));
        // …distinct physical parameters do not.
        assert_ne!(quantize(1.0e-6), quantize(1.1e-6));
        assert_eq!(quantize(-0.0), quantize(0.0));
        assert_eq!(quantize(f64::NAN), quantize(-f64::NAN));
    }

    #[test]
    fn repeat_batches_hit_the_cache() {
        let _serial = serial();
        let cache = EvalCache::new();
        let points: Vec<Vec<f64>> = (0..16).map(|i| vec![i as f64, 2.0]).collect();
        let a = cache.eval_batch(0, &points, |_, x| x[0] * x[1]);
        let b = cache.eval_batch(0, &points, |_, x| unreachable!("cached: {x:?}"));
        assert_eq!(a, b);
        let s = cache.stats();
        assert_eq!(s.misses, 16);
        assert_eq!(s.hits, 16);
        assert_eq!(s.hit_rate(), 0.5);
    }

    #[test]
    fn in_batch_duplicates_compute_once() {
        let _serial = serial();
        let cache = EvalCache::new();
        let points = vec![vec![1.0], vec![2.0], vec![1.0], vec![1.0]];
        let calls = AtomicU64::new(0);
        let got = cache.eval_batch(7, &points, |_, x| {
            calls.fetch_add(1, Ordering::Relaxed);
            x[0] * 10.0
        });
        assert_eq!(got, vec![10.0, 20.0, 10.0, 10.0]);
        assert_eq!(calls.load(Ordering::Relaxed), 2);
        assert_eq!(cache.stats(), CacheStats { hits: 2, misses: 2 });
    }

    #[test]
    fn tags_namespace_identical_vectors() {
        let _serial = serial();
        let cache = EvalCache::new();
        let points = vec![vec![3.0]];
        let a = cache.eval_batch(0, &points, |_, _| 1.0);
        let b = cache.eval_batch(1, &points, |_, _| 2.0);
        assert_eq!((a[0], b[0]), (1.0, 2.0));
    }

    #[test]
    fn cache_tag_is_stable_and_separates_names() {
        // FNV-1a reference vector: empty string hashes to the offset basis.
        assert_eq!(cache_tag(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(cache_tag("two-stage-miller"), cache_tag("two-stage-miller"));
        assert_ne!(cache_tag("two-stage-miller"), cache_tag("symmetrical-ota"));
        // Canonical keys under the derived tag equal the raw-tag path.
        let tag = cache_tag("m");
        let k = CacheKey::for_candidate(tag, &[0.1 + 0.2]);
        assert_eq!(k.tag(), tag);
        assert_eq!(k.coords(), &[quantize(0.3)]);
    }

    #[test]
    fn eval_with_memoizes_serially() {
        let _serial = serial();
        let cache = EvalCache::new();
        let tag = cache_tag("eval-with");
        let a = cache.eval_with(CacheKey::for_candidate(tag, &[1.0, 2.0]), || 42.0);
        let b = cache.eval_with(CacheKey::for_candidate(tag, &[1.0, 2.0]), || {
            unreachable!("cached")
        });
        assert_eq!((a, b), (42.0, 42.0));
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
    }

    #[test]
    fn entries_since_a_mark_are_the_new_keys_in_insertion_order() {
        let _serial = serial();
        let cache = EvalCache::new();
        let key = |x: f64| CacheKey::for_candidate(5, &[x]);
        cache.eval_batch(5, &[vec![3.0], vec![1.0]], |_, x| x[0]);
        let mark = cache.mark();
        assert_eq!(mark, 2);
        cache.eval_batch(5, &[vec![2.0], vec![3.0], vec![0.5]], |_, x| x[0]);
        // A re-imported old key keeps its index and is not new.
        cache.import_entries(&[(key(1.0), 7.0f64.to_bits())]);
        assert_eq!(
            cache.entries_since(mark),
            vec![(key(2.0), 2.0f64.to_bits()), (key(0.5), 0.5f64.to_bits())]
        );
        assert_eq!(cache.entries_since(0).len(), 4);
        assert!(cache.entries_since(cache.mark()).is_empty());
        // Importing the entries in order rebuilds the same insertion order.
        let copy = EvalCache::new();
        copy.import_entries(&cache.entries_since(0));
        assert_eq!(copy.entries_since(0), cache.entries_since(0));
    }

    #[test]
    fn disabled_cache_computes_everything_and_stores_nothing() {
        let _serial = serial();
        let cache = EvalCache::disabled();
        assert!(cache.is_disabled());
        let points = vec![vec![1.0], vec![1.0]];
        let calls = AtomicU64::new(0);
        let got = cache.eval_batch(0, &points, |_, x| {
            calls.fetch_add(1, Ordering::Relaxed);
            x[0] * 2.0
        });
        assert_eq!(got, vec![2.0, 2.0]);
        // No dedup, no memoization: both occurrences computed.
        assert_eq!(calls.load(Ordering::Relaxed), 2);
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 2 });
        let v = cache.eval_with(CacheKey::for_candidate(0, &[1.0]), || 9.0);
        assert_eq!(v, 9.0);
        assert!(cache.is_empty());
    }

    #[test]
    fn batch_misses_are_charged_to_the_active_budget() {
        let _serial = serial();
        ams_guard::budget::install(ams_guard::budget::Budget::unlimited().evals(100));
        let before = ams_guard::budget::spent_evals();
        let cache = EvalCache::new();
        let points: Vec<Vec<f64>> = (0..6).map(|i| vec![i as f64]).collect();
        cache.eval_batch(3, &points, |_, x| x[0]);
        // Second batch is all hits: nothing further charged.
        cache.eval_batch(3, &points, |_, x| x[0]);
        let spent = ams_guard::budget::spent_evals() - before;
        ams_guard::budget::clear();
        assert_eq!(spent, 6);
    }
}
