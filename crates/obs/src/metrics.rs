//! The global sharded metric registry and the three metric kinds.
//!
//! Registration takes a short-lived lock on one shard; the returned handles
//! update lock-free atomics, so hot paths that register once (the stage
//! profiler's tick histograms, the campaign's per-run timers) never
//! contend on the registry itself.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::RwLock;

use crate::runtime_enabled;

/// Number of registry shards; keyed by metric name so that unrelated
/// metrics never share a lock.
const SHARD_COUNT: usize = 16;

/// Identity of one metric: name plus sorted label pairs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct MetricKey {
    pub(crate) name: String,
    pub(crate) labels: Vec<(String, String)>,
}

#[derive(Debug, Clone)]
pub(crate) enum Entry {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<HistogramCore>),
}

#[derive(Debug, Default)]
pub(crate) struct Registry {
    shards: Vec<RwLock<HashMap<MetricKey, Entry>>>,
}

impl Registry {
    fn new() -> Self {
        Registry {
            shards: (0..SHARD_COUNT).map(|_| RwLock::default()).collect(),
        }
    }

    pub(crate) fn global() -> &'static Registry {
        static REGISTRY: OnceLock<Registry> = OnceLock::new();
        REGISTRY.get_or_init(Registry::new)
    }

    fn shard(&self, key: &MetricKey) -> &RwLock<HashMap<MetricKey, Entry>> {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        key.name.hash(&mut hasher);
        &self.shards[hasher.finish() as usize % SHARD_COUNT]
    }

    /// Fetches or creates the entry for `key`. `make` builds the entry on
    /// first registration; `pick` projects the handle out of a matching
    /// entry. A name registered with a *different* kind yields a detached
    /// handle (valid, never exported) instead of panicking — first
    /// registration wins.
    fn get_or_register<T>(
        &self,
        key: MetricKey,
        make: impl FnOnce() -> (Entry, T),
        pick: impl Fn(&Entry) -> Option<T>,
    ) -> T {
        let shard = self.shard(&key);
        if let Some(entry) = shard.read().get(&key) {
            if let Some(handle) = pick(entry) {
                return handle;
            }
            return make().1;
        }
        let mut guard = shard.write();
        if let Some(entry) = guard.get(&key) {
            if let Some(handle) = pick(entry) {
                return handle;
            }
            return make().1;
        }
        let (entry, handle) = make();
        guard.insert(key, entry);
        handle
    }

    /// A sorted snapshot of every registered metric (export path).
    pub(crate) fn snapshot(&self) -> Vec<(MetricKey, Entry)> {
        let mut all: Vec<(MetricKey, Entry)> = Vec::new();
        for shard in &self.shards {
            for (k, v) in shard.read().iter() {
                all.push((k.clone(), v.clone()));
            }
        }
        all.sort_by(|a, b| {
            a.0.name
                .cmp(&b.0.name)
                .then_with(|| a.0.labels.cmp(&b.0.labels))
        });
        all
    }
}

fn key(name: &str, labels: &[(&str, &str)]) -> MetricKey {
    let mut labels: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    labels.sort();
    MetricKey {
        name: name.to_string(),
        labels,
    }
}

/// A monotone event counter.
#[derive(Debug, Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        if runtime_enabled() {
            self.cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A last-write-wins instantaneous value.
#[derive(Debug, Clone)]
pub struct Gauge {
    cell: Arc<AtomicU64>,
}

impl Gauge {
    /// Stores `value`.
    pub fn set(&self, value: f64) {
        if runtime_enabled() {
            self.cell.store(value.to_bits(), Ordering::Relaxed);
        }
    }

    /// The current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.cell.load(Ordering::Relaxed))
    }
}

/// Lock-free fixed-bucket histogram state.
#[derive(Debug)]
pub(crate) struct HistogramCore {
    pub(crate) bounds: &'static [f64],
    /// One slot per bound plus the overflow (`+Inf`) slot.
    pub(crate) counts: Vec<AtomicU64>,
    pub(crate) total: AtomicU64,
    sum_bits: AtomicU64,
}

impl HistogramCore {
    fn new(bounds: &'static [f64]) -> Self {
        HistogramCore {
            bounds,
            counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            total: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    pub(crate) fn observe(&self, value: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|b| value <= *b)
            .unwrap_or(self.bounds.len());
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
        // CAS loop: f64 accumulation over atomic bits.
        let mut current = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + value).to_bits();
            match self.sum_bits.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => current = seen,
            }
        }
    }

    pub(crate) fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Quantile estimate by linear interpolation inside the bucket holding
    /// the rank, Prometheus-style. `None` when the histogram is empty;
    /// ranks landing in the overflow bucket clamp to the largest bound.
    pub(crate) fn quantile(&self, q: f64) -> Option<f64> {
        let total = self.total.load(Ordering::Relaxed);
        if total == 0 {
            return None;
        }
        let rank = q.clamp(0.0, 1.0) * total as f64;
        let mut cumulative = 0u64;
        for (i, slot) in self.counts.iter().enumerate() {
            let in_bucket = slot.load(Ordering::Relaxed);
            if in_bucket == 0 {
                cumulative += in_bucket;
                continue;
            }
            if (cumulative + in_bucket) as f64 >= rank {
                if i >= self.bounds.len() {
                    // Overflow bucket has no upper edge.
                    return Some(*self.bounds.last().unwrap_or(&0.0));
                }
                let lower = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                let upper = self.bounds[i];
                let into = ((rank - cumulative as f64) / in_bucket as f64).clamp(0.0, 1.0);
                return Some(lower + (upper - lower) * into);
            }
            cumulative += in_bucket;
        }
        Some(*self.bounds.last().unwrap_or(&0.0))
    }
}

/// A fixed-bucket distribution of observed values.
#[derive(Debug, Clone)]
pub struct Histogram {
    pub(crate) core: Arc<HistogramCore>,
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, value: f64) {
        if runtime_enabled() {
            self.core.observe(value);
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.core.total.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> f64 {
        self.core.sum()
    }

    /// Quantile estimate (`0.0 ..= 1.0`); `None` while empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        self.core.quantile(q)
    }
}

/// Registers (or fetches) the counter `name`.
pub fn counter(name: &str) -> Counter {
    counter_inner(key(name, &[]))
}

/// Registers (or fetches) the counter `name` carrying one label pair,
/// e.g. `faults_injected_total{kind="Zeros"}`.
pub fn counter_labeled(name: &str, label_key: &str, label_value: &str) -> Counter {
    counter_inner(key(name, &[(label_key, label_value)]))
}

fn counter_inner(key: MetricKey) -> Counter {
    Registry::global().get_or_register(
        key,
        || {
            let cell = Arc::new(AtomicU64::new(0));
            (Entry::Counter(Arc::clone(&cell)), Counter { cell })
        },
        |entry| match entry {
            Entry::Counter(cell) => Some(Counter {
                cell: Arc::clone(cell),
            }),
            _ => None,
        },
    )
}

/// Registers (or fetches) the gauge `name`.
pub fn gauge(name: &str) -> Gauge {
    Registry::global().get_or_register(
        key(name, &[]),
        || {
            let cell = Arc::new(AtomicU64::new(0f64.to_bits()));
            (Entry::Gauge(Arc::clone(&cell)), Gauge { cell })
        },
        |entry| match entry {
            Entry::Gauge(cell) => Some(Gauge {
                cell: Arc::clone(cell),
            }),
            _ => None,
        },
    )
}

/// Registers (or fetches) the histogram `name` with the given fixed bucket
/// bounds (see [`crate::buckets`]). Bounds are set by the first
/// registration.
pub fn histogram(name: &str, bounds: &'static [f64]) -> Histogram {
    Registry::global().get_or_register(
        key(name, &[]),
        || {
            let core = Arc::new(HistogramCore::new(bounds));
            (Entry::Histogram(Arc::clone(&core)), Histogram { core })
        },
        |entry| match entry {
            Entry::Histogram(core) => Some(Histogram {
                core: Arc::clone(core),
            }),
            _ => None,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concurrent_counter_and_histogram_updates_sum_exactly() {
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 10_000;
        let c = counter("obs_test_concurrent_counter");
        let h = histogram("obs_test_concurrent_hist", crate::buckets::LATENCY_S);
        let before = c.get();
        let h_before = h.count();
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let c = c.clone();
                let h = h.clone();
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        c.inc();
                        // Spread observations across buckets.
                        h.observe(1e-6 * ((t as u64 * PER_THREAD + i) % 1000 + 1) as f64);
                    }
                });
            }
        });
        assert_eq!(c.get() - before, THREADS as u64 * PER_THREAD);
        assert_eq!(h.count() - h_before, THREADS as u64 * PER_THREAD);
    }

    #[test]
    fn histogram_quantiles_interpolate() {
        let h = histogram("obs_test_quantiles", crate::buckets::LATENCY_S);
        assert_eq!(h.quantile(0.5), None);
        // 100 observations at 2 ms: every quantile lands in the
        // (1 ms, 2.5 ms] bucket.
        for _ in 0..100 {
            h.observe(2e-3);
        }
        let p50 = h.quantile(0.5).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        assert!(p50 > 1e-3 && p50 <= 2.5e-3, "p50 {p50}");
        assert!(p99 > 1e-3 && p99 <= 2.5e-3, "p99 {p99}");
        assert!(p50 <= p99);
        assert!((h.sum() - 0.2).abs() < 1e-9);
    }

    #[test]
    fn histogram_overflow_clamps_to_last_bound() {
        let h = histogram("obs_test_overflow", crate::buckets::LATENCY_S);
        h.observe(1e9);
        assert_eq!(h.quantile(0.5), Some(10.0));
    }

    #[test]
    fn kind_mismatch_yields_detached_handle() {
        let c = counter("obs_test_kind_clash");
        c.add(3);
        // Same name as a gauge: detached, never aliases the counter.
        let g = gauge("obs_test_kind_clash");
        g.set(99.0);
        assert_eq!(c.get(), 3);
    }

    #[test]
    fn labeled_counters_are_distinct() {
        let a = counter_labeled("obs_test_labeled", "kind", "a");
        let b = counter_labeled("obs_test_labeled", "kind", "b");
        a.add(2);
        b.add(5);
        assert_eq!(a.get(), 2);
        assert_eq!(b.get(), 5);
        // Re-fetching resolves to the same cell.
        assert_eq!(counter_labeled("obs_test_labeled", "kind", "a").get(), 2);
    }
}
