//! The PC-indexed configuration cache (paper Fig. 2: "saved in a dedicated
//! configuration cache and indexed by the PC of the first instruction").

use std::collections::HashMap;

/// An LRU cache of per-PC translation records, keyed by the start PC of
/// the translated trace.
///
/// The cache stores whatever record its owner derives from a translation
/// — the [`CachedConfig`](crate::CachedConfig) itself, or a decoded form
/// built once at insertion — so one map serves lookup, LRU order and
/// eviction.
///
/// The cache neither counts nor meters: its owner counts lookups, hits,
/// insertions and evictions where it calls it (DESIGN.md §16).
///
/// # Examples
///
/// ```
/// use dbt::{CachedConfig, ConfigCache};
/// let mut cache: ConfigCache<CachedConfig> = ConfigCache::new(32);
/// assert!(cache.lookup(0x1000).is_none());
/// assert!(cache.is_empty());
/// ```
#[derive(Clone, Debug)]
pub struct ConfigCache<T> {
    capacity: usize,
    entries: HashMap<u32, Entry<T>>,
    tick: u64,
}

#[derive(Clone, Debug)]
struct Entry<T> {
    record: T,
    last_used: u64,
}

impl<T> ConfigCache<T> {
    /// Creates a cache holding at most `capacity` records.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> ConfigCache<T> {
        assert!(capacity > 0, "cache capacity must be positive");
        ConfigCache { capacity, entries: HashMap::new(), tick: 0 }
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no records are cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `true` if `pc` has an entry (does not touch LRU state).
    pub fn contains(&self, pc: u32) -> bool {
        self.entries.contains_key(&pc)
    }

    /// Looks up the record starting at `pc`, updating LRU order.
    pub fn lookup(&mut self, pc: u32) -> Option<&T> {
        self.tick += 1;
        let e = self.entries.get_mut(&pc)?;
        e.last_used = self.tick;
        Some(&e.record)
    }

    /// Inserts the record of the translation starting at `pc`, evicting
    /// the least recently used entry if the cache is full. Replaces any
    /// existing entry with the same PC.
    ///
    /// Returns the start PC of the evicted entry, if one was displaced —
    /// event-stream consumers (`transrec`'s telemetry layer) turn it into a
    /// `CacheEvicted` event.
    pub fn insert(&mut self, pc: u32, record: T) -> Option<u32> {
        self.tick += 1;
        let mut evicted = None;
        if !self.entries.contains_key(&pc) && self.entries.len() >= self.capacity {
            if let Some((&victim, _)) = self.entries.iter().min_by_key(|(_, e)| e.last_used) {
                self.entries.remove(&victim);
                evicted = Some(victim);
            }
        }
        self.entries.insert(pc, Entry { record, last_used: self.tick });
        evicted
    }

    /// Drops every cached record — the DBT flush on a program switch
    /// (translations are PC-indexed, so entries from a previous program
    /// would alias the new one).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Iterates over the cached records in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.entries.values().map(|e| &e.record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_miss_counting() {
        let mut c = ConfigCache::new(4);
        assert!(c.lookup(0x100).is_none(), "empty cache misses");
        assert_eq!(c.insert(0x100, "a"), None);
        assert_eq!(c.lookup(0x100), Some(&"a"), "inserted entry hits");
        assert!(c.lookup(0x200).is_none(), "other PCs still miss");
        c.clear();
        assert!(c.lookup(0x100).is_none(), "a flush drops every entry");
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = ConfigCache::new(2);
        assert_eq!(c.insert(0x100, ()), None);
        assert_eq!(c.insert(0x200, ()), None);
        c.lookup(0x100); // 0x200 becomes LRU
        assert_eq!(c.insert(0x300, ()), Some(0x200), "victim PC reported");
        assert!(c.contains(0x100));
        assert!(!c.contains(0x200), "LRU entry evicted");
        assert!(c.contains(0x300));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn reinsert_same_pc_replaces() {
        let mut c = ConfigCache::new(2);
        c.insert(0x100, 1);
        assert_eq!(c.insert(0x100, 2), None, "replacement is not an eviction");
        assert_eq!(c.len(), 1);
        assert_eq!(c.iter().copied().collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        ConfigCache::<()>::new(0);
    }
}
