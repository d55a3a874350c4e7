//! The PC-indexed configuration cache (paper Fig. 2: "saved in a dedicated
//! configuration cache and indexed by the PC of the first instruction").

use std::collections::HashMap;
use std::sync::Arc;

use crate::translate::CachedConfig;

/// An LRU cache of translated configurations, keyed by start PC.
///
/// Entries are shared handles: a hit hands out the cached
/// [`Arc<CachedConfig>`] itself, so executing a configuration never copies
/// it — the translation is decoded once and executed many times.
///
/// Hits, misses, insertions and evictions are metered as `dbt.cache.*`
/// tracing counters (DESIGN.md §16); the cache itself keeps no counters.
///
/// # Examples
///
/// ```
/// use dbt::ConfigCache;
/// let mut cache = ConfigCache::new(32);
/// assert!(cache.lookup(0x1000).is_none());
/// assert!(cache.is_empty());
/// ```
#[derive(Clone, Debug)]
pub struct ConfigCache {
    capacity: usize,
    entries: HashMap<u32, Entry>,
    tick: u64,
}

#[derive(Clone, Debug)]
struct Entry {
    config: Arc<CachedConfig>,
    last_used: u64,
}

impl ConfigCache {
    /// Creates a cache holding at most `capacity` configurations.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> ConfigCache {
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

    /// `true` when no configurations are cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `true` if `pc` has an entry (does not touch LRU state or counters).
    pub fn contains(&self, pc: u32) -> bool {
        self.entries.contains_key(&pc)
    }

    /// Looks up the configuration starting at `pc`, updating LRU order and
    /// metering the hit or miss. A hit returns the shared handle.
    pub fn lookup(&mut self, pc: u32) -> Option<&Arc<CachedConfig>> {
        self.tick += 1;
        match self.entries.get_mut(&pc) {
            Some(e) => {
                e.last_used = self.tick;
                tracing::event!(tracing::Level::TRACE, "dbt.cache.hit", "add" = 1);
                Some(&e.config)
            }
            None => {
                tracing::event!(tracing::Level::TRACE, "dbt.cache.miss", "add" = 1);
                None
            }
        }
    }

    /// Inserts a configuration, evicting the least recently used entry if
    /// the cache is full. Replaces any existing entry with the same PC.
    ///
    /// Returns the start PC of the evicted entry, if one was displaced —
    /// event-stream consumers (`transrec`'s telemetry layer) turn it into a
    /// `CacheEvicted` event.
    pub fn insert(&mut self, config: Arc<CachedConfig>) -> Option<u32> {
        self.tick += 1;
        let pc = config.start_pc;
        let mut evicted = None;
        if !self.entries.contains_key(&pc) && self.entries.len() >= self.capacity {
            if let Some((&victim, _)) = self.entries.iter().min_by_key(|(_, e)| e.last_used) {
                self.entries.remove(&victim);
                tracing::event!(tracing::Level::TRACE, "dbt.cache.evict", "add" = 1);
                evicted = Some(victim);
            }
        }
        tracing::event!(tracing::Level::TRACE, "dbt.cache.insert", "add" = 1);
        self.entries.insert(pc, Entry { config, last_used: self.tick });
        evicted
    }

    /// Drops every cached configuration — the DBT flush on a program
    /// switch (translations are PC-indexed, so entries from a previous
    /// program would alias the new one).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Iterates over the cached configurations in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = &CachedConfig> {
        self.entries.values().map(|e| &*e.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgra::op::{AluFunc, CtxLine, OpKind, Operand, PlacedOp};
    use cgra::{Configuration, Fabric};
    use dbt_test_helpers::*;

    /// Minimal valid CachedConfig for cache plumbing tests.
    mod dbt_test_helpers {
        use super::*;
        use crate::translate::StopReason;

        pub fn dummy(pc: u32) -> Arc<CachedConfig> {
            let fabric = Fabric::be();
            let config = Configuration::new(
                &fabric,
                vec![PlacedOp {
                    row: 0,
                    col: 0,
                    span: 1,
                    kind: OpKind::Alu(AluFunc::Add),
                    a: Operand::Ctx(CtxLine(0)),
                    b: Operand::Imm(1),
                    dst: Some(CtxLine(1)),
                }],
                vec![CtxLine(0)],
                vec![CtxLine(1)],
            )
            .unwrap();
            Arc::new(CachedConfig {
                start_pc: pc,
                instr_count: 1,
                config,
                input_regs: vec![rv32::Reg::A0],
                output_regs: vec![rv32::Reg::A0],
                exit: crate::translate::TraceExit::Sequential,
                cond_output_index: None,
                stop: StopReason::Complete,
            })
        }
    }

    #[test]
    fn hit_miss_counting() {
        let mut c = ConfigCache::new(4);
        assert!(c.lookup(0x100).is_none(), "empty cache misses");
        assert_eq!(c.insert(dummy(0x100)), None);
        assert_eq!(c.lookup(0x100).map(|cc| cc.start_pc), Some(0x100), "inserted entry hits");
        assert!(c.lookup(0x200).is_none(), "other PCs still miss");
        c.clear();
        assert!(c.lookup(0x100).is_none(), "a flush drops every entry");
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = ConfigCache::new(2);
        assert_eq!(c.insert(dummy(0x100)), None);
        assert_eq!(c.insert(dummy(0x200)), None);
        c.lookup(0x100); // 0x200 becomes LRU
        assert_eq!(c.insert(dummy(0x300)), Some(0x200), "victim PC reported");
        assert!(c.contains(0x100));
        assert!(!c.contains(0x200), "LRU entry evicted");
        assert!(c.contains(0x300));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn reinsert_same_pc_replaces() {
        let mut c = ConfigCache::new(2);
        c.insert(dummy(0x100));
        assert_eq!(c.insert(dummy(0x100)), None, "replacement is not an eviction");
        assert_eq!(c.len(), 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        ConfigCache::new(0);
    }
}
