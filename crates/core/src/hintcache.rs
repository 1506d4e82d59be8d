//! Segmented (two-generation) inode-hint cache for the namenode.
//!
//! The hint cache maps `(parent inode, child name)` to `(child inode,
//! is_dir)` so path resolution can skip NDB round trips for warm ancestors
//! (validated read-committed at lock time, per the HopsFS protocol).
//!
//! Eviction is generational, not wholesale: entries are inserted into a
//! *young* generation; when young fills to half the capacity, it is demoted
//! wholesale to *old* (dropping the previous old generation) and a fresh
//! young generation starts. A lookup that hits the old generation promotes
//! the entry back into young. The effect is scan-resistant second-chance
//! eviction at HashMap cost: any entry referenced at least once per
//! generation turn — e.g. the ancestor chain of a hot directory, touched on
//! every operation under it — survives cap pressure indefinitely, while
//! one-shot entries age out after two turns. The previous implementation
//! (`cache.clear()` at capacity) dropped the entire working set, forcing
//! every in-flight client back to full-depth resolution at once.
//!
//! Memory stays bounded by `cap` live entries (two half-`cap` generations);
//! determinism is untouched because no operation iterates a `HashMap`.

use simnet::FxHashMap;
use std::borrow::Borrow;
use std::hash::{Hash, Hasher};

type Key = (u64, String);
type Hint = (u64, bool);

/// Borrowed view of a cache key, so `(u64, &str)` can probe a
/// `HashMap<(u64, String), _>` without allocating an owned `String` per
/// lookup. The probe runs once per path component per operation — the
/// hottest loop in the namenode — and previously cloned every component
/// name on every hit *and* miss.
trait KeyView {
    fn parent(&self) -> u64;
    fn name(&self) -> &str;
}

impl KeyView for (u64, String) {
    fn parent(&self) -> u64 {
        self.0
    }
    fn name(&self) -> &str {
        &self.1
    }
}

impl KeyView for (u64, &str) {
    fn parent(&self) -> u64 {
        self.0
    }
    fn name(&self) -> &str {
        self.1
    }
}

impl<'a> Borrow<dyn KeyView + 'a> for (u64, String) {
    fn borrow(&self) -> &(dyn KeyView + 'a) {
        self
    }
}

// Must hash exactly like the derived `(u64, String)` implementation (field
// order and types), or borrowed probes would miss owned entries.
impl Hash for dyn KeyView + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.parent().hash(state);
        self.name().hash(state);
    }
}

impl PartialEq for dyn KeyView + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.parent() == other.parent() && self.name() == other.name()
    }
}

impl Eq for dyn KeyView + '_ {}

/// Two-generation inode-hint cache. See the module docs for the policy.
#[derive(Debug)]
pub struct HintCache {
    /// Per-generation capacity: a generation turn happens when `young`
    /// reaches `cap / 2`.
    half: usize,
    young: FxHashMap<Key, Hint>,
    old: FxHashMap<Key, Hint>,
}

impl HintCache {
    /// Creates a cache bounded to `cap` entries across both generations.
    pub fn new(cap: usize) -> Self {
        assert!(cap >= 2, "HintCache cap must hold both generations");
        HintCache { half: cap / 2, young: FxHashMap::default(), old: FxHashMap::default() }
    }

    /// Looks up a hint; a hit in the old generation promotes the entry to
    /// young (second chance).
    pub fn get(&mut self, parent: u64, name: &str) -> Option<Hint> {
        let key: &dyn KeyView = &(parent, name);
        if let Some(&hint) = self.young.get(key) {
            return Some(hint);
        }
        let hint = self.old.remove(key)?;
        // The only allocation left: promotion needs an owned key to insert.
        self.insert_young((parent, name.to_string()), hint);
        Some(hint)
    }

    /// Looks up a hint without promoting it (no second chance, no state
    /// change). For introspection — staleness tests and invariant checks
    /// that must not perturb the generational state they are observing.
    pub fn peek(&self, parent: u64, name: &str) -> Option<(u64, bool)> {
        let key: &dyn KeyView = &(parent, name);
        self.young.get(key).or_else(|| self.old.get(key)).copied()
    }

    /// Inserts or refreshes a hint (always lands in the young generation).
    pub fn put(&mut self, parent: u64, name: &str, id: u64, is_dir: bool) {
        self.old.remove(&(parent, name) as &dyn KeyView);
        self.insert_young((parent, name.to_string()), (id, is_dir));
    }

    /// Drops a hint from both generations (mutation invalidation).
    pub fn remove(&mut self, parent: u64, name: &str) {
        let key: &dyn KeyView = &(parent, name);
        self.young.remove(key);
        self.old.remove(key);
    }

    /// Drops everything (stale-chain fallback: resolution observed the
    /// namespace moving under a cached ancestor).
    pub fn clear(&mut self) {
        self.young.clear();
        self.old.clear();
    }

    /// Drops every hint keyed under `root` or any cached descendant of it
    /// (subtree invalidation after a recursive delete or a directory
    /// rename). Dropping only the root's own `(parent, name)` pair would
    /// leave hints for deeper entries stale.
    ///
    /// The descendant closure is computed from the cached entries by
    /// fixpoint: each pass removes entries whose parent is already known
    /// doomed and adds their directory child ids to the doomed set. Removal
    /// is order-independent, so iterating the `HashMap`s here cannot leak
    /// iteration order into simulation state.
    pub fn remove_subtree(&mut self, root: u64) {
        let mut doomed = std::collections::BTreeSet::new();
        doomed.insert(root);
        loop {
            let mut grew = false;
            for gen in [&mut self.young, &mut self.old] {
                gen.retain(|(parent, _), &mut (id, is_dir)| {
                    // An entry dies if it sits under a doomed directory or
                    // points at one (the subtree root's own entry).
                    if doomed.contains(parent) || doomed.contains(&id) {
                        if is_dir {
                            grew |= doomed.insert(id);
                        }
                        false
                    } else {
                        true
                    }
                });
            }
            if !grew {
                return;
            }
        }
    }

    /// Live entries across both generations.
    pub fn len(&self) -> usize {
        self.young.len() + self.old.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn insert_young(&mut self, key: Key, hint: Hint) {
        if self.young.len() >= self.half && !self.young.contains_key(&key) {
            // Generation turn: young becomes old, previous old ages out.
            self.old = std::mem::take(&mut self.young);
        }
        self.young.insert(key, hint);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_and_miss() {
        let mut c = HintCache::new(8);
        c.put(1, "a", 10, true);
        assert_eq!(c.get(1, "a"), Some((10, true)));
        assert_eq!(c.get(1, "b"), None);
        assert_eq!(c.get(2, "a"), None);
    }

    #[test]
    fn remove_drops_both_generations() {
        let mut c = HintCache::new(4);
        c.put(1, "a", 10, true);
        // Turn the generation so "a" sits in old.
        c.put(1, "b", 11, true);
        c.put(1, "c", 12, true);
        c.remove(1, "a");
        assert_eq!(c.get(1, "a"), None);
        c.put(1, "d", 13, true);
        c.remove(1, "d");
        assert_eq!(c.get(1, "d"), None);
    }

    #[test]
    fn put_refreshes_stale_old_entry() {
        let mut c = HintCache::new(4);
        c.put(1, "a", 10, true);
        c.put(1, "b", 11, true); // turn: a,b -> old
        c.put(1, "a", 99, false); // re-put must shadow the old-generation value
        assert_eq!(c.get(1, "a"), Some((99, false)));
    }

    #[test]
    fn bounded_by_cap_under_churn() {
        let mut c = HintCache::new(64);
        for i in 0..10_000u64 {
            c.put(i, "x", i, true);
            assert!(c.len() <= 64, "cache grew past cap: {}", c.len());
        }
    }

    /// Subtree invalidation must drop cached descendants transitively — in
    /// both generations — while leaving unrelated entries alone.
    #[test]
    fn remove_subtree_drops_descendants_transitively() {
        let mut c = HintCache::new(64);
        // /a (id 10) -> /a/b (11) -> /a/b/c (12) -> /a/b/c/f (13, file)
        c.put(1, "a", 10, true);
        c.put(10, "b", 11, true);
        c.put(11, "c", 12, true);
        c.put(12, "f", 13, false);
        // Unrelated sibling /z (20) and its child.
        c.put(1, "z", 20, true);
        c.put(20, "w", 21, false);
        // Turn the generation so part of the chain sits in `old`.
        for i in 0..32u64 {
            c.put(5_000 + i, "pad", i, false);
        }
        c.remove_subtree(10);
        assert_eq!(c.get(1, "a"), None);
        assert_eq!(c.get(10, "b"), None);
        assert_eq!(c.get(11, "c"), None);
        assert_eq!(c.get(12, "f"), None);
        assert_eq!(c.get(1, "z"), Some((20, true)));
        assert_eq!(c.get(20, "w"), Some((21, false)));
    }

    /// The regression the segmented design exists for: a hot ancestor chain
    /// (re-resolved on every op, as `/user/alice/project` is while clients
    /// work under it) must survive arbitrary cap pressure from one-shot
    /// entries. The old `clear()`-at-cap policy dropped it on every
    /// overflow.
    #[test]
    fn hot_ancestor_chain_survives_cap_pressure() {
        let cap = 64;
        let mut c = HintCache::new(cap);
        let chain: Vec<(u64, String, u64)> =
            (0..4).map(|d| (d, format!("seg{d}"), d + 1)).collect();
        for (parent, name, id) in &chain {
            c.put(*parent, name, *id, true);
        }
        // 100× cap of cold, never-reused entries, with the chain re-walked
        // (as resolution would) between insertions.
        for i in 0..(cap as u64 * 100) {
            c.put(1_000_000 + i, "cold", i, false);
            for (parent, name, id) in &chain {
                assert_eq!(
                    c.get(*parent, name),
                    Some((*id, true)),
                    "hot ancestor {parent}/{name} evicted by cold churn at {i}"
                );
            }
            assert!(c.len() <= cap);
        }
    }
}
