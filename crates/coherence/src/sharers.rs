//! Compact, width-generic sharer sets for directory entries.
//!
//! A directory entry must know which caches may hold a line: one bit per
//! core, in 64-bit words. The probe filter keeps each entry's words in its
//! own flat slab, at a fixed stride of ⌈cores/64⌉ words, and hands them out
//! as a borrowed [`SharerView`], so reading an entry never allocates.
//! [`SharerSet`] is the owned form that API users build and keep
//! (snapshots, tests, benchmarks): one inline word up to 64 cores, a word
//! vector beyond, so neither form imposes a ceiling on the core count. On
//! top of the exact per-core set, [`SharerView::node_set`] projects the
//! hierarchical (level-1) view — which *NUMA nodes* have a copy — that
//! multi-core-node directories and probe filters track first.

use allarm_types::ids::{CoreId, NodeId};
use std::fmt;

/// Bits per word of every representation.
pub(crate) const WORD_BITS: usize = 64;

/// The words needed to hold bit `index`.
pub(crate) fn words_for(index: usize) -> usize {
    index / WORD_BITS + 1
}

/// True if bit `index` of `words` is set (bits past the slice are clear).
fn get(words: &[u64], index: usize) -> bool {
    words
        .get(index / WORD_BITS)
        .is_some_and(|w| (w >> (index % WORD_BITS)) & 1 == 1)
}

/// Number of set bits in `words`.
fn count(words: &[u64]) -> u32 {
    words.iter().map(|w| w.count_ones()).sum()
}

/// True if no bit of `words` is set.
fn is_empty(words: &[u64]) -> bool {
    words.iter().all(|&w| w == 0)
}

/// The indices of the set bits of `words`, ascending. Each word is walked
/// with `trailing_zeros`, so a step costs one member, not one bit position.
#[derive(Debug, Clone)]
struct SetBits<'a> {
    rest: &'a [u64],
    base: usize,
    word: u64,
}

impl<'a> SetBits<'a> {
    fn new(words: &'a [u64]) -> Self {
        let (word, rest) = words.split_first().map_or((0, words), |(&w, r)| (w, r));
        SetBits {
            rest,
            base: 0,
            word,
        }
    }
}

impl Iterator for SetBits<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.word == 0 {
            let (&word, rest) = self.rest.split_first()?;
            self.word = word;
            self.rest = rest;
            self.base += WORD_BITS;
        }
        let bit = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(self.base + bit)
    }
}

/// The owned bit set behind [`SharerSet`] and [`NodeSet`]: one inline word
/// up to 64 members, a word vector beyond. Kept canonical (a set whose
/// members all fit one word is always `Inline`, and a wide set has no
/// trailing zero words) so the derived equality and hash match set
/// equality.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Bits {
    Inline(u64),
    Wide(Vec<u64>),
}

impl Bits {
    const fn empty() -> Self {
        Bits::Inline(0)
    }

    /// The canonical set holding the members of `words`.
    fn from_words(words: &[u64]) -> Self {
        let len = words
            .iter()
            .rposition(|&w| w != 0)
            .map_or(0, |last| last + 1);
        match len {
            0 => Bits::empty(),
            1 => Bits::Inline(words[0]),
            _ => Bits::Wide(words[..len].to_vec()),
        }
    }

    fn words(&self) -> &[u64] {
        match self {
            Bits::Inline(word) => std::slice::from_ref(word),
            Bits::Wide(words) => words,
        }
    }

    fn set(&mut self, index: usize) {
        match self {
            Bits::Inline(word) if index < WORD_BITS => *word |= 1 << index,
            Bits::Inline(word) => {
                let mut words = vec![0u64; words_for(index)];
                words[0] = *word;
                words[index / WORD_BITS] |= 1 << (index % WORD_BITS);
                *self = Bits::Wide(words);
            }
            Bits::Wide(words) => {
                if index / WORD_BITS >= words.len() {
                    words.resize(words_for(index), 0);
                }
                words[index / WORD_BITS] |= 1 << (index % WORD_BITS);
            }
        }
    }

    fn clear(&mut self, index: usize) {
        match self {
            Bits::Inline(word) => {
                if index < WORD_BITS {
                    *word &= !(1 << index);
                }
            }
            Bits::Wide(words) => {
                if let Some(word) = words.get_mut(index / WORD_BITS) {
                    *word &= !(1 << (index % WORD_BITS));
                }
                self.normalize();
            }
        }
    }

    /// Restores the canonical form after removals: trailing zero words are
    /// dropped and a single-word set collapses back to `Inline`, so two
    /// sets with the same members always compare (and hash) equal
    /// regardless of how they were built.
    fn normalize(&mut self) {
        if let Bits::Wide(words) = self {
            while words.len() > 1 && *words.last().expect("non-empty") == 0 {
                words.pop();
            }
            if words.len() == 1 {
                *self = Bits::Inline(words[0]);
            }
        }
    }
}

/// A borrowed, read-only sharer set: the words of one probe-filter slot,
/// or of a [`SharerSet`]. Bits past the slice are clear.
///
/// # Examples
///
/// ```
/// use allarm_coherence::SharerSet;
/// use allarm_types::ids::CoreId;
///
/// let set: SharerSet = [CoreId::new(2), CoreId::new(130)].into_iter().collect();
/// let view = set.view();
/// assert!(view.contains(CoreId::new(130)));
/// assert_eq!(view.iter().collect::<Vec<_>>(), vec![CoreId::new(2), CoreId::new(130)]);
/// assert_eq!(view.to_set(), set);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SharerView<'a>(&'a [u64]);

impl<'a> SharerView<'a> {
    /// A view over raw sharer words: bit `i` of word `w` is core
    /// `64 * w + i`.
    pub(crate) fn new(words: &'a [u64]) -> Self {
        SharerView(words)
    }

    /// The underlying words.
    pub(crate) fn words(self) -> &'a [u64] {
        self.0
    }

    /// True if the core is in the set.
    pub fn contains(self, core: CoreId) -> bool {
        get(self.0, core.index())
    }

    /// Number of cores in the set.
    pub fn count(self) -> u32 {
        count(self.0)
    }

    /// True if the set is empty.
    pub fn is_empty(self) -> bool {
        is_empty(self.0)
    }

    /// Iterates over the cores in ascending index order.
    pub fn iter(self) -> impl Iterator<Item = CoreId> + 'a {
        SetBits::new(self.0).map(|i| CoreId::new(i as u16))
    }

    /// Projects the level-1 (node-granularity) view of this set: the NUMA
    /// nodes on which at least one member core lives, under a blocked
    /// core-to-node assignment of `cores_per_node` cores each. With
    /// `cores_per_node == 1` the node set mirrors the core set.
    ///
    /// # Panics
    ///
    /// Panics if `cores_per_node` is zero.
    pub fn node_set(self, cores_per_node: u32) -> NodeSet {
        assert!(cores_per_node > 0, "a node hosts at least one core");
        let mut nodes = Bits::empty();
        for index in SetBits::new(self.0) {
            nodes.set(index / cores_per_node as usize);
        }
        NodeSet(nodes)
    }

    /// The owned copy of this set.
    pub fn to_set(self) -> SharerSet {
        SharerSet(Bits::from_words(self.0))
    }
}

/// The exact set of cores that may hold a line, owned.
///
/// Stored inline (one 64-bit mask) for machines up to 64 cores and as a
/// word vector beyond, so sets scale with the machine instead of capping
/// it. Reads go through the same code as a probe-filter slot's
/// [`SharerView`].
///
/// # Examples
///
/// ```
/// use allarm_coherence::SharerSet;
/// use allarm_types::ids::CoreId;
///
/// let mut sharers = SharerSet::empty();
/// sharers.insert(CoreId::new(3));
/// sharers.insert(CoreId::new(200)); // > 64 cores: promotes transparently
/// assert_eq!(sharers.count(), 2);
/// assert!(sharers.contains(CoreId::new(200)));
/// sharers.remove(CoreId::new(200));
/// assert_eq!(sharers.iter().collect::<Vec<_>>(), vec![CoreId::new(3)]);
///
/// // The hierarchical level-1 view: which nodes have a copy, at 4 cores
/// // per node.
/// sharers.insert(CoreId::new(5));
/// let nodes = sharers.node_set(4);
/// assert_eq!(nodes.count(), 2); // cores 3 and 5 live on nodes 0 and 1
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SharerSet(Bits);

impl SharerSet {
    /// Number of cores representable without leaving the inline (single
    /// machine word, allocation-free) representation.
    pub const MAX_INLINE_CORES: usize = WORD_BITS;

    /// The empty set.
    pub const fn empty() -> Self {
        SharerSet(Bits::empty())
    }

    /// A set containing a single core.
    pub fn only(core: CoreId) -> Self {
        let mut s = SharerSet::empty();
        s.insert(core);
        s
    }

    /// Adds a core to the set, growing the representation if the core index
    /// is beyond the inline width.
    pub fn insert(&mut self, core: CoreId) {
        self.0.set(core.index());
    }

    /// Removes a core from the set (no-op if absent).
    pub fn remove(&mut self, core: CoreId) {
        self.0.clear(core.index());
    }

    /// The read-only view of this set.
    pub fn view(&self) -> SharerView<'_> {
        SharerView(self.0.words())
    }

    /// True if the core is in the set.
    pub fn contains(&self, core: CoreId) -> bool {
        self.view().contains(core)
    }

    /// Number of cores in the set.
    pub fn count(&self) -> u32 {
        self.view().count()
    }

    /// True if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.view().is_empty()
    }

    /// Iterates over the cores in ascending index order.
    pub fn iter(&self) -> impl Iterator<Item = CoreId> + '_ {
        self.view().iter()
    }

    /// The level-1 projection of this set; see [`SharerView::node_set`].
    ///
    /// # Panics
    ///
    /// Panics if `cores_per_node` is zero.
    pub fn node_set(&self, cores_per_node: u32) -> NodeSet {
        self.view().node_set(cores_per_node)
    }
}

impl fmt::Display for SharerSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for core in self.iter() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{}", core.index())?;
            first = false;
        }
        write!(f, "}}")
    }
}

impl Default for SharerSet {
    fn default() -> Self {
        SharerSet::empty()
    }
}

impl FromIterator<CoreId> for SharerSet {
    fn from_iter<I: IntoIterator<Item = CoreId>>(iter: I) -> Self {
        let mut set = SharerSet::empty();
        for core in iter {
            set.insert(core);
        }
        set
    }
}

/// The level-1 view of a sharer set: the NUMA nodes holding at least one
/// copy. This is what a hierarchical (two-level) directory tracks first —
/// one probe or back-invalidation message per *node*, expanded to the
/// node's member cores on arrival.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct NodeSet(Bits);

impl NodeSet {
    /// The empty set.
    pub const fn empty() -> Self {
        NodeSet(Bits::empty())
    }

    /// True if the node is in the set.
    pub fn contains(&self, node: NodeId) -> bool {
        get(self.0.words(), node.index())
    }

    /// Number of nodes in the set.
    pub fn count(&self) -> u32 {
        count(self.0.words())
    }

    /// True if the set is empty.
    pub fn is_empty(&self) -> bool {
        is_empty(self.0.words())
    }

    /// Iterates over the nodes in ascending index order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        SetBits::new(self.0.words()).map(|i| NodeId::new(i as u16))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = SharerSet::empty();
        assert!(s.is_empty());
        s.insert(CoreId::new(0));
        s.insert(CoreId::new(15));
        assert!(s.contains(CoreId::new(0)));
        assert!(s.contains(CoreId::new(15)));
        assert!(!s.contains(CoreId::new(7)));
        assert_eq!(s.count(), 2);
        s.remove(CoreId::new(0));
        assert!(!s.contains(CoreId::new(0)));
        assert_eq!(s.count(), 1);
        // Removing an absent core is a no-op.
        s.remove(CoreId::new(0));
        assert_eq!(s.count(), 1);
    }

    #[test]
    fn only_creates_singleton() {
        let s = SharerSet::only(CoreId::new(9));
        assert_eq!(s.count(), 1);
        assert!(s.contains(CoreId::new(9)));
    }

    #[test]
    fn iter_ascending_order() {
        let s: SharerSet = [CoreId::new(5), CoreId::new(1), CoreId::new(63)]
            .into_iter()
            .collect();
        let cores: Vec<u16> = s.iter().map(|c| c.raw()).collect();
        assert_eq!(cores, vec![1, 5, 63]);
    }

    #[test]
    fn wide_sets_hold_cores_beyond_the_inline_width() {
        let mut s = SharerSet::empty();
        s.insert(CoreId::new(3));
        s.insert(CoreId::new(64));
        s.insert(CoreId::new(255));
        assert_eq!(s.count(), 3);
        assert!(s.contains(CoreId::new(64)));
        assert!(s.contains(CoreId::new(255)));
        assert!(!s.contains(CoreId::new(254)));
        let cores: Vec<u16> = s.iter().map(|c| c.raw()).collect();
        assert_eq!(cores, vec![3, 64, 255]);
        assert_eq!(s.to_string(), "{3,64,255}");
    }

    #[test]
    fn removal_collapses_back_to_canonical_form() {
        // A set that grew wide and shrank back must equal (and hash like)
        // one that never left the inline representation.
        let mut grew = SharerSet::empty();
        grew.insert(CoreId::new(7));
        grew.insert(CoreId::new(200));
        grew.remove(CoreId::new(200));
        let inline = SharerSet::only(CoreId::new(7));
        assert_eq!(grew, inline);
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let hash = |s: &SharerSet| {
            let mut h = DefaultHasher::new();
            s.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&grew), hash(&inline));
    }

    #[test]
    fn display_lists_members() {
        let s: SharerSet = [CoreId::new(2), CoreId::new(4)].into_iter().collect();
        assert_eq!(s.to_string(), "{2,4}");
        assert_eq!(SharerSet::empty().to_string(), "{}");
    }

    #[test]
    fn node_set_projects_cores_onto_nodes() {
        let s: SharerSet = [CoreId::new(0), CoreId::new(3), CoreId::new(9)]
            .into_iter()
            .collect();
        let nodes = s.node_set(4);
        assert_eq!(nodes.count(), 2);
        assert!(nodes.contains(NodeId::new(0))); // cores 0 and 3
        assert!(nodes.contains(NodeId::new(2))); // core 9
        assert!(!nodes.contains(NodeId::new(1)));
        let listed: Vec<u16> = nodes.iter().map(|n| n.raw()).collect();
        assert_eq!(listed, vec![0, 2]);
    }

    #[test]
    fn flat_node_set_mirrors_the_core_set() {
        let s: SharerSet = [CoreId::new(1), CoreId::new(90)].into_iter().collect();
        let nodes = s.node_set(1);
        assert_eq!(nodes.count(), s.count());
        assert!(nodes.contains(NodeId::new(1)));
        assert!(nodes.contains(NodeId::new(90)));
        assert!(NodeSet::empty().is_empty());
    }
}
