//! Index configuration: update strategy, tuning parameters, R-tree variant.

use crate::error::{CoreError, CoreResult};
use crate::gbu::iextend_mbr;
use crate::node;
use bur_geom::{Point, Rect};

/// The paper's three update techniques (Section 5 evaluates exactly
/// these): top-down (TD), localized bottom-up (LBU, Algorithm 1) and
/// generalized bottom-up (GBU, Algorithm 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UpdateStrategy {
    /// Classic R-tree update: top-down delete followed by top-down
    /// insert. Maintains no auxiliary structures.
    TopDown,
    /// Algorithm 1: direct leaf access through the object-id hash index,
    /// uniform ε-enlargement bounded by the parent (reached through a
    /// parent pointer stored in the leaf), sibling shift, TD fallback.
    Localized(LbuParams),
    /// Algorithm 2: adds the main-memory summary structure, directional
    /// ε-enlargement (`iExtendMBR`), bit-vector sibling selection with
    /// piggybacking, and multi-level ascent via `FindParent`.
    Generalized(GbuParams),
}

impl UpdateStrategy {
    /// Short display name used by the experiment harness ("TD"/"LBU"/"GBU").
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            UpdateStrategy::TopDown => "TD",
            UpdateStrategy::Localized(_) => "LBU",
            UpdateStrategy::Generalized(_) => "GBU",
        }
    }

    /// Whether this strategy needs the secondary object-id hash index.
    #[must_use]
    pub fn needs_hash_index(&self) -> bool {
        !matches!(self, UpdateStrategy::TopDown)
    }

    /// Whether leaves must carry parent pointers (LBU only; the paper
    /// notes this maintenance burden as one of LBU's weaknesses).
    #[must_use]
    pub fn needs_parent_pointers(&self) -> bool {
        matches!(self, UpdateStrategy::Localized(_))
    }

    /// Whether the main-memory summary structure is maintained (GBU).
    #[must_use]
    pub fn needs_summary(&self) -> bool {
        matches!(self, UpdateStrategy::Generalized(_))
    }

    /// The strategy's ε-enlargement of a leaf's official rect towards
    /// `new`, never beyond `bound` (the parent node MBR): LBU grows every
    /// side by ε, GBU only the sides `new` lies beyond (`iExtendMBR`).
    /// `None` when the enlarged rect still misses `new`, and always under
    /// TD, which never enlarges. Rung 4 of the bottom-up ladder
    /// (`bottom_up::step`) is its one caller.
    pub(crate) fn enlarge(&self, official: Rect, bound: Rect, new: Point) -> Option<Rect> {
        let enlarged = match self {
            UpdateStrategy::TopDown => return None,
            UpdateStrategy::Localized(p) => official.expanded_uniform(p.epsilon).clipped_to(&bound),
            UpdateStrategy::Generalized(p) => iextend_mbr(official, new, p.epsilon, bound),
        };
        enlarged.contains_point(&new).then_some(enlarged)
    }
}

/// Tuning parameters of the localized bottom-up algorithm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LbuParams {
    /// Uniform enlargement ε: the leaf MBR grows by ε in *all four*
    /// directions (Kwon-style), bounded by the parent MBR.
    pub epsilon: f32,
}

impl Default for LbuParams {
    fn default() -> Self {
        // The paper's recommended small ε (Section 5.1.1).
        Self { epsilon: 0.003 }
    }
}

/// Tuning parameters of the generalized bottom-up algorithm
/// (Section 3.2.1 lists all four).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GbuParams {
    /// ε — maximum directional enlargement applied by `iExtendMBR`.
    pub epsilon: f32,
    /// τ — distance threshold: objects that moved further than τ since
    /// their last update try the sibling shift *before* `iExtendMBR`;
    /// slower objects try `iExtendMBR` first.
    pub distance_threshold: f32,
    /// L — maximum number of levels `FindParent` may ascend above the
    /// leaf. `None` means "height − 1" (the paper's recommended maximum).
    pub level_threshold: Option<u16>,
    /// Piggyback other matching entries when shifting to a sibling
    /// (Section 3.2.1 item 4).
    pub piggyback: bool,
}

impl Default for GbuParams {
    fn default() -> Self {
        // Paper defaults: ε = 0.003 (§5.1.1), τ = 0.03 (§5.1.2),
        // L = height − 1 (§3.2.1 item 3).
        Self {
            epsilon: 0.003,
            distance_threshold: 0.03,
            level_threshold: None,
            piggyback: true,
        }
    }
}

/// Durability mode of an index.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Durability {
    /// No write-ahead log (the paper's experimental setup and the
    /// default): updates are durable only after an explicit
    /// [`crate::RTreeIndex::checkpoint`] and a clean shutdown.
    #[default]
    None,
    /// Write-ahead logging via `bur-wal`: page images of every operation
    /// are logged before dirty pages may reach the disk, every commit
    /// syncs the log before it is acknowledged, and the index recovers
    /// from a crash through [`crate::IndexBuilder`]'s
    /// [`crate::OpenMode::Recover`].
    Wal(WalOptions),
}

/// Tuning for [`Durability::Wal`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WalOptions {
    /// Take a fuzzy checkpoint (flush the pool, rewind the log) every
    /// this many committed operations. Bounds recovery's replay time and
    /// the log's page footprint, and nothing else: neither the log's
    /// memory (deltas are diffed against the buffer pool's pre-images,
    /// not against copies the log keeps) nor recovery's (it reads the
    /// log as a stream, one page and one record at a time) grows with
    /// it. Default 16 384. Must be at least 1.
    pub checkpoint_every: u64,
}

impl Default for WalOptions {
    fn default() -> Self {
        Self {
            checkpoint_every: 16_384,
        }
    }
}

/// Which member of the R-tree family the index is: how insertions descend,
/// how overflow is treated and how an overflowing node is split.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TreeVariant {
    /// Guttman's R-tree: ChooseLeaf by least area enlargement,
    /// split-on-overflow, quadratic split. This is the paper's R-tree and
    /// the default.
    #[default]
    Guttman,
    /// The R*-tree (Beckmann et al.): ChooseSubtree by minimum *overlap*
    /// enlargement among leaf-parent entries; **forced reinsertion** (the
    /// first overflow per level per insertion evicts the 30 % of entries
    /// whose centers lie farthest from the node center and re-inserts them
    /// from the root, instead of splitting); and the topological split
    /// (axis by minimum margin sum, distribution by minimum overlap). The
    /// paper's future work applies bottom-up updates to "members of the
    /// family of R-tree-based indexing techniques"; the R*-tree is the
    /// most common member.
    RStar,
}

/// Construction-time options of an [`crate::RTreeIndex`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndexOptions {
    /// Page size in bytes (paper: 1024).
    pub page_size: usize,
    /// Buffer-pool capacity in frames (experiments size this as a
    /// percentage of the data pages; the paper's default is 1 %).
    pub buffer_frames: usize,
    /// Update technique and its tuning parameters.
    pub strategy: UpdateStrategy,
    /// R-tree variant: insertion descent, overflow treatment and node
    /// split (Guttman or R*).
    pub variant: TreeVariant,
    /// Durability mode: none (default, the paper's setup) or write-ahead
    /// logged with crash recovery.
    pub durability: Durability,
}

impl Default for IndexOptions {
    fn default() -> Self {
        Self {
            page_size: bur_storage::DEFAULT_PAGE_SIZE,
            buffer_frames: 256,
            strategy: UpdateStrategy::Generalized(GbuParams::default()),
            variant: TreeVariant::Guttman,
            durability: Durability::None,
        }
    }
}

impl IndexOptions {
    /// Validate option consistency; called by the index constructors.
    pub fn validate(&self) -> CoreResult<()> {
        let leaf_cap = node::leaf_capacity(self.page_size);
        let internal_cap = node::internal_capacity(self.page_size);
        if leaf_cap < 4 || internal_cap < 4 {
            return Err(CoreError::BadConfig(format!(
                "page size {} holds only {leaf_cap} leaf / {internal_cap} internal entries; need >= 4",
                self.page_size
            )));
        }
        if let Durability::Wal(w) = self.durability {
            if w.checkpoint_every == 0 {
                return Err(CoreError::BadConfig(
                    "checkpoint_every must be at least 1".into(),
                ));
            }
        }
        // NaN fails every comparison, so `x < 0.0` alone would let it
        // through; a NaN or infinite ε lifts the extension cap, and a NaN τ
        // turns every fast mover into a slow one.
        let usable = |x: f32| x.is_finite() && x >= 0.0;
        match self.strategy {
            UpdateStrategy::Localized(p) if !usable(p.epsilon) => Err(CoreError::BadConfig(
                "LBU epsilon must be finite and non-negative".into(),
            )),
            UpdateStrategy::Generalized(p)
                if !usable(p.epsilon) || !usable(p.distance_threshold) =>
            {
                Err(CoreError::BadConfig(
                    "GBU epsilon and distance threshold must be finite and non-negative".into(),
                ))
            }
            _ => Ok(()),
        }
    }

    /// Convenience: TD with otherwise default options.
    #[must_use]
    pub fn top_down() -> Self {
        Self {
            strategy: UpdateStrategy::TopDown,
            ..Self::default()
        }
    }

    /// Convenience: LBU with default parameters.
    #[must_use]
    pub fn localized() -> Self {
        Self {
            strategy: UpdateStrategy::Localized(LbuParams::default()),
            ..Self::default()
        }
    }

    /// Convenience: GBU with default parameters.
    #[must_use]
    pub fn generalized() -> Self {
        Self {
            strategy: UpdateStrategy::Generalized(GbuParams::default()),
            ..Self::default()
        }
    }

    /// Convenience: a durable GBU index — write-ahead logged with the
    /// default checkpoint interval.
    #[must_use]
    pub fn durable() -> Self {
        Self {
            durability: Durability::Wal(WalOptions::default()),
            ..Self::generalized()
        }
    }

    /// Switch these options to write-ahead-logged durability while
    /// keeping everything else.
    #[must_use]
    pub fn with_durability(mut self, durability: Durability) -> Self {
        self.durability = durability;
        self
    }

    /// Switch these options to the R*-tree variant (R* ChooseSubtree,
    /// forced reinsertion, R* split) while keeping the update strategy —
    /// the combination the paper's future work points at.
    #[must_use]
    pub fn rstar(mut self) -> Self {
        self.variant = TreeVariant::RStar;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        IndexOptions::default().validate().unwrap();
        IndexOptions::top_down().validate().unwrap();
        IndexOptions::localized().validate().unwrap();
        IndexOptions::generalized().validate().unwrap();
        IndexOptions::generalized().rstar().validate().unwrap();
        IndexOptions::durable().validate().unwrap();
    }

    #[test]
    fn durability_knobs() {
        assert_eq!(IndexOptions::default().durability, Durability::None);
        let o = IndexOptions::durable();
        assert!(matches!(o.durability, Durability::Wal(_)));
        let o = IndexOptions::top_down().with_durability(Durability::Wal(WalOptions {
            checkpoint_every: 0,
        }));
        assert!(o.validate().is_err(), "checkpoint_every 0 is rejected");
    }

    #[test]
    fn rstar_conversion_keeps_strategy() {
        let o = IndexOptions::localized().rstar();
        assert_eq!(o.variant, TreeVariant::RStar);
        assert!(matches!(o.strategy, UpdateStrategy::Localized(_)));
        assert_eq!(IndexOptions::default().variant, TreeVariant::Guttman);
    }

    #[test]
    fn strategy_requirements() {
        assert!(!UpdateStrategy::TopDown.needs_hash_index());
        assert!(UpdateStrategy::Localized(LbuParams::default()).needs_hash_index());
        assert!(UpdateStrategy::Localized(LbuParams::default()).needs_parent_pointers());
        assert!(!UpdateStrategy::Localized(LbuParams::default()).needs_summary());
        assert!(UpdateStrategy::Generalized(GbuParams::default()).needs_summary());
        assert!(!UpdateStrategy::Generalized(GbuParams::default()).needs_parent_pointers());
        assert_eq!(UpdateStrategy::TopDown.name(), "TD");
    }

    #[test]
    fn rejects_bad_config() {
        let o = IndexOptions {
            page_size: 64,
            ..IndexOptions::default()
        };
        assert!(o.validate().is_err());
        let mut o = IndexOptions::generalized();
        if let UpdateStrategy::Generalized(ref mut p) = o.strategy {
            p.epsilon = -1.0;
        }
        assert!(o.validate().is_err());
        // Non-finite ε and τ are refused (NaN slips past a `< 0.0` check).
        for (epsilon, distance_threshold) in
            [(f32::NAN, 0.03), (0.003, f32::NAN), (f32::INFINITY, 0.03)]
        {
            let o = IndexOptions {
                strategy: UpdateStrategy::Generalized(GbuParams {
                    epsilon,
                    distance_threshold,
                    ..GbuParams::default()
                }),
                ..IndexOptions::default()
            };
            assert!(
                o.validate().is_err(),
                "GBU ε {epsilon} τ {distance_threshold}"
            );
        }
        let o = IndexOptions {
            strategy: UpdateStrategy::Localized(LbuParams { epsilon: f32::NAN }),
            ..IndexOptions::default()
        };
        assert!(o.validate().is_err(), "LBU ε NaN");
    }
}
