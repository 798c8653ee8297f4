//! Durable routing state: the shard manifest file.
//!
//! A sharded index on disk is N ordinary single-shard index files plus
//! one small text manifest holding the routing state: curve order,
//! scatter budget, shard count, the segment map, the extent slack and —
//! while a range migration is in flight — the migration record that
//! makes rebalancing all-or-nothing across crashes.
//!
//! The manifest is always replaced atomically (write temp file, fsync,
//! rename over, fsync directory), so a crash leaves either the old or
//! the new manifest, never a torn one. The migration protocol leans on
//! exactly that:
//!
//! * `migration intent …` present → the copy phase may have started but
//!   ownership never flipped; recovery **rolls back** by deleting any
//!   copied entries from the target shard.
//! * `migration commit …` present → ownership flipped (the segment map
//!   in the same file already names the new owner); recovery **rolls
//!   forward** by re-running the idempotent delete-from-source.

use crate::router::{Migration, RangeMap, Segment};
use crate::ShardError;
use std::fs;
use std::io::Write as _;
use std::path::Path;

/// Parsed manifest contents.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Hilbert curve order used for routing keys.
    pub order: u32,
    /// Scatter budget for window-query range decomposition.
    pub budget: usize,
    /// Number of shards.
    pub shards: u32,
    /// Routing epoch at the time of writing.
    pub epoch: u64,
    /// Maximum half-extent (w, h) ever inserted, for window expansion.
    pub slack: (f32, f32),
    /// The segment map.
    pub segments: Vec<Segment>,
    /// Migration record, if one was in flight.
    pub migration: Option<Migration>,
}

impl Manifest {
    /// Reconstruct the range map this manifest describes.
    pub fn range_map(&self) -> Result<RangeMap, ShardError> {
        let key_space = key_space_for(self.order);
        RangeMap::from_segments(self.segments.clone(), key_space, self.migration)
            .map_err(ShardError::Manifest)
    }
}

/// The largest curve order whose key space, `4^order`, fits a `u64`.
const MAX_ORDER: u32 = 31;

/// One past the largest key on an order-`order` curve (`4^order`;
/// `order` at most 31, as every parsed manifest's is).
#[must_use]
pub fn key_space_for(order: u32) -> u64 {
    let side = 1u64 << order;
    side * side
}

/// Serialize and atomically replace the manifest at `path`.
pub fn store(path: &Path, m: &Manifest) -> Result<(), ShardError> {
    let mut text = String::new();
    text.push_str("burshard v1\n");
    text.push_str(&format!("order {}\n", m.order));
    text.push_str(&format!("budget {}\n", m.budget));
    text.push_str(&format!("shards {}\n", m.shards));
    text.push_str(&format!("epoch {}\n", m.epoch));
    text.push_str(&format!("slack {} {}\n", m.slack.0, m.slack.1));
    for seg in &m.segments {
        text.push_str(&format!("seg {} {}\n", seg.start, seg.shard));
    }
    if let Some(mig) = &m.migration {
        text.push_str(&format!(
            "migration {} {} {} {} {}\n",
            if mig.flipped { "commit" } else { "intent" },
            mig.lo,
            mig.hi,
            mig.from,
            mig.to
        ));
    }
    let tmp = path.with_extension("tmp");
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(text.as_bytes())?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    // Make the rename itself durable.
    if let Some(dir) = path.parent() {
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Load and parse the manifest at `path`.
pub fn load(path: &Path) -> Result<Manifest, ShardError> {
    let text = fs::read_to_string(path)?;
    parse(&text)
}

fn parse(text: &str) -> Result<Manifest, ShardError> {
    let bad = |what: &str| ShardError::Manifest(format!("malformed manifest: {what}"));
    let mut lines = text.lines();
    if lines.next() != Some("burshard v1") {
        return Err(bad("missing burshard v1 header"));
    }
    let mut order = None;
    let mut budget = None;
    let mut shards = None;
    let mut epoch = 0u64;
    let mut slack = (0.0f32, 0.0f32);
    let mut segments = Vec::new();
    let mut migration = None;
    for line in lines {
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("order") => {
                order = Some(
                    parts
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| bad("order"))?,
                );
            }
            Some("budget") => {
                budget = Some(
                    parts
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| bad("budget"))?,
                );
            }
            Some("shards") => {
                shards = Some(
                    parts
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| bad("shards"))?,
                );
            }
            Some("epoch") => {
                epoch = parts
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| bad("epoch"))?;
            }
            Some("slack") => {
                let w = parts
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| bad("slack"))?;
                let h = parts
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| bad("slack"))?;
                slack = (w, h);
            }
            Some("seg") => {
                let start = parts
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| bad("seg start"))?;
                let shard = parts
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| bad("seg shard"))?;
                segments.push(Segment { start, shard });
            }
            Some("migration") => {
                let phase = parts.next().ok_or_else(|| bad("migration phase"))?;
                let flipped = match phase {
                    "intent" => false,
                    "commit" => true,
                    _ => return Err(bad("migration phase")),
                };
                let mut num = || {
                    parts
                        .next()
                        .and_then(|v| v.parse::<u64>().ok())
                        .ok_or_else(|| bad("migration bounds"))
                };
                let lo = num()?;
                let hi = num()?;
                let from = u32::try_from(num()?).map_err(|_| bad("migration shard"))?;
                let to = u32::try_from(num()?).map_err(|_| bad("migration shard"))?;
                migration = Some(Migration {
                    lo,
                    hi,
                    from,
                    to,
                    flipped,
                });
            }
            Some(_) | None => return Err(bad("unknown line")),
        }
    }
    let m = Manifest {
        order: order.ok_or_else(|| bad("no order"))?,
        budget: budget.ok_or_else(|| bad("no budget"))?,
        shards: shards.ok_or_else(|| bad("no shards"))?,
        epoch,
        slack,
        segments,
        migration,
    };
    // What the router indexes or multiplies by must lie in range: a
    // shard past the count, a key space past `u64` or a slack that
    // makes every window invalid fails here, not at first use.
    if m.order > MAX_ORDER {
        return Err(bad("order past 31"));
    }
    if m.segments.iter().any(|seg| seg.shard >= m.shards) {
        return Err(bad("segment shard past the shard count"));
    }
    if let Some(mig) = &m.migration {
        if mig.from >= m.shards || mig.to >= m.shards {
            return Err(bad("migration shard past the shard count"));
        }
        if mig.lo >= mig.hi || mig.hi > key_space_for(m.order) {
            return Err(bad("migration range empty or past the key space"));
        }
    }
    if !(m.slack.0.is_finite() && m.slack.1.is_finite() && m.slack.0 >= 0.0 && m.slack.1 >= 0.0) {
        return Err(bad("slack negative or not finite"));
    }
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(migration: Option<Migration>) -> Manifest {
        Manifest {
            order: 16,
            budget: 16,
            shards: 4,
            epoch: 7,
            slack: (0.0, 0.015625),
            segments: vec![
                Segment { start: 0, shard: 0 },
                Segment {
                    start: 1 << 30,
                    shard: 1,
                },
                Segment {
                    start: 2 << 30,
                    shard: 2,
                },
                Segment {
                    start: 3 << 30,
                    shard: 3,
                },
            ],
            migration,
        }
    }

    #[test]
    fn roundtrips_through_disk() {
        let dir = std::env::temp_dir().join(format!("burshard-manifest-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("idx.shardmap");
        for migration in [
            None,
            Some(Migration {
                lo: 100,
                hi: 200,
                from: 0,
                to: 3,
                flipped: false,
            }),
            Some(Migration {
                lo: 100,
                hi: 200,
                from: 0,
                to: 3,
                flipped: true,
            }),
        ] {
            let m = sample(migration);
            store(&path, &m).unwrap();
            assert_eq!(load(&path).unwrap(), m);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("not a manifest").is_err());
        assert!(parse("burshard v1\norder x\n").is_err());
        assert!(parse("burshard v1\nwhat 3\n").is_err());
        // Missing required fields.
        assert!(parse("burshard v1\norder 8\n").is_err());
    }

    #[test]
    fn map_reconstruction_validates() {
        let m = sample(None);
        let map = m.range_map().unwrap();
        assert_eq!(map.owner(0), 0);
        assert_eq!(map.owner(3 << 30), 3);
        let mut bad = sample(None);
        bad.segments.clear();
        assert!(bad.range_map().is_err());
    }
}
