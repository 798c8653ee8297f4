//! Model-based property test: the paged linear-hash index must behave
//! exactly like `std::collections::HashMap` under arbitrary operation
//! sequences (including sequences long enough to force bucket splits and
//! overflow chains) — including `probe` … `set` pairs with anything in
//! between: a probe gone stale must behave like an upsert and never write
//! a slot that is no longer its key's.

use bur_hashindex::{HashIndexConfig, LinearHashIndex};
use bur_storage::{BufferPool, MemDisk, PoolConfig};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

#[derive(Debug, Clone)]
enum Op {
    Insert(u64, u32),
    Remove(u64),
    Get(u64),
    /// Probe a key and keep the probe (bucket page pinned) for later.
    Probe(u64),
    /// `set` the n-th outstanding probe (modulo how many there are).
    Set(usize, u32),
}

fn arb_op() -> impl Strategy<Value = Op> {
    // Small key space so operations collide often.
    prop_oneof![
        (0u64..64, 0u32..1000).prop_map(|(k, v)| Op::Insert(k, v)),
        (0u64..64).prop_map(Op::Remove),
        (0u64..64).prop_map(Op::Get),
        (0u64..64).prop_map(Op::Probe),
        (0usize..8, 0u32..1000).prop_map(|(n, v)| Op::Set(n, v)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn behaves_like_hashmap(ops in proptest::collection::vec(arb_op(), 1..400)) {
        // Tiny pages (10 entries each) force splits and overflows early.
        let pool = Arc::new(BufferPool::new(
            Arc::new(MemDisk::new(128)),
            PoolConfig { capacity: 16 },
        ));
        let idx = LinearHashIndex::create(pool, HashIndexConfig::default()).unwrap();
        let mut model: HashMap<u64, u32> = HashMap::new();
        // Probes taken and not yet used: inserts, removes and bucket
        // splits happen while they hold their pages.
        let mut probes = Vec::new();
        for op in ops {
            match op {
                Op::Insert(k, v) => {
                    let got = idx.insert(k, v).unwrap();
                    let expect = model.insert(k, v);
                    prop_assert_eq!(got, expect);
                }
                Op::Remove(k) => {
                    let got = idx.remove(k).unwrap();
                    let expect = model.remove(&k);
                    prop_assert_eq!(got, expect);
                }
                Op::Get(k) => {
                    let got = idx.get(k).unwrap();
                    let expect = model.get(&k).copied();
                    prop_assert_eq!(got, expect);
                }
                Op::Probe(k) => {
                    let probe = idx.probe(k).unwrap();
                    prop_assert_eq!(probe.as_ref().map(|p| p.value()), model.get(&k).copied());
                    probes.extend(probe.map(|p| (k, p)));
                }
                Op::Set(n, v) => {
                    if !probes.is_empty() {
                        let (k, probe) = probes.swap_remove(n % probes.len());
                        // Fresh or stale, a set leaves the key at `v`
                        // (a key removed since the probe comes back).
                        probe.set(v).unwrap();
                        model.insert(k, v);
                    }
                }
            }
            prop_assert_eq!(idx.len(), model.len());
        }
        // Final full comparison via iteration.
        let mut seen = HashMap::new();
        idx.for_each(|k, v| { seen.insert(k, v); }).unwrap();
        prop_assert_eq!(seen, model);
    }

    #[test]
    fn bulk_insert_then_verify(n in 100usize..1500) {
        let pool = Arc::new(BufferPool::new(
            Arc::new(MemDisk::new(128)),
            PoolConfig { capacity: 64 },
        ));
        let idx = LinearHashIndex::create(pool, HashIndexConfig::default()).unwrap();
        for k in 0..n as u64 {
            idx.insert(k, (k % 97) as u32).unwrap();
        }
        prop_assert_eq!(idx.len(), n);
        for k in 0..n as u64 {
            prop_assert_eq!(idx.get(k).unwrap(), Some((k % 97) as u32));
        }
    }
}
