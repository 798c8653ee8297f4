//! A guard on the measurement itself: how fast the host is right now.
//! In a shared sandbox neighbours slow a run by tens of percent for minutes
//! at a time, mostly through the memory system; two tiny fixed kernels run
//! on every generator thread at once, right before and after the window,
//! let a reader tell a disturbed run from a regression.

use crate::stats;
use std::hint::black_box;
use std::time::Instant;

/// Entries of the pointer-chase array (8 MiB of `u32`): past any L2.
const CHASE_ENTRIES: usize = 1 << 21;
const CHASE_STEPS: usize = 100_000;
const ALU_STEPS: usize = 2_000_000;
/// Kernel repetitions per thread; the median is reported.
const REPS: usize = 8;

#[derive(Debug, Clone, Copy)]
pub struct HostSpeed {
    /// One dependent load in the chase array.
    pub chase_ns: f64,
    /// `ALU_STEPS` dependent xorshift steps.
    pub alu_ms: f64,
}

/// One random cycle through `0..CHASE_ENTRIES` (Sattolo), so every load
/// depends on the one before and the prefetcher cannot help.
fn chase_cycle() -> Vec<u32> {
    let mut next: Vec<u32> = (0..CHASE_ENTRIES as u32).collect();
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    for i in (1..CHASE_ENTRIES).rev() {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        next.swap(i, (state >> 33) as usize % i);
    }
    next
}

fn one_thread() -> Vec<(f64, f64)> {
    let next = chase_cycle();
    (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            let mut at = 0u32;
            for _ in 0..CHASE_STEPS {
                at = next[at as usize];
            }
            black_box(at);
            let chase = t0.elapsed();
            let t1 = Instant::now();
            let mut x = 88_172_645_463_325_252u64;
            for _ in 0..ALU_STEPS {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            black_box(x);
            (
                chase.as_nanos() as f64 / CHASE_STEPS as f64,
                t1.elapsed().as_secs_f64() * 1e3,
            )
        })
        .collect()
}

/// Run both kernels on `threads` threads at once; medians over all of them.
pub fn measure(threads: usize) -> HostSpeed {
    let all: Vec<(f64, f64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|_| scope.spawn(one_thread)).collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("calibration thread panicked"))
            .collect()
    });
    HostSpeed {
        chase_ns: stats::median(&mut all.iter().map(|r| r.0).collect::<Vec<_>>()),
        alu_ms: stats::median(&mut all.iter().map(|r| r.1).collect::<Vec<_>>()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chase_is_one_cycle_through_every_entry() {
        let next = chase_cycle();
        let (mut at, mut steps) = (0u32, 0usize);
        loop {
            at = next[at as usize];
            steps += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(steps, CHASE_ENTRIES);
    }
}
