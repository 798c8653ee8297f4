//! The open-loop schedule: requests are due at fixed times whatever the
//! system does, and each is timed from when it was *due*, so the wait a
//! stall imposes on the requests queued behind it is counted.

use std::time::{Duration, Instant};

/// A request sent more than this after its due time counts as late.
pub const LATE_NS: u64 = 1_000_000;

/// Due times of one generator thread: thread `t` of `threads` sends every
/// `threads`-th request of a stream offered at `rate` requests/s in total.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    interval_ns: f64,
    offset_ns: f64,
}

impl Schedule {
    pub fn new(rate_per_s: f64, thread: usize, threads: usize) -> Self {
        let global_interval = 1e9 / rate_per_s;
        Schedule {
            interval_ns: global_interval * threads as f64,
            offset_ns: global_interval * thread as f64,
        }
    }

    /// When this thread's `i`-th request is due, in ns from the window start.
    pub fn due_ns(&self, i: u64) -> u64 {
        (self.offset_ns + self.interval_ns * i as f64).round() as u64
    }
}

/// How one paced request is accounted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Paced {
    /// Completion minus due time: what the request's user waited.
    pub latency_ns: u64,
    /// Send minus due time: how far behind schedule the generator ran.
    pub lateness_ns: u64,
}

pub fn account(due_ns: u64, sent_ns: u64, done_ns: u64) -> Paced {
    Paced {
        latency_ns: done_ns.saturating_sub(due_ns),
        lateness_ns: sent_ns.saturating_sub(due_ns),
    }
}

/// Wait until `due_ns` after `start`; returns at once when already past it
/// (a generator that has fallen behind sends back to back until caught up).
/// The wait yields instead of sleeping: a sleeping generator lets the
/// sandbox's virtual CPUs halt between requests, and what the next request
/// then measures is the hypervisor waking them up (tens of percent of a
/// millisecond-scale latency, different from one minute to the next).
pub fn wait_until(start: Instant, due_ns: u64) {
    let due = start + Duration::from_nanos(due_ns);
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_interleave_into_the_offered_rate() {
        // 400 requests/s over 2 threads: 2.5 ms apart overall, 5 ms per thread.
        let (a, b) = (Schedule::new(400.0, 0, 2), Schedule::new(400.0, 1, 2));
        assert_eq!(a.due_ns(0), 0);
        assert_eq!(b.due_ns(0), 2_500_000);
        assert_eq!(a.due_ns(1), 5_000_000);
        assert_eq!(b.due_ns(1), 7_500_000);
        assert_eq!(a.due_ns(200), 1_000_000_000);
    }

    #[test]
    fn latency_runs_from_the_due_time_not_the_send_time() {
        // Due at 10 ms, sent 3 ms late because the previous request
        // stalled, done 2 ms after that: the user waited 5 ms.
        let p = account(10_000_000, 13_000_000, 15_000_000);
        assert_eq!(p.latency_ns, 5_000_000);
        assert_eq!(p.lateness_ns, 3_000_000);
        assert!(p.lateness_ns > LATE_NS);
        // Sent on time (the clock may read a hair before the due time).
        let p = account(10_000_000, 9_999_990, 10_400_000);
        assert_eq!(
            p,
            Paced {
                latency_ns: 400_000,
                lateness_ns: 0
            }
        );
    }

    #[test]
    fn wait_until_returns_at_once_when_behind() {
        let start = Instant::now() - Duration::from_secs(1);
        let t = Instant::now();
        wait_until(start, 1_000);
        assert!(t.elapsed() < Duration::from_millis(50));
    }
}
