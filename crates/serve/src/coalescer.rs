//! The write coalescer: merges concurrently arriving client batches
//! into one [`Batch`] → one index lock acquisition → ONE WAL group
//! commit record, then acks every contributing client once the
//! durable-LSN watermark covers the round.
//!
//! This is where the server beats N independent handles: N clients
//! fsyncing independently pay N syncs; N clients coalesced pay one.
//! The committer thread runs `recv` (blocking, zero idle cost), drains
//! whatever else queued while it slept, and commits the merged batch.
//! While it waits on the watermark, the next round's submissions pile
//! up behind it — load itself creates the grouping, no timer needed.

use bur_core::{Batch, Bur, CoreError, Op};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use parking_lot::{Condvar, Mutex};

/// Ops merged into a single round before the committer cuts it off
/// (bounds commit latency under a firehose; the remainder queues for
/// the next round).
const MAX_ROUND_OPS: usize = 8192;

/// Tuning knobs for one index's coalescer, set server-wide via
/// `ServerConfig` / `burd --queue-limit`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoalescerConfig {
    /// Admission ceiling: a write batch is refused with
    /// [`ApplyError::Overloaded`] when accepting it would push the
    /// queued-or-in-flight op count past this. Half of it is the
    /// degraded-mode watermark ([`Coalescer::is_degraded`]): queries
    /// are shed before writes, so the write path keeps its budget.
    pub max_queued_ops: usize,
    /// Bound on the retry-dedup table: distinct client sessions
    /// remembered (last sequence number + cached ack each). Oldest
    /// completed sessions are evicted first.
    pub max_sessions: usize,
}

impl Default for CoalescerConfig {
    fn default() -> Self {
        CoalescerConfig {
            max_queued_ops: 16_384,
            max_sessions: 1024,
        }
    }
}

/// Why a submission was refused or abandoned without (full) effect.
/// Distinct from the stringly-typed commit errors because the server
/// maps each variant to its own wire response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApplyError {
    /// Shed at admission: the bounded queue is full. No side effects;
    /// retry after backoff.
    Overloaded {
        /// Ops queued or in flight when the batch was refused.
        queued: usize,
        /// The configured admission ceiling.
        limit: usize,
    },
    /// The deadline passed before the batch was committed. No side
    /// effects; safe to retry with a fresh deadline.
    Expired,
    /// The batch (or the index) rejected it; the message crosses the
    /// wire verbatim. Partial-failure messages name the failing op.
    Rejected(String),
}

impl fmt::Display for ApplyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApplyError::Overloaded { queued, limit } => {
                write!(f, "overloaded: {queued} ops queued (limit {limit})")
            }
            ApplyError::Expired => write!(f, "deadline expired before commit"),
            ApplyError::Rejected(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for ApplyError {}

/// Durable acknowledgement for one coalesced submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteAck {
    /// LSN of the group commit record that covered this submission
    /// (0 on a non-durable index).
    pub lsn: u64,
    /// Operations applied for this submission.
    pub applied: u64,
    /// Submissions merged into the same group commit round, including
    /// this one.
    pub merged: u64,
}

/// Counters exposed on the `stats` opcode and consumed by the serving
/// tests to demonstrate coalescing (`rounds < submissions`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoalescerStats {
    /// Group commit rounds executed (= WAL group commit records cut by
    /// this coalescer).
    pub rounds: u64,
    /// Client submissions acknowledged.
    pub submissions: u64,
    /// Total operations committed.
    pub ops: u64,
    /// Write batches refused at admission (queue full).
    pub shed_writes: u64,
    /// Submissions whose deadline passed before commit.
    pub expired: u64,
    /// Retried batches answered from the dedup table instead of
    /// re-applying.
    pub dedup_hits: u64,
    /// Client sessions currently tracked by the dedup table.
    pub dedup_sessions: u64,
    /// Ops queued or in flight right now (admission gauge).
    pub queued_ops: u64,
}

impl CoalescerStats {
    /// Mean submissions merged per round (1.0 = no coalescing).
    #[must_use]
    pub fn ratio(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.submissions as f64 / self.rounds as f64
        }
    }
}

/// How a round-level failure reaches the submitting thread; `Expired`
/// guarantees the ops were *not* applied (the committer drops expired
/// submissions before batching them).
enum RoundError {
    Expired,
    Failed(String),
}

struct Submission {
    ops: Vec<Op>,
    deadline: Option<Instant>,
    reply: SyncSender<Result<WriteAck, RoundError>>,
}

#[derive(Default)]
struct SharedStats {
    rounds: AtomicU64,
    submissions: AtomicU64,
    ops: AtomicU64,
    shed_writes: AtomicU64,
    expired: AtomicU64,
    queued_ops: AtomicUsize,
}

// ---- retry dedup -----------------------------------------------------------

enum SlotState {
    /// The original attempt is somewhere between admission and ack;
    /// duplicates wait on the condvar instead of re-applying.
    InFlight,
    /// The attempt finished; duplicates replay this result.
    Done(Result<WriteAck, String>),
}

struct SessionSlot {
    seq: u64,
    state: SlotState,
    /// Logical clock for least-recently-touched eviction.
    tick: u64,
}

/// What [`DedupTable::begin`] decided for an incoming `(session, seq)`.
enum Admission {
    /// First sighting — caller must apply and then call `finish` (or
    /// `abandon` if it never reached the committer).
    Fresh,
    /// A duplicate of a finished attempt — return this result verbatim.
    Replay(Result<WriteAck, String>),
    /// The session has already moved past this sequence number.
    Stale,
    /// A duplicate arrived while the original was in flight and the
    /// wait for it outlived the duplicate's deadline.
    WaitExpired,
}

/// One completed retry-dedup slot, exportable across coalescers (see
/// [`Coalescer::export_dedup`] / [`Coalescer::merge_dedup`]). Carries
/// the session's highest finished sequence number and the cached
/// outcome a retry of that sequence must replay.
#[derive(Debug, Clone)]
pub struct DedupEntry {
    /// Client session id.
    pub session: u128,
    /// Highest finished sequence number for the session.
    pub seq: u64,
    /// The outcome to replay: the original ack, or the original
    /// deterministic rejection.
    pub ack: Result<WriteAck, String>,
}

/// Bounded per-session retry memory: the highest sequence number seen
/// and the cached outcome for it. One entry per client session, evicted
/// least-recently-touched once `max_sessions` is exceeded (only
/// completed entries are evictable).
struct DedupTable {
    max_sessions: usize,
    slots: Mutex<HashMap<u128, SessionSlot>>,
    done: Condvar,
    hits: AtomicU64,
    ticks: AtomicU64,
}

impl DedupTable {
    fn new(max_sessions: usize) -> Self {
        DedupTable {
            max_sessions: max_sessions.max(1),
            slots: Mutex::new(HashMap::new()),
            done: Condvar::new(),
            hits: AtomicU64::new(0),
            ticks: AtomicU64::new(0),
        }
    }

    fn tick(&self) -> u64 {
        self.ticks.fetch_add(1, Ordering::Relaxed)
    }

    fn begin(&self, session: u128, seq: u64, deadline: Option<Instant>) -> Admission {
        let mut slots = self.slots.lock();
        loop {
            match slots.get_mut(&session) {
                Some(slot) if slot.seq > seq => return Admission::Stale,
                Some(slot) if slot.seq == seq => match &slot.state {
                    SlotState::Done(result) => {
                        slot.tick = self.tick();
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        return Admission::Replay(result.clone());
                    }
                    SlotState::InFlight => match deadline {
                        Some(d) => {
                            if self.done.wait_until(&mut slots, d).timed_out() {
                                return Admission::WaitExpired;
                            }
                        }
                        None => self.done.wait(&mut slots),
                    },
                },
                _ => {
                    if slots.len() >= self.max_sessions {
                        // Evict the least-recently-touched completed
                        // session; in-flight ones must keep their slot.
                        let victim = slots
                            .iter()
                            .filter(|(_, s)| matches!(s.state, SlotState::Done(_)))
                            .min_by_key(|(_, s)| s.tick)
                            .map(|(k, _)| *k);
                        if let Some(victim) = victim {
                            slots.remove(&victim);
                        }
                    }
                    let tick = self.tick();
                    slots.insert(
                        session,
                        SessionSlot {
                            seq,
                            state: SlotState::InFlight,
                            tick,
                        },
                    );
                    return Admission::Fresh;
                }
            }
        }
    }

    /// Record the outcome of a fresh attempt and wake duplicates.
    fn finish(&self, session: u128, seq: u64, result: Result<WriteAck, String>) {
        let mut slots = self.slots.lock();
        if let Some(slot) = slots.get_mut(&session) {
            if slot.seq == seq && matches!(slot.state, SlotState::InFlight) {
                slot.state = SlotState::Done(result);
                slot.tick = self.tick();
            }
        }
        drop(slots);
        self.done.notify_all();
    }

    /// Forget a fresh attempt that had no effect (shed, expired, or the
    /// index shut down) so a retry of the same sequence starts over.
    fn abandon(&self, session: u128, seq: u64) {
        let mut slots = self.slots.lock();
        if let Some(slot) = slots.get(&session) {
            if slot.seq == seq && matches!(slot.state, SlotState::InFlight) {
                slots.remove(&session);
            }
        }
        drop(slots);
        self.done.notify_all();
    }

    fn sessions(&self) -> usize {
        self.slots.lock().len()
    }

    /// Snapshot every completed slot. In-flight slots are skipped: they
    /// belong to submissions still working through *this* coalescer,
    /// and their waiters sit on this table's condvar.
    fn export(&self) -> Vec<DedupEntry> {
        self.slots
            .lock()
            .iter()
            .filter_map(|(session, slot)| match &slot.state {
                SlotState::Done(result) => Some(DedupEntry {
                    session: *session,
                    seq: slot.seq,
                    ack: result.clone(),
                }),
                SlotState::InFlight => None,
            })
            .collect()
    }

    /// Adopt exported slots from another coalescer's table. A donated
    /// entry lands only where it advances knowledge: inserted when the
    /// session is unknown here, replacing a *completed* slot at a lower
    /// sequence. On an equal sequence the local slot wins — a batch
    /// split across shards reuses one `(session, seq)` with different
    /// per-shard payloads, and the local ack is the one this shard's
    /// retries must replay. In-flight local slots are never displaced
    /// (their originals still own them). Over-capacity trims the
    /// least-recently-touched completed slots, same policy as `begin`.
    fn merge(&self, entries: Vec<DedupEntry>) {
        let mut slots = self.slots.lock();
        for entry in entries {
            match slots.get(&entry.session) {
                Some(slot) if slot.seq >= entry.seq => continue,
                Some(slot) if matches!(slot.state, SlotState::InFlight) => continue,
                _ => {}
            }
            let tick = self.tick();
            slots.insert(
                entry.session,
                SessionSlot {
                    seq: entry.seq,
                    state: SlotState::Done(entry.ack),
                    tick,
                },
            );
        }
        while slots.len() > self.max_sessions {
            let victim = slots
                .iter()
                .filter(|(_, s)| matches!(s.state, SlotState::Done(_)))
                .min_by_key(|(_, s)| s.tick)
                .map(|(k, _)| *k);
            match victim {
                Some(victim) => slots.remove(&victim),
                None => break,
            };
        }
    }
}

/// Per-index write coalescer. Clonable via `Arc` at the registry
/// layer; [`Coalescer::apply`] blocks the calling connection thread
/// until its submission is durable (or failed).
pub struct Coalescer {
    tx: Mutex<Option<Sender<Submission>>>,
    worker: Mutex<Option<JoinHandle<()>>>,
    stats: Arc<SharedStats>,
    dedup: DedupTable,
    config: CoalescerConfig,
}

impl std::fmt::Debug for Coalescer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Coalescer")
            .field("stats", &self.stats())
            .finish()
    }
}

impl Coalescer {
    /// Start a committer thread for `bur` with default limits.
    #[must_use]
    pub fn new(bur: Bur) -> Self {
        Self::with_config(bur, CoalescerConfig::default())
    }

    /// Start a committer thread for `bur` with explicit limits.
    #[must_use]
    pub fn with_config(bur: Bur, config: CoalescerConfig) -> Self {
        let (tx, rx) = mpsc::channel::<Submission>();
        let stats = Arc::new(SharedStats::default());
        let worker_stats = Arc::clone(&stats);
        let worker = std::thread::Builder::new()
            .name("burd-committer".into())
            .spawn(move || committer_loop(&bur, &rx, &worker_stats))
            .expect("spawn committer thread");
        Coalescer {
            tx: Mutex::new(Some(tx)),
            worker: Mutex::new(Some(worker)),
            stats,
            dedup: DedupTable::new(config.max_sessions),
            config,
        }
    }

    /// Submit a batch without retry protection or a deadline and block
    /// until it is durable. Errors are stringly-typed because they
    /// cross the wire verbatim.
    pub fn apply(&self, ops: Vec<Op>) -> Result<WriteAck, String> {
        self.apply_session(0, 0, ops, None)
            .map_err(|e| e.to_string())
    }

    /// Submit a batch and block until it is durable, refused, or past
    /// `deadline`.
    ///
    /// A non-zero `session` enables retry deduplication: the table
    /// remembers the highest `seq` per session together with its
    /// outcome, so a retried batch (same `session`, same `seq`) replays
    /// the original ack or error instead of applying twice. Duplicates
    /// that arrive while the original is still in flight wait for it.
    /// [`ApplyError::Overloaded`] and [`ApplyError::Expired`] guarantee
    /// "no side effects", which is what makes blind client retries
    /// safe.
    pub fn apply_session(
        &self,
        session: u128,
        seq: u64,
        ops: Vec<Op>,
        deadline: Option<Instant>,
    ) -> Result<WriteAck, ApplyError> {
        if ops.is_empty() {
            return Ok(WriteAck {
                lsn: 0,
                applied: 0,
                merged: 0,
            });
        }
        if deadline.is_some_and(|d| Instant::now() >= d) {
            self.stats.expired.fetch_add(1, Ordering::Relaxed);
            return Err(ApplyError::Expired);
        }
        if session != 0 {
            match self.dedup.begin(session, seq, deadline) {
                Admission::Fresh => {}
                Admission::Replay(result) => return result.map_err(ApplyError::Rejected),
                Admission::Stale => {
                    return Err(ApplyError::Rejected(format!(
                        "stale sequence {seq} for session {session:#034x}"
                    )))
                }
                Admission::WaitExpired => {
                    self.stats.expired.fetch_add(1, Ordering::Relaxed);
                    return Err(ApplyError::Expired);
                }
            }
        }
        match self.submit(ops, deadline) {
            Ok(ack) => {
                if session != 0 {
                    self.dedup.finish(session, seq, Ok(ack));
                }
                Ok(ack)
            }
            Err(ApplyError::Rejected(msg)) => {
                // Cache deterministic rejections too: a retried
                // partial-failure batch must replay the original error,
                // not re-apply its successful prefix.
                if session != 0 {
                    self.dedup.finish(session, seq, Err(msg.clone()));
                }
                Err(ApplyError::Rejected(msg))
            }
            Err(e) => {
                // Shed or expired: nothing was applied, so a retry of
                // the same sequence must start from scratch.
                if session != 0 {
                    self.dedup.abandon(session, seq);
                }
                Err(e)
            }
        }
    }

    /// Admission control + queueing + the blocking wait for the ack.
    fn submit(&self, ops: Vec<Op>, deadline: Option<Instant>) -> Result<WriteAck, ApplyError> {
        let n = ops.len();
        let queued = self.stats.queued_ops.load(Ordering::Relaxed);
        if queued + n > self.config.max_queued_ops {
            self.stats.shed_writes.fetch_add(1, Ordering::Relaxed);
            return Err(ApplyError::Overloaded {
                queued,
                limit: self.config.max_queued_ops,
            });
        }
        let tx = match &*self.tx.lock() {
            Some(tx) => tx.clone(),
            None => return Err(ApplyError::Rejected("index is shutting down".into())),
        };
        let (reply_tx, reply_rx) = mpsc::sync_channel(1);
        self.stats.queued_ops.fetch_add(n, Ordering::Relaxed);
        let sent = tx.send(Submission {
            ops,
            deadline,
            reply: reply_tx,
        });
        if sent.is_err() {
            self.stats.queued_ops.fetch_sub(n, Ordering::Relaxed);
            return Err(ApplyError::Rejected("index is shutting down".into()));
        }
        let outcome = reply_rx.recv();
        self.stats.queued_ops.fetch_sub(n, Ordering::Relaxed);
        match outcome {
            Ok(Ok(ack)) => Ok(ack),
            Ok(Err(RoundError::Failed(msg))) => Err(ApplyError::Rejected(msg)),
            Ok(Err(RoundError::Expired)) => {
                self.stats.expired.fetch_add(1, Ordering::Relaxed);
                Err(ApplyError::Expired)
            }
            Err(_) => Err(ApplyError::Rejected(
                "committer exited before acknowledging".into(),
            )),
        }
    }

    /// Whether a batch of `n` ops can pass admission once the queue
    /// drains; a larger one is shed however often it is resubmitted.
    pub(crate) fn can_admit(&self, n: usize) -> bool {
        n <= self.config.max_queued_ops
    }

    /// Ops queued or in flight right now.
    #[must_use]
    pub fn queued_ops(&self) -> usize {
        self.stats.queued_ops.load(Ordering::Relaxed)
    }

    /// Whether the write queue is past its degraded-mode watermark
    /// (half the admission ceiling). The server sheds queries — but not
    /// writes — while this holds.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        if self.config.max_queued_ops == 0 {
            return true;
        }
        self.queued_ops() >= (self.config.max_queued_ops / 2).max(1)
    }

    /// Snapshot this coalescer's completed retry-dedup entries, for
    /// handover to another shard's coalescer via
    /// [`Self::merge_dedup`]. Exactly-once retry protection is
    /// per-coalescer state: when a range migration re-homes a key range
    /// (`ShardedBur::migrate_range`), a retry of an already-acked batch
    /// routes to the *recipient* shard, whose table has never seen the
    /// `(session, seq)` — without the handover it would apply the batch
    /// a second time. Dedup slots are keyed by session, not key range,
    /// so the whole table travels; donated entries are advisory
    /// replay-cache state and never displace fresher local knowledge.
    #[must_use]
    pub fn export_dedup(&self) -> Vec<DedupEntry> {
        self.dedup.export()
    }

    /// Adopt exported retry-dedup entries from a donor coalescer (see
    /// [`Self::export_dedup`]): inserted when the session is unknown
    /// here, replacing a completed slot at a lower sequence, dropped
    /// otherwise — on an equal sequence the local slot wins, because a
    /// batch split across shards reuses one `(session, seq)` with
    /// different per-shard payloads and local retries must replay the
    /// local ack.
    pub fn merge_dedup(&self, entries: Vec<DedupEntry>) {
        self.dedup.merge(entries);
    }

    /// Counters so far.
    #[must_use]
    pub fn stats(&self) -> CoalescerStats {
        CoalescerStats {
            rounds: self.stats.rounds.load(Ordering::Relaxed),
            submissions: self.stats.submissions.load(Ordering::Relaxed),
            ops: self.stats.ops.load(Ordering::Relaxed),
            shed_writes: self.stats.shed_writes.load(Ordering::Relaxed),
            expired: self.stats.expired.load(Ordering::Relaxed),
            dedup_hits: self.dedup.hits.load(Ordering::Relaxed),
            dedup_sessions: self.dedup.sessions() as u64,
            queued_ops: self.stats.queued_ops.load(Ordering::Relaxed) as u64,
        }
    }

    /// Drain every queued submission (each gets its ack or error) and
    /// stop the committer thread. Idempotent.
    pub fn shutdown(&self) {
        // Dropping the sender lets the committer drain the buffered
        // queue; `recv` only disconnects once it is empty.
        drop(self.tx.lock().take());
        if let Some(worker) = self.worker.lock().take() {
            let _ = worker.join();
        }
    }
}

impl Drop for Coalescer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn committer_loop(bur: &Bur, rx: &Receiver<Submission>, stats: &SharedStats) {
    let mut carryover: VecDeque<Submission> = VecDeque::new();
    // Expired submissions are answered without ever joining a batch —
    // that is the "no side effects" half of the deadline contract.
    let admit = |sub: Submission, round: &mut Vec<Submission>, round_ops: &mut usize| {
        if sub.deadline.is_some_and(|d| Instant::now() >= d) {
            let _ = sub.reply.send(Err(RoundError::Expired));
            return;
        }
        *round_ops += sub.ops.len();
        round.push(sub);
    };
    loop {
        let mut round: Vec<Submission> = Vec::new();
        let mut round_ops = 0usize;
        // Re-admit submissions deferred by a previous partial failure
        // before taking new work, preserving arrival order.
        while round_ops < MAX_ROUND_OPS {
            match carryover.pop_front() {
                Some(sub) => admit(sub, &mut round, &mut round_ops),
                None => break,
            }
        }
        if round.is_empty() {
            // Idle: block until work arrives or every sender is gone.
            match rx.recv() {
                Ok(sub) => admit(sub, &mut round, &mut round_ops),
                Err(_) => return,
            }
        }
        // Sweep everything else that queued while we slept or committed
        // the previous round — this is the coalescing window.
        while round_ops < MAX_ROUND_OPS {
            match rx.try_recv() {
                Ok(sub) => admit(sub, &mut round, &mut round_ops),
                Err(_) => break,
            }
        }
        if round.is_empty() {
            // Everything drawn this round had already expired.
            continue;
        }
        commit_round(bur, round, &mut carryover, stats);
    }
}

fn commit_round(
    bur: &Bur,
    round: Vec<Submission>,
    carryover: &mut VecDeque<Submission>,
    stats: &SharedStats,
) {
    let merged = round.len() as u64;
    let mut batch = Batch::new();
    for sub in &round {
        for op in &sub.ops {
            batch.push(*op);
        }
    }
    match bur.apply(&batch) {
        Ok(ticket) => {
            let lsn = match ticket.wait() {
                Ok(lsn) => lsn,
                Err(e) => {
                    let msg = format!("commit applied but durability wait failed: {e}");
                    for sub in round {
                        let _ = sub.reply.send(Err(RoundError::Failed(msg.clone())));
                    }
                    return;
                }
            };
            stats.rounds.fetch_add(1, Ordering::Relaxed);
            stats.submissions.fetch_add(merged, Ordering::Relaxed);
            stats.ops.fetch_add(batch.len() as u64, Ordering::Relaxed);
            for sub in round {
                let applied = sub.ops.len() as u64;
                let _ = sub.reply.send(Ok(WriteAck {
                    lsn,
                    applied,
                    merged,
                }));
            }
        }
        Err(CoreError::Batch { op_index, source }) => {
            // Operations before `op_index` were applied and flushed;
            // the failing op and everything after were not. Map that
            // contract back onto per-client submissions.
            let flushed_lsn = bur.wal_stats().map_or(0, |s| s.durable_lsn);
            let mut offset = 0usize;
            let mut failed_round = false;
            for sub in round {
                let len = sub.ops.len();
                if offset + len <= op_index {
                    // Entirely before the failure: applied + durable.
                    stats.submissions.fetch_add(1, Ordering::Relaxed);
                    stats.ops.fetch_add(len as u64, Ordering::Relaxed);
                    let _ = sub.reply.send(Ok(WriteAck {
                        lsn: flushed_lsn,
                        applied: len as u64,
                        merged,
                    }));
                } else if offset > op_index {
                    // Entirely after: untouched — retry next round.
                    carryover.push_back(sub);
                } else {
                    // Contains the failing op.
                    failed_round = true;
                    let local = op_index - offset;
                    let _ = sub.reply.send(Err(RoundError::Failed(format!(
                        "batch operation #{local} failed: {source} \
                         (operations before it were applied)"
                    ))));
                }
                offset += len;
            }
            if failed_round {
                stats.rounds.fetch_add(1, Ordering::Relaxed);
            }
        }
        Err(e) => {
            let msg = format!("batch rejected: {e}");
            for sub in round {
                let _ = sub.reply.send(Err(RoundError::Failed(msg.clone())));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bur_core::IndexBuilder;
    use bur_geom::Point;

    fn mem_bur() -> Bur {
        IndexBuilder::generalized().build().expect("build")
    }

    fn inserts(range: std::ops::Range<u64>) -> Vec<Op> {
        range
            .map(|oid| Op::Insert {
                oid,
                rect: bur_geom::Rect::from_point(Point::new(
                    (oid % 97) as f32 / 97.0,
                    (oid % 89) as f32 / 89.0,
                )),
            })
            .collect()
    }

    #[test]
    fn applies_and_counts() {
        let bur = mem_bur();
        let c = Coalescer::new(bur.clone());
        let ack = c.apply(inserts(0..10)).expect("ack");
        assert_eq!(ack.applied, 10);
        assert!(ack.merged >= 1);
        assert_eq!(bur.len(), 10);
        let stats = c.stats();
        assert_eq!(stats.submissions, 1);
        assert_eq!(stats.ops, 10);
        c.shutdown();
        assert!(c.apply(inserts(10..11)).is_err(), "rejects after shutdown");
    }

    #[test]
    fn concurrent_submissions_coalesce() {
        let bur = mem_bur();
        let c = Arc::new(Coalescer::new(bur.clone()));
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for b in 0..16u64 {
                        let base = t * 10_000 + b * 100;
                        c.apply(inserts(base..base + 25)).expect("ack");
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("join");
        }
        assert_eq!(bur.len(), 8 * 16 * 25);
        let stats = c.stats();
        assert_eq!(stats.submissions, 8 * 16);
        assert!(
            stats.rounds <= stats.submissions,
            "rounds {} > submissions {}",
            stats.rounds,
            stats.submissions
        );
    }

    #[test]
    fn dedup_handover_merges_without_displacing_local_knowledge() {
        let donor_bur = mem_bur();
        let donor = Coalescer::new(donor_bur.clone());
        let recipient_bur = mem_bur();
        let recipient = Coalescer::new(recipient_bur.clone());

        // Donor finishes (1, 3) with 4 ops and (4, 7) with 2 ops.
        donor.apply_session(1, 3, inserts(0..4), None).expect("ack");
        donor
            .apply_session(4, 7, inserts(10..12), None)
            .expect("ack");
        // Recipient already knows session 1 at the SAME seq (its half of
        // a split batch: 3 ops) and session 2 at a HIGHER seq.
        let local = recipient
            .apply_session(1, 3, inserts(20..23), None)
            .expect("ack");
        recipient
            .apply_session(2, 5, inserts(30..32), None)
            .expect("ack");

        recipient.merge_dedup(donor.export_dedup());
        let len_before = recipient_bur.len();

        // Unknown session: the donated entry replays verbatim, applying
        // nothing here.
        let replayed = recipient
            .apply_session(4, 7, inserts(10..12), None)
            .expect("replayed");
        assert_eq!(replayed.applied, 2, "the donor's ack came back");
        assert_eq!(recipient_bur.len(), len_before, "nothing re-applied");

        // Equal seq: the local slot wins — split batches share a
        // (session, seq) with different per-shard payloads.
        let same = recipient
            .apply_session(1, 3, inserts(20..23), None)
            .expect("replayed");
        assert_eq!(same.applied, local.applied);
        assert_eq!(same.lsn, local.lsn);

        // Lower donated seq never rolls a session backwards.
        let err = recipient
            .apply_session(2, 1, inserts(40..41), None)
            .expect_err("stale");
        assert!(err.to_string().contains("stale"), "{err}");

        assert!(recipient.stats().dedup_hits >= 2);
        donor.shutdown();
        recipient.shutdown();
    }

    #[test]
    fn partial_failure_maps_to_the_guilty_submission() {
        let bur = mem_bur();
        let c = Coalescer::new(bur.clone());
        c.apply(inserts(0..5)).expect("seed");
        // oid 3 already exists → duplicate-insert failure at op #2.
        let bad = vec![
            Op::Insert {
                oid: 100,
                rect: bur_geom::Rect::from_point(Point::new(0.5, 0.5)),
            },
            Op::Insert {
                oid: 101,
                rect: bur_geom::Rect::from_point(Point::new(0.6, 0.6)),
            },
            Op::Insert {
                oid: 3,
                rect: bur_geom::Rect::from_point(Point::new(0.7, 0.7)),
            },
        ];
        let err = c.apply(bad).expect_err("duplicate rejected");
        assert!(err.contains("#2"), "error names the local op index: {err}");
        assert!(err.contains("already indexed"), "cause preserved: {err}");
        // The two good inserts before the failure were applied.
        assert_eq!(bur.len(), 7);
        // The coalescer keeps working afterwards.
        let ack = c.apply(inserts(200..210)).expect("still alive");
        assert_eq!(ack.applied, 10);
    }
}
