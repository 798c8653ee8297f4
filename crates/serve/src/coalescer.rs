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
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

use parking_lot::{Condvar, Mutex};

/// Ops merged into a single round before the committer cuts it off
/// (bounds commit latency under a firehose; the remainder queues for
/// the next round).
const MAX_ROUND_OPS: usize = 8192;

/// The default admission ceiling of one index's coalescer (ops queued
/// or in flight); `ServerConfig::max_queued_ops` and `burd
/// --queue-limit` set another.
pub(crate) const MAX_QUEUED_OPS: usize = 16_384;

/// Bound on a retry-dedup table (a plain index's coalescer's, or a
/// sharded index's one ledger): distinct client sessions remembered
/// (last sequence number + cached ack each). The least recently
/// touched completed session is evicted first.
pub(crate) const MAX_SESSIONS: usize = 1024;

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
                write!(
                    f,
                    "overloaded: {queued} ops queued (write-queue limit {limit})"
                )
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
    /// Writes whose deadline passed before commit (a sharded write
    /// counts once, on the coalescer of its first part).
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

/// One write's expiry decision, shared by every submission the write
/// made: the first of them a committer takes decides from the deadline
/// that all of them apply or that none does, and the others follow
/// that decision whenever their committers take them. A plain write
/// has one submission; a sharded write has one per shard it touches,
/// so its `Expired` still means that no part applied.
#[derive(Debug)]
pub(crate) struct Expiry {
    deadline: Instant,
    expired: OnceLock<bool>,
}

impl Expiry {
    pub(crate) fn new(deadline: Instant) -> Arc<Self> {
        Arc::new(Expiry {
            deadline,
            expired: OnceLock::new(),
        })
    }

    /// The write's decision, made now if no committer has made it yet.
    fn expired(&self) -> bool {
        *self.expired.get_or_init(|| Instant::now() >= self.deadline)
    }

    /// Whether a committer has taken one of the write's submissions.
    #[cfg(test)]
    pub(crate) fn is_decided(&self) -> bool {
        self.expired.get().is_some()
    }
}

struct Submission {
    ops: Batch,
    expiry: Option<Arc<Expiry>>,
    reply: SyncSender<Result<WriteAck, RoundError>>,
}

/// The ack of a submission [`Coalescer::submit`] queued. Its ops count
/// as queued until it is waited for or dropped.
pub(crate) struct PendingAck<'a> {
    reply: Receiver<Result<WriteAck, RoundError>>,
    ops: usize,
    queued: &'a AtomicUsize,
}

impl PendingAck<'_> {
    /// Block until the committer answers: durable, rejected or expired.
    pub(crate) fn wait(self) -> Result<WriteAck, ApplyError> {
        match self.reply.recv() {
            Ok(Ok(ack)) => Ok(ack),
            Ok(Err(RoundError::Failed(msg))) => Err(ApplyError::Rejected(msg)),
            Ok(Err(RoundError::Expired)) => Err(ApplyError::Expired),
            Err(_) => Err(ApplyError::Rejected(
                "committer exited before acknowledging".into(),
            )),
        }
    }
}

impl Drop for PendingAck<'_> {
    fn drop(&mut self) {
        self.queued.fetch_sub(self.ops, Ordering::Relaxed);
    }
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

/// Bounded per-session retry memory: the highest sequence number seen
/// and the cached outcome for it. One entry per client session, evicted
/// least-recently-touched once `max_sessions` ([`MAX_SESSIONS`] outside
/// tests) are tracked; only completed entries are evictable. A plain
/// index's coalescer owns one; a sharded index keeps one for the whole
/// index (`ShardedEntry`), and its shard coalescers see no sessions.
pub(crate) struct DedupTable {
    max_sessions: usize,
    slots: Mutex<HashMap<u128, SessionSlot>>,
    done: Condvar,
    hits: AtomicU64,
    ticks: AtomicU64,
}

impl fmt::Debug for DedupTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DedupTable")
            .field("sessions", &self.sessions())
            .field("hits", &self.hits())
            .finish()
    }
}

impl DedupTable {
    pub(crate) fn new(max_sessions: usize) -> Self {
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

    /// Run `attempt` at most once per `(session, seq)`, and say whether
    /// the answer is a replay. A duplicate replays the first attempt's
    /// ack or rejection, waiting (up to `deadline`) while that attempt
    /// is in flight. A shed or expired attempt had no side effects, so
    /// it is forgotten and a retry of the same sequence starts over.
    /// Session `0` opts out.
    pub(crate) fn run_once(
        &self,
        session: u128,
        seq: u64,
        deadline: Option<Instant>,
        attempt: impl FnOnce() -> Result<WriteAck, ApplyError>,
    ) -> (Result<WriteAck, ApplyError>, bool) {
        if session == 0 {
            return (attempt(), false);
        }
        match self.begin(session, seq, deadline) {
            Admission::Fresh => {}
            Admission::Replay(result) => return (result.map_err(ApplyError::Rejected), true),
            Admission::Stale => {
                let stale = format!("stale sequence {seq} for session {session:#034x}");
                return (Err(ApplyError::Rejected(stale)), false);
            }
            Admission::WaitExpired => return (Err(ApplyError::Expired), false),
        }
        let result = attempt();
        match &result {
            Ok(ack) => self.finish(session, seq, Ok(*ack)),
            // Cache deterministic rejections too: a retried
            // partial-failure batch must replay the original error,
            // not re-apply its successful prefix.
            Err(ApplyError::Rejected(msg)) => self.finish(session, seq, Err(msg.clone())),
            Err(_) => self.abandon(session, seq),
        }
        (result, false)
    }

    /// Retries answered from a cached outcome so far.
    pub(crate) fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Client sessions tracked right now.
    pub(crate) fn sessions(&self) -> u64 {
        self.slots.lock().len() as u64
    }
}

/// Per-index write coalescer. Clonable via `Arc` at the registry
/// layer; [`Coalescer::apply`] blocks the calling connection thread
/// until its submission is durable (or failed). A sharded index keeps
/// one per shard and hands a write's parts to all of them before it
/// waits for any (`ShardedEntry::apply_session`), so their committers
/// apply and sync side by side.
pub struct Coalescer {
    tx: Mutex<Option<Sender<Submission>>>,
    worker: Mutex<Option<JoinHandle<()>>>,
    stats: Arc<SharedStats>,
    dedup: DedupTable,
    /// Admission ceiling: a write batch is refused with
    /// [`ApplyError::Overloaded`] when accepting it would push the
    /// queued-or-in-flight op count past this. Half of it is the
    /// degraded-mode watermark ([`Coalescer::is_degraded`]): queries
    /// are shed before writes, so the write path keeps its budget.
    max_queued_ops: usize,
}

impl std::fmt::Debug for Coalescer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Coalescer")
            .field("stats", &self.stats())
            .finish()
    }
}

impl Coalescer {
    /// Start a committer thread for `bur` with the default admission
    /// ceiling (16 384 ops).
    #[must_use]
    pub fn new(bur: Bur) -> Self {
        Self::with_config(bur, MAX_QUEUED_OPS)
    }

    /// Start a committer thread for `bur` that admits at most
    /// `max_queued_ops` ops queued or in flight.
    #[must_use]
    pub fn with_config(bur: Bur, max_queued_ops: usize) -> Self {
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
            dedup: DedupTable::new(MAX_SESSIONS),
            max_queued_ops,
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
        self.serve_write(session, seq, ops, deadline).0
    }

    /// [`Self::apply_session`], also saying whether the dedup table
    /// answered the write with a replay.
    pub(crate) fn serve_write(
        &self,
        session: u128,
        seq: u64,
        ops: Vec<Op>,
        deadline: Option<Instant>,
    ) -> (Result<WriteAck, ApplyError>, bool) {
        if ops.is_empty() {
            let ack = WriteAck {
                lsn: 0,
                applied: 0,
                merged: 0,
            };
            return (Ok(ack), false);
        }
        let (result, replayed) = if deadline.is_some_and(|d| Instant::now() >= d) {
            (Err(ApplyError::Expired), false)
        } else {
            self.dedup.run_once(session, seq, deadline, || {
                self.admit(ops.len())?;
                // Collecting a `Vec` by value keeps its buffer: no copy.
                self.submit(ops.into_iter().collect(), deadline.map(Expiry::new))?
                    .wait()
            })
        };
        if matches!(result, Err(ApplyError::Expired)) {
            self.count_expired();
        }
        (result, replayed)
    }

    /// Count one write that expired before it applied.
    pub(crate) fn count_expired(&self) {
        self.stats.expired.fetch_add(1, Ordering::Relaxed);
    }

    /// Admission control: refuse `n` more ops with
    /// [`ApplyError::Overloaded`] (and count the shed) when they would
    /// push the queued-or-in-flight count past the ceiling.
    pub(crate) fn admit(&self, n: usize) -> Result<(), ApplyError> {
        let queued = self.queued_ops();
        if queued + n > self.max_queued_ops {
            self.stats.shed_writes.fetch_add(1, Ordering::Relaxed);
            return Err(ApplyError::Overloaded {
                queued,
                limit: self.max_queued_ops,
            });
        }
        Ok(())
    }

    /// Queue `ops` for the committer and return without waiting; the
    /// ack comes through the returned [`PendingAck`]. Admission is the
    /// caller's ([`Self::admit`]): a part of a sharded write is queued
    /// under its write's admission, so the ceiling cannot shed it here.
    /// `expiry` is the write's one expiry decision (`None`: no
    /// deadline), shared by all the submissions the write makes.
    pub(crate) fn submit(
        &self,
        ops: Batch,
        expiry: Option<Arc<Expiry>>,
    ) -> Result<PendingAck<'_>, ApplyError> {
        let tx = match &*self.tx.lock() {
            Some(tx) => tx.clone(),
            None => return Err(ApplyError::Rejected("index is shutting down".into())),
        };
        let (reply_tx, reply_rx) = mpsc::sync_channel(1);
        let pending = PendingAck {
            reply: reply_rx,
            ops: ops.len(),
            queued: &self.stats.queued_ops,
        };
        self.stats
            .queued_ops
            .fetch_add(pending.ops, Ordering::Relaxed);
        tx.send(Submission {
            ops,
            expiry,
            reply: reply_tx,
        })
        .map_err(|_| ApplyError::Rejected("index is shutting down".into()))?;
        Ok(pending)
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
        if self.max_queued_ops == 0 {
            return true;
        }
        self.queued_ops() >= (self.max_queued_ops / 2).max(1)
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
            dedup_hits: self.dedup.hits(),
            dedup_sessions: self.dedup.sessions(),
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
        if sub.expiry.as_ref().is_some_and(|e| e.expired()) {
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
    // A round of one submission, nearly every round at low load,
    // applies that submission's batch as it is.
    let joined: Batch;
    let batch = match round.as_slice() {
        [sub] => &sub.ops,
        subs => {
            joined = subs
                .iter()
                .flat_map(|sub| sub.ops.ops().iter().copied())
                .collect();
            &joined
        }
    };
    match bur.apply(batch) {
        Ok(ticket) => {
            let lsn = ticket.lsn();
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
    fn a_write_reports_its_own_replay() {
        let bur = mem_bur();
        let c = Coalescer::new(bur.clone());
        let (first, replayed) = c.serve_write(7, 1, inserts(0..3), None);
        assert_eq!(first.expect("applied").applied, 3);
        assert!(!replayed, "a first attempt is no replay");
        let (retry, replayed) = c.serve_write(7, 1, inserts(0..3), None);
        assert_eq!(retry.expect("replayed").applied, 3);
        assert!(replayed, "the retry is answered from the table");
        assert_eq!(bur.len(), 3, "applied once");
        assert_eq!(c.stats().dedup_hits, 1);
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

    /// A part queued under its write's admission skips the ceiling:
    /// even a zero limit, which sheds every normal submission, cannot
    /// shed it, so a sharded write admitted whole applies every part.
    #[test]
    fn a_pre_admitted_part_is_never_shed() {
        let bur = mem_bur();
        let c = Coalescer::with_config(bur.clone(), 0);
        let err = c.apply(inserts(0..3)).expect_err("shed");
        assert!(err.contains("overloaded"), "{err}");
        assert_eq!(bur.len(), 0, "a shed submission has no effect");
        let pending = c
            .submit(inserts(0..3).into_iter().collect(), None)
            .expect("queued");
        assert_eq!(c.queued_ops(), 3, "queued until its ack is waited for");
        let ack = pending.wait().expect("applied");
        assert_eq!(c.queued_ops(), 0);
        assert_eq!(ack.applied, 3);
        assert_eq!(bur.len(), 3);
        let stats = c.stats();
        assert_eq!(stats.shed_writes, 1);
        assert_eq!(stats.submissions, 1);
    }

    /// At its bound the table evicts the least recently touched
    /// completed session (a replay touches it), and never one in flight.
    #[test]
    fn a_full_dedup_table_evicts_the_least_recently_touched_completed_session() {
        let table = DedupTable::new(2);
        // Whether the attempt ran, and whether the answer was a replay.
        let run = |session: u128| {
            let mut ran = false;
            let (result, replayed) = table.run_once(session, 1, None, || {
                ran = true;
                Ok(WriteAck {
                    lsn: 1,
                    applied: 1,
                    merged: 1,
                })
            });
            assert_eq!(result.expect("acked").applied, 1);
            (ran, replayed)
        };
        assert_eq!(run(1), (true, false));
        assert_eq!(run(2), (true, false));
        assert_eq!(run(1), (false, true), "a retry replays and touches 1");
        assert_eq!(
            run(3),
            (true, false),
            "evicts 2, the least recently touched"
        );
        assert_eq!(table.sessions(), 2);
        assert_eq!(run(1), (false, true), "1 was kept");
        assert_eq!(
            run(2),
            (true, false),
            "2 was forgotten: its retry runs again"
        );
        assert_eq!(run(1), (false, true), "and evicted 3, not 1");

        // In flight: admitted, not finished. Each evicts a completed
        // session while one is left; then the table grows past its bound.
        for session in [4, 5, 6] {
            assert!(matches!(table.begin(session, 1, None), Admission::Fresh));
        }
        assert_eq!(table.sessions(), 3, "no in-flight session was evicted");
        for session in [4, 5, 6] {
            let duplicate = table.begin(session, 1, Some(Instant::now()));
            assert!(
                matches!(duplicate, Admission::WaitExpired),
                "{session} is still in flight"
            );
        }
        table.finish(4, 1, Err("rejected".into()));
        let (result, replayed) = table.run_once(4, 1, None, || unreachable!("4 finished"));
        assert_eq!(
            (result, replayed),
            (Err(ApplyError::Rejected("rejected".into())), true)
        );
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
