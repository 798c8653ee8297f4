//! `bur-client` — blocking client for the `burd` server.
//!
//! The surface mirrors the in-process [`bur_core::Bur`] handle:
//! batch-first writes ([`BurClient::apply`] returns a [`RemoteAck`]
//! once the server's durable-LSN watermark covers the batch — the
//! network analogue of `CommitTicket::wait`), streaming query
//! iterators ([`BurClient::query`] / [`BurClient::nearest`]), and
//! index lifecycle calls mapping one-to-one onto server opcodes.
//!
//! The client is built for unreliable networks:
//!
//! - **One retry policy.** [`ClientConfig::retry`] bounds every call
//!   by one attempt count and one elapsed budget, and each attempt
//!   starts by dialing when no connection is held: one pass over the
//!   resolved addresses. The first dial, in [`BurClient::connect_with`],
//!   runs under the same policy. A failed dial sent nothing, so every
//!   call may dial again, `create`, `close`, `shutdown` and the
//!   streaming queries included.
//! - **Idempotent resends.** Only a call that is safe to send twice is
//!   re-sent after its request went out. Every connection carries a
//!   random client-session id, and every [`BurClient::apply`] is
//!   stamped with a monotonic sequence number. The server deduplicates
//!   on `(session, seq)`, so when an ack is lost in transit the client
//!   reconnects and resends the *same* batch under the *same* sequence
//!   number — and gets the original ack back instead of applying
//!   twice. Read-only and idempotent calls (`ping`, `open`, `list`,
//!   `len`, `stats`, `metrics`) resend the same way; non-idempotent
//!   lifecycle calls (`create`, `close`, `shutdown`) and streaming
//!   queries surface a failure after sending for the caller to decide.
//! - **Deadlines.** [`ClientConfig::op_timeout`] bounds every
//!   operation: the budget rides in the frame header so the server can
//!   shed the request if it expires queued, and the client arms socket
//!   read timeouts from the same budget so a black-holed server cannot
//!   hang the calling thread.
//! - **Connection poisoning.** After any transport or framing failure
//!   the stream may be mid-frame, so the client drops it; the next
//!   attempt reconnects transparently ([`BurClient::reconnects`]
//!   counts these).
//!
//! ```no_run
//! use bur_client::BurClient;
//! use bur_core::Batch;
//! use bur_geom::{Point, Rect};
//!
//! let mut client = BurClient::connect("127.0.0.1:4000")?;
//! client.create_index("fleet", "gbu", true)?;
//! let mut batch = Batch::new();
//! batch.insert(1, Point::new(0.2, 0.7));
//! let ack = client.apply("fleet", &batch)?; // durable once this returns
//! assert!(ack.lsn > 0);
//! let hits: Vec<u64> = client
//!     .query("fleet", &Rect::new(0.0, 0.0, 1.0, 1.0))?
//!     .collect::<Result<_, _>>()?;
//! # Ok::<(), bur_client::ClientError>(())
//! ```

use bur_core::{Batch, Neighbor};
use bur_geom::{Point, Rect};
use bur_serve::protocol::{Request, Response, StrategyKind, WireNeighbor};
use bur_serve::wire::{self, FrameError, WireError};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// How long one dial waits for one address to accept.
const DIAL_TIMEOUT: Duration = Duration::from_millis(500);

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, read, write, or a read that timed
    /// out against the operation deadline).
    Io(io::Error),
    /// The server sent bytes violating the wire protocol.
    Wire(WireError),
    /// The server answered with an error response; the message is the
    /// server's verbatim diagnosis.
    Server(String),
    /// The server answered with a well-formed but unexpected response
    /// (wrong opcode for the request, wrong request id).
    Protocol(String),
    /// The server shed the request under load; nothing was applied.
    /// Safe to retry after backing off.
    Overloaded(String),
    /// The operation's deadline expired before the server served it;
    /// the server guarantees no side effects for expired writes.
    DeadlineExceeded(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o: {e}"),
            ClientError::Wire(e) => write!(f, "wire: {e}"),
            ClientError::Server(msg) => write!(f, "server: {msg}"),
            ClientError::Protocol(msg) => write!(f, "protocol: {msg}"),
            ClientError::Overloaded(msg) => write!(f, "overloaded: {msg}"),
            ClientError::DeadlineExceeded(msg) => write!(f, "deadline exceeded: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            ClientError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(e) => ClientError::Io(e),
            FrameError::Wire(e) => ClientError::Wire(e),
        }
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

impl ClientError {
    /// Whether retrying the operation can help: transport and framing
    /// failures (the outcome is unknown — dedup makes the resend
    /// safe), shed requests, and expired deadlines. Server rejections
    /// and protocol violations are deterministic; retrying repeats
    /// them.
    #[must_use]
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            ClientError::Io(_)
                | ClientError::Wire(_)
                | ClientError::Overloaded(_)
                | ClientError::DeadlineExceeded(_)
        )
    }

    /// Whether this failure poisons the connection (the stream may be
    /// mid-frame, so it must be dropped before the next request).
    fn poisons(&self) -> bool {
        matches!(
            self,
            ClientError::Io(_) | ClientError::Wire(_) | ClientError::Protocol(_)
        )
    }
}

/// Result alias for client operations.
pub type ClientResult<T> = Result<T, ClientError>;

/// The client's one retry policy: how many times a call is attempted,
/// dialing first whenever no connection is held, before its error is
/// surfaced. A failed dial is always attempted again; a failure after
/// the request was sent only for calls that are safe to resend.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts per operation, including the first. `1` disables
    /// retries.
    pub max_attempts: u32,
    /// Delay before the first retry; doubles per attempt.
    pub initial_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Wall-clock budget across all attempts of one call, dials
    /// included; no backoff sleeps past it, so a call returns within
    /// this plus one attempt.
    pub max_elapsed: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 8,
            initial_backoff: Duration::from_millis(20),
            max_backoff: Duration::from_secs(1),
            max_elapsed: Duration::from_secs(20),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries — every failure surfaces
    /// immediately.
    #[must_use]
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }
}

/// Reliability knobs for [`BurClient::connect_with`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Per-operation deadline. Sent to the server in the frame header
    /// (so expired requests are shed, not served) and armed on the
    /// socket (so a silent server cannot hang the caller). `None`
    /// waits forever.
    pub op_timeout: Option<Duration>,
    /// The retry policy of every dial and every resend.
    pub retry: RetryPolicy,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            op_timeout: Some(Duration::from_secs(30)),
            retry: RetryPolicy::default(),
        }
    }
}

/// Durable acknowledgement for one [`BurClient::apply`] — the network
/// analogue of waiting on a `CommitTicket`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemoteAck {
    /// LSN of the WAL group-commit record covering the batch (0 on a
    /// non-durable index).
    pub lsn: u64,
    /// Operations applied for this client.
    pub applied: u64,
    /// Client submissions the server merged into the same group commit
    /// (including this one); values above 1 mean coalescing happened.
    pub merged: u64,
}

/// A blocking connection to one `burd` server.
#[derive(Debug)]
pub struct BurClient {
    addrs: Vec<SocketAddr>,
    config: ClientConfig,
    /// `None` after a transport/framing failure: the stream may be
    /// mid-frame and must not carry another request. The next
    /// retryable operation reconnects.
    stream: Option<TcpStream>,
    next_id: u64,
    session: u128,
    next_seq: u64,
    retries: u64,
    reconnects: u64,
}

impl BurClient {
    /// Connect with default retry/backoff ([`ClientConfig::default`]).
    pub fn connect(addr: impl ToSocketAddrs) -> ClientResult<Self> {
        Self::connect_with(addr, &ClientConfig::default())
    }

    /// Connect, dialing again with exponential backoff on refusal (a
    /// server mid-restart is briefly unreachable) under
    /// [`ClientConfig::retry`], as every later call does. The first
    /// connect counts as neither a retry nor a reconnect.
    pub fn connect_with(addr: impl ToSocketAddrs, config: &ClientConfig) -> ClientResult<Self> {
        let mut client = BurClient {
            addrs: addr.to_socket_addrs()?.collect(),
            config: config.clone(),
            stream: None,
            next_id: 1,
            session: fresh_session(),
            next_seq: 1,
            retries: 0,
            reconnects: 0,
        };
        client.call(false, |_| Ok(()))?;
        client.retries = 0;
        client.reconnects = 0;
        Ok(client)
    }

    /// This connection's dedup session id (stamped on every apply).
    #[must_use]
    pub fn session(&self) -> u128 {
        self.session
    }

    /// In-flight operation retries performed so far.
    #[must_use]
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Reconnects performed after poisoned connections.
    #[must_use]
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Whether the client currently holds a (believed) usable
    /// connection. `false` after a failure poisoned it.
    #[must_use]
    pub fn is_connected(&self) -> bool {
        self.stream.is_some()
    }

    /// Run `op` under the retry policy. Each attempt first dials when
    /// no connection is held (a poisoned one was dropped); a failed
    /// dial sent nothing, so it is attempted again whatever the call.
    /// A failure after that is attempted again only when `resend` says
    /// the call is safe to send twice (reads, idempotent lifecycle
    /// calls, and deduplicated applies). Backoff doubles, and both the
    /// attempt count and the elapsed budget bound the loop.
    fn call<T>(
        &mut self,
        resend: bool,
        mut op: impl FnMut(&mut Self) -> ClientResult<T>,
    ) -> ClientResult<T> {
        let policy = self.config.retry;
        let started = Instant::now();
        let mut backoff = policy.initial_backoff;
        let mut attempt = 0u32;
        loop {
            let (err, sent) = match self.dial() {
                Err(e) => (e, false),
                Ok(()) => match op(self) {
                    Ok(v) => return Ok(v),
                    Err(e) => (e, true),
                },
            };
            attempt += 1;
            if (sent && !resend)
                || !err.is_retryable()
                || attempt >= policy.max_attempts.max(1)
                || started.elapsed() + backoff >= policy.max_elapsed
            {
                return Err(err);
            }
            self.retries += 1;
            std::thread::sleep(backoff);
            backoff = (backoff * 2).min(policy.max_backoff);
        }
    }

    /// Dial when no connection is held: one pass over the resolved
    /// addresses, the first that accepts wins.
    fn dial(&mut self) -> ClientResult<()> {
        if self.stream.is_some() {
            return Ok(());
        }
        let mut last_err =
            io::Error::new(io::ErrorKind::AddrNotAvailable, "no address to connect to");
        for addr in &self.addrs {
            match TcpStream::connect_timeout(addr, DIAL_TIMEOUT) {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    stream.set_write_timeout(self.config.op_timeout)?;
                    self.stream = Some(stream);
                    self.reconnects += 1;
                    return Ok(());
                }
                Err(e) => last_err = e,
            }
        }
        Err(ClientError::Io(last_err))
    }

    fn poison_check<T>(&mut self, result: ClientResult<T>) -> ClientResult<T> {
        if matches!(&result, Err(e) if e.poisons()) {
            self.stream = None;
        }
        result
    }

    /// Send `req` under a deadline starting now; returns the request id
    /// and the deadline its reply is read under.
    fn send(&mut self, req: &Request) -> ClientResult<(u64, Option<Instant>)> {
        let deadline = self.config.op_timeout.map(|t| Instant::now() + t);
        let id = self.next_id;
        self.next_id += 1;
        let deadline_ms = deadline.map(|d| {
            let ms = d.saturating_duration_since(Instant::now()).as_millis();
            u32::try_from(ms).unwrap_or(u32::MAX).max(1)
        });
        let mut out = Vec::with_capacity(64);
        wire::write_frame_deadline(
            &mut out,
            id,
            req.opcode(),
            deadline_ms,
            &req.encode_payload(),
        );
        let result = match self.stream.as_mut() {
            Some(stream) => stream.write_all(&out).map_err(ClientError::Io),
            None => Err(not_connected()),
        };
        self.poison_check(result)?;
        Ok((id, deadline))
    }

    fn recv_deadline(&mut self, id: u64, deadline: Option<Instant>) -> ClientResult<Response> {
        let result = self.recv_inner(id, deadline);
        self.poison_check(result)
    }

    fn recv_inner(&mut self, id: u64, deadline: Option<Instant>) -> ClientResult<Response> {
        let stream = self.stream.as_mut().ok_or_else(not_connected)?;
        // Arm the socket timeout with the remaining budget so even the
        // wait for the first response byte is bounded; mid-frame reads
        // are then bounded by the same deadline inside
        // `read_frame_deadline`.
        match deadline {
            Some(d) => {
                let remaining = d.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    return Err(ClientError::Io(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "operation deadline exceeded before the reply arrived",
                    )));
                }
                stream.set_read_timeout(Some(remaining))?;
            }
            None => stream.set_read_timeout(None)?,
        }
        let frame = wire::read_frame_deadline(stream, deadline)?.ok_or_else(|| {
            ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ))
        })?;
        if frame.request_id != id {
            return Err(ClientError::Protocol(format!(
                "response for request {} while waiting on {}",
                frame.request_id, id
            )));
        }
        match Response::decode(frame.opcode, &frame.payload)? {
            Response::Overloaded { message } => Err(ClientError::Overloaded(message)),
            Response::Expired { message } => Err(ClientError::DeadlineExceeded(message)),
            resp => Ok(resp),
        }
    }

    /// One request, one response frame, one deadline.
    fn round_trip(&mut self, req: &Request) -> ClientResult<Response> {
        let (id, deadline) = self.send(req)?;
        self.recv_deadline(id, deadline)
    }

    fn expect_ok(&mut self, req: &Request) -> ClientResult<()> {
        match self.round_trip(req)? {
            Response::Ok => Ok(()),
            Response::Err { message } => Err(ClientError::Server(message)),
            other => Err(unexpected("Ok", &other)),
        }
    }

    /// A call that is not safe to send twice: dialed under the retry
    /// policy, sent once.
    fn expect_ok_once(&mut self, req: &Request) -> ClientResult<()> {
        self.call(false, |c| c.expect_ok(req))
    }

    /// Liveness probe (retried).
    pub fn ping(&mut self) -> ClientResult<()> {
        self.call(true, |c| match c.round_trip(&Request::Ping)? {
            Response::Pong => Ok(()),
            Response::Err { message } => Err(ClientError::Server(message)),
            other => Err(unexpected("Pong", &other)),
        })
    }

    /// Create a named index on the server. `strategy` is the CLI-style
    /// short name (`td` / `lbu` / `gbu`). Sent once: creation is not
    /// idempotent, so after a lost ack the caller must check
    /// [`BurClient::list_indexes`] rather than blindly resend.
    pub fn create_index(&mut self, name: &str, strategy: &str, durable: bool) -> ClientResult<()> {
        let strategy = StrategyKind::parse(strategy).ok_or_else(|| {
            ClientError::Protocol(format!("unknown strategy {strategy:?} (td, lbu, gbu)"))
        })?;
        self.expect_ok_once(&Request::Create {
            name: name.to_string(),
            strategy,
            durable,
        })
    }

    /// Create a named index sharded `shards` ways by Hilbert-key range:
    /// the server hosts every shard behind the one logical name (writes
    /// route by key, queries scatter-gather). Sent once like
    /// [`BurClient::create_index`].
    pub fn create_sharded_index(
        &mut self,
        name: &str,
        strategy: &str,
        durable: bool,
        shards: u32,
    ) -> ClientResult<()> {
        let strategy = StrategyKind::parse(strategy).ok_or_else(|| {
            ClientError::Protocol(format!("unknown strategy {strategy:?} (td, lbu, gbu)"))
        })?;
        self.expect_ok_once(&Request::CreateSharded {
            name: name.to_string(),
            strategy,
            durable,
            shards,
        })
    }

    /// Open a named index (idempotent, retried).
    pub fn open_index(&mut self, name: &str) -> ClientResult<()> {
        self.call(true, |c| {
            c.expect_ok(&Request::Open {
                name: name.to_string(),
            })
        })
    }

    /// Close a named index: the server drains its coalescer, flushes
    /// and checkpoints before acknowledging. Sent once (closing a
    /// closed index errors).
    pub fn close_index(&mut self, name: &str) -> ClientResult<()> {
        self.expect_ok_once(&Request::Close {
            name: name.to_string(),
        })
    }

    /// Indexes the server knows about, as `(name, open)` pairs
    /// (retried).
    pub fn list_indexes(&mut self) -> ClientResult<Vec<(String, bool)>> {
        self.call(true, |c| match c.round_trip(&Request::List)? {
            Response::Names { names } => Ok(names),
            Response::Err { message } => Err(ClientError::Server(message)),
            other => Err(unexpected("Names", &other)),
        })
    }

    /// Apply a batch. Blocks until the server acks it durable; the
    /// server is free to coalesce it with concurrent clients' batches
    /// into one WAL group commit ([`RemoteAck::merged`] reports how
    /// many shared the round).
    ///
    /// Retried safely: the batch is stamped with this client's session
    /// id and a sequence number allocated once per call, so a resend
    /// after a lost ack deduplicates server-side and returns the
    /// *original* ack — the batch is never applied twice.
    pub fn apply(&mut self, index: &str, batch: &Batch) -> ClientResult<RemoteAck> {
        let session = self.session;
        let seq = self.next_seq;
        self.next_seq += 1;
        let ops = batch.ops().to_vec();
        self.call(true, |c| {
            match c.round_trip(&Request::Apply {
                index: index.to_string(),
                session,
                seq,
                ops: ops.clone(),
            })? {
                Response::Ack {
                    lsn,
                    applied,
                    merged,
                } => Ok(RemoteAck {
                    lsn,
                    applied,
                    merged,
                }),
                Response::Err { message } => Err(ClientError::Server(message)),
                other => Err(unexpected("Ack", &other)),
            }
        })
    }

    /// Window query; results stream back in chunks, surfaced as a
    /// borrowing iterator (drop it early and it drains the stream to
    /// keep the connection usable). Sent once: a mid-stream failure
    /// poisons the connection and surfaces the error.
    pub fn query(&mut self, index: &str, window: &Rect) -> ClientResult<IdStream<'_>> {
        let req = Request::Query {
            index: index.to_string(),
            window: *window,
        };
        let (id, deadline) = self.call(false, |c| c.send(&req))?;
        Ok(IdStream {
            client: self,
            id,
            deadline,
            buf: Vec::new(),
            pos: 0,
            done: false,
        })
    }

    /// k-nearest-neighbor query, closest first, streamed like
    /// [`BurClient::query`].
    pub fn nearest(
        &mut self,
        index: &str,
        point: Point,
        k: usize,
    ) -> ClientResult<NeighborStream<'_>> {
        let req = Request::Knn {
            index: index.to_string(),
            point,
            k: k as u32,
        };
        let (id, deadline) = self.call(false, |c| c.send(&req))?;
        Ok(NeighborStream {
            client: self,
            id,
            deadline,
            buf: Vec::new(),
            pos: 0,
            done: false,
        })
    }

    /// Number of objects in the named index (retried).
    pub fn len(&mut self, index: &str) -> ClientResult<u64> {
        self.call(true, |c| {
            match c.round_trip(&Request::Len {
                index: index.to_string(),
            })? {
                Response::Count { value } => Ok(value),
                Response::Err { message } => Err(ClientError::Server(message)),
                other => Err(unexpected("Count", &other)),
            }
        })
    }

    /// Per-index gauge dump (plaintext `name{index="..."} value`
    /// lines; retried).
    pub fn stats(&mut self, index: &str) -> ClientResult<String> {
        self.call(true, |c| {
            c.text(&Request::Stats {
                index: index.to_string(),
            })
        })
    }

    /// Server-wide metrics dump (plaintext, retried).
    pub fn metrics(&mut self) -> ClientResult<String> {
        self.call(true, |c| c.text(&Request::Metrics))
    }

    fn text(&mut self, req: &Request) -> ClientResult<String> {
        match self.round_trip(req)? {
            Response::Text { text } => Ok(text),
            Response::Err { message } => Err(ClientError::Server(message)),
            other => Err(unexpected("Text", &other)),
        }
    }

    /// Ask the server to shut down gracefully (drain writes, flush,
    /// checkpoint). The acknowledgement arrives before the listener
    /// closes. Sent once.
    pub fn shutdown_server(&mut self) -> ClientResult<()> {
        self.expect_ok_once(&Request::Shutdown)
    }
}

fn not_connected() -> ClientError {
    ClientError::Io(io::Error::new(
        io::ErrorKind::NotConnected,
        "connection poisoned by an earlier failure",
    ))
}

/// A process-unique, collision-resistant session id for write dedup.
/// Mixed from the clock, the pid, and a process counter through
/// splitmix64 — random enough for uniqueness across client restarts
/// without pulling in an RNG dependency. Never zero (zero opts out of
/// dedup on the wire).
fn fresh_session() -> u128 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos())
        .unwrap_or(0);
    let count = COUNTER.fetch_add(1, Ordering::Relaxed);
    let pid = u64::from(std::process::id());
    let hi = splitmix64(nanos as u64 ^ pid.rotate_left(32));
    let lo = splitmix64((nanos >> 64) as u64 ^ count.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ pid);
    let session = (u128::from(hi) << 64) | u128::from(lo);
    session.max(1)
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn unexpected(wanted: &str, got: &Response) -> ClientError {
    ClientError::Protocol(format!("expected {wanted}, got {got:?}"))
}

macro_rules! chunk_stream {
    ($(#[$doc:meta])* $name:ident, $item:ty, $variant:ident, $field:ident, $map:expr) => {
        $(#[$doc])*
        #[derive(Debug)]
        pub struct $name<'a> {
            client: &'a mut BurClient,
            id: u64,
            deadline: Option<Instant>,
            buf: Vec<$item>,
            pos: usize,
            done: bool,
        }

        impl $name<'_> {
            fn refill(&mut self) -> ClientResult<()> {
                // Any receive failure ends the stream: there is either
                // no usable connection left (poisoned) or no further
                // frame owed (a shed/expired reply is final), so the
                // Drop drain must not wait for more.
                let received = match self.client.recv_deadline(self.id, self.deadline) {
                    Ok(resp) => resp,
                    Err(e) => {
                        self.done = true;
                        return Err(e);
                    }
                };
                match received {
                    Response::$variant { $field, last } => {
                        self.buf = $field.into_iter().map($map).collect();
                        self.pos = 0;
                        self.done = last;
                        Ok(())
                    }
                    Response::Err { message } => {
                        self.done = true;
                        Err(ClientError::Server(message))
                    }
                    other => {
                        self.done = true;
                        Err(unexpected(stringify!($variant), &other))
                    }
                }
            }

            /// Drain the remainder into a vector.
            pub fn collect_all(mut self) -> ClientResult<Vec<$item>> {
                let mut out = Vec::new();
                for item in &mut self {
                    out.push(item?);
                }
                Ok(out)
            }
        }

        impl Iterator for $name<'_> {
            type Item = ClientResult<$item>;

            fn next(&mut self) -> Option<Self::Item> {
                loop {
                    if self.pos < self.buf.len() {
                        let item = self.buf[self.pos];
                        self.pos += 1;
                        return Some(Ok(item));
                    }
                    if self.done {
                        return None;
                    }
                    if let Err(e) = self.refill() {
                        return Some(Err(e));
                    }
                }
            }
        }

        impl Drop for $name<'_> {
            /// Drain unread chunk frames so the connection stays framed
            /// for the next request (a refill failure has already
            /// poisoned it, so just stop).
            fn drop(&mut self) {
                while !self.done {
                    if self.refill().is_err() {
                        break;
                    }
                }
            }
        }
    };
}

chunk_stream!(
    /// Streaming window-query results (the network analogue of
    /// `QueryCursor`).
    IdStream,
    u64,
    IdChunk,
    ids,
    |id| id
);

chunk_stream!(
    /// Streaming kNN results, closest first (the network analogue of
    /// `NeighborCursor`).
    NeighborStream,
    Neighbor,
    NeighborChunk,
    neighbors,
    |n: WireNeighbor| Neighbor {
        oid: n.oid,
        distance: n.distance,
    }
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_ids_are_unique_and_nonzero() {
        let a = fresh_session();
        let b = fresh_session();
        assert_ne!(a, 0);
        assert_ne!(b, 0);
        assert_ne!(a, b, "counter mixing must separate same-instant calls");
    }

    #[test]
    fn retry_policy_none_is_single_attempt() {
        assert_eq!(RetryPolicy::none().max_attempts, 1);
    }

    /// A resend-safe call on a server that has stopped listening dials
    /// once per attempt of its one policy: with `RetryPolicy::none()`
    /// exactly once, and under a budget it returns within the budget
    /// plus one dial pass, however many attempts the policy allows.
    #[test]
    fn a_stopped_server_is_dialed_under_the_call_policy() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let budget = RetryPolicy {
            max_attempts: 1000,
            initial_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(50),
            max_elapsed: Duration::from_millis(600),
        };
        let connect = |retry| {
            BurClient::connect_with(
                addr,
                &ClientConfig {
                    retry,
                    ..ClientConfig::default()
                },
            )
            .expect("the listener accepts")
        };
        let mut once = connect(RetryPolicy::none());
        let mut budgeted = connect(budget);
        assert_eq!(
            (once.retries(), once.reconnects()),
            (0, 0),
            "the first connect counts as neither"
        );
        // The server closes both connections and stops listening.
        let accepted = (listener.accept().unwrap(), listener.accept().unwrap());
        drop((accepted, listener));
        let refused = |e: &ClientError| matches!(e, ClientError::Io(e) if e.kind() == io::ErrorKind::ConnectionRefused);

        once.ping().expect_err("the server closed the connection");
        assert!(!once.is_connected(), "the failure poisoned the connection");
        let started = Instant::now();
        let err = once.ping().expect_err("nothing listens");
        assert!(refused(&err), "{err}");
        assert_eq!(once.retries(), 0, "RetryPolicy::none() dials exactly once");
        assert!(started.elapsed() < DIAL_TIMEOUT, "{:?}", started.elapsed());

        let started = Instant::now();
        let err = budgeted.ping().expect_err("nothing listens");
        assert!(refused(&err), "{err}");
        assert!(budgeted.retries() >= 2, "the resend dialed again");
        assert_eq!(budgeted.reconnects(), 0, "no dial succeeded");
        assert!(
            started.elapsed() < budget.max_elapsed + DIAL_TIMEOUT,
            "the elapsed budget ends the dials, not 1000 attempts: {:?}",
            started.elapsed()
        );
    }
}
