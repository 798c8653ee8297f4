//! Network clients: a `burd` server and several `bur-client`
//! connections whose writes coalesce into shared WAL group commits.
//!
//! ```sh
//! cargo run --release --example network_clients
//! ```
//!
//! Starts an in-process `burd` on a loopback port (exactly what the
//! standalone `burd` binary runs), creates a durable
//! GBU index over the wire, then lets N client threads push insert
//! batches concurrently. Each `apply` blocks until the server's
//! durable-LSN watermark covers it — a hard durability ack, same
//! contract as an in-process `CommitTicket::wait` — yet the server cuts
//! far fewer WAL group-commit records than the clients sent batches,
//! because the write coalescer merges whatever queued while the
//! previous round was fsyncing. The example prints that ratio, then
//! demonstrates the streamed read path (window query + kNN) and a
//! graceful shutdown.

use bur::client::BurClient;
use bur::core::Batch;
use bur::geom::{Point, Rect};
use bur::serve::{start, ServerConfig};

const CLIENTS: u64 = 4;
const BATCHES: u64 = 40;
const PER_BATCH: u64 = 25;

fn pos(oid: u64) -> Point {
    let h = oid.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    Point::new(
        (h % 1000) as f32 / 1000.0,
        ((h >> 32) % 1000) as f32 / 1000.0,
    )
}

fn main() {
    let dir = std::env::temp_dir().join(format!("bur-network-clients-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // One `burd`, port picked by the OS.
    let handle = start(ServerConfig::new(&dir)).expect("server starts");
    println!("burd listening on {}", handle.addr());

    BurClient::connect(handle.addr())
        .expect("connect")
        .create_index("fleet", "gbu", true)
        .expect("create index");

    // N clients, each its own TCP connection and oid range.
    let workers: Vec<_> = (0..CLIENTS)
        .map(|t| {
            let addr = handle.addr();
            std::thread::spawn(move || {
                let mut client = BurClient::connect(addr).expect("connect");
                let mut max_merged = 0;
                for b in 0..BATCHES {
                    let base = t * 1_000_000 + b * PER_BATCH;
                    let mut batch = Batch::new();
                    for oid in base..base + PER_BATCH {
                        batch.insert(oid, pos(oid));
                    }
                    let ack = client.apply("fleet", &batch).expect("apply");
                    assert!(ack.lsn > 0, "durable ack carries the covering LSN");
                    max_merged = max_merged.max(ack.merged);
                }
                max_merged
            })
        })
        .collect();
    let max_merged = workers
        .into_iter()
        .map(|w| w.join().expect("worker"))
        .max()
        .unwrap_or(0);

    let stats = handle
        .registry()
        .get("fleet")
        .expect("entry")
        .as_plain()
        .expect("plain index")
        .coalescer
        .stats();
    println!(
        "{} client batches committed in {} WAL group-commit rounds \
         ({:.1} batches/round; busiest round merged {max_merged})",
        stats.submissions,
        stats.rounds,
        stats.ratio()
    );
    assert!(
        stats.rounds < stats.submissions,
        "concurrent clients should coalesce"
    );

    // The read path streams: window query and kNN over the wire.
    let mut client = BurClient::connect(handle.addr()).expect("connect");
    let hits: Vec<u64> = client
        .query("fleet", &Rect::new(0.25, 0.25, 0.75, 0.75))
        .expect("query")
        .collect::<Result<_, _>>()
        .expect("stream");
    println!(
        "window query: {} of {} objects in the center quarter",
        hits.len(),
        client.len("fleet").expect("len")
    );
    let nearest = client
        .nearest("fleet", Point::new(0.5, 0.5), 3)
        .expect("knn")
        .collect::<Result<Vec<_>, _>>()
        .expect("stream");
    for n in &nearest {
        println!("  neighbor oid {:>8} at distance {:.4}", n.oid, n.distance);
    }

    // Graceful stop: drain writes, flush the log, checkpoint.
    client.shutdown_server().expect("shutdown");
    handle.wait();
    println!("server drained and stopped");
    let _ = std::fs::remove_dir_all(&dir);
}
