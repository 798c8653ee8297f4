//! End-to-end tests of the `burctl` binary: build a real index file,
//! then drive every subcommand through the CLI surface exactly as a user
//! would.

mod common;

use common::TempDir;
use std::process::{Command, Output};

fn burctl(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_burctl"))
        .args(args)
        .output()
        .expect("burctl spawns")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn full_cli_workflow() {
    let dir = TempDir::new("ctl");
    let file = dir.file("workflow.bur");
    let path = file.to_str().unwrap();

    // build
    let out = burctl(&["build", path, "--objects", "2000", "--strategy", "gbu"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout(&out).contains("2000 objects"));

    // info
    let out = burctl(&["info", path]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("objects       : 2000"), "{text}");
    assert!(text.contains("summary"), "{text}");

    // validate
    let out = burctl(&["validate", path]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("all invariants hold"));

    // query
    let out = burctl(&["query", path, "0.0", "0.0", "1.0", "1.0"]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("2000 objects in"));

    // knn
    let out = burctl(&["knn", path, "0.5", "0.5", "3"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("3 nearest neighbors"), "{text}");
    assert_eq!(text.matches("oid").count(), 3, "{text}");

    // stats (round-trip updates leave the file unchanged)
    let out = burctl(&["stats", path, "--updates", "50"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout(&out).contains("I/O per update"));
    let out = burctl(&["validate", path]);
    assert!(out.status.success());
}

#[test]
fn build_with_td_strategy() {
    let dir = TempDir::new("ctl");
    let file = dir.file("td.bur");
    let path = file.to_str().unwrap();
    let out = burctl(&["build", path, "--objects", "500", "--strategy", "td"]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("strategy TD"));
    // A TD-built file opens fine under the GBU-opening commands (the
    // summary and hash index are rebuilt on open).
    let out = burctl(&["validate", path]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// `build` over an existing index refuses and leaves the file pair as it
/// was.
#[test]
fn second_build_on_the_same_path_is_refused() {
    let dir = TempDir::new("ctl");
    let file = dir.file("taken.bur");
    let path = file.to_str().unwrap();
    assert!(burctl(&["build", path, "--objects", "500", "--durable"])
        .status
        .success());
    let sidecar = dir.file("taken.bur.wal");
    let before = (
        std::fs::read(&file).unwrap(),
        std::fs::read(&sidecar).unwrap(),
    );
    let out = burctl(&["build", path, "--objects", "10", "--durable"]);
    assert!(!out.status.success(), "a second build clobbered {path}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("already exists"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let after = (
        std::fs::read(&file).unwrap(),
        std::fs::read(&sidecar).unwrap(),
    );
    assert!(before == after, "the refused build changed the file pair");
    assert!(stdout(&burctl(&["validate", path])).contains("ok: 500 objects"));
}

#[test]
fn durable_build_recover_and_wal_stats() {
    let dir = TempDir::new("ctl");
    let file = dir.file("durable.bur");
    let path = file.to_str().unwrap();

    // build --durable
    let out = burctl(&["build", path, "--objects", "400", "--durable"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout(&out).contains("400 objects"));

    // wal-stats: a clean log with exactly the shutdown checkpoint.
    let out = burctl(&["wal-stats", path]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout(&out);
    assert!(text.contains("checkpoints)"), "{text}");
    assert!(text.contains("tail          : clean"), "{text}");
    // The log it read is the sidecar of the file pair.
    let sidecar = dir.file("durable.bur.wal");
    assert!(sidecar.exists());
    assert!(text.contains("durable.bur.wal"), "{text}");

    // recover: a no-op replay that still validates and checkpoints.
    let out = burctl(&["recover", path]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout(&out);
    assert!(text.contains("recovered"), "{text}");
    assert!(text.contains("400 objects"), "{text}");
    assert!(text.contains("all invariants hold"), "{text}");

    // The recovered file still answers queries through the normal path.
    let out = burctl(&["query", path, "0.0", "0.0", "1.0", "1.0"]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("400 objects in"));

    // wal-stats on a non-durable file fails with a helpful message.
    let plain = dir.file("plain.bur");
    let plain_path = plain.to_str().unwrap();
    assert!(burctl(&["build", plain_path, "--objects", "100"])
        .status
        .success());
    let out = burctl(&["wal-stats", plain_path]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("no write-ahead log"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = burctl(&["recover", plain_path]);
    assert!(!out.status.success());

    // Without its sidecar a durable file is refused, not opened as of its
    // last checkpoint.
    std::fs::remove_file(&sidecar).unwrap();
    for cmd in ["wal-stats", "recover", "validate"] {
        let out = burctl(&[cmd, path]);
        assert!(!out.status.success(), "{cmd} opened half a file pair");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("write-ahead log missing"),
            "{cmd}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn batch_subcommand_applies_mixed_ops() {
    let dir = TempDir::new("ctl");
    let file = dir.file("batch.bur");
    let path = file.to_str().unwrap();

    // A durable file, so the one-group-commit-record claim is checkable.
    let out = burctl(&["build", path, "--objects", "300", "--durable"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Mixed ops: two inserts (fresh ids), one update between them, one
    // delete of a fresh insert, one miss; comments and blanks skipped.
    let ops = dir.file("ops.csv");
    std::fs::write(
        &ops,
        "# crash-drill batch\n\
         insert,9001,0.15,0.15\n\
         \n\
         i,9002,0.85,0.85\n\
         u,9001,0.15,0.15,0.25,0.25\n\
         delete,9002,0.85,0.85\n\
         d,9003,0.5,0.5\n",
    )
    .unwrap();
    let out = burctl(&["batch", path, ops.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout(&out);
    assert!(text.contains("applied 5 operations atomically"), "{text}");
    assert!(
        text.contains("2 inserted, 1 updated, 1 deleted (1 deletes missed)"),
        "{text}"
    );
    assert!(
        text.contains("1 group commit record(s) cover the batch"),
        "{text}"
    );
    assert!(text.contains("301 objects"), "{text}");

    // The moved object answers at its new position.
    let out = burctl(&["query", path, "0.24", "0.24", "0.26", "0.26"]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("9001"), "{}", stdout(&out));

    // Parse errors are positional and fatal.
    let bad = dir.file("bad.csv");
    std::fs::write(&bad, "insert,1,0.5\n").unwrap();
    let out = burctl(&["batch", path, bad.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("line 1"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn replicate_and_promote_subcommands() {
    let dir = TempDir::new("ctl");
    let primary = dir.file("primary.bur");
    let replica = dir.file("replica.bur");
    let (ppath, rpath) = (primary.to_str().unwrap(), replica.to_str().unwrap());

    // Replication requires a durable primary.
    let out = burctl(&["build", ppath, "--objects", "500", "--durable"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Ship the log into a warm-standby clone file.
    let out = burctl(&["replicate", ppath, rpath]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout(&out);
    assert!(text.contains("shipped"), "{text}");
    assert!(text.contains("warm-standby clone"), "{text}");
    assert!(text.contains("500 objects"), "{text}");
    assert!(
        dir.file("replica.bur.wal").exists(),
        "the clone of a file pair is a file pair"
    );

    // The clone answers queries exactly like the primary.
    let window = ["query", rpath, "0.0", "0.0", "0.5", "0.5"];
    let a = stdout(&burctl(&window));
    let mut pwindow = window;
    pwindow[1] = ppath;
    let b = stdout(&burctl(&pwindow));
    assert_eq!(
        a.lines().skip(1).collect::<Vec<_>>(),
        b.lines().skip(1).collect::<Vec<_>>(),
        "replica answers must equal the primary's"
    );

    // Fail over: recover the standby into a verified primary.
    let out = burctl(&["recover", rpath]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout(&out);
    assert!(text.contains("recovered"), "{text}");
    assert!(text.contains("checkpointed; all invariants hold"), "{text}");
    assert!(stdout(&burctl(&["validate", rpath])).contains("all invariants hold"));

    // Replicating a non-durable file fails cleanly.
    let cold = dir.file("cold.bur");
    let cpath = cold.to_str().unwrap();
    assert!(burctl(&["build", cpath, "--objects", "50"])
        .status
        .success());
    let out = burctl(&["replicate", cpath, dir.file("x.bur").to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("write-ahead log"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn helpful_errors() {
    // No args → usage on stderr, failure exit.
    let out = burctl(&[]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));

    // Unknown subcommand.
    let out = burctl(&["frobnicate", "/tmp/x"]);
    assert!(!out.status.success());

    // Missing file.
    let out = burctl(&["info", "/nonexistent/nope.bur"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot open"));

    // Bad window.
    let dir = TempDir::new("ctl");
    let file = dir.file("err.bur");
    let path = file.to_str().unwrap();
    assert!(burctl(&["build", path, "--objects", "100"])
        .status
        .success());
    let out = burctl(&["query", path, "0.9", "0.0", "0.1", "1.0"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("invalid window"));
    // Bad flag value.
    let out = burctl(&["build", path, "--strategy", "quantum"]);
    assert!(!out.status.success());
}

#[test]
fn serve_ping_and_remote_query() {
    use bur::client::BurClient;
    use bur::core::Batch;
    use bur::geom::Point;
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;

    let dir = TempDir::new("ctl-serve");
    let data = dir.file("data");

    // `burd` with port 0: the banner is the only way to learn the
    // bound address.
    let mut server = Command::new(env!("CARGO_BIN_EXE_burd"))
        .args([data.to_str().unwrap(), "--addr", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("burd spawns");
    let mut banner = String::new();
    BufReader::new(server.stdout.take().expect("piped stdout"))
        .read_line(&mut banner)
        .expect("banner");
    let addr = banner
        .trim()
        .strip_prefix("burd listening on ")
        .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
        .to_string();

    // ping
    let out = burctl(&["ping", "--addr", &addr]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout(&out).contains("pong from"), "{}", stdout(&out));

    // Populate an index over the wire, then remote-query it.
    let mut client = BurClient::connect(&addr).expect("client connects");
    client.create_index("fleet", "gbu", true).expect("create");
    let mut batch = Batch::new();
    for oid in 0..40u64 {
        batch.insert(oid, Point::new(oid as f32 / 40.0, 0.5));
    }
    client.apply("fleet", &batch).expect("apply");

    let out = burctl(&[
        "remote-query",
        "--addr",
        &addr,
        "fleet",
        "0.0",
        "0.0",
        "0.5",
        "1.0",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout(&out);
    assert!(text.contains("21 objects in"), "{text}");

    // remote-query against a missing index fails with the server's
    // diagnosis on stderr.
    let out = burctl(&["remote-query", "--addr", &addr, "nope", "0", "0", "1", "1"]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("not found"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Graceful stop; the server process exits on its own.
    client.shutdown_server().expect("shutdown");
    let status = server.wait().expect("burd exits");
    assert!(status.success());
}

#[test]
fn networked_commands_report_usage_errors() {
    // --addr is mandatory for the networked commands.
    let out = burctl(&["ping"]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--addr"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // A dead address fails after retries, not with a hang or a panic.
    let out = burctl(&[
        "remote-query",
        "--addr",
        "127.0.0.1:1",
        "x",
        "0",
        "0",
        "1",
        "1",
    ]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("connect"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The help text documents the networked pair, the server binary
    // they talk to and the chaos proxy.
    let out = burctl(&["--help"]);
    let help = String::from_utf8_lossy(&out.stderr).into_owned();
    for needle in [
        "burd <data-dir>",
        "ping --addr",
        "remote-query --addr",
        "chaos <listen> <upstream>",
        "--plan",
        "seed=42",
    ] {
        assert!(help.contains(needle), "help is missing {needle:?}");
    }

    // chaos argument errors: missing operands and a bad plan spec.
    let out = burctl(&["chaos", "127.0.0.1:0"]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("<listen> <upstream>"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = burctl(&["chaos", "127.0.0.1:0", "127.0.0.1:1", "--plan", "drop=2.0"]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--plan"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Spawn `burctl chaos` in front of a real in-process server and drive
/// traffic through it: a pass-through plan forwards pings verbatim, a
/// drop-everything plan kills every attempt.
#[test]
fn chaos_subcommand_proxies_and_injects() {
    use bur::client::{BurClient, ClientConfig, RetryPolicy};
    use bur::serve::{start, ServerConfig};
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;
    use std::time::Duration;

    let dir = TempDir::new("ctl-chaos");
    let handle = start(ServerConfig::new(dir.file("data"))).expect("server starts");
    let upstream = handle.addr().to_string();

    let spawn_proxy = |plan: &str| {
        let mut proxy = Command::new(env!("CARGO_BIN_EXE_burctl"))
            .args(["chaos", "127.0.0.1:0", &upstream, "--plan", plan])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("burctl chaos spawns");
        let mut banner = String::new();
        BufReader::new(proxy.stdout.take().expect("piped stdout"))
            .read_line(&mut banner)
            .expect("banner");
        let addr = banner
            .trim()
            .strip_prefix("chaos proxy listening on ")
            .and_then(|rest| rest.split(" -> ").next())
            .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
            .to_string();
        (proxy, addr)
    };
    let config = ClientConfig {
        op_timeout: Some(Duration::from_millis(500)),
        retry: RetryPolicy::none(),
    };

    // Pass-through plan: pings round-trip through the proxy.
    let (mut proxy, addr) = spawn_proxy("seed=1");
    let mut c = BurClient::connect_with(&addr, &config).expect("connect via proxy");
    c.ping().expect("ping through pass-through proxy");
    proxy.kill().expect("kill proxy");
    proxy.wait().expect("reap proxy");

    // Drop-everything plan: the first frame kills the connection.
    let (mut proxy, addr) = spawn_proxy("seed=1,drop=1.0");
    let mut c = BurClient::connect_with(&addr, &config).expect("connect via proxy");
    assert!(c.ping().is_err(), "drop=1.0 must fail every request");
    proxy.kill().expect("kill proxy");
    proxy.wait().expect("reap proxy");

    handle.shutdown();
}
