//! A sharded index's routing manifest (`<name>.shardmap`) is a text file
//! anyone can edit. A hostile one must fail the open with a typed error,
//! or open an index that answers queries correctly: it may never panic
//! the open or a later write, nor make a window query miss an object.

mod common;

use bur::core::{Batch, IndexBuilder};
use bur::geom::{Point, Rect};
use bur::shard::{ShardError, ShardedBur};
use common::TempDir;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A valid manifest of two shards, split at half the order-16 key space,
/// with a migration between them interrupted before its flip.
const VALID: &str = "burshard v1\norder 16\nbudget 16\nshards 2\nepoch 3\nslack 0.001 0.002\n\
                     seg 0 0\nseg 2147483648 1\nmigration intent 100 200 0 1\n";

/// Opens two volatile shards under the manifest `text`, inserts an object
/// and queries the whole space: `Ok(true)` when the query finds it.
fn open_and_find(text: &str) -> Result<bool, ShardError> {
    let dir = TempDir::new("shardmap");
    let path = dir.file("idx.shardmap");
    std::fs::write(&path, text).unwrap();
    let shards = (0..2)
        .map(|_| IndexBuilder::generalized().build().unwrap())
        .collect();
    let index = ShardedBur::with_manifest(shards, path)?;
    let mut batch = Batch::new();
    batch.insert(7, Point::new(0.3, 0.6));
    index.apply(&batch)?.wait()?;
    let found = index
        .query(&Rect::new(0.0, 0.0, 1.0, 1.0))?
        .any(|oid| oid == 7);
    Ok(found)
}

#[test]
fn out_of_range_fields_fail_the_open_as_malformed() {
    let base = VALID.replace("migration intent 100 200 0 1\n", "");
    for (line, hostile) in [
        ("seg 0 0", "seg 0 7"),
        ("seg 0 0", "seg 0 0\nmigration intent 0 10 0 9"),
        ("seg 0 0", "seg 0 0\nmigration commit 0 10 9 0"),
        ("seg 0 0", "seg 0 0\nmigration intent 10 10 0 1"),
        ("seg 0 0", "seg 0 0\nmigration intent 0 4294967297 0 1"),
        ("order 16", "order 32"),
        ("order 16", "order 40"),
        ("order 16", "order 64"),
        ("slack 0.001 0.002", "slack NaN inf"),
        ("slack 0.001 0.002", "slack -1 0"),
    ] {
        let text = base.replace(line, hostile);
        match open_and_find(&text) {
            Err(ShardError::Manifest(msg)) if msg.starts_with("malformed manifest: ") => {}
            other => panic!("{hostile:?}: {other:?}, not a malformed manifest"),
        }
    }
}

#[test]
fn a_mutated_manifest_fails_typed_or_finds_its_objects() {
    let lines: Vec<&str> = VALID.lines().collect();
    let values = [
        "0",
        "1",
        "31",
        "32",
        "64",
        "4294967295",
        "18446744073709551615",
        "-1",
        "NaN",
        "inf",
    ];
    let mut cases = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let edit = |new: &[String]| {
            let mut out: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
            out.splice(i..=i, new.iter().cloned());
            out.join("\n") + "\n"
        };
        let tokens: Vec<&str> = line.split(' ').collect();
        for (t, token) in tokens.iter().enumerate() {
            if token.parse::<f64>().is_err() {
                continue;
            }
            for value in values {
                let mut new = tokens.clone();
                new[t] = value;
                cases.push(edit(&[new.join(" ")]));
            }
        }
        cases.push(edit(&[]));
        cases.push(edit(&[line.to_string(), line.to_string()]));
    }
    assert!(cases.len() > 150, "{} cases", cases.len());
    for text in cases {
        match catch_unwind(AssertUnwindSafe(|| open_and_find(&text))) {
            Ok(Ok(found)) => assert!(found, "the window query missed the object under:\n{text}"),
            Ok(Err(_)) => {}
            Err(_) => panic!("panicked under:\n{text}"),
        }
    }
}
