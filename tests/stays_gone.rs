//! What earlier changes deleted stays deleted: `ci/stays-gone.sh` reads
//! the rows of `ci/stays-gone.tsv`. These tests run the reader on this
//! tree, and on scratch trees where a row's witness is planted at one of
//! its paths, so a row that could no longer fire fails here.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::{fs, process::Command};

const ROOT: &str = env!("CARGO_MANIFEST_DIR");

/// Runs the reader on a scratch tree holding only `files` (on this tree
/// when there are none): whether it failed naming `what`, and its output.
fn names(what: &str, files: &[(&str, &str)]) -> (bool, String) {
    static TREES: AtomicUsize = AtomicUsize::new(0);
    let n = TREES.fetch_add(1, Ordering::Relaxed);
    let scratch = std::env::temp_dir().join(format!("stays-gone-{}-{n}", std::process::id()));
    for (path, text) in files {
        fs::create_dir_all(scratch.join(path).parent().unwrap()).unwrap();
        fs::write(scratch.join(path), text).unwrap();
    }
    let tree = if files.is_empty() {
        Path::new(ROOT)
    } else {
        &scratch
    };
    let script = Path::new(ROOT).join("ci/stays-gone.sh");
    let out = Command::new("bash").arg(script).arg(tree).output().unwrap();
    let _ = fs::remove_dir_all(&scratch);
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    (!out.status.success() && text.contains(what), text)
}

#[test]
fn this_tree_keeps_every_deletion() {
    let (failed, out) = names("", &[]);
    assert!(!failed, "the stays-gone reader failed:\n{out}");
}

#[test]
fn every_row_fires_on_its_witness() {
    let table = fs::read_to_string(Path::new(ROOT).join("ci/stays-gone.tsv")).unwrap();
    for (i, line) in table
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.starts_with('#'))
    {
        let cols: Vec<&str> = line.split('\t').collect();
        let [name, _, _, paths, _, limit, witness, _] = cols[..] else {
            panic!("row {} has {} columns, not 8", i + 1, cols.len());
        };
        let tag = format!("ci/stays-gone.tsv:{}: {name}", i + 1);
        // The row's first path, a glob's `*` named, a directory's file added.
        let first = paths.split(' ').next().unwrap().replace("**/", "");
        let mut file = first.replace('*', "planted");
        if !file.rsplit('/').next().unwrap().contains('.') {
            file += "/planted.rs";
        }
        let (count, inside) = limit
            .split_once(" in ")
            .map_or((limit, None), |(c, w)| (c, Some(w)));
        let allowed: usize = count.trim_start_matches(['<', '=']).parse().unwrap_or(0);
        let copies = |n: usize| format!("{witness}\n").repeat(n);

        let (fired, out) = names(&tag, &[(&file, &copies(allowed + 1))]);
        assert!(fired, "{tag}: {} witnesses pass:\n{out}", allowed + 1);
        if count.starts_with('=') {
            // Exactly the allowed count passes, inside the fn it names.
            let (at, header) = inside
                .and_then(|w| w.split_once(':'))
                .unwrap_or((&file, ""));
            let text = match header {
                "" => copies(allowed),
                _ => format!("    {header}) {{\n{}    }}\n", copies(allowed)),
            };
            let (fired, out) = names(&tag, &[(at, &text)]);
            assert!(!fired, "{tag}: {allowed} witnesses fail:\n{out}");
            let (fired, out) = names(&tag, &[(at, &copies(allowed))]);
            assert_eq!(fired, inside.is_some(), "{tag}: outside the fn:\n{out}");
        }
    }
}

#[test]
fn the_checks_no_row_expresses_fire() {
    let write = "    fn write(&self) -> Guard<'_> {\n        let index = self.inner.write();\n";
    let bump = "        self.epoch.fetch_add(1, Ordering::Relaxed);\n";
    let (bumped, unbumped) = (format!("{write}{bump}    }}\n"), format!("{write}    }}\n"));
    let track = "struct Inner {\n    tracks: HashMap<PageId, Track>,\n}\nstruct Track {\n";
    let (lsns, copies) = (
        format!("{track}    lsn: Lsn,\n}}\n"),
        format!("{track}    b: Vec<u8>,\n}}\n"),
    );
    for (file, good, bad, name) in [
        (
            "crates/core/src/handle.rs",
            bumped,
            unbumped,
            "Every write side bumps the epoch",
        ),
        (
            "crates/wal/src/log.rs",
            lsns,
            copies,
            "The log keeps no page copies",
        ),
    ] {
        assert!(!names(name, &[(file, &good)]).0, "{name} fires on\n{good}");
        assert!(names(name, &[(file, &bad)]).0, "{name} passes\n{bad}");
    }
}

#[test]
fn a_checked_by_mark_names_a_test() {
    let tests = "fn a_helper() {}\n\n#[test]\n#[ignore]\nfn a_helper_run_twice() {}\n";
    for (mark, passes) in [
        ("a_helper_run_twice", true),
        ("a_helper*", true),
        ("a_helper", false),
    ] {
        let doc = format!("A rule (checked by:\n`{mark}`).\n");
        let files = [("tests/t.rs", tests), ("docs/ARCHITECTURE.md", &doc)];
        assert_eq!(names("docs/ARCHITECTURE.md", &files).0, !passes, "{mark}");
    }
}
