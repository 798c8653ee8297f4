//! `perfbench` — the repository's one benchmark. Four update-centric
//! workloads; end-to-end numbers from an untraced run, per-layer numbers
//! from a separate traced run, everything measured from outside through
//! public functions and public counters. See `README.md` beside this
//! package for the workloads, the metric glossary and the predictions.
//!
//! ```text
//! perfbench list [--json]
//! perfbench run   --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--data-dir DIR]
//! perfbench trace --workload NAME ...            (= run --trace 1)
//! perfbench run   --all [--out FILE] ...         (every workload, untraced then traced)
//! perfbench --smoke                              (= run --all at 3 000 objects, 1 s windows)
//! ```
//!
//! A single-workload run prints, as the last line of its standard output,
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}` with every
//! end-to-end metric (`--trace 0`) or every per-layer metric (`--trace 1`).

mod calib;
mod host;
mod layers;
mod oracle;
mod pacer;
mod stats;
mod system;
mod table;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use table::MetricDef;
use workloads::{Outcome, RunOpts, Val};

const USAGE: &str = "usage: perfbench list [--json]
       perfbench run   (--workload NAME | --all) [--seed N] [--seconds S] [--trace 0|1]
                       [--out FILE] [--data-dir DIR] [--smoke]
       perfbench trace --workload NAME [...]
       perfbench --smoke";

struct Cli {
    command: String,
    workload: Option<String>,
    all: bool,
    json: bool,
    out: Option<PathBuf>,
    smoke: bool,
    opts: RunOpts,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        command: String::new(),
        workload: None,
        all: false,
        json: false,
        out: None,
        smoke: false,
        opts: RunOpts {
            seed: 1,
            seconds: table::RUN_SECONDS as f64,
            objects: 100_000,
            trace: false,
            data_root: host::default_data_root(),
            shrink: 1,
        },
    };
    let mut it = args.iter();
    let value = |flag: &str, it: &mut std::slice::Iter<String>| -> Result<String, String> {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "list" | "run" | "trace" if cli.command.is_empty() => cli.command = arg.clone(),
            "--workload" => cli.workload = Some(value(arg, &mut it)?),
            "--all" => cli.all = true,
            "--json" => cli.json = true,
            "--smoke" => cli.smoke = true,
            "--out" => cli.out = Some(PathBuf::from(value(arg, &mut it)?)),
            "--data-dir" => cli.opts.data_root = PathBuf::from(value(arg, &mut it)?),
            "--seed" => {
                cli.opts.seed = value(arg, &mut it)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value(arg, &mut it)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                cli.opts.seconds = s;
            }
            "--trace" => {
                cli.opts.trace = match value(arg, &mut it)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if cli.command == "trace" {
        cli.opts.trace = true;
    }
    if cli.smoke {
        if cli.command.is_empty() {
            cli.command = "run".into();
            cli.all = cli.workload.is_none();
        }
        cli.opts.objects = 3_000;
        cli.opts.seconds = cli.opts.seconds.min(1.0);
        cli.opts.shrink = 10;
    }
    if cli.command.is_empty() {
        return Err("no command".into());
    }
    Ok(cli)
}

fn defs(trace: bool) -> &'static [MetricDef] {
    if trace {
        table::PER_LAYER
    } else {
        table::END_TO_END
    }
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// `"name": {"value": v, "unit": "u"}` for every metric of the mode, in
/// table order. A metric the workload cannot have is 0 here (the line has
/// room for numbers only) and `n/a` in the readable block above it.
fn metrics_json(outcome: &Outcome, trace: bool) -> String {
    let fields: Vec<String> = defs(trace)
        .iter()
        .map(|d| {
            let v = outcome.metrics.num(d.name).map_or(0.0, finite);
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                d.name, d.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn result_line(outcome: &Outcome, trace: bool) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed,
        metrics_json(outcome, trace)
    )
}

fn report(outcome: &Outcome, trace: bool) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== {} ({}) ==",
        outcome.workload,
        if trace {
            "traced run: per-layer"
        } else {
            "untraced run: end-to-end"
        }
    );
    for note in &outcome.notes {
        let _ = writeln!(out, "  {note}");
    }
    for d in defs(trace) {
        match outcome.metrics.get(d.name) {
            Some(Val::Num(v)) => {
                let gate = d
                    .bound
                    .map_or(String::new(), |b| format!(", may worsen {:.0}%", b * 100.0));
                let _ = writeln!(
                    out,
                    "  {:<34} {:>14.4} {:<6} ({} is better{gate})",
                    d.name,
                    v,
                    d.unit,
                    d.better.as_str()
                );
            }
            Some(Val::Absent(why)) => {
                let _ = writeln!(out, "  {:<34} {why}", d.name);
            }
            None => {
                let _ = writeln!(out, "  {:<34} MISSING (harness bug)", d.name);
            }
        }
    }
    let _ = writeln!(
        out,
        "  attempted {} failed {} correct {}",
        outcome.attempted,
        outcome.failed,
        outcome.correct()
    );
    out
}

/// Every metric of the mode was produced, and nothing outside the table.
fn complete(outcome: &Outcome, trace: bool) -> Result<(), String> {
    for d in defs(trace) {
        if outcome.metrics.get(d.name).is_none() {
            return Err(format!(
                "{}: metric {} was not produced",
                outcome.workload, d.name
            ));
        }
    }
    Ok(())
}

fn run_one(name: &str, opts: &RunOpts) -> Result<Outcome, String> {
    let spec = workloads::spec(name).ok_or_else(|| {
        let known: Vec<&str> = table::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; known: {}", known.join(", "))
    })?;
    let outcome = workloads::run(spec, opts)?;
    complete(&outcome, opts.trace)?;
    Ok(outcome)
}

fn run_all(cli: &Cli) -> Result<bool, String> {
    let mut correct = true;
    let mut entries = Vec::new();
    for w in &table::WORKLOADS {
        let mut fields = vec![format!("\"name\": \"{}\"", w.name)];
        for trace in [false, true] {
            let opts = RunOpts {
                trace,
                ..cli.opts.clone()
            };
            let outcome = run_one(w.name, &opts)?;
            print!("{}", report(&outcome, trace));
            correct &= outcome.correct();
            let key = if trace { "per_layer" } else { "end_to_end" };
            fields.push(format!(
                "\"{key}\": {{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
                outcome.correct(),
                outcome.attempted,
                outcome.failed,
                metrics_json(&outcome, trace)
            ));
        }
        entries.push(format!("    {{{}}}", fields.join(", ")));
    }
    if let Some(path) = &cli.out {
        let json = format!(
            "{{\n  \"benchmark\": \"perfbench\",\n  \"claim\": null,\n  \"seed\": {},\n  \"seconds\": {},\n  \
             \"objects\": {},\n  \"host\": {{\"cpus\": {}, \"fs_type\": \"{}\", \"generator_threads\": {}}},\n  \
             \"workloads\": [\n{}\n  ]\n}}\n",
            cli.opts.seed,
            cli.opts.seconds,
            cli.opts.objects,
            host::cpus(),
            host::fs_type(&cli.opts.data_root),
            host::generator_threads(),
            entries.join(",\n")
        );
        std::fs::write(path, json).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("written to {}", path.display());
    }
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cli.command == "list" {
        print!(
            "{}",
            if cli.json {
                table::benchmark_json()
            } else {
                table::listing()
            }
        );
        return ExitCode::SUCCESS;
    }
    if let Err(e) = std::fs::create_dir_all(&cli.opts.data_root) {
        eprintln!("perfbench: data dir {}: {e}", cli.opts.data_root.display());
        return ExitCode::from(2);
    }
    let correct = if cli.all {
        run_all(&cli)
    } else if let Some(name) = &cli.workload {
        run_one(name, &cli.opts).map(|outcome| {
            print!("{}", report(&outcome, cli.opts.trace));
            println!("{}", result_line(&outcome, cli.opts.trace));
            outcome.correct()
        })
    } else {
        Err("run needs --workload NAME or --all".to_string())
    };
    match correct {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("perfbench: outputs did not match the oracle or operations failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_opts(trace: bool) -> RunOpts {
        RunOpts {
            seed: 7,
            seconds: 0.5,
            objects: 3_000,
            trace,
            data_root: std::env::temp_dir().join(format!("perfbench-test-{}", std::process::id())),
            shrink: 10,
        }
    }

    /// Every workload, both modes, end to end at smoke scale: each emits
    /// exactly the metrics the table (and so `BENCHMARK.json`) names for
    /// its mode, answers every check like the oracle, and fails nothing.
    #[test]
    fn every_workload_emits_exactly_the_table_and_matches_the_oracle() {
        for w in &table::WORKLOADS {
            for trace in [false, true] {
                let opts = smoke_opts(trace);
                std::fs::create_dir_all(&opts.data_root).unwrap();
                let outcome = run_one(w.name, &opts).unwrap_or_else(|e| panic!("{}: {e}", w.name));
                assert!(
                    outcome.correct(),
                    "{} trace={trace}: {:?}",
                    w.name,
                    outcome.notes
                );
                assert_eq!(outcome.failed, 0);
                for name in outcome.metrics.names() {
                    assert!(table::find(name).is_some(), "{name} is not in the table");
                }
                if !trace {
                    for d in table::END_TO_END {
                        let v = outcome.metrics.num(d.name).unwrap_or(0.0);
                        assert!(
                            v > 0.0,
                            "{}: end-to-end {} must never be 0, got {v}",
                            w.name,
                            d.name
                        );
                    }
                }
                let line = result_line(&outcome, trace);
                assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
                assert_eq!(line.matches("\"value\"").count(), defs(trace).len());
            }
        }
        let _ = std::fs::remove_dir_all(smoke_opts(false).data_root);
    }

    #[test]
    fn cli_parses_the_driver_form_and_the_shorthands() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let cli = parse(&args(
            "run --workload core_fast_mixed --seed 9 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(cli.workload.as_deref(), Some("core_fast_mixed"));
        assert_eq!(
            (cli.opts.seed, cli.opts.seconds, cli.opts.trace),
            (9, 3.0, true)
        );
        assert_eq!(cli.opts.objects, 100_000);
        let cli = parse(&args("--smoke")).unwrap();
        assert!(cli.all && cli.command == "run" && cli.opts.objects == 3_000);
        assert!(parse(&args("trace --workload x")).unwrap().opts.trace);
        assert!(parse(&args("run --trace 2")).is_err());
        assert!(parse(&args("run --seconds 0")).is_err());
        assert!(parse(&args("")).is_err());
    }
}
