//! The repository benchmark: three workloads against the in-process
//! `metaai-serve` server and `MetaAiSystem`, selected by name and driven
//! from a seed.
//!
//! ```text
//! perfbench --workload serve-steady|offline-eval|adapt-drift
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! workload with spans around each layer's calls and the workspace
//! telemetry on, and prints the per-layer metrics instead. The last line
//! of standard output is one JSON object; see `perfbench/README.md`.

mod cpu;
mod host;
mod layers;
mod loadgen;
mod offline;
mod report;
mod serve;
mod setup;
mod stats;
mod trace;

use report::Report;
use std::process::ExitCode;

const WORKLOADS: [&str; 3] = ["serve-steady", "offline-eval", "adapt-drift"];

const USAGE: &str =
    "usage: perfbench --workload serve-steady|offline-eval|adapt-drift --seed N --seconds S --trace 0|1";

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {v}"))
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(format!("unknown workload {value:?}")),
            "--seed" => seed = Some(number(&value)?),
            "--seconds" => seconds = Some(number(&value)?.max(1)),
            "--trace" => trace = Some(number(&value)? != 0),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.trace {
        trace::enable();
    }
    let mut report = Report {
        correct: true,
        ..Report::default()
    };
    report.note(format!(
        "workload {} seed {} seconds {} trace {} on {} cores",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
    // A shared virtual machine's speed can drift by 2× over minutes; a
    // fixed loop timed around the workload tells a reader how fast the
    // host ran.
    let ref0 = host::reference_us();
    let run = match args.workload.as_str() {
        "serve-steady" => serve::serve_steady(&args, &mut report),
        "offline-eval" => offline::offline_eval(&args, &mut report),
        _ => serve::adapt_drift(&args, &mut report),
    };
    report.note(format!(
        "host reference loop {ref0:.1} us before the workload, {:.1} us after \
         (CPU time of a fixed loop; lower means a faster host)",
        host::reference_us()
    ));
    if let Err(e) = run {
        for line in &report.notes {
            eprintln!("{line}");
        }
        eprintln!("error: {e}");
        return ExitCode::from(1);
    }
    if args.trace {
        layers::zero_unexercised(&mut report);
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}-{}.json", args.workload, args.seed));
        let records = trace::records();
        match trace::write_json(&path, &records) {
            Ok(()) => report.note(format!(
                "{} spans written to {}",
                records.len(),
                path.display()
            )),
            Err(e) => report.fail_check(format!("writing spans to {}: {e}", path.display())),
        }
    }
    report.print();
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload adapt-drift --seed 17 --seconds 12 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("adapt-drift", 17, 12, true)
        );
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--workload serve-steady").is_err());
        assert!(args("--workload serve-steady --seed x").is_err());
        assert!(args("--workload serve-steady --seed 1 --bogus 2").is_err());
        assert!(args("--workload serve-steady --seed").is_err());
    }

    /// The metric tables here and in `BENCHMARK.json` name the same
    /// metrics with the same units, in the same order.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let listed: Vec<(&str, &str)> = json
            .lines()
            .filter_map(|l| {
                let name = l.split("\"name\": \"").nth(1)?.split('"').next()?;
                let unit = l.split("\"unit\": \"").nth(1)?.split('"').next()?;
                Some((name, unit))
            })
            .collect();
        let ours: Vec<(&str, &str)> = report::END_TO_END
            .iter()
            .chain(layers::PER_LAYER.iter())
            .copied()
            .collect();
        assert_eq!(listed, ours);
        for w in WORKLOADS {
            assert!(
                json.contains(&format!("{{\"name\": \"{w}\", \"why\"")),
                "{w}"
            );
        }
    }
}
