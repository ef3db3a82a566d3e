//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload (`oltp_durable`, `query_mix`, `wire_mixed`) and
//! prints, as its last line, one JSON object: `correct`, `attempted`,
//! `failed` and the metrics — the end-to-end metrics with `--trace 0`,
//! the per-layer metrics with `--trace 1`. Exits non-zero when an output
//! check failed or the run could not complete. Scratch files live under
//! `.bench_data/` in the current directory and are removed at exit;
//! traced runs leave their spans in `.bench_out/`.

use std::process::ExitCode;

use perfbench::run::{self, Plan, Workload};
use perfbench::{report, trace};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed '{value}'"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad seconds '{value}'"))?,
                )
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                }
            }
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload oltp_durable|query_mix|wire_mixed --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let plan = Plan::for_seconds(args.seconds);
    let dir = run::work_dir(args.workload);
    trace::set_enabled(args.trace);
    let outcome = run::run(args.workload, &plan, args.seed, &dir, args.trace);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(".bench_data");
    let m = match outcome {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {} run failed: {e}", args.workload.name());
            return ExitCode::from(1);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    for line in report::sample_lines(&m) {
        println!("  {line}");
    }
    println!(
        "  attempted {} failed {} failed_ratio {}",
        m.tally.attempted,
        m.tally.failed,
        report::failed_ratio(&m)
    );
    for e in &m.tally.errors {
        println!("  error: {e}");
    }
    let metrics = if args.trace {
        let spans = trace::spans();
        let out = std::path::Path::new(".bench_out");
        let path = out.join(format!(
            "spans-{}-{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        if let Err(e) =
            std::fs::create_dir_all(out).and_then(|()| trace::write_jsonl(&spans, &path))
        {
            eprintln!("perfbench: writing spans: {e}");
        }
        let mut layers = m.layers.clone();
        layers.extend(report::unbounded(&m));
        layers
    } else {
        for (k, v, u) in report::unbounded(&m) {
            println!("  {k:<36} {v:>14.3} {u} (not bounded)");
        }
        report::end_to_end(&m)
    };
    for (k, v, u) in &metrics {
        println!("  {k:<36} {v:>14.3} {u}");
    }
    let correct = m.tally.failed == 0;
    println!(
        "{}",
        report::result_json(correct, m.tally.attempted.max(1), m.tally.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
