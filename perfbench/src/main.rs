//! `perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]`
//!
//! Prints the run header and the evidence behind the metrics, then, as
//! the last line, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (end-to-end with `--trace 0`, per-layer with `--trace 1`).
//! Exits non-zero when a correctness gate fails.
//!
//! The fleet workload re-executes this binary as its workers through the
//! hidden `fleet-worker` subcommand, as `rflash run-fleet` does.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::run::Run;
use perfbench::workload::Workload;
use rflash::core::{worker_main, WorkerArgs};
use serde_json::Value;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args(rest: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut out = PathBuf::from("perfbench/out");
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{value}` (one of {})", names.join(", "))
                })?)
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !seconds.is_finite() || seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: expected 0 or 1, got `{value}`")),
                }
            }
            "--out" => out = PathBuf::from(value),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        out,
    })
}

/// The worker side of `run_fleet`: the same flags `rflash fleet-worker`
/// takes.
fn fleet_worker(rest: &[String]) -> Result<(), String> {
    let mut args = WorkerArgs {
        rank: 0,
        setup: String::new(),
        steps: 0,
        checkpoint_every: 0,
        keep_last: 0,
        series_dir: PathBuf::new(),
        series_prefix: "fleet".into(),
        heartbeat_ms: 25,
    };
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--rank" => args.rank = num(value)? as usize,
            "--setup" => args.setup = value.clone(),
            "--steps" => args.steps = num(value)?,
            "--checkpoint-every" => args.checkpoint_every = num(value)?,
            "--keep-last" => args.keep_last = num(value)? as usize,
            "--series-dir" => args.series_dir = PathBuf::from(value),
            "--series-prefix" => args.series_prefix = value.clone(),
            "--heartbeat-ms" => args.heartbeat_ms = num(value)?,
            other => return Err(format!("fleet-worker: unexpected argument `{other}`")),
        }
    }
    worker_main(args)
}

fn metrics_json(metrics: &[(&str, f64, &str)]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|&(name, value, unit)| {
                (
                    name.to_string(),
                    Value::Object(vec![
                        ("value".into(), Value::F64(value)),
                        ("unit".into(), Value::Str(unit.into())),
                    ]),
                )
            })
            .collect(),
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("fleet-worker") {
        return match fleet_worker(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench fleet-worker: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };

    let mut run = Run::new(args.workload, args.seed, args.seconds, args.out);
    let outcome = run.execute(args.trace);
    if let Some(header) = &run.header {
        println!(
            "header {}",
            serde_json::to_string(header).expect("header JSON")
        );
    }
    let detail = Value::Object(run.detail.clone());
    println!(
        "detail {}",
        serde_json::to_string(&detail).expect("detail JSON")
    );
    for (name, value, unit) in &run.metrics {
        eprintln!("  {name:32} {value:>16.6} {unit}");
    }
    let attempted = run.attempted.max(1);
    let (correct, failed, metrics) = match &outcome {
        Ok(()) => (true, run.failed, metrics_json(&run.metrics)),
        Err(f) => {
            eprintln!("perfbench: {} gate failed: {}", f.gate, f.detail);
            (false, attempted, Value::Object(Vec::new()))
        }
    };
    let result = Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::U64(attempted)),
        ("failed".into(), Value::U64(failed)),
        ("metrics".into(), metrics),
    ]);
    println!("{}", serde_json::to_string(&result).expect("result JSON"));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
