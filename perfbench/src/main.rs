//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <compile-cold|exec-auto|service-edits> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload in this process, checks every output it times,
//! and prints as its last stdout line one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` they are the
//! per-layer ones, taken from spans around the public library calls,
//! plus the tracing overhead. The span file goes to
//! `$CARGO_TARGET_DIR/perfbench/` (default `target/perfbench/`). Exits 1
//! if any check failed, 2 on bad arguments.

mod compile_cold;
mod exec_auto;
mod metrics;
mod service_edits;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use apar_core::jsonio::Json;

use trace::Tracer;

/// Threads for analysis, service workers and the runtime team.
pub const THREADS: usize = 2;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = val.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(Duration::from_secs(10)),
        trace: trace.unwrap_or(false),
    })
}

/// Where span files and the service's store directories go.
pub fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target).join("perfbench")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut tracer = Tracer::new(args.trace);
    let mut run = match args.workload.as_str() {
        "compile-cold" => compile_cold::run(&args, &mut tracer),
        "exec-auto" => exec_auto::run(&args, &mut tracer),
        "service-edits" => service_edits::run(&args, &mut tracer),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    run.set("peak_rss_mb", metrics::peak_rss_mb());

    let catalogue = if args.trace {
        metrics::per_layer()
    } else {
        metrics::END_TO_END.to_vec()
    };
    let mut out = Vec::new();
    for (name, unit) in catalogue {
        let value = match run.values.get(name) {
            Some(v) if v.is_finite() => *v,
            Some(_) => {
                run.notes
                    .push(format!("{name}: no samples in this run, reads 0"));
                0.0
            }
            None => {
                run.notes.push(format!(
                    "{name}: not exercised by {}, reads 0",
                    args.workload
                ));
                0.0
            }
        };
        out.push((
            name,
            Json::Obj(vec![
                ("value", Json::Num(value)),
                ("unit", Json::Str(unit.to_string())),
            ]),
        ));
    }
    for n in &run.notes {
        eprintln!("note: {n}");
    }
    if args.trace {
        let path = out_dir().join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        match tracer.write_jsonl(&path) {
            Ok(()) => eprintln!(
                "spans: {} written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("spans: could not write {}: {e}", path.display()),
        }
    }

    let correct = run.failed == 0;
    let result = Json::Obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(run.attempted as i64)),
        ("failed", Json::Int(run.failed as i64)),
        ("metrics", Json::Obj(out)),
    ]);
    println!("{}", result.render_compact());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
