//! `exec-auto`: the paper's Figure-1 "Polaris" artifacts, run in
//! `ExecMode::Auto` at two threads. Runtime is nearly all of the work.
//!
//! Setup compiles and emits all eight suites under `polaris2008` and
//! runs each serial original once as the reference. The timed loop
//! sweeps over the eight artifacts in a fixed order; the seed does not
//! change the inputs. Operation: one `run` of one reparsed artifact.
//! Check per run: output lines and STOP state bit-identical to the
//! serial original.

use std::time::Instant;

use apar_core::report::SkipReason;
use apar_core::{Compiler, CompilerProfile};
use apar_minifort::{frontend, ResolvedProgram};
use apar_runtime::{run as execute, DeckVal, ExecConfig, ExecMode, RunResult};
use apar_workloads::{all_suites, DeckValue};

use crate::metrics::{overhead_pct, quantile, Run};
use crate::trace::{ms, Tracer};
use crate::{Args, THREADS};

const SETUPS: usize = 3;
/// Stack segment words, as in the `bench_exec` harness, so figures stay
/// comparable with EXPERIMENTS.md.
const SEG: usize = 1 << 22;
/// Tail percentile: a 30 s run makes about 64 runs, so p75 has sixteen
/// samples beyond it.
const TAIL: f64 = 0.75;
const SEISMIC: &str = "SEISMIC";

struct Artifact {
    name: String,
    deck: Vec<DeckVal>,
    reparsed: ResolvedProgram,
    serial: Option<RunResult>,
}

fn deck(d: &[DeckValue]) -> Vec<DeckVal> {
    d.iter()
        .map(|v| match v {
            DeckValue::Int(i) => DeckVal::Int(*i),
            DeckValue::Real(r) => DeckVal::Real(*r),
        })
        .collect()
}

/// One setup: compile and emit every suite, run every serial original.
fn setup(out: &mut Run, tr: &mut Tracer, k: u64) -> (Vec<Artifact>, Run) {
    let mut per = Run::default();
    let mut arts = Vec::new();
    for w in all_suites() {
        let s = tr.enter("core.compile_and_emit", k);
        let t = Instant::now();
        let emitted =
            Compiler::new(CompilerProfile::polaris2008()).compile_and_emit(&w.name, &w.source);
        let wall_ms = ms(t.elapsed());
        tr.exit_tagged(s, &w.name);
        let emitted = match emitted {
            Ok(e) => e,
            Err(e) => {
                out.check(false, || {
                    format!("{}: compile_and_emit failed: {e}", w.name)
                });
                continue;
            }
        };
        out.check(emitted.reparse_diags.is_empty(), || {
            format!(
                "{}: artifact reparse has {} diags",
                w.name,
                emitted.reparse_diags.len()
            )
        });
        let report = &emitted.result.report;
        per.add_passes(report);
        let not_emittable = report
            .skipped
            .iter()
            .filter(|s| matches!(s.reason, SkipReason::NotEmittable { .. }))
            .count();
        *per.values.entry("codegen.emitted_loops").or_default() += emitted.emitted as f64;
        *per.values.entry("codegen.not_emittable").or_default() += not_emittable as f64;
        *per.values.entry("codegen.emit_ms").or_default() += wall_ms - report.total_seconds() * 1e3;

        let deck = deck(&w.deck);
        let serial = frontend(&w.source).ok().and_then(|rp| {
            let s = tr.enter("runtime.run", k);
            let t = Instant::now();
            let r = execute(
                &rp,
                &deck,
                &ExecConfig {
                    seg_words: SEG,
                    ..Default::default()
                },
            )
            .ok();
            if w.name == SEISMIC {
                per.set("runtime.serial_run_ms", ms(t.elapsed()));
            }
            tr.exit_tagged(s, "serial");
            r
        });
        out.check(serial.is_some(), || {
            format!("{}: serial original failed", w.name)
        });
        arts.push(Artifact {
            name: w.name,
            deck,
            reparsed: emitted.reparsed,
            serial,
        });
    }
    (arts, per)
}

pub fn run(args: &Args, tr: &mut Tracer) -> Run {
    let mut out = Run::default();
    let mut setup_s = Vec::new();
    let mut serial_ms = Vec::new();
    let mut arts = Vec::new();
    let mut compiled = Run::default();
    for k in 0..SETUPS {
        let t = Instant::now();
        let root = tr.enter("setup", k as u64);
        (arts, compiled) = setup(&mut out, tr, k as u64);
        tr.exit(root);
        setup_s.push(t.elapsed().as_secs_f64());
        serial_ms.push(
            compiled
                .values
                .get("runtime.serial_run_ms")
                .copied()
                .unwrap_or(f64::NAN),
        );
    }
    out.set("setup_s", quantile(&setup_s, 0.5));

    let cfg = ExecConfig {
        mode: ExecMode::Auto,
        threads: THREADS,
        seg_words: SEG,
        ..Default::default()
    };

    // Timed loop: whole sweeps until the time is up. In the traced run,
    // even sweeps are traced and odd sweeps are not.
    let mut ops_ms = Vec::new();
    let mut rounds: Vec<(bool, f64)> = Vec::new();
    // Regions, forks and virtual ops of the first sweep, and SEISMIC's
    // regions alone.
    let mut counts = [0u64; 4];
    let mut speedups = Vec::new();
    let start = Instant::now();
    while start.elapsed() < args.seconds {
        let traced = args.trace && rounds.len().is_multiple_of(2);
        tr.set_on(traced);
        let r0 = Instant::now();
        let root = tr.enter("round", rounds.len() as u64);
        for a in &arts {
            let req = ops_ms.len() as u64;
            let s = tr.enter("runtime.run", req);
            let t = Instant::now();
            let res = execute(&a.reparsed, &a.deck, &cfg);
            ops_ms.push(ms(t.elapsed()));
            tr.exit_tagged(s, &a.name);
            let (Ok(auto), Some(serial)) = (res, &a.serial) else {
                out.check(false, || format!("{}: auto run failed", a.name));
                continue;
            };
            out.check(
                auto.output == serial.output && auto.stopped == serial.stopped,
                || format!("{}: output differs from the serial original", a.name),
            );
            if rounds.is_empty() {
                counts[0] += auto.regions;
                counts[1] += auto.forks;
                counts[2] += auto.virt;
                if a.name == SEISMIC {
                    counts[3] = auto.regions;
                }
                speedups.push(serial.virt as f64 / auto.virt as f64);
            }
        }
        tr.exit(root);
        rounds.push((traced, r0.elapsed().as_secs_f64()));
    }
    tr.set_on(args.trace);
    let timed_s = start.elapsed().as_secs_f64();
    out.set_timing(&ops_ms, TAIL, timed_s);

    if args.trace {
        for (name, v) in compiled.values {
            out.set(name, v);
        }
        out.notes.push(
            "codegen.emit_ms: compile_and_emit is one call, so this is its wall minus the \
             report's charged pass seconds (threads = 1); it includes the pipeline's uncharged time"
                .into(),
        );
        let serial = quantile(&serial_ms, 0.5);
        out.set("runtime.serial_run_ms", serial);
        let seismic = quantile(&tr.durations_ms("runtime.run", |t| t == SEISMIC), 0.5);
        let small = tr.per_root_ms("round", "runtime.run", |t| t != SEISMIC);
        let sweep = quantile(&tr.per_root_ms("round", "runtime.run", |_| true), 0.5);
        out.set("runtime.seismic_run_ms", seismic);
        out.set("runtime.small_run_ms", quantile(&small, 0.5));
        out.set("runtime.sweep_ms", sweep);
        out.set("runtime.regions", counts[0] as f64);
        out.set("runtime.forks", counts[1] as f64);
        out.set("runtime.virt_ops", counts[2] as f64);
        out.set("runtime.virt_ops_per_s", counts[2] as f64 / (sweep / 1e3));
        out.set(
            "runtime.wall_per_region_us",
            (seismic - serial) * 1e3 / counts[3] as f64,
        );
        let log_mean = speedups.iter().map(|s| s.ln()).sum::<f64>() / speedups.len() as f64;
        out.set("runtime.virt_speedup", log_mean.exp());
        out.set("trace.overhead_pct", overhead_pct(&rounds));
    }
    out
}
