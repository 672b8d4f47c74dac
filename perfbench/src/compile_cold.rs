//! `compile-cold`: the eight suites compiled round-robin, each time by
//! a fresh `Compiler` under the full profile at two analysis threads,
//! with no shared store. Analysis is nearly all of the work.
//!
//! Operation: one round of `parse_program` + `Compiler::compile` of
//! each suite, in a fixed order (per-compile latencies mix eight
//! programs whose costs differ a hundredfold, so their percentiles fall
//! between suites). The seed does not change the inputs. Checks per
//! compile: the report signature equals the single-threaded signature
//! taken in setup, and every `!$TARGET` loop's classification agrees
//! with the suite manifest's `recovered_by_full`.

use std::time::Instant;

use apar_core::{Classification, CompileResult, Compiler, CompilerProfile};
use apar_minifort::parse_program;
use apar_workloads::{all_suites, Workload};

use crate::metrics::{overhead_pct, quantile, Run, PASSES};
use crate::trace::Tracer;
use crate::{Args, THREADS};

const SETUPS: usize = 7;
/// Tail percentile: a 30 s run makes about 60 rounds, so p75 has fifteen
/// samples beyond it.
const TAIL: f64 = 0.75;

fn compile(
    w: &Workload,
    profile: CompilerProfile,
    tr: &mut Tracer,
    req: u64,
) -> Option<CompileResult> {
    let s = tr.enter("minifort.parse_program", req);
    let prog = parse_program(&w.source);
    tr.exit(s);
    let s = tr.enter("core.compile", req);
    let res = prog
        .ok()
        .and_then(|p| Compiler::new(profile).compile(&w.name, p).ok());
    tr.exit(s);
    res
}

/// Target loops whose classification disagrees with the manifest.
fn manifest_mismatches(w: &Workload, r: &CompileResult) -> Vec<String> {
    w.targets
        .iter()
        .filter_map(|spec| {
            let got = r
                .loops
                .iter()
                .find(|l| l.target.as_deref() == Some(spec.name.as_str()));
            match got {
                None => Some(format!("{}: not analyzed", spec.name)),
                Some(l)
                    if (l.classification == Classification::Autoparallelized)
                        != spec.recovered_by_full =>
                {
                    Some(format!("{}: classified {:?}", spec.name, l.classification))
                }
                Some(_) => None,
            }
        })
        .collect()
}

pub fn run(args: &Args, tr: &mut Tracer) -> Run {
    let mut out = Run::default();

    // Setup, repeated: the suites and their single-threaded reference
    // signatures.
    let mut setup_s = Vec::new();
    let mut suites = Vec::new();
    let mut refs: Vec<String> = Vec::new();
    for k in 0..SETUPS {
        let t = Instant::now();
        let root = tr.enter("setup", k as u64);
        suites = all_suites();
        refs = suites
            .iter()
            .map(|w| {
                compile(w, CompilerProfile::full(), tr, k as u64)
                    .map(|r| r.report_signature())
                    .unwrap_or_default()
            })
            .collect();
        tr.exit(root);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    out.set("setup_s", quantile(&setup_s, 0.5));
    for (w, sig) in suites.iter().zip(&refs) {
        out.check(!sig.is_empty(), || {
            format!("{}: reference compile failed", w.name)
        });
    }
    let profile = CompilerProfile::full().with_threads(THREADS);

    // Timed loop: whole rounds until the time is up. In the traced run,
    // even rounds are traced and odd rounds are not.
    let mut compiles = 0u64;
    let mut rounds: Vec<(bool, f64)> = Vec::new();
    let mut traced_rounds: Vec<Run> = Vec::new();
    let start = Instant::now();
    while start.elapsed() < args.seconds {
        let traced = args.trace && rounds.len().is_multiple_of(2);
        tr.set_on(traced);
        let r0 = Instant::now();
        let root = tr.enter("round", rounds.len() as u64);
        let mut per = Run::default();
        for (w, reference) in suites.iter().zip(&refs) {
            let res = compile(w, profile.clone(), tr, compiles);
            compiles += 1;
            let Some(r) = res else {
                out.check(false, || format!("{}: compile failed", w.name));
                continue;
            };
            let sig_ok = r.report_signature() == *reference;
            let bad = manifest_mismatches(w, &r);
            out.check(sig_ok && bad.is_empty(), || {
                format!("{}: signature equal {sig_ok}; manifest {:?}", w.name, bad)
            });
            per.add_passes(&r.report);
            *per.values.entry("core.loops").or_default() += r.loops.len() as f64;
            *per.values.entry("core.budget_tripped").or_default() +=
                r.budget_tripped_loops() as f64;
            *per.values.entry("stmts").or_default() += r.report.statements as f64;
        }
        tr.exit(root);
        rounds.push((traced, r0.elapsed().as_secs_f64()));
        if traced {
            traced_rounds.push(per);
        }
    }
    tr.set_on(args.trace);
    let timed_s = start.elapsed().as_secs_f64();
    let rounds_ms: Vec<f64> = rounds.iter().map(|r| r.1 * 1e3).collect();
    out.set_timing(&rounds_ms, TAIL, timed_s);

    if args.trace {
        layers(&mut out, tr, &rounds, &traced_rounds);
    }
    out
}

/// Per-layer metrics from the traced rounds: counts from one round
/// (they are the same every round), times as medians over rounds.
fn layers(out: &mut Run, tr: &Tracer, rounds: &[(bool, f64)], traced: &[Run]) {
    let Some(first) = traced.first() else { return };
    for (name, v) in &first.values {
        if !name.ends_with("_ms") && *name != "stmts" {
            out.set(name, *v);
        }
    }
    for (_, _, busy_name) in PASSES {
        let per_round: Vec<f64> = traced.iter().map(|r| r.values[&busy_name]).collect();
        out.set(busy_name, quantile(&per_round, 0.5));
    }
    let parse = quantile(
        &tr.per_root_ms("round", "minifort.parse_program", |_| true),
        0.5,
    );
    let compile = quantile(&tr.per_root_ms("round", "core.compile", |_| true), 0.5);
    out.set("minifort.parse_ms", parse);
    out.set("core.compile_ms", compile);
    let stmts = first.values.get("stmts").copied().unwrap_or(0.0);
    out.set(
        "core.compile_stmts_per_s",
        stmts / ((parse + compile) / 1e3),
    );
    out.set("trace.overhead_pct", overhead_pct(rounds));
}
