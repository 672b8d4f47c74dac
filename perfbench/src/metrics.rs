//! The metric catalogue, and the statistics every workload shares.
//!
//! Every workload reports every metric of the catalogue it runs under:
//! the end-to-end list without `--trace`, the per-layer list with it.
//! A per-layer metric a workload does not exercise reads 0 and is named
//! in a note on stderr, never dropped.

use std::collections::BTreeMap;

use apar_core::report::{CompileReport, PassId};

/// End-to-end metrics: `(name, unit)`. What an "operation" is per
/// workload is documented in `perfbench/README.md`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
];

/// Figure-2 passes under their layer names. `Others` is the front
/// end's resolve step.
pub const PASSES: [(PassId, &str, &str); 8] = [
    (
        PassId::DataDependence,
        "analysis.ddtest.ops",
        "analysis.ddtest.busy_ms",
    ),
    (
        PassId::Privatization,
        "analysis.privatize.ops",
        "analysis.privatize.busy_ms",
    ),
    (
        PassId::InductionSubstitution,
        "analysis.induction.ops",
        "analysis.induction.busy_ms",
    ),
    (
        PassId::InlineExpansion,
        "analysis.inline.ops",
        "analysis.inline.busy_ms",
    ),
    (
        PassId::GsaTranslation,
        "analysis.gsa.ops",
        "analysis.gsa.busy_ms",
    ),
    (
        PassId::InterproceduralConstProp,
        "analysis.constprop.ops",
        "analysis.constprop.busy_ms",
    ),
    (
        PassId::Reduction,
        "analysis.reduction.ops",
        "analysis.reduction.busy_ms",
    ),
    (
        PassId::Others,
        "minifort.resolve.ops",
        "minifort.resolve.busy_ms",
    ),
];

/// Per-layer metrics: `(name, unit)`, pass metrics first.
pub fn per_layer() -> Vec<(&'static str, &'static str)> {
    let mut v: Vec<(&str, &str)> = Vec::new();
    for (_, ops, busy) in PASSES {
        v.push((ops, "count"));
        v.push((busy, "ms"));
    }
    v.extend_from_slice(&[
        ("minifort.parse_ms", "ms"),
        ("core.compile_ms", "ms"),
        ("core.loops", "count"),
        ("core.budget_tripped", "count"),
        ("core.compile_stmts_per_s", "1/s"),
        ("codegen.emit_ms", "ms"),
        ("codegen.emitted_loops", "count"),
        ("codegen.not_emittable", "count"),
        ("runtime.seismic_run_ms", "ms"),
        ("runtime.small_run_ms", "ms"),
        ("runtime.sweep_ms", "ms"),
        ("runtime.regions", "count"),
        ("runtime.forks", "count"),
        ("runtime.virt_ops", "count"),
        ("runtime.serial_run_ms", "ms"),
        ("runtime.virt_ops_per_s", "1/s"),
        ("runtime.wall_per_region_us", "us"),
        ("runtime.virt_speedup", "x"),
        ("service.cold_ms", "ms"),
        ("service.hit_ms", "ms"),
        ("service.result_hit_ratio", "ratio"),
        ("analysis.incr.loop_hits", "count"),
        ("analysis.incr.loop_misses", "count"),
        ("analysis.incr.loop_refusals", "count"),
        ("analysis.incr.splice_ratio", "ratio"),
        ("analysis.cache.facts_hits", "count"),
        ("analysis.cache.facts_misses", "count"),
        ("store.appended_records", "count"),
        ("store.compactions", "count"),
        ("store.bytes", "bytes"),
        ("store.append_errors", "count"),
        ("store.recover_ms", "ms"),
        ("trace.overhead_pct", "%"),
    ]);
    v
}

/// What one run measured.
#[derive(Default)]
pub struct Run {
    /// Correctness checks made, and how many failed.
    pub attempted: u64,
    pub failed: u64,
    /// Every metric the workload produced, end-to-end and per-layer.
    pub values: BTreeMap<&'static str, f64>,
    /// Metrics that are approximated or unmeasurable from outside the
    /// program, with the reason.
    pub notes: Vec<String>,
}

impl Run {
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.values.insert(name, v);
    }

    /// Records one check; prints the reason when it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }

    /// Adds a report's per-pass ops and busy milliseconds.
    pub fn add_passes(&mut self, report: &CompileReport) {
        for (pass, ops, busy) in PASSES {
            let c = report.per_pass.get(&pass).copied().unwrap_or_default();
            *self.values.entry(ops).or_default() += c.ops as f64;
            *self.values.entry(busy).or_default() += c.seconds * 1e3;
        }
    }

    /// The end-to-end metrics that every workload derives from its
    /// per-operation wall times.
    pub fn set_timing(&mut self, ops_ms: &[f64], tail_q: f64, timed_s: f64) {
        self.set("op_p50_ms", quantile(ops_ms, 0.5));
        self.set("op_tail_ms", quantile(ops_ms, tail_q));
        self.set("ops_per_s", ops_ms.len() as f64 / timed_s);
        let beyond = ((1.0 - tail_q) * ops_ms.len() as f64).floor();
        eprintln!(
            "timed: {} operations in {:.3} s; tail = p{} ({} samples beyond)",
            ops_ms.len(),
            timed_s,
            (tail_q * 100.0).round(),
            beyond
        );
    }
}

/// Linear-interpolated quantile (`q` in 0..=1) of unsorted samples; NaN
/// when there are none.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Tracing overhead in percent: the median traced operation over the
/// median untraced one, from `(traced, seconds)` pairs.
pub fn overhead_pct(ops: &[(bool, f64)]) -> f64 {
    let pick = |on: bool| -> Vec<f64> { ops.iter().filter(|o| o.0 == on).map(|o| o.1).collect() };
    (quantile(&pick(true), 0.5) / quantile(&pick(false), 0.5) - 1.0) * 100.0
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
