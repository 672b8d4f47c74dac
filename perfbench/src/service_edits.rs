//! `service-edits`: one in-process `CompileService` (default config,
//! `polaris2008`, two workers) on a `PersistentStore`, driven by one
//! closed-loop client with no think time.
//!
//! The seeded request stream is about 70% one-line value edits and 30%
//! exact repeats. An edit picks a suite and one of its scalar
//! `X = <float>` assignments and gives it a new value, so names (and
//! the interner) never change; edits accumulate per suite. A repeat
//! re-sends one of the last 64 requests, well inside the result
//! cache's 256 entries.
//!
//! Setup cold-compiles the eight suites into a fresh store, drops the
//! service and reopens it from the store, so set-up time includes the
//! warm-restart recovery. Operation: one `compile_one`. Checks per
//! answer: served `Cold`, `CacheHit` or `Deduped`, and its report
//! signature equals a service-free `compile_source_recovering` of the
//! same source, computed after the timed loop. One more check: the timed loop spliced loop records
//! (`loop_hits > 0`) and refused none, as value-only edits must.

use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use apar_core::{Compiler, CompilerProfile};
use apar_service::{
    CompileService, Served, ServiceConfig, ServiceStats, SuiteOutcome, SuiteRequest,
};
use apar_workloads::all_suites;

use crate::metrics::{overhead_pct, quantile, Run};
use crate::trace::{ms, Tracer};
use crate::{out_dir, Args, THREADS};

const SETUPS: usize = 9;
/// Tail percentile. The timed loop answers at least [`MIN_REQUESTS`],
/// so p90 has at least twenty samples beyond it. (Per request, the
/// service's cost climbs for the first several hundred requests after a
/// restart, as the loop-record tier fills and every request
/// re-serializes it to the store; higher percentiles sit on the end of
/// that ramp and spread too much from run to run.)
const TAIL: f64 = 0.90;
const MIN_REQUESTS: usize = 200;
/// Per-layer counts are read after this many requests, so they are the
/// same on every run of a seed.
const COUNT_WINDOW: usize = MIN_REQUESTS;
/// Three repeats in every block of ten requests.
const BLOCK: usize = 10;
const REPEATS: usize = 3;
const REPEAT_SPAN: usize = 64;

/// SplitMix64: a small, fully specified generator, so a seed means the
/// same stream on every platform and toolchain.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A suite as the client currently holds it.
struct Suite {
    name: String,
    lines: Vec<String>,
    /// Lines of the form `X = <float>` with a bare scalar on the left.
    editable: Vec<usize>,
    /// Editable lines left in this suite's current pass over them.
    pending: Vec<usize>,
}

fn editable_line(line: &str) -> bool {
    let Some((lhs, rhs)) = line.trim().split_once(" = ") else {
        return false;
    };
    let lhs = lhs.trim();
    !lhs.is_empty()
        && lhs.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
        && rhs.contains('.')
        && rhs.trim().parse::<f64>().is_ok()
}

/// The seeded request stream: (suite index, source).
///
/// The mix is stratified so that every seed loads the service alike:
/// each block of [`BLOCK`] requests holds exactly [`REPEATS`] repeats at
/// seeded positions, each pass of edits visits every suite once, and
/// each suite's edits visit each of its editable lines once per pass,
/// all in seeded orders.
struct Stream {
    rng: Rng,
    suites: Vec<Suite>,
    sent: Vec<(usize, Arc<str>)>,
    /// Repeat positions of the current block, and edit targets left in
    /// the current pass over the suites.
    repeats: Vec<usize>,
    targets: Vec<usize>,
}

impl Stream {
    fn new(seed: u64) -> Stream {
        let suites = all_suites()
            .into_iter()
            .map(|w| {
                let lines: Vec<String> = w.source.lines().map(str::to_string).collect();
                let editable = (0..lines.len())
                    .filter(|&i| editable_line(&lines[i]))
                    .collect();
                Suite {
                    name: w.name,
                    lines,
                    editable,
                    pending: Vec::new(),
                }
            })
            .filter(|s: &Suite| !s.editable.is_empty())
            .collect();
        Stream {
            rng: Rng(seed),
            suites,
            sent: Vec::new(),
            repeats: Vec::new(),
            targets: Vec::new(),
        }
    }

    /// A seeded permutation of `0..n`.
    fn shuffled(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            v.swap(i, self.rng.below(i + 1));
        }
        v
    }

    fn next(&mut self) -> (usize, Arc<str>) {
        let n = self.sent.len();
        if n.is_multiple_of(BLOCK) {
            // The very first request cannot repeat anything.
            let lo = usize::from(n == 0);
            self.repeats = self
                .shuffled(BLOCK - lo)
                .into_iter()
                .take(REPEATS)
                .map(|p| p + lo)
                .collect();
        }
        let req = if self.repeats.contains(&(n % BLOCK)) {
            self.sent[n - 1 - self.rng.below(n.min(REPEAT_SPAN))].clone()
        } else {
            if self.targets.is_empty() {
                self.targets = self.shuffled(self.suites.len());
            }
            let si = self.targets.pop().expect("refilled above");
            if self.suites[si].pending.is_empty() {
                let order = self.shuffled(self.suites[si].editable.len());
                let s = &mut self.suites[si];
                s.pending = order.into_iter().map(|k| s.editable[k]).collect();
            }
            let s = &mut self.suites[si];
            let li = s.pending.pop().expect("refilled above");
            let value = format!("{}.{:04}", self.rng.below(100), self.rng.below(10_000));
            let line = &s.lines[li];
            let (lhs, _) = line.split_once(" = ").expect("editable lines hold ' = '");
            s.lines[li] = format!("{lhs} = {value}");
            let mut src = s.lines.join("\n");
            src.push('\n');
            (si, Arc::from(src))
        };
        self.sent.push(req.clone());
        req
    }
}

fn config() -> ServiceConfig {
    ServiceConfig {
        workers: THREADS,
        ..ServiceConfig::default()
    }
}

fn sig_hash(sig: &str) -> u64 {
    let mut h = DefaultHasher::new();
    sig.hash(&mut h);
    h.finish()
}

/// One answer, kept for the check after the timed loop.
struct Answer {
    source: Arc<str>,
    name: usize,
    served: Served,
    sig: u64,
}

fn ask(
    svc: &CompileService,
    names: &[String],
    si: usize,
    src: &Arc<str>,
) -> (Answer, SuiteOutcome, f64) {
    let t = Instant::now();
    let o = svc.compile_one(SuiteRequest::new(names[si].clone(), src.to_string()));
    let wall = ms(t.elapsed());
    let a = Answer {
        source: src.clone(),
        name: si,
        served: o.served,
        sig: sig_hash(&o.artifact.signature()),
    };
    (a, o, wall)
}

pub fn run(args: &Args, tr: &mut Tracer) -> Run {
    let mut out = Run::default();
    let base = out_dir().join(format!("store-{}", std::process::id()));
    let mut stream = Stream::new(args.seed);
    let names: Vec<String> = stream.suites.iter().map(|s| s.name.clone()).collect();
    let originals: Vec<Arc<str>> = all_suites()
        .into_iter()
        .filter(|w| names.contains(&w.name))
        .map(|w| Arc::from(w.source))
        .collect();

    // Setup, repeated: cold-compile every suite into a fresh store, drop
    // the service, reopen it from the store.
    let mut setup_s = Vec::new();
    let mut recover_ms = Vec::new();
    let mut answers: Vec<Answer> = Vec::new();
    let mut svc = None;
    for k in 0..SETUPS {
        drop(svc.take());
        let dir: PathBuf = base.join(k.to_string());
        let t = Instant::now();
        let root = tr.enter("setup", k as u64);
        let _ = std::fs::remove_dir_all(&dir);
        let s = tr.enter("service.with_store", k as u64);
        let first = CompileService::new(config()).with_store(&dir);
        tr.exit(s);
        for (si, src) in originals.iter().enumerate() {
            let s = tr.enter("service.compile_one", k as u64);
            let (a, _, _) = ask(&first, &names, si, src);
            tr.exit_tagged(s, a.served.label());
            out.check(a.served == Served::Cold, || {
                format!("{}: setup compile served {:?}", names[si], a.served)
            });
            answers.push(a);
        }
        drop(first);
        let s = tr.enter("service.with_store", k as u64);
        let r0 = Instant::now();
        let reopened = CompileService::new(config()).with_store(&dir);
        recover_ms.push(ms(r0.elapsed()));
        tr.exit_tagged(s, "recover");
        tr.exit(root);
        setup_s.push(t.elapsed().as_secs_f64());
        out.check(reopened.store_read_only_reason().is_none(), || {
            format!("store read-only: {:?}", reopened.store_read_only_reason())
        });
        svc = Some(reopened);
    }
    out.set("setup_s", quantile(&setup_s, 0.5));
    let svc = svc.expect("at least one setup");

    // Timed loop. In the traced run, even requests are traced and odd
    // requests are not.
    let before = svc.cumulative_stats();
    let mut window: Option<(ServiceStats, Run)> = None;
    let mut passes = Run::default();
    let mut ops_ms = Vec::new();
    let mut traced_ops: Vec<(bool, f64)> = Vec::new();
    let mut digest = DefaultHasher::new();
    let start = Instant::now();
    while start.elapsed() < args.seconds || ops_ms.len() < MIN_REQUESTS {
        let n = ops_ms.len();
        let traced = args.trace && n % 2 == 0;
        tr.set_on(traced);
        let (si, src) = stream.next();
        if n < COUNT_WINDOW {
            (si, &src).hash(&mut digest);
        }
        let s = tr.enter("service.compile_one", n as u64);
        let (a, o, wall) = ask(&svc, &names, si, &src);
        tr.exit_tagged(s, a.served.label());
        ops_ms.push(wall);
        traced_ops.push((traced, wall));
        if n < COUNT_WINDOW && a.served == Served::Cold {
            // A cold answer's report is the compile that just ran.
            if let Some(r) = o.artifact.compile() {
                passes.add_passes(&r.report);
            }
        }
        answers.push(a);
        if n + 1 == COUNT_WINDOW {
            window = Some((svc.cumulative_stats(), std::mem::take(&mut passes)));
        }
    }
    tr.set_on(args.trace);
    let timed_s = start.elapsed().as_secs_f64();
    let after = svc.cumulative_stats();
    out.set_timing(&ops_ms, TAIL, timed_s);
    eprintln!(
        "request stream: first {COUNT_WINDOW} requests digest {:016x}",
        digest.finish()
    );
    drop(svc);
    let _ = std::fs::remove_dir_all(&base);

    let incr = after.facts.since(&before.facts);
    out.check(incr.loop_hits > 0 && incr.loop_refusals == 0, || {
        format!(
            "value-only edits must splice and never refuse: loop hits {}, refusals {}",
            incr.loop_hits, incr.loop_refusals
        )
    });
    check_answers(&mut out, &names, &answers);

    if args.trace {
        out.set("store.recover_ms", quantile(&recover_ms, 0.5));
        out.set(
            "service.cold_ms",
            quantile(
                &tr.durations_ms("service.compile_one", |t| t == "cold"),
                0.5,
            ),
        );
        out.set(
            "service.hit_ms",
            quantile(&tr.durations_ms("service.compile_one", |t| t == "hit"), 0.5),
        );
        if let Some((w, passes)) = window {
            window_layers(&mut out, &before, &w, passes);
        }
        out.notes.push(
            "analysis.*.ops and minifort.resolve.ops on service-edits: a spliced loop's report \
             replays the ops it recorded when it was analyzed, so these count cold-equivalent \
             work; busy_ms counts only the work that ran"
                .into(),
        );
        out.set("trace.overhead_pct", overhead_pct(&traced_ops));
    }
    out
}

/// Counts over the first [`COUNT_WINDOW`] requests.
fn window_layers(out: &mut Run, before: &ServiceStats, w: &ServiceStats, passes: Run) {
    for (k, v) in passes.values {
        out.set(k, v);
    }
    let f = w.facts.since(&before.facts);
    let st = w.store.since(&before.store);
    let requests = (w.suites - before.suites) as f64;
    out.set(
        "service.result_hit_ratio",
        (w.result_hits - before.result_hits) as f64 / requests,
    );
    out.set("analysis.incr.loop_hits", f.loop_hits as f64);
    out.set("analysis.incr.loop_misses", f.loop_misses as f64);
    out.set("analysis.incr.loop_refusals", f.loop_refusals as f64);
    let lookups = (f.loop_hits + f.loop_misses + f.loop_refusals) as f64;
    out.set("analysis.incr.splice_ratio", f.loop_hits as f64 / lookups);
    out.set("analysis.cache.facts_hits", f.hits as f64);
    out.set("analysis.cache.facts_misses", f.misses as f64);
    out.set("store.appended_records", st.appended_records as f64);
    out.set("store.compactions", st.compactions as f64);
    out.set("store.bytes", st.store_bytes as f64);
    out.set("store.append_errors", st.append_errors as f64);
}

/// Compares every answer with a service-free compile of its source,
/// computed here, outside the timed loop, on [`THREADS`] threads.
fn check_answers(out: &mut Run, names: &[String], answers: &[Answer]) {
    // Repeats share their source's allocation, so its address keys it.
    let key = |a: &Answer| a.source.as_ptr() as usize;
    let mut unique: HashMap<usize, (usize, Arc<str>)> = HashMap::new();
    for a in answers {
        unique.entry(key(a)).or_insert((a.name, a.source.clone()));
    }
    let jobs: Vec<(usize, usize, Arc<str>)> =
        unique.into_iter().map(|(k, (n, s))| (k, n, s)).collect();
    let refs: HashMap<usize, u64> = std::thread::scope(|sc| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let jobs = &jobs;
                sc.spawn(move || {
                    let plain = Compiler::new(CompilerProfile::polaris2008());
                    jobs.iter()
                        .skip(t)
                        .step_by(THREADS)
                        .map(|(k, n, src)| {
                            let sig = plain
                                .compile_source_recovering(&names[*n], src)
                                .report_signature();
                            (*k, sig_hash(&sig))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference compile thread"))
            .collect()
    });
    for a in answers {
        let served_ok = matches!(a.served, Served::Cold | Served::CacheHit | Served::Deduped);
        let same = refs.get(&key(a)) == Some(&a.sig);
        out.check(served_ok && same, || {
            format!(
                "{}: served {:?}, signature equal {same}",
                names[a.name], a.served
            )
        });
    }
}
