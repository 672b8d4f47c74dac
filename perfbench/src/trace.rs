//! In-memory span recorder for the traced run.
//!
//! Each span covers one public library call (or a benchmark-level
//! grouping of calls): a name, start and end offsets from the recorder's
//! epoch, the span that was open when it started, and the request it
//! belongs to. Spans stay in memory and are written out once, when the
//! run ends. A disabled recorder does nothing, so the untraced run pays
//! one branch per call site.

use std::fs;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

use apar_core::jsonio::Json;

pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
    pub req: u64,
    /// Free-form label set at exit (served class, suite name).
    pub tag: String,
}

impl Span {
    pub fn dur(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Handle returned by [`Tracer::enter`]; `None` when tracing is off.
#[must_use]
pub struct Open(Option<usize>);

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    on: bool,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            on,
        }
    }

    /// Turns recording on or off between operations (the traced run
    /// alternates traced and untraced operations to measure overhead).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn enter(&mut self, name: &'static str, req: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.epoch.elapsed(),
            end: Duration::ZERO,
            parent: self.stack.last().copied(),
            req,
            tag: String::new(),
        });
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn exit(&mut self, open: Open) {
        self.exit_tagged(open, "");
    }

    pub fn exit_tagged(&mut self, open: Open, tag: &str) {
        let Some(id) = open.0 else { return };
        self.spans[id].end = self.epoch.elapsed();
        self.spans[id].tag.push_str(tag);
        if let Some(pos) = self.stack.iter().rposition(|&s| s == id) {
            self.stack.truncate(pos);
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// For every span named `root`, the summed duration in milliseconds
    /// of its descendants named `name` whose tag passes `keep`.
    pub fn per_root_ms(&self, root: &str, name: &str, keep: impl Fn(&str) -> bool) -> Vec<f64> {
        let mut sums: Vec<(usize, f64)> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == root)
            .map(|(i, _)| (i, 0.0))
            .collect();
        for s in self.spans.iter().filter(|s| s.name == name && keep(&s.tag)) {
            let mut p = s.parent;
            while let Some(i) = p {
                if self.spans[i].name == root {
                    if let Some(slot) = sums.iter_mut().find(|(r, _)| *r == i) {
                        slot.1 += ms(s.dur());
                    }
                    break;
                }
                p = self.spans[i].parent;
            }
        }
        sums.into_iter().map(|(_, v)| v).collect()
    }

    /// Durations in milliseconds of the spans named `name` whose tag
    /// passes `keep`.
    pub fn durations_ms(&self, name: &str, keep: impl Fn(&str) -> bool) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && keep(&s.tag))
            .map(|s| ms(s.dur()))
            .collect()
    }

    /// Self time of every span: its duration minus the part its direct
    /// children cover (children never overlap; the recorder is used from
    /// one thread).
    pub fn self_times(&self) -> Vec<Duration> {
        let mut child = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur().saturating_sub(c))
            .collect()
    }

    /// Writes one JSON object per span (JSON Lines) to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(fs::File::create(path)?);
        for (i, (s, own)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = s.parent.map_or(Json::Int(-1), |p| Json::Int(p as i64));
            let line = Json::Obj(vec![
                ("id", Json::Int(i as i64)),
                ("name", Json::Str(s.name.to_string())),
                ("req", Json::Int(s.req as i64)),
                ("parent", parent),
                ("start_us", Json::Num(us(s.start))),
                ("end_us", Json::Num(us(s.end))),
                ("self_us", Json::Num(us(own))),
                ("tag", Json::Str(s.tag.clone())),
            ]);
            writeln!(out, "{}", line.render_compact())?;
        }
        out.flush()
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}
