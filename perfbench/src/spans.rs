//! In-memory span recorder for the traced run.
//!
//! The benchmark records a span around each call it makes into a layer's
//! public API: name, start, end, the enclosing span and the repetition
//! it belongs to. Spans stay in memory and are written once, at exit.
//! A disabled recorder times nothing and records nothing, so untraced
//! repetitions pay one branch per call.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Repetition (run id) the span belongs to.
    pub rep: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in [`Spans::spans`].
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

pub struct Spans {
    enabled: bool,
    epoch: Instant,
    rep: u32,
    open: Vec<usize>,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            epoch: Instant::now(),
            rep: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Tags the spans recorded from now on with repetition `rep`.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    /// Runs `f` inside a span named `name`. `f` receives the recorder so
    /// it can open child spans.
    pub fn within<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            rep: self.rep,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// [`Spans::within`] for a call that opens no child spans.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.within(name, |_| f())
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Durations (s) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_s)
            .collect()
    }

    /// Per repetition, the summed duration (s) of the spans named `name`.
    pub fn total_per_rep(&self, name: &str) -> Vec<f64> {
        let mut per_rep: Vec<(u32, f64)> = Vec::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            match per_rep.iter_mut().find(|(r, _)| *r == s.rep) {
                Some((_, t)) => *t += s.dur_s(),
                None => per_rep.push((s.rep, s.dur_s())),
            }
        }
        per_rep.into_iter().map(|(_, t)| t).collect()
    }

    /// Per repetition, the summed self time (s) of the spans named
    /// `name`: each span's duration minus the time its direct children
    /// cover. Repetitions without such a span are left out.
    pub fn self_time_per_rep(&self, name: &str) -> Vec<f64> {
        let mut child_s = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_s[p] += s.dur_s();
            }
        }
        let mut per_rep: Vec<(u32, f64)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.name != name {
                continue;
            }
            let own = s.dur_s() - child_s[i];
            match per_rep.iter_mut().find(|(r, _)| *r == s.rep) {
                Some((_, t)) => *t += own,
                None => per_rep.push((s.rep, own)),
            }
        }
        per_rep.into_iter().map(|(_, t)| t).collect()
    }

    /// Writes every span as one JSON line (times in ns since the
    /// recorder was created).
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"workload\":\"{workload}\",\"rep\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.rep, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
