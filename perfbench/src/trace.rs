//! The span recorder of the traced run.
//!
//! Every call the benchmark makes into a layer goes through
//! [`Tracer::begin`]/[`Tracer::end`], which always time it; with tracing on
//! they also record a [`Span`] (name, start, end, parent, job id). Spans
//! stay in memory until [`Tracer::write_tsv`] writes them once at exit.
//! Recording happens on the benchmark's own thread only, so spans nest
//! strictly and a parent's child time is the sum of its children.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// `"<layer>/<call>"`, e.g. `"rcpn::engine/CaSim::run"`.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The benchmark job the call belongs to (0 for set-up and replays).
    pub job: u64,
}

impl Span {
    /// The layer half of the name.
    fn layer(&self) -> &'static str {
        self.name.split_once('/').map_or(self.name, |(layer, _)| layer)
    }

    fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An open span returned by [`Tracer::begin`].
#[must_use = "close the span with Tracer::end"]
pub struct Open {
    start: Instant,
    idx: Option<usize>,
}

/// Times layer calls and, when on, records them as spans.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder; `on = false` only times.
    pub fn new(on: bool) -> Tracer {
        Tracer { on, origin: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    /// Switches recording on or off (open spans are unaffected).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Opens a span around a call into a layer.
    pub fn begin(&mut self, name: &'static str, job: u64) -> Open {
        let idx = self.on.then(|| {
            let start_ns = self.origin.elapsed().as_nanos() as u64;
            let parent = self.stack.last().copied();
            self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, job });
            let idx = self.spans.len() - 1;
            self.stack.push(idx);
            idx
        });
        Open { start: Instant::now(), idx }
    }

    /// Closes a span; returns its duration in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let secs = open.start.elapsed().as_secs_f64();
        if let Some(idx) = open.idx {
            self.spans[idx].end_ns = self.origin.elapsed().as_nanos() as u64;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(idx), "spans close in nesting order");
        }
        secs
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-layer `(spans, total ns, self ns)`: self time is each span's
    /// duration minus the time its child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        let mut rows: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let row = rows.entry(s.layer()).or_default();
            row.0 += 1;
            row.1 += s.ns();
            row.2 += s.ns().saturating_sub(child);
        }
        rows
    }

    /// Writes every span as a tab-separated line
    /// (`index parent job name start_ns end_ns`).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index\tparent\tjob\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(out, "{i}\t{parent}\t{}\t{}\t{}\t{}", s.job, s.name, s.start_ns, s.end_ns)?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let outer = t.begin("a/outer", 1);
        let inner = t.begin("b/inner", 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(inner);
        t.end(outer);
        let rows = t.self_times();
        let (n_a, total_a, self_a) = rows["a"];
        let (_, total_b, self_b) = rows["b"];
        assert_eq!(n_a, 1);
        assert_eq!(total_b, self_b, "a leaf's self time is its duration");
        assert_eq!(self_a, total_a - total_b);
        assert_eq!(t.spans()[1].parent, Some(0));
    }

    #[test]
    fn off_times_without_recording() {
        let mut t = Tracer::new(false);
        let o = t.begin("a/x", 0);
        assert!(t.end(o) >= 0.0);
        assert!(t.spans().is_empty());
    }
}
