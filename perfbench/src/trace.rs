//! In-memory span recording for the traced run.
//!
//! A span is a named interval of one request, optionally nested in
//! another span. Spans stay in memory until the run ends; then they are
//! written out and summarised (duration percentiles and self time per
//! name, where self time is a span's duration minus the part its direct
//! children cover).

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

use crate::stats::Samples;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// The timed call (`layer.operation`).
    pub name: &'static str,
    /// The request the span belongs to.
    pub request: u32,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
}

impl Span {
    /// The span's length in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when enabled; otherwise only runs the timed closures.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or passes calls straight through.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` of `request`; spans opened by
    /// `f` through the tracer it receives become its children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u32,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len() as u32;
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            request,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index as usize].end_ns = self.now_ns();
        out
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations, in microseconds, of every span named `name`.
    pub fn durations_us(&self, name: &str) -> Samples {
        let mut samples = Samples::new();
        for span in self.spans.iter().filter(|s| s.name == name) {
            samples.push(span.duration_ns() as f64 / 1e3);
        }
        samples
    }

    /// Self time of every span: its duration minus its direct children's.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent as usize] += span.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(span, children)| span.duration_ns().saturating_sub(children))
            .collect()
    }

    /// Per span name: (count, total duration, total self time), in ns.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut summary: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            let entry = summary.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += span.duration_ns();
            entry.2 += self_ns;
        }
        summary
    }

    /// Writes every span as a tab-separated line: index, request, name,
    /// start, end, parent (`-` for roots) and self time, in ns.
    pub fn write_tsv(&self, out: &mut impl Write) -> io::Result<()> {
        writeln!(
            out,
            "span\trequest\tname\tstart_ns\tend_ns\tparent\tself_ns"
        )?;
        for (index, (span, self_ns)) in self.spans.iter().zip(self.self_times_ns()).enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{index}\t{}\t{}\t{}\t{}\t{parent}\t{self_ns}",
                span.request, span.name, span.start_ns, span.end_ns
            )?;
        }
        Ok(())
    }
}
