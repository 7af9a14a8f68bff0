//! In-memory span recorder for the traced pass.
//!
//! A span covers one call into a simulator layer, timed from the
//! benchmark's side of the call. Spans stay in memory while the
//! benchmark runs and are written out as JSON once it ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed layer call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `multigpu.run`.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Simulation the span belongs to (all spans of one cell share it);
    /// `None` for a span covering many cells.
    pub cell: Option<usize>,
    /// Traced pass the span belongs to.
    pub pass: usize,
}

impl Span {
    fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Span store shared by every traced pass of one workload.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    pass: usize,
}

impl Spans {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            pass: 0,
        }
    }

    /// Starts a new traced pass; later spans are tagged with it.
    pub fn next_pass(&mut self) {
        self.pass += 1;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("benchmark runs for < 584 years")
    }

    /// Opens a span and returns its index for [`Spans::close`] and as a
    /// parent of nested spans.
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        cell: Option<usize>,
    ) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            cell,
            pass: self.pass,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Per traced pass: total seconds in spans called `name`, minus the
    /// time their direct children cover (the layer's self time).
    pub fn self_secs_by_pass(&self, name: &str) -> Vec<f64> {
        let mut children = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p] += s.secs();
            }
        }
        let mut by_pass = vec![0.0; self.pass];
        for (s, kids) in self.spans.iter().zip(&children) {
            if s.name == name {
                by_pass[s.pass - 1] += s.secs() - kids;
            }
        }
        by_pass
    }

    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = format!("{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let or_null = |v: Option<usize>| v.map_or_else(|| "null".to_owned(), |v| v.to_string());
            let (parent, cell) = (or_null(s.parent), or_null(s.cell));
            write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"cell\":{cell},\"pass\":{}}}",
                s.name, s.start_ns, s.end_ns, s.pass
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("\n]}\n");
        out
    }
}
