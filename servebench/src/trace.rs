//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end, a parent and a request id. Spans
//! are only recorded, never printed, while the run is timed; [`Tracer::write`]
//! dumps them when the run ends. A layer's figure is its *self time*:
//! the span's duration minus the part of it its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub parent: Option<usize>,
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// What the call worked on, where one number says it (`k` of a
    /// selection); 0 otherwise.
    pub arg: u64,
}

/// Records spans in memory. `begin`/`end` nest: a span begun while
/// another is open becomes its child.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn begin(&mut self, req: u64, name: &'static str) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            parent: self.open.last().copied(),
            req,
            name,
            start_ns,
            end_ns: start_ns,
            arg: 0,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: usize) {
        let popped = self.open.pop();
        assert_eq!(popped, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a leaf span and returns its result.
    pub fn leaf<T>(&mut self, req: u64, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.leaf_arg(req, name, 0, f)
    }

    /// [`Tracer::leaf`] with the span's `arg` set.
    pub fn leaf_arg<T>(
        &mut self,
        req: u64,
        name: &'static str,
        arg: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(req, name);
        let out = f();
        self.end(id);
        self.spans[id].arg = arg;
        out
    }

    /// Adds a finished span (tests build span trees by hand).
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Moves `other`'s spans in, keeping their tree intact.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of each span, grouped by span name.
    pub fn self_by_name(&self) -> BTreeMap<&'static str, Vec<u64>> {
        let selfs = self_times(&self.spans);
        let mut out: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for (span, s) in self.spans.iter().zip(selfs) {
            out.entry(span.name).or_default().push(s);
        }
        out
    }

    /// Writes every span as tab-separated
    /// `id parent req name start end arg`.
    pub fn write(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "id\tparent\treq\tname\tstart_ns\tend_ns\targ")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                s.req, s.name, s.start_ns, s.end_ns, s.arg
            )?;
        }
        Ok(())
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, each clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}
