//! The benchmark's own span recorder.
//!
//! Spans are recorded from the benchmark's files only, around the calls
//! into each crate's public functions; nothing inside `crates/` is
//! instrumented. A span carries its name, start, end, the span that
//! caused it and the id of the operation (rep, epoch, step or solve) it
//! belongs to. Spans are held in memory and written out, as JSON lines,
//! when the run ends. A disabled tracer records nothing, so the same code
//! runs untraced for the overhead comparison.

use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span (the parent link of its children).
pub type SpanId = u32;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-boundary name, e.g. `traces.generate`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created; 0 while still open.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Operation id shared by every span of one rep / epoch / step.
    pub op: u64,
}

impl Span {
    /// Wall duration of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Token for an open span; `None` inside when the tracer is disabled.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<SpanId>);

impl Open {
    /// The id to pass as a child's parent.
    pub fn id(self) -> Option<SpanId> {
        self.0
    }
}

/// In-memory span recorder, shareable across the bench's own threads.
pub struct Tracer {
    origin: Instant,
    spans: Option<Mutex<Vec<Span>>>,
}

impl Tracer {
    /// A recording tracer.
    pub fn enabled() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Some(Mutex::new(Vec::new())),
        }
    }

    /// A tracer whose `begin`/`end` do nothing.
    pub fn disabled() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: None,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span.
    pub fn begin(&self, name: &'static str, parent: Option<SpanId>, op: u64) -> Open {
        let Some(spans) = &self.spans else {
            return Open(None);
        };
        let mut spans = spans.lock().expect("no bench thread panics holding spans");
        spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent,
            op,
        });
        Open(Some((spans.len() - 1) as SpanId))
    }

    /// Close a span opened by [`Tracer::begin`].
    pub fn end(&self, open: Open) {
        let (Some(spans), Some(id)) = (&self.spans, open.0) else {
            return;
        };
        let end = self.now_ns();
        spans.lock().expect("no bench thread panics holding spans")[id as usize].end_ns = end;
    }

    /// Time `f` under a span.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let open = self.begin(name, parent, op);
        let r = f();
        self.end(open);
        r
    }

    /// A copy of everything recorded so far.
    pub fn snapshot(&self) -> Vec<Span> {
        match &self.spans {
            Some(spans) => spans
                .lock()
                .expect("no bench thread panics holding spans")
                .clone(),
            None => Vec::new(),
        }
    }
}

/// Durations, in nanoseconds, of every span called `name`.
pub fn durations_ns(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64)
        .collect()
}

/// Summed duration, in nanoseconds, of every span called `name`.
pub fn total_ns(spans: &[Span], name: &str) -> f64 {
    durations_ns(spans, name).iter().sum()
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover. Children on parallel threads may overlap,
/// so the cover is the union of their intervals, clipped to the parent.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[p as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for &(start, end) in kids.iter() {
                let from = start.max(reach);
                if end > from {
                    covered += end - from;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Write spans as JSON lines: `id`, `name`, `start_ns`, `end_ns`,
/// `parent` (null at a root), `op`, `self_ns`.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let self_ns = self_times_ns(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, (s, self_ns)) in spans.iter().zip(&self_ns).enumerate() {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{},\"self_ns\":{self_ns}}}",
            s.name, s.start_ns, s.end_ns, s.op
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = vec![
            span(0, 100, None),     // root
            span(10, 30, Some(0)),  // child
            span(20, 50, Some(0)),  // overlaps the first child (parallel thread)
            span(70, 80, Some(0)),  // disjoint child
            span(22, 28, Some(2)),  // grandchild: only its parent's cover
            span(90, 120, Some(0)), // runs past the root: clipped to it
        ];
        let self_ns = self_times_ns(&spans);
        // Root: 100 − (|10..50| + |70..80| + |90..100|) = 100 − 60.
        assert_eq!(self_ns[0], 40);
        assert_eq!(self_ns[1], 20);
        assert_eq!(self_ns[2], 30 - 6);
        assert_eq!(self_ns[3], 10);
        assert_eq!(self_ns[4], 6);
        assert_eq!(self_ns[5], 30);
    }

    #[test]
    fn tracer_links_parents_and_a_disabled_one_records_nothing() {
        let t = Tracer::enabled();
        let root = t.begin("root", None, 7);
        t.span("child", root.id(), 7, || std::hint::black_box(1 + 1));
        t.end(root);
        let spans = t.snapshot();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].op, 7);
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert_eq!(durations_ns(&spans, "child").len(), 1);
        assert!(total_ns(&spans, "root") >= total_ns(&spans, "child"));

        let off = Tracer::disabled();
        let open = off.begin("root", None, 0);
        assert_eq!(open.id(), None);
        off.end(open);
        assert!(off.snapshot().is_empty());
    }
}
