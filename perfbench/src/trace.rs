//! The benchmark's own spans: recorded around its calls into each layer,
//! kept in memory, written out when the run ends, and reduced to per-layer
//! self times.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// The span that caused this one; 0 for a root.
    pub parent: u64,
    /// Request id shared by the spans of one request (0 = none).
    pub req: u64,
    /// Layer boundary name, e.g. `net.query`.
    pub name: &'static str,
    /// Start, nanoseconds since the run's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the run's origin.
    pub end_ns: u64,
    /// Whether the interval comes from durations the program reported
    /// (`Explain`) rather than from the benchmark's clock; such spans are
    /// placed at the end of their parent.
    pub derived: bool,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span recorder. A disabled tracer records nothing and
/// returns id 0.
pub struct Tracer {
    on: bool,
    origin: Instant,
    thread: u64,
    next: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder for thread slot `thread` (ids stay unique across
    /// threads sharing `origin`).
    pub fn new(on: bool, origin: Instant, thread: u64) -> Tracer {
        Tracer {
            on,
            origin,
            thread,
            next: 0,
            spans: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn push(
        &mut self,
        name: &'static str,
        parent: u64,
        req: u64,
        start_ns: u64,
        end_ns: u64,
        derived: bool,
    ) -> u64 {
        if !self.on {
            return 0;
        }
        self.next += 1;
        let id = (self.thread << 40) | self.next;
        self.spans.push(Span {
            id,
            parent,
            req,
            name,
            start_ns,
            end_ns,
            derived,
        });
        id
    }

    /// Records `[start, end]` under `parent`.
    pub fn span(
        &mut self,
        name: &'static str,
        parent: u64,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let (s, e) = (self.ns(start), self.ns(end));
        self.push(name, parent, req, s, e, false)
    }

    /// Records a child of `parent` lasting `dur_ns` that ends `gap_ns`
    /// before `parent_end` — a duration the program reported, placed at
    /// the end of the interval that contains it.
    pub fn derived(
        &mut self,
        name: &'static str,
        parent: u64,
        req: u64,
        parent_end: Instant,
        gap_ns: u64,
        dur_ns: u64,
    ) -> u64 {
        let end = self.ns(parent_end).saturating_sub(gap_ns);
        self.push(name, parent, req, end.saturating_sub(dur_ns), end, true)
    }

    /// Times `f` as a span under `parent`; returns its result and seconds.
    pub fn time<T>(&mut self, name: &'static str, parent: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.span(name, parent, 0, start, end);
        (out, (end - start).as_secs_f64())
    }

    /// A position in the record, for [`Tracer::adopt`].
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Makes `parent` the parent of every root span recorded since `mark`
    /// (children timed before their parent's interval was known).
    pub fn adopt(&mut self, mark: usize, parent: u64) {
        for s in self.spans.iter_mut().skip(mark) {
            if s.parent == 0 && s.id != parent {
                s.parent = parent;
            }
        }
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the part of it that its
/// children cover (children clipped to the parent; overlaps counted once).
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut kids: Vec<(u64, u64)> = children
                .get(&s.id)
                .map(|v| {
                    v.iter()
                        .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                        .filter(|(a, b)| a < b)
                        .collect()
                })
                .unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.id, s.dur_ns() - covered)
        })
        .collect()
}

/// Self times in microseconds of every span named `name`.
pub fn self_us(spans: &[Span], selfs: &HashMap<u64, u64>, name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| selfs[&s.id] as f64 / 1e3)
        .collect()
}

/// Writes `spans` as one JSON object per line.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"derived\":{}}}",
            s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns, s.derived
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            req: 1,
            name: "x",
            start_ns,
            end_ns,
            derived: false,
        }
    }

    #[test]
    fn self_time_subtracts_covered_children_once() {
        let spans = vec![
            span(1, 0, 0, 100),
            // Two overlapping children cover 10..50 = 40.
            span(2, 1, 10, 40),
            span(3, 1, 30, 50),
            // A child sticking out of its parent counts only inside it.
            span(4, 1, 90, 120),
            // A grandchild does not reduce the root's self time.
            span(5, 2, 12, 20),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 40 - 10);
        assert_eq!(selfs[&2], 30 - 8);
        assert_eq!(selfs[&3], 20);
        assert_eq!(selfs[&4], 30);
        assert_eq!(selfs[&5], 8);
    }

    #[test]
    fn derived_spans_end_at_their_parent() {
        let origin = Instant::now();
        let mut t = Tracer::new(true, origin, 1);
        let end = origin + std::time::Duration::from_micros(100);
        let root = t.span("net.query", 0, 7, origin, end);
        let exec = t.derived("engine.exec", root, 7, end, 0, 60_000);
        t.derived("engine.queued", root, 7, end, 60_000, 5_000);
        let spans = t.into_spans();
        let selfs = self_times(&spans);
        assert_eq!(selfs[&root], 35_000);
        assert_eq!(
            spans.iter().find(|s| s.id == exec).map(Span::dur_ns),
            Some(60_000)
        );
        assert!(spans.iter().all(|s| s.req == 7));

        let mut off = Tracer::new(false, origin, 2);
        assert_eq!(off.span("x", 0, 0, origin, end), 0);
        assert!(off.into_spans().is_empty());
    }
}
