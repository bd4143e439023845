//! Benchmark-level spans: one per call the benchmark makes into a layer
//! (workload, set-up, runner call, microbenchmark batch), each with its
//! parent. They are kept in memory and written out once, at the end.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Debug)]
struct Span {
    name: String,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: Option<u64>,
}

/// A span recorder. A disabled recorder records nothing, so untraced runs
/// pay no tracing cost.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span, closed with [`Spans::exit`].
#[must_use]
pub struct SpanId(Option<usize>);

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn enter(&mut self, name: impl Into<String>) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.into(),
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: None,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = Some(self.now_ns());
    }

    /// Self time of each closed span, in nanoseconds: its duration minus
    /// the part its children cover, summed by span name in first-seen
    /// order.
    pub fn self_times(&self) -> Vec<(String, u64)> {
        let dur = |s: &Span| s.end_ns.map_or(0, |e| e - s.start_ns);
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += dur(s);
            }
        }
        let mut out: Vec<(String, u64)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = dur(s).saturating_sub(child_ns[i]);
            match out.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, ns)) => *ns += own,
                None => out.push((s.name.clone(), own)),
            }
        }
        out
    }

    /// The spans as a JSON array of `{id, name, parent, start_ns, end_ns}`.
    pub fn to_json(&self) -> String {
        let mut s = String::from("[\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let end = sp.end_ns.map_or("null".to_string(), |e| e.to_string());
            let _ = write!(
                s,
                "  {{\"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {end}}}",
                sp.name, sp.start_ns
            );
            s.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push(']');
        s
    }
}
