//! Spans of the traced run: kept in memory while it runs, folded into
//! per-layer numbers and written as a Chrome trace when it ends.

use std::time::Instant;

pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub parent: Option<SpanId>,
    /// Index of the trial this span belongs to, shared by all its spans.
    pub trial: Option<usize>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span starting now; [`Spans::close`] ends it.
    pub fn open(&mut self, parent: Option<SpanId>, trial: Option<usize>, name: &str) -> SpanId {
        let now = self.now_ns();
        self.add(parent, trial, name, now, now)
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Records a span whose interval is already known — how accumulated
    /// phase totals become children of the span they were measured in.
    pub fn add(
        &mut self,
        parent: Option<SpanId>,
        trial: Option<usize>,
        name: &str,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        self.spans.push(Span {
            parent,
            trial,
            name: name.to_string(),
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    pub fn get(&self, id: SpanId) -> &Span {
        &self.spans[id]
    }

    /// Seconds covered by all spans called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        ns as f64 / 1e9
    }

    /// A span's self time: its duration minus the part of that interval
    /// its child spans cover (children may overlap or nest).
    pub fn self_ns(&self, id: SpanId) -> u64 {
        let span = &self.spans[id];
        let mut covered: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
            .filter(|(s, e)| s < e)
            .collect();
        covered.sort_unstable();
        let mut union = 0;
        let mut reach = span.start_ns;
        for (s, e) in covered {
            if e > reach {
                union += e - s.max(reach);
                reach = e;
            }
        }
        (span.end_ns - span.start_ns) - union
    }

    /// Seconds of self time over all spans called `name`.
    pub fn self_s(&self, name: &str) -> f64 {
        let ns: u64 = (0..self.spans.len())
            .filter(|&id| self.spans[id].name == name)
            .map(|id| self.self_ns(id))
            .sum();
        ns as f64 / 1e9
    }

    /// The spans as Chrome trace-event JSON (complete `X` events, µs),
    /// loadable in `chrome://tracing` or Perfetto.
    pub fn chrome_trace(&self) -> String {
        let events: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
                format!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                     \"args\":{{\"id\":{id},\"parent\":{},\"trial\":{}}}}}",
                    s.name,
                    s.start_ns as f64 / 1e3,
                    (s.end_ns - s.start_ns) as f64 / 1e3,
                    opt(s.parent),
                    opt(s.trial),
                )
            })
            .collect();
        format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Spans::new();
        let root = t.add(None, None, "run", 100, 1100);
        // Two overlapping children cover [200, 500).
        t.add(Some(root), None, "a", 200, 400);
        t.add(Some(root), None, "b", 300, 500);
        // One nested inside another: [600, 900) counts once.
        let outer = t.add(Some(root), None, "c", 600, 900);
        t.add(Some(root), None, "d", 700, 800);
        // A grandchild is the child's business, not the root's.
        t.add(Some(outer), None, "e", 650, 850);
        // A child sticking out past the parent is clipped to it.
        t.add(Some(root), None, "f", 1050, 1300);
        assert_eq!(t.self_ns(root), 1000 - 300 - 300 - 50);
        assert_eq!(t.self_ns(outer), 300 - 200);
        assert_eq!(t.self_s("run"), 350e-9);
        assert_eq!(t.total_s("c"), 300e-9);
    }

    #[test]
    fn chrome_trace_lists_every_span() {
        let mut t = Spans::new();
        let root = t.add(None, None, "workload", 0, 2000);
        t.add(Some(root), Some(3), "run", 500, 1500);
        let json = t.chrome_trace();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains(
            "\"name\":\"run\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":0.500,\"dur\":1.000"
        ));
        assert!(json.contains("\"args\":{\"id\":1,\"parent\":0,\"trial\":3}"));
        assert!(json.contains("\"parent\":null,\"trial\":null"));
    }
}
