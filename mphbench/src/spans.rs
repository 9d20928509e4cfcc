//! Wall-clock spans recorded by the benchmark around its own calls into
//! each layer. Spans stay in memory and are written once, at the end of
//! a traced run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Operation the span belongs to; spans of one operation share it.
    pub op: usize,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// An in-memory span recorder with a stack of open spans.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }
}

impl Spans {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span, and returns its result.
    pub fn time<R>(&mut self, name: &'static str, op: usize, f: impl FnOnce(&mut Self) -> R) -> R {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, op, parent, start_ns, end_ns: start_ns });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the time its direct
    /// children cover (children of one parent never overlap here, since
    /// the benchmark makes one call at a time).
    pub fn self_ms(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::duration_ms).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.duration_ms();
            }
        }
        own
    }

    /// Per-operation self time of each span name: `name -> [ms per op]`,
    /// summing spans of one name within an operation.
    pub fn self_ms_by_name(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let own = self.self_ms();
        let mut per: BTreeMap<(&'static str, usize), f64> = BTreeMap::new();
        for (s, ms) in self.spans.iter().zip(own) {
            *per.entry((s.name, s.op)).or_default() += ms;
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for ((name, _), ms) in per {
            out.entry(name).or_default().push(ms);
        }
        out
    }

    /// Durations of every span named `name`, in recording order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::duration_ms).collect()
    }

    /// The span file: one JSON object per span, times in milliseconds
    /// since the recorder was created.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let own = self.self_ms();
        let mut out = format!("{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": [");
        for (id, (s, self_ms)) in self.spans.iter().zip(own).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if id == 0 { "\n" } else { ",\n" };
            write!(
                out,
                "{sep}  {{\"id\": {id}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \
                 \"start_ms\": {:?}, \"end_ms\": {:?}, \"self_ms\": {self_ms:?}}}",
                s.name,
                s.op,
                s.start_ns as f64 / 1e6,
                s.end_ns as f64 / 1e6,
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut spans = Spans::default();
        spans.time("op", 0, |s| {
            s.time("a", 0, |s| {
                s.time("b", 0, |_| std::thread::sleep(std::time::Duration::from_millis(2)))
            });
            s.time("a", 0, |_| ());
        });
        let own = spans.self_ms();
        let all = spans.spans();
        assert_eq!(all.len(), 4);
        assert_eq!(all[2].parent, Some(1));
        // Self times partition the root's duration.
        let total: f64 = own.iter().sum();
        assert!((total - all[0].duration_ms()).abs() < 1e-9);
        assert!(own.iter().all(|&ms| ms >= 0.0));
        let by_name = spans.self_ms_by_name();
        assert_eq!(by_name["a"].len(), 1, "spans of one name sum within an op");
        assert!(spans.to_json("w", 1).contains("\"parent\": null"));
    }
}
