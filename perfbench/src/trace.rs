//! Spans recorded by the traced pass, from the benchmark's side of each
//! call into a layer's public functions. Nothing here reaches inside the
//! program: a span is the wall interval of one call the benchmark makes.
//!
//! Spans stay in memory while the pass runs and are written out once,
//! as JSONL, when it ends.

use decor_exp::jsonio::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call. Spans of one run share `run`; `parent` links a call
/// to the run span that caused it.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub run: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-worker span buffer with a shared time origin.
pub struct Tracer {
    origin: Instant,
    /// Added to every id, so buffers of different workers merge without
    /// collisions.
    id_base: usize,
    pub spans: Vec<Span>,
    open: Option<usize>,
}

impl Tracer {
    pub fn new(origin: Instant, worker: usize) -> Self {
        Tracer {
            origin,
            id_base: worker << 32,
            spans: Vec::new(),
            open: None,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens the root span of run `run`, named `run`; calls traced until
    /// [`Tracer::end_run`] become its children.
    pub fn begin_run(&mut self, run: u64) {
        let id = self.id_base + self.spans.len();
        let t = self.now_ns();
        self.spans.push(Span {
            id,
            parent: None,
            run,
            name: "run".into(),
            start_ns: t,
            end_ns: t,
        });
        self.open = Some(self.spans.len() - 1);
    }

    /// Closes the open run span and returns its duration.
    pub fn end_run(&mut self) -> u64 {
        let i = self.open.take().expect("end_run without begin_run");
        self.spans[i].end_ns = self.now_ns();
        self.spans[i].dur_ns()
    }

    /// Times `f` as a child of the open run span (a root span when none
    /// is open) and returns its result with the span's duration.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, u64) {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        let (parent, run) = match self.open {
            Some(i) => (Some(self.spans[i].id), self.spans[i].run),
            None => (None, 0),
        };
        self.spans.push(Span {
            id: self.id_base + self.spans.len(),
            parent,
            run,
            name: name.to_owned(),
            start_ns: start,
            end_ns: end,
        });
        (out, end - start)
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<usize, u64> {
    let mut children: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut iv = children.remove(&s.id).unwrap_or_default();
            iv.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for (a, b) in iv {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.id, s.dur_ns().saturating_sub(covered))
        })
        .collect()
}

/// The spans as JSONL, one object per span, with self time.
pub fn to_jsonl(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::new();
    for s in spans {
        let id = |v: usize| Json::UInt(v as u64);
        Json::Obj(vec![
            ("id".into(), id(s.id)),
            ("parent".into(), s.parent.map_or(Json::Null, id)),
            ("run".into(), Json::UInt(s.run)),
            ("name".into(), Json::Str(s.name.clone())),
            ("start_ns".into(), Json::UInt(s.start_ns)),
            ("end_ns".into(), Json::UInt(s.end_ns)),
            ("self_ns".into(), Json::UInt(selfs[&s.id])),
        ])
        .render_into(&mut out);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            run: 0,
            name: "x".into(),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 20, 50),
            span(3, Some(0), 90, 120),
        ];
        let selfs = self_times(&spans);
        // Children cover [10, 50) and [90, 100): 50 of the root's 100 ns.
        assert_eq!(selfs[&0], 50);
        assert_eq!(selfs[&1], 20);
        assert_eq!(selfs[&3], 30);
    }

    #[test]
    fn tracer_nests_calls_under_the_open_run() {
        let mut t = Tracer::new(Instant::now(), 1);
        t.begin_run(7);
        let (v, _) = t.span("child", || 41 + 1);
        t.end_run();
        assert_eq!(v, 42);
        assert_eq!(t.spans[1].parent, Some(t.spans[0].id));
        assert_eq!(t.spans[1].run, 7);
        assert!(t.spans[0].id >= 1 << 32, "worker ids are disjoint");
        assert!(to_jsonl(&t.spans).lines().count() == 2);
    }
}
