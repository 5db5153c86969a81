//! Spans of the traced run, kept in memory and written out as Chrome
//! trace-event JSON when the run ends.
//!
//! Every span is recorded from the benchmark's own files, around a call
//! into a layer; spans inside the program are a later change (ROADMAP
//! 1(b)). Times are wall-clock nanoseconds since the run started.

use std::time::Instant;

use crate::json::Json;

/// One span: a named interval, the span that caused it and the workload
/// it belongs to.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What ran.
    pub name: String,
    /// Start, ns since the run started.
    pub start_ns: u64,
    /// End, ns since the run started.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Workload the span belongs to (`layers` for the microbench pass).
    pub workload: String,
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Spans {
    /// Nanoseconds since this recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span now; `close` ends it.
    pub fn open(
        &mut self,
        name: impl Into<String>,
        parent: Option<usize>,
        workload: &str,
    ) -> usize {
        let now = self.now_ns();
        self.push(name, now, now, parent, workload)
    }

    /// End span `id` now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Record a finished span.
    pub fn push(
        &mut self,
        name: impl Into<String>,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        workload: &str,
    ) -> usize {
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            workload: workload.to_string(),
        });
        self.spans.len() - 1
    }

    /// All spans, in the order recorded.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// A span's duration minus the part of it its child spans cover
    /// (children of one span never overlap each other here: every process
    /// in the benchmark runs one thing at a time).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self
            .spans
            .iter()
            .map(|s| s.end_ns.saturating_sub(s.start_ns))
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                let covered = s
                    .end_ns
                    .min(self.spans[p].end_ns)
                    .saturating_sub(s.start_ns.max(self.spans[p].start_ns));
                own[p] = own[p].saturating_sub(covered);
            }
        }
        own
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): complete
    /// events, one row per workload.
    pub fn chrome_trace(&self) -> Json {
        let self_ns = self.self_ns();
        let mut rows: Vec<&str> = Vec::new();
        let events = self
            .spans
            .iter()
            .zip(self_ns)
            .map(|(s, own)| {
                let tid = match rows.iter().position(|w| *w == s.workload) {
                    Some(i) => i,
                    None => {
                        rows.push(&s.workload);
                        rows.len() - 1
                    }
                };
                Json::obj([
                    ("name", Json::from(s.name.as_str())),
                    ("ph", Json::from("X")),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    (
                        "dur",
                        Json::Num(s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3),
                    ),
                    ("pid", Json::from(1u64)),
                    ("tid", Json::from(tid as u64 + 1)),
                    (
                        "args",
                        Json::obj([
                            ("workload", Json::from(s.workload.as_str())),
                            ("self_us", Json::Num(own as f64 / 1e3)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::from(p as u64)),
                            ),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("displayTimeUnit", Json::from("ms")),
            ("traceEvents", Json::Arr(events)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_once() {
        let mut s = Spans::default();
        let root = s.push("workload:x", 0, 100, None, "x");
        let rep = s.push("rep:0", 10, 90, Some(root), "x");
        s.push("setup", 10, 30, Some(rep), "x");
        s.push("run", 30, 85, Some(rep), "x");
        assert_eq!(s.self_ns(), vec![20, 5, 20, 55]);
    }

    #[test]
    fn child_is_clipped_to_its_parent() {
        let mut s = Spans::default();
        let p = s.push("p", 10, 20, None, "x");
        s.push("c", 5, 50, Some(p), "x");
        assert_eq!(s.self_ns()[p], 0);
    }

    #[test]
    fn chrome_trace_has_one_complete_event_per_span() {
        let mut s = Spans::default();
        let root = s.push("layers", 0, 2_000, None, "layers");
        s.push(
            "simnet.queue.push_pop_4k_ns",
            0,
            1_000,
            Some(root),
            "layers",
        );
        s.push("workload:get_scar", 2_000, 3_000, None, "get_scar");
        let text = s.chrome_trace().render();
        let back = Json::parse(&text).unwrap();
        let events = match back.get("traceEvents") {
            Some(Json::Arr(a)) => a.clone(),
            other => panic!("traceEvents missing: {other:?}"),
        };
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].get("ph"), Some(&Json::from("X")));
        assert_eq!(events[1].get("dur").and_then(Json::as_f64), Some(1.0));
        assert_eq!(events[2].get("tid").and_then(Json::as_f64), Some(2.0));
    }
}
