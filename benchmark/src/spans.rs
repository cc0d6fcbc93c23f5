//! The benchmark's own span log: one span around every call into a
//! layer, kept in memory and written out once at exit.
//!
//! A span carries a name, the layer it entered, the cell (or job) it
//! belongs to, its start and end, and the span that caused it. A span's
//! self time is its duration minus the part of it that its children
//! cover, so the time a facade spends outside the kernel it calls (or a
//! submit spends outside `accepted`→`done`) falls out by subtraction.

use std::collections::BTreeMap;
use std::time::Instant;

use npb_core::report::json_escape;

/// One recorded interval, nanoseconds since the log's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    /// Layer entered (one of `metrics::LAYERS`).
    pub layer: &'static str,
    /// Cell or job the span belongs to; spans of one request share it.
    pub cell: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in the log.
    pub parent: Option<usize>,
    /// True when the interval was not observed at its boundaries but
    /// reconstructed from a duration the callee reported (a kernel's
    /// `time_secs` laid at the end of the call that contained it).
    pub reported: bool,
}

/// Append-only span log. Single-writer: concurrent clients each keep a
/// log of their own and the owner [`SpanLog::absorb`]s them afterwards.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog::with_epoch(Instant::now())
    }

    /// A log sharing another's time base (for a client thread).
    pub fn with_epoch(epoch: Instant) -> SpanLog {
        SpanLog { epoch, spans: Vec::new(), open: Vec::new() }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one; close it with
    /// [`SpanLog::exit`].
    pub fn enter(&mut self, layer: &'static str, name: &str, cell: &str) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            layer,
            cell: cell.to_string(),
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            reported: false,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Record an already-measured interval as a child of `parent`.
    pub fn child(
        &mut self,
        parent: usize,
        layer: &'static str,
        name: &str,
        start_ns: u64,
        end_ns: u64,
        reported: bool,
    ) -> usize {
        let cell = self.spans[parent].cell.clone();
        self.spans.push(Span {
            name: name.to_string(),
            layer,
            cell,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent: Some(parent),
            reported,
        });
        self.spans.len() - 1
    }

    /// A child of `parent` covering the last `secs` of it: where the
    /// benchmark lays a callee-reported duration (a kernel's timed
    /// section) inside the call that contained it.
    pub fn reported_tail(&mut self, parent: usize, layer: &'static str, name: &str, secs: f64) {
        let p = &self.spans[parent];
        let ns = ((secs.max(0.0) * 1e9) as u64).min(p.end_ns - p.start_ns);
        let (start, end) = (p.end_ns - ns, p.end_ns);
        self.child(parent, layer, name, start, end, true);
    }

    /// Move every span of `other` (same epoch) into this log, hanging
    /// its roots under `parent`.
    pub fn absorb(&mut self, other: SpanLog, parent: Option<usize>) {
        let offset = self.spans.len();
        for mut s in other.spans {
            s.parent = s.parent.map(|p| p + offset).or(parent);
            self.spans.push(s);
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: duration minus the union of its
    /// children's intervals, each clipped to the span.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
                if b > a {
                    kids[p].push((a, b));
                }
            }
        }
        self.spans
            .iter()
            .zip(kids.iter_mut())
            .map(|(s, iv)| {
                iv.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start_ns;
                for &(a, b) in iv.iter() {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Self seconds summed per layer.
    pub fn self_secs_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut by: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_times_ns()) {
            *by.entry(s.layer).or_default() += ns as f64 * 1e-9;
        }
        by
    }

    /// The whole log as one JSON document (`trace_<workload>.json`).
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let selfs = self.self_times_ns();
        let mut out = format!(
            "{{\"workload\":\"{}\",\"seed\":{seed},\"unit\":\"ns since the run's epoch\",\
             \"self_secs_by_layer\":{{",
            json_escape(workload)
        );
        let layers: Vec<String> = self
            .self_secs_by_layer()
            .iter()
            .map(|(layer, secs)| format!("\"{layer}\":{secs}"))
            .collect();
        out.push_str(&layers.join(","));
        out.push_str("},\"spans\":[\n");
        for (i, (s, self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "{{\"id\":{i},\"parent\":{},\"name\":\"{}\",\"layer\":\"{}\",\"cell\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns},\"reported\":{}}}",
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                json_escape(&s.name),
                s.layer,
                json_escape(&s.cell),
                s.start_ns,
                s.end_ns,
                s.reported
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s".into(),
            layer: "npb",
            cell: "c".into(),
            start_ns: start,
            end_ns: end,
            parent,
            reported: false,
        }
    }

    fn log_of(spans: Vec<Span>) -> SpanLog {
        SpanLog { epoch: Instant::now(), spans, open: Vec::new() }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let log = log_of(vec![
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(50, 90, Some(0)),
            span(55, 60, Some(2)),
        ]);
        assert_eq!(log.self_times_ns(), vec![40, 20, 35, 5]);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped() {
        // Two concurrent clients under one phase span, one of them
        // running past the phase's end.
        let log = log_of(vec![span(0, 100, None), span(10, 60, Some(0)), span(40, 130, Some(0))]);
        assert_eq!(log.self_times_ns()[0], 10);
    }

    #[test]
    fn enter_exit_nest_and_reported_tail_sits_at_the_end() {
        let mut log = SpanLog::new();
        let outer = log.enter("npb", "call", "BT/S/serial");
        let inner = log.enter("kernel", "inner", "BT/S/serial");
        log.exit(inner);
        log.exit(outer);
        assert_eq!(log.spans()[inner].parent, Some(outer));
        assert_eq!(log.spans()[outer].parent, None);
        let mut log = log_of(vec![span(1_000, 5_000, None)]);
        log.reported_tail(0, "kernel", "timed", 1e-6);
        let tail = &log.spans()[1];
        assert_eq!((tail.start_ns, tail.end_ns, tail.reported), (4_000, 5_000, true));
        assert_eq!(log.self_times_ns()[0], 3_000);
        // A reported duration longer than the call is clipped to it.
        log.reported_tail(0, "kernel", "timed", 1.0);
        assert_eq!(log.spans()[2].start_ns, 1_000);
    }

    #[test]
    fn absorb_rebases_parents() {
        let mut main = log_of(vec![span(0, 100, None)]);
        let client = log_of(vec![span(10, 50, None), span(20, 30, Some(0))]);
        main.absorb(client, Some(0));
        assert_eq!(main.spans()[1].parent, Some(0));
        assert_eq!(main.spans()[2].parent, Some(1));
        assert_eq!(main.self_times_ns(), vec![60, 30, 10]);
    }
}
