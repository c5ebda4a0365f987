//! In-memory span recording for the traced run.
//!
//! Spans are taken in the benchmark's own code, around each call into a
//! layer's public functions; the layer is the span name's prefix before
//! the first `.` (`kernels.run` belongs to `kernels`). They stay in memory
//! until the run ends and are then written out in one file.

use splash4_parmacs::Json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within the run, starting at 1.
    pub id: u64,
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// The span this one was called from, if any.
    pub parent: Option<u64>,
    /// The request (serve) or operation this span belongs to, if any.
    pub request: Option<u64>,
}

/// Span recorder shared by every thread of a traced run.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// The layers self time is reported for, in output order.
pub const LAYERS: [&str; 8] = [
    "bench", "kernels", "reclaim", "serve", "harness", "sim", "check", "trace",
];

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`. `f` receives the new span's id,
    /// to pass as the parent of the spans it opens.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        request: Option<u64>,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        // Only uniqueness matters; `Relaxed` publishes nothing.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.spans.lock().expect("span list poisoned").push(Span {
            id,
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        out
    }

    /// Every span recorded so far, in closing order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }

    /// Self time per layer in seconds: each span's duration minus the part
    /// of its interval that its children cover (children on concurrent
    /// threads overlap, so the covered part is the union of their
    /// intervals), summed over the spans of the layer.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans();
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_ns, s.end_ns));
            }
        }
        let mut out = BTreeMap::new();
        for s in &spans {
            let covered = children.get_mut(&s.id).map_or(0, |c| union_ns(c));
            let own = (s.end_ns - s.start_ns).saturating_sub(covered);
            let layer = LAYERS
                .iter()
                .copied()
                .find(|l| s.name.split('.').next() == Some(*l))
                .unwrap_or("bench");
            *out.entry(layer).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// The spans as a JSON array of `{id, name, start_ns, end_ns, parent,
    /// request}` objects.
    pub fn to_json(&self) -> Json {
        let opt = |v: Option<u64>| v.map_or(Json::Null, |v| Json::Num(v as f64));
        Json::Array(
            self.spans()
                .into_iter()
                .map(|s| {
                    Json::Object(vec![
                        ("id".into(), Json::Num(s.id as f64)),
                        ("name".into(), Json::Str(s.name.into())),
                        ("start_ns".into(), Json::Num(s.start_ns as f64)),
                        ("end_ns".into(), Json::Num(s.end_ns as f64)),
                        ("parent".into(), opt(s.parent)),
                        ("request".into(), opt(s.request)),
                    ])
                })
                .collect(),
        )
    }
}

/// Total length of the union of `intervals` (sorted in place).
fn union_ns(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = 0;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Run `f` inside a span when a recorder is present, directly otherwise.
pub fn span<T>(
    rec: Option<&Recorder>,
    name: &'static str,
    parent: Option<u64>,
    request: Option<u64>,
    f: impl FnOnce(Option<u64>) -> T,
) -> T {
    match rec {
        Some(r) => r.span(name, parent, request, |id| f(Some(id))),
        None => f(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(union_ns(&mut [(5, 9), (0, 3), (2, 4), (8, 10)]), 9);
        let rec = Recorder::new();
        rec.span("bench.pass", None, None, |pass| {
            rec.span("kernels.run", Some(pass), None, |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let own = rec.self_seconds();
        assert!(own["kernels"] >= 0.02);
        assert!(own["bench"] < 0.01, "{own:?}");
    }
}
