//! The flight recorder: a bounded ring of recent fine-grained operations,
//! dumped into the trace when a run dies.
//!
//! A budget abort, a blown deadline or a panic leaves the summary-level
//! trace without the one thing a postmortem needs: *what the BDD core was
//! doing right before the wall*. The recorder keeps the last
//! [`FlightRecorder::capacity`] operations (apply-step windows, garbage
//! collections, reordering passes, cache evictions) in a fixed ring —
//! recording is two array writes, no allocation, no locking — and
//! [`FlightRecorder::dump`] splices them into a [`Tracer`] as ordinary
//! `record` events: one `flight.dump` header (reason, counts) followed by
//! one `flight.op` per retained operation, oldest first.
//!
//! Dumped events go through the tracer's normal sequence numbering, so a
//! stream with a spliced-in dump still validates (including the strict
//! `seq` monotonicity check in [`crate::schema::validate_stream`]), and a
//! [sink](crate::sink) streams the dump to disk before the process dies.

use crate::{AttrValue, Tracer};

/// One recorded operation. `a`/`b` are kind-specific payloads:
///
/// | `kind`         | `a`               | `b`                        |
/// |----------------|-------------------|----------------------------|
/// | `apply_window` | live nodes        | cache evictions (delta)    |
/// | `gc`           | nodes freed       | live nodes after           |
/// | `reorder`      | live nodes before | live nodes after           |
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightOp {
    /// Cumulative apply-step count when the operation was recorded.
    pub step: u64,
    /// Operation kind (see table above).
    pub kind: &'static str,
    /// First kind-specific payload.
    pub a: u64,
    /// Second kind-specific payload.
    pub b: u64,
}

/// A fixed-capacity ring buffer of [`FlightOp`]s (capacity 0 = disabled).
#[derive(Debug, Default, Clone)]
pub struct FlightRecorder {
    ops: Vec<FlightOp>,
    /// Index of the next slot to overwrite once the ring is full.
    head: usize,
    capacity: usize,
    total: u64,
}

/// Ring capacity armed by default for traced runs: enough tail to see the
/// growth pattern that led into an abort, small enough to be free.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 256;

impl FlightRecorder {
    /// A disabled recorder: records nothing, dumps nothing.
    pub fn disabled() -> Self {
        FlightRecorder::default()
    }

    /// A recorder retaining the most recent `capacity` operations.
    pub fn with_capacity(capacity: usize) -> Self {
        FlightRecorder { ops: Vec::with_capacity(capacity), head: 0, capacity, total: 0 }
    }

    /// Whether operations are being retained.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// The configured ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Operations ever recorded (including those already overwritten).
    pub fn total_recorded(&self) -> u64 {
        self.total
    }

    /// Record one operation (a no-op when disabled).
    #[inline]
    pub fn record(&mut self, op: FlightOp) {
        if self.capacity == 0 {
            return;
        }
        self.total += 1;
        if self.ops.len() < self.capacity {
            self.ops.push(op);
        } else {
            self.ops[self.head] = op;
            self.head = (self.head + 1) % self.capacity;
        }
    }

    /// The retained operations, oldest first.
    pub fn recent(&self) -> Vec<FlightOp> {
        let mut out = Vec::with_capacity(self.ops.len());
        out.extend_from_slice(&self.ops[self.head..]);
        out.extend_from_slice(&self.ops[..self.head]);
        out
    }

    /// Forget everything recorded so far (capacity is kept).
    pub fn clear(&mut self) {
        self.ops.clear();
        self.head = 0;
        self.total = 0;
    }

    /// Splices the retained tail into `tracer` as a `flight.dump` record
    /// (reason, retained and dropped counts) followed by one `flight.op`
    /// record per operation, oldest first. No-op when the recorder is
    /// disabled, the tracer is disabled, or nothing was recorded.
    pub fn dump(&self, tracer: &Tracer, reason: &str) {
        if !self.enabled() || !tracer.enabled() || self.ops.is_empty() {
            return;
        }
        let recent = self.recent();
        tracer.record_event(
            "flight.dump",
            vec![
                ("reason".to_string(), AttrValue::Str(reason.to_string())),
                ("ops".to_string(), AttrValue::U64(recent.len() as u64)),
                ("dropped".to_string(), AttrValue::U64(self.total - recent.len() as u64)),
            ],
        );
        for op in recent {
            tracer.record_event(
                "flight.op",
                vec![
                    ("step".to_string(), AttrValue::U64(op.step)),
                    ("kind".to_string(), AttrValue::Str(op.kind.to_string())),
                    ("a".to_string(), AttrValue::U64(op.a)),
                    ("b".to_string(), AttrValue::U64(op.b)),
                ],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{schema, TraceEvent};

    fn op(step: u64) -> FlightOp {
        FlightOp { step, kind: "apply_window", a: step * 2, b: 0 }
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let mut r = FlightRecorder::disabled();
        assert!(!r.enabled());
        r.record(op(1));
        assert!(r.recent().is_empty());
        let t = Tracer::new();
        r.dump(&t, "why");
        assert_eq!(t.finish().events().len(), 1, "only the meta header");
    }

    #[test]
    fn ring_keeps_the_most_recent_ops_in_order() {
        let mut r = FlightRecorder::with_capacity(4);
        for s in 1..=10 {
            r.record(op(s));
        }
        let steps: Vec<u64> = r.recent().iter().map(|o| o.step).collect();
        assert_eq!(steps, vec![7, 8, 9, 10]);
        assert_eq!(r.total_recorded(), 10);
        r.clear();
        assert!(r.recent().is_empty());
        r.record(op(11));
        assert_eq!(r.recent().len(), 1);
    }

    #[test]
    fn dump_emits_header_then_ops_and_validates() {
        let mut r = FlightRecorder::with_capacity(3);
        for s in 1..=5 {
            r.record(op(s));
        }
        let t = Tracer::new();
        {
            let _work = t.span("aborted.work");
            r.dump(&t, "budget exceeded: steps");
        }
        let trace = t.finish();
        let records: Vec<_> = trace
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Record { name, attrs, .. } => Some((name.as_str(), attrs.clone())),
                _ => None,
            })
            .collect();
        assert_eq!(records.len(), 4);
        assert_eq!(records[0].0, "flight.dump");
        let dump_attrs = &records[0].1;
        assert!(dump_attrs.iter().any(|(k, v)| k == "ops" && *v == AttrValue::U64(3)));
        assert!(dump_attrs.iter().any(|(k, v)| k == "dropped" && *v == AttrValue::U64(2)));
        assert!(records[1..].iter().all(|(n, _)| *n == "flight.op"));
        schema::validate_stream(&trace.to_jsonl()).expect("spliced dump stays valid");
    }
}
