//! The harness's own span recorder: spans around its calls into the
//! layers, kept in memory and written out when the workload ends.
//!
//! Spans inside the crates are a later issue; these are recorded from the
//! benchmark's side of each public call.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span within its [`Trace`]; `NONE` marks a root.
pub type SpanId = u32;
pub const NONE: SpanId = u32::MAX;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_us: u64,
    pub end_us: u64,
    pub parent: SpanId,
    /// Spans of one request share this identifier.
    pub job: u64,
}

/// A pre-sized span buffer. Pushing beyond the capacity counts the loss
/// instead of reallocating in the timed region.
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl Trace {
    pub fn with_capacity(epoch: Instant, capacity: usize) -> Trace {
        Trace {
            epoch,
            spans: Vec::with_capacity(capacity),
            dropped: 0,
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Microseconds of `t` on this trace's clock.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_micros() as u64
    }

    /// Record one finished span; returns its id for children to name.
    pub fn push(
        &mut self,
        name: &'static str,
        start_us: u64,
        end_us: u64,
        parent: SpanId,
        job: u64,
    ) -> SpanId {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return NONE;
        }
        self.spans.push(Span {
            name,
            start_us,
            end_us: end_us.max(start_us),
            parent,
            job,
        });
        (self.spans.len() - 1) as SpanId
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Append another recorder's spans (e.g. a second client's), keeping
    /// their parent links valid.
    pub fn absorb(&mut self, other: Trace) {
        let base = self.spans.len() as SpanId;
        self.dropped += other.dropped;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NONE {
                s.parent += base;
            }
            s
        }));
    }

    /// One JSON object per line: `{name, start_us, end_us, parent, job}`
    /// (`parent` is the line index of the causing span, or null).
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = if s.parent == NONE {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_us\":{},\"end_us\":{},\"parent\":{},\"job\":{}}}",
                s.name, s.start_us, s.end_us, parent, s.job
            )?;
        }
        out.flush()
    }
}

/// The part of `parent`'s interval that none of `kids` (its direct
/// children's intervals) covers: overlapping children count once, and only
/// inside the parent's own interval.
fn uncovered_us(parent: &Span, kids: &mut [(u64, u64)]) -> u64 {
    kids.sort_unstable();
    let mut covered = 0;
    let mut reach = parent.start_us;
    for &(start, end) in kids.iter() {
        let (start, end) = (start.max(reach), end.min(parent.end_us));
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    (parent.end_us - parent.start_us) - covered
}

/// Per span name: how many, their total duration and total self time (a
/// span's duration minus what its direct children cover).
pub fn totals_by_name(spans: &[Span]) -> Vec<(&'static str, usize, u64, u64)> {
    let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NONE {
            kids[s.parent as usize].push((s.start_us, s.end_us));
        }
    }
    let mut rows: Vec<(&'static str, usize, u64, u64)> = Vec::new();
    for (s, kids) in spans.iter().zip(&mut kids) {
        let (total_us, self_us) = (s.end_us - s.start_us, uncovered_us(s, kids));
        match rows.iter_mut().find(|r| r.0 == s.name) {
            Some(row) => {
                row.1 += 1;
                row.2 += total_us;
                row.3 += self_us;
            }
            None => rows.push((s.name, 1, total_us, self_us)),
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: SpanId) -> Span {
        Span {
            name,
            start_us: start,
            end_us: end,
            parent,
            job: 1,
        }
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = vec![
            span("job", 0, 100, NONE),
            span("a", 10, 40, 0),
            span("b", 30, 60, 0),   // overlaps a by 10
            span("c", 35, 38, 0),   // nested inside a and b
            span("d", 90, 120, 0),  // sticks out of the parent by 20
            span("e", 150, 160, 0), // wholly outside the parent
            span("grandchild", 12, 20, 1),
        ];
        let self_us = |name: &str| {
            let rows = totals_by_name(&spans);
            rows.iter().find(|r| r.0 == name).unwrap().3
        };
        // Covered: [10,60) = 50 and [90,100) = 10.
        assert_eq!(self_us("job"), 40);
        // `a` has one child of 8 µs.
        assert_eq!(self_us("a"), 22);
        // A leaf's self time is its duration.
        assert_eq!(self_us("b"), 30);
    }

    #[test]
    fn totals_group_by_name() {
        let spans = vec![
            span("job", 0, 100, NONE),
            span("wait", 20, 100, 0),
            span("job", 100, 150, NONE),
            span("wait", 110, 150, 2),
        ];
        let rows = totals_by_name(&spans);
        assert_eq!(rows[0], ("job", 2, 150, 30));
        assert_eq!(rows[1], ("wait", 2, 120, 120));
    }

    #[test]
    fn full_buffer_counts_drops_and_absorb_rebases_parents() {
        let epoch = Instant::now();
        let mut a = Trace::with_capacity(epoch, 2);
        let root = a.push("job", 0, 10, NONE, 1);
        a.push("wait", 1, 9, root, 1);
        assert_eq!(a.push("late", 2, 3, root, 1), NONE);
        assert_eq!(a.dropped(), 1);

        let mut b = Trace::with_capacity(epoch, 4);
        let root = b.push("job", 20, 30, NONE, 2);
        b.push("wait", 21, 29, root, 2);
        let mut all = Trace::with_capacity(epoch, 8);
        all.absorb(a);
        all.absorb(b);
        assert_eq!(all.spans().len(), 4);
        assert_eq!(all.spans()[3].parent, 2);
        assert_eq!(all.dropped(), 1);
    }
}
