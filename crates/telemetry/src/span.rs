//! Hierarchical timed spans.
//!
//! A span is an interval on the pipeline's wall clock with a name, a
//! parent, and a depth. Spans are recorded into a flat table in *start*
//! order, so the table is a pre-order traversal of the span tree — the
//! order assertions in tests and the Chrome-trace exporter both rely on
//! this.
//!
//! One collector may be shared by several threads (the daemon's workers
//! record every request into one handle). Each open span is tagged with
//! the thread that opened it, and nesting is per thread: a new span's
//! parent is the innermost span still open *on the same thread*, so
//! concurrent threads never adopt or close each other's spans.

use std::thread::{self, ThreadId};

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span name (a pipeline phase: `lex`, `regalloc`, `nop_pass`, …).
    pub name: String,
    /// Index of the enclosing span in the span table, if any.
    pub parent: Option<usize>,
    /// Nesting depth; root spans have depth 0.
    pub depth: u32,
    /// Start time in nanoseconds since the collector's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds (0 until the span closes).
    pub dur_ns: u64,
    /// `true` once the span has closed.
    pub closed: bool,
}

/// The span table plus the currently open spans, in opening order, each
/// with the thread that opened it.
#[derive(Debug, Default)]
pub(crate) struct SpanTable {
    pub(crate) spans: Vec<SpanRecord>,
    open: Vec<(ThreadId, usize)>,
}

impl SpanTable {
    /// The innermost span open on thread `me`.
    fn innermost(&self, me: ThreadId) -> Option<usize> {
        self.open
            .iter()
            .rev()
            .find(|&&(t, _)| t == me)
            .map(|&(_, idx)| idx)
    }

    /// Opens a span named `name` at `now_ns` under the calling thread's
    /// innermost open span, returning its index.
    pub(crate) fn open(&mut self, name: &str, now_ns: u64) -> usize {
        let me = thread::current().id();
        let parent = self.innermost(me);
        let idx = self.spans.len();
        self.spans.push(SpanRecord {
            name: name.to_owned(),
            parent,
            depth: parent.map_or(0, |p| self.spans[p].depth + 1),
            start_ns: now_ns,
            dur_ns: 0,
            closed: false,
        });
        self.open.push((me, idx));
        idx
    }

    /// Closes span `idx` at `now_ns`. Its still-open descendants (guards
    /// dropped out of order on its thread) are closed at the same
    /// instant; other threads' spans stay open. A span already closed
    /// that way is left as it is.
    pub(crate) fn close(&mut self, idx: usize, now_ns: u64) {
        let Some(pos) = self.open.iter().rposition(|&(_, i)| i == idx) else {
            return;
        };
        let owner = self.open[pos].0;
        let mut k = pos;
        while k < self.open.len() {
            let (t, i) = self.open[k];
            if t == owner {
                self.open.remove(k);
                let span = &mut self.spans[i];
                span.dur_ns = now_ns.saturating_sub(span.start_ns);
                span.closed = true;
            } else {
                k += 1;
            }
        }
    }

    /// Appends another table's spans (a parallel job's subtree), fixing
    /// up parent indices and re-rooting the absorbed roots under the
    /// calling thread's innermost open span, if any. `shift_ns` rebases
    /// the absorbed timestamps onto this table's epoch.
    pub(crate) fn absorb(&mut self, other: &[SpanRecord], shift_ns: u64) {
        let base = self.spans.len();
        let graft = self.innermost(thread::current().id());
        let graft_depth = graft.map_or(0, |p| self.spans[p].depth + 1);
        for s in other {
            self.spans.push(SpanRecord {
                name: s.name.clone(),
                parent: s.parent.map(|p| p + base).or(graft),
                depth: s.depth + graft_depth,
                start_ns: s.start_ns.saturating_add(shift_ns),
                dur_ns: s.dur_ns,
                closed: s.closed,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_is_recorded_in_preorder() {
        let mut t = SpanTable::default();
        let a = t.open("a", 0);
        let b = t.open("b", 10);
        t.close(b, 30);
        let c = t.open("c", 40);
        t.close(c, 50);
        t.close(a, 60);
        let names: Vec<&str> = t.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["a", "b", "c"]);
        assert_eq!(t.spans[0].parent, None);
        assert_eq!(t.spans[1].parent, Some(a));
        assert_eq!(t.spans[2].parent, Some(a));
        assert_eq!(t.spans[0].depth, 0);
        assert_eq!(t.spans[1].depth, 1);
        assert_eq!(t.spans[1].dur_ns, 20);
        assert_eq!(t.spans[0].dur_ns, 60);
        assert!(t.spans.iter().all(|s| s.closed));
    }

    #[test]
    fn out_of_order_drops_close_descendants() {
        let mut t = SpanTable::default();
        let a = t.open("a", 0);
        let _b = t.open("b", 5);
        // Closing the parent force-closes the still-open child.
        t.close(a, 20);
        assert!(t.spans.iter().all(|s| s.closed));
        assert_eq!(t.spans[1].dur_ns, 15);
    }

    #[test]
    fn a_late_drop_of_a_force_closed_span_closes_nothing_else() {
        let mut t = SpanTable::default();
        let a = t.open("a", 0);
        let b = t.open("b", 5);
        t.close(a, 20); // force-closes b
        let c = t.open("c", 30);
        t.close(b, 40); // b's guard drops late
        assert!(!t.spans[c].closed);
        assert_eq!(t.spans[c].parent, None);
        assert_eq!(t.spans[b].dur_ns, 15);
        t.close(c, 50);
        assert_eq!(t.spans[c].dur_ns, 20);
    }
}
