//! Spans recorded from outside the program, around the calls into each
//! layer.
//!
//! Every op is a root span; the layer calls it makes are its children.
//! Spans are kept in memory and reduced once the run ends: a span's
//! self time is its duration minus the time its children cover, and a
//! layer's figure for one op is the sum of the self times of that op's
//! spans of that name. The same op code runs with [`NoSpans`] for the
//! untraced half of each traced/untraced pair, so the overhead ratio
//! compares one code path with and without recording.

use std::collections::HashMap;
use std::time::Instant;

/// Handle of an entered span.
#[derive(Clone, Copy)]
pub struct SpanId(u32);

/// Where an op reports its layer boundaries.
pub trait Spans {
    /// Open a span `name` (with a caller-defined `tag`, e.g. a program
    /// index) as a child of the innermost open span.
    fn enter(&mut self, name: &'static str, tag: u16) -> SpanId;
    /// Close `id`, which must be the innermost open span.
    fn exit(&mut self, id: SpanId);
}

/// The untraced side: records nothing.
pub struct NoSpans;

impl Spans for NoSpans {
    #[inline(always)]
    fn enter(&mut self, _name: &'static str, _tag: u16) -> SpanId {
        SpanId(0)
    }

    #[inline(always)]
    fn exit(&mut self, _id: SpanId) {}
}

struct Span {
    name: &'static str,
    tag: u16,
    parent: Option<u32>,
    /// Index of the root span (the op) this span belongs to.
    op: u32,
    start_ns: u64,
    end_ns: u64,
}

/// The traced side: an in-memory span log.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Reduce the log to one [`OpProfile`] per root span named `op`.
    pub fn ops(&self, op: &str) -> Vec<OpProfile> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut profiles: HashMap<u32, OpProfile> = HashMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            let root = &self.spans[span.op as usize];
            if root.name != op {
                continue;
            }
            let self_ns = (span.end_ns - span.start_ns).saturating_sub(child_ns[i]);
            let profile = profiles.entry(span.op).or_insert_with(|| OpProfile {
                total_ns: root.end_ns - root.start_ns,
                self_ns: HashMap::new(),
            });
            *profile.self_ns.entry((span.name, span.tag)).or_default() += self_ns;
        }
        let mut ordered: Vec<(u32, OpProfile)> = profiles.into_iter().collect();
        ordered.sort_by_key(|(op, _)| *op);
        ordered.into_iter().map(|(_, p)| p).collect()
    }
}

impl Spans for Recorder {
    fn enter(&mut self, name: &'static str, tag: u16) -> SpanId {
        let index = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let parent = self.stack.last().copied();
        let op = parent.map_or(index, |p| self.spans[p as usize].op);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            tag,
            parent,
            op,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(index);
        SpanId(index)
    }

    fn exit(&mut self, id: SpanId) {
        let top = self.stack.pop();
        assert_eq!(top, Some(id.0), "spans close innermost first");
        let end = self.now_ns();
        self.spans[id.0 as usize].end_ns = end;
    }
}

/// One op's span tree, reduced to self time per `(name, tag)`.
pub struct OpProfile {
    /// Duration of the op's root span.
    pub total_ns: u64,
    self_ns: HashMap<(&'static str, u16), u64>,
}

impl OpProfile {
    /// Self time of every span called `name` in this op, summed over
    /// tags; `None` when the op made no such call.
    pub fn self_ns(&self, name: &str) -> Option<u64> {
        let mut found = None;
        for (&(n, _), &ns) in &self.self_ns {
            if n == name {
                *found.get_or_insert(0) += ns;
            }
        }
        found
    }

    /// Self time of the spans called `name` with `tag`.
    pub fn tagged_self_ns(&self, name: &str, tag: u16) -> Option<u64> {
        self.self_ns
            .iter()
            .find(|(&(n, t), _)| n == name && t == tag)
            .map(|(_, &ns)| ns)
    }

    /// Share of the op that no child span covers.
    pub fn unattributed_share(&self, op: &str) -> f64 {
        let root = self.self_ns(op).unwrap_or(0);
        root as f64 / self.total_ns.max(1) as f64
    }
}

/// Median, over the ops that called `name`, of that layer's self time
/// per op, in microseconds (0 when no op called it).
pub fn median_self_us(ops: &[OpProfile], name: &str) -> f64 {
    let samples: Vec<f64> = ops
        .iter()
        .filter_map(|op| op.self_ns(name))
        .map(|ns| ns as f64 / 1e3)
        .collect();
    crate::stats::median(&samples)
}
