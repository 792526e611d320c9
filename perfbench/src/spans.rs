//! In-memory span recorder for the traced run.
//!
//! A span has a name, a start, an end, a parent and a run id (the
//! repetition it belongs to). Spans are kept in memory and written out as
//! JSONL when the run ends. A span's *self time* is its duration minus the
//! part of that interval its child spans cover; group spans (a repetition,
//! a run call, a tick) only hold children, so their self time is the time
//! no layer span accounts for.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// What the interval timed.
    pub name: &'static str,
    /// The repetition the span belongs to.
    pub run: u32,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, in ns of the run's [`Clock`](crate::timing::Clock).
    pub start: u64,
    /// End, in ns of the same clock.
    pub end: u64,
    /// Whether the span only groups children (its self time is
    /// unattributed) rather than timing a layer's call.
    pub group: bool,
}

/// The spans of one traced run.
#[derive(Default, Debug)]
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    /// Record a layer span; returns its index.
    pub fn layer(
        &mut self,
        name: &'static str,
        run: u32,
        parent: Option<usize>,
        start: u64,
        end: u64,
    ) -> usize {
        self.push(Span { name, run, parent, start, end, group: false })
    }

    /// Record a group span; returns its index.
    pub fn group(
        &mut self,
        name: &'static str,
        run: u32,
        parent: Option<usize>,
        start: u64,
        end: u64,
    ) -> usize {
        self.push(Span { name, run, parent, start, end, group: true })
    }

    fn push(&mut self, span: Span) -> usize {
        debug_assert!(span.start <= span.end, "span {} ends before it starts", span.name);
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Every span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of each span: its duration minus the union of its
    /// children's intervals, clipped to it.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = s.start;
                for (a, b) in kids {
                    let (a, b) = (a.max(reach), b.min(s.end));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end - s.start).saturating_sub(covered)
            })
            .collect()
    }

    /// Total self time and span count per name.
    pub fn totals(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            let e = out.entry(s.name).or_default();
            e.0 += own;
            e.1 += 1;
        }
        out
    }

    /// Share of the root spans' wall time that only group spans cover,
    /// i.e. that no layer span accounts for.
    pub fn unattributed_share(&self) -> f64 {
        let own = self.self_times();
        let unattributed: u64 =
            self.spans.iter().zip(&own).filter(|(s, _)| s.group).map(|(_, &t)| t).sum();
        let wall: u64 =
            self.spans.iter().filter(|s| s.parent.is_none()).map(|s| s.end - s.start).sum();
        if wall == 0 {
            0.0
        } else {
            unattributed as f64 / wall as f64
        }
    }

    /// Write every span as one JSON line.
    ///
    /// # Errors
    ///
    /// File I/O.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"run\":{},\"parent\":{parent},\"start_ns\":{},\
                 \"end_ns\":{},\"group\":{}}}",
                s.name, s.run, s.start, s.end, s.group
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Trace::default();
        let root = t.group("rep", 0, None, 0, 100);
        t.layer("a", 0, Some(root), 10, 40);
        // Overlaps the first child: counted once.
        t.layer("b", 0, Some(root), 30, 60);
        t.layer("c", 0, Some(root), 90, 120);
        assert_eq!(t.self_times(), vec![100 - 50 - 10, 30, 30, 30]);
        assert!((t.unattributed_share() - 0.4).abs() < 1e-12);
        assert_eq!(t.totals()["a"], (30, 1));
    }
}
