//! In-memory spans for the traced run.
//!
//! A span is a name, a start, an end and the span that was open when it
//! began. Spans are taken from the benchmark's side of each layer's public
//! API, on the measuring thread's CPU clock, kept in a pre-sized vector and
//! written to `trace.json` when the run ends. A layer's *self* time is its
//! span minus the spans nested in it, less the clock calls themselves.

use std::io::Write as _;
use std::path::Path;

use alps_core::{Observation, Signal, Substrate};

use crate::measure::{clock_cost_ns, thread_cpu_ns};

const NO_PARENT: u32 = u32::MAX;

/// Handle to an interned span name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Name(u16);

#[derive(Debug, Clone, Copy)]
struct Span {
    name: u16,
    parent: u32,
    start: u64,
    end: u64,
}

/// Span recorder.
#[derive(Debug)]
pub struct Tracer {
    names: Vec<&'static str>,
    spans: Vec<Span>,
    open: Vec<u32>,
    /// What one clock call adds to the span around it.
    clock_cost: u64,
}

impl Tracer {
    /// A recorder with room for `capacity` spans, so recording never
    /// reallocates inside a timed region.
    pub fn with_capacity(capacity: usize) -> Tracer {
        Tracer {
            names: Vec::new(),
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(8),
            clock_cost: clock_cost_ns(),
        }
    }

    pub fn name(&mut self, name: &'static str) -> Name {
        let idx = match self.names.iter().position(|&n| n == name) {
            Some(i) => i,
            None => {
                self.names.push(name);
                self.names.len() - 1
            }
        };
        Name(idx as u16)
    }

    /// Open a span; returns the handle [`Tracer::end`] closes.
    #[inline]
    pub fn begin(&mut self, name: Name) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.open.push(id);
        self.spans.push(Span {
            name: name.0,
            parent,
            start: 0,
            end: 0,
        });
        // Read the clock last, so the bookkeeping above is outside the span.
        self.spans[id as usize].start = thread_cpu_ns();
        id
    }

    #[inline]
    pub fn end(&mut self, id: u32) {
        let now = thread_cpu_ns();
        self.spans[id as usize].end = now;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
    }

    /// Time `f` under `name`.
    #[inline]
    pub fn span<R>(&mut self, name: Name, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let r = f();
        self.end(id);
        r
    }

    pub fn clock_cost_ns(&self) -> u64 {
        self.clock_cost
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Duration of every closed span called `name`, less the clock call,
    /// in recording order, from span index `from` on.
    pub fn durations(&self, name: Name, from: usize) -> Vec<u64> {
        self.spans[from..]
            .iter()
            .filter(|s| s.name == name.0)
            .map(|s| (s.end - s.start).saturating_sub(self.clock_cost))
            .collect()
    }

    /// Self time of every span called `name` from span index `from` on:
    /// its raw duration minus its direct children's raw durations, minus
    /// one clock call for itself and one more for each child (a child's
    /// two clock calls fall inside the parent, one inside the child).
    pub fn self_times(&self, name: Name, from: usize) -> Vec<u64> {
        let mut out = Vec::new();
        let mut index = Vec::new();
        for (i, s) in self.spans.iter().enumerate().skip(from) {
            if s.name == name.0 {
                index.push((i as u32, out.len()));
                out.push((s.end - s.start) as i64 - self.clock_cost as i64);
            }
        }
        // Children always follow their parent, and `index` is ascending.
        for s in &self.spans[from..] {
            if s.parent == NO_PARENT {
                continue;
            }
            if let Ok(k) = index.binary_search_by_key(&s.parent, |&(id, _)| id) {
                out[index[k].1] -= (s.end - s.start) as i64 + self.clock_cost as i64;
            }
        }
        out.into_iter().map(|v| v.max(0) as u64).collect()
    }

    /// Write every span as one JSON document. Times are nanoseconds of the
    /// measuring thread's CPU clock, so sleeping shows as no time at all.
    pub fn write_json(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            w,
            "{{\"workload\":\"{workload}\",\"clock\":\"CLOCK_THREAD_CPUTIME_ID\",\"unit\":\"ns\",\
             \"clock_cost_ns\":{},\"spans\":[",
            self.clock_cost
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent}}}{comma}",
                self.names[s.name as usize], s.start, s.end
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}

/// A [`Substrate`] that records a span around each batched call the engine
/// makes into it. This is how the ledger separates what the engine spends
/// in its own code from what it spends below itself, without touching
/// either.
#[derive(Debug)]
pub struct Timed<S> {
    pub inner: S,
    pub tracer: Tracer,
    read_batch: Name,
    apply_batch: Name,
}

impl<S> Timed<S> {
    pub fn new(inner: S, mut tracer: Tracer, prefix: (&'static str, &'static str)) -> Timed<S> {
        let read_batch = tracer.name(prefix.0);
        let apply_batch = tracer.name(prefix.1);
        Timed {
            inner,
            tracer,
            read_batch,
            apply_batch,
        }
    }

    pub fn read_batch_name(&self) -> Name {
        self.read_batch
    }

    pub fn apply_batch_name(&self) -> Name {
        self.apply_batch
    }
}

impl<S: Substrate> Substrate for Timed<S> {
    type Member = S::Member;
    type Error = S::Error;

    fn now(&mut self) -> alps_core::Nanos {
        self.inner.now()
    }

    fn read(&mut self, member: S::Member) -> Result<Option<Observation>, S::Error> {
        self.inner.read(member)
    }

    fn read_batch(
        &mut self,
        members: &[S::Member],
        out: &mut Vec<Option<Observation>>,
    ) -> Result<(), S::Error> {
        let id = self.tracer.begin(self.read_batch);
        let r = self.inner.read_batch(members, out);
        self.tracer.end(id);
        r
    }

    fn read_exact(&mut self, member: S::Member) -> Result<Option<alps_core::Nanos>, S::Error> {
        self.inner.read_exact(member)
    }

    fn deliver(&mut self, member: S::Member, signal: Signal) -> Result<bool, S::Error> {
        self.inner.deliver(member, signal)
    }

    fn apply_batch(
        &mut self,
        batch: &[(S::Member, Signal)],
        delivered: &mut Vec<bool>,
    ) -> Result<(), S::Error> {
        let id = self.tracer.begin(self.apply_batch);
        let r = self.inner.apply_batch(batch, delivered);
        self.tracer.end(id);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let end = thread_cpu_ns() + ns;
        while thread_cpu_ns() < end {}
    }

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::with_capacity(16);
        let outer = t.name("outer");
        let inner = t.name("inner");
        assert_eq!(t.name("outer"), outer);
        let o = t.begin(outer);
        spin(200_000);
        for _ in 0..2 {
            t.span(inner, || spin(300_000));
        }
        t.end(o);
        let total = t.durations(outer, 0)[0];
        let own = t.self_times(outer, 0)[0];
        let kids: u64 = t.durations(inner, 0).iter().sum();
        assert_eq!(t.durations(inner, 0).len(), 2);
        assert!(total >= 800_000, "outer covers everything: {total}");
        assert!((590_000..700_000).contains(&kids), "children: {kids}");
        assert!((190_000..300_000).contains(&own), "self: {own}");
        // A leaf's self time is its duration.
        assert_eq!(t.self_times(inner, 0), t.durations(inner, 0));
    }

    #[test]
    fn json_lists_every_span_with_its_parent() {
        let mut t = Tracer::with_capacity(4);
        let a = t.name("a");
        let b = t.name("b");
        let x = t.begin(a);
        t.span(b, || ());
        t.end(x);
        let dir = std::env::temp_dir().join(format!("alps-bench-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        t.write_json(&path, "unit").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(text.contains("\"name\":\"a\"") && text.contains("\"parent\":null"));
        assert!(text.contains("\"name\":\"b\"") && text.contains("\"parent\":0"));
        assert!(text.trim_end().ends_with("]}"));
    }
}
