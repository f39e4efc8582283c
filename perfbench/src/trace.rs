//! The traced run's span recorder.
//!
//! Spans are recorded from the benchmark's side of each layer boundary:
//! the benchmark wraps every call it makes into a layer's public function.
//! A recorder belongs to one thread, keeps its spans in memory, and is
//! merged into a [`Trace`] when the thread's work ends; the trace computes
//! self times and is written out once, when the run ends. With recording
//! switched off a span is one branch around the call.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// No parent.
const ROOT: u32 = u32::MAX;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call name, such as `paths.run`.
    pub name: &'static str,
    /// Index of the enclosing span on the same thread, or `ROOT`.
    pub parent: u32,
    /// Start, in ns since the trace epoch.
    pub start_ns: u64,
    /// End, in ns since the trace epoch.
    pub end_ns: u64,
    /// Request identifier on serve-warm (0 elsewhere).
    pub req: u64,
    /// Whether the span began in the timed phase.
    pub timed: bool,
}

/// A per-thread span recorder.
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    timed: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    /// A recorder measuring from `epoch`, recording when `enabled`.
    pub fn new(epoch: Instant, enabled: bool) -> Recorder {
        Recorder {
            epoch,
            enabled,
            timed: false,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Switches recording on or off (the traced run alternates blocks).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Marks subsequent spans as belonging to the timed phase.
    pub fn set_timed(&mut self, timed: bool) {
        self.timed = timed;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        self.span_req(name, 0, f)
    }

    /// [`Recorder::span`] carrying a request identifier.
    pub fn span_req<T>(
        &mut self,
        name: &'static str,
        req: u64,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(ROOT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
            req,
            timed: self.timed,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx as usize].end_ns = self.now_ns();
        out
    }

    /// Records an interval measured elsewhere, under the open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            parent: self.open.last().copied().unwrap_or(ROOT),
            start_ns: at(start),
            end_ns: at(end),
            req: 0,
            timed: self.timed,
        });
    }
}

/// Per-name totals over the timed phase or the set-up.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    /// Spans with this name.
    pub count: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
}

/// All threads' spans, merged.
#[derive(Default)]
pub struct Trace {
    spans: Vec<(u32, Span)>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Trace {
        Trace::default()
    }

    /// Takes over a thread's recorder; `thread` numbers it in the dump.
    pub fn absorb(&mut self, thread: u32, recorder: Recorder) {
        let base = self.spans.len() as u32;
        for mut s in recorder.spans {
            if s.parent != ROOT {
                s.parent += base;
            }
            self.spans.push((thread, s));
        }
    }

    /// Spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time of each span: its duration minus the time its children
    /// cover. Children run on their parent's thread, one after another,
    /// so the time they cover is the sum of their durations.
    pub fn self_times(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for (_, s) in &self.spans {
            if s.parent != ROOT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|((_, s), c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .collect()
    }

    /// Per-name totals for spans begun in the timed phase (`timed`) or
    /// outside it.
    pub fn totals(&self, timed: bool) -> BTreeMap<&'static str, Totals> {
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for ((_, s), self_ns) in self.spans.iter().zip(self.self_times()) {
            if s.timed == timed {
                let t = out.entry(s.name).or_default();
                t.count += 1;
                t.self_ns += self_ns;
            }
        }
        out
    }

    /// Writes every span as one CSV line:
    /// `id,parent,thread,name,start_ns,end_ns,self_ns,req,timed`.
    pub fn write(&self, out: &mut impl Write) -> io::Result<()> {
        writeln!(
            out,
            "id,parent,thread,name,start_ns,end_ns,self_ns,req,timed"
        )?;
        for (i, ((thread, s), self_ns)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = if s.parent == ROOT {
                String::new()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{i},{parent},{thread},{},{},{},{self_ns},{},{}",
                s.name, s.start_ns, s.end_ns, s.req, s.timed as u8
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let epoch = Instant::now();
        let mut rec = Recorder::new(epoch, true);
        rec.set_timed(true);
        rec.span("outer", |rec| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            rec.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let mut trace = Trace::new();
        trace.absorb(0, rec);
        let totals = trace.totals(true);
        let outer = totals["outer"].self_ns;
        let inner = totals["inner"].self_ns;
        assert!(inner >= 5_000_000, "{inner}");
        assert!((2_000_000..5_000_000).contains(&outer), "{outer}");
        let mut csv = Vec::new();
        trace.write(&mut csv).unwrap();
        let text = String::from_utf8(csv).unwrap();
        assert!(
            text.lines().nth(2).unwrap().starts_with("1,0,0,inner,"),
            "{text}"
        );
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut rec = Recorder::new(Instant::now(), false);
        assert_eq!(rec.span("x", |_| 7), 7);
        let mut trace = Trace::new();
        trace.absorb(0, rec);
        assert_eq!(trace.len(), 0);
    }
}
