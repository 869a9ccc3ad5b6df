//! An in-memory span recorder for the traced run. The benchmark wraps
//! each call into a layer's public function in a span (name, start,
//! end, parent); spans stay in memory and are folded into per-layer
//! self-times when the run ends. A disabled recorder only runs the
//! wrapped calls, so the same driver code serves the untraced set-up
//! measurement.

use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span; times are nanoseconds since the recorder started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer or structural name, e.g. `netsim.run_until`.
    pub name: &'static str,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall duration, ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans against one monotonic clock.
pub struct Recorder {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder that keeps spans.
    pub fn on() -> Self {
        Recorder {
            on: true,
            // detlint: allow(wall-clock) — span times are the traced
            // run's measurement, never fed back into the program.
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder that keeps nothing.
    pub fn off() -> Self {
        Recorder {
            on: false,
            ..Recorder::on()
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let span = Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let id = self.open.pop().expect("exit matches an enter");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// True when every opened span has been closed.
    pub fn balanced(&self) -> bool {
        self.open.is_empty()
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span named `name`, ns.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect()
    }

    /// Per parent span, the summed durations of its `name` children, ns
    /// (e.g. the sim time spent in each epoch).
    pub fn sums_by_parent(&self, name: &str) -> Vec<u64> {
        let mut by: BTreeMap<Option<usize>, u64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *by.entry(s.parent).or_default() += s.duration_ns();
        }
        by.into_values().collect()
    }

    /// Self time per span name: each span's duration minus the part its
    /// children cover, summed over spans of that name, ns. Over all
    /// names these add up to the root spans' durations exactly.
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut child: Vec<u64> = vec![0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&child) {
            *out.entry(s.name).or_default() += s.duration_ns() - c;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_close_on_the_root() {
        let mut r = Recorder::on();
        r.time("root", || {});
        r.enter("root");
        r.time("a", || {});
        r.enter("b");
        r.time("a", || {});
        r.exit();
        r.exit();
        assert!(r.balanced());
        let total: u64 = r.self_times().values().sum();
        let roots: u64 = r
            .spans()
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::duration_ns)
            .sum();
        assert_eq!(total, roots);
        assert_eq!(r.durations("a").len(), 2);
        assert_eq!(r.sums_by_parent("a").len(), 2);
    }

    #[test]
    fn an_off_recorder_keeps_nothing() {
        let mut r = Recorder::off();
        assert_eq!(r.time("x", || 7), 7);
        assert!(r.spans().is_empty() && r.balanced());
    }
}
