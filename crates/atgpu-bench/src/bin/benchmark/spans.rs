//! In-memory span recording around calls into each layer's public
//! functions, self-time attribution, and the trace file writer.
//!
//! A span is `{name, layer, start_ns, end_ns, parent, request_id}`; spans
//! of one program-pass or serve request share a `request_id`.  A layer's
//! **self time** is its spans' duration minus the part of that interval
//! their child spans cover, so self times over a tree sum to the root's
//! duration exactly.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Call name, `layer.call` (e.g. `verify.program`).
    pub name: &'static str,
    /// The crate the call belongs to (`bench` for the harness's own work).
    pub layer: &'static str,
    /// Start, nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the run's epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// The program-pass or serve request this span belongs to.
    pub request_id: u64,
}

impl Span {
    /// Span duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span recorder.  Off, every hook is one branch and the
/// wrapped call runs untouched — the untraced run uses the same code.
#[derive(Debug)]
pub struct Recorder {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    request_id: u64,
}

impl Recorder {
    /// A recorder measuring from `epoch` (shared by all threads of a run).
    pub fn new(on: bool, epoch: Instant) -> Self {
        Self { on, epoch, spans: Vec::new(), open: Vec::new(), request_id: 0 }
    }

    /// An empty recorder with the same switch and epoch, for another
    /// thread; fold it back with [`absorb`](Self::absorb).
    pub fn fork(&self) -> Self {
        Self::new(self.on, self.epoch)
    }

    /// Tags subsequent spans with `id`.
    pub fn set_request(&mut self, id: u64) {
        self.request_id = id;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span that stays the parent of everything recorded until
    /// the matching [`close`](Self::close).
    pub fn open(&mut self, layer: &'static str, name: &'static str) -> Option<u32> {
        if !self.on {
            return None;
        }
        let idx = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            request_id: self.request_id,
        });
        self.open.push(idx);
        Some(idx)
    }

    /// Closes a span returned by [`open`](Self::open).
    pub fn close(&mut self, handle: Option<u32>) {
        let Some(idx) = handle else { return };
        let now = self.now_ns();
        self.spans[idx as usize].end_ns = now;
        while let Some(top) = self.open.pop() {
            if top == idx {
                break;
            }
        }
    }

    /// Records a leaf span around `f`.
    pub fn span<T>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        let h = self.open(layer, name);
        let out = f();
        self.close(h);
        out
    }

    /// Appends another thread's spans, re-basing their parent indices.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Each span's self time: its duration minus the union of the intervals
/// its direct children cover (clipped to the span).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for (lo, hi) in kids {
                let lo = lo.max(cursor);
                if hi > lo {
                    covered += hi - lo;
                    cursor = hi;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Self time per layer in milliseconds.
pub fn layer_self_ms(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry(s.layer).or_insert(0.0) += ns as f64 / 1e6;
    }
    out
}

/// How far the span self times are from adding up to `wall_ms` — the
/// wall time of the traced threads, clocked apart from the spans — as a
/// percentage of it.
pub fn self_sum_pct(spans: &[Span], wall_ms: f64) -> f64 {
    let own_ms = self_times_ns(spans).iter().sum::<u64>() as f64 / 1e6;
    100.0 * (own_ms - wall_ms).abs() / wall_ms
}

/// Durations of every span called `name`, in microseconds.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64 / 1e3).collect()
}

/// Total duration of every span called `name`, in milliseconds.
pub fn total_ms(spans: &[Span], name: &str) -> f64 {
    spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64 / 1e6).sum()
}

/// Writes the trace as one JSON object: a header and one span per line.
pub fn write_trace(path: &str, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "{{\"workload\": \"{workload}\", \"spans\": [")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let comma = if i + 1 < spans.len() { "," } else { "" };
        writeln!(
            w,
            "{{\"name\": \"{}\", \"layer\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
             \"parent\": {parent}, \"request_id\": {}}}{comma}",
            s.name, s.layer, s.start_ns, s.end_ns, s.request_id
        )?;
    }
    writeln!(w, "]}}")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(layer: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span { name: "x", layer, start_ns: start, end_ns: end, parent, request_id: 1 }
    }

    /// Self time = duration minus child coverage; overlapping children are
    /// counted once and children are clipped to their parent.
    #[test]
    fn self_time_subtracts_child_coverage() {
        let spans = vec![
            sp("bench", 0, 100, None),
            sp("sim", 10, 40, Some(0)),
            sp("sim", 30, 60, Some(0)),     // overlaps the previous child
            sp("verify", 90, 120, Some(0)), // sticks out past the parent
            sp("ir", 12, 20, Some(1)),
        ];
        let own = self_times_ns(&spans);
        assert_eq!(own, vec![100 - 50 - 10, 30 - 8, 30, 30, 8]);
        let layers = layer_self_ms(&spans);
        assert!((layers["sim"] - 52e-6).abs() < 1e-12);
    }

    /// Sequential, properly nested spans (what one thread records): self
    /// times add up to the root's duration exactly.
    #[test]
    fn nested_self_times_sum_to_the_root() {
        let spans = vec![
            sp("bench", 0, 1000, None),
            sp("bench", 50, 500, Some(0)),
            sp("verify", 60, 160, Some(1)),
            sp("sim", 170, 480, Some(1)),
            sp("bench", 510, 990, Some(0)),
            sp("sim", 520, 980, Some(4)),
        ];
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 1000);
        assert_eq!(self_sum_pct(&spans, 1000e-6), 0.0);
        assert!((self_sum_pct(&spans, 800e-6) - 25.0).abs() < 1e-9);
    }

    #[test]
    fn recorder_nests_and_is_free_when_off() {
        let mut off = Recorder::new(false, Instant::now());
        assert_eq!(off.span("sim", "sim.run", || 7), 7);
        assert!(off.spans().is_empty());

        let mut rec = Recorder::new(true, Instant::now());
        rec.set_request(3);
        let root = rec.open("bench", "bench.request");
        rec.span("verify", "verify.program", || ());
        rec.span("sim", "sim.run", || ());
        rec.close(root);
        rec.span("bench", "bench.other", || ());
        let s = rec.spans();
        assert_eq!(s.len(), 4);
        assert_eq!((s[1].parent, s[2].parent, s[3].parent), (Some(0), Some(0), None));
        assert!(s.iter().all(|x| x.request_id == 3 && x.end_ns >= x.start_ns));
        assert!(s[0].end_ns >= s[2].end_ns);

        let mut other = Recorder::new(true, Instant::now());
        let h = other.open("bench", "bench.request");
        other.span("sim", "sim.run", || ());
        other.close(h);
        rec.absorb(other);
        assert_eq!(rec.spans()[5].parent, Some(4));
        assert_eq!(durations_us(rec.spans(), "sim.run").len(), 2);
    }
}
