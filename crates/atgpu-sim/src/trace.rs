//! Per-operation timeline tracing: pooled span recording in the drivers
//! and Chrome `trace_event` export.
//!
//! When [`crate::SimConfig::trace`] is on, every operation the stream
//! scheduler places — host↔device transfers, kernel launches, peer
//! copies, degraded-mode journal replays, retry attempts and backoff
//! waits — is recorded as a [`Span`]: which device, which hardware lane
//! ([`StreamResource`]), which stream, the exact `[start, end)` the
//! [`atgpu_model::StreamTimeline`] scheduled (round-relative
//! milliseconds), the words moved, and the model's predicted duration
//! where one exists.  The spans land in a [`SpanRing`] — a fixed-capacity
//! pool allocated once up front, overwriting oldest-first when full — so
//! steady-state recording allocates nothing and the traced run's timing
//! arithmetic is bit-identical to the untraced run (tracing *observes*
//! `advance_spanned`'s results; it never feeds back into them).
//!
//! [`chrome_trace_json`] serialises a finished [`Trace`] to the Chrome
//! `trace_event` JSON-array format (hand-rolled — this workspace carries
//! no serde): `pid` = device, `tid` = resource lane, `ph:"X"` duration
//! events in microseconds, plus `ph:"C"` counter tracks for retries,
//! backoff and kernel-cache hits.  The output opens directly in
//! `chrome://tracing` or <https://ui.perfetto.dev>.
//! [`validate_chrome_json`] parses such a file back and checks its
//! structural invariants (array form, non-negative times, per-lane
//! non-overlap) — the round-trip check `atgpu-exp check-trace` runs in
//! CI.

use crate::cluster::ClusterSimReport;
use crate::driver::SimReport;
use atgpu_model::StreamResource;

/// Span-pool capacity of a traced run ([`crate::SimConfig::trace`]).
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 16;

/// What a span's operation was — the `name` of its Chrome trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A host→device transfer attempt (one per retry when faults drop).
    TransferIn,
    /// A kernel launch (one span per shard on its device).
    Kernel,
    /// A device→host transfer attempt.
    TransferOut,
    /// A device↔device peer copy attempt.
    Peer,
    /// A degraded-mode journal replay onto the heir's host link.
    Replay,
    /// An exponential-backoff wait between dropped attempts.
    Backoff,
}

impl SpanKind {
    /// The event name the Chrome export uses.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::TransferIn => "TransferIn",
            SpanKind::Kernel => "Kernel",
            SpanKind::TransferOut => "TransferOut",
            SpanKind::Peer => "Peer",
            SpanKind::Replay => "Replay",
            SpanKind::Backoff => "Backoff",
        }
    }
}

/// One traced operation, exactly as the stream scheduler placed it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Round index the operation ran in.
    pub round: u32,
    /// Device whose timeline scheduled it (`pid` in the export).
    pub device: u32,
    /// Hardware lane it occupied (`tid` in the export).
    pub resource: StreamResource,
    /// Stream it was enqueued on.
    pub stream: u32,
    /// The operation kind (event name).
    pub kind: SpanKind,
    /// Words moved (transfers/replay) or thread blocks run (kernels).
    pub words: u64,
    /// Start, in milliseconds relative to the round's start.
    pub start_ms: f64,
    /// End, in milliseconds relative to the round's start.
    pub end_ms: f64,
    /// The model's predicted duration for this operation, or a negative
    /// value when no per-span prediction exists (kernels in pure sim
    /// runs, backoff waits).
    pub predicted_ms: f64,
}

impl Span {
    /// Observed duration.
    pub fn dur_ms(&self) -> f64 {
        self.end_ms - self.start_ms
    }
}

/// A fixed-capacity span pool: allocated once, then recording is a plain
/// indexed store.  When full it overwrites oldest-first and counts what
/// it evicted, so a bounded trace of a huge run keeps the most recent
/// window instead of growing without bound (the renacer span-pool
/// discipline).
#[derive(Debug, Clone)]
pub struct SpanRing {
    spans: Vec<Span>,
    cap: usize,
    /// Overwrite cursor once `spans.len() == cap`.
    next: usize,
    dropped: u64,
}

impl SpanRing {
    /// A ring holding at most `capacity` spans (clamped to ≥ 1), with the
    /// backing store reserved immediately.
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.max(1);
        Self { spans: Vec::with_capacity(cap), cap, next: 0, dropped: 0 }
    }

    /// Records one span; evicts the oldest when the pool is full.  Never
    /// allocates after construction (the backing store is pre-reserved).
    #[inline]
    pub fn push(&mut self, span: Span) {
        if self.spans.len() < self.cap {
            self.spans.push(span);
        } else {
            self.spans[self.next] = span;
            self.next = (self.next + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Spans currently held.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Spans evicted because the pool was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Consumes the ring, returning the retained spans in recording
    /// order.
    fn into_spans(mut self) -> (Vec<Span>, u64) {
        // Once wrapped, the oldest retained span sits at `next`.
        if self.dropped > 0 {
            self.spans.rotate_left(self.next);
        }
        (self.spans, self.dropped)
    }
}

/// Maximum retry/backoff segments buffered per logical transfer.
const SEG_CAP: usize = 64;

/// A fixed buffer for one transfer's fault segments — the per-attempt
/// and per-wait pieces [`crate::fault::FaultRuntime::transfer_segmented`]
/// reports.  Offsets are relative to the transfer's start; `true` marks
/// a backoff wait.  Overflow past the 64-segment cap folds into the last
/// segment (a >64-retry transfer keeps a correct total, losing only
/// segment granularity) so recording stays allocation-free.
#[derive(Debug, Clone)]
pub struct SegBuf {
    segs: [(f64, f64, bool); SEG_CAP],
    len: usize,
}

impl SegBuf {
    fn new() -> Self {
        Self { segs: [(0.0, 0.0, false); SEG_CAP], len: 0 }
    }

    /// Appends one segment `[start_off, end_off)` (`backoff` marks a
    /// wait).
    #[inline]
    pub fn push(&mut self, start_off: f64, end_off: f64, backoff: bool) {
        if self.len < SEG_CAP {
            self.segs[self.len] = (start_off, end_off, backoff);
            self.len += 1;
        } else {
            self.segs[SEG_CAP - 1].1 = end_off;
        }
    }

    fn clear(&mut self) {
        self.len = 0;
    }
}

/// The recording half of tracing: the span pool plus the per-transfer
/// segment buffer the fault retry loop fills.  One tracer serves a whole
/// run (all devices of a cluster).
#[derive(Debug)]
pub struct Tracer {
    ring: SpanRing,
    /// Segment scratch for the in-flight transfer; drained by the next
    /// [`Tracer::record`].
    pub segs: SegBuf,
}

impl Tracer {
    /// A tracer whose pool holds `capacity` spans.
    pub fn new(capacity: usize) -> Self {
        Self { ring: SpanRing::with_capacity(capacity), segs: SegBuf::new() }
    }

    /// Records one scheduled operation spanning `[start_ms, end_ms)` on
    /// `device`'s `resource` lane.  If the segment buffer is non-empty
    /// (the transfer went through the fault retry loop), one span per
    /// segment is emitted instead — attempts under `kind`, waits as
    /// [`SpanKind::Backoff`] — tiling the same interval; the buffer is
    /// then cleared.  `predicted_ms < 0` means "no prediction".
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        round: usize,
        device: u32,
        resource: StreamResource,
        stream: u32,
        kind: SpanKind,
        words: u64,
        predicted_ms: f64,
        start_ms: f64,
        end_ms: f64,
    ) {
        let round = round as u32;
        if self.segs.len == 0 {
            self.ring.push(Span {
                round,
                device,
                resource,
                stream,
                kind,
                words,
                start_ms,
                end_ms,
                predicted_ms,
            });
            return;
        }
        for &(a, b, backoff) in &self.segs.segs[..self.segs.len] {
            let (kind, words, predicted_ms) =
                if backoff { (SpanKind::Backoff, 0, -1.0) } else { (kind, words, predicted_ms) };
            self.ring.push(Span {
                round,
                device,
                resource,
                stream,
                kind,
                words,
                start_ms: start_ms + a,
                end_ms: start_ms + b,
                predicted_ms,
            });
        }
        self.segs.clear();
    }

    /// Ends the run, yielding the recorded spans.
    pub fn finish(self) -> Trace {
        let (spans, dropped) = self.ring.into_spans();
        Trace { spans, dropped }
    }
}

/// A finished run's recorded spans, in recording order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// The retained spans (oldest evicted first when the pool
    /// overflowed).
    pub spans: Vec<Span>,
    /// Spans evicted because the pool was full.
    pub dropped: u64,
}

/// One `ph:"C"` counter track of the export: `samples` are
/// `(absolute ms, value)` pairs on `device`'s process row.
#[derive(Debug, Clone, Default)]
pub struct CounterTrack {
    /// Counter name (e.g. `"retries"`).
    pub name: String,
    /// Device (`pid`) the track belongs to.
    pub device: u32,
    /// `(timestamp ms, value)` samples, in time order.
    pub samples: Vec<(f64, f64)>,
}

fn push_f64(out: &mut String, v: f64) {
    // Microsecond timestamps with sub-ns precision; fixed notation keeps
    // the file greppable and the validator's parser trivial.
    out.push_str(&format!("{v:.4}"));
}

/// Serialises a trace to Chrome `trace_event` JSON (array format).
///
/// * `round_starts[r]` is the absolute millisecond at which round `r`
///   begins (spans store round-relative times); missing entries fall
///   back to 0.
/// * `pid` = device, `tid` = [`StreamResource::lane`], `ts`/`dur` in
///   microseconds.
/// * Each span's `args` carry its round, stream, words and — when
///   present — `predicted_ms` next to `observed_ms`.
/// * `counters` become `ph:"C"` tracks.
pub fn chrome_trace_json(trace: &Trace, round_starts: &[f64], counters: &[CounterTrack]) -> String {
    let mut out = String::with_capacity(256 + 160 * trace.spans.len());
    out.push('[');
    let mut first = true;
    let mut sep = |out: &mut String| {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
        out.push('\n');
    };

    // Metadata: name each device's process row and each lane's thread
    // row that actually appears.
    let mut seen: Vec<(u32, u8)> = Vec::new();
    let mut devices: Vec<u32> = Vec::new();
    for s in &trace.spans {
        if !devices.contains(&s.device) {
            devices.push(s.device);
        }
        let key = (s.device, s.resource.lane());
        if !seen.contains(&key) {
            seen.push(key);
        }
    }
    for c in counters {
        if !devices.contains(&c.device) {
            devices.push(c.device);
        }
    }
    devices.sort_unstable();
    seen.sort_unstable();
    for d in &devices {
        sep(&mut out);
        out.push_str(&format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{d},\"args\":{{\"name\":\"device {d}\"}}}}"
        ));
    }
    for (d, lane) in &seen {
        let name = lane_name(*lane);
        sep(&mut out);
        out.push_str(&format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{d},\"tid\":{lane},\"args\":{{\"name\":\"{name}\"}}}}"
        ));
    }

    for s in &trace.spans {
        let base = round_starts.get(s.round as usize).copied().unwrap_or(0.0);
        let ts_us = (base + s.start_ms) * 1000.0;
        let dur_us = s.dur_ms() * 1000.0;
        sep(&mut out);
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"timeline\",\"ph\":\"X\",\"pid\":{},\"tid\":{},\"ts\":",
            s.kind.name(),
            s.device,
            s.resource.lane()
        ));
        push_f64(&mut out, ts_us);
        out.push_str(",\"dur\":");
        push_f64(&mut out, dur_us);
        out.push_str(&format!(
            ",\"args\":{{\"round\":{},\"stream\":{},\"words\":{},\"observed_ms\":",
            s.round, s.stream, s.words
        ));
        push_f64(&mut out, s.dur_ms());
        if s.predicted_ms >= 0.0 {
            out.push_str(",\"predicted_ms\":");
            push_f64(&mut out, s.predicted_ms);
        }
        out.push_str("}}");
    }

    for c in counters {
        for &(ts_ms, value) in &c.samples {
            sep(&mut out);
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"C\",\"pid\":{},\"ts\":",
                c.name, c.device
            ));
            push_f64(&mut out, ts_ms * 1000.0);
            out.push_str(&format!(",\"args\":{{\"{}\":", c.name));
            push_f64(&mut out, value);
            out.push_str("}}");
        }
    }

    if trace.dropped > 0 {
        sep(&mut out);
        out.push_str(&format!(
            "{{\"name\":\"spans_dropped\",\"ph\":\"C\",\"pid\":0,\"ts\":0.0,\"args\":{{\"spans_dropped\":{}}}}}",
            trace.dropped
        ));
    }
    out.push_str("\n]\n");
    out
}

fn lane_name(lane: u8) -> &'static str {
    match lane {
        0 => StreamResource::HostToDevice.lane_name(),
        1 => StreamResource::Compute.lane_name(),
        2 => StreamResource::DeviceToHost.lane_name(),
        _ => StreamResource::Peer.lane_name(),
    }
}

/// Absolute start time of each round, from the rounds' totals.
fn round_starts(totals: impl Iterator<Item = f64>) -> Vec<f64> {
    let mut starts = Vec::new();
    let mut t = 0.0;
    for total in totals {
        starts.push(t);
        t += total;
    }
    starts
}

/// Absolute start time of each round of a single-device report.
pub fn sim_round_starts(report: &SimReport) -> Vec<f64> {
    round_starts(report.rounds.iter().map(|r| r.total_ms()))
}

/// Absolute start time of each round of a cluster report.
pub fn cluster_round_starts(report: &ClusterSimReport) -> Vec<f64> {
    round_starts(report.rounds.iter().map(|r| r.total_ms()))
}

/// The export of a traced run: the spans, plus per device a cumulative
/// retry and a cumulative backoff counter track sampled at every round
/// start and the final kernel-cache hit count.  `cache_hits` has one
/// entry per device; `faults(r, d)` is device `d`'s `(retries,
/// backoff_ms)` in round `r`.
fn report_trace_json(
    trace: &Trace,
    starts: &[f64],
    cache_hits: &[u64],
    faults: impl Fn(usize, usize) -> (u64, f64),
) -> String {
    let mut counters = Vec::with_capacity(3 * cache_hits.len());
    let end = starts.last().copied().unwrap_or(0.0);
    for (d, &hits) in cache_hits.iter().enumerate() {
        let track =
            |name: &str, samples| CounterTrack { name: name.into(), device: d as u32, samples };
        let (mut retries, mut backoff) = (Vec::new(), Vec::new());
        let (mut racc, mut bacc) = (0.0, 0.0);
        for (r, s) in starts.iter().enumerate() {
            let (round_retries, round_backoff) = faults(r, d);
            racc += round_retries as f64;
            bacc += round_backoff;
            retries.push((*s, racc));
            backoff.push((*s, bacc));
        }
        counters.push(track("retries", retries));
        counters.push(track("backoff_ms", backoff));
        counters.push(track("cache_hits", vec![(end, hits as f64)]));
    }
    chrome_trace_json(trace, starts, &counters)
}

/// The export for a traced single-device run: the report's trace with
/// round starts from its own round totals, plus cumulative retry /
/// backoff / cache-hit counter tracks.  `None` when the run was not
/// traced.
pub fn sim_report_trace_json(report: &SimReport) -> Option<String> {
    let trace = report.trace.as_ref()?;
    let faults = |r: usize, _: usize| (report.rounds[r].retries, report.rounds[r].backoff_ms);
    let hits = [report.device_stats.cache.hits];
    Some(report_trace_json(trace, &sim_round_starts(report), &hits, faults))
}

/// The export for a traced cluster run: per-device cumulative retry /
/// backoff / cache-hit counter tracks next to the spans.  `None` when
/// the run was not traced.
pub fn cluster_report_trace_json(report: &ClusterSimReport) -> Option<String> {
    let trace = report.trace.as_ref()?;
    let faults = |r: usize, d: usize| {
        report.rounds[r].devices.get(d).map_or((0, 0.0), |o| (o.retries, o.backoff_ms))
    };
    let hits: Vec<u64> = report.device_stats.iter().map(|s| s.cache.hits).collect();
    Some(report_trace_json(trace, &cluster_round_starts(report), &hits, faults))
}

/// Summary a successful [`validate_chrome_json`] returns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceCheck {
    /// `ph:"X"` duration events found.
    pub spans: usize,
    /// `ph:"C"` counter samples found.
    pub counters: usize,
    /// Distinct `pid`s (devices) seen.
    pub devices: usize,
}

/// Splits the body of a JSON array into its top-level objects (brace
/// matching, string-aware).  Hand-rolled on purpose: the workspace has
/// no serde, and the exporter's output is regular enough that structural
/// validation doesn't need a general JSON parser.
fn split_objects(body: &str) -> Result<Vec<&str>, String> {
    let mut objs = Vec::new();
    let bytes = body.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b' ' | b'\n' | b'\r' | b'\t' | b',' => i += 1,
            b'{' => {
                let start = i;
                let mut depth = 0usize;
                let mut in_str = false;
                let mut escaped = false;
                loop {
                    if i >= bytes.len() {
                        return Err("unterminated object".into());
                    }
                    let c = bytes[i];
                    if in_str {
                        if escaped {
                            escaped = false;
                        } else if c == b'\\' {
                            escaped = true;
                        } else if c == b'"' {
                            in_str = false;
                        }
                    } else {
                        match c {
                            b'"' => in_str = true,
                            b'{' => depth += 1,
                            b'}' => {
                                depth -= 1;
                                if depth == 0 {
                                    i += 1;
                                    break;
                                }
                            }
                            _ => {}
                        }
                    }
                    i += 1;
                }
                objs.push(&body[start..i]);
            }
            c => return Err(format!("unexpected byte `{}` at array level", c as char)),
        }
    }
    Ok(objs)
}

/// The string value of `"key"` in `obj` (first occurrence; the exporter
/// writes each event's own fields before its `args`).
fn field_str<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let at = obj.find(&pat)? + pat.len();
    let rest = &obj[at..];
    Some(&rest[..rest.find('"')?])
}

/// The numeric value of `"key"` in `obj` (first occurrence).
fn field_num(obj: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = obj.find(&pat)? + pat.len();
    let rest = obj[at..].trim_start();
    let end = rest
        .find(|c: char| {
            !(c.is_ascii_digit() || c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E')
        })
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Parses a Chrome `trace_event` JSON file back and checks it:
///
/// * JSON-array format (what the exporter writes);
/// * every event has a `name` and a valid `ph` (`X`, `C` or `M`);
/// * `X` events carry `pid`, `tid`, `ts ≥ 0`, `dur ≥ 0`;
/// * on each `(pid, tid)` lane, duration events never overlap (spans on
///   one hardware resource are serial by construction — an overlap means
///   a corrupted trace).
///
/// Returns event counts on success, the first violation otherwise.
pub fn validate_chrome_json(s: &str) -> Result<TraceCheck, String> {
    let t = s.trim();
    let body = t
        .strip_prefix('[')
        .and_then(|t| t.strip_suffix(']'))
        .ok_or_else(|| "not a JSON array (Chrome trace_event array format)".to_string())?;
    // Span intervals seen so far, grouped by (pid, tid) lane.
    type LaneSpans = ((u64, u64), Vec<(f64, f64)>);
    let mut check = TraceCheck::default();
    let mut lanes: Vec<LaneSpans> = Vec::new();
    let mut devices: Vec<u64> = Vec::new();
    for obj in split_objects(body)? {
        let ph = field_str(obj, "ph").ok_or_else(|| format!("event without ph: {obj}"))?;
        if field_str(obj, "name").is_none() {
            return Err(format!("event without name: {obj}"));
        }
        match ph {
            "M" => {}
            "C" => {
                check.counters += 1;
                let pid =
                    field_num(obj, "pid").ok_or_else(|| format!("counter without pid: {obj}"))?;
                if !devices.contains(&(pid as u64)) {
                    devices.push(pid as u64);
                }
            }
            "X" => {
                check.spans += 1;
                let pid =
                    field_num(obj, "pid").ok_or_else(|| format!("span without pid: {obj}"))? as u64;
                let tid =
                    field_num(obj, "tid").ok_or_else(|| format!("span without tid: {obj}"))? as u64;
                let ts = field_num(obj, "ts").ok_or_else(|| format!("span without ts: {obj}"))?;
                let dur =
                    field_num(obj, "dur").ok_or_else(|| format!("span without dur: {obj}"))?;
                if ts < 0.0 || dur < 0.0 {
                    return Err(format!("negative ts/dur: {obj}"));
                }
                if !devices.contains(&pid) {
                    devices.push(pid);
                }
                match lanes.iter_mut().find(|(k, _)| *k == (pid, tid)) {
                    Some((_, v)) => v.push((ts, ts + dur)),
                    None => lanes.push(((pid, tid), vec![(ts, ts + dur)])),
                }
            }
            other => return Err(format!("unknown ph `{other}`: {obj}")),
        }
    }
    // Per-lane non-overlap (µs, with slack for the writer's 4-decimal
    // rounding).
    const EPS_US: f64 = 1e-3;
    for ((pid, tid), mut spans) in lanes {
        spans.sort_by(|a, b| a.0.total_cmp(&b.0));
        for w in spans.windows(2) {
            if w[1].0 < w[0].1 - EPS_US {
                return Err(format!(
                    "overlapping spans on pid {pid} tid {tid}: [{}, {}) then [{}, {})",
                    w[0].0, w[0].1, w[1].0, w[1].1
                ));
            }
        }
    }
    check.devices = devices.len();
    Ok(check)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(round: u32, device: u32, start: f64, end: f64) -> Span {
        Span {
            round,
            device,
            resource: StreamResource::HostToDevice,
            stream: 0,
            kind: SpanKind::TransferIn,
            words: 8,
            start_ms: start,
            end_ms: end,
            predicted_ms: end - start,
        }
    }

    #[test]
    fn ring_keeps_recording_order_and_counts_evictions() {
        let mut ring = SpanRing::with_capacity(3);
        for i in 0..5 {
            ring.push(span(i, 0, i as f64, i as f64 + 1.0));
        }
        assert_eq!(ring.dropped(), 2);
        let (spans, dropped) = ring.into_spans();
        assert_eq!(dropped, 2);
        // The three most recent, oldest first.
        assert_eq!(spans.iter().map(|s| s.round).collect::<Vec<_>>(), vec![2, 3, 4]);
    }

    #[test]
    fn tracer_expands_fault_segments_into_attempt_and_backoff_spans() {
        let mut tr = Tracer::new(16);
        tr.segs.push(0.0, 1.0, false);
        tr.segs.push(1.0, 1.5, true);
        tr.segs.push(1.5, 2.5, false);
        tr.record(0, 0, StreamResource::HostToDevice, 2, SpanKind::TransferIn, 64, 1.0, 10.0, 12.5);
        let t = tr.finish();
        assert_eq!(t.spans.len(), 3);
        assert_eq!(t.spans[0].kind, SpanKind::TransferIn);
        assert_eq!(t.spans[1].kind, SpanKind::Backoff);
        assert_eq!(t.spans[2].kind, SpanKind::TransferIn);
        // Segments tile the scheduled interval with absolute offsets.
        assert_eq!(t.spans[0].start_ms, 10.0);
        assert_eq!(t.spans[1].start_ms, 11.0);
        assert_eq!(t.spans[2].end_ms, 12.5);
        // Backoff spans carry no prediction; attempts keep the payload's.
        assert!(t.spans[1].predicted_ms < 0.0);
        assert_eq!(t.spans[0].words, 64);
        assert_eq!(t.spans[1].words, 0);
    }

    #[test]
    fn export_round_trips_through_the_validator() {
        let trace = Trace {
            spans: vec![
                span(0, 0, 0.0, 1.0),
                Span {
                    resource: StreamResource::Compute,
                    kind: SpanKind::Kernel,
                    predicted_ms: -1.0,
                    start_ms: 1.0,
                    end_ms: 3.0,
                    ..span(0, 0, 0.0, 0.0)
                },
                span(1, 1, 0.5, 2.0),
            ],
            dropped: 0,
        };
        let counters = [CounterTrack {
            name: "retries".into(),
            device: 0,
            samples: vec![(0.0, 0.0), (5.0, 2.0)],
        }];
        let json = chrome_trace_json(&trace, &[0.0, 4.0], &counters);
        let check = validate_chrome_json(&json).unwrap();
        assert_eq!(check.spans, 3);
        assert_eq!(check.counters, 2);
        assert_eq!(check.devices, 2);
    }

    #[test]
    fn validator_rejects_overlap_and_malformed_input() {
        let trace = Trace { spans: vec![span(0, 0, 0.0, 2.0), span(0, 0, 1.0, 3.0)], dropped: 0 };
        let json = chrome_trace_json(&trace, &[0.0], &[]);
        assert!(validate_chrome_json(&json).unwrap_err().contains("overlapping"));
        assert!(validate_chrome_json("{\"not\":\"an array\"}").is_err());
        assert!(validate_chrome_json("[{\"name\":\"x\"}]").is_err(), "missing ph");
    }

    #[test]
    fn dropped_spans_surface_as_a_counter() {
        let mut ring = SpanRing::with_capacity(1);
        ring.push(span(0, 0, 0.0, 1.0));
        ring.push(span(1, 0, 1.0, 2.0));
        let (spans, dropped) = ring.into_spans();
        let json = chrome_trace_json(&Trace { spans, dropped }, &[0.0, 1.0], &[]);
        assert!(json.contains("spans_dropped"));
        validate_chrome_json(&json).unwrap();
    }
}
