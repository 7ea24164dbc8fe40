//! Per-operation timeline tracing: pooled span recording in the drivers
//! and Chrome `trace_event` export.
//!
//! Three parts, one each: a [`Trace`] is the record, [`chrome_trace_json`]
//! is the writer, [`validate_chrome_json`] is the reader.
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
//! `advance_spanned`'s results; it never feeds back into them).  As each
//! round closes the run also records its absolute start and each
//! device's retries and backoff in it, and at the end each device's
//! kernel-cache hits: the finished [`Trace`] holds everything its export
//! prints, so nothing is rebuilt from a report.
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

use crate::cluster::DeviceRoundObservation;
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
/// a backoff wait.  Past the 64-segment cap the overflow folds into one
/// backoff segment just before the newest, so the last segment is always
/// the latest attempt — a transfer's final, successful attempt keeps its
/// own span, words and prediction however long the retry chain — and
/// the segments still tile the transfer, allocation-free.
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
            self.len += 1;
        } else {
            let (folded, newest) = (self.segs[SEG_CAP - 2].0, self.segs[SEG_CAP - 1].1);
            self.segs[SEG_CAP - 2] = (folded, newest, true);
        }
        self.segs[self.len - 1] = (start_off, end_off, backoff);
    }
}

/// The recording half of tracing: the span pool, the per-transfer
/// segment buffer the fault retry loop fills, and the per-round record
/// the export's counter tracks read.  One tracer serves a whole run (all
/// devices of a cluster).
#[derive(Debug)]
pub struct Tracer {
    ring: SpanRing,
    /// Segment scratch for the in-flight transfer; drained by the next
    /// [`Tracer::record`].
    pub segs: SegBuf,
    /// Absolute start of the round in flight, in milliseconds.
    now_ms: f64,
    round_starts: Vec<f64>,
    round_faults: Vec<(u64, f64)>,
}

impl Tracer {
    /// A tracer whose pool holds `capacity` spans.
    pub fn new(capacity: usize) -> Self {
        Self {
            ring: SpanRing::with_capacity(capacity),
            segs: SegBuf::new(),
            now_ms: 0.0,
            round_starts: Vec::new(),
            round_faults: Vec::new(),
        }
    }

    /// Closes a round that took `total_ms` (`σ + max_d path_d`): records
    /// its absolute start and each device's retries and backoff in it.
    pub(crate) fn end_round(&mut self, total_ms: f64, devices: &[DeviceRoundObservation]) {
        self.round_starts.push(self.now_ms);
        self.now_ms += total_ms;
        self.round_faults.extend(devices.iter().map(|d| (d.retries, d.backoff_ms)));
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
        let span = Span {
            round: round as u32,
            device,
            resource,
            stream,
            kind,
            words,
            start_ms,
            end_ms,
            predicted_ms,
        };
        if self.segs.len == 0 {
            return self.ring.push(span);
        }
        for &(a, b, backoff) in &self.segs.segs[..self.segs.len] {
            let seg = Span { start_ms: start_ms + a, end_ms: start_ms + b, ..span };
            let wait = Span { kind: SpanKind::Backoff, words: 0, predicted_ms: -1.0, ..seg };
            self.ring.push(if backoff { wait } else { seg });
        }
        self.segs.len = 0;
    }

    /// Ends the run, yielding the record (its `cache_hits` are the
    /// run's to fill in).
    pub fn finish(self) -> Trace {
        let (spans, dropped) = self.ring.into_spans();
        let (round_starts, round_faults) = (self.round_starts, self.round_faults);
        Trace { spans, dropped, round_starts, round_faults, cache_hits: Vec::new() }
    }
}

/// A finished run's record: its spans in recording order, and everything
/// else [`chrome_trace_json`] prints.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// The retained spans (oldest evicted first when the pool
    /// overflowed).
    pub spans: Vec<Span>,
    /// Spans evicted because the pool was full.
    pub dropped: u64,
    /// Absolute start of each round in milliseconds: the sum of the
    /// earlier rounds' `σ + max_d path_d`.
    pub round_starts: Vec<f64>,
    /// Each round's `(retries, backoff_ms)` per device, round after
    /// round: device `d` of round `r` is entry `r · D + d`, where `D` is
    /// `cache_hits.len()`.
    pub round_faults: Vec<(u64, f64)>,
    /// Each device's kernel-cache hits at the end of the run.
    pub cache_hits: Vec<u64>,
}

fn push_f64(out: &mut String, v: f64) {
    // Microsecond timestamps with sub-ns precision; fixed notation keeps
    // the file greppable and the validator's parser trivial.
    out.push_str(&format!("{v:.4}"));
}

/// Serialises a trace to Chrome `trace_event` JSON (array format) — the
/// one writer.
///
/// * `pid` = device, `tid` = [`StreamResource::lane`], `ts`/`dur` in
///   microseconds; a span's `ts` is its round's start
///   ([`Trace::round_starts`], 0 where missing) plus its round-relative
///   start.
/// * Each span's `args` carry its round, stream, words and — when
///   present — `predicted_ms` next to `observed_ms`.
/// * Per device, `ph:"C"` counter tracks: cumulative retries and
///   backoff milliseconds sampled at every round start, and the final
///   kernel-cache hit count at the last round's start.
pub fn chrome_trace_json(trace: &Trace) -> String {
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
    let mut seen: Vec<(u32, u8, &str)> = Vec::new();
    let mut devices: Vec<u32> = Vec::new();
    for s in &trace.spans {
        if !devices.contains(&s.device) {
            devices.push(s.device);
        }
        let key = (s.device, s.resource.lane(), s.resource.lane_name());
        if !seen.contains(&key) {
            seen.push(key);
        }
    }
    for d in 0..trace.cache_hits.len() as u32 {
        if !devices.contains(&d) {
            devices.push(d);
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
    for (d, lane, name) in &seen {
        sep(&mut out);
        out.push_str(&format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{d},\"tid\":{lane},\"args\":{{\"name\":\"{name}\"}}}}"
        ));
    }

    for s in &trace.spans {
        let base = trace.round_starts.get(s.round as usize).copied().unwrap_or(0.0);
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

    let mut counter = |name: &str, device: usize, ts_ms: f64, value: f64| {
        sep(&mut out);
        out.push_str(&format!("{{\"name\":\"{name}\",\"ph\":\"C\",\"pid\":{device},\"ts\":"));
        push_f64(&mut out, ts_ms * 1000.0);
        out.push_str(&format!(",\"args\":{{\"{name}\":"));
        push_f64(&mut out, value);
        out.push_str("}}");
    };
    let devices = trace.cache_hits.len();
    let end = trace.round_starts.last().copied().unwrap_or(0.0);
    for (d, &hits) in trace.cache_hits.iter().enumerate() {
        let fault = |r: usize| trace.round_faults.get(r * devices + d).copied().unwrap_or_default();
        let (mut retries, mut backoff) = (0.0, 0.0);
        for (r, &start) in trace.round_starts.iter().enumerate() {
            retries += fault(r).0 as f64;
            counter("retries", d, start, retries);
        }
        for (r, &start) in trace.round_starts.iter().enumerate() {
            backoff += fault(r).1;
            counter("backoff_ms", d, start, backoff);
        }
        counter("cache_hits", d, end, hits as f64);
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
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
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
    fn segment_overflow_folds_into_one_backoff_before_the_final_attempt() {
        // 33 dropped attempts, each followed by its wait, then the
        // successful one: 67 segments through a 64-segment buffer.
        let mut tr = Tracer::new(128);
        let mut t = 0.0;
        for k in 0..67 {
            tr.segs.push(t, t + 1.0, k % 2 == 1);
            t += 1.0;
        }
        tr.record(0, 0, StreamResource::HostToDevice, 0, SpanKind::TransferIn, 64, 1.0, 5.0, 72.0);
        let spans = tr.finish().spans;
        assert_eq!(spans.len(), SEG_CAP);
        // The segments still tile the scheduled interval.
        assert_eq!(spans[0].start_ms, 5.0);
        for w in spans.windows(2) {
            assert_eq!(w[0].end_ms, w[1].start_ms);
        }
        // The overflow is one backoff span; the last is the attempt.
        let (fold, last) = (&spans[SEG_CAP - 2], &spans[SEG_CAP - 1]);
        assert_eq!((fold.kind, fold.start_ms, fold.end_ms), (SpanKind::Backoff, 67.0, 71.0));
        assert_eq!((last.kind, last.words, last.predicted_ms), (SpanKind::TransferIn, 64, 1.0));
        assert_eq!((last.start_ms, last.end_ms), (71.0, 72.0));
    }

    /// A record with two devices over two rounds: spans, round starts,
    /// per-round faults and cache hits.
    fn two_device_trace() -> Trace {
        Trace {
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
            round_starts: vec![0.0, 4.0],
            round_faults: vec![(0, 0.0), (1, 0.5), (2, 1.5), (0, 0.0)],
            cache_hits: vec![3, 1],
        }
    }

    #[test]
    fn export_round_trips_through_the_validator() {
        let json = chrome_trace_json(&two_device_trace());
        let check = validate_chrome_json(&json).unwrap();
        assert_eq!(check.spans, 3);
        // Per device: retries and backoff at both round starts, and the
        // cache hits.
        assert_eq!(check.counters, 2 * (2 + 2 + 1));
        assert_eq!(check.devices, 2);
        // A span sits at its round's start; counters accumulate.
        assert!(json.contains("\"name\":\"TransferIn\",\"cat\":\"timeline\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":4500.0000"));
        assert!(json.contains("{\"name\":\"retries\",\"ph\":\"C\",\"pid\":0,\"ts\":4000.0000,\"args\":{\"retries\":2.0000}}"));
        assert!(json.contains("{\"name\":\"backoff_ms\",\"ph\":\"C\",\"pid\":1,\"ts\":4000.0000,\"args\":{\"backoff_ms\":0.5000}}"));
        assert!(json.contains("{\"name\":\"cache_hits\",\"ph\":\"C\",\"pid\":1,\"ts\":4000.0000,\"args\":{\"cache_hits\":1.0000}}"));
    }

    #[test]
    fn validator_rejects_overlap_and_malformed_input() {
        let spans = vec![span(0, 0, 0.0, 2.0), span(0, 0, 1.0, 3.0)];
        let json = chrome_trace_json(&Trace { spans, ..Trace::default() });
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
        let json = chrome_trace_json(&Trace { spans, dropped, ..Trace::default() });
        assert!(json.contains("spans_dropped"));
        validate_chrome_json(&json).unwrap();
    }
}
