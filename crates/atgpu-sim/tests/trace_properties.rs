//! Property tests for timeline tracing: the recorded spans must be a
//! faithful, lossless transcript of the stream scheduler's decisions.
//!
//! * **No perturbation** — a traced run is bit-identical in outputs,
//!   per-round observations and device statistics to an untraced run.
//! * **Exact reconstruction** — per round, `max(span.end)` equals the
//!   round's `stream_ms` to the bit, and `total_ms = stream_ms +
//!   sync_ms` (the tracing primitive `advance_spanned` *is* the
//!   scheduler, not a parallel re-derivation).
//! * **Lane exclusivity** — spans on one hardware lane of one device
//!   never overlap: each lane models a single DMA/compute engine.
//! * **Serial chain** — an all-stream-0 program's spans form a single
//!   gapless chain per round: each span starts exactly where the
//!   previous one ended.
//! * **Long retry chains** — a transfer retried past the tracer's
//!   segment buffer still tiles its interval, and its final attempt
//!   keeps its own span.

use atgpu_sim::{chrome_trace_json, validate_chrome_json, FaultEvent, FaultPlan, LinkEdge};
use atgpu_sim::{run_program, SimConfig, Span, SpanKind};
use common::{chunked_vecadd, inputs, machine, restream, spec, Rng};
use proptest::prelude::*;

mod common;

fn traced() -> SimConfig {
    SimConfig { trace: true, ..SimConfig::default() }
}

/// Group a trace's spans by round, preserving recording order.
fn by_round(spans: &[Span], rounds: usize) -> Vec<Vec<&Span>> {
    let mut out = vec![Vec::new(); rounds];
    for s in spans {
        out[s.round as usize].push(s);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Randomly streamed programs: tracing changes nothing, and the
    /// spans reconstruct every round's stream time exactly.
    #[test]
    fn spans_reconstruct_stream_timing_exactly(seed in 0u64..1_000_000_000) {
        let mut rng = Rng(seed | 1);
        let chunk = [16u64, 32, 64][rng.below(3) as usize];
        let n = chunk * (1 + rng.below(5));
        let (serial, hc) = chunked_vecadd(n, chunk);
        let streamed = restream(&serial, seed ^ 0xABCD, false);
        let data = inputs(n, seed);

        let base = run_program(&streamed, data.clone(), &machine(), &spec(), &SimConfig::default())
            .unwrap();
        let tr = run_program(&streamed, data, &machine(), &spec(), &traced()).unwrap();

        // Tracing observes, never perturbs: outputs, observations and
        // statistics are bit-identical to the untraced run.
        prop_assert_eq!(base.output(hc), tr.output(hc));
        prop_assert_eq!(&base.rounds, &tr.rounds);
        prop_assert_eq!(&base.device_stats, &tr.device_stats);
        prop_assert!(base.trace.is_none());

        let trace = tr.trace.as_ref().expect("traced run must carry spans");
        prop_assert_eq!(trace.dropped, 0, "default capacity must hold a small program");
        let rounds = by_round(&trace.spans, tr.rounds.len());
        for (obs, spans) in tr.rounds.iter().zip(&rounds) {
            // Reconstruction: the round's stream time is when its last
            // span ends — exactly, to the bit (each round's timeline
            // starts at 0).
            let last_end = spans.iter().map(|s| s.end_ms).fold(0.0f64, f64::max);
            prop_assert_eq!(last_end.to_bits(), obs.stream_ms.to_bits());
            prop_assert_eq!(obs.total_ms().to_bits(), (obs.stream_ms + obs.sync_ms).to_bits());

            // Lane exclusivity: per (device, resource lane), spans are
            // recorded in schedule order and never overlap.
            for lane in 0u8..4 {
                let mut prev_end = f64::NEG_INFINITY;
                for s in spans.iter().filter(|s| s.resource.lane() == lane) {
                    prop_assert!(
                        s.start_ms >= prev_end,
                        "lane {} overlap: span starts {} before previous end {}",
                        lane, s.start_ms, prev_end
                    );
                    prop_assert!(s.end_ms >= s.start_ms);
                    prev_end = s.end_ms;
                }
            }

            // Transfer spans carry the model's prediction; without
            // noise or faults it matches the observation exactly.
            for s in spans {
                if matches!(s.kind, SpanKind::TransferIn | SpanKind::TransferOut) {
                    prop_assert!(s.predicted_ms >= 0.0);
                    prop_assert!((s.dur_ms() - s.predicted_ms).abs() < 1e-12);
                }
            }
        }
    }

    /// An all-stream-0 program is one serial chain: every span starts
    /// exactly where the previous span ended, and the chain's end is
    /// the round's stream time — which equals its serial sum.
    #[test]
    fn single_stream_spans_form_a_serial_chain(seed in 0u64..1_000_000_000) {
        let (serial, _) = chunked_vecadd(64, 32);
        let data = inputs(64, seed);
        let r = run_program(&serial, data, &machine(), &spec(), &traced()).unwrap();
        let trace = r.trace.as_ref().unwrap();
        let rounds = by_round(&trace.spans, r.rounds.len());
        for (obs, spans) in r.rounds.iter().zip(&rounds) {
            let mut cursor = 0.0f64;
            for s in spans {
                prop_assert_eq!(
                    s.start_ms.to_bits(),
                    cursor.to_bits(),
                    "serial chain must be gapless: span starts at {} after {}",
                    s.start_ms,
                    cursor
                );
                cursor = s.end_ms;
            }
            prop_assert_eq!(cursor.to_bits(), obs.stream_ms.to_bits());
            // On one stream the stream-aware path IS the serial sum.
            prop_assert!((obs.total_ms() - obs.serial_ms()).abs() < 1e-12);
        }
    }
}

/// Segments the tracer buffers per transfer (`trace.rs`'s `SEG_CAP`).
const SEGMENT_CAP: usize = 64;

/// The first transfer on host link 0 is dropped 33 times: 33 attempts
/// and 33 waits before the attempt that lands — 67 segments through a
/// 64-segment buffer.  The overflow folds into one backoff span, the
/// final attempt keeps its own span with its words and prediction, the
/// spans tile the scheduled interval, the export validates, and tracing
/// still changes no number.
#[test]
fn a_retry_chain_past_the_segment_buffer_keeps_its_final_attempt() {
    let (program, hc) = chunked_vecadd(64, 32);
    let mut fault = FaultPlan::new(0);
    for nth in 0..=32 {
        fault.push(FaultEvent::TransferDrop { edge: LinkEdge::Host(0), nth });
    }
    let config = SimConfig { fault, ..SimConfig::default() };
    let data = inputs(64, 5);
    let base = run_program(&program, data.clone(), &machine(), &spec(), &config).unwrap();
    let traced_config = SimConfig { trace: true, ..config };
    let tr = run_program(&program, data, &machine(), &spec(), &traced_config).unwrap();
    assert_eq!(base.rounds, tr.rounds);
    assert_eq!(base.output(hc), tr.output(hc));
    assert_eq!(tr.rounds[0].retries, 33);

    let trace = tr.trace.as_ref().unwrap();
    let (chain, next) = (&trace.spans[..SEGMENT_CAP], &trace.spans[SEGMENT_CAP]);
    assert!(chain.iter().all(|s| s.round == 0 && s.resource.lane() == 0));
    assert_eq!(chain[0].start_ms, 0.0);
    for w in chain.windows(2) {
        assert_eq!(w[0].end_ms.to_bits(), w[1].start_ms.to_bits(), "segments tile the transfer");
    }
    // One stream: the next operation starts where the transfer ends.
    assert_eq!(chain[SEGMENT_CAP - 1].end_ms.to_bits(), next.start_ms.to_bits());
    assert_eq!(chain[SEGMENT_CAP - 2].kind, SpanKind::Backoff, "the folded overflow");
    let last = &chain[SEGMENT_CAP - 1];
    assert_eq!((last.kind, last.words), (SpanKind::TransferIn, 32));
    // At this offset the span's end points keep about 1e-10 ms.
    assert!((last.dur_ms() - last.predicted_ms).abs() < 1e-9, "{last:?}");
    for (k, s) in chain[..SEGMENT_CAP - 2].iter().enumerate() {
        let kind = if k % 2 == 0 { SpanKind::TransferIn } else { SpanKind::Backoff };
        assert_eq!(s.kind, kind, "segment {k}");
    }
    validate_chrome_json(&chrome_trace_json(trace)).unwrap();
}
