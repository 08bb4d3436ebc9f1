//! Serve's ingress under seeded structural fuzzing: mutations of
//! multi-session `.wcmt` streams go through [`Ingest::step`] — the step
//! every tail and TCP source runs — in random chunk sizes, and must
//! agree with whole-buffer [`decode`] under [`DecodePolicy::Strict`]:
//!
//! * when `decode` accepts a stream, the demands and timestamps routed
//!   to each session are exactly that session's frames in stream order,
//!   and those frames, concatenated, are `Decoded::demands`/`times`;
//! * when `decode` fails, the source dies with the same error kind and
//!   offset — except on a truncation at the very end of the input or a
//!   missing end marker, where a live source parks instead (more bytes
//!   may still come).
//!
//! Half the cases are byte-level [`mutate`] mutations (mostly damage);
//! the other half re-sequence a document's intact frames, so most of
//! them decode and the routing itself is under test. The per-session
//! oracle is `decode` too: every `META`/`DEMANDS`/
//! `TIMES` frame of an accepted stream is re-sealed alone and decoded.

use std::collections::BTreeMap;

use wcm_events::{Cycles, ExecutionInterval, TimedEvent, TimedTrace, TypeRegistry};
use wcm_serve::Ingest;
use wcm_wire::frame::{KIND_DEMANDS, KIND_META, KIND_TIMES};
use wcm_wire::fuzz::{mutate, SeededRng};
use wcm_wire::{decode, DecodePolicy, FrameReader, FrameWriter, StreamEncoder, WireError};

/// Seeded mutation cases.
const CASES: u64 = 2_000;

/// Per-session routed values: demands, and timestamps as bits.
type Routed = BTreeMap<String, (Vec<u64>, Vec<u64>)>;

fn corpus() -> Vec<Vec<u8>> {
    let mut interleaved = StreamEncoder::new();
    for sitting in 0..3u64 {
        for s in 0..4u64 {
            interleaved.meta(&format!("session-{s}"));
            if s % 2 == 0 {
                let t0 = sitting as f64 * 0.5;
                interleaved
                    .times(&(0..6).map(|i| t0 + i as f64 * 0.04).collect::<Vec<_>>())
                    .unwrap();
            }
            interleaved.demands(
                &(0..6)
                    .map(|i| 100 * s + 7 * sitting + i)
                    .collect::<Vec<_>>(),
            );
        }
    }

    // Frames before any META route to the default session; kinds the
    // router ignores sit between data frames.
    let mut reg = TypeRegistry::new();
    let ty = reg
        .register("P", ExecutionInterval::new(Cycles(1), Cycles(4)).unwrap())
        .unwrap();
    let trace = TimedTrace::new(
        reg.clone(),
        (0..5)
            .map(|i| TimedEvent {
                time: f64::from(i),
                ty,
            })
            .collect(),
    )
    .unwrap();
    let mut mixed = StreamEncoder::new();
    mixed.demands(&[3, 1, 4, 1, 5]);
    mixed.registry(trace.registry());
    mixed.events(&[ty, ty]);
    mixed.meta("named");
    mixed.times(&[0.0, 0.25, 0.5]).unwrap();
    mixed.app_frame(0x41, b"opaque");
    mixed.demands(&[9, 2, 6]);
    mixed.meta("session-0");
    mixed.demands(&[5, 3]);

    vec![
        interleaved.finish(),
        mixed.finish(),
        wcm_wire::encode_timed_trace("typed", &trace),
        StreamEncoder::new().finish(),
    ]
}

/// A frame-level mutation that keeps every frame intact: a random
/// sequence of one corpus document's frames (drawn with repetition, so
/// sessions re-interleave and data moves between them), sealed anew.
/// Most such streams decode, so the routing check gets exercised; a
/// repeated registry or an events frame ahead of it must still kill the
/// source exactly where `decode` fails.
fn reshuffle(corpus: &[&[u8]], rng: &mut SeededRng) -> Vec<u8> {
    let mut reader = FrameReader::new(corpus[rng.below(corpus.len())]).unwrap();
    let mut frames = Vec::new();
    while let Some(frame) = reader.next_strict().unwrap() {
        frames.push(frame);
    }
    let mut out = FrameWriter::new();
    for _ in 0..rng.below(2 * frames.len() + 1) {
        let frame = frames[rng.below(frames.len())];
        out.push(frame.kind, frame.payload);
    }
    out.finish()
}

/// Feed `doc` to a fresh ingest step in random chunks (possibly empty),
/// stopping at the first death.
fn ingest_chunked(doc: &[u8], rng: &mut SeededRng) -> (Routed, Option<WireError>) {
    let mut ingest = Ingest::default();
    let mut routed = Routed::new();
    let mut rest = doc;
    loop {
        let n = match rng.below(8) {
            0 => 0,
            1..=4 => rng.below(7) + 1,
            5 | 6 => rng.below(64) + 1,
            _ => rng.below(rest.len() + 1),
        }
        .min(rest.len());
        let (head, tail) = rest.split_at(n);
        rest = tail;
        let poll = ingest.step(head);
        assert_eq!(poll.bytes, n);
        for (name, batch) in poll.batches {
            let entry = routed.entry(name).or_default();
            entry.0.extend_from_slice(&batch.demands);
            entry.1.extend(batch.times.iter().map(|t| t.to_bits()));
        }
        if poll.dead.is_some() {
            return (routed, poll.dead);
        }
        if rest.is_empty() {
            return (routed, None);
        }
    }
}

/// The per-session split of an accepted stream, from `decode` of each
/// routed frame alone; also returns the demands and timestamp bits in
/// stream order.
fn oracle(doc: &[u8]) -> (Routed, Vec<u64>, Vec<u64>) {
    let mut reader = FrameReader::new(doc).unwrap();
    let mut per_session = Routed::new();
    let (mut demands, mut times) = (Vec::new(), Vec::new());
    let mut current = String::new();
    while let Some(frame) = reader.next_strict().unwrap() {
        if ![KIND_META, KIND_DEMANDS, KIND_TIMES].contains(&frame.kind) {
            continue;
        }
        let mut alone = FrameWriter::new();
        alone.push(frame.kind, frame.payload);
        let d = decode(&alone.finish(), DecodePolicy::Strict).unwrap();
        if let Some(name) = d.name {
            current = name;
            continue;
        }
        let bits: Vec<u64> = d.times.iter().map(|t| t.to_bits()).collect();
        let entry = per_session.entry(current.clone()).or_default();
        entry.0.extend_from_slice(&d.demands);
        entry.1.extend_from_slice(&bits);
        demands.extend_from_slice(&d.demands);
        times.extend_from_slice(&bits);
    }
    (per_session, demands, times)
}

#[test]
fn ingest_step_agrees_with_decode_on_fuzzed_streams() {
    let corpus = corpus();
    let refs: Vec<&[u8]> = corpus.iter().map(Vec::as_slice).collect();
    let (mut accepted, mut died, mut parked) = (0, 0, 0);
    for seed in 0..CASES + refs.len() as u64 {
        let mut rng = SeededRng::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
        let doc = match refs.get(seed as usize) {
            Some(doc) => doc.to_vec(),
            None if seed % 2 == 0 => reshuffle(&refs, &mut rng),
            None => mutate(&refs, 0x5E2F_1A6E ^ seed),
        };
        let (routed, dead) = ingest_chunked(&doc, &mut rng);
        match decode(&doc, DecodePolicy::Strict) {
            Ok(d) => {
                accepted += 1;
                assert_eq!(dead, None, "seed {seed}: accepted stream killed the source");
                let (per_session, demands, times) = oracle(&doc);
                assert_eq!(routed, per_session, "seed {seed}: per-session routing");
                assert_eq!(d.demands, demands, "seed {seed}: demands in stream order");
                let bits: Vec<u64> = d.times.iter().map(|t| t.to_bits()).collect();
                assert_eq!(bits, times, "seed {seed}: times in stream order");
            }
            Err(e) if e.is_truncation() && e.offset == doc.len() => {
                parked += 1;
                assert_eq!(dead, None, "seed {seed}: a torn tail must park, not die");
            }
            Err(e) => {
                died += 1;
                assert_eq!(dead, Some(e), "seed {seed}: death must match decode");
            }
        }
    }
    // The sweep only means something if it reaches every outcome.
    assert!(
        accepted > 400 && died > 400 && parked > 100,
        "{accepted}/{died}/{parked}"
    );
}
