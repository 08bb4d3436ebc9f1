//! Golden outputs of whole-buffer [`decode`], compared line for line.
//!
//! `fixtures/golden_decode.txt` holds what `decode()` returned on a
//! fixed corpus and on seeded [`mutate`] mutations of it, under both
//! policies, captured while `decode()` still ran its own frame loop —
//! before it became one [`wcm_wire::FrameDecoder`] feed plus `finish`.
//! Each line is either the error (kind and offset) or every
//! [`wcm_wire::DecodeReport`] field plus an FNV-1a digest of each
//! [`Decoded`] field; timestamps are hashed by `f64::to_bits`, so the
//! pin is bitwise.
//!
//! The corpus is the one `stream_incremental.rs` mutates (a mixed trace
//! stream, a sweep-shard stream, a demands-only stream, an empty stream)
//! plus a timed typed trace and hand-built streams whose frames pass
//! their CRC but carry payloads the codecs reject, so payload errors and
//! lenient payload skips are pinned too, not only framing damage.

use wcm_events::summary::{CurveSummary, Sides};
use wcm_events::{Cycles, ExecutionInterval, TimedEvent, TimedTrace, TypeRegistry};
use wcm_wire::frame::{
    KIND_DEMANDS, KIND_EVENTS, KIND_META, KIND_REGISTRY, KIND_SWEEP_POINTS, KIND_TIMES,
};
use wcm_wire::fuzz::mutate;
use wcm_wire::sweep::{SweepAdvisoryRec, SweepPointRec, SweepShardMeta, SweepSimRec};
use wcm_wire::varint::{put_str, put_varint};
use wcm_wire::{decode, DecodePolicy, Decoded, FrameWriter, StreamEncoder, WireError};

const FIXTURE: &str = include_str!("fixtures/golden_decode.txt");

/// Seeded mutation cases per policy.
const CASES: u64 = 300;

/// Base seed of the mutation sweep.
const BASE_SEED: u64 = 0x601D_DEC0;

fn corpus() -> Vec<Vec<u8>> {
    let demands: Vec<u64> = (0..400u64)
        .map(|i| i.wrapping_mul(2_654_435_761) >> 40)
        .collect();

    let mut full = StreamEncoder::new();
    full.meta("incremental");
    full.demands(&demands);
    full.times(&(0..300).map(|i| i as f64 * 0.05).collect::<Vec<_>>())
        .unwrap();
    full.summary(&CurveSummary::from_values(
        &demands,
        &[1, 2, 4, 8],
        Sides::Both,
    ));
    full.app_frame(0x40, b"app bytes");

    let mut shard = StreamEncoder::new();
    shard.sweep_meta(&SweepShardMeta {
        shard: 1,
        shards: 3,
        start: 60,
        len: 40,
        total: 180,
        fingerprint: 0xFEED_FACE_CAFE_BEEF,
        clips: vec!["newscast".into(), "soccer".into()],
        frequencies_hz: vec![2.0e6, 3.4e8],
        capacities: vec![1, 2, 4, 8, 16],
        policies: vec![0, 1, 2],
        seeds: vec![None, Some(7), Some(8)],
        advisories: vec![SweepAdvisoryRec {
            clip: 0,
            frequency_hz: 3.4e8,
            schedulable: true,
            l_factor: 0.82,
        }],
    });
    let points: Vec<SweepPointRec> = (0..40)
        .map(|i| SweepPointRec {
            verdict: (i % 4) as u8,
            sim: (i % 3 == 0).then_some(SweepSimRec {
                max_backlog: i * 11,
                dropped: i / 2,
                pe1_stalled_s: i as f64 * 0.001,
            }),
        })
        .collect();
    shard.sweep_points(&points);

    let mut docs = vec![
        full.finish(),
        shard.finish(),
        wcm_wire::encode_demands("d-only", &demands),
        StreamEncoder::new().finish(),
        wcm_wire::encode_timed_trace("typed", &timed_trace()),
    ];
    docs.extend(crafted());
    docs
}

fn timed_trace() -> TimedTrace {
    let mut reg = TypeRegistry::new();
    let i = reg
        .register(
            "I",
            ExecutionInterval::new(Cycles(800), Cycles(900)).unwrap(),
        )
        .unwrap();
    let p = reg
        .register(
            "P",
            ExecutionInterval::new(Cycles(120), Cycles(420)).unwrap(),
        )
        .unwrap();
    let events = (0..60)
        .map(|k| TimedEvent {
            time: f64::from(k) / 30.0,
            ty: if k % 12 == 0 { i } else { p },
        })
        .collect();
    TimedTrace::new(reg, events).unwrap()
}

fn varints(vals: &[u64]) -> Vec<u8> {
    let mut out = Vec::new();
    for &v in vals {
        put_varint(&mut out, v);
    }
    out
}

fn registry_payload() -> Vec<u8> {
    let mut out = varints(&[1]);
    put_str(&mut out, "a");
    out.extend(varints(&[1, 3]));
    out
}

/// Streams of CRC-valid frames, each carrying one payload the codecs
/// reject between good frames: strict decode fails at that frame,
/// lenient decode skips exactly it.
fn crafted() -> Vec<Vec<u8>> {
    let bad: Vec<(u8, Vec<u8>)> = vec![
        (KIND_EVENTS, varints(&[1, 0])),       // events before any registry
        (KIND_REGISTRY, registry_payload()),   // second registry (one precedes)
        (KIND_SWEEP_POINTS, varints(&[1, 0])), // points before sweep meta
        (KIND_DEMANDS, varints(&[9, 1])),      // count beyond the payload
        (KIND_DEMANDS, varints(&[1, 5, 7])),   // trailing payload bytes
        (KIND_TIMES, varints(&[1, u64::MAX])), // non-finite timestamp
        (KIND_META, vec![2, 0xFF, 0xFE]),      // name is not UTF-8
        (KIND_DEMANDS, vec![1, 0x80]),         // varint runs off the payload
        (0x2A, b"unknown core kind".to_vec()), // counted, not fatal
    ];
    bad.into_iter()
        .enumerate()
        .map(|(i, (kind, payload))| {
            let mut w = FrameWriter::new();
            let mut meta = Vec::new();
            put_str(&mut meta, &format!("crafted{i}"));
            w.push(KIND_META, &meta);
            if kind == KIND_REGISTRY {
                w.push(KIND_REGISTRY, &registry_payload());
            }
            w.push(KIND_DEMANDS, &varints(&[2, 10, 20]));
            w.push(kind, &payload);
            w.push(KIND_DEMANDS, &varints(&[1, 30]));
            w.finish()
        })
        .collect()
}

/// 64-bit FNV-1a.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
    })
}

fn fnv_words(words: impl Iterator<Item = u64>) -> u64 {
    fnv(&words.flat_map(u64::to_le_bytes).collect::<Vec<_>>())
}

fn fnv_debug(value: &impl std::fmt::Debug) -> u64 {
    fnv(format!("{value:?}").as_bytes())
}

fn render(result: &Result<Decoded, WireError>) -> String {
    match result {
        Err(e) => format!("err {:?} @{}", e.kind, e.offset),
        Ok(d) => {
            let r = &d.report;
            let app: Vec<u8> = d
                .app_frames
                .iter()
                .flat_map(|(kind, payload)| {
                    let mut v = vec![*kind];
                    v.extend_from_slice(&(payload.len() as u64).to_le_bytes());
                    v.extend_from_slice(payload);
                    v
                })
                .collect();
            format!(
                "ok read={} skipped={} unknown={} lost={} events={} truncated={} clean_end={} \
                 name={:016x} demands={:016x} times={:016x} trace={:016x} summaries={:016x} \
                 app={:016x} sweep_meta={:016x} sweep_points={:016x}",
                r.frames_read,
                r.frames_skipped,
                r.frames_unknown,
                r.bytes_lost,
                r.events_decoded,
                r.truncated,
                r.clean_end,
                fnv_debug(&d.name),
                fnv_words(d.demands.iter().copied()),
                fnv_words(d.times.iter().map(|t| t.to_bits())),
                fnv_debug(&d.trace),
                fnv_debug(&d.summaries),
                fnv(&app),
                fnv_debug(&d.sweep_meta),
                fnv_debug(&d.sweep_points),
            )
        }
    }
}

/// Every fixture line, in file order: the unmutated corpus, then the
/// seeded mutations, each under both policies.
fn lines() -> Vec<String> {
    let corpus = corpus();
    let refs: Vec<&[u8]> = corpus.iter().map(Vec::as_slice).collect();
    let mut cases: Vec<(String, Vec<u8>)> = corpus
        .iter()
        .enumerate()
        .map(|(i, doc)| (format!("corpus{i}"), doc.clone()))
        .collect();
    cases.extend((0..CASES).map(|seed| (format!("seed{seed}"), mutate(&refs, BASE_SEED ^ seed))));
    let mut out = Vec::new();
    for (label, doc) in &cases {
        for (tag, policy) in [
            ("strict", DecodePolicy::Strict),
            ("skip", DecodePolicy::SkipCorrupt),
        ] {
            out.push(format!("{label} {tag}: {}", render(&decode(doc, policy))));
        }
    }
    out
}

#[test]
fn decode_matches_golden_fixture() {
    let want: Vec<&str> = FIXTURE.lines().filter(|l| !l.starts_with('#')).collect();
    let got = lines();
    assert_eq!(got.len(), want.len(), "fixture line count");
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g, w, "decode output diverged from the golden fixture");
    }
}

#[test]
fn fixture_exercises_errors_and_damage_accounting() {
    // The pin is only as good as its coverage: both policies must reach
    // strict errors, lenient skips, truncation and clean ends.
    for needle in [
        "strict: err",
        "skip: err",
        "skipped=1",
        "unknown=1",
        "truncated=true",
        "clean_end=true",
        "err UnknownType",
        "err DuplicateRegistry",
        "err BadPayload",
        "err CountTooLarge",
        "err TrailingPayload",
        "err NonFinite",
        "err BadUtf8",
    ] {
        assert!(FIXTURE.contains(needle), "fixture never shows {needle:?}");
    }
}
