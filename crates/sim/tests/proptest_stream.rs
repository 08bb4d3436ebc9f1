//! Streaming-sweep equivalence properties.
//!
//! For randomized small specs, [`run_sweep_streaming`] through a
//! collecting sink must reproduce the sequential [`run_sweep`] report
//! byte-for-byte (JSON and CSV included) across worker counts, and any
//! shard split recombined through the `.wcmt` wire round trip and
//! [`merge_shards`] must land on the same bytes.

use proptest::prelude::*;
use wcm_events::window::WindowMode;
use wcm_mpeg::{profile::standard_clips, ClipWorkload, Synthesizer, VideoParams};
use wcm_par::Parallelism;
use wcm_sim::pipeline::OverflowPolicy;
use wcm_sim::{
    merge_shards, run_sweep, run_sweep_streaming, CollectSink, Injector, ShardRange, SweepSpec,
    WcmtShardSink,
};

fn clips(count: usize) -> Vec<ClipWorkload> {
    let params =
        VideoParams::new(160, 128, 25.0, 1.0e6, wcm_mpeg::GopStructure::broadcast()).unwrap();
    let synth = Synthesizer::new(params);
    standard_clips()[..count]
        .iter()
        .map(|c| synth.generate(c, 1).unwrap())
        .collect()
}

/// A randomized-but-small spec: axes drawn from fixed pools so the grid
/// stays cheap while still exercising duplicates, multiple policies and
/// fault seeds.
fn spec_from(raw: &SpecRaw) -> SweepSpec {
    let freq_pool = [2.0e6, 6.0e6, 6.0e6, 20.0e6, 60.0e6];
    let cap_pool = [4u64, 80, 80, 4000];
    let policy_pool = [
        OverflowPolicy::Backpressure,
        OverflowPolicy::Reject,
        OverflowPolicy::DropByPriority,
    ];
    let seed_pool = [None, Some(11u64), Some(raw.seed)];
    SweepSpec {
        pe1_hz: 60.0e6,
        frequencies_hz: freq_pool[..raw.n_freq].to_vec(),
        capacities: cap_pool[..raw.n_cap].to_vec(),
        policies: policy_pool[..raw.n_pol].to_vec(),
        seeds: seed_pool[..raw.n_seed].to_vec(),
        injectors: vec![Injector::JitterBurst {
            start: 5,
            len: 60,
            max_delay_s: 0.004,
        }],
        k_max: 400,
        mode: WindowMode::Strided {
            exact_upto: 96,
            stride: 40,
        },
        cert_depth: 300,
        prune: raw.prune,
    }
}

#[derive(Debug, Clone)]
struct SpecRaw {
    n_freq: usize,
    n_cap: usize,
    n_pol: usize,
    n_seed: usize,
    seed: u64,
    prune: bool,
}

fn spec_raw() -> impl Strategy<Value = SpecRaw> {
    (1usize..=5, 1usize..=4, 1usize..=3, 1usize..=3, 0u64..1000, 0u64..2).prop_map(
        |(n_freq, n_cap, n_pol, n_seed, seed, prune)| SpecRaw {
            n_freq,
            n_cap,
            n_pol,
            n_seed,
            seed,
            prune: prune == 1,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn streamed_sweep_is_byte_identical_across_worker_counts(
        raw in spec_raw(),
        n_clips in 1usize..=2,
    ) {
        let clips = clips(n_clips);
        let spec = spec_from(&raw);
        let dense = run_sweep(&clips, &spec, Parallelism::Seq).unwrap();
        for par in [Parallelism::Seq, Parallelism::Threads(2), Parallelism::Threads(4)] {
            let mut sink = CollectSink::new();
            let summary =
                run_sweep_streaming(&clips, &spec, par, ShardRange::FULL, &mut sink).unwrap();
            let streamed = sink.into_report(&summary);
            prop_assert_eq!(&streamed, &dense, "{:?}: reports diverge", par);
            prop_assert_eq!(streamed.to_json(), dense.to_json(), "{:?}: JSON diverges", par);
            prop_assert_eq!(streamed.to_csv(), dense.to_csv(), "{:?}: CSV diverges", par);
        }
    }

    #[test]
    fn random_shard_splits_recombine_byte_identically(
        raw in spec_raw(),
        count in 1u32..=8,
    ) {
        let clips = clips(1);
        let spec = spec_from(&raw);
        let dense = run_sweep(&clips, &spec, Parallelism::Seq).unwrap();
        let decoded: Vec<wcm_wire::Decoded> = (0..count)
            .map(|index| {
                let mut sink = WcmtShardSink::new(Vec::new()).unwrap();
                run_sweep_streaming(
                    &clips,
                    &spec,
                    Parallelism::Threads(2),
                    ShardRange { index, count },
                    &mut sink,
                )
                .unwrap();
                let bytes = sink.finish_stream().unwrap();
                wcm_wire::decode(&bytes, wcm_wire::DecodePolicy::Strict).unwrap()
            })
            .collect();
        let merged = merge_shards(&decoded).unwrap();
        prop_assert_eq!(&merged, &dense, "{} shards: merged report diverges", count);
        prop_assert_eq!(merged.to_json(), dense.to_json(), "{} shards: JSON", count);
        prop_assert_eq!(merged.to_csv(), dense.to_csv(), "{} shards: CSV", count);
    }
}
