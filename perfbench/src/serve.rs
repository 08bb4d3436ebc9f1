//! `serve_fanout` and `serve_deep`: one multiplexed `.wcmt` tail file
//! replayed through `wcm-serve` until drain.
//!
//! Both are closed-loop replays: the whole stream is on disk before the
//! first round, and the service pulls it as fast as it can at the
//! default 1 MiB per-poll budget.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use rand::Rng;
use wcm::events::window::Parallelism;
use wcm::obs::span;
use wcm::serve::{ServeConfig, Service, SessionState, TailSource};
use wcm::wire::{DecodePolicy, FrameDecoder, StreamEncoder};

use crate::harness::{Check, Error, Scale, Workload, PAR};
use crate::rng::{rng, Digest};

/// The service's default per-poll read budget, which the probes use too.
const BUDGET: usize = 1 << 20;

/// Rounds after which a replay that never goes idle is an error: far
/// more than a complete stream needs, so a stuck service fails the run
/// instead of hanging it.
const MAX_ROUNDS: u64 = 1_000_000;

/// Directory, under the working directory, for the stream files.
const WORK_DIR: &str = ".perfbench_work";

/// MPEG-like per-picture demand shape of one GOP.
const GOP: [u64; 12] = [900, 150, 150, 420, 150, 150, 420, 150, 150, 420, 150, 150];

/// One serve workload's stream shape.
#[derive(Debug, Clone, Copy)]
pub struct ServeWorkload {
    name: &'static str,
    sessions: usize,
    events: usize,
    /// Events per `META`-introduced sitting.
    sitting: usize,
    /// Whether sittings carry a `TIMES` frame before their `DEMANDS`.
    timestamps: bool,
    /// Sessions whose snapshots are checked against the batch path.
    sample: usize,
    /// Whether the traced run also measures the 1-thread rung.
    seq_rung: bool,
}

impl ServeWorkload {
    /// Many short sessions in 8-event sittings without timestamps: routing
    /// and session creation dominate.
    #[must_use]
    pub fn fanout(scale: Scale) -> Self {
        let (sessions, sample) = match scale {
            Scale::Full => (20_000, 64),
            Scale::Small => (500, 16),
        };
        Self {
            name: "serve_fanout",
            sessions,
            events: 24,
            sitting: 8,
            timestamps: false,
            sample,
            seq_rung: false,
        }
    }

    /// A few long sessions with timestamps in 64-event sittings: the
    /// spine, the monitor and eq.-9 admission dominate.
    #[must_use]
    pub fn deep(scale: Scale) -> Self {
        let (sessions, events) = match scale {
            Scale::Full => (16, 20_000),
            Scale::Small => (4, 2_000),
        };
        Self {
            name: "serve_deep",
            sessions,
            events,
            sitting: 64,
            timestamps: true,
            sample: sessions,
            seq_rung: true,
        }
    }

    fn session_name(&self, s: usize) -> String {
        format!("s{s:05}")
    }

    fn demands(seed: u64, s: usize, n: usize) -> Vec<u64> {
        let mut rng = rng(seed, 0x5E55_0000 + s as u64);
        let phase = rng.gen_range(0..GOP.len());
        let scale: u64 = rng.gen_range(80..=120);
        (0..n)
            .map(|i| GOP[(i + phase) % GOP.len()] * scale / 100 + rng.gen_range(0..23u64))
            .collect()
    }

    /// Sorted timestamps: a per-session period with up to a quarter
    /// period of seeded jitter, which keeps them strictly increasing.
    fn times(seed: u64, s: usize, n: usize) -> Vec<f64> {
        let mut rng = rng(seed, 0x71AE_0000 + s as u64);
        let period = 1.0 / (25.0 + (s % 8) as f64);
        (0..n)
            .map(|i| (i as f64 + rng.gen::<f64>() / 4.0) * period)
            .collect()
    }

    fn config(par: Parallelism) -> ServeConfig {
        ServeConfig {
            par,
            ..ServeConfig::default()
        }
    }

    /// The interleaved stream: sittings round-robin over the sessions,
    /// each introduced by its session's `META`.
    fn stream(&self, seed: u64) -> Result<Vec<u8>, Error> {
        let demands: Vec<Vec<u64>> = (0..self.sessions)
            .map(|s| Self::demands(seed, s, self.events))
            .collect();
        let times: Vec<Vec<f64>> = if self.timestamps {
            (0..self.sessions)
                .map(|s| Self::times(seed, s, self.events))
                .collect()
        } else {
            Vec::new()
        };
        let mut enc = StreamEncoder::new();
        for at in (0..self.events).step_by(self.sitting) {
            let end = (at + self.sitting).min(self.events);
            for (s, d) in demands.iter().enumerate() {
                enc.meta(&self.session_name(s));
                if let Some(t) = times.get(s) {
                    enc.times(&t[at..end])?;
                }
                enc.demands(&d[at..end]);
            }
        }
        Ok(enc.finish())
    }
}

/// Set-ups made so far in this process: each writes its own file.
static SETUPS: AtomicUsize = AtomicUsize::new(0);

/// A stream file removed when its input is dropped.
#[derive(Debug)]
struct WorkFile(PathBuf);

impl Drop for WorkFile {
    fn drop(&mut self) {
        // Best effort: a leftover file is ignored by git and rewritten by
        // the next run.
        let _ = std::fs::remove_file(&self.0);
        if let Some(dir) = self.0.parent() {
            let _ = std::fs::remove_dir(dir);
        }
    }
}

/// The stream on disk, the service made at set-up, and the oracle
/// references.
#[derive(Debug)]
pub struct Input {
    file: WorkFile,
    seed: u64,
    events_written: u64,
    ready: RefCell<Option<Service>>,
    /// `(session index, batch-path snapshot line)` of the sample.
    reference: Vec<(usize, String)>,
}

fn display_name(path: &Path, name: &str) -> String {
    format!("file:{}/{name}", path.display())
}

impl Workload for ServeWorkload {
    type Input = Input;
    type Ready = Service;
    type Out = Service;

    fn setup(&self, seed: u64) -> Result<Input, Error> {
        let bytes = self.stream(seed)?;
        std::fs::create_dir_all(WORK_DIR)?;
        let n = SETUPS.fetch_add(1, Ordering::Relaxed);
        let path =
            Path::new(WORK_DIR).join(format!("{}-{}-{n}.wcmt", self.name, std::process::id()));
        std::fs::write(&path, &bytes)?;
        let file = WorkFile(path);
        let mut svc = Service::new(Self::config(PAR));
        svc.add_tail(&file.0)?;
        Ok(Input {
            file,
            seed,
            events_written: (self.sessions * self.events) as u64,
            ready: RefCell::new(Some(svc)),
            reference: Vec::new(),
        })
    }

    /// The batch `SummarySpine`/`EnvelopeMonitor` path: one session state
    /// fed a sampled session's trace directly, one sitting at a time (as
    /// the stream writes it), so timestamps pair with demands as they do
    /// on the live path.
    fn reference(&self, input: &mut Input) -> Result<(), Error> {
        let mut rng = rng(input.seed, 0x5A3F_0000);
        let mut sample = BTreeSet::new();
        while sample.len() < self.sample.min(self.sessions) {
            sample.insert(rng.gen_range(0..self.sessions));
        }
        let cfg = Self::config(PAR);
        input.reference = sample
            .into_iter()
            .map(|s| {
                let mut state = SessionState::new(&cfg);
                let demands = Self::demands(input.seed, s, self.events);
                let times = Self::times(input.seed, s, self.events);
                for (at, chunk) in demands.chunks(self.sitting).enumerate() {
                    if self.timestamps {
                        let from = at * self.sitting;
                        state.record_times(&times[from..from + chunk.len()], &cfg);
                    }
                    state.enqueue(chunk, &cfg);
                    state.apply_pending(&cfg);
                }
                let name = display_name(&input.file.0, &self.session_name(s));
                (s, state.snapshot_json(&name))
            })
            .collect();
        Ok(())
    }

    fn prepare(&self, input: &Input, par: Parallelism) -> Result<Service, Error> {
        if par == PAR {
            if let Some(svc) = input.ready.borrow_mut().take() {
                return Ok(svc);
            }
        }
        let mut svc = Service::new(Self::config(par));
        svc.add_tail(&input.file.0)?;
        Ok(svc)
    }

    fn pass(
        &self,
        input: &Input,
        mut svc: Service,
        _par: Parallelism,
    ) -> Result<(Service, Check), Error> {
        let mut dead = 0usize;
        let mut rounds = 0u64;
        loop {
            let report = svc.round()?;
            dead += report.dead.len();
            if report.idle || dead > 0 {
                break;
            }
            rounds += 1;
            if rounds > MAX_ROUNDS {
                return Err("the service never went idle".into());
            }
        }
        dead += svc.drain()?.dead.len();
        let lines = {
            let _span = span("serve.snapshots");
            svc.snapshots()
        };

        // Oracles: every written event applied, none dropped, no dead
        // source, the exact session count, and the sampled snapshots
        // byte-identical to the batch path. Monitor violations are
        // results, not failures.
        let _check = span("bench.check");
        let stats = svc.stats();
        let written = input.events_written;
        let parity = input
            .reference
            .iter()
            .all(|(s, line)| lines.get(*s) == Some(line));
        let intact = dead == 0
            && stats.dead_sources == 0
            && stats.events <= written
            && lines.len() == self.sessions
            && svc.session_count() == self.sessions
            && parity;
        let failed = if intact {
            written - stats.events
        } else {
            written
        };

        // The file name differs between runs; the digest leaves it out.
        let prefix = display_name(&input.file.0, "");
        let mut digest = Digest::default();
        for line in &lines {
            digest.bytes(line.replace(&prefix, "").as_bytes());
        }
        let check = Check {
            digest: digest.finish(),
            attempted: written,
            failed,
            events: stats.events,
            points: self.sessions as u64,
            sessions: self.sessions as u64,
            facts: Vec::new(),
        };
        Ok((svc, check))
    }

    /// `FrameDecoder::feed` and `TailSource::poll` over the stream alone;
    /// their difference is the routing `poll` adds to decoding.
    fn probe(&self, input: &Input) -> Result<Vec<(&'static str, f64)>, Error> {
        let bytes = std::fs::read(&input.file.0)?;
        let t0 = Instant::now();
        let mut dec = FrameDecoder::new(DecodePolicy::Strict);
        for chunk in bytes.chunks(BUDGET) {
            dec.feed_with(chunk, |_| {})?;
            dec.reset_decoded();
        }
        let report = dec.finish()?.report;
        let feed_s = t0.elapsed().as_secs_f64();

        let t0 = Instant::now();
        let mut tail = TailSource::open(&input.file.0)?;
        loop {
            let poll = tail.poll(BUDGET, false)?;
            if let Some(e) = poll.dead {
                return Err(e.into());
            }
            if poll.ended || poll.bytes == 0 {
                break;
            }
        }
        let poll_s = t0.elapsed().as_secs_f64();
        Ok(vec![
            ("wire.feed_s", feed_s),
            ("serve.poll_s", poll_s),
            ("wire.frames", report.frames_read as f64),
            ("wire.frames_skipped", report.frames_skipped as f64),
        ])
    }

    fn seq_rung(&self) -> bool {
        self.seq_rung
    }
}
