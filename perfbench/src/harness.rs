//! The run protocol shared by every workload: set-up, timed passes,
//! oracles, and the metrics of one run.
//!
//! An untraced run (`--trace 0`) times the checked passes for
//! `--seconds` and one set-up after each, and reports medians. A traced
//! run (`--trace 1`) installs the in-memory recorder, times untraced
//! passes, traced passes, and (where the workload asks for it) the
//! 1-thread rung, and reports the per-layer breakdown of the traced
//! passes.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use wcm::events::window::Parallelism;
use wcm::obs;

use crate::trace;

/// Boxed error of any layer.
pub type Error = Box<dyn std::error::Error>;

/// Threads every workload runs on (the host has 2 cores).
pub const THREADS: usize = 2;

/// The parallelism of every measured pass.
pub const PAR: Parallelism = Parallelism::Threads(THREADS);

/// Fewest timed passes per phase.
const MIN_PASSES: usize = 5;

/// Input size of a workload: the benchmark runs at `Full` scale; the
/// self-check tests run the same code at `Small` scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` describes.
    Full,
    /// A few seconds of work in total, for tests.
    Small,
}

/// What one checked pass produced.
#[derive(Debug, Clone, Default)]
pub struct Check {
    /// Digest of the pass's outputs; every pass of a run must agree.
    pub digest: u64,
    /// Operations the oracles checked.
    pub attempted: u64,
    /// Operations that failed an oracle, were dropped or were lost.
    pub failed: u64,
    /// Demand events the pass processed (`events_per_s`).
    pub events: u64,
    /// Design points the pass decided (`points_per_s`).
    pub points: u64,
    /// Independent input streams the pass kept state for
    /// (`rss_per_session_kb`).
    pub sessions: u64,
    /// Layer facts only the pass knows (decode report, pruning), by
    /// metric name.
    pub facts: Vec<(&'static str, f64)>,
}

/// One benchmark workload.
pub trait Workload {
    /// Inputs made by [`Workload::setup`] from the seed.
    type Input;
    /// Per-pass state made outside the timed phase.
    type Ready;
    /// Results of one pass, kept alive until its memory is measured.
    type Out;

    /// Makes the inputs from the seed; timed as `setup_s`.
    ///
    /// # Errors
    ///
    /// Any layer's error.
    fn setup(&self, seed: u64) -> Result<Self::Input, Error>;

    /// Computes oracle references once, outside set-up and passes.
    ///
    /// # Errors
    ///
    /// Any layer's error.
    fn reference(&self, _input: &mut Self::Input) -> Result<(), Error> {
        Ok(())
    }

    /// Untimed per-pass preparation.
    ///
    /// # Errors
    ///
    /// Any layer's error.
    fn prepare(&self, input: &Self::Input, par: Parallelism) -> Result<Self::Ready, Error>;

    /// The timed phase: input in, checked result out.
    ///
    /// # Errors
    ///
    /// Any layer's error.
    fn pass(
        &self,
        input: &Self::Input,
        ready: Self::Ready,
        par: Parallelism,
    ) -> Result<(Self::Out, Check), Error>;

    /// Layer timings a traced run measures outside the passes.
    ///
    /// # Errors
    ///
    /// Any layer's error.
    fn probe(&self, _input: &Self::Input) -> Result<Vec<(&'static str, f64)>, Error> {
        Ok(Vec::new())
    }

    /// Whether the traced run also measures the 1-thread rung.
    fn seq_rung(&self) -> bool {
        false
    }
}

/// The arguments of one run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Workload seed.
    pub seed: u64,
    /// Seconds of timed passes.
    pub seconds: f64,
    /// Traced (`true`) or untraced run.
    pub trace: bool,
}

/// Everything a run reports.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Every oracle held and every pass gave the same digest.
    pub correct: bool,
    /// Operations checked.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Digest of the outputs.
    pub digest: u64,
    /// Passes run.
    pub passes: usize,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
}

/// Oracle and digest bookkeeping across the passes of a run.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    digest: Option<u64>,
    diverged: bool,
    passes: usize,
}

impl Tally {
    fn add(&mut self, check: &Check) {
        self.passes += 1;
        self.attempted += check.attempted;
        self.failed += check.failed;
        match self.digest {
            None => self.digest = Some(check.digest),
            Some(d) if d != check.digest => {
                // A pass that disagrees with the first is wrong as a whole.
                self.diverged = true;
                self.failed += check.attempted.saturating_sub(check.failed);
            }
            Some(_) => {}
        }
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// One `key: value kB` line of `/proc/self/status`.
fn status_kb(key: &str) -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .unwrap_or(0.0)
}

/// Resident set size of this process, kB.
#[must_use]
fn rss_kb() -> f64 {
    status_kb("VmRSS:")
}

/// Peak resident set size of this process, kB.
#[must_use]
fn peak_rss_kb() -> f64 {
    status_kb("VmHWM:")
}

fn timed<T>(f: impl FnOnce() -> Result<T, Error>) -> Result<(T, f64), Error> {
    let t0 = Instant::now();
    let out = f()?;
    Ok((out, t0.elapsed().as_secs_f64()))
}

/// Runs passes until `budget` has elapsed (and at least [`MIN_PASSES`]
/// ran), calling `between` after each, and returns each pass's wall
/// time.
fn pass_loop<W: Workload>(
    w: &W,
    input: &W::Input,
    par: Parallelism,
    budget: Duration,
    tally: &mut Tally,
    mut between: impl FnMut() -> Result<(), Error>,
) -> Result<Vec<f64>, Error> {
    let start = Instant::now();
    let mut walls = Vec::new();
    while walls.len() < MIN_PASSES || start.elapsed() < budget {
        let ready = w.prepare(input, par)?;
        let ((out, check), wall) = timed(|| w.pass(input, ready, par))?;
        drop(out);
        tally.add(&check);
        walls.push(wall);
        between()?;
    }
    Ok(walls)
}

/// The untimed first pass: it fills caches, starts the thread pool and
/// finishes lazy set-up, and measures the memory its results hold (RSS
/// after it, while the results are alive, less RSS before it), in kB.
fn warm_up<W: Workload>(w: &W, input: &W::Input, tally: &mut Tally) -> Result<(Check, f64), Error> {
    let ready = w.prepare(input, PAR)?;
    let rss_before = rss_kb();
    let (out, check) = w.pass(input, ready, PAR)?;
    let held_kb = rss_kb() - rss_before;
    drop(out);
    tally.add(&check);
    Ok((check, held_kb))
}

/// Runs one workload under `cfg`.
///
/// # Errors
///
/// Any layer's error; an oracle failure is a result, not an error.
pub fn run<W: Workload>(w: &W, cfg: &RunConfig) -> Result<RunResult, Error> {
    if cfg.trace {
        run_traced(w, cfg)
    } else {
        run_plain(w, cfg)
    }
}

fn finish(tally: &Tally, metrics: BTreeMap<&'static str, f64>) -> RunResult {
    RunResult {
        correct: tally.failed == 0 && !tally.diverged && tally.passes > 0,
        attempted: tally.attempted.max(1),
        failed: tally.failed,
        digest: tally.digest.unwrap_or(0),
        passes: tally.passes,
        metrics,
    }
}

fn run_plain<W: Workload>(w: &W, cfg: &RunConfig) -> Result<RunResult, Error> {
    let mut tally = Tally::default();
    let (mut input, t) = timed(|| w.setup(cfg.seed))?;
    let mut setup_times = vec![t];
    w.reference(&mut input)?;
    let (first, held_kb) = warm_up(w, &input, &mut tally)?;
    // One set-up after each pass, so that `setup_s` and `wall_s` sample
    // the host over the same span of time.
    let budget = Duration::from_secs_f64(cfg.seconds);
    let walls = pass_loop(w, &input, PAR, budget, &mut tally, || {
        let (again, t) = timed(|| w.setup(cfg.seed))?;
        drop(again);
        setup_times.push(t);
        Ok(())
    })?;
    drop(input);

    let wall_s = median(&walls);
    let mut m = BTreeMap::new();
    m.insert("setup_s", median(&setup_times));
    m.insert("wall_s", wall_s);
    m.insert("events_per_s", first.events as f64 / wall_s);
    m.insert("points_per_s", first.points as f64 / wall_s);
    m.insert("peak_rss_mb", peak_rss_kb() / 1024.0);
    m.insert(
        "rss_per_session_kb",
        held_kb.max(0.0) / first.sessions.max(1) as f64,
    );
    Ok(finish(&tally, m))
}

fn run_traced<W: Workload>(w: &W, cfg: &RunConfig) -> Result<RunResult, Error> {
    let rec = obs::mem();
    let main_tid = obs::thread_id();
    let mut tally = Tally::default();

    rec.reset();
    obs::set_enabled(true);
    let setup = w.setup(cfg.seed);
    obs::set_enabled(false);
    let mut input = setup?;
    let setup_snap = rec.snapshot();
    w.reference(&mut input)?;

    warm_up(w, &input, &mut tally)?;
    let phase = Duration::from_secs_f64(cfg.seconds / 2.0);
    let plain = pass_loop(w, &input, PAR, phase, &mut tally, || Ok(()))?;

    let mut traced_walls = Vec::new();
    let mut per_pass: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let start = Instant::now();
    while traced_walls.len() < MIN_PASSES || start.elapsed() < phase {
        let ready = w.prepare(&input, PAR)?;
        rec.reset();
        obs::set_enabled(true);
        let result = timed(|| w.pass(&input, ready, PAR));
        obs::set_enabled(false);
        let ((out, check), wall) = result?;
        drop(out);
        let snap = rec.snapshot();
        let mut layer = trace::layer_metrics(&snap, main_tid, wall, THREADS);
        for &(name, value) in &check.facts {
            layer.insert(name, value);
        }
        per_pass.push(layer);
        tally.add(&check);
        traced_walls.push(wall);
    }
    rec.reset();

    let speedup = if w.seq_rung() {
        let seq = pass_loop(w, &input, Parallelism::Seq, phase, &mut tally, || Ok(()))?;
        median(&seq) / median(&plain)
    } else {
        0.0
    };
    let probed = w.probe(&input)?;
    drop(input);

    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let names: Vec<&'static str> = per_pass.iter().flat_map(|p| p.keys().copied()).collect();
    for name in names {
        let values: Vec<f64> = per_pass
            .iter()
            .map(|p| p.get(name).copied().unwrap_or(0.0))
            .collect();
        m.insert(name, median(&values));
    }
    m.insert(
        "mpeg.synthesize_s",
        trace::span_seconds(&setup_snap, "mpeg.synthesize"),
    );
    m.insert("obs.trace_overhead", median(&traced_walls) / median(&plain));
    m.insert("par.speedup_2t", speedup);
    for (name, value) in probed {
        m.insert(name, value);
    }
    trace::derive(&mut m);
    Ok(finish(&tally, m))
}
