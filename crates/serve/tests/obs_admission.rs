//! Admission is visible in traces: every eq.-9 recompute runs inside a
//! `serve.admission` span nested in its `serve.refresh`, and counts once
//! in `serve.admission.recomputes`.
//!
//! Its own test binary: the recorder is process-global.

use wcm_serve::{ServeConfig, SessionState};

#[test]
fn every_recompute_is_a_nested_span_and_a_count() {
    let cfg = ServeConfig {
        k_max: 8,
        refresh_every: 16,
        times_window: 64,
        ..ServeConfig::default()
    };
    let rec = wcm_obs::mem();
    rec.reset();
    wcm_obs::set_enabled(true);
    let mut state = SessionState::new(&cfg);
    let times: Vec<f64> = (0..160).map(|i| f64::from(i) * 0.04).collect();
    let demands: Vec<u64> = (0..160).map(|i| 100 + (i * 37) % 50).collect();
    state.record_times(&times, &cfg);
    state.enqueue(&demands, &cfg);
    state.apply_pending(&cfg);
    wcm_obs::set_enabled(false);

    let snap = rec.snapshot();
    let refreshes: Vec<_> = snap
        .spans
        .iter()
        .filter(|s| s.name == "serve.refresh")
        .collect();
    let admissions: Vec<_> = snap
        .spans
        .iter()
        .filter(|s| s.name == "serve.admission")
        .collect();
    // 160 events at a refresh every 16, all past k_max: ten recomputes.
    assert_eq!(refreshes.len(), 10);
    assert_eq!(admissions.len(), 10);
    assert_eq!(snap.counter("serve.admission.recomputes"), 10);
    for a in &admissions {
        assert!(
            refreshes.iter().any(|r| r.id == a.parent),
            "serve.admission must nest in serve.refresh"
        );
    }
}
