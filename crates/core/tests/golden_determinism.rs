//! Golden determinism regression tests.
//!
//! The engine promises bit-for-bit reproducibility: same scenario, same
//! seed, same results — regardless of scheduler internals (wheel vs
//! heap placement) or how many campaign threads raced over the matrix.
//! These tests pin an exact fingerprint of a mid-size two-flow run so
//! any change that perturbs event order, RNG draws, or float summation
//! order fails loudly instead of silently shifting figures.
//!
//! If a deliberate behaviour change moves these numbers, re-capture them
//! with `cargo test -p greenenvy --test golden_determinism -- --nocapture`
//! (the failure message prints the observed fingerprint) and say so in
//! the commit message.

use cca::CcaKind;
use greenenvy::matrix::run_matrix_with_threads;
use greenenvy::scale::Scale;
use netsim::fault::FaultSpec;
use netsim::time::{SimDuration, SimTime};
use netsim::units::MB;
use workload::prelude::*;

/// Exact fingerprint of the mid-size two-flow scenario below, captured
/// on the hybrid-scheduler engine. `sender_energy_j` is compared with
/// `==`: the energy pipeline is pure IEEE-754 arithmetic in a
/// deterministic order, so the float is exactly reproducible.
const GOLDEN_EVENTS_PROCESSED: u64 = 204_899;
const GOLDEN_SIM_END_NS: u64 = 200_164_047;
const GOLDEN_SENDER_ENERGY_J: f64 = 4.594573974609375;
const GOLDEN_TOTAL_RETX: u64 = 195;

fn two_flow_scenario() -> Scenario {
    Scenario::new(
        3000,
        vec![
            FlowSpec::bulk(CcaKind::Cubic, 40 * MB),
            FlowSpec::bulk(CcaKind::Reno, 40 * MB),
        ],
    )
    .with_seed(7)
}

#[test]
fn two_flow_fingerprint_is_stable() {
    let out = workload::scenario::run(&two_flow_scenario()).expect("scenario runs");
    let retx: u64 = out.reports.iter().map(|r| r.retransmits).sum();
    let observed = (
        out.engine.events_processed,
        out.sim_end.as_nanos(),
        out.sender_energy_j,
        retx,
    );
    println!("observed fingerprint: {observed:?}");
    assert_eq!(
        observed,
        (
            GOLDEN_EVENTS_PROCESSED,
            GOLDEN_SIM_END_NS,
            GOLDEN_SENDER_ENERGY_J,
            GOLDEN_TOTAL_RETX
        ),
        "golden fingerprint moved — event order, RNG, or float summation changed"
    );
}

/// Exact fingerprint of the paper's serial "full speed, then idle"
/// schedule on a CUBIC pair (12 MB per flow, MTU 9000, seed 1): the
/// solo probe's hand-off instant and the serial run it schedules.
/// Captured from a hand-built construction (a one-flow run, then a pair
/// whose second flow starts at the first's completion), which
/// [`Scenario::serialized`] must reproduce bit-for-bit.
const GOLDEN_SERIAL_HANDOFF_NS: u64 = 10_352_503;
const GOLDEN_SERIAL_EVENTS_PROCESSED: u64 = 22_740;
const GOLDEN_SERIAL_SIM_END_NS: u64 = 210_536_960;
const GOLDEN_SERIAL_SENDER_ENERGY_J: f64 = 1.3016357421875;

#[test]
fn serial_schedule_fingerprint_is_stable() {
    let fair = Scenario::new(9000, vec![FlowSpec::bulk(CcaKind::Cubic, 12 * MB); 2]).with_seed(1);
    let handoff = fair.solo_handoff().expect("solo probe runs");
    let out = workload::scenario::run(&fair.serialized().expect("solo probe runs"))
        .expect("serial schedule runs");
    let observed = (
        handoff.as_nanos(),
        out.engine.events_processed,
        out.sim_end.as_nanos(),
        out.sender_energy_j,
    );
    println!("observed serial fingerprint: {observed:?}");
    assert_eq!(
        observed,
        (
            GOLDEN_SERIAL_HANDOFF_NS,
            GOLDEN_SERIAL_EVENTS_PROCESSED,
            GOLDEN_SERIAL_SIM_END_NS,
            GOLDEN_SERIAL_SENDER_ENERGY_J
        ),
        "serial-schedule fingerprint moved — the hand-off probe or the run changed"
    );
}

/// The fault layer draws from its own RNG stream, so a faulted run must
/// be exactly as reproducible as a clean one: same `FaultSpec`, same
/// seed, identical fingerprint — including the injected-drop tally. No
/// golden constants here; the invariant is run-to-run equality (the
/// chaos spec itself is the changing part of the chaos suite, the
/// clean-run fingerprint above is the frozen part).
#[test]
fn faulted_two_flow_fingerprint_replays_identically() {
    let spec = FaultSpec::random_loss(1e-3)
        .with_reordering(5e-4, SimDuration::from_micros(50))
        .with_flap(SimTime::from_millis(40), SimTime::from_millis(60));
    let scenario = two_flow_scenario().with_fault(spec);
    let fingerprint = |out: &ScenarioOutcome| {
        (
            out.engine.events_processed,
            out.sim_end.as_nanos(),
            out.sender_energy_j,
            out.reports.iter().map(|r| r.retransmits).sum::<u64>(),
            out.injected_drops,
        )
    };
    let a = workload::scenario::run(&scenario).expect("faulted scenario runs");
    let b = workload::scenario::run(&scenario).expect("faulted scenario runs");
    assert!(a.injected_drops > 0, "the fault spec must actually bite");
    assert!(
        a.reports.iter().all(|r| r.outcome.is_completed()),
        "0.1% loss plus a 20 ms flap is survivable"
    );
    assert_eq!(
        fingerprint(&a),
        fingerprint(&b),
        "faulted runs must replay bit-identically"
    );
}

/// The work-stealing campaign runner hands cells to whichever thread
/// asks next, so the *assignment* of cells to threads is racy — but the
/// cells themselves are pure functions of `(cca, mtu, seeds)`. The
/// serialized matrix must therefore be byte-identical at any thread
/// count. (`{:?}`/serde_json print f64 shortest-roundtrip, so equal
/// strings ⇔ bit-equal floats.)
#[test]
fn matrix_is_thread_count_invariant() {
    let scale = Scale {
        transfer_bytes: 10 * MB,
        two_flow_bytes: 10 * MB,
        repetitions: 1,
        name: "golden-tiny",
    };
    let reference =
        serde_json::to_string(&run_matrix_with_threads(scale, 1)).expect("matrix serializes");
    for threads in [2, 8] {
        let got = serde_json::to_string(&run_matrix_with_threads(scale, threads))
            .expect("matrix serializes");
        assert_eq!(
            got, reference,
            "matrix output differs between 1 and {threads} campaign threads"
        );
    }
}
