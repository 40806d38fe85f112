//! Golden fingerprints for the parking-lot and incast topologies.
//!
//! `golden_determinism` pins the dumbbell and `golden_population` the
//! rack grid; these constants pin the other two shapes the DSL runs,
//! end to end through `ScenarioBuilder`: event count, simulated end
//! time, the exact bit pattern of the total sender energy, and the
//! retransmit total. A change that moves one of them changes what the
//! simulator computes and must say so (and re-capture them) explicitly.

use scenario::prelude::*;

/// `(events, sim_end_ns, sender_energy_j bits, Σ retransmits)`.
type Fingerprint = (u64, u64, u64, u64);

const GOLDEN_PARKING_LOT: Fingerprint = (15_752, 609_046_619, 4_625_287_810_486_632_448, 134);
const GOLDEN_INCAST: Fingerprint = (9_116, 217_558_525, 4_611_014_629_139_677_184, 0);

fn fingerprint(spec: ScenarioSpec) -> Fingerprint {
    let run = spec.run().expect("scenario runs");
    let m = &run.measured;
    (
        m.events_processed,
        m.sim_end.as_nanos(),
        m.sender_energy_j.to_bits(),
        m.reports.iter().map(|r| r.retransmits).sum(),
    )
}

#[test]
fn parking_lot_fingerprint_is_pinned() {
    let spec = ScenarioBuilder::new("golden-parking-lot")
        .topology(Topology::ParkingLot { hops: 2 })
        .traffic(Traffic::bulk(CcaKind::Cubic, 6_000_000))
        .traffic(Traffic::bulk(CcaKind::Reno, 3_000_000))
        .traffic(Traffic::bulk(CcaKind::Bbr, 3_000_000))
        .with_seed(3)
        .build()
        .expect("valid parking lot");
    assert_eq!(fingerprint(spec), GOLDEN_PARKING_LOT);
}

#[test]
fn incast_fingerprint_is_pinned() {
    let spec = ScenarioBuilder::new("golden-incast")
        .topology(Topology::Incast { senders: 4 })
        .traffic(Traffic::Mix {
            flows: 8,
            mix: vec![(CcaKind::Cubic, 3), (CcaKind::Bbr, 1)],
            bytes_per_flow: 1_500_000,
        })
        .with_seed(5)
        .build()
        .expect("valid incast");
    assert_eq!(fingerprint(spec), GOLDEN_INCAST);
}
