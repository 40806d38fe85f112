//! Unit costs of the hot-path calls, timed through the layers' public
//! APIs on the input shapes of `crates/bench/benches/micro.rs`.

use cca::{CcaConfig, CcaKind};
use netsim::prelude::*;
use std::hint::black_box;
use std::time::Instant;
use transport::cc::AckEvent;
use transport::scoreboard::Scoreboard;

/// Wall time one timed batch should fill.
const BATCH_S: f64 = 0.02;
/// Batches per probe; the probe reports their median.
const BATCHES: usize = 5;

/// Every unit cost, in nanoseconds per operation.
#[derive(Clone, Debug)]
pub struct UnitCosts {
    /// One scheduler pop + push, near-future events only.
    pub sched_near_ns: f64,
    /// One scheduler pop + push, one RTO-scale timer per 16 events.
    pub sched_mixed_ns: f64,
    /// Pool alloc + enqueue + dequeue + take through a DropTail queue.
    pub droptail_ns: f64,
    /// The same through an ECN-threshold queue.
    pub ecn_ns: f64,
    /// The same through a RED queue.
    pub red_ns: f64,
    /// One frame-pool alloc + take.
    pub pool_ns: f64,
    /// One scoreboard cycle: 64 sends, a cumulative ack, a SACK, a final ack.
    pub scoreboard_cycle_ns: f64,
    /// One `on_ack` per algorithm, in `CcaKind::ALL` order.
    pub on_ack_ns: Vec<(CcaKind, f64)>,
    /// Energy accounting per activity bin: integration plus power series.
    pub meter_ns_per_bin: f64,
}

impl UnitCosts {
    /// The `on_ack` cost of one algorithm.
    pub fn on_ack(&self, kind: CcaKind) -> f64 {
        self.on_ack_ns
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, ns)| *ns)
            .expect("every algorithm is probed")
    }

    /// Scoreboard cost per data segment sent (a cycle sends 64).
    pub fn scoreboard_per_seg_ns(&self) -> f64 {
        self.scoreboard_cycle_ns / 64.0
    }
}

/// Time `op` (which performs `ops_per_call` operations per call) in
/// batches that each fill [`BATCH_S`]; median ns per operation.
fn probe(ops_per_call: u64, mut op: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut calls = 0u64;
    while start.elapsed().as_secs_f64() < BATCH_S / 4.0 {
        op();
        calls += 1;
    }
    let per_call = start.elapsed().as_secs_f64() / calls as f64;
    let per_batch = ((BATCH_S / per_call).ceil() as u64).max(1);
    let mut samples = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let t = Instant::now();
        for _ in 0..per_batch {
            op();
        }
        samples.push(t.elapsed().as_secs_f64() * 1e9 / (per_batch * ops_per_call) as f64);
    }
    crate::stats::median(&samples)
}

const SCHED_OPS: u64 = 4096;

fn sched_churn(far_every: u64) -> usize {
    let mut s: Scheduler<u64> = Scheduler::new();
    let mut now = SimTime::ZERO;
    for i in 0..64u64 {
        s.push(now + SimDuration::from_nanos(800 + i * 37), i);
    }
    for i in 64..SCHED_OPS {
        let (at, _) = s.pop().expect("64 events stay pending");
        now = at;
        let dt = if far_every > 0 && i % far_every == 0 {
            SimDuration::from_millis(200)
        } else {
            SimDuration::from_nanos(800 + (i % 97) * 37)
        };
        s.push(now + dt, black_box(i));
    }
    s.len()
}

fn qdisc_cycle<Q: Qdisc>(q: &mut Q, pool: &mut FramePool, pkt: Packet) {
    let frame = pool.alloc(black_box(pkt));
    if q.enqueue(frame, pool, SimTime::ZERO) == EnqueueOutcome::Dropped {
        pool.release(frame);
    }
    black_box(q.dequeue(SimTime::ZERO).map(|r| pool.take(r)));
}

fn data_packet() -> Packet {
    Packet::data(
        FlowId::from_raw(0),
        NodeId::from_raw(0),
        NodeId::from_raw(1),
        0,
        1460,
        EcnCodepoint::Ect0,
    )
}

fn scoreboard_cycle() -> u64 {
    let mut board = Scoreboard::new(1448);
    let mut seq = 0u64;
    for i in 0..64 {
        board.on_send(seq, 1448, SimTime::from_micros(i), 0, false);
        seq += 1448;
    }
    board.on_ack(seq / 2, std::iter::empty(), SimDuration::from_micros(25));
    board.on_ack(
        seq / 2,
        [(seq / 2 + 4344, seq)].into_iter(),
        SimDuration::from_micros(25),
    );
    let out = board.on_ack(seq, std::iter::empty(), SimDuration::from_micros(25));
    out.newly_delivered
}

fn ack_event() -> AckEvent {
    AckEvent {
        now: SimTime::from_millis(3),
        newly_acked_bytes: 2896,
        rtt_sample: Some(SimDuration::from_micros(120)),
        srtt: SimDuration::from_micros(110),
        min_rtt: SimDuration::from_micros(100),
        bytes_in_flight: 100_000,
        delivery_rate: Some(Rate::from_gbps(9.0)),
        app_limited: false,
        ce_marked_bytes: 0,
        ecn_echo: false,
        cum_acked: 1_000_000,
        round: 5,
        in_recovery: false,
        int: IntRecord {
            queue_bytes: 20_000,
            util_x1000: 900,
            link_mbps: 10_000,
        },
        cwnd_limited: true,
    }
}

/// Bins of the synthetic activity series the meter probe integrates:
/// a 10 Gb/s sender at MTU 9000 for 4 s at 1 ms bins, with a loss
/// episode every 97th bin.
const METER_BINS: usize = 4096;

fn activity_series() -> (Vec<ActivityBin>, ActivityTotals) {
    let mut totals = ActivityTotals::default();
    let bins: Vec<ActivityBin> = (0..METER_BINS)
        .map(|i| {
            let b = ActivityBin {
                tx_bytes: 1_250_000 - (i % 7) as u64 * 9_000,
                tx_pkts: 139 - (i % 7) as u64,
                rx_bytes: 4_600 + (i % 5) as u64 * 66,
                rx_pkts: 70 + (i % 5) as u64,
                acks_rx: 70 + (i % 5) as u64,
                retx_pkts: u64::from(i % 97 == 0) * 3,
            };
            totals.tx_bytes += b.tx_bytes;
            totals.tx_pkts += b.tx_pkts;
            totals.rx_bytes += b.rx_bytes;
            totals.rx_pkts += b.rx_pkts;
            totals.acks_rx += b.acks_rx;
            totals.retx_pkts += b.retx_pkts;
            b
        })
        .collect();
    (bins, totals)
}

/// Run every probe (about two seconds).
pub fn measure() -> UnitCosts {
    let pkt = data_packet();
    let mut pool = FramePool::new();
    let mut droptail = DropTailQueue::new(1_000_000);
    let mut ecn = EcnThresholdQueue::new(1_000_000, 30_000);
    let mut red = RedQueue::new(1_000_000, 100_000, 500_000, 0.1, 7);
    let sched_ops = SCHED_OPS - 64;
    let ev = ack_event();
    let on_ack_ns = CcaKind::ALL
        .iter()
        .map(|&kind| {
            let mut cc = kind.build(&CcaConfig::new(1448));
            let ns = probe(1, || {
                cc.on_ack(black_box(&ev));
                black_box(cc.cwnd());
            });
            (kind, ns)
        })
        .collect();
    let model = energy::calibration::reference_host_model();
    let (bins, totals) = activity_series();
    let bin = SimDuration::from_millis(1);
    let window = SimDuration::from_millis(METER_BINS as u64);
    let ctx = energy::host::HostContext::default();
    UnitCosts {
        sched_near_ns: probe(sched_ops, || {
            black_box(sched_churn(0));
        }),
        sched_mixed_ns: probe(sched_ops, || {
            black_box(sched_churn(16));
        }),
        droptail_ns: probe(1, || qdisc_cycle(&mut droptail, &mut pool, pkt)),
        ecn_ns: probe(1, || qdisc_cycle(&mut ecn, &mut pool, pkt)),
        red_ns: probe(1, || qdisc_cycle(&mut red, &mut pool, pkt)),
        pool_ns: {
            let mut pool = FramePool::new();
            probe(1, || {
                let r = pool.alloc(black_box(pkt));
                black_box(pool.take(r));
            })
        },
        scoreboard_cycle_ns: probe(1, || {
            black_box(scoreboard_cycle());
        }),
        on_ack_ns,
        meter_ns_per_bin: probe(METER_BINS as u64, || {
            let e = model.energy_from_activity(&bins, bin, window, &totals, ctx);
            black_box(e.total_j());
            black_box(model.power_series(&bins, bin, ctx));
        }),
    }
}
