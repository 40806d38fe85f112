//! Traffic generators: declarative descriptions that compile to flows.
//!
//! A [`Traffic`] value names a workload shape the way an operator would
//! ("a bulk backup", "an RPC fan", "a 25 Mb/s video"); compilation
//! turns it into the [`FlowSpec`]s the runners consume. The mapping is
//! deliberately boring — every generator is expressible as bulk flows
//! with start delays, rate limits, and rate schedules — so the whole
//! surface stays on the one battle-tested sender path.

use cca::CcaKind;
use netsim::time::{SimDuration, SimTime};
use netsim::units::Rate;
use workload::iperf::FlowSpec;

/// One declarative traffic source.
#[derive(Clone, Debug)]
pub enum Traffic {
    /// An unthrottled bulk transfer (an iperf3 client, a backup job).
    Bulk {
        /// Congestion control algorithm.
        cca: CcaKind,
        /// Application bytes.
        bytes: u64,
        /// Start offset from simulation start.
        start: SimDuration,
    },
    /// A request/response RPC fan: `responses` short transfers of
    /// `resp_bytes` each, issued `interval` apart (an RPC client
    /// draining a queue of responses).
    Rpc {
        /// Congestion control algorithm.
        cca: CcaKind,
        /// Number of responses.
        responses: usize,
        /// Bytes per response.
        resp_bytes: u64,
        /// Gap between response starts.
        interval: SimDuration,
        /// Start offset of the first response.
        start: SimDuration,
    },
    /// A rate-limited, video-like stream: a bulk transfer throttled to
    /// its encode rate.
    Video {
        /// Congestion control algorithm.
        cca: CcaKind,
        /// Application bytes.
        bytes: u64,
        /// The stream's target rate.
        rate: Rate,
        /// Start offset from simulation start.
        start: SimDuration,
    },
    /// An on/off web-like source: bursts at full speed for `on`, then
    /// throttles to a trickle for `off`, repeated `cycles` times. The
    /// trickle (not a full stop) keeps the connection warm, like
    /// persistent HTTP between page loads.
    OnOffWeb {
        /// Congestion control algorithm.
        cca: CcaKind,
        /// Application bytes over the whole pattern.
        bytes: u64,
        /// Full-speed burst duration.
        on: SimDuration,
        /// Trickle-throttled gap duration.
        off: SimDuration,
        /// Number of on/off cycles.
        cycles: usize,
        /// Start offset from simulation start.
        start: SimDuration,
    },
    /// A population CCA mix for incast and rack-grid topologies: `flows`
    /// bulk transfers of `bytes_per_flow` each, assigned to algorithms by
    /// weighted round-robin (see
    /// [`workload::population::PopulationSpec::cca_assignment`]).
    Mix {
        /// Total flows across the population.
        flows: usize,
        /// CCA mix as (algorithm, weight) pairs.
        mix: Vec<(CcaKind, u32)>,
        /// Application bytes per flow.
        bytes_per_flow: u64,
    },
}

/// Rate of the keep-warm trickle between web bursts, in Mbit/s.
const WEB_TRICKLE_MBPS: f64 = 10.0;

impl Traffic {
    /// A bulk transfer starting at t = 0.
    pub fn bulk(cca: CcaKind, bytes: u64) -> Traffic {
        Traffic::Bulk {
            cca,
            bytes,
            start: SimDuration::ZERO,
        }
    }

    /// How many flows this generator compiles to.
    pub fn flow_count(&self) -> usize {
        match self {
            Traffic::Bulk { .. } | Traffic::Video { .. } | Traffic::OnOffWeb { .. } => 1,
            Traffic::Rpc { responses, .. } => *responses,
            Traffic::Mix { flows, .. } => *flows,
        }
    }

    /// Compile to flow specs. [`Traffic::Mix`] compiles to nothing here
    /// — it configures a population instead (the builder accepts it
    /// only on `Incast` and `RackGrid`).
    pub fn compile(&self) -> Vec<FlowSpec> {
        match self {
            Traffic::Bulk { cca, bytes, start } => {
                vec![FlowSpec::bulk(*cca, *bytes).with_start_delay(*start)]
            }
            Traffic::Rpc {
                cca,
                responses,
                resp_bytes,
                interval,
                start,
            } => (0..*responses)
                .map(|i| {
                    FlowSpec::bulk(*cca, *resp_bytes)
                        .with_start_delay(*start + interval.saturating_mul(i as u64))
                })
                .collect(),
            Traffic::Video {
                cca,
                bytes,
                rate,
                start,
            } => vec![FlowSpec::bulk(*cca, *bytes)
                .with_rate_limit(*rate)
                .with_start_delay(*start)],
            Traffic::OnOffWeb {
                cca,
                bytes,
                on,
                off,
                cycles,
                start,
            } => {
                // Bursts are unthrottled; gaps throttle to the trickle.
                // The schedule is absolute times, starting on.
                let mut spec = FlowSpec::bulk(*cca, *bytes).with_start_delay(*start);
                let mut t = start.as_nanos();
                for _ in 0..*cycles {
                    t += on.as_nanos();
                    spec = spec.with_rate_change(
                        SimTime::from_nanos(t),
                        Some(Rate::from_mbps(WEB_TRICKLE_MBPS)),
                    );
                    t += off.as_nanos();
                    spec = spec.with_rate_change(SimTime::from_nanos(t), None);
                }
                vec![spec]
            }
            Traffic::Mix { .. } => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bulk_compiles_to_one_flow() {
        let flows = Traffic::bulk(CcaKind::Cubic, 1_000).compile();
        assert_eq!(flows.len(), 1);
        assert_eq!(flows[0].bytes, 1_000);
        assert!(flows[0].rate_limit.is_none());
    }

    #[test]
    fn rpc_fans_out_staggered() {
        let flows = Traffic::Rpc {
            cca: CcaKind::Reno,
            responses: 3,
            resp_bytes: 500,
            interval: SimDuration::from_millis(2),
            start: SimDuration::from_millis(1),
        }
        .compile();
        assert_eq!(flows.len(), 3);
        assert_eq!(flows[0].start_delay, SimDuration::from_millis(1));
        assert_eq!(flows[1].start_delay, SimDuration::from_millis(3));
        assert_eq!(flows[2].start_delay, SimDuration::from_millis(5));
        assert!(flows.iter().all(|f| f.bytes == 500));
    }

    #[test]
    fn video_is_rate_limited() {
        let flows = Traffic::Video {
            cca: CcaKind::Bbr,
            bytes: 10_000,
            rate: Rate::from_mbps(25.0),
            start: SimDuration::ZERO,
        }
        .compile();
        assert_eq!(flows[0].rate_limit.unwrap().bps(), 25e6);
    }

    #[test]
    fn web_alternates_trickle_and_full_speed() {
        let flows = Traffic::OnOffWeb {
            cca: CcaKind::Cubic,
            bytes: 1_000_000,
            on: SimDuration::from_millis(10),
            off: SimDuration::from_millis(5),
            cycles: 2,
            start: SimDuration::ZERO,
        }
        .compile();
        let sched = &flows[0].rate_schedule;
        assert_eq!(sched.len(), 4);
        // on ends at 10 ms -> trickle; off ends at 15 ms -> unthrottled.
        assert_eq!(sched[0].0, SimTime::from_millis(10));
        assert!(sched[0].1.is_some());
        assert_eq!(sched[1].0, SimTime::from_millis(15));
        assert!(sched[1].1.is_none());
        assert_eq!(sched[3].0, SimTime::from_millis(30));
    }

    #[test]
    fn mix_counts_flows_but_compiles_to_none() {
        let t = Traffic::Mix {
            flows: 10,
            mix: vec![(CcaKind::Cubic, 1)],
            bytes_per_flow: 1_000,
        };
        assert_eq!(t.flow_count(), 10);
        assert!(t.compile().is_empty());
    }
}
