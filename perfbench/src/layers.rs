//! The traced run's per-layer harvest. After the named workload's timed
//! window, it runs one traced pass of every workload, re-runs the
//! matrix's cells one `workload::scenario::run` at a time for their
//! engine counts, runs the population on one worker, and times the unit
//! costs; then it attributes each workload's time to the layers.

use crate::probes::UnitCosts;
use crate::stats::{median, percentile};
use crate::trace::{self, Span, Tracer};
use crate::workloads::{self, derive_seed, Detail, Inputs, Kind, Size, Tracing};
use cca::CcaKind;
use greenenvy::matrix::MTUS;
use std::path::Path;
use std::time::Instant;
use workload::population::{run_population_with_threads, PopulationOutcome};
use workload::prelude::{FlowSpec, Scenario};

/// One per-layer metric.
pub type Metric = (String, f64, &'static str);

/// Span names each workload's traced pass records, for the
/// `span.<workload>.<name>.self_s` metrics.
pub const SPAN_NAMES: [(&str, &[&str]); 3] = [
    (
        "cca_mtu_matrix",
        &["pass", "run_campaign_with_runner", "run_cell"],
    ),
    ("population_10k", &["pass", "run_population_with_threads"]),
    (
        "resilience_suite",
        &["pass", "scenario_spec_run", "expectation_evaluate"],
    ),
];

/// Suite topologies, for `scenario.run_s.<topology>`.
const TOPOLOGIES: [&str; 4] = ["dumbbell", "incast", "rack_grid", "parking_lot"];

/// Every per-layer metric name, in the order the traced run prints them.
pub fn names() -> Vec<String> {
    let mut v: Vec<String> = [
        "core.cell_s.p50",
        "core.cell_s.p90",
        "core.campaign_self_s",
        "workload.scenario_run_s.mtu1500",
        "workload.scenario_run_s.mtu9000",
        "workload.population_1t_s",
        "workload.population_2t_s",
        "workload.parallel_efficiency",
        "netsim.events",
        "netsim.ns_per_event",
        "netsim.sched.wheel_hit_rate",
        "netsim.sched.heap_pushes",
        "netsim.sched.migrations",
        "netsim.batch_mean_pkts",
        "netsim.pkts_originated",
        "netsim.pkts_dropped",
        "netsim.fault.injected",
        "netsim.sched.push_pop_ns.near",
        "netsim.sched.push_pop_ns.mixed",
        "netsim.qdisc.enq_deq_ns.droptail",
        "netsim.qdisc.enq_deq_ns.ecn",
        "netsim.qdisc.enq_deq_ns.red",
        "netsim.pool.alloc_take_ns",
        "transport.segs_sent",
        "transport.acks",
        "transport.retx_ratio",
        "transport.retx_ratio.matrix",
        "transport.rtos",
        "transport.scoreboard.cycle_ns",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    v.extend(
        CcaKind::ALL
            .iter()
            .map(|k| format!("cca.on_ack_ns.{}", k.name())),
    );
    v.push("cca.on_ack_share".to_string());
    v.push("energy.meter_ns_per_bin".to_string());
    v.push("scenario.build_s".to_string());
    v.extend(TOPOLOGIES.iter().map(|t| format!("scenario.run_s.{t}")));
    v.push("scenario.expect_eval_s".to_string());
    v.push("trace.overhead_frac".to_string());
    v.push("attribution.explained_frac.matrix".to_string());
    v.push("attribution.explained_frac.population".to_string());
    for (w, spans) in SPAN_NAMES {
        v.extend(spans.iter().map(|s| format!("span.{w}.{s}.self_s")));
    }
    v
}

/// Counts of one matrix cell's re-run, with its wall time.
struct CellRun {
    cca: CcaKind,
    mtu: u32,
    wall_s: f64,
    events: u64,
    wheel_pushes: u64,
    heap_pushes: u64,
    originated: u64,
    dropped: u64,
    segs: u64,
    acks: u64,
    retx: u64,
    energy_bins: u64,
}

/// Runs the harvest, appending what it finds wrong to `problems`.
pub struct Harvest<'a> {
    /// The benchmark seed.
    pub seed: u64,
    /// Where the matrix pass keeps its journal.
    pub work_dir: &'a Path,
    /// The recorder every traced pass writes to.
    pub tracer: &'a Tracer,
    /// Next unused pass id.
    pub next_pass: u64,
    /// Correctness problems the harvest found.
    pub problems: Vec<String>,
}

impl Harvest<'_> {
    fn traced_pass(&mut self, inputs: &Inputs) -> (u64, workloads::PassOutcome) {
        let id = self.next_pass;
        self.next_pass += 1;
        let out = workloads::pass(
            inputs,
            Some(Tracing {
                tracer: self.tracer,
                pass: id,
            }),
            None,
        );
        for p in &out.problems {
            self.problems.push(format!("harvest: {p}"));
        }
        (id, out)
    }

    /// Harvest every layer. `overhead_frac` comes from the named
    /// workload's timed window.
    pub fn every_layer(&mut self, costs: &UnitCosts, overhead_frac: f64) -> Vec<Metric> {
        let mut m: Vec<Metric> = Vec::new();
        let mut add = |name: &str, value: f64, unit: &'static str| {
            m.push((name.to_string(), value, unit));
        };

        // core + workload (matrix): one traced campaign pass, then every
        // cell re-run through `workload::scenario::run` for its counts.
        let scale = workloads::matrix_scale(Size::Full);
        let inputs = workloads::setup(Kind::Matrix, Size::Full, self.seed, self.work_dir);
        let (matrix_pass, out) = self.traced_pass(&inputs);
        let spans = self.tracer.spans();
        let cell_s: Vec<f64> = of_pass(&spans, matrix_pass, "run_cell");
        add("core.cell_s.p50", percentile(&cell_s, 50.0), "s");
        add("core.cell_s.p90", percentile(&cell_s, 90.0), "s");
        let matrix_selfs = trace::self_time_by_name(&spans, matrix_pass);
        add(
            "core.campaign_self_s",
            matrix_selfs["run_campaign_with_runner"] + matrix_selfs["pass"],
            "s",
        );
        let cells = self.rerun_cells(scale, &out.detail);
        let at = |mtu: u32| {
            median(
                &cells
                    .iter()
                    .filter(|c| c.mtu == mtu)
                    .map(|c| c.wall_s)
                    .collect::<Vec<_>>(),
            )
        };
        add("workload.scenario_run_s.mtu1500", at(1500), "s");
        add("workload.scenario_run_s.mtu9000", at(9000), "s");

        // workload + netsim (population): the two-worker pass traced,
        // then the same population on one worker.
        let inputs = workloads::setup(Kind::Population, Size::Full, self.seed, self.work_dir);
        let (pop_pass, out2) = self.traced_pass(&inputs);
        let spans = self.tracer.spans();
        let two_s = of_pass(&spans, pop_pass, "run_population_with_threads")[0];
        let Inputs::Population(spec) = &inputs else {
            unreachable!("population inputs")
        };
        let t = Instant::now();
        let one = run_population_with_threads(spec, 1);
        let one_s = t.elapsed().as_secs_f64();
        let pop = match (&out2.detail, one) {
            (Detail::Population(two), Ok(one)) => {
                if one.fingerprint() != two.fingerprint() {
                    self.problems.push(format!(
                        "population fingerprint differs between 1 and {} workers",
                        workloads::POPULATION_THREADS
                    ));
                }
                Some(one)
            }
            (_, Err(e)) => {
                self.problems
                    .push(format!("population on one worker failed: {e}"));
                None
            }
            _ => None,
        };
        add("workload.population_1t_s", one_s, "s");
        add("workload.population_2t_s", two_s, "s");
        add(
            "workload.parallel_efficiency",
            one_s / (2.0 * two_s),
            "ratio",
        );

        // netsim: engine work per event on the matrix's clean path; the
        // scheduler and batching on the population's many-flow path.
        let sum = |f: fn(&CellRun) -> u64| cells.iter().map(f).sum::<u64>();
        let wall: f64 = cells.iter().map(|c| c.wall_s).sum();
        add("netsim.events", sum(|c| c.events) as f64, "count");
        add(
            "netsim.ns_per_event",
            wall * 1e9 / sum(|c| c.events) as f64,
            "ns",
        );
        let (hit, heap, migr, batch) = pop.as_ref().map_or((0.0, 0.0, 0.0, 0.0), |p| {
            (
                p.wheel_hit_rate(),
                p.heap_pushes as f64,
                p.migrations as f64,
                p.batched_pkts as f64 / p.dispatch_batches.max(1) as f64,
            )
        });
        add("netsim.sched.wheel_hit_rate", hit, "ratio");
        add("netsim.sched.heap_pushes", heap, "count");
        add("netsim.sched.migrations", migr, "count");
        add("netsim.batch_mean_pkts", batch, "pkts");
        add(
            "netsim.pkts_originated",
            sum(|c| c.originated) as f64,
            "count",
        );
        add("netsim.pkts_dropped", sum(|c| c.dropped) as f64, "count");

        // scenario + transport + fault (suite): build, then a traced pass.
        let build = self
            .tracer
            .open(self.next_pass, "resilience_suite_build", None);
        self.next_pass += 1;
        let inputs = workloads::setup(Kind::Suite, Size::Full, self.seed, self.work_dir);
        self.tracer.close(build);
        let (suite_pass, out) = self.traced_pass(&inputs);
        let spans = self.tracer.spans();
        let Inputs::Suite(suite) = &inputs else {
            unreachable!("suite inputs")
        };
        let runs = match &out.detail {
            Detail::Suite(runs) => runs.as_slice(),
            _ => &[],
        };
        let scenario_spans = of_pass(&spans, suite_pass, "scenario_spec_run");
        let injected: u64 = runs
            .iter()
            .flatten()
            .map(|r| r.measured.injected_drops)
            .sum();
        add("netsim.fault.injected", injected as f64, "count");
        add("netsim.sched.push_pop_ns.near", costs.sched_near_ns, "ns");
        add("netsim.sched.push_pop_ns.mixed", costs.sched_mixed_ns, "ns");
        add("netsim.qdisc.enq_deq_ns.droptail", costs.droptail_ns, "ns");
        add("netsim.qdisc.enq_deq_ns.ecn", costs.ecn_ns, "ns");
        add("netsim.qdisc.enq_deq_ns.red", costs.red_ns, "ns");
        add("netsim.pool.alloc_take_ns", costs.pool_ns, "ns");

        let reports = runs.iter().flatten().flat_map(|r| &r.measured.reports);
        let (mut segs, mut acks, mut retx, mut rtos) = (0u64, 0u64, 0u64, 0u64);
        for r in reports {
            segs += r.segs_sent;
            acks += r.acks_processed;
            retx += r.retransmits;
            rtos += r.rtos;
        }
        add("transport.segs_sent", segs as f64, "count");
        add("transport.acks", acks as f64, "count");
        add(
            "transport.retx_ratio",
            retx as f64 / segs.max(1) as f64,
            "ratio",
        );
        add(
            "transport.retx_ratio.matrix",
            sum(|c| c.retx) as f64 / sum(|c| c.segs).max(1) as f64,
            "ratio",
        );
        add("transport.rtos", rtos as f64, "count");
        add(
            "transport.scoreboard.cycle_ns",
            costs.scoreboard_cycle_ns,
            "ns",
        );

        // cca + energy.
        for (kind, ns) in &costs.on_ack_ns {
            add(&format!("cca.on_ack_ns.{}", kind.name()), *ns, "ns");
        }
        let ack_ns: f64 = cells
            .iter()
            .map(|c| c.acks as f64 * costs.on_ack(c.cca))
            .sum();
        add("cca.on_ack_share", ack_ns * 1e-9 / wall, "ratio");
        add("energy.meter_ns_per_bin", costs.meter_ns_per_bin, "ns");

        // scenario.
        add(
            "scenario.build_s",
            spans
                .iter()
                .find(|s| s.name == "resilience_suite_build")
                .map_or(0.0, Span::secs),
            "s",
        );
        for topo in TOPOLOGIES {
            let secs: f64 = suite
                .entries
                .iter()
                .zip(&scenario_spans)
                .filter(|(e, _)| workloads::topology_of(&e.spec) == topo)
                .map(|(_, s)| s)
                .sum();
            add(&format!("scenario.run_s.{topo}"), secs, "s");
        }
        add(
            "scenario.expect_eval_s",
            of_pass(&spans, suite_pass, "expectation_evaluate")
                .iter()
                .sum(),
            "s",
        );

        // harness.
        add("trace.overhead_frac", overhead_frac, "ratio");
        add(
            "attribution.explained_frac.matrix",
            matrix_explained(&cells, costs) / wall,
            "ratio",
        );
        let pop_explained = pop
            .as_ref()
            .map_or(0.0, |p| population_explained(p, spec, costs) / one_s);
        add(
            "attribution.explained_frac.population",
            pop_explained,
            "ratio",
        );
        for ((w, names), pass) in SPAN_NAMES.iter().zip([matrix_pass, pop_pass, suite_pass]) {
            let selfs = trace::self_time_by_name(&spans, pass);
            for n in *names {
                add(
                    &format!("span.{w}.{n}.self_s"),
                    selfs.get(n).copied().unwrap_or(0.0),
                    "s",
                );
            }
        }
        m
    }

    /// Re-run every matrix cell as one `workload::scenario::run` per
    /// seed, as `run_cell` does, and check each re-run reproduces the
    /// campaign pass's cell bit for bit.
    fn rerun_cells(&mut self, scale: greenenvy::Scale, detail: &Detail) -> Vec<CellRun> {
        let Detail::Matrix(matrix) = detail else {
            self.problems
                .push("harvest: the matrix pass produced no matrix".to_string());
            return Vec::new();
        };
        let mut runs = Vec::new();
        for &cca in &CcaKind::ALL {
            for &mtu in &MTUS {
                let mut energies = Vec::new();
                for s in scale.seeds() {
                    let sc = Scenario::new(mtu, vec![FlowSpec::bulk(cca, scale.transfer_bytes)])
                        .with_seed(derive_seed(self.seed, s));
                    let t = Instant::now();
                    let out = match workload::scenario::run(&sc) {
                        Ok(o) => o,
                        Err(e) => {
                            self.problems
                                .push(format!("harvest: {} @ {mtu}: {e}", cca.name()));
                            continue;
                        }
                    };
                    let wall_s = t.elapsed().as_secs_f64();
                    let r = &out.reports[0];
                    energies.push(out.sender_energy_j);
                    let bins: usize = out.sender_power_series_w.iter().map(Vec::len).sum();
                    runs.push(CellRun {
                        cca,
                        mtu,
                        wall_s,
                        events: out.engine.events_processed,
                        wheel_pushes: out.engine.sched.wheel_pushes,
                        heap_pushes: out.engine.sched.heap_pushes,
                        originated: out.originated_pkts,
                        dropped: out.dropped_pkts,
                        segs: r.segs_sent,
                        acks: r.acks_processed,
                        retx: r.retransmits,
                        // The receiver is metered over the same window.
                        energy_bins: (bins + out.sender_power_series_w.first().map_or(0, Vec::len))
                            as u64,
                    });
                }
                let mean = energies.iter().sum::<f64>() / energies.len().max(1) as f64;
                let same = matrix
                    .cell(cca, mtu)
                    .is_some_and(|c| c.energy_j.mean.to_bits() == mean.to_bits());
                if !same {
                    self.problems.push(format!(
                        "harvest: re-run of {} @ {mtu} does not reproduce the campaign cell",
                        cca.name()
                    ));
                }
            }
        }
        runs
    }
}

/// Durations of the spans named `name` in pass `pass`, in record order.
fn of_pass(spans: &[Span], pass: u64, name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.pass == pass && s.name == name)
        .map(Span::secs)
        .collect()
}

/// Σ count × unit cost over the matrix re-runs, in seconds. Every frame
/// crosses two queues on the dumbbell (host NIC, then the bottleneck or
/// the reverse path), and the queue probe includes the frame-pool
/// alloc/take, so pool cost is not added again.
fn matrix_explained(cells: &[CellRun], c: &UnitCosts) -> f64 {
    cells
        .iter()
        .map(|r| {
            let qdisc = if r.cca == CcaKind::Dctcp {
                c.ecn_ns
            } else {
                c.droptail_ns
            };
            r.wheel_pushes as f64 * c.sched_near_ns
                + r.heap_pushes as f64 * c.sched_mixed_ns
                + 2.0 * r.originated as f64 * qdisc
                + r.segs as f64 * c.scoreboard_per_seg_ns()
                + r.acks as f64 * c.on_ack(r.cca)
                + r.energy_bins as f64 * c.meter_ns_per_bin
        })
        .sum::<f64>()
        * 1e-9
}

/// Σ count × unit cost over the one-worker population run, in seconds.
/// The outcome reports delivered packets, not originated ones; each
/// crosses two queues (host uplink, rack bottleneck). Energy bins are
/// bounded by every host metered over the latest rack's end.
fn population_explained(
    p: &PopulationOutcome,
    spec: &workload::population::PopulationSpec,
    c: &UnitCosts,
) -> f64 {
    let flows: f64 = p
        .reports
        .iter()
        .map(|r| {
            r.segs_sent as f64 * c.scoreboard_per_seg_ns()
                + r.acks_processed as f64 * c.on_ack(r.cca)
        })
        .sum();
    let hosts = (spec.racks * (spec.hosts_per_rack + 1)) as f64;
    let bins = hosts * (p.sim_end.as_nanos() as f64 / spec.activity_bin.as_nanos() as f64).ceil();
    (p.wheel_pushes as f64 * c.sched_near_ns
        + p.heap_pushes as f64 * c.sched_mixed_ns
        + 2.0 * p.batched_pkts as f64 * c.droptail_ns
        + flows
        + bins * c.meter_ns_per_bin)
        * 1e-9
}
