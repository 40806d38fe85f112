//! The three workloads: how each builds its inputs from the seed, runs
//! one pass through the program's public entry points, and checks what
//! the pass produced.

use crate::stats::digest;
use crate::trace::Tracer;
use cca::CcaKind;
use greenenvy::campaign::{run_campaign_with_runner, CampaignOptions};
use greenenvy::matrix::{run_cell, CellError, MTUS};
use greenenvy::Scale;
use netsim::units::MB;
use scenario::prelude::{ScenarioRun, ScenarioVerdict, Suite, SuiteVerdict};
use scenario::suite::{run_suite, VERDICT_SCHEMA_VERSION};
use std::path::{Path, PathBuf};
use workload::population::{run_population_with_threads, PopulationOutcome, PopulationSpec};

/// Benchmark workloads, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["cca_mtu_matrix", "population_10k", "resilience_suite"];

/// Worker threads of the population pass (the benchmark host's core
/// count when the baseline was measured; fixed so a result never depends
/// on the machine's width).
pub const POPULATION_THREADS: usize = 2;

/// Which workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// The paper's CCA × MTU campaign, one worker, sharded journal.
    Matrix,
    /// 11,000 flows over 22 racks, two workers.
    Population,
    /// The resilience scenario suite, one worker.
    Suite,
}

impl Kind {
    /// Parse a workload name.
    pub fn from_name(name: &str) -> Option<Kind> {
        match name {
            "cca_mtu_matrix" => Some(Kind::Matrix),
            "population_10k" => Some(Kind::Population),
            "resilience_suite" => Some(Kind::Suite),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Matrix => NAMES[0],
            Kind::Population => NAMES[1],
            Kind::Suite => NAMES[2],
        }
    }
}

/// Full size for measurement; reduced size for the self-tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's workloads.
    Full,
    /// Small enough to run a pass in well under a second.
    #[cfg_attr(not(test), allow(dead_code))]
    Reduced,
}

/// The matrix campaign's scale: 100 MB transfers (long enough that
/// every flow spends most of its life past slow start), one repetition
/// per cell, so a pass takes about a second and a run holds enough
/// passes for a steady median on a noisy shared host.
pub fn matrix_scale(size: Size) -> Scale {
    match size {
        Size::Full => Scale {
            transfer_bytes: 100 * MB,
            repetitions: 1,
            name: "bench",
            ..Scale::quick()
        },
        Size::Reduced => Scale {
            transfer_bytes: 5 * MB,
            repetitions: 1,
            name: "bench-reduced",
            ..Scale::tiny()
        },
    }
}

/// The resilience suite's scale. Its scenarios pin their own seeds (the
/// thresholds are calibrated against them), so the benchmark seed does
/// not change this workload's inputs.
pub fn suite_scale(size: Size) -> Scale {
    match size {
        Size::Full => Scale::standard(),
        Size::Reduced => Scale::tiny(),
    }
}

/// A workload's inputs, built before the first pass.
pub enum Inputs {
    /// Scale, benchmark seed, and where the pass keeps its journal.
    Matrix {
        /// Campaign scale.
        scale: Scale,
        /// The benchmark seed every cell seed is derived from.
        seed: u64,
        /// Sharded journal directory (recreated by every pass).
        journal_dir: PathBuf,
    },
    /// The population to run.
    Population(PopulationSpec),
    /// The built and validated suite.
    Suite(Suite),
}

/// Mix a campaign schedule seed with the benchmark seed (splitmix64
/// finaliser), so every benchmark seed gives every cell a distinct,
/// reproducible trajectory.
pub fn derive_seed(bench_seed: u64, schedule_seed: u64) -> u64 {
    let mut z = bench_seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ schedule_seed;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Build a workload's inputs through the program's public constructors.
pub fn setup(kind: Kind, size: Size, seed: u64, work_dir: &Path) -> Inputs {
    match kind {
        Kind::Matrix => Inputs::Matrix {
            scale: matrix_scale(size),
            seed,
            journal_dir: work_dir.join("journal"),
        },
        Kind::Population => {
            let spec = match size {
                Size::Full => PopulationSpec::bulk_10k_flows(),
                Size::Reduced => PopulationSpec::bulk_10k_flows_tiny(),
            }
            .with_seed(seed);
            let ccas = spec.cca_assignment();
            assert_eq!(ccas.len(), spec.total_flows, "one CCA per flow");
            Inputs::Population(spec)
        }
        Kind::Suite => Inputs::Suite(
            greenenvy::resilience::suite(suite_scale(size))
                .expect("the resilience suite builds at every scale"),
        ),
    }
}

/// What one pass produced.
pub struct PassOutcome {
    /// Operations the pass attempted (cells, flows, or scenarios).
    pub attempted: u64,
    /// Operations that failed (failed or quarantined cells, flows that
    /// did not complete, scenarios that misbehaved or errored).
    pub failed: u64,
    /// Digest of the simulated results; identical for every pass of the
    /// same inputs and compared against the recorded references.
    pub check: String,
    /// What the pass's own checks found wrong (empty when it is correct).
    pub problems: Vec<String>,
    /// The results, for the traced run's per-layer harvest.
    pub detail: Detail,
}

/// Workload-specific results.
pub enum Detail {
    /// No results survived (the pass failed outright).
    None,
    /// The campaign's matrix.
    Matrix(greenenvy::matrix::Matrix),
    /// The population outcome.
    Population(PopulationOutcome),
    /// Each scenario's run, in suite order, for traced passes.
    Suite(Vec<Result<ScenarioRun, String>>),
}

/// Where a traced pass records its spans.
#[derive(Clone, Copy)]
pub struct Tracing<'a> {
    /// The recorder.
    pub tracer: &'a Tracer,
    /// The pass id every span of this pass carries.
    pub pass: u64,
}

/// Run one pass. `poison` makes the matrix runner fail one cell on
/// every attempt (the self-test of the failure accounting).
pub fn pass(
    inputs: &Inputs,
    tracing: Option<Tracing>,
    poison: Option<(CcaKind, u32)>,
) -> PassOutcome {
    let root = tracing.map(|t| t.tracer.open(t.pass, "pass", None));
    let out = match inputs {
        Inputs::Matrix {
            scale,
            seed,
            journal_dir,
        } => matrix_pass(*scale, *seed, journal_dir, tracing, root, poison),
        Inputs::Population(spec) => population_pass(spec, tracing, root),
        Inputs::Suite(suite) => match tracing {
            None => suite_pass(suite),
            Some(t) => suite_pass_traced(suite, t, root.expect("traced passes open a root span")),
        },
    };
    if let (Some(t), Some(r)) = (tracing, root) {
        t.tracer.close(r);
    }
    out
}

fn matrix_pass(
    scale: Scale,
    seed: u64,
    journal_dir: &Path,
    tracing: Option<Tracing>,
    root: Option<usize>,
    poison: Option<(CcaKind, u32)>,
) -> PassOutcome {
    let attempted = (CcaKind::ALL.len() * MTUS.len()) as u64;
    // Each pass is a fresh campaign, not a resume of the previous one.
    let _ = std::fs::remove_dir_all(journal_dir);
    let opts = CampaignOptions {
        threads: 1,
        journal_dir: Some(journal_dir.to_path_buf()),
        ..Default::default()
    };
    let campaign = tracing.map(|t| t.tracer.open(t.pass, "run_campaign_with_runner", root));
    let runner = |cca: CcaKind, mtu: u32, bytes: u64, seeds: &[u64]| {
        let derived: Vec<u64> = seeds.iter().map(|&s| derive_seed(seed, s)).collect();
        if poison == Some((cca, mtu)) {
            return Err(CellError::Failed {
                cca,
                mtu,
                seed: derived[0],
                message: "poisoned through the runner seam".to_string(),
            });
        }
        let span = tracing.map(|t| t.tracer.open(t.pass, "run_cell", campaign));
        let cell = run_cell(cca, mtu, bytes, &derived);
        if let (Some(t), Some(s)) = (tracing, span) {
            t.tracer.close(s);
        }
        cell
    };
    let report = run_campaign_with_runner(scale, opts, runner);
    if let (Some(t), Some(s)) = (tracing, campaign) {
        t.tracer.close(s);
    }
    let report = match report {
        Ok(r) => r,
        Err(e) => return failed_outright(attempted, format!("campaign failed: {e}")),
    };
    let m = report.matrix;
    let mut problems = Vec::new();
    let missing = attempted.saturating_sub((m.cells.len() + m.failed.len()) as u64);
    let failed = m.failed.len() as u64 + missing;
    if failed > 0 {
        problems.push(format!(
            "{failed} of {attempted} cells failed or are missing"
        ));
    }
    if report.cancelled {
        problems.push("campaign was cancelled".to_string());
    }
    if let Some(reason) = &report.supervision.degraded {
        problems.push(format!("journal degraded: {reason}"));
    }
    for c in &m.cells {
        let finite = [
            c.energy_j.mean,
            c.power_w.mean,
            c.fct_s.mean,
            c.goodput_gbps.mean,
        ]
        .iter()
        .all(|v| v.is_finite() && *v > 0.0);
        if !finite {
            problems.push(format!(
                "cell {} @ {} has a non-positive measurement",
                c.cca, c.mtu
            ));
        }
    }
    let json = serde_json::to_string(&m).expect("a matrix serializes");
    PassOutcome {
        attempted,
        failed,
        check: digest(json.as_bytes()),
        problems,
        detail: Detail::Matrix(m),
    }
}

fn population_pass(
    spec: &PopulationSpec,
    tracing: Option<Tracing>,
    root: Option<usize>,
) -> PassOutcome {
    let attempted = spec.total_flows as u64;
    let span = tracing.map(|t| t.tracer.open(t.pass, "run_population_with_threads", root));
    let result = run_population_with_threads(spec, POPULATION_THREADS);
    if let (Some(t), Some(s)) = (tracing, span) {
        t.tracer.close(s);
    }
    let out = match result {
        Ok(o) => o,
        Err(e) => return failed_outright(attempted, format!("population failed: {e}")),
    };
    let completed = out
        .reports
        .iter()
        .filter(|r| r.outcome.is_completed())
        .count() as u64;
    let failed = attempted.saturating_sub(completed);
    let mut problems = Vec::new();
    if failed > 0 {
        problems.push(format!("{failed} of {attempted} flows did not complete"));
    }
    PassOutcome {
        attempted,
        failed,
        check: population_check(&out),
        problems,
        detail: Detail::Population(out),
    }
}

/// The population's `PopulationFingerprint`, spelled out.
fn population_check(out: &PopulationOutcome) -> String {
    let f = out.fingerprint();
    format!(
        "events={} sim_end_ns={} energy_bits={:016x} retx={}",
        f.events_processed, f.sim_end_ns, f.sender_energy_bits, f.total_retx
    )
}

fn suite_pass(suite: &Suite) -> PassOutcome {
    verdict_outcome(run_suite(suite).verdict, Detail::None)
}

/// The traced suite pass runs each entry itself, so spans sit around
/// `ScenarioSpec::run` and around each `Expectation::evaluate`,
/// re-applied to the run's measurements. It folds the same verdict
/// `run_suite` does; the verdict digest check proves the two agree.
fn suite_pass_traced(suite: &Suite, t: Tracing, root: usize) -> PassOutcome {
    let mut scenarios = Vec::with_capacity(suite.entries.len());
    let mut runs = Vec::with_capacity(suite.entries.len());
    let mut problems = Vec::new();
    for entry in &suite.entries {
        let spec = &entry.spec;
        let span = t.tracer.open(t.pass, "scenario_spec_run", Some(root));
        let run = spec.run();
        if let Ok(run) = &run {
            for (e, reported) in spec.expectations().iter().zip(&run.reports) {
                let eval = t.tracer.open(t.pass, "expectation_evaluate", Some(span));
                let again = e.evaluate(&run.measured, run.baseline.as_ref());
                t.tracer.close(eval);
                if &again != reported {
                    problems.push(format!("{}: {} is not reproducible", spec.name(), e.name()));
                }
            }
        }
        t.tracer.close(span);
        let verdict = match &run {
            Ok(run) => ScenarioVerdict {
                name: spec.name().to_string(),
                negative: entry.negative,
                passed: run.passed,
                behaved: run.passed != entry.negative,
                sim_end_s: run.measured.sim_end.as_secs_f64(),
                chaos: spec.chaos_labels(),
                expectations: run.reports.clone(),
                error: None,
            },
            Err(e) => ScenarioVerdict {
                name: spec.name().to_string(),
                negative: entry.negative,
                passed: false,
                behaved: false,
                sim_end_s: 0.0,
                chaos: spec.chaos_labels(),
                expectations: Vec::new(),
                error: Some(e.to_string()),
            },
        };
        scenarios.push(verdict);
        runs.push(run.map_err(|e| e.to_string()));
    }
    scenarios.sort_by(|a, b| a.name.cmp(&b.name));
    let verdict = SuiteVerdict {
        schema_version: VERDICT_SCHEMA_VERSION,
        suite: suite.name.clone(),
        all_behaved: scenarios.iter().all(|v| v.behaved),
        scenarios,
    };
    let mut out = verdict_outcome(verdict, Detail::Suite(runs));
    out.problems.extend(problems);
    out
}

fn verdict_outcome(verdict: SuiteVerdict, detail: Detail) -> PassOutcome {
    let attempted = verdict.scenarios.len() as u64;
    let failed = verdict.scenarios.iter().filter(|v| !v.behaved).count() as u64;
    let mut problems = Vec::new();
    if !verdict.all_behaved {
        problems.push(format!("{failed} of {attempted} scenarios misbehaved"));
    }
    PassOutcome {
        attempted,
        failed,
        check: digest(verdict.to_json().as_bytes()),
        problems,
        detail,
    }
}

fn failed_outright(attempted: u64, why: String) -> PassOutcome {
    PassOutcome {
        attempted,
        failed: attempted,
        check: String::new(),
        problems: vec![why],
        detail: Detail::None,
    }
}

/// The topology a suite scenario runs on, for grouping its run times.
/// `ScenarioSpec` keeps its topology private; its `Debug` form names it
/// right after the scenario name.
pub fn topology_of(spec: &scenario::prelude::ScenarioSpec) -> &'static str {
    let dbg = format!("{spec:?}");
    let after = dbg.split_once("topology: ").map_or("", |(_, rest)| rest);
    if after.starts_with("Incast") {
        "incast"
    } else if after.starts_with("RackGrid") {
        "rack_grid"
    } else if after.starts_with("ParkingLot") {
        "parking_lot"
    } else {
        "dumbbell"
    }
}
