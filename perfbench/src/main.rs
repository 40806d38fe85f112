//! Host-time benchmark of the simulator.
//!
//! ```text
//! perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --compare <old.json> <new.json>
//! ```
//!
//! A plain run (`--trace 0`) builds the workload's inputs from the seed,
//! runs one warm-up pass, then runs passes back to back until `--seconds`
//! have passed, timing a batch of set-ups before each, and reports the
//! end-to-end metrics. A traced run (`--trace 1`) alternates plain and
//! traced passes for `--seconds`, then harvests the per-layer metrics
//! (see `layers`). Every pass is checked; the last line of standard
//! output is the JSON result. A fuller record, with quartiles, run
//! counts and the host/build stamp, goes to `.bench_out/`. See
//! `perfbench/README.md`.

mod host;
mod layers;
mod probes;
mod stats;
mod trace;
mod workloads;

use greenenvy::campaign::write_atomic;
use serde_json::{Map, Value};
use stats::{median, quartiles};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;
use trace::Tracer;
use workloads::{Inputs, Kind, PassOutcome, Size, Tracing};

/// Checks recorded for given seeds: `workload seed check`, where `*`
/// stands for every seed.
const REFERENCES: &str = include_str!("../references.txt");

/// Where results, spans and the campaign journal go, relative to the
/// directory the benchmark runs from.
const OUT_DIR: &str = ".bench_out";

/// Set-up is timed in batches of at least [`SETUP_BATCH_S`] (a single
/// set-up when one takes that long), one batch before each timed pass of
/// a plain run, so set-up samples see the same host conditions as the
/// passes; `setup_s` is the median per-set-up time over the batches.
const SETUP_BATCH_S: f64 = 0.05;

/// Fewest timed passes in a plain run, however short `--seconds` is.
const MIN_PASSES: usize = 3;

/// The end-to-end metrics, with their units, in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <cca_mtu_matrix|population_10k|resilience_suite|all> \
--seed <n> --seconds <s> --trace <0|1>\n       perfbench --compare <old.json> <new.json>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && Kind::from_name(&workload).is_none() {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--compare") {
        return match argv.as_slice() {
            [_, old, new] => compare(Path::new(old), Path::new(new)),
            _ => usage_error("--compare takes two result files"),
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => return usage_error(&e),
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let kind = Kind::from_name(&args.workload).expect("validated by parse_args");
    let work_dir = PathBuf::from(OUT_DIR).join(format!("work-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", work_dir.display());
        return ExitCode::from(1);
    }
    let result = measure_workload(kind, &args, &work_dir);
    let _ = std::fs::remove_dir_all(&work_dir);
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}\n{USAGE}");
    ExitCode::from(2)
}

/// The recorded check for a workload and seed, if any.
fn reference(kind: Kind, seed: u64) -> Option<&'static str> {
    REFERENCES.lines().find_map(|line| {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return None;
        }
        let mut parts = line.splitn(3, ' ');
        let (w, s, check) = (parts.next()?, parts.next()?, parts.next()?);
        (w == kind.name() && (s == "*" || s.parse() == Ok(seed))).then_some(check)
    })
}

/// Judges every pass of a run against the first pass and the reference.
struct Checker {
    kind: Kind,
    reference: Option<&'static str>,
    first: Option<String>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Checker {
    fn new(kind: Kind, seed: u64) -> Checker {
        Checker {
            kind,
            reference: reference(kind, seed),
            first: None,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }

    /// Account one pass. A pass whose check fails counts as entirely failed.
    fn judge(&mut self, out: &PassOutcome) {
        let mut wrong: Vec<String> = out.problems.clone();
        let first = self.first.get_or_insert_with(|| out.check.clone());
        if out.check != *first {
            wrong.push(format!(
                "check {} differs from the run's first pass {first}",
                out.check
            ));
        }
        if let Some(r) = self.reference {
            if out.check != r {
                wrong.push(format!(
                    "check {} differs from the reference {r}",
                    out.check
                ));
            }
        }
        self.attempted += out.attempted;
        if wrong.is_empty() {
            self.failed += out.failed;
        } else {
            self.failed += out.attempted;
            for w in wrong {
                self.problems.push(format!("{}: {w}", self.kind.name()));
            }
        }
    }

    fn reference_status(&self) -> &'static str {
        match self.reference {
            None => "none recorded for this seed (checked pass against pass)",
            Some(_) if self.problems.is_empty() => "match",
            Some(_) => "MISMATCH",
        }
    }
}

/// Set-ups per timed batch, from one untimed set-up; returns the inputs.
fn calibrate_setup(kind: Kind, seed: u64, work_dir: &Path) -> (Inputs, usize) {
    let t = Instant::now();
    let inputs = workloads::setup(kind, Size::Full, seed, work_dir);
    let once = t.elapsed().as_secs_f64();
    let batch = ((SETUP_BATCH_S / once.max(1e-9)).ceil() as usize).clamp(1, 1_000_000);
    (inputs, batch)
}

/// Time one batch of set-ups; seconds per set-up.
fn timed_setup(kind: Kind, seed: u64, work_dir: &Path, batch: usize) -> f64 {
    let t = Instant::now();
    for _ in 0..batch {
        std::hint::black_box(workloads::setup(kind, Size::Full, seed, work_dir));
    }
    t.elapsed().as_secs_f64() / batch as f64
}

/// One timed pass: wall and CPU seconds.
fn timed_pass(inputs: &Inputs, tracing: Option<Tracing>) -> (PassOutcome, f64, f64) {
    let cpu0 = host::process_cpu_s();
    let t = Instant::now();
    let out = workloads::pass(inputs, tracing, None);
    let wall = t.elapsed().as_secs_f64();
    (out, wall, host::process_cpu_s() - cpu0)
}

/// A metric as measured: the per-pass samples (or one value).
struct Measured {
    name: String,
    unit: &'static str,
    samples: Vec<f64>,
}

fn measure_workload(kind: Kind, args: &Args, work_dir: &Path) -> Result<String, String> {
    let mut checker = Checker::new(kind, args.seed);
    let (inputs, setup_batch) = calibrate_setup(kind, args.seed, work_dir);
    let mut setup_times = Vec::new();
    let warm = workloads::pass(&inputs, None, None);
    checker.judge(&warm);

    let tracer = Tracer::default();
    let mut measured: Vec<Measured> = Vec::new();
    let mut walls = Vec::new();
    let mut cpus = Vec::new();
    let mut traced_walls = Vec::new();
    let window = Instant::now();
    let mut pass_id = 0u64;
    loop {
        if !args.trace {
            setup_times.push(timed_setup(kind, args.seed, work_dir, setup_batch));
        }
        let (out, wall, cpu) = timed_pass(&inputs, None);
        checker.judge(&out);
        walls.push(wall);
        cpus.push(cpu);
        if args.trace {
            pass_id += 1;
            let tracing = Tracing {
                tracer: &tracer,
                pass: pass_id,
            };
            let (out, wall, _) = timed_pass(&inputs, Some(tracing));
            checker.judge(&out);
            traced_walls.push(wall);
        }
        let min = if args.trace { 2 } else { MIN_PASSES };
        if window.elapsed().as_secs_f64() >= args.seconds && walls.len() >= min {
            break;
        }
    }

    if args.trace {
        let overhead = median(&traced_walls) / median(&walls) - 1.0;
        let costs = probes::measure();
        let mut harvest = layers::Harvest {
            seed: args.seed,
            work_dir,
            tracer: &tracer,
            next_pass: pass_id + 1,
            problems: Vec::new(),
        };
        let metrics = harvest.every_layer(&costs, overhead);
        // The harvest is one more operation, failed if it found anything.
        checker.attempted += 1;
        checker.failed += u64::from(!harvest.problems.is_empty());
        checker.problems.extend(harvest.problems);
        let names: Vec<&String> = metrics.iter().map(|(n, _, _)| n).collect();
        assert_eq!(
            names,
            layers::names().iter().collect::<Vec<_>>(),
            "the harvest emits exactly the declared per-layer metrics"
        );
        for (name, value, unit) in metrics {
            measured.push(Measured {
                name,
                unit,
                samples: vec![value],
            });
        }
        let spans_path =
            PathBuf::from(OUT_DIR).join(format!("spans-{}-seed{}.jsonl", kind.name(), args.seed));
        write_atomic(&spans_path, trace::to_jsonl(&tracer.spans()).as_bytes())
            .map_err(|e| e.to_string())?;
    } else {
        let ok = 1.0 - checker.failed as f64 / checker.attempted.max(1) as f64;
        for ((name, unit), samples) in END_TO_END.iter().zip([
            walls.clone(),
            cpus,
            setup_times,
            vec![host::peak_rss_mb()],
            vec![ok],
        ]) {
            measured.push(Measured {
                name: name.to_string(),
                unit,
                samples,
            });
        }
    }
    report(kind, args, &checker, &measured, walls.len())
}

/// Print the human-readable table and the record file; return the
/// final JSON line.
fn report(
    kind: Kind,
    args: &Args,
    checker: &Checker,
    measured: &[Measured],
    passes: usize,
) -> Result<String, String> {
    let stamp = host::stamp();
    println!(
        "perfbench {} seed {} trace {}: {passes} timed passes in the window",
        kind.name(),
        args.seed,
        u8::from(args.trace)
    );
    println!(
        "stamp: {}",
        serde_json::to_string(&Value::Object(stamp.clone())).expect("stamp serializes")
    );
    println!(
        "{:<48} {:>14} {:>14} {:>14} {:>4}  unit",
        "metric", "median", "q1", "q3", "n"
    );
    let mut metrics = Map::new();
    let mut record = Map::new();
    for m in measured {
        let med = median(&m.samples);
        let (q1, q3) = quartiles(&m.samples);
        println!(
            "{:<48} {:>14} {:>14} {:>14} {:>4}  {}",
            m.name,
            table_number(med),
            table_number(q1),
            table_number(q3),
            m.samples.len(),
            m.unit
        );
        let mut v = Map::new();
        v.insert("value".to_string(), Value::F64(med));
        v.insert("unit".to_string(), Value::String(m.unit.to_string()));
        metrics.insert(m.name.clone(), Value::Object(v));
        let mut r = Map::new();
        r.insert("median".to_string(), Value::F64(med));
        r.insert("q1".to_string(), Value::F64(q1));
        r.insert("q3".to_string(), Value::F64(q3));
        r.insert("n".to_string(), Value::U64(m.samples.len() as u64));
        r.insert("unit".to_string(), Value::String(m.unit.to_string()));
        r.insert(
            "samples".to_string(),
            Value::Array(m.samples.iter().map(|&x| Value::F64(x)).collect()),
        );
        record.insert(m.name.clone(), Value::Object(r));
    }
    let failed_frac = checker.failed as f64 / checker.attempted.max(1) as f64;
    println!(
        "failed_frac {failed_frac} ratio ({} of {} operations)",
        checker.failed, checker.attempted
    );
    println!(
        "check {} reference: {}",
        checker.first.as_deref().unwrap_or("-"),
        checker.reference_status()
    );
    for p in &checker.problems {
        println!("PROBLEM {p}");
    }
    let correct = checker.problems.is_empty();

    let mut file = Map::new();
    file.insert(
        "workload".to_string(),
        Value::String(kind.name().to_string()),
    );
    file.insert("seed".to_string(), Value::U64(args.seed));
    file.insert("trace".to_string(), Value::Bool(args.trace));
    file.insert("seconds".to_string(), Value::F64(args.seconds));
    file.insert("stamp".to_string(), Value::Object(stamp));
    file.insert("correct".to_string(), Value::Bool(correct));
    file.insert("failed_frac".to_string(), Value::F64(failed_frac));
    file.insert(
        "check".to_string(),
        Value::String(checker.first.clone().unwrap_or_default()),
    );
    file.insert("metrics".to_string(), Value::Object(record));
    let path = PathBuf::from(OUT_DIR).join(format!(
        "{}-seed{}-trace{}.json",
        kind.name(),
        args.seed,
        u8::from(args.trace)
    ));
    let text = serde_json::to_string_pretty(&Value::Object(file)).expect("record serializes");
    write_atomic(&path, (text + "\n").as_bytes()).map_err(|e| e.to_string())?;
    println!("record: {}", path.display());

    Ok(result_line(
        correct,
        checker.attempted,
        checker.failed,
        metrics,
    ))
}

/// Six decimals, or scientific notation for values too small for them.
fn table_number(x: f64) -> String {
    if x != 0.0 && x.abs() < 1e-3 {
        format!("{x:.4e}")
    } else {
        format!("{x:.6}")
    }
}

/// The JSON object a run prints as its last line.
fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Map) -> String {
    let mut line = Map::new();
    line.insert("correct".to_string(), Value::Bool(correct));
    line.insert("attempted".to_string(), Value::U64(attempted));
    line.insert("failed".to_string(), Value::U64(failed));
    line.insert("metrics".to_string(), Value::Object(metrics));
    serde_json::to_string(&Value::Object(line)).expect("result serializes")
}

/// Run every workload, each in its own process (so `peak_rss_mb` is the
/// workload's own), and print one table.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench: cannot find own executable: {e}");
            return ExitCode::from(1);
        }
    };
    let mut correct = true;
    let mut attempted = 0;
    let mut failed = 0;
    let mut metrics = Map::new();
    for name in workloads::NAMES {
        let out = Command::new(&exe)
            .args(["--workload", name, "--seed", &args.seed.to_string()])
            .args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ])
            .output();
        let out = match out {
            Ok(o) if o.status.success() => o,
            Ok(o) => {
                eprintln!("perfbench: {name} exited with {}", o.status);
                return ExitCode::from(1);
            }
            Err(e) => {
                eprintln!("perfbench: cannot run {name}: {e}");
                return ExitCode::from(1);
            }
        };
        let text = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = text.lines().collect();
        let last = lines.pop().unwrap_or_default();
        for l in lines {
            println!("{l}");
        }
        let Ok(Value::Object(result)) = serde_json::from_str::<Value>(last) else {
            eprintln!("perfbench: {name} printed no result");
            return ExitCode::from(1);
        };
        correct &= result.get("correct").and_then(Value::as_bool) == Some(true);
        attempted += result.get("attempted").and_then(Value::as_u64).unwrap_or(0);
        failed += result.get("failed").and_then(Value::as_u64).unwrap_or(0);
        if let Some(m) = result.get("metrics").and_then(Value::as_object) {
            for (k, v) in m.iter() {
                metrics.insert(format!("{name}.{k}"), v.clone());
            }
        }
    }
    println!("{}", result_line(correct, attempted, failed, metrics));
    ExitCode::SUCCESS
}

/// Compare two result records metric by metric. Exits 3, after printing,
/// when their host/build stamps differ: such a comparison is flagged,
/// not trusted.
fn compare(old: &Path, new: &Path) -> ExitCode {
    let load = |p: &Path| -> Result<Map, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        match serde_json::from_str::<Value>(&text) {
            Ok(Value::Object(m)) => Ok(m),
            Ok(_) => Err(format!("{}: not a result record", p.display())),
            Err(e) => Err(format!("{}: {e}", p.display())),
        }
    };
    let (a, b) = match (load(old), load(new)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let stamp_of = |m: &Map, f: &str| {
        m.get("stamp")
            .and_then(|s| s.get(f))
            .map(|v| serde_json::to_string(v).expect("stamp field serializes"))
            .unwrap_or_default()
    };
    let differing: Vec<&str> = host::COMPARABLE_FIELDS
        .into_iter()
        .filter(|f| stamp_of(&a, f) != stamp_of(&b, f))
        .collect();
    println!(
        "{:<48} {:>14} {:>14} {:>9}",
        "metric", "old median", "new median", "new/old"
    );
    let empty = Map::new();
    let metrics = |m: &Map| {
        m.get("metrics")
            .and_then(Value::as_object)
            .cloned()
            .unwrap_or_else(|| empty.clone())
    };
    let (ma, mb) = (metrics(&a), metrics(&b));
    for (name, va) in ma.iter() {
        let med = |v: &Value| v.get("median").and_then(Value::as_f64);
        if let (Some(x), Some(y)) = (med(va), mb.get(name).and_then(med)) {
            println!(
                "{name:<48} {:>14} {:>14} {:>9.4}",
                table_number(x),
                table_number(y),
                y / x
            );
        }
    }
    if differing.is_empty() {
        ExitCode::SUCCESS
    } else {
        for f in &differing {
            println!(
                "STAMP DIFFERS in {f}: {} vs {}",
                stamp_of(&a, f),
                stamp_of(&b, f)
            );
        }
        println!("comparison flagged: the results come from different hosts or builds");
        ExitCode::from(3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cca::CcaKind;

    /// Names the driver and `BENCHMARK.json` accept.
    fn well_formed(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn work_dir(test: &str) -> PathBuf {
        let dir = PathBuf::from(OUT_DIR).join(format!("test-{test}"));
        std::fs::create_dir_all(&dir).expect("test work dir");
        dir
    }

    #[test]
    fn metric_and_workload_names_are_well_formed() {
        let layer = layers::names();
        let all: Vec<&str> = workloads::NAMES
            .iter()
            .copied()
            .chain(END_TO_END.iter().map(|(n, _)| *n))
            .chain(layer.iter().map(String::as_str))
            .collect();
        for n in &all {
            assert!(well_formed(n), "{n}");
        }
        let mut unique = all.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), all.len(), "names are used once");
        assert!(!well_formed("bad name") && !well_formed("_x") && !well_formed("a/b"));
    }

    #[test]
    fn benchmark_json_round_trips_and_matches_the_harness() {
        let text = include_str!("../../BENCHMARK.json");
        let v: Value = serde_json::from_str(text).expect("BENCHMARK.json parses");
        let again: Value = serde_json::from_str(&serde_json::to_string_pretty(&v).expect("prints"))
            .expect("reparses");
        assert_eq!(v, again);
        let obj = v.as_object().expect("an object");
        let keys: Vec<&str> = obj.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let names = |key: &str| -> Vec<String> {
            obj.get(key)
                .and_then(Value::as_array)
                .expect("a list")
                .iter()
                .map(|e| {
                    e.get("name")
                        .and_then(Value::as_str)
                        .expect("named")
                        .to_string()
                })
                .collect()
        };
        assert_eq!(names("workloads"), workloads::NAMES);
        let e2e: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(names("end_to_end"), e2e);
        assert_eq!(names("per_layer"), layers::names());
        for entry in obj
            .get("end_to_end")
            .and_then(Value::as_array)
            .expect("a list")
        {
            let unit = entry.get("unit").and_then(Value::as_str).expect("unit");
            let name = entry.get("name").and_then(Value::as_str).expect("name");
            assert_eq!(
                Some(unit),
                END_TO_END.iter().find(|(n, _)| *n == name).map(|(_, u)| *u)
            );
            let bound = entry.get("bound").and_then(Value::as_f64).expect("bound");
            assert!(bound > 0.0 && bound <= 0.25, "{name}: {bound}");
        }
        let run_seconds = obj
            .get("run_seconds")
            .and_then(Value::as_u64)
            .expect("run_seconds");
        assert!((1..=60).contains(&run_seconds));
    }

    #[test]
    fn references_name_known_workloads() {
        let mut n = 0;
        for line in REFERENCES.lines().map(str::trim) {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.splitn(3, ' ');
            let w = parts.next().expect("workload");
            let s = parts.next().expect("seed");
            let check = parts.next().expect("check");
            assert!(Kind::from_name(w).is_some(), "{line}");
            assert!(s == "*" || s.parse::<u64>().is_ok(), "{line}");
            assert!(!check.is_empty(), "{line}");
            n += 1;
        }
        assert!(n > 0, "references are recorded");
        assert!(
            reference(Kind::Suite, 12345).is_some(),
            "the suite's reference holds for every seed"
        );
    }

    #[test]
    fn reduced_passes_pass_their_checks() {
        let dir = work_dir("reduced");
        for kind in [Kind::Matrix, Kind::Population, Kind::Suite] {
            let inputs = workloads::setup(kind, Size::Reduced, 7, &dir);
            // Reduced inputs have no recorded reference; the run checks
            // pass against pass.
            let mut checker = Checker {
                reference: None,
                ..Checker::new(kind, 7)
            };
            for _ in 0..2 {
                let out = workloads::pass(&inputs, None, None);
                assert!(out.attempted > 0);
                assert_eq!(out.failed, 0, "{}: {:?}", kind.name(), out.problems);
                checker.judge(&out);
                assert!(checker.problems.is_empty(), "{:?}", checker.problems);
            }
            let tracer = Tracer::default();
            let traced = workloads::pass(
                &inputs,
                Some(Tracing {
                    tracer: &tracer,
                    pass: 1,
                }),
                None,
            );
            checker.judge(&traced);
            assert!(
                checker.problems.is_empty(),
                "traced pass: {:?}",
                checker.problems
            );
            assert!(tracer.spans().iter().any(|s| s.name == "pass"));
            if let (Inputs::Population(spec), workloads::Detail::Population(two)) =
                (&inputs, &traced.detail)
            {
                let one = workload::population::run_population(spec).expect("one worker runs");
                assert_eq!(one.fingerprint(), two.fingerprint());
            }
        }
    }

    #[test]
    fn a_poisoned_cell_counts_as_failed_and_flags_the_pass() {
        let dir = work_dir("poison");
        let inputs = workloads::setup(Kind::Matrix, Size::Reduced, 7, &dir);
        let out = workloads::pass(&inputs, None, Some((CcaKind::Cubic, 1500)));
        assert_eq!(out.failed, 1);
        assert!(!out.problems.is_empty());
        let mut checker = Checker {
            reference: None,
            ..Checker::new(Kind::Matrix, 7)
        };
        checker.judge(&out);
        assert!(!checker.problems.is_empty());
        assert_eq!(
            checker.failed, checker.attempted,
            "a flagged pass fails entirely"
        );
        assert!(checker.failed > 0);
    }

    #[test]
    fn arguments_are_validated() {
        let args =
            |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        assert!(args("--workload population_10k --seed 3 --seconds 10 --trace 1").is_ok());
        assert!(args("--workload nope --seed 3 --seconds 10 --trace 1").is_err());
        assert!(args("--workload all --seed -1 --seconds 10 --trace 0").is_err());
        assert!(args("--workload all --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload all --seed 1 --seconds 5 --trace 2").is_err());
        assert!(args("--workload all --seed 1 --seconds 5").is_err());
    }
}
