//! One benchmark for DECOR: four workloads, their end-to-end metrics, and
//! a traced pass that splits them into layers.
//!
//! ```text
//! perfbench --workload <fleet-deploy|lossy-restore|endurance|big-field>
//!           --seed <n> --seconds <s> --trace <0|1> [--record]
//! ```
//!
//! `--trace 0` measures the workload closed-loop for `--seconds` and
//! prints every end-to-end metric. `--trace 1` (the `perfbench-traced`
//! binary, which links the counting allocator) rebuilds one batch of
//! runs from the layers' public calls, checks that the rebuilt runs are
//! fingerprint-identical to the untraced ones, and prints every per-layer
//! metric. Either way each run is checked against the reference
//! fingerprints under `reference/`, and the last stdout line is the JSON
//! result. `--record` recaptures those references instead of measuring.
//! See `README.md` for the workloads and the metric table.

pub mod stats;
pub mod trace;

mod bigfield;
mod endurance;
mod matrix;
mod reference;

use decor_exp::jsonio::Json;
use reference::{Checker, Reference, INPUT_SETS};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Reads the process-wide allocation count (the traced binary passes
/// `decor-bench`'s counting allocator here).
pub type AllocCounter = fn() -> u64;

/// End-to-end metrics: (name, unit). Every workload reports each one.
pub const END_TO_END: [(&str, &str); 6] = [
    ("runs_per_s", "1/s"),
    ("run_p50_ms", "ms"),
    ("run_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sensors_placed_mean", "count"),
];

/// Per-layer metrics of the traced pass: (name, unit). A workload that
/// never calls into a layer reports 0 for that layer's metrics.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("lds.halton_ms", "ms"),
    ("coverage.build_ms", "ms"),
    ("coverage.fail_ms", "ms"),
    ("coverage.audit_ms", "ms"),
    ("coverage.points", "count"),
    ("coverage.sensors", "count"),
    ("placer.centralized.place_ms", "ms"),
    ("placer.grid-small.place_ms", "ms"),
    ("placer.grid-big.place_ms", "ms"),
    ("placer.voronoi-small.place_ms", "ms"),
    ("placer.random.place_ms", "ms"),
    ("placer.holes.place_ms", "ms"),
    ("placer.rounds", "count"),
    ("placer.placed", "count"),
    ("placer.protocol_msgs", "count"),
    ("net.heartbeat_ms", "ms"),
    ("net.heartbeats_sent", "count"),
    ("net.detection_rate_pct", "%"),
    ("net.false_alarms", "count"),
    ("net.retries", "count"),
    ("net.acks", "count"),
    ("net.gave_up", "count"),
    ("net.duplicates_suppressed", "count"),
    ("net.delivery_yield", "ratio"),
    ("geom.detect_holes_ms", "ms"),
    ("geom.exact_hole_area", "units2"),
    ("geom.holes", "count"),
    ("rotation.agree_ms", "ms"),
    ("rotation.assignments_sent", "count"),
    ("rotation.gave_up", "count"),
    ("endurance.run_ms", "ms"),
    ("endurance.self_ms_per_period", "ms"),
    ("endurance.periods", "count"),
    ("endurance.sleeping_suppressed", "count"),
    ("endurance.heartbeats_sent", "count"),
    ("endurance.reschedules", "count"),
    ("endurance.restorations", "count"),
    ("endurance.emergency_periods", "count"),
    ("endurance.periods_per_s", "1/s"),
    ("endurance.lifetime_periods_mean", "count"),
    ("endurance.allocs_per_period", "count"),
    ("fleet.utilization", "ratio"),
    ("fleet.busy_ms", "ms"),
    ("fleet.tracing_overhead", "ratio"),
    ("fleet.allocs_per_run", "count"),
    ("fleet.runs", "count"),
    ("fleet.threads", "count"),
    ("fleet.run_self_ms", "ms"),
];

/// The four workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    FleetDeploy,
    LossyRestore,
    Endurance,
    BigField,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::FleetDeploy,
        Workload::LossyRestore,
        Workload::Endurance,
        Workload::BigField,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetDeploy => "fleet-deploy",
            Workload::LossyRestore => "lossy-restore",
            Workload::Endurance => "endurance",
            Workload::BigField => "big-field",
        }
    }

    fn parse(name: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| format!("unknown workload '{name}'"))
    }

    fn reference_text(self) -> &'static str {
        match self {
            Workload::FleetDeploy => include_str!("../reference/fleet-deploy.txt"),
            Workload::LossyRestore => include_str!("../reference/lossy-restore.txt"),
            Workload::Endurance => include_str!("../reference/endurance.txt"),
            Workload::BigField => include_str!("../reference/big-field.txt"),
        }
    }

    /// Seed of input set `set`: every workload draws its inputs from it.
    fn input_seed(self, set: u64) -> u64 {
        let salt = match self {
            Workload::FleetDeploy => 0xF1EE_7000,
            Workload::LossyRestore => 0x1055_0000,
            Workload::Endurance => 0xE0D0_0000,
            Workload::BigField => 0xB16F_0000,
        };
        decor_lds::vdc::splitmix64(salt ^ set)
    }
}

/// What the closed-loop timed pass measured.
#[derive(Debug, Default)]
pub struct Timed {
    /// Wall time of each set-up repetition, seconds.
    pub setup_s: Vec<f64>,
    /// Wall time of each run, milliseconds.
    pub run_ms: Vec<f64>,
    /// Wall time the runs were executed in, seconds (the runner's own
    /// wall for a matrix; the summed run times for a single-threaded
    /// loop).
    pub measured_s: f64,
    pub attempted: usize,
    pub failed: usize,
    /// Mean sensors added per run over the first full batch.
    pub placed_mean: f64,
    /// Runs the pass always completes, however long they take. The tail
    /// percentile is fixed from this count, so it is the same on every
    /// commit however fast the runs are.
    pub min_runs: usize,
    /// Worker threads the runs used.
    pub threads: usize,
    /// Extra human-readable lines for the summary.
    pub notes: Vec<String>,
}

/// Per-layer samples gathered by the traced pass, keyed by metric name.
#[derive(Debug, Default)]
pub struct Layers {
    samples: BTreeMap<String, Vec<f64>>,
    pub spans: Vec<trace::Span>,
    pub attempted: usize,
    pub failed: usize,
    pub notes: Vec<String>,
}

impl Layers {
    pub fn add(&mut self, name: &str, value: f64) {
        self.samples.entry(name.to_owned()).or_default().push(value);
    }

    pub fn add_ns(&mut self, name: &str, ns: u64) {
        self.add(name, ns as f64 / 1e6);
    }

    /// Timings (`*_ms`) report their median, everything else its mean;
    /// 0 when the workload never reached the layer.
    pub fn value(&self, name: &str) -> f64 {
        match self.samples.get(name) {
            None => 0.0,
            Some(v) if name.ends_with("_ms") => stats::median(v),
            Some(v) => stats::mean(v),
        }
    }

    fn merge(&mut self, other: Layers) {
        for (k, v) in other.samples {
            self.samples.entry(k).or_default().extend(v);
        }
        self.spans.extend(other.spans);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
    }
}

/// Have `seconds` passed since `start`?
fn expired(start: Instant, seconds: u64) -> bool {
    start.elapsed() >= Duration::from_secs(seconds)
}

fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    record: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut record) =
        (None, None, None, false, false);
    while let Some(flag) = it.next() {
        if flag == "--record" {
            record = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: '{value}' is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value)?),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10),
        trace,
        record,
    })
}

/// Where the traced pass writes its spans and `--record` its references.
fn package_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Prints the result line: every metric value with all the digits its
/// `f64` carries (a non-finite value, which no metric should produce,
/// prints as 0).
fn print_result(correct: bool, attempted: usize, failed: usize, metrics: &[(&str, &str, f64)]) {
    let metrics = metrics
        .iter()
        .map(|&(name, unit, v)| {
            let value = Json::Num(if v.is_finite() { v } else { 0.0 });
            let m = Json::Obj(vec![
                ("value".into(), value),
                ("unit".into(), Json::Str(unit.into())),
            ]);
            (name.to_owned(), m)
        })
        .collect();
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::UInt(attempted as u64)),
        ("failed".into(), Json::UInt(failed as u64)),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    println!("{}", result.render());
}

/// Entry point of both binaries. `allocs` is `Some` only in the traced
/// binary, which links the counting allocator.
pub fn cli_main(allocs: Option<AllocCounter>) -> std::process::ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <fleet-deploy|lossy-restore|endurance|big-field> \
                 --seed <n> --seconds <s> --trace <0|1> [--record]"
            );
            return std::process::ExitCode::from(2);
        }
    };
    match run(&args, allocs) {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::ExitCode::from(1)
        }
    }
}

fn run(args: &Args, allocs: Option<AllocCounter>) -> Result<(), String> {
    let w = args.workload;
    if args.record {
        return record(w);
    }
    let reference = Reference::parse(w.reference_text())?;
    let set = args.seed % INPUT_SETS;
    let checker = Checker::new(&reference, set)?;
    let input = w.input_seed(set);
    println!(
        "workload {} seed {} (input set {set}), {} threads",
        w.name(),
        args.seed,
        threads()
    );
    if args.trace {
        let allocs = allocs.ok_or("--trace 1 needs the perfbench-traced binary")?;
        traced(w, input, &checker, allocs, args.seed)
    } else {
        timed(w, input, &checker, args.seconds)
    }
}

fn timed(w: Workload, input: u64, checker: &Checker, seconds: u64) -> Result<(), String> {
    let t = match w {
        Workload::FleetDeploy | Workload::LossyRestore => matrix::timed(w, input, checker, seconds),
        Workload::Endurance => endurance::timed(input, checker, seconds),
        Workload::BigField => bigfield::timed(input, checker, seconds),
    };
    let n = t.run_ms.len();
    let tail_p = stats::tail_percentile(t.min_runs);
    let values = [
        n as f64 / t.measured_s,
        stats::median(&t.run_ms),
        stats::percentile(&t.run_ms, tail_p),
        stats::median(&t.setup_s),
        peak_rss_mb(),
        t.placed_mean,
    ];
    let metrics: Vec<(&str, &str, f64)> = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, unit, v))
        .collect();
    for (name, unit, v) in &metrics {
        println!("  {name:<22} {v:>14.4} {unit}");
    }
    println!(
        "  run_tail_ms is p{tail_p} of {n} runs; {} threads; set-up repeated {} times",
        t.threads,
        t.setup_s.len()
    );
    if let Some([q1, q2, q3]) = stats::quartiles(&t.run_ms) {
        println!("  run quartiles {q1:.4} / {q2:.4} / {q3:.4} ms");
    }
    println!(
        "  failed_share {} ({} of {} runs failed)",
        t.failed as f64 / t.attempted.max(1) as f64,
        t.failed,
        t.attempted
    );
    for note in &t.notes {
        println!("  {note}");
    }
    print_result(
        t.failed == 0 && t.attempted > 0,
        t.attempted,
        t.failed,
        &metrics,
    );
    Ok(())
}

fn traced(
    w: Workload,
    input: u64,
    checker: &Checker,
    allocs: AllocCounter,
    seed: u64,
) -> Result<(), String> {
    let mut layers = match w {
        Workload::FleetDeploy | Workload::LossyRestore => matrix::traced(w, input, checker, allocs),
        Workload::Endurance => endurance::traced(input, checker, allocs),
        Workload::BigField => bigfield::traced(input, checker, allocs),
    };
    // The run span's self time: the glue between the timed calls.
    let selfs = trace::self_times(&layers.spans);
    let run_selfs: Vec<u64> = layers
        .spans
        .iter()
        .filter(|s| s.parent.is_none() && s.name == "run")
        .map(|s| selfs[&s.id])
        .collect();
    for ns in run_selfs {
        layers.add_ns("fleet.run_self_ms", ns);
    }
    let out_dir = package_dir().join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let path = out_dir.join(format!("spans-{}-seed{seed}.jsonl", w.name()));
    std::fs::write(&path, trace::to_jsonl(&layers.spans))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    print_span_table(&layers.spans);
    let metrics: Vec<(&str, &str, f64)> = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, unit, layers.value(name)))
        .collect();
    for (name, unit, v) in &metrics {
        println!("  {name:<32} {v:>14.4} {unit}");
    }
    for note in &layers.notes {
        println!("  {note}");
    }
    println!("  spans written to {}", path.display());
    print_result(
        layers.failed == 0 && layers.attempted > 0,
        layers.attempted,
        layers.failed,
        &metrics,
    );
    Ok(())
}

/// Per span name: calls, median duration and median self time.
fn print_span_table(spans: &[trace::Span]) {
    let selfs = trace::self_times(spans);
    let mut by_name: BTreeMap<&str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for s in spans {
        let e = by_name.entry(s.name.as_str()).or_default();
        e.0.push(s.dur_ns() as f64 / 1e6);
        e.1.push(selfs[&s.id] as f64 / 1e6);
    }
    println!(
        "  {:<32} {:>8} {:>12} {:>12}",
        "span", "calls", "p50 ms", "p50 self ms"
    );
    for (name, (dur, own)) in by_name {
        println!(
            "  {name:<32} {:>8} {:>12.4} {:>12.4}",
            dur.len(),
            stats::median(&dur),
            stats::median(&own)
        );
    }
}

/// Recaptures `reference/<workload>.txt`: one batch per input set,
/// every run checked against the workload's guarantees first.
fn record(w: Workload) -> Result<(), String> {
    let mut reference = Reference::default();
    for set in 0..INPUT_SETS {
        let input = w.input_seed(set);
        let digests = match w {
            Workload::FleetDeploy | Workload::LossyRestore => matrix::record(w, input)?,
            Workload::Endurance => endurance::record(input)?,
            Workload::BigField => bigfield::record(input)?,
        };
        eprintln!("{}: input set {set}: {} runs", w.name(), digests.len());
        reference.insert(set, digests);
    }
    let path = package_dir()
        .join("reference")
        .join(format!("{}.txt", w.name()));
    let header = format!(
        "{} reference: per input set, one digest per run of its batch",
        w.name()
    );
    std::fs::write(&path, reference.render(&header)).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` declares exactly the metrics this code prints.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = Json::parse(text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            match doc.get(key) {
                Some(Json::Arr(items)) => items
                    .iter()
                    .map(|m| {
                        let s = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_owned();
                        (s("name"), s("unit"))
                    })
                    .collect(),
                _ => panic!("{key} missing"),
            }
        };
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter().map(|&(n, u)| (n.into(), u.into())).collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
        let workloads = match doc.get("workloads") {
            Some(Json::Arr(items)) => items
                .iter()
                .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_owned())
                .collect::<Vec<_>>(),
            _ => panic!("workloads missing"),
        };
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().into()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn args_parse_strictly() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload big-field --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::BigField);
        assert_eq!((a.seed, a.seconds, a.trace, a.record), (7, 3, true, false));
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload endurance --trace 2").is_err());
        assert!(parse("--workload endurance --bogus 1").is_err());
        assert!(parse("--seed 1").is_err());
        assert!(parse("--workload endurance --seed").is_err());
    }

    #[test]
    fn every_committed_reference_covers_every_input_set() {
        for w in Workload::ALL {
            let r = Reference::parse(w.reference_text()).unwrap();
            for set in 0..INPUT_SETS {
                let n = r.set(set).map_or(0, <[u32]>::len);
                assert!(n > 0, "{} set {set}", w.name());
            }
        }
    }
}
