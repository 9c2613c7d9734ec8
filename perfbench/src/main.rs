//! The repository benchmark. One binary, four workloads:
//!
//! - `compile`: WaCC source → `Engine::compile`, serial.
//! - `exec`: `instantiate` + `invoke("run")` of precompiled modules, serial.
//! - `serve`: jobs through a `wabench-served` daemon, closed loop with one
//!   client per CPU.
//! - `arch`: `compile_profiled` + `invoke_profiled` under a fresh `ArchSim`.
//!
//! ```text
//! perfbench --workload W --seed N --seconds S --trace 0|1 [--served PATH]
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics, with `--trace 1` the
//! per-layer ones, which come from spans the benchmark records around each
//! call it makes into a layer (see `spans`). The last line of standard
//! output is one JSON object; the exit code is 1 when any output check
//! failed. README.md explains each workload and metric.

mod arch;
mod compile;
mod exec;
mod serve;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::exit;
use std::time::Instant;

use stats::{geomean, median, quantile};

/// End-to-end metrics, printed with `--trace 0` on every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("cell_geomean_ms", "ms"),
];

/// Per-layer metrics, printed with `--trace 1` on every workload. A layer a
/// workload does not call reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("wacc.parse_ms", "ms"),
    ("wacc.check_ms", "ms"),
    ("wacc.opt_ms", "ms"),
    ("wacc.codegen_ms", "ms"),
    ("wacc.encode_ms", "ms"),
    ("wacc.wasm_bytes", "bytes"),
    ("wasm_core.decode_ms", "ms"),
    ("wasm_core.validate_ms", "ms"),
    ("engines.translate_ms.WAMR", "ms"),
    ("engines.translate_ms.Wasm3", "ms"),
    ("engines.jit_ms.Wasmtime", "ms"),
    ("engines.jit_ms.WAVM", "ms"),
    ("engines.jit_ms.Wasmer", "ms"),
    ("engines.jit.lowered_ops", "count"),
    ("engines.jit.final_ops", "count"),
    ("engines.jit.op_visits", "count"),
    ("engines.jit.checks_eliminated", "count"),
    ("engines.code_bytes", "bytes"),
    ("engines.aot_serialize_ms", "ms"),
    ("engines.aot_load_ms", "ms"),
    ("engines.aot_bytes", "bytes"),
    ("engines.instantiate_ms", "ms"),
    ("engines.run_ms.Wasmtime", "ms"),
    ("engines.run_ms.WAVM", "ms"),
    ("engines.run_ms.Wasmer", "ms"),
    ("engines.run_ms.Wasm3", "ms"),
    ("engines.run_ms.WAMR", "ms"),
    ("native.run_ms", "ms"),
    ("exec.vs_native.Wasmtime", "x"),
    ("exec.vs_native.WAVM", "x"),
    ("exec.vs_native.Wasmer", "x"),
    ("exec.vs_native.Wasm3", "x"),
    ("exec.vs_native.WAMR", "x"),
    ("svc.submit_ms", "ms"),
    ("svc.wait_ms", "ms"),
    ("svc.queue_ms", "ms"),
    ("svc.job_compile_ms", "ms"),
    ("svc.job_exec_ms", "ms"),
    ("svc.job_wall_ms", "ms"),
    ("svc.residual_ms", "ms"),
    ("svc.store.hits", "count"),
    ("svc.store.misses", "count"),
    ("svc.store.puts", "count"),
    ("svc.warm_loads", "count"),
    ("svc.cold_compiles", "count"),
    ("svc.retries", "count"),
    ("archsim.compile_profiled_ms", "ms"),
    ("archsim.run_profiled_ms", "ms"),
    ("archsim.minstr_per_s", "Minstr/s"),
    ("archsim.instructions", "count"),
    ("archsim.cycles", "count"),
    ("archsim.branches", "count"),
    ("archsim.branch_misses", "count"),
    ("archsim.l1i_accesses", "count"),
    ("archsim.l1d_accesses", "count"),
    ("archsim.cache_references", "count"),
    ("obs.trace_overhead_pct", "%"),
];

/// A deliberate fault, so tests can show that the output checks bite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tamper {
    /// Corrupts one reference checksum.
    Checksum,
    /// Corrupts one recorded counter (arch) or code size (compile).
    Counter,
}

#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `wabench-served` binary (serve only).
    pub served: Option<PathBuf>,
    /// Use only the first N suite programs (tests); 0 means all.
    pub programs: usize,
    pub tamper: Option<Tamper>,
    /// Where traces, daemon state and the results log go.
    pub out_dir: PathBuf,
}

/// What a pass is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PassKind {
    /// Fills caches and records reference outputs; its timings are dropped.
    Warmup,
    /// Timed with tracing off.
    Untraced,
    /// Timed with tracing on; feeds the per-layer metrics.
    Traced,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Seconds of each repetition of the set-up.
    pub setup_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few check failures, for the log.
    pub errors: Vec<String>,
    /// The measured passes, untraced and traced.
    pub passes: Vec<Pass>,
    /// Whether the ops of a pass overlap in time (serve's clients), so a
    /// rate must come from a pass's wall time.
    pub overlapping: bool,
    /// Peak resident set after the set-up and the warm-up pass: a fixed
    /// amount of work, so the figure does not depend on how many passes
    /// the host's speed lets into the run.
    pub peak_rss_mb: f64,
    /// Per-layer values the workload computed; missing ones print as 0.
    pub layers: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records a failed check; the run will report `correct: false`.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 10 {
            self.errors.push(msg);
        }
    }

    /// Keeps a finished pass, unless it was the warm-up.
    pub fn record_pass(&mut self, kind: PassKind, ops: Vec<(usize, f64)>, seconds: f64) {
        if kind != PassKind::Warmup {
            self.passes.push(Pass { kind, ops, seconds });
        }
    }

    /// Keeps a finished serial pass, whose time is the sum of its ops.
    pub fn record_serial_pass(&mut self, kind: PassKind, ops: Vec<(usize, f64)>) {
        let seconds = ops.iter().map(|&(_, ms)| ms).sum::<f64>() / 1e3;
        self.record_pass(kind, ops, seconds);
    }

    /// The measured passes of one kind.
    pub fn passes(&self, kind: PassKind) -> impl Iterator<Item = &Pass> {
        self.passes.iter().filter(move |p| p.kind == kind)
    }

    /// Seconds the untraced passes took.
    pub fn measured_s(&self) -> f64 {
        self.passes(PassKind::Untraced).map(|p| p.seconds).sum()
    }
}

/// Each cell's fastest time over the given passes, in ms.
fn best_per_cell<'a>(passes: impl Iterator<Item = &'a Pass>) -> BTreeMap<usize, f64> {
    let mut best: BTreeMap<usize, f64> = BTreeMap::new();
    for pass in passes {
        for &(cell, ms) in &pass.ops {
            let b = best.entry(cell).or_insert(ms);
            *b = b.min(ms);
        }
    }
    best
}

/// Tracing overhead in percent: summed fastest times of the cells in
/// traced passes over the same in untraced passes, minus 100.
fn trace_overhead_pct(out: &Outcome) -> f64 {
    let traced = best_per_cell(out.passes(PassKind::Traced));
    let untraced = best_per_cell(out.passes(PassKind::Untraced));
    let (mut t, mut u) = (0.0, 0.0);
    for (cell, ms) in &traced {
        if let Some(base) = untraced.get(cell) {
            t += ms;
            u += base;
        }
    }
    if u > 0.0 {
        t / u * 100.0 - 100.0
    } else {
        0.0
    }
}

/// One measured pass.
#[derive(Debug)]
pub struct Pass {
    pub kind: PassKind,
    /// `(cell, latency ms)` of every op that passed its checks.
    pub ops: Vec<(usize, f64)>,
    /// Seconds the pass spent in ops (serial workloads) or in wall time
    /// (serve, whose clients overlap).
    pub seconds: f64,
}

/// Runs a warm-up pass, then `passes` measured passes; every pass covers
/// every cell of the workload once. The count is fixed per workload and
/// sized so that the passes take about `--seconds` on a 2-CPU Xeon, so
/// faster code does not get more samples, and with them a lower fastest
/// time per cell. The time only caps the count, with room for a slow phase
/// of the host: a pass starts only while the previous one would still end
/// within 1.5 × `--seconds`, and at least one measured pass of each needed
/// kind always runs. In a traced run the measured passes alternate
/// untraced and traced.
pub fn run_passes(opts: &Opts, passes: usize, mut pass: impl FnMut(PassKind)) {
    let start = Instant::now();
    let (mut untraced, mut traced, mut last) = (0, 0, 0.0);
    for i in 0..=passes.max(if opts.trace { 2 } else { 1 }) {
        let kind = if i == 0 {
            PassKind::Warmup
        } else if opts.trace && untraced > traced {
            PassKind::Traced
        } else {
            PassKind::Untraced
        };
        let enough = untraced >= 1 && (!opts.trace || traced >= 1);
        if enough && start.elapsed().as_secs_f64() + last > 1.5 * opts.seconds {
            break;
        }
        spans::set_tracing(kind == PassKind::Traced);
        let t = Instant::now();
        pass(kind);
        last = t.elapsed().as_secs_f64();
        spans::set_tracing(false);
        eprintln!("pass {i} {kind:?} {last:.3} s");
        match kind {
            PassKind::Untraced => untraced += 1,
            PassKind::Traced => traced += 1,
            PassKind::Warmup => {}
        }
    }
}

/// Times one set-up: runs `setup` `batch` times back to back and records
/// the mean duration (a set-up of microseconds needs the batch to be timed
/// at all). Each workload times its set-up once before the passes, keeping
/// the result, and again before each untraced pass, dropping it; `setup_s`
/// is the fastest of these, so that, like a cell's time, it is taken
/// across the whole run. (Traced passes skip it: the spans the program
/// opens inside its set-up would fill the span rings.)
pub fn time_setup<T>(out: &mut Outcome, batch: usize, mut setup: impl FnMut() -> T) -> T {
    let batch = batch.max(1);
    let t = Instant::now();
    let mut last = setup();
    for _ in 1..batch {
        drop(last);
        last = setup();
    }
    out.setup_s.push(t.elapsed().as_secs_f64() / batch as f64);
    last
}

/// The suite programs a run uses: those `keep` selects, cut to
/// `--programs` when it is set.
pub fn programs(
    opts: &Opts,
    keep: impl Fn(&suite::Benchmark) -> bool,
) -> Vec<&'static suite::Benchmark> {
    let mut v: Vec<_> = suite::all().iter().filter(|b| keep(b)).collect();
    if opts.programs > 0 {
        v.truncate(opts.programs);
    }
    v
}

/// Peak resident set of a process, in MiB, from `/proc/<pid>/status`.
pub fn peak_rss_mb(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The machine the numbers were taken on. Results from different
/// fingerprints must not be compared.
fn host_fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!("nproc={nproc} cpu={cpu}")
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", obs::json::escape(s))
}

/// A metric value as JSON: finite, with all its digits.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The end-to-end metrics, from the untraced passes.
///
/// On the serial workloads each cell counts with its fastest time over
/// the fixed number of passes: this host's speed drifts by about ±25% over
/// seconds to minutes (README.md), and a slowdown only ever adds time, so
/// the fastest pass repeats from run to run where a median does not. The
/// rate is the cells over the sum of those times.
///
/// On `serve`, whose requests overlap, queueing and wake-up delays are
/// what the metrics are for, so the percentiles and the geometric mean are
/// taken over every request latency, and the rate is the requests over
/// the passes' wall time.
fn end_to_end(out: &Outcome) -> BTreeMap<&'static str, f64> {
    let untraced = || out.passes(PassKind::Untraced);
    let (latencies, rate): (Vec<f64>, f64) = if out.overlapping {
        let all: Vec<f64> = untraced()
            .flat_map(|p| p.ops.iter().map(|&(_, ms)| ms))
            .collect();
        let wall_s: f64 = untraced().map(|p| p.seconds).sum();
        let rate = if wall_s > 0.0 {
            all.len() as f64 / wall_s
        } else {
            0.0
        };
        (all, rate)
    } else {
        let cells: Vec<f64> = best_per_cell(untraced()).into_values().collect();
        let total_ms: f64 = cells.iter().sum();
        let rate = if total_ms > 0.0 {
            cells.len() as f64 / (total_ms / 1e3)
        } else {
            0.0
        };
        (cells, rate)
    };
    let mut m = BTreeMap::new();
    m.insert("setup_s", stats::min(&out.setup_s));
    m.insert("peak_rss_mb", out.peak_rss_mb);
    m.insert("ops_per_s", rate);
    m.insert("op_p50_ms", median(&latencies));
    m.insert("op_p99_ms", quantile(&latencies, 0.99));
    m.insert("cell_geomean_ms", geomean(&latencies));
    m
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload compile|exec|serve|arch --seed N --seconds S --trace 0|1 \
         [--served PATH] [--programs N] [--tamper checksum|counter] [--out-dir DIR]"
    );
    exit(2)
}

fn parse_opts() -> Opts {
    let mut o = Opts {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        served: None,
        programs: 0,
        tamper: None,
        out_dir: PathBuf::from(".bench_out"),
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let v = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => o.workload = v.clone(),
            "--seed" => o.seed = v.parse().unwrap_or_else(|_| usage()),
            "--seconds" => o.seconds = v.parse().unwrap_or_else(|_| usage()),
            "--trace" => o.trace = v == "1",
            "--served" => o.served = Some(PathBuf::from(v)),
            "--programs" => o.programs = v.parse().unwrap_or_else(|_| usage()),
            "--tamper" => {
                o.tamper = Some(match v.as_str() {
                    "checksum" => Tamper::Checksum,
                    "counter" => Tamper::Counter,
                    _ => usage(),
                })
            }
            "--out-dir" => o.out_dir = PathBuf::from(v),
            _ => usage(),
        }
    }
    o
}

fn main() {
    let opts = parse_opts();
    if let Err(e) = std::fs::create_dir_all(&opts.out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", opts.out_dir.display());
        exit(2);
    }
    let out = match opts.workload.as_str() {
        "compile" => compile::run(&opts),
        "exec" => exec::run(&opts),
        "serve" => serve::run(&opts),
        "arch" => arch::run(&opts),
        _ => usage(),
    };
    if out.attempted == 0 {
        eprintln!("perfbench: no op ran");
        exit(1);
    }
    for e in &out.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    let correct = out.failed == 0;
    let (values, names) = if opts.trace {
        let mut v = out.layers.clone();
        v.insert("obs.trace_overhead_pct", trace_overhead_pct(&out));
        (v, PER_LAYER)
    } else {
        (end_to_end(&out), END_TO_END)
    };

    let host = host_fingerprint();
    println!("host {host}");
    let mut metrics = Vec::new();
    for (name, unit) in names {
        let v = values.get(name).copied().unwrap_or(0.0);
        println!("metric {name} {} {unit}", json_num(v));
        metrics.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(name),
            json_num(v),
            json_str(unit)
        ));
    }
    let metrics = metrics.join(", ");
    let record = format!(
        "{{\"host\": {}, \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"metrics\": {{{metrics}}}}}",
        json_str(&host),
        json_str(&opts.workload),
        opts.seed,
        opts.seconds,
        opts.trace
    );
    let log = opts.out_dir.join("results.jsonl");
    if let Err(e) = append_line(&log, &record) {
        eprintln!("perfbench: cannot append to {}: {e}", log.display());
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.attempted, out.failed
    );
    if !correct {
        exit(1);
    }
}

fn append_line(path: &std::path::Path, line: &str) -> std::io::Result<()> {
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{line}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(trace: bool) -> Opts {
        Opts {
            workload: "exec".into(),
            seed: 1,
            seconds: 1000.0,
            trace,
            served: None,
            programs: 0,
            tamper: None,
            out_dir: PathBuf::from("."),
        }
    }

    fn kinds(trace: bool, passes: usize) -> Vec<PassKind> {
        let mut seen = Vec::new();
        run_passes(&opts(trace), passes, |k| seen.push(k));
        seen
    }

    #[test]
    fn pass_count_is_fixed() {
        use PassKind::*;
        assert_eq!(kinds(false, 3), [Warmup, Untraced, Untraced, Untraced]);
        assert_eq!(kinds(true, 3), [Warmup, Untraced, Traced, Untraced]);
        assert_eq!(kinds(true, 1), [Warmup, Untraced, Traced]);
    }

    fn outcome(overlapping: bool) -> Outcome {
        let pass = |ops: Vec<(usize, f64)>| Pass {
            kind: PassKind::Untraced,
            seconds: ops.iter().map(|&(_, ms)| ms).sum::<f64>() / 1e3,
            ops,
        };
        Outcome {
            setup_s: vec![0.3, 0.2, 0.4],
            overlapping,
            passes: vec![
                pass(vec![(0, 1.0), (1, 2.0)]),
                pass(vec![(0, 9.0), (1, 2.0)]),
            ],
            ..Outcome::default()
        }
    }

    #[test]
    fn serial_workloads_keep_each_cells_fastest_time() {
        let m = end_to_end(&outcome(false));
        assert_eq!(m["setup_s"], 0.2);
        assert_eq!(m["op_p50_ms"], 1.5);
        assert_eq!(m["op_p99_ms"], 1.0 + 0.99);
        assert!((m["ops_per_s"] - 2.0 / 3e-3).abs() < 1e-9);
    }

    #[test]
    fn serve_keeps_every_request() {
        let m = end_to_end(&outcome(true));
        assert_eq!(m["op_p50_ms"], 2.0);
        assert!(m["op_p99_ms"] > 8.0, "the slow request must show");
        assert!((m["ops_per_s"] - 4.0 / 14e-3).abs() < 1e-9);
    }
}
