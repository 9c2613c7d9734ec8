//! `wabench-served` — the benchmark-execution service daemon.
//!
//! ```text
//! wabench-served serve  --socket PATH [--workers N] [--store DIR] [--store-cap-mb M] [--timeout-s S]
//!                       [--faults PLAN] [--sample-ms N] [--series-cap N] [--slow-ms N]
//!                       [--profile-ms N] [--alerts SPEC] [--postmortem-dir DIR]
//! wabench-served submit --socket PATH --bench NAME [--engine E] [--level O0..O3]
//!                       [--scale test|profile|timing] [--mode exec|aot|profiled] [--warm]
//! wabench-served stats  --socket PATH
//! wabench-served stats-ext --socket PATH
//! wabench-served health --socket PATH
//! wabench-served series --socket PATH
//! wabench-served trace-dump --socket PATH
//! wabench-served alerts --socket PATH
//! wabench-served shutdown --socket PATH
//! wabench-served smoke  [--dir DIR] [--jobs N]
//! ```
//!
//! `stats-ext` speaks protocol v3: besides the classic counters it
//! reports queue depth, worker utilization, queue-wait/per-engine
//! latency histograms (min/p50/p95/p99/max), and — once profiled jobs
//! have run — per-engine simulated IPC/MPKI aggregates. Older servers
//! answer `Err` (v1) or omit the v3 fields (v2).
//!
//! `health` speaks protocol v4: resilience counters (retries,
//! interpreter fallbacks, store repairs, breaker fast-fails), circuit
//! breaker states per engine, and any active fault-injection sites.
//! `--faults PLAN` (or the `WABENCH_FAULTS` env var) arms deterministic
//! fault injection for chaos testing; see `docs/OPERATIONS.md`.
//!
//! `series` and `trace-dump` speak protocol v7: the serve path runs a
//! background telemetry sampler (`--sample-ms`, 0 disables) whose delta
//! window `series` fetches, and keeps recent plus slow-request
//! (`--slow-ms` threshold) span digests that `trace-dump` fetches for
//! client-side stitching. `wabench-top` builds a live view on top.
//!
//! `alerts` speaks protocol v8: `--alerts SPEC` (or `WABENCH_ALERTS`)
//! arms the SLO alert engine — burn-rate, p99-ceiling, queue-depth,
//! breaker-open and profile-drift rules evaluated against the sampled
//! series — and `--postmortem-dir DIR` makes every pending→firing
//! transition snapshot a flight-recorder bundle for `wabench-doctor`.
//! `--profile-ms N` arms the continuous profiler whose windows
//! `wabench-prof windows` / `wdiff` fetch. All three are off by
//! default and cost nothing when disarmed.
//!
//! `smoke` is self-contained: it starts a scheduler + server on a
//! scratch socket, drives it through a real client twice — a cold pass
//! that compiles and populates the artifact store, then a warm pass
//! that loads artifacts — asserts every job succeeded, and prints the
//! cold-vs-warm compile times from `stats`. Exit code 0 only if all
//! jobs succeeded and the warm pass hit the store.

use std::path::PathBuf;
use std::process::exit;
use std::sync::Arc;
use std::time::Duration;

use engines::EngineKind;
use obs::alert::AlertSpec;
use svc::job::{JobMode, JobSpec, Scale};
use svc::scheduler::{Config, HealthReport, Scheduler, SvcStats, SvcStatsExt};
use svc::server::{serve, Client};
use svc::telemetry::{AlertReport, SeriesReport, TelemetryConfig, TraceReport};
use wacc::OptLevel;

fn usage() -> ! {
    obs::error!(
        "usage: wabench-served <serve|submit|stats|stats-ext|health|series|trace-dump|alerts|shutdown|smoke> [options]\n\
         \n\
         serve      --socket PATH [--workers N] [--store DIR] [--store-cap-mb M] [--timeout-s S] [--trace-out FILE] [--faults PLAN]\n\
         \u{20}          [--sample-ms N] [--series-cap N] [--slow-ms N] [--profile-ms N] [--alerts SPEC] [--postmortem-dir DIR]\n\
         submit     --socket PATH --bench NAME [--engine E] [--level O2] [--scale test] [--mode exec|aot|profiled] [--warm]\n\
         stats      --socket PATH\n\
         stats-ext  --socket PATH\n\
         health     --socket PATH\n\
         series     --socket PATH\n\
         trace-dump --socket PATH\n\
         alerts     --socket PATH\n\
         shutdown   --socket PATH\n\
         smoke      [--dir DIR] [--jobs N]\n\
         \n\
         common: --log error|warn|info|debug (overrides WABENCH_LOG)\n\
         PLAN is a comma list like 'seed=7,compile=0.05,store.read=0.02'\n\
         (also read from WABENCH_FAULTS; see docs/OPERATIONS.md)\n\
         SPEC is a comma list like 'slo=0.99,burn=14:5m:1h,p99=250ms:1m'\n\
         (also read from WABENCH_ALERTS; see docs/OPERATIONS.md)"
    );
    exit(2);
}

/// Consumes the value of `--flag VALUE`; exits with usage on a trailing
/// flag with no value.
fn take_value(args: &[String], i: &mut usize, flag: &str) -> String {
    *i += 1;
    match args.get(*i) {
        Some(v) => v.clone(),
        None => {
            obs::error!("missing value for {flag}");
            usage();
        }
    }
}

#[derive(Debug)]
struct Opts {
    socket: Option<PathBuf>,
    workers: usize,
    store: Option<PathBuf>,
    store_cap_mb: u64,
    timeout_s: u64,
    bench: Option<String>,
    engine: EngineKind,
    level: OptLevel,
    scale: Scale,
    mode: JobMode,
    warm: bool,
    dir: Option<PathBuf>,
    jobs: usize,
    trace_out: Option<PathBuf>,
    faults: Option<String>,
    sample_ms: u64,
    series_cap: usize,
    slow_ms: u64,
    profile_ms: u64,
    alerts: Option<String>,
    postmortem_dir: Option<PathBuf>,
}

impl Opts {
    fn base() -> Opts {
        Opts {
            socket: None,
            workers: 4,
            store: None,
            store_cap_mb: 256,
            timeout_s: 120,
            bench: None,
            engine: EngineKind::Wasmtime,
            level: OptLevel::O2,
            scale: Scale::Test,
            mode: JobMode::Exec,
            warm: false,
            dir: None,
            jobs: 4,
            trace_out: None,
            faults: None,
            sample_ms: 250,
            series_cap: 600,
            slow_ms: 250,
            profile_ms: 0,
            alerts: None,
            postmortem_dir: None,
        }
    }
}

fn parse_opts(args: &[String]) -> Opts {
    let mut o = Opts::base();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--socket" => o.socket = Some(PathBuf::from(take_value(args, &mut i, "--socket"))),
            "--workers" => {
                o.workers = take_value(args, &mut i, "--workers")
                    .parse()
                    .ok()
                    .filter(|n| *n > 0)
                    .unwrap_or_else(|| {
                        obs::error!("--workers needs a positive integer");
                        usage();
                    })
            }
            "--store" => o.store = Some(PathBuf::from(take_value(args, &mut i, "--store"))),
            "--store-cap-mb" => {
                o.store_cap_mb = take_value(args, &mut i, "--store-cap-mb")
                    .parse()
                    .unwrap_or_else(|_| {
                        obs::error!("--store-cap-mb needs an integer");
                        usage();
                    })
            }
            "--timeout-s" => {
                o.timeout_s = take_value(args, &mut i, "--timeout-s")
                    .parse()
                    .unwrap_or_else(|_| {
                        obs::error!("--timeout-s needs an integer");
                        usage();
                    })
            }
            "--bench" => o.bench = Some(take_value(args, &mut i, "--bench")),
            "--engine" => {
                let v = take_value(args, &mut i, "--engine");
                o.engine = EngineKind::parse(&v).unwrap_or_else(|| {
                    obs::error!("unknown engine {v:?}");
                    usage();
                })
            }
            "--level" => {
                let v = take_value(args, &mut i, "--level");
                o.level = match v.trim_start_matches('-') {
                    "O0" => OptLevel::O0,
                    "O1" => OptLevel::O1,
                    "O2" => OptLevel::O2,
                    "O3" => OptLevel::O3,
                    _ => {
                        obs::error!("unknown level {v:?} (use O0..O3)");
                        usage();
                    }
                }
            }
            "--scale" => {
                let v = take_value(args, &mut i, "--scale");
                o.scale = Scale::parse(&v).unwrap_or_else(|| {
                    obs::error!("unknown scale {v:?} (use test|profile|timing)");
                    usage();
                })
            }
            "--mode" => {
                let v = take_value(args, &mut i, "--mode");
                o.mode = match v.as_str() {
                    "exec" => JobMode::Exec,
                    "aot" => JobMode::ExecAot,
                    "profiled" => JobMode::Profiled,
                    _ => {
                        obs::error!("unknown mode {v:?} (use exec|aot|profiled)");
                        usage();
                    }
                }
            }
            "--warm" => o.warm = true,
            "--trace-out" => {
                o.trace_out = Some(PathBuf::from(take_value(args, &mut i, "--trace-out")))
            }
            "--faults" => o.faults = Some(take_value(args, &mut i, "--faults")),
            "--log" => {
                let v = take_value(args, &mut i, "--log");
                match obs::logger::Level::parse(&v) {
                    Some(lvl) => obs::logger::set_level(lvl),
                    None => {
                        obs::error!("unknown log level {v:?} (use error|warn|info|debug)");
                        usage();
                    }
                }
            }
            "--sample-ms" => {
                o.sample_ms = take_value(args, &mut i, "--sample-ms")
                    .parse()
                    .unwrap_or_else(|_| {
                        obs::error!("--sample-ms needs an integer (0 disables sampling)");
                        usage();
                    })
            }
            "--series-cap" => {
                o.series_cap = take_value(args, &mut i, "--series-cap")
                    .parse()
                    .ok()
                    .filter(|n| *n > 0)
                    .unwrap_or_else(|| {
                        obs::error!("--series-cap needs a positive integer");
                        usage();
                    })
            }
            "--slow-ms" => {
                o.slow_ms = take_value(args, &mut i, "--slow-ms")
                    .parse()
                    .unwrap_or_else(|_| {
                        obs::error!("--slow-ms needs an integer");
                        usage();
                    })
            }
            "--profile-ms" => {
                o.profile_ms = take_value(args, &mut i, "--profile-ms")
                    .parse()
                    .unwrap_or_else(|_| {
                        obs::error!("--profile-ms needs an integer (0 disables profiling)");
                        usage();
                    })
            }
            "--alerts" => o.alerts = Some(take_value(args, &mut i, "--alerts")),
            "--postmortem-dir" => {
                o.postmortem_dir =
                    Some(PathBuf::from(take_value(args, &mut i, "--postmortem-dir")))
            }
            "--dir" => o.dir = Some(PathBuf::from(take_value(args, &mut i, "--dir"))),
            "--jobs" => {
                o.jobs = take_value(args, &mut i, "--jobs")
                    .parse()
                    .ok()
                    .filter(|n| *n > 0)
                    .unwrap_or_else(|| {
                        obs::error!("--jobs needs a positive integer");
                        usage();
                    })
            }
            other => {
                obs::error!("unknown option {other:?}");
                usage();
            }
        }
        i += 1;
    }
    o
}

fn need_socket(o: &Opts) -> PathBuf {
    o.socket.clone().unwrap_or_else(|| {
        obs::error!("--socket is required");
        usage();
    })
}

fn print_stats(s: &SvcStats) {
    println!(
        "jobs: submitted {} completed {} (ok {}, failed {}, panicked {}, timed-out {})",
        s.submitted, s.completed, s.ok, s.failed, s.panicked, s.timed_out
    );
    println!(
        "compile: cold {} avg {:.3}ms | warm artifact loads {} avg {:.3}ms",
        s.cold_compiles,
        s.cold_compile_avg_s() * 1e3,
        s.warm_loads,
        s.warm_load_avg_s() * 1e3
    );
    match &s.store {
        Some(st) => println!(
            "store: {} hits, {} misses, {} puts, {} evictions, {} corrupt rejected",
            st.hits, st.misses, st.puts, st.evictions, st.corrupt_rejected
        ),
        None => println!("store: none attached"),
    }
}

fn print_stats_ext(s: &SvcStatsExt) {
    print_stats(&s.base);
    println!(
        "service: queue depth {}, {} workers, uptime {:.1}s, utilization {:.1}%",
        s.queue_depth,
        s.workers,
        s.uptime_s,
        s.utilization() * 100.0
    );
    println!("queue wait: {}", s.queue_wait.summary());
    for (code, hist) in &s.engine_wall {
        let name = EngineKind::from_code(*code).map_or("unknown", |k| k.name());
        println!("engine {name}: wall {}", hist.summary());
    }
    for (code, agg) in &s.engine_counters {
        let name = EngineKind::from_code(*code).map_or("unknown", |k| k.name());
        let c = &agg.counters;
        println!(
            "engine {name}: {} profiled jobs, {} instrs, ipc {:.3}, mpki branch {:.2} l1d {:.2} llc {:.2}",
            agg.jobs,
            c.instructions,
            c.ipc(),
            c.branch_mpki(),
            c.l1d_mpki(),
            c.llc_mpki()
        );
    }
}

fn print_health(h: &HealthReport) {
    let r = &h.resilience;
    println!(
        "resilience: {} retries, {} interpreter fallbacks, {} store repairs, {} breaker fast-fails",
        r.retries, r.compile_fallbacks, r.store_repairs, r.breaker_fast_fails
    );
    println!(
        "queue: depth {} (peak {})",
        h.queue_depth, h.peak_queue_depth
    );
    if h.breakers.is_empty() {
        println!("breakers: none (no jobs yet)");
    }
    for (code, b) in &h.breakers {
        let name = EngineKind::from_code(*code).map_or("unknown", |k| k.name());
        println!(
            "breaker {name}: {} ({} consecutive failures, {} trips)",
            b.state.name(),
            b.consecutive_failures,
            b.trips
        );
    }
    if h.faults.is_empty() {
        println!("faults: none armed");
    }
    for (site, rate, injected) in &h.faults {
        let name = fault::Site::from_code(*site).map_or("unknown", |s| s.key());
        println!("fault {name}: rate {rate} ({injected} injected)");
    }
}

fn print_series(s: &SeriesReport) {
    if s.points.is_empty() {
        println!("series: empty (server running without a sampler?)");
        return;
    }
    println!(
        "series: {} points at {}ms intervals",
        s.points.len(),
        s.interval_ns / 1_000_000
    );
    for p in &s.points {
        let mut line = format!(
            "#{:>5}  qps {:>8.1}  ok {:>4} fail {:>3}  queue {:>3} busy {:>2}",
            p.seq,
            p.qps(),
            p.ok,
            p.failed,
            p.queue_depth,
            p.busy_workers
        );
        if p.lat.count > 0 {
            line.push_str(&format!(
                "  p50 {:.2}ms p99 {:.2}ms",
                p.lat.p50_ns as f64 / 1e6,
                p.lat.p99_ns as f64 / 1e6
            ));
        }
        println!("{line}");
    }
}

fn print_trace_report(t: &TraceReport) {
    println!(
        "traces: {} recent, {} slow (threshold {:.1}ms)",
        t.recent.len(),
        t.exemplars.len(),
        t.slow_threshold_ns as f64 / 1e6
    );
    for rec in t.all_records() {
        let p = &rec.phases;
        println!(
            "trace {:#018x} [{}] {}: queue {:.2}ms compile {:.2}ms exec {:.2}ms wall {:.2}ms{}{}",
            p.trace_id,
            rec.label,
            if rec.ok { "ok" } else { "FAILED" },
            p.start_ns.saturating_sub(p.enqueue_ns) as f64 / 1e6,
            p.compile_ns as f64 / 1e6,
            p.exec_ns as f64 / 1e6,
            p.done_ns.saturating_sub(p.enqueue_ns) as f64 / 1e6,
            if p.attempts > 1 {
                format!(" ({} attempts)", p.attempts)
            } else {
                String::new()
            },
            if p.compile_fallback { " (fallback)" } else { "" },
        );
    }
}

fn print_result(res: &svc::JobResult) {
    println!(
        "job {} [{}]: {:?} checksum={:?} compile {:.3}ms{} exec {:.3}ms wall {:.3}ms",
        res.id,
        res.spec,
        res.status,
        res.checksum,
        res.compile_s * 1e3,
        if res.warm_artifact { " (warm)" } else { "" },
        res.exec_s * 1e3,
        res.wall_s * 1e3,
    );
}

fn print_alert_report(a: &AlertReport) {
    println!(
        "alerts: {} ({} firing, {} logged transitions)",
        if a.armed { "armed" } else { "disarmed" },
        a.firing.len(),
        a.events.len()
    );
    for f in &a.firing {
        println!(
            "firing {}: value {:.4} threshold {:.4} since {:.1}s ({})",
            f.rule,
            f.value,
            f.threshold,
            a.server_now_ns.saturating_sub(f.since_ns) as f64 / 1e9,
            f.detail
        );
    }
    for e in &a.events {
        println!(
            "event #{:<4} {:>9.1}s {:>8} {}: value {:.4} threshold {:.4} ({})",
            e.seq,
            e.t_ns as f64 / 1e9,
            e.transition.name(),
            e.rule,
            e.value,
            e.threshold,
            e.detail
        );
    }
}

/// Resolves the alert spec: `--alerts` wins, else `WABENCH_ALERTS`,
/// else none. A malformed spec is a usage error.
fn alert_spec(o: &Opts) -> Option<AlertSpec> {
    let parsed = match &o.alerts {
        Some(spec) => AlertSpec::parse(spec).map(Some),
        None => AlertSpec::from_env(),
    };
    parsed.unwrap_or_else(|e| {
        obs::error!("bad alert spec: {e}");
        usage();
    })
}

/// Resolves the fault plan: `--faults` wins, else `WABENCH_FAULTS`,
/// else none. A malformed plan is a usage error.
fn fault_plan(o: &Opts) -> Option<Arc<fault::FaultPlan>> {
    let parsed = match &o.faults {
        Some(spec) => fault::FaultPlan::parse(spec).map(Some),
        None => fault::FaultPlan::from_env(),
    };
    parsed
        .unwrap_or_else(|e| {
            obs::error!("bad fault plan: {e}");
            usage();
        })
        .map(Arc::new)
}

fn cmd_serve(o: &Opts) {
    let socket = need_socket(o);
    if o.trace_out.is_some() {
        obs::trace::install(obs::trace::Sink::Ring);
    }
    let faults = fault_plan(o);
    if let Some(plan) = &faults {
        obs::warn!("fault injection armed: {plan}");
    }
    let alerts = alert_spec(o);
    if let Some(spec) = &alerts {
        if o.sample_ms == 0 {
            obs::warn!("--alerts armed but --sample-ms is 0: no samples, no evaluations");
        }
        obs::info!("alert engine armed: {spec}");
    }
    let sched = Scheduler::start(Config {
        workers: o.workers,
        timeout: Duration::from_secs(o.timeout_s),
        store_dir: o.store.clone(),
        store_cap_bytes: o.store_cap_mb << 20,
        faults,
        telemetry: TelemetryConfig {
            sample_interval: (o.sample_ms > 0).then(|| Duration::from_millis(o.sample_ms)),
            series_cap: o.series_cap,
            slow_threshold: Duration::from_millis(o.slow_ms),
            ..TelemetryConfig::default()
        },
        alerts,
        postmortem_dir: o.postmortem_dir.clone(),
        profile_window: (o.profile_ms > 0).then(|| Duration::from_millis(o.profile_ms)),
        ..Config::default()
    })
    .unwrap_or_else(|e| {
        obs::error!("failed to start scheduler: {e}");
        exit(1);
    });
    obs::info!(
        "wabench-served: listening on {} ({} workers{})",
        socket.display(),
        o.workers,
        match &o.store {
            Some(d) => format!(", store {}", d.display()),
            None => String::new(),
        }
    );
    if let Err(e) = serve(&socket, Arc::new(sched)) {
        obs::error!("server error: {e}");
        exit(1);
    }
    if let Some(path) = &o.trace_out {
        let trace = obs::trace::drain();
        obs::trace::install(obs::trace::Sink::Null);
        match obs::chrome::export_file(&trace, path) {
            Ok(()) => obs::info!("wrote {} ({} spans)", path.display(), trace.span_count()),
            Err(e) => {
                obs::error!("{}: {e}", path.display());
                exit(1);
            }
        }
    }
}

fn cmd_submit(o: &Opts) {
    let socket = need_socket(o);
    let bench = o.bench.clone().unwrap_or_else(|| {
        obs::error!("--bench is required");
        usage();
    });
    let spec = JobSpec {
        benchmark: bench,
        engine: o.engine,
        level: o.level,
        scale: o.scale,
        mode: o.mode,
        warm: o.warm,
    };
    let mut client = Client::connect(&socket).unwrap_or_else(|e| {
        obs::error!("connect {}: {e}", socket.display());
        exit(1);
    });
    let id = client.submit(spec).expect("submit");
    let res = client.wait(id).expect("wait");
    print_result(&res);
    exit(if res.ok() { 0 } else { 1 });
}

fn cmd_stats(o: &Opts) {
    let socket = need_socket(o);
    let mut client = Client::connect(&socket).unwrap_or_else(|e| {
        obs::error!("connect {}: {e}", socket.display());
        exit(1);
    });
    print_stats(&client.stats().expect("stats"));
}

fn cmd_stats_ext(o: &Opts) {
    let socket = need_socket(o);
    let mut client = Client::connect(&socket).unwrap_or_else(|e| {
        obs::error!("connect {}: {e}", socket.display());
        exit(1);
    });
    print_stats_ext(&client.stats_ext().expect("stats-ext"));
}

fn cmd_health(o: &Opts) {
    let socket = need_socket(o);
    let mut client = Client::connect(&socket).unwrap_or_else(|e| {
        obs::error!("connect {}: {e}", socket.display());
        exit(1);
    });
    print_health(&client.health().expect("health"));
    // v8 servers also report firing alerts; older servers answer Err.
    if let Ok(a) = client.alert_log() {
        if a.armed && a.firing.is_empty() {
            println!("alerts: armed, none firing");
        }
        for f in &a.firing {
            println!(
                "ALERT {} firing: value {:.4} threshold {:.4} ({})",
                f.rule, f.value, f.threshold, f.detail
            );
        }
    }
}

fn cmd_alerts(o: &Opts) {
    let socket = need_socket(o);
    let mut client = Client::connect(&socket).unwrap_or_else(|e| {
        obs::error!("connect {}: {e}", socket.display());
        exit(1);
    });
    print_alert_report(&client.alert_log().expect("alerts"));
}

fn cmd_series(o: &Opts) {
    let socket = need_socket(o);
    let mut client = Client::connect(&socket).unwrap_or_else(|e| {
        obs::error!("connect {}: {e}", socket.display());
        exit(1);
    });
    print_series(&client.series().expect("series"));
}

fn cmd_trace_dump(o: &Opts) {
    let socket = need_socket(o);
    let mut client = Client::connect(&socket).unwrap_or_else(|e| {
        obs::error!("connect {}: {e}", socket.display());
        exit(1);
    });
    print_trace_report(&client.trace_dump().expect("trace-dump"));
}

fn cmd_shutdown(o: &Opts) {
    let socket = need_socket(o);
    let mut client = Client::connect(&socket).unwrap_or_else(|e| {
        obs::error!("connect {}: {e}", socket.display());
        exit(1);
    });
    client.shutdown().expect("shutdown");
    println!("server stopped");
}

/// Self-contained socket smoke test; exits nonzero on any failure.
fn cmd_smoke(o: &Opts) {
    let dir = o.dir.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!("wabench-smoke-{}", std::process::id()))
    });
    std::fs::create_dir_all(&dir).expect("create smoke dir");
    let socket = dir.join("wabench.sock");
    let store = dir.join("store");

    // The smoke jobs: the three compiling engines on one benchmark, in
    // service (warm) mode, so the second pass exercises artifact loads.
    let jits = [
        EngineKind::Wasmtime,
        EngineKind::Wavm,
        EngineKind::Wasmer(engines::Backend::Cranelift),
    ];
    let spec = |kind: EngineKind| JobSpec {
        benchmark: "crc32".to_string(),
        engine: kind,
        level: OptLevel::O2,
        scale: Scale::Test,
        mode: JobMode::Exec,
        warm: true,
    };

    let run_pass = |label: &str, jobs: usize| -> (u64, SvcStats) {
        let sched = Scheduler::start(Config {
            workers: jobs,
            timeout: Duration::from_secs(120),
            store_dir: Some(store.clone()),
            store_cap_bytes: 256 << 20,
            ..Config::default()
        })
        .expect("start scheduler");
        let sched = Arc::new(sched);
        let server_sched = Arc::clone(&sched);
        let server_socket = socket.clone();
        let server = std::thread::spawn(move || serve(&server_socket, server_sched));
        // Wait for the socket to appear.
        for _ in 0..200 {
            if socket.exists() {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let mut client = Client::connect(&socket).expect("connect");
        client.ping().expect("ping");
        let ids: Vec<u64> = jits.iter().map(|k| client.submit(spec(*k)).expect("submit")).collect();
        let mut ok = 0u64;
        for id in &ids {
            let res = client.wait(*id).expect("wait");
            print_result(&res);
            if res.ok() {
                ok += 1;
            }
        }
        let stats = client.stats().expect("stats");
        // Exercise the protocol-v2 path over the real socket too.
        let ext = client.stats_ext().expect("stats-ext");
        assert_eq!(ext.base.completed, stats.completed, "stats-ext disagrees");
        // And the v4 health path: no faults armed, so everything clean.
        let health = client.health().expect("health");
        assert_eq!(health.resilience.retries, 0, "unexpected retries in smoke");
        assert!(health.faults.is_empty(), "no fault plan was armed");
        println!(
            "[{label}] utilization {:.1}%, queue wait {}",
            ext.utilization() * 100.0,
            ext.queue_wait.summary()
        );
        client.shutdown().expect("shutdown");
        server.join().expect("server join").expect("serve");
        println!("[{label}] {ok}/{} jobs ok", ids.len());
        (ok, stats)
    };

    println!("== smoke: cold pass (socket {}) ==", socket.display());
    let (cold_ok, cold_stats) = run_pass("cold", o.jobs);
    println!("== smoke: warm pass ==");
    let (warm_ok, warm_stats) = run_pass("warm", o.jobs);

    print_stats(&warm_stats);
    let mut failures = Vec::new();
    if cold_ok != 3 || warm_ok != 3 {
        failures.push(format!("expected 3 ok jobs per pass, got {cold_ok}/{warm_ok}"));
    }
    if cold_stats.cold_compiles != 3 {
        failures.push(format!(
            "cold pass should compile 3 modules, compiled {}",
            cold_stats.cold_compiles
        ));
    }
    if warm_stats.warm_loads != 3 {
        failures.push(format!(
            "warm pass should load 3 artifacts, loaded {}",
            warm_stats.warm_loads
        ));
    }
    let cold_avg = cold_stats.cold_compile_avg_s();
    let warm_avg = warm_stats.warm_load_avg_s();
    println!(
        "cold compile avg {:.3}ms vs warm artifact load avg {:.3}ms",
        cold_avg * 1e3,
        warm_avg * 1e3
    );
    if warm_stats.warm_loads == 3 && warm_avg >= cold_avg {
        failures.push(format!(
            "warm load ({:.3}ms) not faster than cold compile ({:.3}ms)",
            warm_avg * 1e3,
            cold_avg * 1e3
        ));
    }
    if o.dir.is_none() {
        let _ = std::fs::remove_dir_all(&dir);
    }
    if failures.is_empty() {
        println!("smoke OK");
    } else {
        for f in &failures {
            obs::error!("smoke FAILED: {f}");
        }
        exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    let opts = parse_opts(&args[1..]);
    match cmd.as_str() {
        "serve" => cmd_serve(&opts),
        "submit" => cmd_submit(&opts),
        "stats" => cmd_stats(&opts),
        "stats-ext" => cmd_stats_ext(&opts),
        "health" => cmd_health(&opts),
        "series" => cmd_series(&opts),
        "trace-dump" => cmd_trace_dump(&opts),
        "alerts" => cmd_alerts(&opts),
        "shutdown" => cmd_shutdown(&opts),
        "smoke" => cmd_smoke(&opts),
        _ => usage(),
    }
}
