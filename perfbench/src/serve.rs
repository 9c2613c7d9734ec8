//! `serve`: jobs through one `wabench-served` daemon. The daemon runs one
//! worker per CPU on an empty store directory; starting it is part of the
//! set-up. One client per CPU, each on its own connection, runs a closed
//! loop: submit, `Wait`, next job. Each request is timed from submit to
//! the return of its `Wait`, on the thread that made it, so no client
//! times another's wait.
//!
//! A pass is every cell of the fig4 matrix (program × engine × O0–O3) at
//! test scale once, in a new seeded order, with `warm` set: the first pass
//! writes an AOT artifact for each (program, level, JIT engine) and later
//! passes read it. Every result is checked against `Benchmark::native`;
//! failed or degraded jobs, refusals and protocol errors count as failed.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use engines::EngineKind;
use svc::server::Client;
use svc::{JobMode, JobResult, JobSpec, Scale, TraceCtx};
use wacc::OptLevel;

use crate::spans::{self, mean_ms, Recorder};
use crate::stats::{Acc, Orders};
use crate::{programs, run_passes, time_setup, Opts, Outcome, PassKind, Tamper};

/// Measured passes of a run: about 7 s each on a 2-CPU Xeon.
const PASSES: usize = 3;

struct Cell {
    prog: usize,
    level: OptLevel,
    engine: EngineKind,
}

/// A running daemon on its own directory; shut down and removed on drop.
struct Daemon {
    child: Child,
    dir: PathBuf,
    socket: PathBuf,
}

impl Daemon {
    fn start(served: &Path, dir: PathBuf, workers: usize) -> Result<Daemon, String> {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("store"))
            .map_err(|e| format!("{}: {e}", dir.display()))?;
        let log = std::fs::File::create(dir.join("daemon.log")).map_err(|e| e.to_string())?;
        let socket = dir.join("d.sock");
        let child = Command::new(served)
            .arg("serve")
            .arg("--socket")
            .arg(&socket)
            .arg("--store")
            .arg(dir.join("store"))
            .arg("--workers")
            .arg(workers.to_string())
            .env("WABENCH_LOG", "error")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", served.display()))?;
        let mut d = Daemon { child, dir, socket };
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if let Ok(mut c) = Client::connect(&d.socket) {
                if c.ping().is_ok() {
                    return Ok(d);
                }
            }
            if let Ok(Some(status)) = d.child.try_wait() {
                return Err(format!("daemon exited at start: {status}"));
            }
            if Instant::now() > deadline {
                return Err("daemon did not answer within 20 s".into());
            }
            // Short, so the poll step adds little to `setup_s`.
            std::thread::sleep(Duration::from_micros(200));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(mut c) = Client::connect(&self.socket) {
            let _ = c.shutdown();
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while matches!(self.child.try_wait(), Ok(None)) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// One finished request, as its client saw it.
struct Done {
    cell: usize,
    ms: f64,
    result: Result<JobResult, String>,
}

pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome {
        overlapping: true,
        ..Outcome::default()
    };
    let Some(served) = opts.served.clone() else {
        out.attempted += 1;
        out.fail("serve needs --served PATH".into());
        return out;
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let progs = programs(opts, |_| true);
    let mut rep = 0;
    let mut start = || -> Result<_, String> {
        rep += 1;
        let dir = opts
            .out_dir
            .join(format!("serve-{}-{rep}", std::process::id()));
        let daemon = Daemon::start(&served, dir, nproc)?;
        let clients = (0..nproc)
            .map(|_| Client::connect(&daemon.socket).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        Ok((clients, daemon))
    };
    let setup = time_setup(&mut out, 1, &mut start);
    let (mut clients, daemon) = match setup {
        Ok(s) => s,
        Err(e) => {
            out.attempted += 1;
            out.fail(format!("set-up: {e}"));
            return out;
        }
    };
    // The native reference checksums are the benchmark's, not the
    // program's, so they are computed outside the timed set-up.
    let mut expected: Vec<i32> = progs.iter().map(|b| (b.native)(b.sizes.test)).collect();
    if opts.tamper == Some(Tamper::Checksum) {
        expected[0] ^= 1;
    }
    let mut cells = Vec::new();
    for prog in 0..progs.len() {
        for engine in EngineKind::all() {
            for level in OptLevel::all() {
                cells.push(Cell {
                    prog,
                    level,
                    engine,
                });
            }
        }
    }

    let daemon_pid = daemon.child.id().to_string();
    let mut orders = Orders::new(opts.seed);
    let mut rec = Recorder::default();
    let (mut queue, mut compile, mut exec, mut wall, mut residual) = (
        Acc::default(),
        Acc::default(),
        Acc::default(),
        Acc::default(),
        Acc::default(),
    );
    let mut retries = 0u64;
    let mut next_op = 0u64;
    run_passes(opts, PASSES, |kind| {
        if kind == PassKind::Untraced {
            // A second daemon, started and shut down while the clients idle.
            if let Err(e) = time_setup(&mut out, 1, &mut start) {
                out.fail(format!("set-up: {e}"));
            }
        }
        let order = orders.permutation(cells.len());
        let next = AtomicUsize::new(0);
        let base = next_op;
        next_op += order.len() as u64;
        let t = Instant::now();
        let done: Vec<Done> = std::thread::scope(|s| {
            let workers: Vec<_> = clients
                .iter_mut()
                .map(|client| {
                    let (order, next, cells, progs) = (&order, &next, &cells, &progs);
                    s.spawn(move || {
                        let mut done = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(&c) = order.get(i) else { break };
                            let cell = &cells[c];
                            let spec = JobSpec {
                                benchmark: progs[cell.prog].name.to_string(),
                                engine: cell.engine,
                                level: cell.level,
                                scale: Scale::Test,
                                mode: JobMode::Exec,
                                warm: true,
                            };
                            done.push(request(client, base + i as u64 + 1, c, spec));
                        }
                        done
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("client thread panicked"))
                .collect()
        });
        let pass_s = t.elapsed().as_secs_f64();
        if kind == PassKind::Traced {
            rec.collect();
        }
        let mut ops = Vec::new();
        for d in done {
            out.attempted += 1;
            let cell = &cells[d.cell];
            let what = format!("{} {} {}", progs[cell.prog].name, cell.level, cell.engine);
            let res = match d.result {
                Ok(r) => r,
                Err(e) => {
                    out.fail(format!("{what}: {e}"));
                    continue;
                }
            };
            retries += u64::from(res.recovery.retries());
            let want = expected[cell.prog];
            if !res.ok() || res.degraded() || res.checksum != Some(want) {
                out.fail(format!(
                    "{what}: status {:?}, degraded {}, checksum {:?}, native gives {want}",
                    res.status,
                    res.degraded(),
                    res.checksum
                ));
                continue;
            }
            ops.push((d.cell, d.ms));
            if kind == PassKind::Traced {
                queue.add(res.trace.queue_ns() as f64 / 1e6);
                compile.add(res.compile_s * 1e3);
                exec.add(res.exec_s * 1e3);
                wall.add(res.wall_s * 1e3);
                residual.add(d.ms - res.wall_s * 1e3);
            }
        }
        if kind == PassKind::Warmup {
            out.peak_rss_mb = crate::peak_rss_mb(&daemon_pid);
        }
        out.record_pass(kind, ops, pass_s);
    });

    let stats = clients[0].stats_ext().map_err(|e| e.to_string());
    drop(clients);
    drop(daemon);
    let stats = match stats {
        Ok(s) => s,
        Err(e) => {
            out.fail(format!("stats_ext: {e}"));
            return out;
        }
    };
    if opts.trace {
        let t = spans::finish(opts, &rec);
        let store = stats.base.store.unwrap_or_default();
        let l = &mut out.layers;
        l.insert("svc.submit_ms", mean_ms(&t, "svc.submit", &[]));
        l.insert("svc.wait_ms", mean_ms(&t, "svc.wait", &[]));
        l.insert("svc.queue_ms", queue.mean());
        l.insert("svc.job_compile_ms", compile.mean());
        l.insert("svc.job_exec_ms", exec.mean());
        l.insert("svc.job_wall_ms", wall.mean());
        l.insert("svc.residual_ms", residual.mean());
        l.insert("svc.store.hits", store.hits as f64);
        l.insert("svc.store.misses", store.misses as f64);
        l.insert("svc.store.puts", store.puts as f64);
        l.insert("svc.warm_loads", stats.base.warm_loads as f64);
        l.insert("svc.cold_compiles", stats.base.cold_compiles as f64);
        l.insert("svc.retries", retries as f64);
    }
    out
}

/// One request: submit, then wait, timed on the calling thread.
fn request(client: &mut Client, id: u64, cell: usize, spec: JobSpec) -> Done {
    let engine = spec.engine.name();
    let ctx = TraceCtx {
        trace_id: id,
        origin_ns: obs::trace::now_ns(),
    };
    let t = Instant::now();
    let _op = obs::span!("op", op = id, engine = engine);
    let submitted = {
        let _s = obs::span!("svc.submit", op = id, engine = engine);
        client.submit_traced(spec, ctx)
    };
    let result = submitted.and_then(|job| {
        let _s = obs::span!("svc.wait", op = id, engine = engine);
        client.wait(job)
    });
    Done {
        cell,
        ms: t.elapsed().as_secs_f64() * 1e3,
        result: result.map_err(|e| e.to_string()),
    }
}
