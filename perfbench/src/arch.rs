//! `arch`: suite programs at test scale at O2 on the five engines plus the
//! native-profiled baseline, serial, in a new seeded order each pass. One
//! op is `compile_profiled` + `invoke_profiled` under a fresh `ArchSim`
//! (the baseline compiles with the LLVM-tier engine outside the simulator,
//! as the harness does). Every result is checked against
//! `Benchmark::native`, and every cell's counters must repeat exactly in
//! every pass.

use std::time::Instant;

use archsim::{ArchSim, Counters};
use engines::{Engine, EngineKind, Imports};
use wacc::OptLevel;
use wasm_core::types::Value;

use crate::spans::{self, mean_ms, Recorder};
use crate::stats::{Acc, Orders};
use crate::{programs, run_passes, time_setup, Opts, Outcome, PassKind, Tamper};

/// Measured passes of a run: about 2.5 s each on a 2-CPU Xeon.
const PASSES: usize = 10;

/// Programs left out for their simulated cost (see `run`).
const SLOW: [&str; 2] = ["rijndael", "jpeg"];

/// `None` is the native-profiled baseline.
struct Cell {
    prog: usize,
    engine: Option<EngineKind>,
}

impl Cell {
    fn name(&self) -> &'static str {
        self.engine.map_or("native", EngineKind::name)
    }
}

pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    // The seven whole applications are left out: on a 2-CPU Xeon they take
    // about 70% of a pass over the suite (gnuchess alone about 7 s). Of the
    // rest, rijndael and jpeg took 63% of a pass (4.8 of 7.6 s), so each
    // cell ran only two or three times in a run and its fastest time was
    // noisy. The 41 programs left still run every engine under the model.
    let progs = programs(opts, |b| {
        b.group != suite::Group::Apps && !SLOW.contains(&b.name)
    });
    let compile_all = || -> Result<_, String> {
        let mut bytes = Vec::new();
        for b in &progs {
            bytes.push(
                b.compile(OptLevel::O2)
                    .map_err(|e| format!("{}: {e}", b.name))?,
            );
        }
        Ok((bytes, wasi_rt::imports()))
    };
    let setup = time_setup(&mut out, 1, compile_all);
    let (bytes, imports) = match setup {
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
        cells.push(Cell { prog, engine: None });
        for engine in EngineKind::all() {
            cells.push(Cell {
                prog,
                engine: Some(engine),
            });
        }
    }

    let mut orders = Orders::new(opts.seed);
    let mut rec = Recorder::default();
    let mut reference: Vec<Option<Counters>> = vec![None; cells.len()];
    let mut instructions = Acc::default();
    let mut next_op = 0u64;
    run_passes(opts, PASSES, |kind| {
        if kind == PassKind::Untraced {
            let _ = time_setup(&mut out, 1, compile_all);
        }
        let mut ops = Vec::new();
        for c in orders.permutation(cells.len()) {
            let cell = &cells[c];
            let b = &progs[cell.prog];
            let n = b.sizes.test;
            let what = format!("{} {}", b.name, cell.name());
            next_op += 1;
            out.attempted += 1;
            let traced = kind == PassKind::Traced;
            let (ms, v, counters) = match op(
                traced.then_some(next_op),
                cell,
                &bytes[cell.prog],
                &imports,
                n,
            ) {
                Ok(r) => r,
                Err(e) => {
                    out.fail(format!("{what}: {e}"));
                    continue;
                }
            };
            if traced {
                rec.collect();
            }
            let want = expected[cell.prog];
            if v != Some(Value::I32(want)) {
                out.fail(format!("{what}: run({n}) gave {v:?}, native gives {want}"));
                continue;
            }
            match reference[c] {
                None => {
                    let mut r = counters;
                    if opts.tamper == Some(Tamper::Counter) && c == 0 {
                        r.instructions += 1;
                    }
                    reference[c] = Some(r);
                }
                Some(r) if r != counters => {
                    out.fail(format!(
                        "{what}: counters differ between passes: {r:?} then {counters:?}"
                    ));
                }
                Some(_) => {}
            }
            ops.push((c, ms));
            if kind == PassKind::Untraced {
                instructions.sum += counters.instructions as f64;
                instructions.n += 1;
            }
        }
        if kind == PassKind::Warmup {
            out.peak_rss_mb = crate::peak_rss_mb("self");
        }
        out.record_serial_pass(kind, ops);
    });
    if opts.trace {
        let t = spans::finish(opts, &rec);
        let measured_s = out.measured_s();
        let l = &mut out.layers;
        l.insert(
            "archsim.compile_profiled_ms",
            mean_ms(&t, "archsim.compile_profiled", &[]),
        );
        l.insert(
            "archsim.run_profiled_ms",
            mean_ms(&t, "archsim.run_profiled", &[]),
        );
        l.insert(
            "engines.instantiate_ms",
            mean_ms(&t, "engines.instantiate", &[]),
        );
        if measured_s > 0.0 {
            l.insert("archsim.minstr_per_s", instructions.sum / 1e6 / measured_s);
        }
        // One pass's totals: every cell once, so these repeat exactly.
        let mut total = Counters::default();
        for r in reference.iter().flatten() {
            total.accumulate(r);
        }
        for (key, v) in [
            ("archsim.instructions", total.instructions),
            ("archsim.cycles", total.cycles),
            ("archsim.branches", total.branches),
            ("archsim.branch_misses", total.branch_misses),
            ("archsim.l1i_accesses", total.l1i_accesses),
            ("archsim.l1d_accesses", total.l1d_accesses),
            ("archsim.cache_references", total.cache_references),
        ] {
            l.insert(key, v as f64);
        }
    }
    out
}

type OpResult = Result<(f64, Option<Value>, Counters), String>;

/// One profiled cell; `traced` carries the op id when spans are recorded.
fn op(traced: Option<u64>, cell: &Cell, bytes: &[u8], imports: &Imports, n: i32) -> OpResult {
    let id = traced.unwrap_or(0);
    let engine = cell.name();
    let span = |name: &'static str| traced.map(|_| obs::span!(name, op = id, engine = engine));
    let t = Instant::now();
    let _op = span("op");
    let mut sim = ArchSim::new();
    let module = {
        let _s = span(if cell.engine.is_some() {
            "archsim.compile_profiled"
        } else {
            "engines.compile"
        });
        match cell.engine {
            Some(kind) => Engine::new(kind).compile_profiled(bytes, &mut sim),
            None => Engine::new(EngineKind::Wavm).compile(bytes),
        }
        .map_err(|e| e.to_string())?
    };
    let mut inst = {
        let _s = span("engines.instantiate");
        module
            .instantiate(imports, Box::new(wasi_rt::WasiCtx::new()))
            .map_err(|e| e.to_string())?
    };
    let v = {
        let _s = span("archsim.run_profiled");
        inst.invoke_profiled("run", &[Value::I32(n)], &mut sim)
            .map_err(|e| e.to_string())?
    };
    let counters = sim.counters();
    Ok((t.elapsed().as_secs_f64() * 1e3, v, counters))
}
