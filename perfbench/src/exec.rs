//! `exec`: every suite program at test scale on the five engines at O2,
//! serial, in a new seeded order each pass. Modules are compiled during
//! set-up; one op is `instantiate` + `invoke("run")`, and every result is
//! checked against `Benchmark::native`.

use std::collections::BTreeMap;
use std::time::Instant;

use engines::{CompiledModule, Engine, EngineKind, Imports};
use wacc::OptLevel;
use wasm_core::types::Value;

use crate::spans::{self, mean_ms, Recorder};
use crate::stats::{geomean, Orders};
use crate::{programs, run_passes, time_setup, Opts, Outcome, PassKind, Tamper};

/// Measured passes of a run: about 2.5 s each on a 2-CPU Xeon.
const PASSES: usize = 10;

struct Cell {
    prog: usize,
    engine: EngineKind,
    module: CompiledModule,
}

pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let progs = programs(opts, |_| true);
    let compile_all = || -> Result<_, String> {
        let mut cells = Vec::new();
        for (prog, b) in progs.iter().enumerate() {
            let bytes = b
                .compile(OptLevel::O2)
                .map_err(|e| format!("{}: {e}", b.name))?;
            for engine in EngineKind::all() {
                let module = Engine::new(engine)
                    .compile(&bytes)
                    .map_err(|e| format!("{} {engine}: {e}", b.name))?;
                cells.push(Cell {
                    prog,
                    engine,
                    module,
                });
            }
        }
        Ok((cells, wasi_rt::imports()))
    };
    let setup = time_setup(&mut out, 1, compile_all);
    let (cells, imports) = match setup {
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

    let mut orders = Orders::new(opts.seed);
    let mut rec = Recorder::default();
    let mut next_op = 0u64;
    run_passes(opts, PASSES, |kind| {
        if kind == PassKind::Untraced {
            // Read after the warm-up, the peak memory holds one set of
            // modules; this second set is dropped at once.
            let _ = time_setup(&mut out, 1, compile_all);
        }
        let mut ops = Vec::new();
        for c in orders.permutation(cells.len()) {
            let cell = &cells[c];
            let b = &progs[cell.prog];
            let n = b.sizes.test;
            next_op += 1;
            out.attempted += 1;
            let traced = kind == PassKind::Traced;
            let res = op(traced.then_some(next_op), cell, &imports, n);
            let want = expected[cell.prog];
            match res {
                Ok((ms, Some(Value::I32(v)))) if v == want => {
                    ops.push((c, ms));
                }
                Ok((_, other)) => out.fail(format!(
                    "{} {}: run({n}) gave {other:?}, native gives {want}",
                    b.name, cell.engine
                )),
                Err(e) => out.fail(format!("{} {}: {e}", b.name, cell.engine)),
            }
            if traced {
                {
                    let engine = cell.engine.name();
                    let _aux = obs::span!("aux", op = next_op, engine = engine);
                    let _s = obs::span!("native.run", op = next_op, engine = engine);
                    std::hint::black_box((b.native)(std::hint::black_box(n)));
                }
                rec.collect();
            }
        }
        if kind == PassKind::Warmup {
            out.peak_rss_mb = crate::peak_rss_mb("self");
        }
        out.record_serial_pass(kind, ops);
    });
    if opts.trace {
        let t = spans::finish(opts, &rec);
        // The paper's slowdown: each op's run over the native run of the
        // same program in the same op, as a geometric mean per engine.
        let native = rec.per_op("native.run");
        let mut ratios: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for (op, (engine, ms)) in rec.per_op("engines.run") {
            if let Some(&(_, base)) = native.get(&op).filter(|(_, base)| *base > 0.0) {
                ratios.entry(engine).or_default().push(ms / base);
            }
        }
        out.layers.insert(
            "engines.instantiate_ms",
            mean_ms(&t, "engines.instantiate", &[]),
        );
        out.layers
            .insert("native.run_ms", mean_ms(&t, "native.run", &[]));
        for (run_key, ratio_key, engine) in [
            (
                "engines.run_ms.Wasmtime",
                "exec.vs_native.Wasmtime",
                "Wasmtime",
            ),
            ("engines.run_ms.WAVM", "exec.vs_native.WAVM", "WAVM"),
            ("engines.run_ms.Wasmer", "exec.vs_native.Wasmer", "Wasmer"),
            ("engines.run_ms.Wasm3", "exec.vs_native.Wasm3", "Wasm3"),
            ("engines.run_ms.WAMR", "exec.vs_native.WAMR", "WAMR"),
        ] {
            out.layers
                .insert(run_key, mean_ms(&t, "engines.run", &[engine]));
            let r = ratios.get(engine).map_or(0.0, |r| geomean(r));
            out.layers.insert(ratio_key, r);
        }
    }
    out
}

type OpResult = Result<(f64, Option<Value>), String>;

/// One run; `traced` carries the op id when spans are recorded.
fn op(traced: Option<u64>, cell: &Cell, imports: &Imports, n: i32) -> OpResult {
    let id = traced.unwrap_or(0);
    let engine = cell.engine.name();
    let span = |name: &'static str| traced.map(|_| obs::span!(name, op = id, engine = engine));
    let t = Instant::now();
    let _op = span("op");
    let mut inst = {
        let _s = span("engines.instantiate");
        cell.module
            .instantiate(imports, Box::new(wasi_rt::WasiCtx::new()))
            .map_err(|e| e.to_string())?
    };
    let v = {
        let _s = span("engines.run");
        inst.invoke("run", &[Value::I32(n)])
            .map_err(|e| e.to_string())?
    };
    Ok((t.elapsed().as_secs_f64() * 1e3, v))
}
