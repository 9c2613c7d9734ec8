//! `compile`: every suite program × O0–O3 × the five engines, serial, in a
//! new seeded order each pass. One op is WaCC source → wasm bytes →
//! `Engine::compile`; nothing runs inside it.
//!
//! Every op's bytes (hash), code size and JIT statistics must repeat those
//! of the warm-up. After the timed passes each cell is compiled once more,
//! must repeat them again, and its module must run at test scale to the
//! `Benchmark::native` checksum.

use std::collections::HashMap;
use std::time::Instant;

use engines::{CompiledModule, Engine, EngineKind};
use svc::hash::fnv64;
use wacc::OptLevel;
use wasm_core::types::Value;

use crate::spans::{self, mean_ms, Recorder};
use crate::stats::{Acc, Orders};
use crate::{programs, run_passes, time_setup, Opts, Outcome, PassKind, Tamper};

pub const JIT: [&str; 3] = ["Wasmtime", "WAVM", "Wasmer"];

/// Measured passes of a run: about 2 s each on a 2-CPU Xeon.
const PASSES: usize = 12;

/// The set-up only assembles the sources, 10–30 µs, so it is timed over 200
/// back-to-back runs.
const SETUP_BATCH: usize = 200;

struct Cell {
    prog: usize,
    level: OptLevel,
    engine: EngineKind,
}

/// Per-layer values gathered in traced passes.
#[derive(Default)]
struct Layers {
    wasm_bytes: Acc,
    code_bytes: Acc,
    lowered_ops: Acc,
    final_ops: Acc,
    op_visits: Acc,
    checks_eliminated: Acc,
    aot_bytes: Acc,
}

pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let progs = programs(opts, |_| true);
    let assemble = || {
        progs
            .iter()
            .map(|b| b.full_source())
            .collect::<Vec<String>>()
    };
    let sources = time_setup(&mut out, SETUP_BATCH, assemble);
    // The native reference checksums are the benchmark's, not the
    // program's, so they are computed outside the timed set-up.
    let mut expected: Vec<i32> = progs.iter().map(|b| (b.native)(b.sizes.test)).collect();
    if opts.tamper == Some(Tamper::Checksum) {
        expected[0] ^= 1;
    }
    let mut cells = Vec::new();
    for prog in 0..progs.len() {
        for level in OptLevel::all() {
            for engine in EngineKind::all() {
                cells.push(Cell {
                    prog,
                    level,
                    engine,
                });
            }
        }
    }

    let mut orders = Orders::new(opts.seed);
    let mut bytes_ref: HashMap<(usize, OptLevel), u64> = HashMap::new();
    let mut code_ref: Vec<Option<CodeShape>> = vec![None; cells.len()];
    let mut rec = Recorder::default();
    let mut layers = Layers::default();
    let mut next_op = 0u64;
    run_passes(opts, PASSES, |kind| {
        if kind == PassKind::Untraced {
            time_setup(&mut out, SETUP_BATCH, assemble);
        }
        let mut ops = Vec::new();
        for c in orders.permutation(cells.len()) {
            let cell = &cells[c];
            let b = &progs[cell.prog];
            let src = &sources[cell.prog];
            next_op += 1;
            out.attempted += 1;
            let res = if kind == PassKind::Traced {
                traced_op(next_op, src, cell)
            } else {
                op(src, cell)
            };
            let what = format!("{} {} {}", b.name, cell.level, cell.engine);
            let (ms, bytes, module) = match res {
                Ok(v) => v,
                Err(e) => {
                    out.fail(format!("{what}: {e}"));
                    continue;
                }
            };
            ops.push((c, ms));

            let hash = *bytes_ref
                .entry((cell.prog, cell.level))
                .or_insert(fnv64(&bytes));
            if hash != fnv64(&bytes) {
                out.fail(format!("{what}: wasm bytes differ from an earlier compile"));
            }
            let got = CodeShape::of(&module);
            match code_ref[c] {
                None => {
                    let mut r = got;
                    if opts.tamper == Some(Tamper::Counter) && c == 0 {
                        r.code_bytes += 1;
                    }
                    code_ref[c] = Some(r);
                }
                Some(want) if want != got => out.fail(format!(
                    "{what}: code {got:?} differs from the warm-up's {want:?}"
                )),
                Some(_) => {}
            }
            if kind == PassKind::Traced {
                if let Err(e) = traced_aux(next_op, cell, &bytes, &module, &mut layers) {
                    out.fail(format!("{what}: {e}"));
                }
                rec.collect();
            }
        }
        if kind == PassKind::Warmup {
            out.peak_rss_mb = crate::peak_rss_mb("self");
        }
        out.record_serial_pass(kind, ops);
    });
    // Every op of the passes above had to repeat the warm-up's bytes, code
    // size and JIT statistics. The one-time checks run after the timed
    // passes, so that those get the whole budget: a fresh compile of every
    // cell must repeat them too, and its module runs once at test scale.
    for (c, cell) in cells.iter().enumerate() {
        let b = progs[cell.prog];
        out.attempted += 1;
        let checked = op(&sources[cell.prog], cell).and_then(|(_, bytes, module)| {
            if Some(&fnv64(&bytes)) != bytes_ref.get(&(cell.prog, cell.level))
                || Some(CodeShape::of(&module)) != code_ref[c]
            {
                return Err("a fresh compile differs from the timed passes".into());
            }
            run_check(&module, b.sizes.test, expected[cell.prog])
        });
        if let Err(e) = checked {
            out.fail(format!("{} {} {}: {e}", b.name, cell.level, cell.engine));
        }
    }
    if opts.trace {
        let t = spans::finish(opts, &rec);
        // Engine::compile decodes and validates first; what is left is the
        // engine's own translation or JIT.
        let engine_ms = |name: &str| {
            (mean_ms(&t, "engines.compile", &[name])
                - mean_ms(&t, "wasm_core.decode", &[name])
                - mean_ms(&t, "wasm_core.validate", &[name]))
            .max(0.0)
        };
        let l = &mut out.layers;
        for (key, span) in [
            ("wacc.parse_ms", "wacc.parse"),
            ("wacc.check_ms", "wacc.check"),
            ("wacc.opt_ms", "wacc.opt"),
            ("wacc.codegen_ms", "wacc.codegen"),
            ("wacc.encode_ms", "wacc.encode"),
            ("wasm_core.decode_ms", "wasm_core.decode"),
            ("wasm_core.validate_ms", "wasm_core.validate"),
            ("engines.aot_load_ms", "engines.load_artifact"),
        ] {
            l.insert(key, mean_ms(&t, span, &[]));
        }
        l.insert("engines.translate_ms.WAMR", engine_ms("WAMR"));
        l.insert("engines.translate_ms.Wasm3", engine_ms("Wasm3"));
        l.insert("engines.jit_ms.Wasmtime", engine_ms("Wasmtime"));
        l.insert("engines.jit_ms.WAVM", engine_ms("WAVM"));
        l.insert("engines.jit_ms.Wasmer", engine_ms("Wasmer"));
        l.insert(
            "engines.aot_serialize_ms",
            (mean_ms(&t, "engines.precompile", &JIT) - mean_ms(&t, "engines.compile", &JIT))
                .max(0.0),
        );
        l.insert("wacc.wasm_bytes", layers.wasm_bytes.mean());
        l.insert("engines.code_bytes", layers.code_bytes.mean());
        l.insert("engines.jit.lowered_ops", layers.lowered_ops.mean());
        l.insert("engines.jit.final_ops", layers.final_ops.mean());
        l.insert("engines.jit.op_visits", layers.op_visits.mean());
        l.insert(
            "engines.jit.checks_eliminated",
            layers.checks_eliminated.mean(),
        );
        l.insert("engines.aot_bytes", layers.aot_bytes.mean());
    }
    out
}

type OpResult = Result<(f64, Vec<u8>, CompiledModule), String>;

/// The untraced op: `wacc::compile_to_bytes` then `Engine::compile`.
fn op(src: &str, cell: &Cell) -> OpResult {
    let t = Instant::now();
    let bytes = wacc::compile_to_bytes(src, cell.level).map_err(|e| e.to_string())?;
    let module = Engine::new(cell.engine)
        .compile(&bytes)
        .map_err(|e| e.to_string())?;
    let ms = t.elapsed().as_secs_f64() * 1e3;
    Ok((ms, bytes, std::hint::black_box(module)))
}

/// The same op, split into the public calls `wacc::compile_to_bytes` makes,
/// each under its own span.
fn traced_op(id: u64, src: &str, cell: &Cell) -> OpResult {
    let engine = cell.engine.name();
    let t = Instant::now();
    let (bytes, module) = {
        let _op = obs::span!("op", op = id, engine = engine);
        let mut program = {
            let _s = obs::span!("wacc.parse", op = id, engine = engine);
            let full = format!("{src}\n{}", wacc::prelude::PRELUDE);
            wacc::parser::parse(&full).map_err(|e| e.to_string())?
        };
        let sigs = {
            let _s = obs::span!("wacc.check", op = id, engine = engine);
            wacc::check::check(&mut program).map_err(|e| e.to_string())?
        };
        {
            let _s = obs::span!("wacc.opt", op = id, engine = engine);
            wacc::opt::optimize(&mut program, &sigs, cell.level);
        }
        let wasm = {
            let _s = obs::span!("wacc.codegen", op = id, engine = engine);
            wacc::codegen::generate_with(&program, &sigs, cell.level == OptLevel::O0)
                .map_err(|e| e.to_string())?
        };
        let bytes = {
            let _s = obs::span!("wacc.encode", op = id, engine = engine);
            wasm_core::encode::encode(&wasm)
        };
        let module = {
            let _s = obs::span!("engines.compile", op = id, engine = engine);
            Engine::new(cell.engine)
                .compile(&bytes)
                .map_err(|e| e.to_string())?
        };
        (bytes, module)
    };
    let ms = t.elapsed().as_secs_f64() * 1e3;
    Ok((ms, bytes, std::hint::black_box(module)))
}

/// Calls made beside a traced op, outside its timed region: decode and
/// validate on their own, and for the JIT engines the AOT round trip.
fn traced_aux(
    id: u64,
    cell: &Cell,
    bytes: &[u8],
    module: &CompiledModule,
    layers: &mut Layers,
) -> Result<(), String> {
    let engine = cell.engine.name();
    let _aux = obs::span!("aux", op = id, engine = engine);
    let decoded = {
        let _s = obs::span!("wasm_core.decode", op = id, engine = engine);
        wasm_core::decode::decode(bytes).map_err(|e| e.to_string())?
    };
    {
        let _s = obs::span!("wasm_core.validate", op = id, engine = engine);
        wasm_core::validate::validate(&decoded).map_err(|e| e.to_string())?;
    }
    layers.wasm_bytes.add(bytes.len() as f64);
    layers.code_bytes.add(module.code_bytes() as f64);
    if cell.engine.tier().is_some() {
        let stats = module.compile_stats();
        layers.lowered_ops.add(stats.lowered_ops as f64);
        layers.final_ops.add(stats.final_ops as f64);
        layers.op_visits.add(stats.passes.op_visits as f64);
        layers
            .checks_eliminated
            .add(stats.passes.checks_eliminated as f64);
        let e = Engine::new(cell.engine);
        let artifact = {
            let _s = obs::span!("engines.precompile", op = id, engine = engine);
            e.precompile(bytes).map_err(|e| e.to_string())?
        };
        let loaded = {
            let _s = obs::span!("engines.load_artifact", op = id, engine = engine);
            e.load_artifact(&artifact).map_err(|e| e.to_string())?
        };
        layers.aot_bytes.add(artifact.len() as f64);
        if loaded.code_bytes() != module.code_bytes() {
            return Err(format!(
                "AOT artifact loads {} code bytes, compile gave {}",
                loaded.code_bytes(),
                module.code_bytes()
            ));
        }
    }
    Ok(())
}

/// What every compile of a cell must repeat: code size and JIT statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CodeShape {
    code_bytes: usize,
    lowered_ops: usize,
    final_ops: usize,
    op_visits: u64,
}

impl CodeShape {
    fn of(module: &CompiledModule) -> CodeShape {
        let stats = module.compile_stats();
        CodeShape {
            code_bytes: module.code_bytes(),
            lowered_ops: stats.lowered_ops,
            final_ops: stats.final_ops,
            op_visits: stats.passes.op_visits,
        }
    }
}

/// Runs a compiled cell once, outside any timing, against the native
/// checksum.
fn run_check(module: &CompiledModule, n: i32, expected: i32) -> Result<(), String> {
    let mut inst = module
        .instantiate(&wasi_rt::imports(), Box::new(wasi_rt::WasiCtx::new()))
        .map_err(|e| e.to_string())?;
    match inst.invoke("run", &[Value::I32(n)]) {
        Ok(Some(Value::I32(v))) if v == expected => Ok(()),
        Ok(other) => Err(format!("run({n}) gave {other:?}, native gives {expected}")),
        Err(e) => Err(format!("run({n}) trapped: {e}")),
    }
}
