//! The traced run: `obs` spans opened by the benchmark around each call it
//! makes into a layer, kept in memory and written out at the end.
//!
//! Turning the `obs` ring sink on also records the spans the program opens
//! inside those calls. Only the benchmark's own spans are kept: a name in
//! [`OWN`] with an `op=` attribute (the program opens some spans of the same
//! names without one). The cost of recording the others is part of the
//! measured tracing overhead.

use std::collections::BTreeMap;
use std::path::Path;

use obs::trace::{Sink, ThreadTrace, Trace};
use obs::SpanEvent;

use crate::stats::Acc;

/// Every span name the benchmark opens. Each op is one `op` span; calls
/// the benchmark makes beside an op, outside its timed region, sit under
/// an `aux` span. All spans of one op carry the same `op=<id>` attribute.
pub const OWN: &[&str] = &[
    "op",
    "aux",
    "wacc.parse",
    "wacc.check",
    "wacc.opt",
    "wacc.codegen",
    "wacc.encode",
    "wasm_core.decode",
    "wasm_core.validate",
    "engines.compile",
    "engines.precompile",
    "engines.load_artifact",
    "engines.instantiate",
    "engines.run",
    "native.run",
    "archsim.compile_profiled",
    "archsim.run_profiled",
    "svc.submit",
    "svc.wait",
];

/// Switches span recording on or off for the whole process.
pub fn set_tracing(on: bool) {
    obs::trace::install(if on { Sink::Ring } else { Sink::Null });
}

/// The benchmark's spans, by thread.
#[derive(Debug, Default)]
pub struct Recorder {
    threads: BTreeMap<u64, ThreadTrace>,
}

impl Recorder {
    /// Moves every buffered span out of the `obs` rings, keeping the
    /// benchmark's own. Call often enough that no ring fills.
    pub fn collect(&mut self) {
        for t in obs::trace::drain().threads {
            assert_eq!(t.dropped, 0, "span ring overflowed on thread {}", t.name);
            let own: Vec<SpanEvent> = t
                .events
                .into_iter()
                .filter(|e| OWN.contains(&e.name) && !attr(e, "op").is_empty())
                .collect();
            if own.is_empty() {
                continue;
            }
            let entry = self.threads.entry(t.tid).or_insert_with(|| ThreadTrace {
                tid: t.tid,
                name: t.name.clone(),
                ..ThreadTrace::default()
            });
            entry.events.extend(own);
        }
    }

    /// Self time (duration minus the time covered by direct children) of
    /// every span, summed per `(name, engine attribute)`, in milliseconds.
    pub fn self_times(&self) -> BTreeMap<(&'static str, String), Acc> {
        let mut out: BTreeMap<(&'static str, String), Acc> = BTreeMap::new();
        for t in self.threads.values() {
            let mut spans: Vec<&SpanEvent> = t.events.iter().collect();
            spans.sort_by_key(|e| (e.start_ns, e.depth));
            let mut child_ns = vec![0u64; spans.len()];
            let mut open: Vec<usize> = Vec::new();
            for (i, e) in spans.iter().enumerate() {
                while open
                    .last()
                    .is_some_and(|&p| spans[p].end_ns() <= e.start_ns)
                {
                    open.pop();
                }
                if let Some(&p) = open.last() {
                    child_ns[p] += e.dur_ns;
                }
                open.push(i);
            }
            for (e, child) in spans.iter().zip(child_ns) {
                let self_ns = e.dur_ns.saturating_sub(child);
                out.entry((e.name, attr(e, "engine").to_string()))
                    .or_default()
                    .add(self_ns as f64 / 1e6);
            }
        }
        out
    }

    /// The duration in ms of every span named `name`, by its `op` id,
    /// with its engine.
    pub fn per_op(&self, name: &str) -> BTreeMap<u64, (&str, f64)> {
        let mut out = BTreeMap::new();
        for e in self.threads.values().flat_map(|t| &t.events) {
            if let (true, Ok(op)) = (e.name == name, attr(e, "op").parse()) {
                out.insert(op, (attr(e, "engine"), e.dur_ns as f64 / 1e6));
            }
        }
        out
    }

    pub fn span_count(&self) -> usize {
        self.threads.values().map(|t| t.events.len()).sum()
    }

    /// Writes the spans as a Chrome trace-event file.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let trace = Trace {
            threads: self.threads.values().cloned().collect(),
        };
        obs::chrome::export_file(&trace, path)
    }
}

/// Ends a traced run: writes the spans to `trace-<workload>-<seed>.json`
/// in the output directory, prints the self-time table to stderr and
/// returns the self times.
pub fn finish(opts: &crate::Opts, rec: &Recorder) -> BTreeMap<(&'static str, String), Acc> {
    let path = opts
        .out_dir
        .join(format!("trace-{}-{}.json", opts.workload, opts.seed));
    if let Err(e) = rec.write(&path) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
    let times = rec.self_times();
    eprintln!(
        "{:<28} {:<10} {:>8} {:>12}",
        "span", "engine", "calls", "self ms/call"
    );
    for ((name, engine), a) in &times {
        eprintln!("{name:<28} {engine:<10} {:>8} {:>12.4}", a.n, a.mean());
    }
    eprintln!("{} spans written to {}", rec.span_count(), path.display());
    times
}

/// The value of `key=` in a span's attribute string, or `""`.
fn attr<'a>(e: &'a SpanEvent, key: &str) -> &'a str {
    e.attr
        .as_deref()
        .unwrap_or("")
        .split(' ')
        .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
        .unwrap_or("")
}

/// Mean self time per span of `name`, over the engines `engines` selects
/// (all engines when it is empty).
pub fn mean_ms(times: &BTreeMap<(&'static str, String), Acc>, name: &str, engines: &[&str]) -> f64 {
    let mut acc = Acc::default();
    for ((n, engine), a) in times {
        if *n == name && (engines.is_empty() || engines.contains(&engine.as_str())) {
            acc.sum += a.sum;
            acc.n += a.n;
        }
    }
    acc.mean()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &'static str, start: u64, dur: u64, depth: u16) -> SpanEvent {
        SpanEvent {
            name,
            attr: Some("op=1 engine=WAVM".into()),
            start_ns: start,
            dur_ns: dur,
            depth,
            counters: None,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut r = Recorder::default();
        r.threads.insert(
            1,
            ThreadTrace {
                tid: 1,
                name: "main".into(),
                dropped: 0,
                events: vec![
                    ev("wacc.parse", 10, 20, 1),
                    ev("engines.compile", 40, 50, 1),
                    ev("op", 0, 100, 0),
                ],
            },
        );
        let t = r.self_times();
        assert_eq!(t[&("op", "WAVM".to_string())].sum, 30.0 / 1e6);
        assert_eq!(t[&("engines.compile", "WAVM".to_string())].sum, 50.0 / 1e6);
        assert_eq!(mean_ms(&t, "wacc.parse", &["WAVM"]), 20.0 / 1e6);
        assert_eq!(mean_ms(&t, "wacc.parse", &["WAMR"]), 0.0);
        assert_eq!(r.per_op("engines.compile")[&1], ("WAVM", 50.0 / 1e6));
        assert!(r.per_op("native.run").is_empty());
    }
}
