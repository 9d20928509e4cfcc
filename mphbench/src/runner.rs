//! One run of one workload: set-up, a closed loop of operations for the
//! requested time with every output checked, and the metrics. An
//! untraced run reports the end-to-end metrics; a traced run times the
//! benchmark's own calls into each layer as spans and reports the
//! per-layer metrics.

use crate::host;
use crate::metrics::{Values, SPAN_NAMES};
use crate::spans::Spans;
use crate::stats::{mean, median, percentile, tail};
use crate::workloads::{Bench, Check, Lowered, OpOut, OpVirtual, Priced, Scale, Workload};
use mph_runtime::{calibrate_channel_machine, run_spmd, RingSink, SinkHandle, TraceEvent};
use mph_trace::{chrome_trace_json, validate_chrome_trace, UtilizationMatrix};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Events each node's ring keeps; a run that overflows it fails.
const RING_CAP: usize = 1 << 18;

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Where a traced run writes its span file.
    pub span_dir: Option<PathBuf>,
}

#[derive(Debug, Default)]
pub struct RunOutcome {
    /// The reported metrics: end-to-end untraced, per-layer traced.
    pub values: Values,
    /// Virtual-clock metrics and counts, in both modes.
    pub virtuals: Values,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    pub ops: usize,
    /// Percentile `op_wall_tail_ms` sits at and the samples beyond it.
    pub tail_percentile: f64,
    pub tail_beyond: usize,
    pub options: String,
    pub span_file: Option<PathBuf>,
}

impl RunOutcome {
    fn absorb(&mut self, c: Check) {
        self.attempted += c.attempted;
        self.failed += c.failed;
        self.notes.extend(c.notes);
    }

    fn fail(&mut self, attempted: u64, note: String) {
        self.attempted += attempted;
        self.failed += attempted;
        self.notes.push(note);
    }
}

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Runs one operation, turning a panic into `None`.
fn attempt(bench: &Bench, k: usize, sink: SinkHandle) -> (Option<OpOut>, f64) {
    let t0 = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(|| bench.solve(k, sink))).ok();
    (out, ms_since(t0))
}

/// Records input `k`'s virtual figures, or checks them against the ones
/// recorded before: the virtual clock must repeat exactly.
fn record_virtual(slot: &mut Option<OpVirtual>, v: OpVirtual, k: usize, c: &mut Check, what: &str) {
    match slot {
        Some(prev) if *prev != v => {
            c.failed = c.attempted;
            c.notes.push(format!(
                "input {k}: {what} virtual-clock figures differ from an earlier run"
            ));
        }
        Some(_) => {}
        None => *slot = Some(v),
    }
}

/// Set-up: input generation plus the first (warm-up) operation.
fn set_up(cfg: &RunConfig, reps: usize) -> (Bench, Vec<f64>) {
    let mut setup_s = Vec::new();
    let mut bench = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let b = Bench::generate(cfg.workload, cfg.seed, cfg.scale);
        black_box(attempt(&b, 0, SinkHandle::nop()));
        setup_s.push(t0.elapsed().as_secs_f64());
        bench = Some(b);
    }
    (bench.expect("at least one set-up"), setup_s)
}

pub fn run(cfg: &RunConfig) -> RunOutcome {
    if cfg.trace {
        run_traced(cfg)
    } else {
        run_untraced(cfg)
    }
}

/// The virtual-clock metrics and counts of a run, from each input's
/// operation. A solo input is one job arriving at 0, so its latency is
/// its makespan.
fn virtual_values(per_input: &[OpVirtual], max_rate: Option<f64>) -> Values {
    let pool = |f: fn(&OpVirtual) -> &Vec<f64>| -> Vec<f64> {
        per_input.iter().flat_map(|v| f(v).iter().copied()).collect()
    };
    let per_op = |f: fn(&OpVirtual) -> f64| mean(&per_input.iter().map(f).collect::<Vec<_>>());
    let latencies = pool(|v| &v.latencies);
    let waits = pool(|v| &v.queue_waits);
    let mut out = Values::new();
    out.insert("vtime_makespan", per_op(|v| v.makespan));
    out.insert("job_latency_p50_vtime", percentile(&latencies, 50.0));
    out.insert("job_latency_tail_vtime", percentile(&latencies, 90.0));
    if let Some(rate) = max_rate {
        out.insert("max_rate_jobs_per_vtime", rate);
    }
    out.insert("eigen.sweeps", per_op(|v| v.job_sweeps.iter().sum::<usize>() as f64));
    out.insert("kernel.rotations", per_op(|v| v.job_rotations.iter().sum::<u64>() as f64));
    out.insert("runtime.messages", per_op(|v| v.messages as f64));
    out.insert("runtime.elems", per_op(|v| v.elems as f64));
    out.insert("runtime.control_messages", per_op(|v| v.control_messages as f64));
    out.insert("adapt.recalibrations", per_op(|v| v.recalibrations as f64));
    out.insert("adapt.reroutes", per_op(|v| v.reroutes as f64));
    out.insert("adapt.rerouted_elems", per_op(|v| v.rerouted_elems as f64));
    out.insert("serve.queue_wait_p50_vtime", percentile(&waits, 50.0));
    out.insert("serve.queue_wait_tail_vtime", percentile(&waits, 90.0));
    out.insert(
        "serve.peak_queue_depth",
        per_input.iter().map(|v| v.peak_queue).max().unwrap_or(0) as f64,
    );
    out.insert("serve.shed", per_input.iter().map(|v| v.shed).sum::<usize>() as f64);
    out
}

fn run_untraced(cfg: &RunConfig) -> RunOutcome {
    let (mut bench, setup_s) = set_up(cfg, SETUP_REPS);
    bench.prepare(false);
    let mut out = RunOutcome { options: bench.options().to_string(), ..Default::default() };
    let inputs = bench.inputs.len();
    let jobs = bench.jobs_per_op() as u64;
    let mut per_input: Vec<Option<OpVirtual>> = vec![None; inputs];
    let mut walls = Vec::new();
    let (mut served, mut served_wall_ms) = (0usize, 0.0);
    let start = Instant::now();
    let mut i = 0;
    while i < inputs || start.elapsed().as_secs_f64() < cfg.seconds {
        let k = i % inputs;
        i += 1;
        let (op, wall_ms) = attempt(&bench, k, SinkHandle::nop());
        let Some(op) = op else {
            out.fail(jobs, format!("input {k}: the operation panicked"));
            continue;
        };
        walls.push(wall_ms);
        let v = bench.virtuals(&op);
        served += v.latencies.len();
        served_wall_ms += wall_ms;
        let mut c = bench.check(k, &op, false);
        record_virtual(&mut per_input[k], v, k, &mut c, "untraced");
        out.absorb(c);
    }
    out.ops = i;
    let Some(per_input) = per_input.into_iter().collect::<Option<Vec<_>>>() else {
        out.notes.push("an input never completed an operation".to_string());
        return out;
    };
    let max_rate = bench.max_rate(&per_input, &SinkHandle::nop);
    out.virtuals = virtual_values(&per_input, max_rate);
    let (tail_ms, tail_percentile, tail_beyond) = tail(&walls);
    (out.tail_percentile, out.tail_beyond) = (tail_percentile, tail_beyond);
    let v = &mut out.values;
    v.insert("op_wall_p50_ms", median(&walls));
    v.insert("op_wall_tail_ms", tail_ms);
    v.insert("ops_per_s", served as f64 / (served_wall_ms / 1e3));
    for name in [
        "vtime_makespan",
        "job_latency_p50_vtime",
        "job_latency_tail_vtime",
        "max_rate_jobs_per_vtime",
    ] {
        if let Some(&value) = out.virtuals.get(name) {
            v.insert(name, value);
        }
    }
    v.insert("setup_s", median(&setup_s));
    if let Some(rss) = host::peak_rss_mb() {
        v.insert("peak_rss_mb", rss);
    }
    out
}

/// What the traced run keeps per input: the layer figures that are a
/// function of the input alone.
#[derive(Default, Clone)]
struct InputLayers {
    predicted: f64,
    service_over_predicted: f64,
    plan_messages_per_sweep: f64,
    flops: f64,
    port_wait: f64,
    wire: f64,
    link_busy_max_frac: f64,
    packets: f64,
}

/// Link figures read off a drained ring: total port wait, total wire
/// time, the busiest link's share of the makespan, and framed packets.
fn link_figures(lanes: &[Vec<TraceEvent>]) -> (f64, f64, f64, f64) {
    let util = UtilizationMatrix::from_lanes(lanes);
    let (mut wait, mut wire) = (0.0, 0.0);
    let mut per_link: BTreeMap<(usize, usize), f64> = BTreeMap::new();
    for ((node, dim, _epoch), load) in util.cells() {
        wait += load.port_wait;
        wire += load.busy;
        *per_link.entry((node, dim)).or_default() += load.busy;
    }
    let busiest = per_link.values().copied().fold(0.0, f64::max);
    let frac = if util.makespan() > 0.0 { busiest / util.makespan() } else { 0.0 };
    let packets = lanes
        .iter()
        .flatten()
        .filter(|e| matches!(e, TraceEvent::Send { kq: Some(_), .. }))
        .count();
    (wait, wire, frac, packets as f64)
}

fn run_traced(cfg: &RunConfig) -> RunOutcome {
    let (mut bench, _) = set_up(cfg, 1);
    bench.prepare(true);
    let mut out = RunOutcome { options: bench.options().to_string(), ..Default::default() };
    let d = bench.d;
    let inputs = bench.inputs.len();
    let jobs = bench.jobs_per_op() as u64;
    let nodes_per_core = (1usize << d).min(host::nproc()) as f64;

    // Transport baselines at the operation's cube dimension.
    let spawn_ms = median(
        &(0..7)
            .map(|_| {
                let t0 = Instant::now();
                run_spmd::<(), (), _>(d, |_| ());
                ms_since(t0)
            })
            .collect::<Vec<_>>(),
    );
    let channel = calibrate_channel_machine(d);

    let mut spans = Spans::default();
    let mut untraced: Vec<Option<OpVirtual>> = vec![None; inputs];
    let mut traced: Vec<Option<OpVirtual>> = vec![None; inputs];
    let mut layers: Vec<InputLayers> = vec![InputLayers::default(); inputs];
    let (mut nop_walls, mut ring_walls, mut events) = (Vec::new(), Vec::new(), Vec::new());
    let (mut kernel_sweep_ms, mut kernel_op_ms, mut gflops) = (Vec::new(), Vec::new(), Vec::new());
    let (mut residual, mut orth) = (0.0f64, 0.0f64);
    let start = Instant::now();
    let mut i = 0;
    while i < inputs || start.elapsed().as_secs_f64() < cfg.seconds {
        let (op, k) = (i, i % inputs);
        i += 1;
        spans.time("op", op, |s| {
            let lowered: Lowered = s.time("lower", op, |_| bench.lower(k));
            let priced: Priced = s.time("price", op, |_| bench.price(k, &lowered));
            if bench.workload == Workload::ServeMix {
                s.time("admission", op, |_| bench.admission(k, &lowered, &priced));
            }
            let ring = Arc::new(RingSink::new(d, RING_CAP));
            let solve_nop = |s: &mut Spans| {
                s.time("solve_untraced", op, |_| attempt(&bench, k, SinkHandle::nop()))
            };
            let solve_ring = |s: &mut Spans| {
                s.time("solve", op, |_| attempt(&bench, k, SinkHandle::new(ring.clone())))
            };
            // Alternate which solve goes first so drift does not bias
            // the overhead ratio.
            let (nop, with_ring) = if op % 2 == 0 {
                let nop = solve_nop(s);
                (nop, solve_ring(s))
            } else {
                let with_ring = solve_ring(s);
                (solve_nop(s), with_ring)
            };
            let ((Some(nop), nop_ms), (Some(with_ring), ring_ms)) = (nop, with_ring) else {
                out.fail(jobs, format!("input {k}: the operation panicked"));
                return;
            };
            nop_walls.push(nop_ms);
            ring_walls.push(ring_ms);
            let replay = s.time("kernel_replay", op, |_| bench.kernel_replay(k));
            let (mut c, v_nop, v_ring) = s.time("verify", op, |_| {
                let mut c = bench.check(k, &with_ring, true);
                let (v_nop, v_ring) = (bench.virtuals(&nop), bench.virtuals(&with_ring));
                if v_nop != v_ring {
                    c.failed = c.attempted;
                    c.notes.push(format!(
                        "input {k}: the traced run's virtual clock differs from the untraced run's"
                    ));
                }
                let c_nop = bench.check(k, &nop, false);
                c.failed = c.failed.max(c_nop.failed);
                c.notes.extend(c_nop.notes);
                record_virtual(&mut untraced[k], v_nop.clone(), k, &mut c, "untraced");
                record_virtual(&mut traced[k], v_ring.clone(), k, &mut c, "traced");
                (c, v_nop, v_ring)
            });
            let (recorded, held) = (ring.total_recorded(), ring.len() as u64);
            let (lanes, export) = s.time("export", op, |_| {
                let lanes = ring.drain();
                let export = validate_chrome_trace(&chrome_trace_json(&lanes));
                (lanes, export)
            });
            if let Err(e) = export {
                c.failed = c.attempted;
                c.notes.push(format!("input {k}: malformed trace export: {e}"));
            }
            if recorded != held {
                c.failed = c.attempted;
                c.notes.push(format!("input {k}: the trace ring overflowed ({recorded} > {held})"));
            }
            residual = residual.max(c.residual);
            orth = orth.max(c.orth);
            out.absorb(c);
            events.push(recorded as f64);
            let replay_total: f64 = replay.ms.iter().sum();
            kernel_sweep_ms.push(replay_total);
            gflops.push(replay.flops / replay_total / 1e6);
            kernel_op_ms.push(
                v_nop.job_sweeps.iter().zip(&replay.ms).map(|(&n, ms)| n as f64 * ms).sum::<f64>(),
            );
            let (port_wait, wire, link_busy_max_frac, packets) = link_figures(&lanes);
            let predicted = bench.predicted(&lowered, &priced, &v_ring);
            layers[k] = InputLayers {
                predicted,
                service_over_predicted: v_ring.service.iter().sum::<f64>() / predicted,
                plan_messages_per_sweep: bench.plan_messages_per_sweep(&lowered, &priced, &v_ring),
                flops: bench.op_flops(k, &v_ring),
                port_wait,
                wire,
                link_busy_max_frac,
                packets,
            };
        });
    }
    out.ops = i;
    // Every operation's untraced figures were checked against its traced
    // ones above, so the traced figures stand for both.
    let (Some(_), Some(traced)) = (
        untraced.into_iter().collect::<Option<Vec<_>>>(),
        traced.into_iter().collect::<Option<Vec<_>>>(),
    ) else {
        out.notes.push("an input never completed an operation".to_string());
        return out;
    };
    let ladder_sink = || SinkHandle::new(Arc::new(RingSink::new(d, RING_CAP)));
    out.virtuals = virtual_values(&traced, bench.max_rate(&traced, &ladder_sink));

    let op_wall = median(&nop_walls);
    let kernel_ms = median(&kernel_op_ms);
    let per_input = |f: fn(&InputLayers) -> f64| mean(&layers.iter().map(f).collect::<Vec<_>>());
    let messages = out.virtuals["runtime.messages"];
    let logical_ms = median(&bench.logical_ms);
    let mut v = Values::new();
    v.insert("kernel.sweep_ms", median(&kernel_sweep_ms));
    v.insert("kernel.flops", per_input(|l| l.flops));
    v.insert("kernel.gflops_per_s", median(&gflops));
    v.insert("kernel.cpu_share", kernel_ms / (op_wall * nodes_per_core));
    v.insert("eigen.logical_ms", logical_ms);
    v.insert("eigen.speedup_vs_logical", logical_ms / op_wall);
    v.insert("eigen.residual_max", residual);
    v.insert("eigen.orth_max", orth);
    v.insert("core.lower_ms", median(&spans.durations_ms("lower")));
    v.insert("core.plan_messages_per_sweep", per_input(|l| l.plan_messages_per_sweep));
    v.insert("ccpipe.price_ms", median(&spans.durations_ms("price")));
    v.insert("ccpipe.predicted_vtime", per_input(|l| l.predicted));
    v.insert("fabric.vtime_over_predicted", per_input(|l| l.service_over_predicted));
    v.insert("runtime.spawn_ms", spawn_ms);
    v.insert("runtime.channel_ts_us", channel.ts * 1e6);
    v.insert("runtime.channel_tw_ns", channel.tw * 1e9);
    v.insert(
        "runtime.overhead_us_per_msg",
        (op_wall - kernel_ms / nodes_per_core) / messages * 1e3,
    );
    v.insert("fabric.port_wait_vtime", per_input(|l| l.port_wait));
    v.insert("fabric.wire_vtime", per_input(|l| l.wire));
    v.insert("fabric.link_busy_max_frac", per_input(|l| l.link_busy_max_frac));
    v.insert("packet.packets", per_input(|l| l.packets));
    let admission = spans.durations_ms("admission");
    v.insert("serve.admission_ms", if admission.is_empty() { 0.0 } else { median(&admission) });
    v.insert("trace.overhead_ratio", median(&ring_walls) / op_wall);
    v.insert("trace.events", mean(&events));
    v.insert("trace.export_ms", median(&spans.durations_ms("export")));
    let self_ms = spans.self_ms_by_name();
    for name in SPAN_NAMES {
        let metric =
            crate::metrics::def(&format!("span.{name}.self_ms")).expect("every span has a metric");
        v.insert(metric.name, self_ms.get(name).map_or(0.0, |ms| median(ms)));
    }
    for (name, value) in &out.virtuals {
        if crate::metrics::PER_LAYER.iter().any(|d| d.name == *name) {
            v.insert(name, *value);
        }
    }
    out.values = v;
    let (_, tail_percentile, tail_beyond) = tail(&nop_walls);
    (out.tail_percentile, out.tail_beyond) = (tail_percentile, tail_beyond);
    if let Some(dir) = &cfg.span_dir {
        let path = dir.join(format!("spans-{}-seed{}.json", cfg.workload.name(), cfg.seed));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, spans.to_json(cfg.workload.name(), cfg.seed)));
        match written {
            Ok(()) => out.span_file = Some(path),
            Err(e) => {
                out.failed = out.attempted;
                out.notes.push(format!("cannot write {}: {e}", path.display()));
            }
        }
    }
    out
}
