//! The phase engine: N independent eigen/SVD jobs interleaved over ONE
//! shared link fabric — and, with N = 1, the solo threaded solvers.
//!
//! Every threaded driver in the crate runs here. Each job becomes an
//! explicit per-node state machine ([`JobNode`]) walking its
//! [`CommPlan`] chain, whose `step` advances exactly one scheduler
//! micro-op — pair-and-send a transition, consume a received block,
//! process-and-forward one pipeline packet, drain an epilogue packet, or
//! cast a convergence vote — and a deterministic interleaving order
//! ([`BatchOrder`], produced by the `mph-batch` policies) merges the
//! jobs' op streams. Every node executes the *same* merged sequence, so
//! sends and receives pair up exactly as in a solo SPMD program; the
//! messages carry job tags and each node demultiplexes arrivals through
//! [`JobMux`], so per-`(link, job)` FIFO order survives any interleaving.
//! [`block_jacobi_threaded`] and [`svd_block_threaded`] are one-job
//! batches ([`BatchOrder::Serial`]`([0])`).
//!
//! Why interleave at micro-op granularity: the virtual clock charges
//! start-ups serially on the node CPU but lets transmissions ride the
//! links concurrently (per port model). A solo solve's serial tail —
//! division and last transitions, `Ts + S·Tw` each with the CPU idle while
//! the wire drains — and its pipeline prologues/epilogues are exactly the
//! slots where a *different* job's sends are issued here before the first
//! job's arrivals are consumed, so problem B's packets occupy links
//! problem A left idle. On a one-port machine the single transmit port
//! serializes everything and batching buys ~nothing; on the paper's
//! multi-port machines it converts bubbles into throughput — the measured
//! counterpart of `mph_ccpipe::batch_cost`.
//!
//! # Degraded fabrics
//!
//! On a [`FabricModel::Degraded`] scenario each job reads the fabric
//! epoch at its sweep start and, for that sweep:
//!
//! * relays every transition and vote whose link is **dead** along the
//!   surviving route ([`mph_hypercube::surviving_route`]) through a fixed
//!   global script (see [`exchange_via`]), running the sweep whole-block
//!   (`Q = 1`, tail 1) — packet pipelines assume direct links;
//! * under [`Adaptation::Reactive`] fits a machine to the node's live
//!   send window and agrees on it with the peers (max-allreduce of `Ts`,
//!   then `Tw`, relay-aware) before re-pricing every phase's `Q` through
//!   the cost model; [`Adaptation::Oracle`] re-prices against the
//!   scenario's `worst_alive_machine` instead.
//!
//! The drivers advance the epoch only where no job is mid-sweep: the
//! batch walk passes a barrier after any step that leaves every job at a
//! sweep boundary, and the service loop barriers at the start of every
//! round. Every job sweep therefore runs inside one epoch — a one-job run
//! runs sweep `s` at epoch `s` — and link deaths are safe in every driver.
//! What each job did is reported per job as an [`AdaptiveReport`].
//!
//! # Bitwise equality, preserved
//!
//! Jobs share no data: interleaving changes *when* a job's ops run, never
//! *which* ops run or in what per-job order. Each [`JobNode`] performs the
//! exact pairing sequence of the logical drivers — [`block_jacobi`] for
//! eigen jobs, [`svd_block`] for SVD jobs — through the same shared
//! kernel, so every job's result is bitwise identical to its logical run
//! under every policy, port model, pipelining degree and impairment
//! (relays change how a payload travels, never what is computed from it).
//! This is asserted in the tests below and in `crate::threaded`, and
//! proptested across random job mixes in `mph-batch` and `mph-serve`.
//!
//! [`block_jacobi`]: crate::blockjacobi::block_jacobi
//! [`block_jacobi_threaded`]: crate::threaded::block_jacobi_threaded
//! [`svd_block`]: crate::svd::svd_block

use crate::kernel::{refresh_block_diag, PairingRule, SweepAccumulator, SweepKernel};
use crate::options::{Adaptation, EigenResult, JacobiOptions, Pipelining};
use crate::svd::{sigma_and_u_col, SvdResult};
use crate::threaded::{choose_qs, choose_tail_qs, lower_sweeps_with, packetization_cap};
use mph_ccpipe::BatchOrder;
use mph_core::{BlockPartition, CommPlan, OrderingFamily, PhaseKind, PlanPhase};
use mph_hypercube::surviving_route;
use mph_linalg::block::{BufferPool, ColumnBlock};
use mph_linalg::vecops::dot;
use mph_linalg::Matrix;
use mph_runtime::{
    run_spmd_fabric_jobs_traced, FabricModel, FabricReport, JobMux, Machine, Meterable, Packet,
    Scenario, SinkHandle, TraceEvent, TrafficMeter,
};
use mph_trace::MetricsRegistry;
use std::ops::Range;

/// What kind of factorization a job asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// Symmetric eigendecomposition (`A` must be square symmetric).
    Eigen,
    /// One-sided Jacobi SVD of a `rows × n` matrix.
    Svd,
}

/// One problem of a batch: the matrix, its ordering family, and the solver
/// options. The per-job [`JacobiOptions::fabric`] and
/// [`JacobiOptions::trace`] fields are ignored — the batch runs on the
/// fabric and sink the *scheduler* was given, which is the whole point of
/// sharing one.
#[derive(Debug, Clone)]
pub struct JobSpec {
    pub kind: JobKind,
    pub a: Matrix,
    pub family: OrderingFamily,
    pub opts: JacobiOptions,
}

impl JobSpec {
    /// An eigenproblem job.
    pub fn eigen(a: Matrix, family: OrderingFamily, opts: JacobiOptions) -> Self {
        JobSpec { kind: JobKind::Eigen, a, family, opts }
    }

    /// An SVD job.
    pub fn svd(a: Matrix, family: OrderingFamily, opts: JacobiOptions) -> Self {
        JobSpec { kind: JobKind::Svd, a, family, opts }
    }

    fn rule(&self) -> PairingRule {
        match self.kind {
            JobKind::Eigen => PairingRule::Implicit,
            JobKind::Svd => PairingRule::Gram,
        }
    }

    fn budget(&self) -> usize {
        self.opts.force_sweeps.unwrap_or(self.opts.max_sweeps)
    }
}

/// Lowers one job's full communication up front: the sweep-chained plans
/// (sweep `s` starts from sweep `s − 1`'s final layout) plus the per-phase
/// pipelining degrees the driver will execute. For eigen jobs this is
/// exactly [`crate::threaded::lower_sweeps`] + [`choose_qs`]; SVD jobs
/// differ only in the per-column payload (`rows + n` elements instead of
/// `2m`). Public so the batch scheduler prices (`mph_ccpipe::batch_cost`)
/// and replays (`mph_simnet`) the very plans the runtime executes.
pub fn lower_job(spec: &JobSpec, d: usize) -> (Vec<CommPlan>, Vec<Vec<usize>>) {
    let n = spec.a.cols();
    let elems_per_col = spec.a.rows() + n + usize::from(spec.opts.cache_diagonals);
    let plans = lower_sweeps_with(n, d, spec.family, elems_per_col, spec.budget());
    let q_cap = packetization_cap(n, d);
    let qs = plans.iter().map(|p| choose_qs(p, &spec.opts.pipelining, q_cap)).collect();
    (plans, qs)
}

/// The batch wire protocol: every frame carries its job tag, so N
/// problems' blocks, pipeline packets, and convergence votes multiplex one
/// set of links and demultiplex losslessly at the receiver.
#[derive(Debug, Clone)]
pub enum BatchMsg {
    Block { job: u32, block: ColumnBlock },
    Packet(Packet<ColumnBlock>),
    Scalar { job: u32, v: f64 },
}

impl Meterable for BatchMsg {
    fn elems(&self) -> u64 {
        match self {
            BatchMsg::Block { block, .. } => block.payload_elems() as u64,
            BatchMsg::Packet(p) => p.payload.payload_elems() as u64,
            BatchMsg::Scalar { .. } => 1,
        }
    }

    fn is_control(&self) -> bool {
        matches!(self, BatchMsg::Scalar { .. })
    }

    fn job(&self) -> u32 {
        match self {
            BatchMsg::Block { job, .. } => *job,
            BatchMsg::Packet(p) => p.job,
            BatchMsg::Scalar { job, .. } => *job,
        }
    }

    fn kq(&self) -> Option<(u32, u32)> {
        // Framed packets carry their (k, q) header into the trace.
        match self {
            BatchMsg::Packet(p) => Some((p.k, p.q)),
            _ => None,
        }
    }
}

fn expect_block(msg: BatchMsg) -> ColumnBlock {
    match msg {
        BatchMsg::Block { block, .. } => block,
        other => panic!("batch protocol error: expected a block, got {other:?}"),
    }
}

fn expect_packet(msg: BatchMsg) -> Packet<ColumnBlock> {
    match msg {
        BatchMsg::Packet(p) => p,
        other => panic!("batch protocol error: expected a packet, got {other:?}"),
    }
}

fn expect_scalar(msg: BatchMsg) -> f64 {
    match msg {
        BatchMsg::Scalar { v, .. } => v,
        other => panic!("batch protocol error: expected a scalar, got {other:?}"),
    }
}

/// One job's result.
#[derive(Debug, Clone)]
pub enum JobResult {
    Eigen(EigenResult),
    Svd(SvdResult),
}

impl JobResult {
    pub fn eigen(&self) -> Option<&EigenResult> {
        match self {
            JobResult::Eigen(r) => Some(r),
            JobResult::Svd(_) => None,
        }
    }

    pub fn svd(&self) -> Option<&SvdResult> {
        match self {
            JobResult::Svd(r) => Some(r),
            JobResult::Eigen(_) => None,
        }
    }
}

/// One job's virtual-clock span within the batch: `start` is the earliest
/// any node began its first op, `finish` the latest any node completed its
/// last (both 0 on a [`FabricModel::Free`] fabric, which runs no clock).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobSpan {
    pub start: f64,
    pub finish: f64,
}

impl JobSpan {
    /// The job's own wall on the virtual clock.
    pub fn makespan(&self) -> f64 {
        self.finish - self.start
    }
}

/// What the adaptive layer did for one job on a degraded fabric — all
/// zeros on clean fabrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AdaptiveReport {
    /// Times the job re-priced against a newly agreed machine
    /// ([`Adaptation::Reactive`]: calibrated from live windows;
    /// [`Adaptation::Oracle`] prices against the scenario every sweep and
    /// counts none).
    pub recalibrations: usize,
    /// Origin messages routed around dead links, summed over nodes.
    pub reroutes: u64,
    /// Origin elements routed around dead links, summed over nodes (relay
    /// hops re-ship them, but the origin volume is what the dead link
    /// would have carried).
    pub rerouted_elems: u64,
}

impl AdaptiveReport {
    /// Projects the report into the workspace's shared metric shape.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut r = MetricsRegistry::new();
        r.add("adaptive.recalibrations", self.recalibrations as u64);
        r.add("adaptive.reroutes", self.reroutes);
        r.add("adaptive.rerouted_elems", self.rerouted_elems);
        r
    }
}

/// Outcome of a batch run.
#[derive(Debug)]
pub struct BatchRun {
    /// Per-job results, in job order.
    pub results: Vec<JobResult>,
    /// Per-job virtual-clock spans, in job order.
    pub spans: Vec<JobSpan>,
    /// Per-job adaptive-layer reports, in job order.
    pub adaptive: Vec<AdaptiveReport>,
    /// The shared meter, with per-job totals
    /// ([`TrafficMeter::job_volume`] and friends).
    pub meter: TrafficMeter,
    /// The fabric report; `fabric.makespan` is the whole batch's measured
    /// virtual makespan.
    pub fabric: FabricReport,
}

/// One dead undirected edge's relay plan for a sweep: who its endpoints
/// are and the surviving multi-hop routes replacing the direct exchange,
/// one per direction. Pure scenario data — every node computes the same
/// table, so the relay runs as a fixed global script with no negotiation.
struct RelayEntry {
    /// Smaller endpoint of the dead edge.
    u: usize,
    /// `u ^ 2^dim` — the other endpoint.
    v: usize,
    /// Dimension the dead edge crosses.
    dim: usize,
    /// Dimension sequence of the surviving route `u -> v`.
    fwd: Vec<usize>,
    /// Dimension sequence of the surviving route `v -> u`.
    rev: Vec<usize>,
}

/// The relay table of scenario `epoch`: every dead edge with its
/// surviving routes (empty when nothing is dead).
fn relay_table(scenario: &Scenario, epoch: usize) -> Vec<RelayEntry> {
    let dead = scenario.dead_edges(epoch);
    let route = |a, b| {
        surviving_route(scenario.d(), a, b, &dead)
            .expect("scenarios reject disconnecting death schedules")
    };
    dead.iter()
        .map(|&(u, dim)| {
            let v = u ^ (1 << dim);
            RelayEntry { u, v, dim, fwd: route(u, v), rev: route(v, u) }
        })
        .collect()
}

/// Receives `job`'s next message across `dim` and advances the node clock
/// to its arrival — the blocking receive of one job on a shared link.
fn recv_now(mux: &mut JobMux<'_, '_, BatchMsg>, dim: usize, job: u32) -> BatchMsg {
    let (msg, stamp) = mux.recv_for(dim, job);
    mux.ctx().advance_clock_to(stamp);
    msg
}

/// The degraded-sweep exchange primitive: delivers `msg` to the partner
/// across `link` exactly as a send plus a receive would, but when the
/// direct edge is dead the payload travels the sweep's relay script
/// instead.
///
/// Phase A: every pair whose `link`-edge is alive exchanges directly.
/// Phase B: each dead `link`-edge's two payloads hop their surviving
/// routes, one scripted direction at a time; every node walks the same
/// script (it is pure scenario data) and plays its own part — origin,
/// relay, destination, or bystander. Sends never block, each receive's
/// producer appears strictly earlier in the global script order, and the
/// per-`(dim, job)` streams are FIFO, so the script is deadlock-free and
/// deterministic. With no dead edges on `link` this *is* the plain
/// exchange.
fn exchange_via(
    mux: &mut JobMux<'_, '_, BatchMsg>,
    job: u32,
    link: usize,
    msg: BatchMsg,
    relays: &[RelayEntry],
    report: &mut AdaptiveReport,
) -> BatchMsg {
    let ctx = mux.ctx();
    let n = ctx.id();
    let key = n.min(ctx.neighbor(link));
    let mut outgoing = Some(msg);
    let mut incoming = None;
    if !relays.iter().any(|r| r.dim == link && r.u == key) {
        ctx.send(link, outgoing.take().expect("own payload"));
        incoming = Some(recv_now(mux, link, job));
    }
    for r in relays.iter().filter(|r| r.dim == link) {
        for (src, dst, route) in [(r.u, r.v, &r.fwd), (r.v, r.u, &r.rev)] {
            let mut cur = src;
            let mut carried: Option<BatchMsg> = None;
            for &hop in route {
                let nxt = cur ^ (1 << hop);
                if n == cur {
                    let m = if cur == src {
                        let m = outgoing.take().expect("one relayed payload per direction");
                        report.reroutes += 1;
                        report.rerouted_elems += m.elems();
                        ctx.trace().emit(n, || TraceEvent::Relay {
                            dim: r.dim,
                            elems: m.elems(),
                            time: ctx.virtual_now(),
                        });
                        m
                    } else {
                        carried.take().expect("relay hop carries the payload")
                    };
                    ctx.send(hop, m);
                } else if n == nxt {
                    let got = recv_now(mux, hop, job);
                    if nxt == dst {
                        incoming = Some(got);
                    } else {
                        carried = Some(got);
                    }
                }
                cur = nxt;
            }
        }
    }
    incoming.expect("every exchange delivers: scenarios reject disconnecting death schedules")
}

/// Max-allreduce of one job's scalar that survives dead links: the
/// classical recursive dimension exchange with every hop going through
/// [`exchange_via`]. Used for convergence votes and machine agreement;
/// with an empty relay table it is the plain dimension-exchange
/// all-reduce.
fn allreduce_max_via(
    mux: &mut JobMux<'_, '_, BatchMsg>,
    job: u32,
    mut value: f64,
    relays: &[RelayEntry],
    report: &mut AdaptiveReport,
) -> f64 {
    for dim in 0..mux.ctx().dim() {
        let msg = BatchMsg::Scalar { job, v: value };
        value = value.max(expect_scalar(exchange_via(mux, job, dim, msg, relays, report)));
    }
    value
}

/// One job's pre-run schedule, computed once and shared read-only by every
/// node: the lowered plan chain with its static per-phase packet counts,
/// each sweep's serial-tail degree, and each sweep's tail runs (see
/// [`CommPlan::tail_runs`]).
struct Schedule<'a> {
    plans: &'a [CommPlan],
    qs: &'a [Vec<usize>],
    tail_qs: Vec<usize>,
    tail_runs: Vec<Vec<Range<usize>>>,
    q_cap: usize,
}

impl<'a> Schedule<'a> {
    fn new(spec: &JobSpec, (plans, qs): &'a (Vec<CommPlan>, Vec<Vec<usize>>), d: usize) -> Self {
        let q_cap = packetization_cap(spec.a.cols(), d);
        Schedule {
            plans,
            qs,
            tail_qs: plans
                .iter()
                .map(|plan| choose_tail_qs(plan, &spec.opts.tail_pipelining, q_cap))
                .collect(),
            tail_runs: plans.iter().map(CommPlan::tail_runs).collect(),
            q_cap,
        }
    }
}

/// Checks a batch's inputs and builds every job's [`Schedule`].
fn schedules<'a>(
    jobs: &[JobSpec],
    lowered: &'a [(Vec<CommPlan>, Vec<Vec<usize>>)],
    d: usize,
) -> Vec<Schedule<'a>> {
    assert!(!jobs.is_empty(), "an empty batch solves nothing");
    assert_eq!(jobs.len(), lowered.len(), "one lowered plan chain per job");
    for (j, spec) in jobs.iter().enumerate() {
        if spec.kind == JobKind::Eigen {
            assert_eq!(spec.a.rows(), spec.a.cols(), "eigen job {j} needs a square matrix");
        }
    }
    jobs.iter().zip(lowered).map(|(spec, l)| Schedule::new(spec, l, d)).collect()
}

/// Where a job's state machine currently stands (see `step`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pos {
    SweepStart,
    Send {
        phase: usize,
        t: usize,
    },
    Recv {
        phase: usize,
        t: usize,
    },
    Pipe {
        phase: usize,
        k: usize,
        q: usize,
    },
    Drain {
        phase: usize,
        q: usize,
    },
    /// Tail run: pair-and-ship one packet of a chained single-link
    /// transition (the packet departs on its readiness stamp, threaded
    /// from the previous transition's arrival).
    TailSend {
        phase: usize,
        q: usize,
    },
    /// Tail run: consume one arrived packet, recording its stamp for the
    /// next transition — the clock only advances at the run's end.
    TailRecv {
        phase: usize,
        q: usize,
    },
    SweepEnd,
    Done,
}

/// Per-node state machine of one job: the two resident blocks plus the
/// cursor into its plan chain. `step` advances one micro-op; the merged
/// schedule across jobs is produced by the driver's order walk.
struct JobNode<'a> {
    job: u32,
    spec: &'a JobSpec,
    sched: &'a Schedule<'a>,
    /// The degraded fabric's scenario, if any.
    scenario: Option<&'a Scenario>,
    kern: SweepKernel,
    node: usize,
    budget: usize,
    forced: bool,
    norm_a: f64,
    slot0: ColumnBlock,
    slot1: ColumnBlock,
    acc: SweepAccumulator,
    sweeps: usize,
    rotations: u64,
    converged: bool,
    pos: Pos,
    /// The current sweep's exchange-phase packet counts and tail degree.
    qs: Vec<usize>,
    tail_q: usize,
    /// The current sweep's relay table (empty unless links are dead).
    relays: Vec<RelayEntry>,
    /// The machine a Reactive job currently prices against.
    machine: Machine,
    adaptive: AdaptiveReport,
    /// Pipelined-phase scratch: local packets before iteration 0 consumes
    /// them, then the drained finals.
    pipe: Vec<Option<ColumnBlock>>,
    pipe_entry: f64,
    /// Per-packet readiness stamps threaded through a tail run.
    tail_stamps: Vec<f64>,
    /// Packet backing stores, reused across phases and sweeps.
    pool: BufferPool,
    started: bool,
    start: f64,
    finish: f64,
}

/// One node's share of one finished job.
struct JobNodeOutput {
    sweeps: usize,
    rotations: u64,
    converged: bool,
    start: f64,
    finish: f64,
    adaptive: AdaptiveReport,
    /// Eigen: `(global column, λ, u-column)`.
    eigen_cols: Vec<(usize, f64, Vec<f64>)>,
    /// SVD: `(global column, w-column, v-column)`.
    svd_cols: Vec<(usize, Vec<f64>, Vec<f64>)>,
}

impl<'a> JobNode<'a> {
    fn new(
        job: u32,
        spec: &'a JobSpec,
        sched: &'a Schedule<'a>,
        scenario: Option<&'a Scenario>,
        d: usize,
        node: usize,
    ) -> Self {
        let p = 1usize << d;
        let n = spec.a.cols();
        let partition = BlockPartition::new(n, 2 * p);
        // The accumulated factor is n × n for both kinds: U for the
        // eigensolver, V for the SVD.
        let urows = n;
        let slot0 = ColumnBlock::from_matrix_with_identity(&spec.a, partition.cols(node), urows);
        let slot1 =
            ColumnBlock::from_matrix_with_identity(&spec.a, partition.cols(node + p), urows);
        let norm_a = match spec.kind {
            JobKind::Eigen => spec.a.frobenius_norm(),
            JobKind::Svd => 1.0, // SVD convergence is an absolute cosine
        };
        JobNode {
            job,
            spec,
            sched,
            scenario,
            kern: SweepKernel::from_options(spec.rule(), &spec.opts),
            node,
            budget: spec.budget(),
            forced: spec.opts.force_sweeps.is_some(),
            norm_a,
            slot0,
            slot1,
            acc: SweepAccumulator::default(),
            sweeps: 0,
            rotations: 0,
            converged: false,
            pos: if spec.budget() == 0 { Pos::Done } else { Pos::SweepStart },
            qs: Vec::new(),
            tail_q: 1,
            relays: Vec::new(),
            // Reactive starts from the scenario's clean base — the spec
            // sheet — and re-fits from live windows.
            machine: scenario.map_or_else(Machine::paper_figure2, Scenario::base),
            adaptive: AdaptiveReport::default(),
            pipe: Vec::new(),
            pipe_entry: 0.0,
            tail_stamps: Vec::new(),
            pool: BufferPool::new(),
            started: false,
            start: 0.0,
            finish: 0.0,
        }
    }

    fn done(&self) -> bool {
        self.pos == Pos::Done
    }

    /// Whether the job is between sweeps (or finished) — where the fabric
    /// epoch may advance without splitting one of its sweeps.
    fn at_boundary(&self) -> bool {
        matches!(self.pos, Pos::SweepStart | Pos::Done)
    }

    fn phase(&self, idx: usize) -> &'a PlanPhase {
        &self.sched.plans[self.sweeps].phases()[idx]
    }

    /// The packet count of exchange phase `idx` of the current sweep
    /// (1 for serial phases).
    fn phase_q(&self, idx: usize) -> usize {
        let phases = self.sched.plans[self.sweeps].phases();
        if !phases[idx].is_exchange() {
            return 1;
        }
        let xq = phases[..idx].iter().filter(|ph| ph.is_exchange()).count();
        self.qs[xq].max(1)
    }

    /// The tail run of the current sweep containing phase `idx`, as
    /// `(start, end)` — `None` when the phase is not a single-link
    /// transition or tail pipelining is off for this sweep.
    fn tail_run_at(&self, idx: usize) -> Option<(usize, usize)> {
        if self.tail_q <= 1 {
            return None;
        }
        self.sched.tail_runs[self.sweeps]
            .iter()
            .find(|r| r.start <= idx && idx < r.end)
            .map(|r| (r.start, r.end))
    }

    /// Whether the resident block (slot0) is the one travelling in
    /// single-link phase `idx` — the division slot asymmetry's bit = 1
    /// endpoint; everywhere else the mobile block (slot1) travels.
    fn resident_out(&self, idx: usize) -> bool {
        let ph = self.phase(idx);
        matches!(ph.kind, PhaseKind::Division { .. }) && self.node & (1 << ph.links[0]) != 0
    }

    fn start_of_phase(&self, idx: usize) -> Pos {
        if self.tail_run_at(idx).is_some_and(|(start, _)| start == idx) {
            Pos::TailSend { phase: idx, q: 0 }
        } else if self.phase_q(idx) > 1 {
            Pos::Pipe { phase: idx, k: 0, q: 0 }
        } else {
            Pos::Send { phase: idx, t: 0 }
        }
    }

    fn after_phase(&self, idx: usize) -> Pos {
        if idx + 1 < self.sched.plans[self.sweeps].phases().len() {
            self.start_of_phase(idx + 1)
        } else {
            Pos::SweepEnd
        }
    }

    /// Sweep entry on a degraded fabric: reads the epoch's relay table,
    /// re-fits and agrees on the machine (Reactive, from sweep 1 on), and
    /// prices this sweep's packet counts. Clean fabrics run the pre-run
    /// schedule.
    fn plan_sweep(&mut self, mux: &mut JobMux<'_, '_, BatchMsg>) {
        let sweep = self.sweeps;
        let Some(sc) = self.scenario else {
            self.qs.clone_from(&self.sched.qs[sweep]);
            self.tail_q = self.sched.tail_qs[sweep];
            return;
        };
        let ctx = mux.ctx();
        let epoch = ctx.fabric_epoch();
        self.relays = relay_table(sc, epoch);
        let adaptation = self.spec.opts.adaptation;
        if adaptation == Adaptation::Reactive && sweep > 0 {
            // Fit a machine to the service times the link clock measured
            // since the last fit, then agree with the peers — max of Ts,
            // then of Tw — so every node prices against the same
            // (slowest-observed) machine.
            let ports = self.machine.ports;
            let local = Machine::calibrate(&ctx.take_fabric_window())
                .map(|fit| Machine { ts: fit.ts, tw: fit.tw, ports })
                .unwrap_or(self.machine);
            let ts = allreduce_max_via(mux, self.job, local.ts, &self.relays, &mut self.adaptive);
            let tw = allreduce_max_via(mux, self.job, local.tw, &self.relays, &mut self.adaptive);
            let agreed = Machine { ts, tw, ports };
            if agreed != self.machine {
                self.machine = agreed;
                self.adaptive.recalibrations += 1;
                let job = self.job;
                ctx.trace().emit(self.node, || TraceEvent::Recalibrate {
                    job,
                    sweep,
                    ts,
                    tw,
                    time: ctx.virtual_now(),
                });
            }
        }
        let plan = &self.sched.plans[sweep];
        let pricing = match adaptation {
            Adaptation::Off => None,
            Adaptation::Reactive => Some(self.machine),
            Adaptation::Oracle => Some(sc.worst_alive_machine(epoch)),
        };
        (self.qs, self.tail_q) = if !self.relays.is_empty() {
            // Dead-link sweeps run whole-block: the packet pipelines
            // assume direct links, and Q never changes bits.
            (vec![1; plan.exchange_phases().count()], 1)
        } else if let Some(machine) = pricing {
            let auto = Pipelining::Auto(machine);
            (
                choose_qs(plan, &auto, self.sched.q_cap),
                choose_tail_qs(plan, &auto, self.sched.q_cap),
            )
        } else {
            (self.sched.qs[sweep].clone(), self.sched.tail_qs[sweep])
        };
    }

    /// Stores the block a whole-block transition delivered and moves on.
    fn land(&mut self, phase: usize, t: usize, block: ColumnBlock) {
        if self.resident_out(phase) {
            self.slot0 = block;
        } else {
            self.slot1 = block;
        }
        let ph = self.phase(phase);
        self.pos = if ph.is_exchange() && t + 1 < ph.k() {
            Pos::Send { phase, t: t + 1 }
        } else {
            self.after_phase(phase)
        };
    }

    /// Executes one micro-op. The caller guarantees every node invokes
    /// every job's steps in the same merged order.
    fn step(&mut self, mux: &mut JobMux<'_, '_, BatchMsg>) {
        let ctx = mux.ctx();
        if !self.started {
            self.started = true;
            self.start = ctx.virtual_now();
        }
        match self.pos {
            Pos::SweepStart => {
                let (job, sweep) = (self.job, self.sweeps);
                ctx.trace().emit(self.node, || TraceEvent::SweepBegin {
                    job,
                    sweep,
                    time: ctx.virtual_now(),
                });
                self.plan_sweep(mux);
                self.acc = SweepAccumulator::default();
                if self.spec.opts.cache_diagonals {
                    // Periodic exact refresh of the resident blocks'
                    // diagonals; the cache then travels with a block.
                    refresh_block_diag(&mut self.slot0, self.kern.rule);
                    refresh_block_diag(&mut self.slot1, self.kern.rule);
                }
                // Step 0, paper step (1): intra-block pairings. The step-0
                // cross pairing is the first transition's compute.
                self.acc.merge(self.kern.within(&mut self.slot0));
                self.acc.merge(self.kern.within(&mut self.slot1));
                if self.sched.plans[sweep].phases().is_empty() {
                    // d = 0: the whole sweep is step 0's pairings.
                    self.acc.merge(self.kern.across(&mut self.slot0, &mut self.slot1));
                    self.pos = Pos::SweepEnd;
                } else {
                    self.pos = self.start_of_phase(0);
                }
            }
            Pos::Send { phase, t } => {
                let link = self.phase(phase).links[t];
                self.acc.merge(self.kern.across(&mut self.slot0, &mut self.slot1));
                // Division: the bit = 0 endpoint sends its mobile block,
                // the bit = 1 endpoint its resident one.
                let outgoing =
                    if self.resident_out(phase) { self.slot0.take() } else { self.slot1.take() };
                let msg = BatchMsg::Block { job: self.job, block: outgoing };
                if self.relays.is_empty() {
                    ctx.send(link, msg);
                    self.pos = Pos::Recv { phase, t };
                } else {
                    // A degraded sweep runs each transition as one
                    // relay-aware exchange.
                    let got =
                        exchange_via(mux, self.job, link, msg, &self.relays, &mut self.adaptive);
                    self.land(phase, t, expect_block(got));
                }
            }
            Pos::Recv { phase, t } => {
                let link = self.phase(phase).links[t];
                let block = expect_block(recv_now(mux, link, self.job));
                self.land(phase, t, block);
            }
            Pos::Pipe { phase, k, q } => {
                let ph = self.phase(phase);
                let q_total = self.phase_q(phase);
                if k == 0 && q == 0 {
                    // Phase entry: split the mobile block into its packets.
                    self.pipe_entry = ctx.virtual_now();
                    self.pipe = self
                        .slot1
                        .take()
                        .split_columns_pooled(q_total, &mut self.pool)
                        .into_iter()
                        .map(Some)
                        .collect();
                }
                // Packet q of iteration k departs when *its own* input has
                // arrived (the fabric stamp), not when the program counter
                // gets there — the stage s = k + q wavefront.
                let (mut payload, ready) = if k == 0 {
                    (self.pipe[q].take().expect("local packet consumed twice"), self.pipe_entry)
                } else {
                    let (msg, stamp) = mux.recv_for(ph.links[k - 1], self.job);
                    let pkt = expect_packet(msg);
                    assert_eq!(
                        (pkt.job, pkt.k, pkt.q),
                        (self.job, (k - 1) as u32, q as u32),
                        "batch packet protocol violation"
                    );
                    (pkt.payload, stamp)
                };
                self.acc.merge(self.kern.across(&mut self.slot0, &mut payload));
                ctx.send_after(
                    ph.links[k],
                    BatchMsg::Packet(Packet::for_job(self.job, k as u32, q as u32, payload)),
                    ready,
                );
                self.pos = if q + 1 < q_total {
                    Pos::Pipe { phase, k, q: q + 1 }
                } else if k + 1 < ph.k() {
                    Pos::Pipe { phase, k: k + 1, q: 0 }
                } else {
                    Pos::Drain { phase, q: 0 }
                };
            }
            Pos::Drain { phase, q } => {
                let ph = self.phase(phase);
                let q_total = self.phase_q(phase);
                let (msg, stamp) = mux.recv_for(ph.links[ph.k() - 1], self.job);
                let pkt = expect_packet(msg);
                assert_eq!(
                    (pkt.job, pkt.k, pkt.q),
                    (self.job, (ph.k() - 1) as u32, q as u32),
                    "batch packet protocol violation"
                );
                // The phase completes for this packet when the node holds
                // it: consuming the arrival advances the virtual clock.
                ctx.advance_clock_to(stamp);
                self.pipe[q] = Some(pkt.payload);
                if q + 1 < q_total {
                    self.pos = Pos::Drain { phase, q: q + 1 };
                } else {
                    let finals: Vec<ColumnBlock> =
                        self.pipe.drain(..).map(|p| p.expect("packet lost")).collect();
                    self.slot1 = ColumnBlock::from_packets_pooled(finals, &mut self.pool);
                    self.pos = self.after_phase(phase);
                }
            }
            Pos::TailSend { phase, q } => {
                let tq = self.tail_q;
                let link = self.phase(phase).links[0];
                let resident_out = self.resident_out(phase);
                if q == 0 {
                    let (run_start, _) = self.tail_run_at(phase).expect("tail op outside a run");
                    if phase == run_start {
                        // Run entry: every packet is ready now.
                        self.tail_stamps = vec![ctx.virtual_now(); tq];
                    }
                    let outgoing = if resident_out { self.slot0.take() } else { self.slot1.take() };
                    self.pipe = outgoing
                        .split_columns_pooled(tq, &mut self.pool)
                        .into_iter()
                        .map(Some)
                        .collect();
                }
                // Pair before ship — the reference pairing re-tiled by
                // packet boundary (bitwise equal to the whole-block op),
                // then the packet departs on its own readiness stamp.
                let mut payload = self.pipe[q].take().expect("tail packet consumed twice");
                if resident_out {
                    self.acc.merge(self.kern.across(&mut payload, &mut self.slot1));
                } else {
                    self.acc.merge(self.kern.across(&mut self.slot0, &mut payload));
                }
                ctx.send_after(
                    link,
                    BatchMsg::Packet(Packet::for_job(self.job, 0, q as u32, payload)),
                    self.tail_stamps[q],
                );
                self.pos = if q + 1 < tq {
                    Pos::TailSend { phase, q: q + 1 }
                } else {
                    Pos::TailRecv { phase, q: 0 }
                };
            }
            Pos::TailRecv { phase, q } => {
                let tq = self.tail_q;
                let (msg, stamp) = mux.recv_for(self.phase(phase).links[0], self.job);
                let pkt = expect_packet(msg);
                assert_eq!(
                    (pkt.job, pkt.k, pkt.q),
                    (self.job, 0, q as u32),
                    "batch tail packet protocol violation"
                );
                // The stamp is next transition's readiness, not a clock
                // advance: the node only waits at the run's end.
                self.tail_stamps[q] = stamp;
                self.pipe[q] = Some(pkt.payload);
                if q + 1 < tq {
                    self.pos = Pos::TailRecv { phase, q: q + 1 };
                    return;
                }
                let finals: Vec<ColumnBlock> =
                    self.pipe.drain(..).map(|p| p.expect("tail packet lost")).collect();
                let block = ColumnBlock::from_packets_pooled(finals, &mut self.pool);
                if self.resident_out(phase) {
                    self.slot0 = block;
                } else {
                    self.slot1 = block;
                }
                let (_, run_end) = self.tail_run_at(phase).expect("tail op outside a run");
                if phase + 1 < run_end {
                    self.pos = Pos::TailSend { phase: phase + 1, q: 0 };
                } else {
                    for &s in &self.tail_stamps {
                        ctx.advance_clock_to(s);
                    }
                    self.pos = self.after_phase(phase);
                }
            }
            Pos::SweepEnd => {
                let (job, sweep) = (self.job, self.sweeps);
                ctx.trace().emit(self.node, || TraceEvent::SweepEnd {
                    job,
                    sweep,
                    time: ctx.virtual_now(),
                });
                self.rotations += self.acc.rotations;
                self.sweeps += 1;
                if !self.forced {
                    // Max-allreduce of the sweep's largest off measure,
                    // relay-aware, demultiplexed by job tag. The decision
                    // is global, so every node stops (or goes on) together.
                    let v = allreduce_max_via(
                        mux,
                        self.job,
                        self.acc.max_off,
                        &self.relays,
                        &mut self.adaptive,
                    );
                    let bar = match self.spec.kind {
                        JobKind::Eigen => self.spec.opts.tol * self.norm_a,
                        JobKind::Svd => self.spec.opts.tol,
                    };
                    if v <= bar {
                        self.converged = true;
                        self.finish(ctx.virtual_now());
                        return;
                    }
                }
                if self.sweeps >= self.budget {
                    self.finish(ctx.virtual_now());
                } else {
                    self.pos = Pos::SweepStart;
                }
            }
            Pos::Done => panic!("stepped a finished job"),
        }
    }

    fn finish(&mut self, now: f64) {
        self.finish = now;
        self.pos = Pos::Done;
    }

    fn into_output(self) -> JobNodeOutput {
        assert!(self.done(), "collecting an unfinished job");
        let mut out = JobNodeOutput {
            sweeps: self.sweeps,
            rotations: self.rotations,
            converged: self.converged || self.forced,
            start: self.start,
            finish: self.finish,
            adaptive: self.adaptive,
            eigen_cols: Vec::new(),
            svd_cols: Vec::new(),
        };
        for b in [&self.slot0, &self.slot1] {
            for k in 0..b.len() {
                match self.spec.kind {
                    JobKind::Eigen => {
                        let lambda = dot(b.u_col(k), b.a_col(k));
                        out.eigen_cols.push((b.global_col(k), lambda, b.u_col(k).to_vec()));
                    }
                    JobKind::Svd => {
                        out.svd_cols.push((
                            b.global_col(k),
                            b.a_col(k).to_vec(),
                            b.u_col(k).to_vec(),
                        ));
                    }
                }
            }
        }
        out
    }
}

/// Runs `jobs` concurrently on one `d`-cube of threads over one `fabric`,
/// interleaving their communication per `order`. `lowered[j]` is
/// [`lower_job`]`(&jobs[j], d)` — a scheduler that lowered the plans to
/// price and order the batch (`mph-batch`) executes exactly those. The
/// fabric records every job's link/barrier events and the engine's sweep,
/// relay and recalibration events into `sink`, stamped on the shared
/// virtual clock; tracing is strictly observational (pass
/// [`SinkHandle::nop`] to record nothing).
///
/// Returns per-job results (each bitwise identical to the job's logical
/// run), per-job virtual-clock spans and adaptive reports, the shared
/// per-job-metered traffic meter, and the fabric report whose makespan is
/// the batch's measured virtual time.
pub fn run_job_batch(
    d: usize,
    jobs: &[JobSpec],
    lowered: &[(Vec<CommPlan>, Vec<Vec<usize>>)],
    fabric: FabricModel,
    order: &BatchOrder,
    sink: SinkHandle,
) -> BatchRun {
    let schedules = schedules(jobs, lowered, d);
    order.validate(jobs.len());
    let scenario = fabric.scenario().cloned();
    let scenario = scenario.as_deref();

    let (outputs, meter, fabric_report) = run_spmd_fabric_jobs_traced::<
        BatchMsg,
        Vec<JobNodeOutput>,
        _,
    >(d, fabric, jobs.len(), sink, |ctx| {
        let mut nodes: Vec<JobNode> = jobs
            .iter()
            .zip(&schedules)
            .enumerate()
            .map(|(j, (spec, sched))| JobNode::new(j as u32, spec, sched, scenario, d, ctx.id()))
            .collect();
        let mut mux = JobMux::new(ctx);
        // The epoch rule: on a scenario fabric, advance the epoch after
        // any step that leaves every job at a sweep boundary, so no job
        // sweep ever straddles two epochs.
        let mut step = |nodes: &mut [JobNode], j: usize| {
            nodes[j].step(&mut mux);
            if scenario.is_some()
                && nodes[j].at_boundary()
                && nodes.iter().all(JobNode::at_boundary)
            {
                ctx.barrier();
            }
        };
        match order {
            BatchOrder::Serial(ord) => {
                for &j in ord {
                    while !nodes[j].done() {
                        step(&mut nodes, j);
                    }
                }
            }
            BatchOrder::RoundRobin { order: ord, stride } => loop {
                let mut active = false;
                for &j in ord {
                    for _ in 0..*stride {
                        if nodes[j].done() {
                            break;
                        }
                        step(&mut nodes, j);
                        active = true;
                    }
                }
                if !active {
                    break;
                }
            },
        }
        assert_eq!(mux.stashed(), 0, "batch framing corrupt: unconsumed messages");
        nodes.into_iter().map(JobNode::into_output).collect()
    });

    // Assemble per-job global results from the per-node column shares.
    let mut run = BatchRun {
        results: Vec::with_capacity(jobs.len()),
        spans: Vec::with_capacity(jobs.len()),
        adaptive: Vec::with_capacity(jobs.len()),
        meter,
        fabric: fabric_report,
    };
    for (j, spec) in jobs.iter().enumerate() {
        let per_node: Vec<&JobNodeOutput> = outputs.iter().map(|o| &o[j]).collect();
        let (result, span, adaptive) = assemble_job(spec, &per_node);
        run.results.push(result);
        run.spans.push(span);
        run.adaptive.push(adaptive);
    }
    run
}

/// Runs one job alone on its own fabric and trace sink — the engine
/// behind the solo threaded drivers.
pub(crate) fn run_solo(d: usize, spec: JobSpec) -> BatchRun {
    let lowered = [lower_job(&spec, d)];
    let (fabric, sink) = (spec.opts.fabric.clone(), spec.opts.trace.clone());
    run_job_batch(
        d,
        std::slice::from_ref(&spec),
        &lowered,
        fabric,
        &BatchOrder::Serial(vec![0]),
        sink,
    )
}

/// Merges one job's per-node column shares into its global result,
/// virtual-clock span and adaptive report — the assembly both the batch
/// and the service drivers perform once their SPMD run returns.
fn assemble_job(
    spec: &JobSpec,
    per_node: &[&JobNodeOutput],
) -> (JobResult, JobSpan, AdaptiveReport) {
    let mut sweeps = 0usize;
    let mut rotations = 0u64;
    let mut converged = true;
    let mut start = f64::INFINITY;
    let mut finish = 0.0f64;
    let mut adaptive = AdaptiveReport::default();
    for o in per_node {
        sweeps = sweeps.max(o.sweeps);
        rotations += o.rotations;
        converged &= o.converged;
        start = start.min(o.start);
        finish = finish.max(o.finish);
        // Recalibrations are globally agreed (same count everywhere);
        // reroute work is per origin and sums.
        adaptive.recalibrations = adaptive.recalibrations.max(o.adaptive.recalibrations);
        adaptive.reroutes += o.adaptive.reroutes;
        adaptive.rerouted_elems += o.adaptive.rerouted_elems;
    }
    let span = JobSpan { start, finish };
    let n = spec.a.cols();
    let result = match spec.kind {
        JobKind::Eigen => {
            let mut eigenvalues = vec![0.0; n];
            let mut u = Matrix::zeros(n, n);
            for o in per_node {
                for (c, lambda, ucol) in &o.eigen_cols {
                    eigenvalues[*c] = *lambda;
                    u.col_mut(*c).copy_from_slice(ucol);
                }
            }
            JobResult::Eigen(EigenResult {
                eigenvalues,
                eigenvectors: u,
                sweeps,
                rotations,
                off_history: Vec::new(), // not tracked distributively
                converged,
            })
        }
        JobKind::Svd => {
            let rows = spec.a.rows();
            let mut w = Matrix::zeros(rows, n);
            let mut v = Matrix::zeros(n, n);
            for o in per_node {
                for (c, wcol, vcol) in &o.svd_cols {
                    w.col_mut(*c).copy_from_slice(wcol);
                    v.col_mut(*c).copy_from_slice(vcol);
                }
            }
            let mut singular_values = vec![0.0; n];
            let mut u = Matrix::zeros(rows, n);
            for c in 0..n {
                singular_values[c] = sigma_and_u_col(w.col(c), u.col_mut(c));
            }
            JobResult::Svd(SvdResult { singular_values, u, v, sweeps, rotations, converged })
        }
    };
    (result, span, adaptive)
}

/// The admission script of an online service run (see
/// [`run_job_service`]): when each job arrives on the fabric's virtual
/// clock, how deep the bounded admission queue is, how many jobs may be
/// interleaved mid-flight at once, each job's admission priority, and the
/// de-phasing applied to same-key jobs.
///
/// The script is *data*, fixed before the run starts: every node reads
/// the same plan and, because sweep boundaries synchronize the virtual
/// clocks (a barrier adopts the maximum), every node makes the identical
/// admission/rejection decision at the identical boundary — the service
/// loop stays an SPMD program even though its job set changes mid-flight.
#[derive(Debug, Clone)]
pub struct ServicePlan {
    /// Arrival time of job `j` on the virtual clock, finite and
    /// non-decreasing in `j`. A [`FabricModel::Free`] fabric runs no
    /// clock, so there every job is treated as already arrived (the
    /// service still bounds its queue and active set, but latencies
    /// collapse to 0).
    pub arrivals: Vec<f64>,
    /// Bounded admission queue: an arrival finding this many jobs queued
    /// is shed with [`Rejected::QueueFull`] — the backpressure signal.
    pub queue_cap: usize,
    /// At most this many jobs interleave mid-flight at once.
    pub max_active: usize,
    /// Admission priority of each job: smaller admits first (ties fall
    /// back to arrival order). Shortest-plan-first admission passes the
    /// jobs' priced solo costs (`mph_ccpipe::solo_plan_costs`) here.
    pub priority: Vec<f64>,
    /// De-phasing key: same-key jobs walk the same link sequence (same
    /// family and size), so each service round staggers them by
    /// `stagger_slots` micro-ops per rank to pull their sends onto
    /// different links of the round.
    pub stagger_key: Vec<u32>,
    /// Micro-op offset between same-key active jobs per service round
    /// (0 disables de-phasing).
    pub stagger_slots: usize,
    /// Micro-ops granted per job per pass of a service round, the
    /// round-robin stride of the merged op walk.
    pub stride: usize,
}

impl ServicePlan {
    /// The plainest service: jobs admitted in arrival order, no
    /// de-phasing, queue and active set wide enough to never shed.
    pub fn fifo(arrivals: Vec<f64>) -> Self {
        let n = arrivals.len();
        ServicePlan {
            queue_cap: n.max(1),
            max_active: n.max(1),
            priority: (0..n).map(|j| j as f64).collect(),
            stagger_key: (0..n).map(|j| j as u32).collect(),
            stagger_slots: 0,
            stride: 1,
            arrivals,
        }
    }

    fn validate(&self, njobs: usize) {
        assert_eq!(self.arrivals.len(), njobs, "one arrival time per job");
        assert_eq!(self.priority.len(), njobs, "one priority per job");
        assert_eq!(self.stagger_key.len(), njobs, "one stagger key per job");
        assert!(self.queue_cap >= 1, "a service needs at least one queue slot");
        assert!(self.max_active >= 1, "a service must run at least one job at a time");
        assert!(self.stride >= 1, "a service round must grant at least one op");
        let mut prev = 0.0f64;
        for (j, &t) in self.arrivals.iter().enumerate() {
            assert!(
                t.is_finite() && t >= prev,
                "arrival {j} ({t}) must be finite, non-negative, and non-decreasing"
            );
            prev = t;
        }
        for (j, &p) in self.priority.iter().enumerate() {
            assert!(p.is_finite(), "priority {j} ({p}) must be finite");
        }
    }
}

/// Why the service shed a job — the typed backpressure outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rejected {
    /// The bounded admission queue was full when the job arrived:
    /// `queue_depth` jobs (the cap) were already waiting at `arrival`.
    QueueFull { arrival: f64, queue_depth: usize },
}

/// Per-job outcome of a service run, on the fabric's virtual clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JobOutcome {
    /// Admitted at a sweep boundary and solved to completion.
    Served { arrival: f64, admitted: f64, finish: f64 },
    /// Shed by backpressure; the job never touched the fabric.
    Rejected(Rejected),
}

impl JobOutcome {
    /// Arrival→finish latency — the SLO quantity (`None` if rejected).
    pub fn latency(&self) -> Option<f64> {
        match self {
            JobOutcome::Served { arrival, finish, .. } => Some(finish - arrival),
            JobOutcome::Rejected(_) => None,
        }
    }

    /// Time spent in the admission queue (`None` if rejected).
    pub fn queue_wait(&self) -> Option<f64> {
        match self {
            JobOutcome::Served { arrival, admitted, .. } => Some(admitted - arrival),
            JobOutcome::Rejected(_) => None,
        }
    }

    /// Whether the job was shed.
    pub fn is_rejected(&self) -> bool {
        matches!(self, JobOutcome::Rejected(_))
    }
}

/// One sweep-boundary snapshot: the service-level time series a dashboard
/// would plot. Identical on every node (asserted by [`run_job_service`]).
#[derive(Debug, Clone, PartialEq)]
pub struct BoundarySample {
    /// The boundary's barrier-synchronized virtual time.
    pub time: f64,
    /// Jobs waiting in the admission queue after this boundary's
    /// admissions, in arrival order.
    pub queued: Vec<usize>,
    /// Jobs admitted at this boundary, in admission order.
    pub admitted: Vec<usize>,
    /// The active set after admission: `(job, sweeps completed)`.
    pub active: Vec<(usize, usize)>,
    /// Jobs completed before this boundary.
    pub completed: usize,
}

impl BoundarySample {
    /// Queue depth after this boundary's admissions.
    pub fn queue_depth(&self) -> usize {
        self.queued.len()
    }
}

/// Outcome of a service run.
#[derive(Debug)]
pub struct ServiceRun {
    /// Per-job results in job order; `None` for rejected jobs. Every
    /// served result is bitwise identical to the job's solo threaded run.
    pub results: Vec<Option<JobResult>>,
    /// Per-job outcomes in job order.
    pub outcomes: Vec<JobOutcome>,
    /// Per-job adaptive-layer reports in job order (all zeros for
    /// rejected jobs).
    pub adaptive: Vec<AdaptiveReport>,
    /// The sweep-boundary time series.
    pub boundaries: Vec<BoundarySample>,
    /// Shared traffic meter with per-job totals (rejected jobs meter 0).
    pub meter: TrafficMeter,
    /// Fabric report; its makespan is when the service drained.
    pub fabric: FabricReport,
}

impl ServiceRun {
    /// Number of jobs served to completion.
    pub fn served(&self) -> usize {
        self.outcomes.iter().filter(|o| !o.is_rejected()).count()
    }

    /// Number of jobs shed by backpressure.
    pub fn rejected(&self) -> usize {
        self.outcomes.len() - self.served()
    }
}

/// One node's record of a service run: per-job outputs plus the admission
/// trace, which must come out identical on every node.
struct NodeService {
    outputs: Vec<Option<JobNodeOutput>>,
    admitted_at: Vec<Option<f64>>,
    rejected: Vec<Option<Rejected>>,
    boundaries: Vec<BoundarySample>,
}

/// Runs an *online* job service on one `d`-cube of threads sharing one
/// `fabric`: jobs arrive on the virtual clock per `plan.arrivals`, wait in
/// a bounded queue, and join the running mix at sweep boundaries.
///
/// The service loop per node:
/// 1. **Sweep boundary** — a barrier synchronizes every node's virtual
///    clock to the maximum, so all nodes share one notion of "now". If
///    the fabric is idle (nothing active or queued), the clock skips
///    forward to the next arrival.
/// 2. **Intake** — every job with `arrival ≤ now` joins the bounded
///    queue; arrivals finding it full are shed with
///    [`Rejected::QueueFull`]. (On a free fabric the clock never moves,
///    so all arrivals are taken at the first boundary.)
/// 3. **Admission** — while the active set has room, the queued job with
///    the smallest `plan.priority` (ties to the earlier arrival) is
///    admitted, preemption-free: its [`JobNode`] state machine is built
///    and joins the interleave at the *next* micro-op, never mid-sweep.
/// 4. **Service round** — every active job advances exactly one sweep,
///    round-robin with `plan.stride` micro-ops per turn; same-key jobs
///    are staggered by `plan.stagger_slots` micro-ops per rank, which
///    de-phases identical link walks onto different wires. Jobs that
///    finish (convergence vote or budget) retire at the round's end.
///
/// Every decision above is a function of barrier-synced time and the
/// shared `plan`, so all nodes run the same merged op sequence and the
/// batch driver's pairing guarantees carry over unchanged — including
/// bitwise equality of every served job with its solo run. The round
/// barrier also advances a degraded fabric's epoch, so every job sweep
/// runs inside one epoch and link deaths are relayed around.
///
/// `lowered[j]` is [`lower_job`]`(&jobs[j], d)`. Besides the fabric's
/// link/barrier events and the engine's sweep events, `sink` records
/// every admission decision — [`TraceEvent::Admit`] /
/// [`TraceEvent::Reject`] at sweep boundaries and [`TraceEvent::Stagger`]
/// skip assignments. Admission state is barrier-synced and identical on
/// every node (asserted below), so those events are recorded by node 0
/// only — one lane is the record, not 2^d copies. Tracing never changes
/// results.
pub fn run_job_service(
    d: usize,
    jobs: &[JobSpec],
    lowered: &[(Vec<CommPlan>, Vec<Vec<usize>>)],
    fabric: FabricModel,
    plan: &ServicePlan,
    sink: SinkHandle,
) -> ServiceRun {
    let schedules = schedules(jobs, lowered, d);
    plan.validate(jobs.len());
    let njobs = jobs.len();
    let throttled = matches!(fabric, FabricModel::Throttled(_));
    let scenario = fabric.scenario().cloned();
    let scenario = scenario.as_deref();

    let (node_logs, meter, fabric_report) =
        run_spmd_fabric_jobs_traced::<BatchMsg, NodeService, _>(d, fabric, njobs, sink, |ctx| {
            let mut mux = JobMux::new(ctx);
            let mut nodes: Vec<Option<JobNode>> = (0..njobs).map(|_| None).collect();
            let mut queue: Vec<usize> = Vec::new();
            let mut active: Vec<usize> = Vec::new();
            let mut admitted_at: Vec<Option<f64>> = vec![None; njobs];
            let mut rejected: Vec<Option<Rejected>> = vec![None; njobs];
            let mut boundaries: Vec<BoundarySample> = Vec::new();
            let mut next_arrival = 0usize;
            let mut completed = 0usize;

            loop {
                // 1. Sweep boundary: one shared clock across the cube.
                ctx.barrier();
                if active.is_empty() && queue.is_empty() {
                    if next_arrival >= njobs {
                        break; // drained
                    }
                    ctx.advance_clock_to(plan.arrivals[next_arrival]);
                }
                let now = ctx.virtual_now();
                // A free fabric runs no clock: every job has "arrived".
                let horizon = if throttled { now } else { f64::INFINITY };

                // 2 + 3. Intake and admission, interleaved in arrival
                // order: an arrival finding the active set with room is
                // admitted straight through (the queue never holds it);
                // one finding the queue full is shed. Between arrivals
                // the queued job with the smallest priority (ties to the
                // earlier arrival) takes any freed capacity — the
                // preemption-free SPF discipline.
                let mut admitted: Vec<usize> = Vec::new();
                loop {
                    while active.len() < plan.max_active && !queue.is_empty() {
                        let pick = (0..queue.len())
                            .min_by(|&a, &b| {
                                plan.priority[queue[a]]
                                    .total_cmp(&plan.priority[queue[b]])
                                    .then(queue[a].cmp(&queue[b]))
                            })
                            .expect("non-empty queue");
                        let j = queue.remove(pick);
                        nodes[j] = Some(JobNode::new(
                            j as u32,
                            &jobs[j],
                            &schedules[j],
                            scenario,
                            d,
                            ctx.id(),
                        ));
                        admitted_at[j] = Some(now);
                        active.push(j);
                        admitted.push(j);
                        if ctx.id() == 0 {
                            ctx.trace().emit(0, || TraceEvent::Admit {
                                job: j as u32,
                                time: now,
                                queue_depth: queue.len(),
                            });
                        }
                    }
                    if next_arrival >= njobs || plan.arrivals[next_arrival] > horizon {
                        break;
                    }
                    let j = next_arrival;
                    next_arrival += 1;
                    if queue.len() >= plan.queue_cap {
                        rejected[j] = Some(Rejected::QueueFull {
                            arrival: plan.arrivals[j],
                            queue_depth: queue.len(),
                        });
                        if ctx.id() == 0 {
                            ctx.trace().emit(0, || TraceEvent::Reject {
                                job: j as u32,
                                time: plan.arrivals[j],
                                queue_depth: queue.len(),
                            });
                        }
                    } else {
                        queue.push(j);
                    }
                }

                boundaries.push(BoundarySample {
                    time: now,
                    queued: queue.clone(),
                    admitted,
                    active: active
                        .iter()
                        .map(|&j| (j, nodes[j].as_ref().expect("active job lowered").sweeps))
                        .collect(),
                    completed,
                });

                // 4. One service round: each active job advances exactly
                // one sweep. Same-key jobs burn `stagger_slots` skip
                // turns per rank first, de-phasing their link walks.
                let mut skip: Vec<usize> = active
                    .iter()
                    .enumerate()
                    .map(|(i, &j)| {
                        let rank = active[..i]
                            .iter()
                            .filter(|&&o| plan.stagger_key[o] == plan.stagger_key[j])
                            .count();
                        rank * plan.stagger_slots
                    })
                    .collect();
                if ctx.id() == 0 {
                    for (i, &j) in active.iter().enumerate() {
                        if skip[i] > 0 {
                            ctx.trace().emit(0, || TraceEvent::Stagger {
                                job: j as u32,
                                slots: skip[i],
                                time: now,
                            });
                        }
                    }
                }
                let mut crossed: Vec<bool> = active
                    .iter()
                    .map(|&j| nodes[j].as_ref().expect("active job lowered").done())
                    .collect();
                loop {
                    let mut in_flight = false;
                    for (i, &j) in active.iter().enumerate() {
                        for _ in 0..plan.stride {
                            if crossed[i] {
                                break;
                            }
                            in_flight = true;
                            if skip[i] > 0 {
                                skip[i] -= 1;
                                continue;
                            }
                            let node = nodes[j].as_mut().expect("active job lowered");
                            let before = node.sweeps;
                            node.step(&mut mux);
                            if node.done() || node.sweeps > before {
                                crossed[i] = true;
                            }
                        }
                    }
                    if !in_flight {
                        break;
                    }
                }
                for i in (0..active.len()).rev() {
                    let j = active[i];
                    if nodes[j].as_ref().expect("active job lowered").done() {
                        active.remove(i);
                        completed += 1;
                    }
                }
            }
            assert_eq!(mux.stashed(), 0, "service framing corrupt: unconsumed messages");

            NodeService {
                outputs: nodes.into_iter().map(|n| n.map(JobNode::into_output)).collect(),
                admitted_at,
                rejected,
                boundaries,
            }
        });

    // The admission trace is a function of barrier-synced state, so every
    // node must have recorded the same one; node 0's is the record.
    let log0 = &node_logs[0];
    for (n, log) in node_logs.iter().enumerate().skip(1) {
        assert_eq!(log.admitted_at, log0.admitted_at, "node {n} admitted differently");
        assert_eq!(log.rejected, log0.rejected, "node {n} rejected differently");
        assert_eq!(log.boundaries, log0.boundaries, "node {n} saw different boundaries");
    }

    let mut results: Vec<Option<JobResult>> = Vec::with_capacity(njobs);
    let mut outcomes: Vec<JobOutcome> = Vec::with_capacity(njobs);
    let mut adaptive_reports = vec![AdaptiveReport::default(); njobs];
    for (j, spec) in jobs.iter().enumerate() {
        if let Some(rej) = log0.rejected[j] {
            results.push(None);
            outcomes.push(JobOutcome::Rejected(rej));
            continue;
        }
        let per_node: Vec<&JobNodeOutput> = node_logs
            .iter()
            .map(|log| log.outputs[j].as_ref().expect("admitted job ran on every node"))
            .collect();
        let (result, span, adaptive) = assemble_job(spec, &per_node);
        adaptive_reports[j] = adaptive;
        let admitted = log0.admitted_at[j].expect("a job is admitted or rejected");
        // A zero-budget job never steps, so its span is empty; it
        // finishes the moment it is admitted.
        let finish = span.finish.max(admitted);
        // Served instants live on the virtual clock; a free fabric runs
        // none, so there everything happens at 0 and latencies vanish.
        let arrival = if throttled { plan.arrivals[j] } else { 0.0 };
        results.push(Some(result));
        outcomes.push(JobOutcome::Served { arrival, admitted, finish });
    }
    let boundaries = node_logs.into_iter().next().expect("at least one node").boundaries;
    ServiceRun {
        results,
        outcomes,
        adaptive: adaptive_reports,
        boundaries,
        meter,
        fabric: fabric_report,
    }
}

/// The block one-sided Jacobi SVD on the threaded/pipelined phase engine:
/// the same phase walk, packet pipeline, link fabric, relays and metering
/// as [`block_jacobi_threaded`](crate::threaded::block_jacobi_threaded),
/// with the Gram pairing rule — a one-job batch on
/// [`JacobiOptions::fabric`], recording into [`JacobiOptions::trace`].
/// Bitwise identical to the logical [`svd_block`] for a fixed sweep count
/// (asserted in the tests below).
pub fn svd_block_threaded(
    a: &Matrix,
    d: usize,
    family: OrderingFamily,
    opts: &JacobiOptions,
) -> (SvdResult, TrafficMeter) {
    let (r, meter, _) = svd_block_threaded_fabric(a, d, family, opts);
    (r, meter)
}

/// [`svd_block_threaded`], also returning the link fabric's report (see
/// [`block_jacobi_threaded_fabric`](crate::threaded::block_jacobi_threaded_fabric)
/// for the semantics of the measured makespan).
pub fn svd_block_threaded_fabric(
    a: &Matrix,
    d: usize,
    family: OrderingFamily,
    opts: &JacobiOptions,
) -> (SvdResult, TrafficMeter, FabricReport) {
    let mut run = run_solo(d, JobSpec::svd(a.clone(), family, opts.clone()));
    match run.results.pop() {
        Some(JobResult::Svd(r)) => (r, run.meter, run.fabric),
        _ => unreachable!("a single SVD job returns a single SVD result"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blockjacobi::block_jacobi;
    use crate::options::Pipelining;
    use crate::svd::svd_block;
    use crate::threaded::block_jacobi_threaded;
    use mph_ccpipe::Machine;
    use mph_linalg::matmul::eigen_residual;
    use mph_linalg::symmetric::random_symmetric;

    fn batch(d: usize, jobs: &[JobSpec], fabric: FabricModel, order: &BatchOrder) -> BatchRun {
        run_job_batch(d, jobs, &lower_all(jobs, d), fabric, order, SinkHandle::nop())
    }

    fn assert_eigen_bitwise(a: &EigenResult, b: &EigenResult, what: &str) {
        assert_eq!(a.rotations, b.rotations, "{what}: rotations");
        assert_eq!(a.sweeps, b.sweeps, "{what}: sweeps");
        for c in 0..a.eigenvalues.len() {
            assert_eq!(a.eigenvalues[c], b.eigenvalues[c], "{what}: λ_{c}");
            assert_eq!(a.eigenvectors.col(c), b.eigenvectors.col(c), "{what}: u_{c}");
        }
    }

    fn assert_svd_bitwise(a: &SvdResult, b: &SvdResult, what: &str) {
        assert_eq!(a.rotations, b.rotations, "{what}: rotations");
        assert_eq!(a.sweeps, b.sweeps, "{what}: sweeps");
        for c in 0..a.singular_values.len() {
            assert_eq!(a.singular_values[c], b.singular_values[c], "{what}: σ_{c}");
            assert_eq!(a.u.col(c), b.u.col(c), "{what}: u_{c}");
            assert_eq!(a.v.col(c), b.v.col(c), "{what}: v_{c}");
        }
    }

    #[test]
    fn svd_block_threaded_equals_logical_svd_block_bitwise() {
        // The ROADMAP item: the SVD on the threaded/pipelined phase
        // machine, bitwise-equal to the logical block driver — whole-block
        // and packetized, cache on and off.
        let a = random_symmetric(16, 33);
        for cache in [false, true] {
            for q in [Pipelining::Off, Pipelining::Fixed(2), Pipelining::Fixed(5)] {
                let opts = JacobiOptions {
                    force_sweeps: Some(2),
                    cache_diagonals: cache,
                    pipelining: q,
                    ..Default::default()
                };
                for d in [1usize, 2] {
                    for family in OrderingFamily::ALL {
                        let logical = svd_block(&a, d, family, &opts);
                        let (threaded, _) = svd_block_threaded(&a, d, family, &opts);
                        assert_svd_bitwise(
                            &threaded,
                            &logical,
                            &format!("{family} d={d} cache={cache} {q:?}"),
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn svd_block_threaded_converges_free_running() {
        let a = random_symmetric(12, 7);
        let (r, _) =
            svd_block_threaded(&a, 1, OrderingFamily::PermutedBr, &JacobiOptions::default());
        assert!(r.converged);
        let reference = svd_block(&a, 1, OrderingFamily::PermutedBr, &JacobiOptions::default());
        assert_svd_bitwise(&r, &reference, "free-running");
    }

    #[test]
    fn interleaved_mixed_batch_is_bitwise_solo_per_job() {
        // The tentpole invariant in miniature: an eigen job and an SVD job
        // interleaved op-by-op over one fabric each produce exactly their
        // solo bits — under a throttled fabric too.
        let a0 = random_symmetric(16, 1);
        let a1 = random_symmetric(12, 2);
        let opts = JacobiOptions { force_sweeps: Some(2), ..Default::default() };
        let d = 2;
        let jobs = [
            JobSpec::eigen(a0.clone(), OrderingFamily::Br, opts.clone()),
            JobSpec::svd(a1.clone(), OrderingFamily::Degree4, opts.clone()),
        ];
        let solo_e = block_jacobi(&a0, d, OrderingFamily::Br, &opts);
        let solo_s = svd_block(&a1, d, OrderingFamily::Degree4, &opts);
        for fabric in [FabricModel::Free, FabricModel::Throttled(Machine::all_port(1000.0, 100.0))]
        {
            for stride in [1usize, 2] {
                let order = BatchOrder::RoundRobin { order: vec![0, 1], stride };
                let run = batch(d, &jobs, fabric.clone(), &order);
                assert_eigen_bitwise(
                    run.results[0].eigen().expect("eigen"),
                    &solo_e,
                    &format!("eigen stride={stride}"),
                );
                assert_svd_bitwise(
                    run.results[1].svd().expect("svd"),
                    &solo_s,
                    &format!("svd stride={stride}"),
                );
            }
        }
    }

    #[test]
    fn per_job_traffic_is_metered_apart_and_sums_to_the_blend() {
        let a0 = random_symmetric(16, 5);
        let a1 = random_symmetric(16, 6);
        let opts = JacobiOptions { force_sweeps: Some(1), ..Default::default() };
        let d = 2;
        let jobs = [
            JobSpec::eigen(a0.clone(), OrderingFamily::Br, opts.clone()),
            JobSpec::eigen(a1.clone(), OrderingFamily::PermutedBr, opts.clone()),
        ];
        let order = BatchOrder::RoundRobin { order: vec![0, 1], stride: 1 };
        let run = batch(d, &jobs, FabricModel::Free, &order);
        // Each job's metered volume equals its solo run's.
        for (j, (family, a)) in
            [(OrderingFamily::Br, &a0), (OrderingFamily::PermutedBr, &a1)].iter().enumerate()
        {
            let (_, solo_meter) = block_jacobi_threaded(a, d, *family, &opts);
            assert_eq!(run.meter.job_volume(j), solo_meter.total_volume(), "job {j}");
            assert_eq!(run.meter.job_messages(j), solo_meter.total_messages(), "job {j}");
        }
        assert_eq!(
            run.meter.job_volume(0) + run.meter.job_volume(1),
            run.meter.total_volume(),
            "per-job volumes partition the blend"
        );
        // Forced sweeps cast no votes: the control plane stays silent.
        assert_eq!(run.meter.total_control_messages(), 0);
    }

    #[test]
    fn interleaving_fills_bubbles_on_the_throttled_all_port_fabric() {
        // Two jobs with different link sequences: the interleaved batch
        // must beat FIFO-serial on the virtual clock (all-port), and each
        // job's span must sit inside the batch makespan.
        let a0 = random_symmetric(32, 11);
        let a1 = random_symmetric(32, 12);
        let opts = JacobiOptions { force_sweeps: Some(1), ..Default::default() };
        let d = 2;
        let machine = Machine::all_port(1000.0, 100.0);
        let fabric = FabricModel::Throttled(machine);
        let jobs = [
            JobSpec::eigen(a0, OrderingFamily::Br, opts.clone()),
            JobSpec::eigen(a1, OrderingFamily::Degree4, opts.clone()),
        ];
        let serial = batch(d, &jobs, fabric.clone(), &BatchOrder::Serial(vec![0, 1]));
        let inter =
            batch(d, &jobs, fabric, &BatchOrder::RoundRobin { order: vec![0, 1], stride: 1 });
        assert!(
            inter.fabric.makespan < serial.fabric.makespan,
            "interleaved {} vs serial {}",
            inter.fabric.makespan,
            serial.fabric.makespan
        );
        for span in &inter.spans {
            assert!(span.finish <= inter.fabric.makespan + 1e-9);
            assert!(span.start >= 0.0 && span.makespan() > 0.0);
        }
        // Serial spans tile the serial makespan: job 1 starts where job 0
        // ended (up to barrier-free node skew).
        assert!(serial.spans[1].start >= serial.spans[0].start);
        assert!(
            (serial.spans[1].finish - serial.fabric.makespan).abs() < 1e-9,
            "last serial job ends the batch"
        );
    }

    #[test]
    fn batch_results_are_numerically_sound() {
        // Beyond bitwise parity: a free-running mixed batch converges and
        // reconstructs.
        let a0 = random_symmetric(16, 21);
        let a1 = random_symmetric(10, 22);
        let jobs = [
            JobSpec::eigen(a0.clone(), OrderingFamily::PermutedBr, JacobiOptions::default()),
            JobSpec::svd(a1.clone(), OrderingFamily::Br, JacobiOptions::default()),
        ];
        let order = BatchOrder::RoundRobin { order: vec![0, 1], stride: 1 };
        let run = batch(2, &jobs, FabricModel::Free, &order);
        let e = run.results[0].eigen().expect("eigen");
        assert!(e.converged);
        assert!(eigen_residual(&a0, &e.eigenvectors, &e.eigenvalues) < 1e-6);
        let s = run.results[1].svd().expect("svd");
        assert!(s.converged);
        let rec = s.reconstruct();
        let mut err = 0.0f64;
        for c in 0..a1.cols() {
            for r in 0..a1.rows() {
                err += (a1[(r, c)] - rec[(r, c)]).powi(2);
            }
        }
        assert!(err.sqrt() < 1e-8, "reconstruction error {}", err.sqrt());
    }

    fn lower_all(jobs: &[JobSpec], d: usize) -> Vec<(Vec<CommPlan>, Vec<Vec<usize>>)> {
        jobs.iter().map(|s| lower_job(s, d)).collect()
    }

    fn service(
        d: usize,
        jobs: &[JobSpec],
        lowered: &[(Vec<CommPlan>, Vec<Vec<usize>>)],
        fabric: FabricModel,
        plan: &ServicePlan,
    ) -> ServiceRun {
        run_job_service(d, jobs, lowered, fabric, plan, SinkHandle::nop())
    }

    #[test]
    fn service_of_one_job_is_the_solo_run_bitwise() {
        let a = random_symmetric(16, 61);
        let opts = JacobiOptions { force_sweeps: Some(2), ..Default::default() };
        let d = 2;
        let (solo, _) = block_jacobi_threaded(&a, d, OrderingFamily::Br, &opts);
        let jobs = [JobSpec::eigen(a, OrderingFamily::Br, opts.clone())];
        let lowered = lower_all(&jobs, d);
        for fabric in [FabricModel::Free, FabricModel::Throttled(Machine::all_port(1000.0, 100.0))]
        {
            let run = service(d, &jobs, &lowered, fabric.clone(), &ServicePlan::fifo(vec![0.0]));
            assert_eq!(run.served(), 1);
            assert_eq!(run.rejected(), 0);
            let got = run.results[0].as_ref().and_then(JobResult::eigen).expect("served");
            assert_eigen_bitwise(got, &solo, "service of one");
        }
    }

    #[test]
    fn mid_flight_admission_keeps_every_job_bitwise_solo() {
        // Job 1 arrives while job 0 is mid-run: it must join at a sweep
        // boundary (admitted strictly after its arrival and after the
        // service started job 0), and both results stay bitwise solo.
        let a0 = random_symmetric(16, 71);
        let a1 = random_symmetric(12, 72);
        let opts = JacobiOptions { force_sweeps: Some(3), ..Default::default() };
        let d = 2;
        let jobs = [
            JobSpec::eigen(a0.clone(), OrderingFamily::Br, opts.clone()),
            JobSpec::svd(a1.clone(), OrderingFamily::Degree4, opts.clone()),
        ];
        let lowered = lower_all(&jobs, d);
        let machine = Machine::all_port(1000.0, 100.0);
        let fabric = FabricModel::Throttled(machine);
        // First measure job 0 alone to place job 1's arrival mid-run.
        let probe =
            service(d, &jobs[..1], &lowered[..1], fabric.clone(), &ServicePlan::fifo(vec![0.0]));
        let solo_makespan = run_outcome_finish(&probe.outcomes[0]);
        let mid = solo_makespan * 0.4;
        let run = service(d, &jobs, &lowered, fabric.clone(), &ServicePlan::fifo(vec![0.0, mid]));
        assert_eq!(run.served(), 2);
        match run.outcomes[1] {
            JobOutcome::Served { arrival, admitted, finish } => {
                assert_eq!(arrival, mid);
                assert!(admitted >= arrival, "admission waits for the arrival");
                assert!(
                    run.boundaries.iter().any(|b| b.admitted.contains(&1) && b.time > 0.0),
                    "job 1 joined at a later sweep boundary"
                );
                assert!(finish > admitted);
            }
            ref other => panic!("job 1 should be served, got {other:?}"),
        }
        let (solo_e, _) = block_jacobi_threaded(&a0, d, OrderingFamily::Br, &opts);
        let solo_s = svd_block(&a1, d, OrderingFamily::Degree4, &opts);
        assert_eigen_bitwise(
            run.results[0].as_ref().and_then(JobResult::eigen).expect("eigen"),
            &solo_e,
            "mid-flight eigen",
        );
        assert_svd_bitwise(
            run.results[1].as_ref().and_then(JobResult::svd).expect("svd"),
            &solo_s,
            "mid-flight svd",
        );
    }

    fn run_outcome_finish(o: &JobOutcome) -> f64 {
        match o {
            JobOutcome::Served { finish, .. } => *finish,
            JobOutcome::Rejected(_) => panic!("expected a served job"),
        }
    }

    #[test]
    fn full_queue_sheds_with_a_typed_rejection() {
        // queue_cap 1, max_active 1, three simultaneous arrivals on a
        // throttled fabric: one runs, one queues, one is shed.
        let opts = JacobiOptions { force_sweeps: Some(1), ..Default::default() };
        let d = 1;
        let jobs: Vec<JobSpec> = (0..3)
            .map(|s| JobSpec::eigen(random_symmetric(8, 80 + s), OrderingFamily::Br, opts.clone()))
            .collect();
        let lowered = lower_all(&jobs, d);
        let plan =
            ServicePlan { queue_cap: 1, max_active: 1, ..ServicePlan::fifo(vec![0.0, 0.0, 0.0]) };
        let run = service(
            d,
            &jobs,
            &lowered,
            FabricModel::Throttled(Machine::all_port(1000.0, 100.0)),
            &plan,
        );
        assert_eq!(run.served(), 2);
        assert_eq!(run.rejected(), 1);
        assert_eq!(
            run.outcomes[2],
            JobOutcome::Rejected(Rejected::QueueFull { arrival: 0.0, queue_depth: 1 }),
            "the third simultaneous arrival finds the single queue slot taken"
        );
        assert!(run.results[2].is_none());
        assert_eq!(run.meter.job_volume(2), 0, "a shed job never touches the fabric");
        assert!(run.meter.job_volume(0) > 0 && run.meter.job_volume(1) > 0);
    }

    #[test]
    fn priority_admission_picks_the_cheapest_queued_job() {
        // Big job running; a big and a small job queued behind it with
        // SPF-style priorities: the small one must be admitted first.
        let opts = JacobiOptions { force_sweeps: Some(1), ..Default::default() };
        let d = 1;
        let jobs = [
            JobSpec::eigen(random_symmetric(24, 91), OrderingFamily::Br, opts.clone()),
            JobSpec::eigen(random_symmetric(24, 92), OrderingFamily::Br, opts.clone()),
            JobSpec::eigen(random_symmetric(8, 93), OrderingFamily::Br, opts.clone()),
        ];
        let lowered = lower_all(&jobs, d);
        let plan = ServicePlan {
            max_active: 1,
            priority: vec![10.0, 10.0, 1.0],
            ..ServicePlan::fifo(vec![0.0, 0.0, 0.0])
        };
        let run = service(
            d,
            &jobs,
            &lowered,
            FabricModel::Throttled(Machine::all_port(1000.0, 100.0)),
            &plan,
        );
        let admit = |j: usize| match run.outcomes[j] {
            JobOutcome::Served { admitted, .. } => admitted,
            _ => panic!("all served"),
        };
        assert!(admit(2) < admit(1), "the cheap job jumps the earlier expensive one");
        assert_eq!(admit(0), 0.0, "the first arrival starts immediately");
    }

    #[test]
    fn idle_service_advances_the_clock_to_the_next_arrival() {
        // A late lone arrival: the drained service must skip its clock
        // forward instead of spinning, and the job's queue wait is 0.
        let opts = JacobiOptions { force_sweeps: Some(1), ..Default::default() };
        let d = 1;
        let jobs = [JobSpec::eigen(random_symmetric(8, 95), OrderingFamily::Br, opts.clone())];
        let lowered = lower_all(&jobs, d);
        let late = 1e6;
        let run = service(
            d,
            &jobs,
            &lowered,
            FabricModel::Throttled(Machine::all_port(1000.0, 100.0)),
            &ServicePlan::fifo(vec![late]),
        );
        match run.outcomes[0] {
            JobOutcome::Served { arrival, admitted, finish } => {
                assert_eq!(arrival, late);
                assert_eq!(admitted, late, "an idle service admits on arrival");
                assert!(finish > late);
            }
            ref other => panic!("served expected, got {other:?}"),
        }
        assert!(run.fabric.makespan > late);
    }

    #[test]
    fn service_runs_are_deterministic() {
        let opts = JacobiOptions { force_sweeps: Some(2), ..Default::default() };
        let d = 2;
        let jobs: Vec<JobSpec> = (0..4)
            .map(|s| {
                JobSpec::eigen(
                    random_symmetric(12 + 4 * (s % 2), 60 + s as u64),
                    OrderingFamily::Br,
                    opts.clone(),
                )
            })
            .collect();
        let lowered = lower_all(&jobs, d);
        let plan = ServicePlan {
            max_active: 2,
            stagger_slots: 2,
            stagger_key: vec![0, 1, 0, 1],
            ..ServicePlan::fifo(vec![0.0, 10_000.0, 20_000.0, 30_000.0])
        };
        let fabric = FabricModel::Throttled(Machine::all_port(1000.0, 100.0));
        let a = service(d, &jobs, &lowered, fabric.clone(), &plan);
        let b = service(d, &jobs, &lowered, fabric.clone(), &plan);
        assert_eq!(a.outcomes, b.outcomes, "virtual-clock outcomes must not depend on scheduling");
        assert_eq!(a.boundaries, b.boundaries);
        assert_eq!(a.fabric.makespan, b.fabric.makespan);
    }

    #[test]
    fn free_fabric_service_takes_everything_at_once() {
        // No clock: all arrivals land at the first boundary, latencies
        // collapse to 0, but queue/active bounds still apply.
        let opts = JacobiOptions { force_sweeps: Some(1), ..Default::default() };
        let d = 1;
        let jobs: Vec<JobSpec> = (0..3)
            .map(|s| JobSpec::eigen(random_symmetric(8, 50 + s), OrderingFamily::Br, opts.clone()))
            .collect();
        let lowered = lower_all(&jobs, d);
        let plan = ServicePlan { max_active: 2, ..ServicePlan::fifo(vec![0.0, 5_000.0, 10_000.0]) };
        let run = service(d, &jobs, &lowered, FabricModel::Free, &plan);
        assert_eq!(run.served(), 3);
        for o in &run.outcomes {
            assert_eq!(o.latency(), Some(0.0), "a free fabric has no virtual latency");
        }
        assert_eq!(run.boundaries[0].active.len(), 2, "active set still bounded");
        assert_eq!(run.boundaries[0].queue_depth(), 1);
    }

    #[test]
    fn staggered_same_family_jobs_drop_the_all_port_makespan() {
        // Two identical-family, identical-size jobs collide on every link
        // when in phase; a one-transition stagger pulls their sends onto
        // different links of each round, which the all-port fabric
        // overlaps. De-phasing must not cost anything and must win here.
        let opts = JacobiOptions { force_sweeps: Some(2), ..Default::default() };
        let d = 2;
        let jobs = [
            JobSpec::eigen(random_symmetric(32, 55), OrderingFamily::Br, opts.clone()),
            JobSpec::eigen(random_symmetric(32, 56), OrderingFamily::Br, opts.clone()),
        ];
        let lowered = lower_all(&jobs, d);
        let fabric = FabricModel::Throttled(Machine::all_port(1000.0, 100.0));
        let base = ServicePlan { stagger_key: vec![7, 7], ..ServicePlan::fifo(vec![0.0, 0.0]) };
        let in_phase = service(d, &jobs, &lowered, fabric.clone(), &base);
        let staggered =
            service(d, &jobs, &lowered, fabric, &ServicePlan { stagger_slots: 2, ..base.clone() });
        assert!(
            staggered.fabric.makespan < in_phase.fabric.makespan,
            "staggered {} vs in-phase {}",
            staggered.fabric.makespan,
            in_phase.fabric.makespan
        );
        // De-phasing shifts schedules, never bits.
        for j in 0..2 {
            match (&in_phase.results[j], &staggered.results[j]) {
                (Some(JobResult::Eigen(x)), Some(JobResult::Eigen(y))) => {
                    assert_eigen_bitwise(x, y, "stagger invariance")
                }
                _ => panic!("both eigen results present"),
            }
        }
    }

    #[test]
    fn tail_pipelined_batch_jobs_stay_bitwise_solo() {
        // The tail pipeline through the batch state machine: eigen and SVD
        // jobs with chained tails, interleaved over free and throttled
        // fabrics, still produce exactly their solo (whole-block) bits —
        // alone, combined with exchange pipelining, and across degrees.
        let a0 = random_symmetric(16, 12);
        let a1 = random_symmetric(12, 13);
        let d = 2;
        let base = JacobiOptions { force_sweeps: Some(2), ..Default::default() };
        let solo_e = block_jacobi(&a0, d, OrderingFamily::Br, &base);
        let solo_s = svd_block(&a1, d, OrderingFamily::Degree4, &base);
        for tq in [2usize, 3, 5] {
            for pipelining in [Pipelining::Off, Pipelining::Fixed(2)] {
                let opts = JacobiOptions {
                    pipelining,
                    tail_pipelining: Pipelining::Fixed(tq),
                    ..base.clone()
                };
                let jobs = [
                    JobSpec::eigen(a0.clone(), OrderingFamily::Br, opts.clone()),
                    JobSpec::svd(a1.clone(), OrderingFamily::Degree4, opts.clone()),
                ];
                for fabric in
                    [FabricModel::Free, FabricModel::Throttled(Machine::all_port(1000.0, 100.0))]
                {
                    let order = BatchOrder::RoundRobin { order: vec![0, 1], stride: 2 };
                    let run = batch(d, &jobs, fabric.clone(), &order);
                    assert_eigen_bitwise(
                        run.results[0].eigen().expect("eigen"),
                        &solo_e,
                        &format!("eigen tail_q={tq} {pipelining:?}"),
                    );
                    assert_svd_bitwise(
                        run.results[1].svd().expect("svd"),
                        &solo_s,
                        &format!("svd tail_q={tq} {pipelining:?}"),
                    );
                }
            }
        }
    }
}
