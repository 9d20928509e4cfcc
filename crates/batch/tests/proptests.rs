//! The batch subsystem's load-bearing invariant, property-tested: for
//! random job mixes (sizes, dimensions, eigen/SVD kinds, diagonal cache
//! on/off, pipelining degrees) under every scheduling policy and fabric
//! model — link deaths included — **every job's output is bitwise equal
//! to its solo run**, and on a stationary clocked fabric (throttled, or a
//! scenario whose per-link prices never change) the batch's virtual
//! makespan never exceeds the sum of the jobs' solo makespans —
//! interleaving can only fill bubbles, never add work.
//!
//! Solo references are the *logical* drivers (`block_jacobi`,
//! `svd_block`), which the threaded drivers are proven bitwise-equal to in
//! `mph-eigen`'s own tests — one equality chain, three links.

use mph_batch::{solve_batch, BatchOptions, Job, Policy};
use mph_ccpipe::{Machine, PortModel};
use mph_core::OrderingFamily;
use mph_eigen::{block_jacobi, svd_block, JacobiOptions, Pipelining};
use mph_linalg::symmetric::random_symmetric;
use mph_runtime::{FabricModel, LinkDeath, Scenario, ScenarioSpec};
use proptest::prelude::*;
use std::sync::Arc;

/// A degraded scenario (heterogeneity × jitter × episodes) on a
/// `d`-cube; with `death`, one seeded edge dies at epoch 0 or 1 and the
/// engine relays around it. A 1-cube has a single edge, so only 2-cubes
/// get deaths.
fn degraded_fabric(d: usize, seed: u64, death: bool) -> FabricModel {
    let deaths = if death && d >= 2 {
        let (node, dim, epoch) =
            ((seed % 4) as usize, (seed / 4 % 2) as usize, (seed / 8 % 2) as usize);
        vec![LinkDeath { node, dim, epoch }]
    } else {
        Vec::new()
    };
    let spec = ScenarioSpec {
        epochs: 3,
        hetero_spread: 2.0,
        rate_jitter: 0.25,
        delay_jitter: 0.25,
        episode_rate: 0.3,
        episode_recovery: 0.5,
        episode_severity: 4.0,
        deaths,
        ..ScenarioSpec::clean(seed, Machine::all_port(1000.0, 100.0))
    };
    FabricModel::Degraded(Arc::new(
        Scenario::new(d, spec).expect("a single death keeps a 2-cube connected"),
    ))
}

/// A stationary scenario: static per-link heterogeneity only, so every
/// epoch prices every link the same and the epochs a batch gives its
/// jobs cannot change their cost.
fn stationary_fabric(d: usize, seed: u64) -> FabricModel {
    let spec = ScenarioSpec {
        epochs: 3,
        hetero_spread: 2.0,
        ..ScenarioSpec::clean(seed, Machine::all_port(1000.0, 100.0))
    };
    FabricModel::Degraded(Arc::new(Scenario::new(d, spec).expect("death-free scenario")))
}

/// A cube dimension, a fabric for it, and whether that fabric's prices
/// are stationary across epochs: free, three throttled machines, a
/// stationary scenario, or a degraded scenario with or without a link
/// death (deadly draws run on a 2-cube).
fn cube_and_fabric() -> impl Strategy<Value = (usize, FabricModel, bool)> {
    (1usize..=2, 0usize..=6, 0u64..500).prop_map(|(d, f, seed)| match f {
        0 => (d, FabricModel::Free, true),
        1 => (d, FabricModel::Throttled(Machine::all_port(1000.0, 100.0)), true),
        2 => (d, FabricModel::Throttled(Machine::one_port(1000.0, 100.0)), true),
        3 => (
            d,
            FabricModel::Throttled(Machine { ts: 50.0, tw: 3.0, ports: PortModel::KPort(2) }),
            true,
        ),
        4 => (d, stationary_fabric(d, seed), true),
        5 => (d, degraded_fabric(d, seed, false), false),
        _ => (2, degraded_fabric(2, seed, true), false),
    })
}

fn policy_strategy() -> impl Strategy<Value = Policy> {
    prop_oneof![
        Just(Policy::Fifo),
        Just(Policy::Interleave { stride: 1 }),
        Just(Policy::Interleave { stride: 2 }),
        Just(Policy::ShortestPlanFirst),
    ]
}

/// A deterministic pseudo-random job mix: kinds alternate, families
/// rotate, sizes vary (uneven partitions included), all derived from the
/// case's seed.
fn job_mix(njobs: usize, d: usize, seed: u64, opts: JacobiOptions) -> Vec<Job> {
    let nblocks = 2 << d;
    (0..njobs)
        .map(|i| {
            let s = seed as usize + i;
            let m = nblocks * (1 + (s % 2)) + ((seed as usize + 3 * i) % 3);
            let a = random_symmetric(m, seed + 31 * i as u64);
            let family = OrderingFamily::ALL[s % OrderingFamily::ALL.len()];
            if s.is_multiple_of(2) {
                Job::Eigen { a, family, opts: opts.clone() }
            } else {
                Job::Svd { a, family, opts: opts.clone() }
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn batched_jobs_are_bitwise_solo_and_never_slower_than_serial(
        cube in cube_and_fabric(),
        njobs in 1usize..=3,
        policy in policy_strategy(),
        seed in 0u64..1000,
        cache in any::<bool>(),
        qsel in 0usize..=2,
        sweeps in 1usize..=2,
    ) {
        let (d, fabric, stationary) = cube;
        let pipelining = [Pipelining::Off, Pipelining::Fixed(2), Pipelining::Fixed(5)][qsel];
        let opts = JacobiOptions {
            force_sweeps: Some(sweeps),
            cache_diagonals: cache,
            pipelining,
            ..Default::default()
        };
        let jobs = job_mix(njobs, d, seed, opts);
        let report = solve_batch(d, &jobs, &BatchOptions { fabric: fabric.clone(), policy, ..Default::default() });

        // 1. Bitwise: every job's batched result == its solo run.
        for (i, job) in jobs.iter().enumerate() {
            match job {
                Job::Eigen { a, family, opts } => {
                    let solo = block_jacobi(a, d, *family, opts);
                    let got = report.results[i].eigen().expect("eigen result");
                    prop_assert_eq!(got.rotations, solo.rotations, "job {} rotations", i);
                    prop_assert_eq!(got.sweeps, solo.sweeps, "job {} sweeps", i);
                    for c in 0..a.cols() {
                        prop_assert_eq!(got.eigenvalues[c], solo.eigenvalues[c],
                            "job {} λ_{}", i, c);
                        prop_assert_eq!(got.eigenvectors.col(c), solo.eigenvectors.col(c),
                            "job {} u_{}", i, c);
                    }
                }
                Job::Svd { a, family, opts } => {
                    let solo = svd_block(a, d, *family, opts);
                    let got = report.results[i].svd().expect("svd result");
                    prop_assert_eq!(got.rotations, solo.rotations, "job {} rotations", i);
                    for c in 0..a.cols() {
                        prop_assert_eq!(got.singular_values[c], solo.singular_values[c],
                            "job {} σ_{}", i, c);
                        prop_assert_eq!(got.u.col(c), solo.u.col(c), "job {} u_{}", i, c);
                        prop_assert_eq!(got.v.col(c), solo.v.col(c), "job {} v_{}", i, c);
                    }
                }
            }
        }

        // 2. Per-job traffic partitions the blended totals exactly.
        let job_sum: u64 = (0..njobs).map(|j| report.meter.job_volume(j)).sum();
        prop_assert_eq!(job_sum, report.meter.total_volume());

        // 3. On the virtual clock, the batch never exceeds the sum of the
        //    solo makespans (each measured on the same fabric). The bound
        //    needs stationary prices: a scenario prices each sweep at the
        //    epoch it runs in, and a batch runs its later jobs' sweeps at
        //    later epochs than their solo runs do.
        prop_assert!(!fabric.is_throttled() || report.makespan > 0.0);
        if fabric.is_throttled() && stationary {
            let solo_sum: f64 = jobs
                .iter()
                .map(|job| {
                    solve_batch(
                        d,
                        std::slice::from_ref(job),
                        &BatchOptions { fabric: fabric.clone(), ..Default::default() },
                    )
                    .makespan
                })
                .sum();
            prop_assert!(
                report.makespan <= solo_sum * (1.0 + 1e-9),
                "batch {} vs Σ solo {}",
                report.makespan,
                solo_sum
            );
        }
    }

    #[test]
    fn tail_packetization_is_bitwise_invisible_through_solve_batch(
        cube in cube_and_fabric(),
        seed in 0u64..1000,
        cache in any::<bool>(),
        tsel in 0usize..=4,
    ) {
        let (d, fabric, _) = cube;
        // The batch driver's tail machine (TailSend/TailRecv) pairs each
        // division/last packet before shipping it — the reference pairing
        // re-tiled by packet boundary — so every tail degree (including Q
        // larger than any chained run and the cost-driven Auto choice)
        // reproduces the tail-off batch bit for bit on every fabric.
        let tail = [
            Pipelining::Fixed(1),
            Pipelining::Fixed(2),
            Pipelining::Fixed(5),
            Pipelining::Fixed(8),
            Pipelining::Auto(Machine::all_port(1000.0, 100.0)),
        ][tsel];
        let mk = |tail_pipelining| JacobiOptions {
            force_sweeps: Some(1),
            cache_diagonals: cache,
            tail_pipelining,
            ..Default::default()
        };
        let batch_opts = BatchOptions { fabric, ..Default::default() };
        let base = solve_batch(d, &job_mix(2, d, seed, mk(Pipelining::Off)), &batch_opts);
        let run = solve_batch(d, &job_mix(2, d, seed, mk(tail)), &batch_opts);
        for (i, (x, y)) in base.results.iter().zip(&run.results).enumerate() {
            match (x.eigen(), y.eigen()) {
                (Some(a), Some(b)) => {
                    prop_assert_eq!(a.rotations, b.rotations, "{:?} job {}", tail, i);
                    for c in 0..a.eigenvalues.len() {
                        prop_assert_eq!(a.eigenvalues[c], b.eigenvalues[c],
                            "{:?} job {} λ_{}", tail, i, c);
                        prop_assert_eq!(a.eigenvectors.col(c), b.eigenvectors.col(c),
                            "{:?} job {} u_{}", tail, i, c);
                    }
                }
                _ => {
                    let a = x.svd().expect("svd result");
                    let b = y.svd().expect("svd result");
                    prop_assert_eq!(a.rotations, b.rotations, "{:?} job {}", tail, i);
                    for c in 0..a.singular_values.len() {
                        prop_assert_eq!(a.singular_values[c], b.singular_values[c],
                            "{:?} job {} σ_{}", tail, i, c);
                        prop_assert_eq!(a.u.col(c), b.u.col(c), "{:?} job {} u_{}", tail, i, c);
                        prop_assert_eq!(a.v.col(c), b.v.col(c), "{:?} job {} v_{}", tail, i, c);
                    }
                }
            }
        }
    }

    #[test]
    fn worker_counts_are_bitwise_identical_through_solve_batch(
        d in 1usize..=2,
        seed in 0u64..1000,
        cache in any::<bool>(),
        q2 in any::<bool>(),
    ) {
        // Intra-node worker pools split pair work by pair index, so the
        // whole batch — eigen and SVD jobs alike — produces identical bits
        // for every worker count, under caching and pipelining.
        let mk = |workers: usize| JacobiOptions {
            force_sweeps: Some(1),
            cache_diagonals: cache,
            pipelining: if q2 { Pipelining::Fixed(2) } else { Pipelining::Off },
            workers,
            ..Default::default()
        };
        let base = solve_batch(d, &job_mix(2, d, seed, mk(1)), &BatchOptions::default());
        for workers in [2usize, 4, 8] {
            let run = solve_batch(d, &job_mix(2, d, seed, mk(workers)), &BatchOptions::default());
            for (i, (x, y)) in base.results.iter().zip(&run.results).enumerate() {
                match (x.eigen(), y.eigen()) {
                    (Some(a), Some(b)) => {
                        prop_assert_eq!(a.rotations, b.rotations, "workers={} job {}", workers, i);
                        for c in 0..a.eigenvalues.len() {
                            prop_assert_eq!(a.eigenvalues[c], b.eigenvalues[c],
                                "workers={} job {} λ_{}", workers, i, c);
                            prop_assert_eq!(a.eigenvectors.col(c), b.eigenvectors.col(c),
                                "workers={} job {} u_{}", workers, i, c);
                        }
                    }
                    _ => {
                        let a = x.svd().expect("svd result");
                        let b = y.svd().expect("svd result");
                        prop_assert_eq!(a.rotations, b.rotations, "workers={} job {}", workers, i);
                        for c in 0..a.singular_values.len() {
                            prop_assert_eq!(a.singular_values[c], b.singular_values[c],
                                "workers={} job {} σ_{}", workers, i, c);
                            prop_assert_eq!(a.u.col(c), b.u.col(c),
                                "workers={} job {} u_{}", workers, i, c);
                            prop_assert_eq!(a.v.col(c), b.v.col(c),
                                "workers={} job {} v_{}", workers, i, c);
                        }
                    }
                }
            }
        }
    }
}
