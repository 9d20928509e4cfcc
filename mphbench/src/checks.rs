//! Output checks, computed by the benchmark itself and never inside a
//! timed region.

use mph_batch::Job;
use mph_eigen::{EigenResult, JobResult, SvdResult};
use mph_linalg::Matrix;

fn frobenius(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// `‖A·X − Y·diag(s)‖_F / ‖A‖_F` for column-major `A` (`rows × n`),
/// `X` (`n × k`), `Y` (`rows × k`).
fn relative_residual(a: &Matrix, x: &Matrix, y: &Matrix, s: &[f64]) -> f64 {
    let rows = a.rows();
    let mut sum = 0.0;
    let mut col = vec![0.0; rows];
    for (j, &sj) in s.iter().enumerate().take(x.cols()) {
        col.fill(0.0);
        for (k, &xkj) in x.col(j).iter().enumerate() {
            for (c, &aik) in col.iter_mut().zip(a.col(k)) {
                *c += aik * xkj;
            }
        }
        for (c, &yij) in col.iter().zip(y.col(j)) {
            let r = c - yij * sj;
            sum += r * r;
        }
    }
    sum.sqrt() / frobenius(a.as_slice())
}

/// `‖QᵀQ − I‖_F` over the columns of `q`.
fn orthogonality(q: &Matrix) -> f64 {
    let mut sum = 0.0;
    for i in 0..q.cols() {
        for j in i..q.cols() {
            let g: f64 = q.col(i).iter().zip(q.col(j)).map(|(a, b)| a * b).sum();
            let e = if i == j { g - 1.0 } else { g };
            sum += if i == j { e * e } else { 2.0 * e * e };
        }
    }
    sum.sqrt()
}

/// Residual and orthogonality of one job's result.
pub fn accuracy(job: &Job, result: &JobResult) -> (f64, f64) {
    match (job, result) {
        (Job::Eigen { a, .. }, JobResult::Eigen(r)) => eigen_accuracy(a, r),
        (Job::Svd { a, .. }, JobResult::Svd(r)) => svd_accuracy(a, r),
        _ => (f64::INFINITY, f64::INFINITY),
    }
}

/// `‖AU − UΛ‖_F/‖A‖_F` and `‖UᵀU − I‖_F`.
pub fn eigen_accuracy(a: &Matrix, r: &EigenResult) -> (f64, f64) {
    (
        relative_residual(a, &r.eigenvectors, &r.eigenvectors, &r.eigenvalues),
        orthogonality(&r.eigenvectors),
    )
}

/// `‖AV − UΣ‖_F/‖A‖_F` and `‖VᵀV − I‖_F`.
pub fn svd_accuracy(a: &Matrix, r: &SvdResult) -> (f64, f64) {
    (relative_residual(a, &r.v, &r.u, &r.singular_values), orthogonality(&r.v))
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Whether two results are bitwise identical, including their sweep and
/// rotation counts. The `converged` flag is left out: after forced
/// sweeps the threaded drivers report `true`, while the logical driver
/// reports whether the tolerance happens to be met.
pub fn bitwise_equal(x: &JobResult, y: &JobResult) -> bool {
    match (x, y) {
        (JobResult::Eigen(p), JobResult::Eigen(q)) => {
            p.sweeps == q.sweeps
                && p.rotations == q.rotations
                && same_bits(&p.eigenvalues, &q.eigenvalues)
                && same_bits(p.eigenvectors.as_slice(), q.eigenvectors.as_slice())
        }
        (JobResult::Svd(p), JobResult::Svd(q)) => {
            p.sweeps == q.sweeps
                && p.rotations == q.rotations
                && same_bits(&p.singular_values, &q.singular_values)
                && same_bits(p.u.as_slice(), q.u.as_slice())
                && same_bits(p.v.as_slice(), q.v.as_slice())
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{symmetric, Rng};
    use mph_core::OrderingFamily;
    use mph_eigen::{block_jacobi, JacobiOptions};

    #[test]
    fn a_converged_solve_passes_and_a_perturbed_one_fails() {
        let a = symmetric(16, &mut Rng::new(1, 0));
        let r = block_jacobi(&a, 1, OrderingFamily::Br, &JacobiOptions::default());
        let (res, orth) = eigen_accuracy(&a, &r);
        assert!(res < 1e-8 && orth < 1e-12, "residual {res}, orthogonality {orth}");
        let mut bad = r.clone();
        bad.eigenvalues[0] += 1e-3;
        assert!(eigen_accuracy(&a, &bad).0 > 1e-5);
        let (x, y) = (JobResult::Eigen(r), JobResult::Eigen(bad));
        assert!(bitwise_equal(&x, &x) && !bitwise_equal(&x, &y));
    }
}
