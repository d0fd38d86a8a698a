//! Damped Newton–Raphson with a finite-difference Jacobian.
//!
//! The engine balance is a small square system (4–6 unknowns) whose
//! residuals come from map lookups and thermodynamic relations; no
//! analytic Jacobian exists, so it is built column-by-column with forward
//! differences. A simple backtracking line search keeps iterates from
//! overshooting map boundaries.

use crate::linalg::{norm2, solve_into, Matrix};

/// Options for [`newton_solve`].
#[derive(Debug, Clone)]
pub struct NewtonOptions {
    /// Convergence threshold on the residual 2-norm.
    pub tol: f64,
    /// Maximum Newton iterations.
    pub max_iters: usize,
    /// Relative step used for the finite-difference Jacobian.
    pub fd_step: f64,
    /// Backtracking halvings allowed per iteration.
    pub max_backtracks: usize,
}

impl Default for NewtonOptions {
    fn default() -> Self {
        Self { tol: 1e-8, max_iters: 60, fd_step: 1e-6, max_backtracks: 12 }
    }
}

/// Why a solve failed.
#[derive(Debug, Clone, PartialEq)]
pub enum NewtonError {
    /// Residual function reported an error (e.g. off-map operating point).
    Residual(String),
    /// The Jacobian became singular.
    SingularJacobian { iteration: usize },
    /// Out of iterations.
    NoConvergence { iterations: usize, residual_norm: f64 },
}

impl std::fmt::Display for NewtonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NewtonError::Residual(m) => write!(f, "residual evaluation failed: {m}"),
            NewtonError::SingularJacobian { iteration } => {
                write!(f, "singular Jacobian at iteration {iteration}")
            }
            NewtonError::NoConvergence { iterations, residual_norm } => write!(
                f,
                "no convergence after {iterations} iterations (|r| = {residual_norm:.3e})"
            ),
        }
    }
}

impl std::error::Error for NewtonError {}

/// A successful solve.
#[derive(Debug, Clone, PartialEq)]
pub struct NewtonReport {
    /// The solution vector.
    pub x: Vec<f64>,
    /// Final residual 2-norm.
    pub residual_norm: f64,
    /// Newton iterations used.
    pub iterations: usize,
    /// Residual function evaluations used (including Jacobian columns).
    pub evaluations: usize,
}

/// Solve `f(x) = 0` starting from `x0`.
///
/// `f` writes the residual vector (same length as `x`) into its second
/// argument, or returns a message when the point is infeasible (the line
/// search treats that as "too far" and backtracks). The solver's
/// buffers are allocated once per solve — the iterate and one scratch
/// block up front, the Jacobian at the first Newton step — so an
/// evaluation allocates nothing here.
pub fn newton_solve(
    mut f: impl FnMut(&[f64], &mut [f64]) -> Result<(), String>,
    x0: &[f64],
    opts: &NewtonOptions,
) -> Result<NewtonReport, NewtonError> {
    let n = x0.len();
    let mut x = x0.to_vec();
    // The residual at `x`; a probe or trial point and its residual; the
    // Newton step and its right-hand side.
    let mut scratch = vec![0.0; 5 * n];
    let (r, rest) = scratch.split_at_mut(n);
    let (xt, rest) = rest.split_at_mut(n);
    let (rt, rest) = rest.split_at_mut(n);
    let (dx, rhs) = rest.split_at_mut(n);
    let mut jac: Option<Matrix> = None;
    let mut evals = 0usize;

    let mut eval = |x: &[f64], r: &mut [f64], evals: &mut usize| -> Result<(), String> {
        *evals += 1;
        f(x, r)
    };
    // `xt = x + lambda * dx`.
    let trial = |xt: &mut [f64], x: &[f64], dx: &[f64], lambda: f64| {
        for ((t, xi), di) in xt.iter_mut().zip(x).zip(dx) {
            *t = xi + lambda * di;
        }
    };

    eval(&x, r, &mut evals).map_err(NewtonError::Residual)?;
    let mut rnorm = norm2(r);

    for iter in 0..opts.max_iters {
        if rnorm <= opts.tol {
            return Ok(NewtonReport {
                x,
                residual_norm: rnorm,
                iterations: iter,
                evaluations: evals,
            });
        }

        // Forward-difference Jacobian, column per unknown; every entry is
        // rewritten, so the factorised matrix of the last iteration can
        // be reused.
        let jac = jac.get_or_insert_with(|| Matrix::zeros(n, n));
        for j in 0..n {
            let h = opts.fd_step * x[j].abs().max(1e-4);
            xt.copy_from_slice(&x);
            xt[j] += h;
            eval(xt, rt, &mut evals).map_err(NewtonError::Residual)?;
            for i in 0..n {
                jac[(i, j)] = (rt[i] - r[i]) / h;
            }
        }

        for (b, v) in rhs.iter_mut().zip(r.iter()) {
            *b = -v;
        }
        solve_into(jac, rhs, dx).map_err(|_| NewtonError::SingularJacobian { iteration: iter })?;

        // Backtracking line search: accept the first step that reduces
        // the residual norm; infeasible evaluations also trigger
        // backtracking.
        let mut lambda = 1.0;
        let mut accepted = false;
        for _ in 0..=opts.max_backtracks {
            trial(xt, &x, dx, lambda);
            // An infeasible trial shrinks the step.
            if eval(xt, rt, &mut evals).is_ok() {
                let rtn = norm2(rt);
                if rtn < rnorm || rtn <= opts.tol {
                    x.copy_from_slice(xt);
                    r.copy_from_slice(rt);
                    rnorm = rtn;
                    accepted = true;
                    break;
                }
            }
            lambda *= 0.5;
        }
        if !accepted {
            // Take the smallest step anyway to avoid stalling exactly at
            // a non-descending point of the FD model.
            trial(xt, &x, dx, lambda);
            if eval(xt, rt, &mut evals).is_ok() {
                x.copy_from_slice(xt);
                rnorm = norm2(rt);
                r.copy_from_slice(rt);
            } else {
                return Err(NewtonError::NoConvergence {
                    iterations: iter + 1,
                    residual_norm: rnorm,
                });
            }
        }
    }

    if rnorm <= opts.tol {
        Ok(NewtonReport { x, residual_norm: rnorm, iterations: opts.max_iters, evaluations: evals })
    } else {
        Err(NewtonError::NoConvergence { iterations: opts.max_iters, residual_norm: rnorm })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_linear_system_in_one_step() {
        let f = |x: &[f64], r: &mut [f64]| {
            r.copy_from_slice(&[2.0 * x[0] - 4.0, x[1] + 1.0]);
            Ok(())
        };
        let rep = newton_solve(f, &[0.0, 0.0], &NewtonOptions::default()).unwrap();
        assert!((rep.x[0] - 2.0).abs() < 1e-8);
        assert!((rep.x[1] + 1.0).abs() < 1e-8);
        assert!(rep.iterations <= 2);
    }

    #[test]
    fn solves_coupled_nonlinear_system() {
        // x² + y² = 4, x·y = 1 (solution near (1.93, 0.52)).
        let f = |x: &[f64], r: &mut [f64]| {
            r.copy_from_slice(&[x[0] * x[0] + x[1] * x[1] - 4.0, x[0] * x[1] - 1.0]);
            Ok(())
        };
        let rep = newton_solve(f, &[2.0, 0.3], &NewtonOptions::default()).unwrap();
        let (x, y) = (rep.x[0], rep.x[1]);
        assert!((x * x + y * y - 4.0).abs() < 1e-7);
        assert!((x * y - 1.0).abs() < 1e-7);
    }

    #[test]
    fn backtracks_through_infeasible_region() {
        // sqrt is infeasible for negative arguments; full Newton steps
        // from x=9 toward the root of sqrt(x) - 1 = 0 overshoot into
        // negative territory and must be damped.
        let f = |x: &[f64], r: &mut [f64]| {
            if x[0] < 0.0 {
                return Err("negative".to_string());
            }
            r[0] = x[0].sqrt() - 1.0;
            Ok(())
        };
        let rep = newton_solve(f, &[9.0], &NewtonOptions::default()).unwrap();
        assert!((rep.x[0] - 1.0).abs() < 1e-6, "{:?}", rep.x);
    }

    #[test]
    fn reports_no_convergence() {
        // f(x) = 1 + x² has no real root.
        let f = |x: &[f64], r: &mut [f64]| {
            r[0] = 1.0 + x[0] * x[0];
            Ok(())
        };
        let err = newton_solve(f, &[1.0], &NewtonOptions { max_iters: 10, ..Default::default() })
            .unwrap_err();
        // Depending on where the iteration lands, failure may surface as
        // exhausted iterations or as a singular Jacobian at the minimum.
        assert!(
            matches!(err, NewtonError::NoConvergence { .. } | NewtonError::SingularJacobian { .. }),
            "{err}"
        );
    }

    #[test]
    fn reports_initial_residual_failure() {
        let f = |_: &[f64], _: &mut [f64]| Err("bad start".to_string());
        let err = newton_solve(f, &[1.0], &NewtonOptions::default()).unwrap_err();
        assert!(matches!(err, NewtonError::Residual(_)));
    }

    #[test]
    fn quadratic_convergence_iteration_count() {
        // Rosenbrock-ish gradient system; should converge well under the
        // iteration cap from a decent guess.
        let f = |x: &[f64], r: &mut [f64]| {
            r[0] = -2.0 * (1.0 - x[0]) - 400.0 * x[0] * (x[1] - x[0] * x[0]);
            r[1] = 200.0 * (x[1] - x[0] * x[0]);
            Ok(())
        };
        let rep = newton_solve(f, &[0.8, 0.6], &NewtonOptions::default()).unwrap();
        assert!((rep.x[0] - 1.0).abs() < 1e-6);
        assert!((rep.x[1] - 1.0).abs() < 1e-6);
        assert!(rep.iterations <= 60);
    }
}
