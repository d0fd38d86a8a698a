//! Minimal dense linear algebra for the solvers: LU factorization with
//! partial pivoting, sized for the small systems (≤ ~10 unknowns) the
//! engine balance produces.

/// A dense row-major matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    n_rows: usize,
    n_cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix.
    pub fn zeros(n_rows: usize, n_cols: usize) -> Self {
        Self { n_rows, n_cols, data: vec![0.0; n_rows * n_cols] }
    }

    /// Identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Rows count.
    pub(crate) fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Columns count.
    pub(crate) fn n_cols(&self) -> usize {
        self.n_cols
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.n_cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.n_cols + j]
    }
}

/// Error from a singular (or numerically singular) system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Singular;

impl std::fmt::Display for Singular {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "matrix is singular to working precision")
    }
}

impl std::error::Error for Singular {}

/// Solve `A x = b` in place via LU with partial pivoting. `a` is consumed
/// as workspace.
pub fn solve(mut a: Matrix, mut b: Vec<f64>) -> Result<Vec<f64>, Singular> {
    let mut x = vec![0.0; b.len()];
    solve_into(&mut a, &mut b, &mut x)?;
    Ok(x)
}

/// [`solve`] into caller-owned storage: `a` and `b` are overwritten as
/// workspace and the solution is written to `x`, so a solver that keeps
/// the three across iterations allocates nothing here.
pub fn solve_into(a: &mut Matrix, b: &mut [f64], x: &mut [f64]) -> Result<(), Singular> {
    let n = a.n_rows();
    assert_eq!(a.n_cols(), n, "square systems only");
    assert_eq!(b.len(), n);
    assert_eq!(x.len(), n);
    for col in 0..n {
        // Pivot.
        let (pivot_row, pivot_val) = (col..n)
            .map(|r| (r, a[(r, col)].abs()))
            .max_by(|x, y| x.1.partial_cmp(&y.1).unwrap())
            .unwrap();
        if pivot_val < 1e-300 {
            return Err(Singular);
        }
        if pivot_row != col {
            for j in 0..n {
                let tmp = a[(col, j)];
                a[(col, j)] = a[(pivot_row, j)];
                a[(pivot_row, j)] = tmp;
            }
            b.swap(col, pivot_row);
        }
        // Eliminate below.
        for r in col + 1..n {
            let f = a[(r, col)] / a[(col, col)];
            if f == 0.0 {
                continue;
            }
            for j in col..n {
                a[(r, j)] -= f * a[(col, j)];
            }
            b[r] -= f * b[col];
        }
    }
    // Back substitution.
    for i in (0..n).rev() {
        let mut s = b[i];
        for j in i + 1..n {
            s -= a[(i, j)] * x[j];
        }
        x[i] = s / a[(i, i)];
    }
    Ok(())
}

/// Euclidean norm.
pub fn norm2(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A matrix from rectangular rows.
    fn from_rows(rows: &[Vec<f64>]) -> Matrix {
        Matrix { n_rows: rows.len(), n_cols: rows[0].len(), data: rows.concat() }
    }

    fn mul_vec(a: &Matrix, x: &[f64]) -> Vec<f64> {
        (0..a.n_rows).map(|i| (0..a.n_cols).map(|j| a[(i, j)] * x[j]).sum()).collect()
    }

    #[test]
    fn solves_known_system() {
        let a = from_rows(&[vec![2.0, 1.0, -1.0], vec![-3.0, -1.0, 2.0], vec![-2.0, 1.0, 2.0]]);
        let b = vec![8.0, -11.0, -3.0];
        let x = solve(a, b).unwrap();
        let expect = [2.0, 3.0, -1.0];
        for (xi, ei) in x.iter().zip(expect) {
            assert!((xi - ei).abs() < 1e-12, "{x:?}");
        }
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let x = solve(a, vec![3.0, 4.0]).unwrap();
        assert_eq!(x, vec![4.0, 3.0]);
    }

    #[test]
    fn singular_detected() {
        let a = from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert_eq!(solve(a, vec![1.0, 2.0]), Err(Singular));
    }

    #[test]
    fn identity_and_mul_vec() {
        let i = Matrix::identity(3);
        assert_eq!(mul_vec(&i, &[1.0, 2.0, 3.0]), vec![1.0, 2.0, 3.0]);
        let a = from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(mul_vec(&a, &[1.0, 1.0]), vec![3.0, 7.0]);
        assert_eq!(a.n_rows(), 2);
        assert_eq!(a.n_cols(), 2);
    }

    #[test]
    fn residual_of_solution_is_tiny() {
        // A mildly ill-conditioned 5x5.
        let rows: Vec<Vec<f64>> =
            (0..5).map(|i| (0..5).map(|j| 1.0 / (1.0 + i as f64 + j as f64)).collect()).collect();
        let a = from_rows(&rows);
        let b = vec![1.0, 0.0, 2.0, -1.0, 0.5];
        let x = solve(a.clone(), b.clone()).unwrap();
        let r: Vec<f64> = mul_vec(&a, &x).iter().zip(&b).map(|(ax, bi)| ax - bi).collect();
        assert!(norm2(&r) < 1e-8, "residual {r:?}");
    }

    #[test]
    fn norms() {
        assert_eq!(norm2(&[3.0, 4.0]), 5.0);
    }
}
