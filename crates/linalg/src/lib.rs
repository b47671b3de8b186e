//! Dense linear-algebra and statistics substrate for the nrpm workspace.
//!
//! The crate deliberately avoids external BLAS/LAPACK bindings: every kernel
//! the performance modelers rely on — matrix multiplication, Householder QR,
//! least-squares solves, descriptive statistics — is implemented here in
//! Rust. Matrix multiplication runs on an explicit register-blocked
//! micro-kernel ([`kernel`]) with one-shot runtime ISA dispatch
//! (AVX-512 / AVX2+FMA / portable scalar), packed cache-friendly panels for
//! large operands, a direct streaming path for small ones, and row-stripe
//! parallelism over std scoped threads — while keeping results
//! bitwise identical at every thread count. A packed int8 GEMM ([`qgemm`])
//! backs the quantized inference fast path in the serving stack.
//!
//! # Quick example
//!
//! ```
//! use nrpm_linalg::{Matrix, lstsq};
//!
//! // Fit y = 2x + 1 through three points.
//! let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 2.0], &[1.0, 3.0]]);
//! let y = [3.0, 5.0, 7.0];
//! let c = lstsq(&a, &y).unwrap();
//! assert!((c[0] - 1.0).abs() < 1e-10);
//! assert!((c[1] - 2.0).abs() < 1e-10);
//! ```

#![warn(missing_docs)]

mod error;
pub mod kernel;
mod matmul;
mod matrix;
pub mod qgemm;
mod qr;
pub mod stats;
mod thread_budget;
mod vector;

pub use error::LinalgError;
pub use kernel::{kernel_isa, KernelIsa, PackedGemmB};
pub use matmul::{
    default_threads, matmul, matmul_at_into, matmul_into, matmul_prepacked_into, matmul_threaded,
    matvec, MatmulOptions, MIN_FLOPS_PER_THREAD,
};
pub use matrix::Matrix;
pub use qgemm::{gemm_i8, QuantizedGemmB};
pub use qr::{lstsq, lstsq_into, solve_upper_triangular, QrDecomposition};
pub use thread_budget::ThreadBudget;
pub use vector::{axpy, dot, norm2, norm_inf, scale};

/// Convenience alias used across the workspace for result types.
pub type Result<T> = std::result::Result<T, LinalgError>;
