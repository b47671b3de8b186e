//! Register-blocked GEMM micro-kernels with one-time runtime ISA dispatch.
//!
//! This module is the compute core behind [`crate::matmul_into`] and
//! [`crate::matmul_at_into`]. It replaces the old autovectorized "ikj" loop
//! with an explicit micro-kernel design:
//!
//! * **Micro-tile** — a fixed `MR x NR` register accumulator block
//!   (8x16 doubles on AVX-512, 4x8 sub-tiles on AVX2+FMA) updated with FMA
//!   broadcasts of `A` against vector loads of `B`.
//! * **Two data paths** — a *direct* path that streams `B` rows straight
//!   from the caller's buffer with masked edge loads (wins when the `B`
//!   panel is cache-resident or `M` is small, e.g. the trainer's 16-row
//!   chunks and the first DNN layer where `K = 11`), and a *packed* path
//!   that copies `A`/`B` into contiguous zero-padded panels first (wins on
//!   large weight matrices such as the paper topology's 1500x1500 layers).
//! * **Pre-packed `B`** ([`PackedGemmB`], [`crate::matmul_prepacked_into`])
//!   — for a `B` that is multiplied many times, such as a served layer's
//!   weights, the packed panels are built once and kept. The layout is
//!   [`pack_b_full`]'s: 16-column panels, zero-padded to whole panels,
//!   `k`-major inside a panel and cut into `KC`-row chunks, so chunk
//!   `(jp, k0)` is one contiguous `KC x NR` block (32 KiB) at
//!   `NR * (jp * k + k0)`. Up to [`STATIONARY_MAX_M`] rows a
//!   *weight-stationary* loop stages every row of `A` once, reads each
//!   chunk of each panel from memory once, front to back, and runs every
//!   row tile (8 rows on AVX-512, 4 on AVX2) over it while it is in L1.
//!   The direct path instead reads `B` as 16-column strips one full row
//!   apart, which runs below the rate of a sequential read even at the
//!   1–2 serving rows, and reads it again for every further row tile.
//!   Above 16 rows the pre-packed panels feed the packed path's loop nest
//!   unchanged, with nothing packed per call.
//! * **Blocking** — the shared `k` dimension is always walked in fixed
//!   [`KC`]-sized chunks, and the packed path blocks `M` by `MC`. `MC`
//!   and the direct/packed crossover (`DIRECT_LIMIT`, `DIRECT_MIN_M`) are
//!   constants, so a product's path and blocking depend only on the ISA
//!   and its shape.
//!
//! # Determinism
//!
//! Every path — direct, packed, pre-packed, scalar fallback, any `MC`
//! choice, any thread-stripe partition — accumulates each output element
//! in the exact same order: `KC`-sized k-chunks ascending, plain ascending
//! `k` inside a chunk, one fused multiply-add per term, chunk sums added to
//! `C` in ascending chunk order. SIMD lanes only ever span output *columns*, never
//! the reduction dimension. Consequently the block sizes, the path choice
//! and the thread count are pure performance knobs: changing any of them
//! cannot change a single output bit. This is what lets the f64 training
//! path stay bitwise-identical at every thread count while the kernel
//! underneath is rewritten. (Results still differ across *machines* whose
//! selected ISA differs — a non-FMA scalar fallback rounds each
//! multiply-add in two steps — exactly as any FMA-using BLAS does.)
//!
//! # Environment overrides
//!
//! * `NRPM_MATMUL_ISA` — force `scalar` or `avx2` (downgrades only), so the
//!   AVX2 and scalar kernels can be tested on an AVX-512 host.

// The micro-kernels index fixed-size register-tile arrays by row/column on
// purpose: the loop indices mirror the MR x NR blocking and the offsets into
// the strided C buffer, which iterator adapters would obscure.
#![allow(clippy::needless_range_loop, clippy::manual_memcpy)]

use std::sync::OnceLock;

/// Fixed block size along the shared `k` dimension.
///
/// The k-chunk size fixes the floating-point association of every dot
/// product, so it is a constant of the numerics, not a tuning value. 256
/// doubles (2 KiB per packed column) keeps the active `B` panel rows in L1
/// on every x86-64 of the last decade.
pub const KC: usize = 256;

/// Micro-tile rows: the packing geometry groups `A` rows in blocks of 8.
pub const MR: usize = 8;

/// Micro-tile columns: `B` is packed in 16-column panels.
pub const NR: usize = 16;

/// Row-block size of the packed path's `A` panels (a multiple of [`MR`]).
const MC: usize = 64;

/// `B` operands of at most this many elements take the direct path.
const DIRECT_LIMIT: usize = 512 * 1024;

/// Below this many output rows the packed path cannot amortize packing.
const DIRECT_MIN_M: usize = 64;

/// Instruction set selected once per process for the f64 and int8 kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelIsa {
    /// AVX-512F (+BW for the int8 kernel): 8x16 f64 micro-tile.
    Avx512,
    /// AVX2 + FMA: 4x8 f64 sub-tiles over the same packed geometry.
    Avx2,
    /// Portable fallback: blocked scalar loops, no FMA.
    Scalar,
}

impl KernelIsa {
    /// Whether this ISA contracts each multiply-add into a single rounding.
    pub fn uses_fma(self) -> bool {
        !matches!(self, KernelIsa::Scalar)
    }
}

static ISA: OnceLock<KernelIsa> = OnceLock::new();

/// The ISA the kernels will use, detected once per process.
pub fn kernel_isa() -> KernelIsa {
    *ISA.get_or_init(detect_isa)
}

fn detect_isa() -> KernelIsa {
    let forced = std::env::var("NRPM_MATMUL_ISA").ok();
    #[cfg(target_arch = "x86_64")]
    {
        let avx512 = is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512bw");
        let avx2 = is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma");
        match forced.as_deref() {
            Some("scalar") => KernelIsa::Scalar,
            Some("avx2") if avx2 => KernelIsa::Avx2,
            _ if avx512 => KernelIsa::Avx512,
            _ if avx2 => KernelIsa::Avx2,
            _ => KernelIsa::Scalar,
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = forced;
        KernelIsa::Scalar
    }
}

/// Which compute path a product takes. Both paths are bitwise identical;
/// the choice is purely about cache behavior.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GemmPath {
    /// Stream `B` in place with masked edge loads; no packing.
    Direct,
    /// Copy `A`/`B` into contiguous zero-padded panels first.
    Packed,
}

/// Picks direct vs packed for an `m x k * k x n` product.
///
/// Depends only on the shape (never on the data or the thread stripe), so
/// every stripe of one product — and the sequential run of the same shape —
/// agrees on the path.
pub(crate) fn choose_path(isa: KernelIsa, m: usize, k: usize, n: usize) -> GemmPath {
    if isa == KernelIsa::Scalar {
        return GemmPath::Direct; // scalar has a single code path
    }
    if m < DIRECT_MIN_M || k * n <= DIRECT_LIMIT {
        GemmPath::Direct
    } else {
        GemmPath::Packed
    }
}

/// A strided view of the left operand: element `(row, kk)` lives at
/// `data[row * rs + kk * ks]`. `(rs, ks) = (k, 1)` for `A` itself and
/// `(1, m)` for `Aᵀ`, which is how `matmul_at_into` reuses every kernel
/// here without materializing the transpose.
#[derive(Clone, Copy)]
pub(crate) struct AView<'a> {
    pub data: &'a [f64],
    pub rs: usize,
    pub ks: usize,
}

/// Packs all of `B` (`k x n` row-major) into 16-column zero-padded panels,
/// k-major inside each panel, `KC`-chunked along `k`. Panel `(jp, k0)`
/// starts at `NR * (jp * k + k0)`.
pub(crate) fn pack_b_full(b: &[f64], k: usize, n: usize, out: &mut Vec<f64>) {
    let np = n.div_ceil(NR);
    out.clear();
    out.resize(np * k * NR, 0.0);
    for jp in 0..np {
        let col0 = jp * NR;
        let ncols = NR.min(n - col0);
        let mut k0 = 0;
        while k0 < k {
            let kc = KC.min(k - k0);
            let base = NR * (jp * k + k0);
            for kk in 0..kc {
                let src = &b[(k0 + kk) * n + col0..(k0 + kk) * n + col0 + ncols];
                let dst = &mut out[base + kk * NR..base + kk * NR + ncols];
                dst.copy_from_slice(src);
            }
            k0 += KC;
        }
    }
}

/// A right-hand operand (`k x n`, row-major `f64`) packed once, in the
/// [`pack_b_full`] panel layout, for [`crate::matmul_prepacked_into`].
///
/// Packing a layer's weights once per checkpoint instead of once per call
/// (or not at all, on the direct path) lets every later product read each
/// `KC x NR` chunk as one contiguous 32 KiB block.
#[derive(Clone)]
pub struct PackedGemmB {
    data: Vec<f64>,
    k: usize,
    n: usize,
}

impl PackedGemmB {
    /// Packs a `k x n` row-major matrix.
    pub fn pack(b: &[f64], k: usize, n: usize) -> PackedGemmB {
        assert_eq!(b.len(), k * n, "PackedGemmB::pack: shape mismatch");
        let mut data = Vec::new();
        pack_b_full(b, k, n, &mut data);
        PackedGemmB { data, k, n }
    }

    /// Rows of the unpacked matrix (the shared dimension).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Columns of the unpacked matrix.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Bytes held by the packed panels (the last one zero-padded).
    pub fn bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f64>()
    }
}

impl std::fmt::Debug for PackedGemmB {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PackedGemmB")
            .field("k", &self.k)
            .field("n", &self.n)
            .finish()
    }
}

/// Packs `mc` rows of the (possibly strided) left operand starting at
/// global row `row0`, depth window `[k0, k0+kc)`, into `MR`-row groups
/// (group `g` at `g * kc * MR`, element `(kk, i)` at `kk * MR + i`),
/// zero-padding the last group.
fn pack_a(a: AView<'_>, row0: usize, mc: usize, k0: usize, kc: usize, out: &mut [f64]) {
    let groups = mc.div_ceil(MR);
    for g in 0..groups {
        let base = g * kc * MR;
        let rows_here = MR.min(mc - g * MR);
        for kk in 0..kc {
            let dst = &mut out[base + kk * MR..base + (kk + 1) * MR];
            for (i, slot) in dst.iter_mut().enumerate() {
                *slot = if i < rows_here {
                    a.data[(row0 + g * MR + i) * a.rs + (k0 + kk) * a.ks]
                } else {
                    0.0
                };
            }
        }
    }
}

/// Computes one thread-stripe of `C += A*B` serially. `c` is the stripe's
/// `rows x n` row-major slice; `row0` is its first global row. `C` must be
/// zeroed by the caller. For `GemmPath::Packed` the caller may supply a
/// pre-packed `B` (shared across stripes); otherwise it is packed here.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_stripe(
    isa: KernelIsa,
    a: AView<'_>,
    b: &[f64],
    packed_b: Option<&[f64]>,
    c: &mut [f64],
    row0: usize,
    rows: usize,
    k: usize,
    n: usize,
    path: GemmPath,
) {
    if rows == 0 || n == 0 || k == 0 {
        return;
    }
    match (isa, path) {
        (KernelIsa::Scalar, _) => scalar_stripe(a, b, c, row0, rows, k, n, false),
        #[cfg(target_arch = "x86_64")]
        (_, GemmPath::Direct) => x86::direct_stripe(isa, a, b, c, row0, rows, k, n),
        #[cfg(target_arch = "x86_64")]
        (_, GemmPath::Packed) => {
            let mut local;
            let pb = match packed_b {
                Some(pb) => pb,
                None => {
                    local = Vec::new();
                    pack_b_full(b, k, n, &mut local);
                    &local[..]
                }
            };
            x86::packed_stripe(isa, a, pb, c, row0, rows, k, n);
        }
        #[cfg(not(target_arch = "x86_64"))]
        _ => scalar_stripe(a, b, c, row0, rows, k, n, false),
    }
}

/// Products of at most this many rows keep every row of `A` resident and
/// stream each panel of a [`PackedGemmB`] once; larger ones take the
/// packed GEBP loop nest.
pub const STATIONARY_MAX_M: usize = 16;

/// Computes one thread-stripe of `C = A*B` against a pre-packed `B`, in
/// the same accumulation order as [`gemm_stripe`]. `c` is the stripe's
/// `rows x n` slice and `row0` its first global row.
pub(crate) fn prepacked_stripe(
    isa: KernelIsa,
    a: AView<'_>,
    b: &PackedGemmB,
    c: &mut [f64],
    row0: usize,
    rows: usize,
) {
    let (k, n) = (b.k, b.n);
    if rows == 0 || n == 0 || k == 0 {
        return;
    }
    match isa {
        KernelIsa::Scalar => scalar_panel_stripe(a, &b.data, c, row0, rows, k, n),
        #[cfg(target_arch = "x86_64")]
        _ if rows <= STATIONARY_MAX_M => {
            x86::stationary_stripe(isa, a, &b.data, c, row0, rows, k, n)
        }
        #[cfg(target_arch = "x86_64")]
        _ => x86::packed_stripe(isa, a, &b.data, c, row0, rows, k, n),
        #[cfg(not(target_arch = "x86_64"))]
        _ => scalar_panel_stripe(a, &b.data, c, row0, rows, k, n),
    }
}

/// Serial full-matrix GEMM on an explicit path (test hooks).
#[allow(clippy::too_many_arguments)]
fn gemm_serial(
    isa: KernelIsa,
    a: AView<'_>,
    b: &[f64],
    c: &mut [f64],
    row0: usize,
    rows: usize,
    k: usize,
    n: usize,
    path: GemmPath,
) {
    c.fill(0.0);
    gemm_stripe(isa, a, b, None, c, row0, rows, k, n, path);
}

/// Blocked scalar kernel; also the *reference semantics* for every SIMD
/// path when `fma` is true: per element, `KC`-chunk sums accumulated with
/// `mul_add` in ascending `k`; the first chunk's sum is *stored* to `C`
/// (the caller zeroed it, so a load-add would only waste bandwidth — this
/// matters for small `k`, where the epilogue rivals the FMA work), later
/// chunks added in ascending order.
#[allow(clippy::too_many_arguments)]
pub(crate) fn scalar_stripe(
    a: AView<'_>,
    b: &[f64],
    c: &mut [f64],
    row0: usize,
    rows: usize,
    k: usize,
    n: usize,
    fma: bool,
) {
    const JT: usize = 8;
    let mut k0 = 0;
    while k0 < k {
        let kc = KC.min(k - k0);
        for r in 0..rows {
            let cr = &mut c[r * n..(r + 1) * n];
            let mut jr = 0;
            while jr < n {
                let w = JT.min(n - jr);
                let mut acc = [0.0f64; JT];
                for kk in 0..kc {
                    let av = a.data[(row0 + r) * a.rs + (k0 + kk) * a.ks];
                    let br = &b[(k0 + kk) * n + jr..(k0 + kk) * n + jr + w];
                    if fma {
                        for j in 0..w {
                            acc[j] = av.mul_add(br[j], acc[j]);
                        }
                    } else {
                        for j in 0..w {
                            acc[j] += av * br[j];
                        }
                    }
                }
                if k0 == 0 {
                    for j in 0..w {
                        cr[jr + j] = acc[j];
                    }
                } else {
                    for j in 0..w {
                        cr[jr + j] += acc[j];
                    }
                }
                jr += JT;
            }
        }
        k0 += KC;
    }
}

/// [`scalar_stripe`] without FMA (the scalar ISA's semantics) reading `B`
/// from [`pack_b_full`] panels: the same per-element association, walked
/// panel by panel.
fn scalar_panel_stripe(
    a: AView<'_>,
    pb: &[f64],
    c: &mut [f64],
    row0: usize,
    rows: usize,
    k: usize,
    n: usize,
) {
    for jp in 0..n.div_ceil(NR) {
        let col0 = jp * NR;
        let w = NR.min(n - col0);
        let mut k0 = 0;
        while k0 < k {
            let kc = KC.min(k - k0);
            let chunk = &pb[NR * (jp * k + k0)..NR * (jp * k + k0 + kc)];
            for r in 0..rows {
                let mut acc = [0.0f64; NR];
                for (kk, br) in chunk.chunks_exact(NR).enumerate() {
                    let av = a.data[(row0 + r) * a.rs + (k0 + kk) * a.ks];
                    for j in 0..NR {
                        acc[j] += av * br[j];
                    }
                }
                let cr = &mut c[r * n + col0..r * n + col0 + w];
                if k0 == 0 {
                    cr.copy_from_slice(&acc[..w]);
                } else {
                    for (slot, v) in cr.iter_mut().zip(&acc) {
                        *slot += v;
                    }
                }
            }
            k0 += KC;
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{AView, KernelIsa, KC, MC, MR, NR};
    use std::arch::x86_64::*;
    use std::cell::RefCell;

    /// Lane masks of the two 8-wide halves of a `nr`-column edge group.
    fn edge_masks_512(nr: usize) -> (u8, u8) {
        let m0: u8 = if nr >= 8 {
            0xff
        } else {
            (1u8 << nr).wrapping_sub(1)
        };
        let m1: u8 = if nr <= 8 {
            0
        } else {
            (1u8 << (nr - 8)).wrapping_sub(1)
        };
        (m0, m1)
    }

    /// Direct path: stream `B` rows in place, masked loads at the column
    /// edge, one `C` write per `KC` chunk (the first chunk stores, later
    /// chunks load-add).
    #[allow(clippy::too_many_arguments)]
    pub(super) fn direct_stripe(
        isa: KernelIsa,
        a: AView<'_>,
        b: &[f64],
        c: &mut [f64],
        row0: usize,
        rows: usize,
        k: usize,
        n: usize,
    ) {
        // Per-row-tile A staging: element `(kk, i)` of the current tile at
        // `kk * MRK + i`. One base pointer with constant displacements in
        // the micro-kernel, instead of `MRK` live row pointers that would
        // spill out of the integer register file.
        let mut apk = [0.0f64; MR * KC];
        let mut k0 = 0;
        while k0 < k {
            let kc = KC.min(k - k0);
            let mut ir = 0;
            while ir < rows {
                // The whole remainder up to the register tile is one tile,
                // so a ragged row count streams `B` once, not once per
                // power-of-two piece.
                macro_rules! tile {
                    ($cols:ident, $mrk:expr, $($m:literal)|+) => {
                        match $mrk {
                            $($m => $cols::<$m>(a, b, c, &mut apk, row0, ir, k0, kc, n),)+
                            _ => unreachable!("row tile is clamped to the register tile"),
                        }
                    };
                }
                let rem = rows - ir;
                match isa {
                    // SAFETY: `isa` is only Avx512/Avx2 when the CPU
                    // reported the matching features at dispatch time.
                    KernelIsa::Avx512 => unsafe {
                        let mrk = rem.min(8);
                        tile!(direct_cols_512, mrk, 1 | 2 | 3 | 4 | 5 | 6 | 7 | 8);
                        ir += mrk;
                    },
                    KernelIsa::Avx2 => unsafe {
                        let mrk = rem.min(4);
                        tile!(direct_cols_256, mrk, 1 | 2 | 3 | 4);
                        ir += mrk;
                    },
                    KernelIsa::Scalar => unreachable!("scalar has its own stripe"),
                }
            }
            k0 += KC;
        }
    }

    /// Shares `kd512`'s target features so the micro-kernel inlines into
    /// the `jr` loop (a plain caller would pay a full call — argument
    /// arrays spilled through the stack — per 16-column group).
    #[target_feature(enable = "avx512f")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn direct_cols_512<const MRK: usize>(
        a: AView<'_>,
        b: &[f64],
        c: &mut [f64],
        apk: &mut [f64; super::MR * KC],
        row0: usize,
        ir: usize,
        k0: usize,
        kc: usize,
        n: usize,
    ) {
        let ad = a.data.as_ptr();
        // First C row of this tile; the micro-kernel walks rows by `n`.
        let ctile = unsafe { c.as_mut_ptr().add(ir * n) };
        // Pack kk-outer so the writes are contiguous (i-outer strided
        // writes tempt the autovectorizer into scatter stores).
        let mut rp = [std::ptr::null::<f64>(); MRK];
        for (i, p) in rp.iter_mut().enumerate() {
            // In bounds: row0+ir+i < m and k0 < k.
            *p = unsafe { ad.add((row0 + ir + i) * a.rs + k0 * a.ks) };
        }
        for kk in 0..kc {
            for i in 0..MRK {
                apk[kk * MRK + i] = unsafe { *rp[i].add(kk * a.ks) };
            }
        }
        let bbase = unsafe { b.as_ptr().add(k0 * n) };
        let full = n - n % NR;
        let mut jr = 0;
        while jr < full {
            unsafe {
                // C rows share B's stride; the prefetch warms the next
                // column group's slice of this B row: the 16-column stride
                // down B defeats the hardware streamer, so without it every
                // group re-pulls B from L2.
                kd512::<MRK, true>(
                    apk.as_ptr(),
                    bbase.add(jr),
                    n,
                    n,
                    NR,
                    kc,
                    ctile.add(jr),
                    0xff,
                    0xff,
                    k0 == 0,
                )
            };
            jr += NR;
        }
        if jr < n {
            let (m0, m1) = edge_masks_512(n - jr);
            unsafe {
                kd512::<MRK, false>(
                    apk.as_ptr(),
                    bbase.wrapping_add(jr),
                    n,
                    n,
                    NR,
                    kc,
                    ctile.wrapping_add(jr),
                    m0,
                    m1,
                    k0 == 0,
                )
            };
        }
    }

    /// 8-wide masks for AVX2 `maskload`/`maskstore` (row `w` enables the
    /// first `w` lanes).
    const LANE_MASKS: [[i64; 4]; 5] = [
        [0, 0, 0, 0],
        [-1, 0, 0, 0],
        [-1, -1, 0, 0],
        [-1, -1, -1, 0],
        [-1, -1, -1, -1],
    ];

    #[target_feature(enable = "avx2", enable = "fma")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn direct_cols_256<const MRK: usize>(
        a: AView<'_>,
        b: &[f64],
        c: &mut [f64],
        apk: &mut [f64; super::MR * KC],
        row0: usize,
        ir: usize,
        k0: usize,
        kc: usize,
        n: usize,
    ) {
        let ad = a.data.as_ptr();
        let ctile = unsafe { c.as_mut_ptr().add(ir * n) };
        for i in 0..MRK {
            let ap = unsafe { ad.add((row0 + ir + i) * a.rs + k0 * a.ks) };
            for kk in 0..kc {
                apk[kk * MRK + i] = unsafe { *ap.add(kk * a.ks) };
            }
        }
        let bbase = unsafe { b.as_ptr().add(k0 * n) };
        let fullm = unsafe { _mm256_loadu_si256(LANE_MASKS[4].as_ptr() as *const __m256i) };
        let full = n - n % 8;
        let mut jr = 0;
        while jr < full {
            unsafe {
                kd256::<MRK>(
                    apk.as_ptr(),
                    bbase.add(jr),
                    n,
                    n,
                    kc,
                    ctile.add(jr),
                    fullm,
                    fullm,
                    k0 == 0,
                )
            };
            jr += 8;
        }
        if jr < n {
            let nr = n - jr;
            let w0 = nr.min(4);
            let w1 = nr.saturating_sub(4);
            let m0 = unsafe { _mm256_loadu_si256(LANE_MASKS[w0].as_ptr() as *const __m256i) };
            let m1 = unsafe { _mm256_loadu_si256(LANE_MASKS[w1].as_ptr() as *const __m256i) };
            unsafe {
                kd256::<MRK>(
                    apk.as_ptr(),
                    bbase.wrapping_add(jr),
                    n,
                    n,
                    kc,
                    ctile.wrapping_add(jr),
                    m0,
                    m1,
                    k0 == 0,
                )
            };
        }
    }

    /// Prefetch distance of the weight-stationary path, in `B` elements:
    /// 32 rows (4 KiB) further down the same panel. Chunks and panels are
    /// stored back to back, so near a chunk's end it reaches into the
    /// chunk or panel read next. (On the 2-vCPU AVX-512 VM, 16 to 128
    /// rows and no prefetch at all measured within noise of each other:
    /// the hardware streamer already follows a front-to-back read.)
    const STATIONARY_PF: usize = 32 * NR;

    thread_local! {
        /// The row-tiled copy of `A` the weight-stationary path reads,
        /// reused across calls so a warm caller does not allocate.
        static A_STAGE: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
    }

    /// Weight-stationary path for at most `STATIONARY_MAX_M` rows against
    /// [`super::pack_b_full`] panels. Every row of `A` is staged once; then
    /// each `KC x NR` chunk of each panel (32 KiB) is read from memory once
    /// and every row tile runs over it while it sits in L1. Panels are
    /// walked in order and chunks ascend inside a panel, so `B` streams
    /// front to back and each output element still adds its chunks in
    /// ascending order (the first stores, later ones load-add).
    #[allow(clippy::too_many_arguments)]
    pub(super) fn stationary_stripe(
        isa: KernelIsa,
        a: AView<'_>,
        pb: &[f64],
        c: &mut [f64],
        row0: usize,
        rows: usize,
        k: usize,
        n: usize,
    ) {
        // The micro-kernels read `kc` panel rows and write `mrk` rows of
        // `c` through raw pointers; these bounds make every such access
        // land inside the slices.
        assert!(pb.len() >= n.div_ceil(NR) * k * NR && c.len() >= rows * n);
        let tile = if isa == KernelIsa::Avx512 { MR } else { 4 };
        A_STAGE.with(|stage| {
            let mut stage = stage.borrow_mut();
            stage.clear();
            stage.resize(rows * k, 0.0);
            // The tile starting at row `ir` (height `mrk`) holds element
            // `(kk, i)` at `ir * k + kk * mrk + i`.
            let mut ir = 0;
            while ir < rows {
                let mrk = tile.min(rows - ir);
                let dst = &mut stage[ir * k..(ir + mrk) * k];
                for i in 0..mrk {
                    let src = (row0 + ir + i) * a.rs;
                    for kk in 0..k {
                        dst[kk * mrk + i] = a.data[src + kk * a.ks];
                    }
                }
                ir += mrk;
            }
            for jp in 0..n.div_ceil(NR) {
                let col0 = jp * NR;
                let nr = NR.min(n - col0);
                let mut k0 = 0;
                while k0 < k {
                    let kc = KC.min(k - k0);
                    let bp = pb[NR * (jp * k + k0)..].as_ptr();
                    let store = k0 == 0;
                    let mut ir = 0;
                    while ir < rows {
                        let mrk = tile.min(rows - ir);
                        let ap = stage[ir * k + k0 * mrk..].as_ptr();
                        let cp = c[ir * n + col0..].as_mut_ptr();
                        macro_rules! tile {
                            ($f:ident, $($m:literal)|+) => {
                                match mrk {
                                    $($m => $f::<$m>(ap, bp, kc, cp, n, nr, store),)+
                                    _ => unreachable!("row tile is clamped to the register tile"),
                                }
                            };
                        }
                        match isa {
                            // SAFETY: `isa` is only Avx512/Avx2 when the CPU
                            // reported the matching features at dispatch
                            // time; `ap`/`bp` cover `kc` staged/panel rows
                            // and `cp` the tile's `mrk` rows of `nr` columns.
                            KernelIsa::Avx512 => unsafe {
                                tile!(stationary_tile_512, 1 | 2 | 3 | 4 | 5 | 6 | 7 | 8)
                            },
                            KernelIsa::Avx2 => unsafe { tile!(stationary_tile_256, 1 | 2 | 3 | 4) },
                            KernelIsa::Scalar => unreachable!("scalar has its own stripe"),
                        }
                        ir += mrk;
                    }
                    k0 += KC;
                }
            }
        });
    }

    /// One row tile over one panel chunk: `B` rows are `NR` apart, `C`
    /// rows `ldc`; only the last panel's `C` columns are masked (`B` is
    /// zero-padded to whole panels).
    ///
    /// # Safety
    ///
    /// The CPU supports AVX-512F; `ap` holds `kc * MRK` staged values,
    /// `bp` `kc` full panel rows of `NR` values, and `cp` `MRK` rows, `ldc`
    /// apart, of `nr ≤ NR` writable values each.
    #[target_feature(enable = "avx512f")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn stationary_tile_512<const MRK: usize>(
        ap: *const f64,
        bp: *const f64,
        kc: usize,
        cp: *mut f64,
        ldc: usize,
        nr: usize,
        store: bool,
    ) {
        // SAFETY: the caller's contract is `kd512`'s, with `ldb = NR`; the
        // edge masks enable only the `nr` columns `cp` may write.
        unsafe {
            if nr == NR {
                kd512::<MRK, true>(ap, bp, NR, ldc, STATIONARY_PF, kc, cp, 0xff, 0xff, store);
            } else {
                let (m0, m1) = edge_masks_512(nr);
                kd512::<MRK, false>(ap, bp, NR, ldc, 0, kc, cp, m0, m1, store);
            }
        }
    }

    /// [`stationary_tile_512`] on AVX2: the 16-column panel as two 8-column
    /// halves.
    ///
    /// # Safety
    ///
    /// As [`stationary_tile_512`], with AVX2 and FMA in place of AVX-512F.
    #[target_feature(enable = "avx2", enable = "fma")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn stationary_tile_256<const MRK: usize>(
        ap: *const f64,
        bp: *const f64,
        kc: usize,
        cp: *mut f64,
        ldc: usize,
        nr: usize,
        store: bool,
    ) {
        for half in 0..2 {
            let w = nr.saturating_sub(half * 8).min(8);
            if w == 0 {
                break;
            }
            // SAFETY: the caller's contract covers `kd256`'s with `ldb =
            // NR`; the half's masks enable only its `w` writable columns,
            // and `bp + 8` stays inside the padded panel row.
            unsafe {
                let m0 = _mm256_loadu_si256(LANE_MASKS[w.min(4)].as_ptr() as *const __m256i);
                let m1 =
                    _mm256_loadu_si256(LANE_MASKS[w.saturating_sub(4)].as_ptr() as *const __m256i);
                kd256::<MRK>(
                    ap,
                    bp.add(half * 8),
                    NR,
                    ldc,
                    kc,
                    cp.wrapping_add(half * 8),
                    m0,
                    m1,
                    store,
                );
            }
        }
    }

    /// AVX-512 micro-kernel: `MRK` rows x 16 columns, `C += A*B` over one
    /// `KC` chunk. `B` rows are `ldb` apart (`n` on the direct path, `NR`
    /// in a pre-packed panel) and `C` rows `ldc` apart; `pf` is the
    /// element offset, from the current `B` row, that the full-width loop
    /// prefetches. Column edges are masked; masked-off lanes of a
    /// `maskz` load never fault, so `b`/`c` pointers may dangle past the
    /// row end (they are built with `wrapping_add` and only dereferenced
    /// under the mask). `store` marks the first `KC` chunk: its sums are
    /// written straight to `C` without the load-add round trip (mirrors
    /// the `scalar_stripe` reference semantics bit for bit). `FULL` means
    /// all 16 columns are in bounds, so plain loads/stores replace the
    /// masked forms (identical lanes, cheaper encodings). The k-loop is
    /// manually unrolled 4x (the FMA order per accumulator is unchanged —
    /// still one sequential chain — so results stay bitwise identical);
    /// LLVM's unroller gives up on the 30-instruction body, and at small
    /// `kc` the loop control is a measurable slice of each group.
    #[inline]
    #[target_feature(enable = "avx512f")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn kd512<const MRK: usize, const FULL: bool>(
        apk: *const f64,
        b: *const f64,
        ldb: usize,
        ldc: usize,
        pf: usize,
        kc: usize,
        cp: *mut f64,
        m0: u8,
        m1: u8,
        store: bool,
    ) {
        let mut acc = [[_mm512_setzero_pd(); 2]; MRK];
        let mut aoff = 0usize;
        let mut boff = 0usize;
        macro_rules! step {
            () => {{
                let (b0, b1) = if FULL {
                    // Warm `pf` elements past the current B row while we
                    // compute on it (see the callers for the target).
                    // Prefetches never fault, so running past the end of
                    // `B` on the last rows is fine.
                    _mm_prefetch::<_MM_HINT_T0>(b.wrapping_add(boff + pf) as *const i8);
                    (
                        _mm512_loadu_pd(b.wrapping_add(boff)),
                        _mm512_loadu_pd(b.wrapping_add(boff + 8)),
                    )
                } else {
                    (
                        _mm512_maskz_loadu_pd(m0, b.wrapping_add(boff)),
                        _mm512_maskz_loadu_pd(m1, b.wrapping_add(boff + 8)),
                    )
                };
                for i in 0..MRK {
                    let av = _mm512_set1_pd(*apk.add(aoff + i));
                    acc[i][0] = _mm512_fmadd_pd(av, b0, acc[i][0]);
                    acc[i][1] = _mm512_fmadd_pd(av, b1, acc[i][1]);
                }
                aoff += MRK;
                boff += ldb;
            }};
        }
        let mut kk = 0;
        while kk + 4 <= kc {
            step!();
            step!();
            step!();
            step!();
            kk += 4;
        }
        while kk < kc {
            step!();
            kk += 1;
        }
        match (FULL, store) {
            (true, true) => {
                for i in 0..MRK {
                    let p = cp.add(i * ldc);
                    _mm512_storeu_pd(p, acc[i][0]);
                    _mm512_storeu_pd(p.add(8), acc[i][1]);
                }
            }
            (true, false) => {
                for i in 0..MRK {
                    let p = cp.add(i * ldc);
                    let o0 = _mm512_loadu_pd(p);
                    let o1 = _mm512_loadu_pd(p.add(8));
                    _mm512_storeu_pd(p, _mm512_add_pd(o0, acc[i][0]));
                    _mm512_storeu_pd(p.add(8), _mm512_add_pd(o1, acc[i][1]));
                }
            }
            (false, true) => {
                for i in 0..MRK {
                    let p = cp.wrapping_add(i * ldc);
                    _mm512_mask_storeu_pd(p, m0, acc[i][0]);
                    _mm512_mask_storeu_pd(p.wrapping_add(8), m1, acc[i][1]);
                }
            }
            (false, false) => {
                for i in 0..MRK {
                    let p = cp.wrapping_add(i * ldc);
                    let o0 = _mm512_maskz_loadu_pd(m0, p);
                    let o1 = _mm512_maskz_loadu_pd(m1, p.wrapping_add(8));
                    _mm512_mask_storeu_pd(p, m0, _mm512_add_pd(o0, acc[i][0]));
                    _mm512_mask_storeu_pd(p.wrapping_add(8), m1, _mm512_add_pd(o1, acc[i][1]));
                }
            }
        }
    }

    /// AVX2+FMA micro-kernel: `MRK` rows x 8 columns, strides as in
    /// `kd512`.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn kd256<const MRK: usize>(
        apk: *const f64,
        b: *const f64,
        ldb: usize,
        ldc: usize,
        kc: usize,
        cp: *mut f64,
        m0: __m256i,
        m1: __m256i,
        store: bool,
    ) {
        let mut acc = [[_mm256_setzero_pd(); 2]; MRK];
        let mut aoff = 0usize;
        let mut boff = 0usize;
        // Manual 4x k-unroll, same sequential FMA chain per accumulator as
        // the rolled loop (bitwise identical) — see `kd512`.
        macro_rules! step {
            () => {{
                let b0 = _mm256_maskload_pd(b.wrapping_add(boff), m0);
                let b1 = _mm256_maskload_pd(b.wrapping_add(boff + 4), m1);
                for i in 0..MRK {
                    let av = _mm256_set1_pd(*apk.add(aoff + i));
                    acc[i][0] = _mm256_fmadd_pd(av, b0, acc[i][0]);
                    acc[i][1] = _mm256_fmadd_pd(av, b1, acc[i][1]);
                }
                aoff += MRK;
                boff += ldb;
            }};
        }
        let mut kk = 0;
        while kk + 4 <= kc {
            step!();
            step!();
            step!();
            step!();
            kk += 4;
        }
        while kk < kc {
            step!();
            kk += 1;
        }
        if store {
            for i in 0..MRK {
                let p = cp.wrapping_add(i * ldc);
                _mm256_maskstore_pd(p, m0, acc[i][0]);
                _mm256_maskstore_pd(p.wrapping_add(4), m1, acc[i][1]);
            }
        } else {
            for i in 0..MRK {
                let p = cp.wrapping_add(i * ldc);
                let o0 = _mm256_maskload_pd(p, m0);
                let o1 = _mm256_maskload_pd(p.wrapping_add(4), m1);
                _mm256_maskstore_pd(p, m0, _mm256_add_pd(o0, acc[i][0]));
                _mm256_maskstore_pd(p.wrapping_add(4), m1, _mm256_add_pd(o1, acc[i][1]));
            }
        }
    }

    /// Packed path: GEBP loop nest over pre-packed `B` panels and locally
    /// packed `A` blocks; micro-kernel writes a full `MR x NR` accumulator
    /// tile which is then edge-trimmed into `C`.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn packed_stripe(
        isa: KernelIsa,
        a: AView<'_>,
        pb: &[f64],
        c: &mut [f64],
        row0: usize,
        rows: usize,
        k: usize,
        n: usize,
    ) {
        let mut apbuf = vec![0.0f64; MC * KC];
        let mut acc = [0.0f64; MR * NR];
        let mut ic = 0;
        while ic < rows {
            let mc = MC.min(rows - ic);
            let mut k0 = 0;
            while k0 < k {
                let kc = KC.min(k - k0);
                super::pack_a(a, row0 + ic, mc, k0, kc, &mut apbuf);
                for jp in 0..n.div_ceil(NR) {
                    let bp = &pb[NR * (jp * k + k0)..];
                    let jcol = jp * NR;
                    let nr = NR.min(n - jcol);
                    let mut ir = 0;
                    while ir < mc {
                        let mr = MR.min(mc - ir);
                        let apan = &apbuf[(ir / MR) * kc * MR..];
                        match isa {
                            KernelIsa::Avx512 => unsafe {
                                kp512(apan.as_ptr(), bp.as_ptr(), kc, acc.as_mut_ptr());
                            },
                            KernelIsa::Avx2 => unsafe {
                                for rsub in 0..2 {
                                    for chalf in 0..2 {
                                        kp256(
                                            apan.as_ptr().add(rsub * 4),
                                            bp.as_ptr().add(chalf * 8),
                                            kc,
                                            acc.as_mut_ptr().add(rsub * 4 * NR + chalf * 8),
                                        );
                                    }
                                }
                            },
                            KernelIsa::Scalar => unreachable!("scalar has its own stripe"),
                        }
                        for i in 0..mr {
                            let co = (ic + ir + i) * n + jcol;
                            let crow = &mut c[co..co + nr];
                            if k0 == 0 {
                                // First KC chunk stores (C is zeroed);
                                // matches the reference semantics.
                                for (j, slot) in crow.iter_mut().enumerate() {
                                    *slot = acc[i * NR + j];
                                }
                            } else {
                                for (j, slot) in crow.iter_mut().enumerate() {
                                    *slot += acc[i * NR + j];
                                }
                            }
                        }
                        ir += MR;
                    }
                }
                k0 += KC;
            }
            ic += MC;
        }
    }

    /// AVX-512 packed micro-kernel: 8x16 tile from `MR`-strided `A` panel
    /// and `NR`-strided `B` panel, result written to `acc` (row-major 8x16).
    #[target_feature(enable = "avx512f")]
    unsafe fn kp512(ap: *const f64, bp: *const f64, kc: usize, acc: *mut f64) {
        let mut r = [[_mm512_setzero_pd(); 2]; 8];
        for kk in 0..kc {
            let b0 = _mm512_loadu_pd(bp.add(kk * NR));
            let b1 = _mm512_loadu_pd(bp.add(kk * NR + 8));
            let abase = ap.add(kk * MR);
            for i in 0..8 {
                let av = _mm512_set1_pd(*abase.add(i));
                r[i][0] = _mm512_fmadd_pd(av, b0, r[i][0]);
                r[i][1] = _mm512_fmadd_pd(av, b1, r[i][1]);
            }
        }
        for i in 0..8 {
            _mm512_storeu_pd(acc.add(i * NR), r[i][0]);
            _mm512_storeu_pd(acc.add(i * NR + 8), r[i][1]);
        }
    }

    /// AVX2+FMA packed micro-kernel: a 4x8 quadrant of the 8x16 tile
    /// (`ap`/`bp`/`acc` pre-offset by the caller; strides stay `MR`/`NR`).
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn kp256(ap: *const f64, bp: *const f64, kc: usize, acc: *mut f64) {
        let mut r = [[_mm256_setzero_pd(); 2]; 4];
        for kk in 0..kc {
            let b0 = _mm256_loadu_pd(bp.add(kk * NR));
            let b1 = _mm256_loadu_pd(bp.add(kk * NR + 4));
            let abase = ap.add(kk * MR);
            for i in 0..4 {
                let av = _mm256_set1_pd(*abase.add(i));
                r[i][0] = _mm256_fmadd_pd(av, b0, r[i][0]);
                r[i][1] = _mm256_fmadd_pd(av, b1, r[i][1]);
            }
        }
        for i in 0..4 {
            _mm256_storeu_pd(acc.add(i * NR), r[i][0]);
            _mm256_storeu_pd(acc.add(i * NR + 4), r[i][1]);
        }
    }
}

/// Test hooks: run the GEMM on an explicit path or with reference
/// semantics, independent of the shape-based path choice.
#[doc(hidden)]
pub mod testing {
    use super::*;

    /// Full product on the active ISA over a forced path.
    pub fn gemm_forced(
        a: &[f64],
        b: &[f64],
        m: usize,
        k: usize,
        n: usize,
        path: GemmPath,
    ) -> Vec<f64> {
        let mut c = vec![0.0; m * n];
        gemm_serial(
            kernel_isa(),
            AView {
                data: a,
                rs: k,
                ks: 1,
            },
            b,
            &mut c,
            0,
            m,
            k,
            n,
            path,
        );
        c
    }

    /// Full product through [`crate::matmul_prepacked_into`] on a freshly
    /// packed `B`, with a `threads` budget and no work floor (so a budget
    /// above one really splits the rows).
    pub fn gemm_prepacked(
        a: &[f64],
        b: &[f64],
        m: usize,
        k: usize,
        n: usize,
        threads: usize,
    ) -> Vec<f64> {
        let a = crate::Matrix::from_vec(m, k, a.to_vec());
        let mut c = crate::Matrix::zeros(m, n);
        let opts = crate::MatmulOptions {
            threads,
            parallel_threshold: 1,
            min_flops_per_thread: 1,
        };
        crate::matmul_prepacked_into(&a, &PackedGemmB::pack(b, k, n), &mut c, opts)
            .expect("shapes agree");
        c.as_slice().to_vec()
    }

    /// Scalar KC-chunked reference with the same association as the SIMD
    /// kernels (`fma: true` mirrors the FMA contraction).
    pub fn gemm_reference(
        a: &[f64],
        b: &[f64],
        m: usize,
        k: usize,
        n: usize,
        fma: bool,
    ) -> Vec<f64> {
        let mut c = vec![0.0; m * n];
        scalar_stripe(
            AView {
                data: a,
                rs: k,
                ks: 1,
            },
            b,
            &mut c,
            0,
            m,
            k,
            n,
            fma,
        );
        c
    }

    /// Transposed-A product (`C = AᵀB`, `a` is `k x m`) over a forced path.
    pub fn gemm_at_forced(
        a: &[f64],
        b: &[f64],
        k: usize,
        m: usize,
        n: usize,
        path: GemmPath,
    ) -> Vec<f64> {
        let mut c = vec![0.0; m * n];
        gemm_serial(
            kernel_isa(),
            AView {
                data: a,
                rs: 1,
                ks: m,
            },
            b,
            &mut c,
            0,
            m,
            k,
            n,
            path,
        );
        c
    }

    /// Transposed-A scalar reference.
    pub fn gemm_at_reference(
        a: &[f64],
        b: &[f64],
        k: usize,
        m: usize,
        n: usize,
        fma: bool,
    ) -> Vec<f64> {
        let mut c = vec![0.0; m * n];
        scalar_stripe(
            AView {
                data: a,
                rs: 1,
                ks: m,
            },
            b,
            &mut c,
            0,
            m,
            k,
            n,
            fma,
        );
        c
    }
}

#[cfg(test)]
mod tests {
    use super::testing::*;
    use super::*;
    use crate::{MatmulOptions, Matrix};

    fn fill(len: usize, seed: u64) -> Vec<f64> {
        let mut s = seed | 1;
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s % 1000) as f64 / 500.0 - 1.0
            })
            .collect()
    }

    fn naive(a: &[f64], b: &[f64], m: usize, k: usize, n: usize) -> Vec<f64> {
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for kk in 0..k {
                    s += a[i * k + kk] * b[kk * n + j];
                }
                c[i * n + j] = s;
            }
        }
        c
    }

    const SHAPES: &[(usize, usize, usize)] = &[
        (1, 1, 1),
        (1, 11, 43),
        (3, 7, 2),
        (3, 300, 40),
        (5, 257, 17),
        (6, 11, 33),
        (7, 600, 47),
        (8, 8, 8),
        (16, 11, 256),
        (17, 300, 13),
        (9, 257, 33),
        (128, 11, 64),
        (65, 64, 65),
        (2, 1000, 3),
    ];

    #[test]
    fn direct_and_packed_match_naive() {
        for &(m, k, n) in SHAPES {
            let a = fill(m * k, 7);
            let b = fill(k * n, 11);
            let want = naive(&a, &b, m, k, n);
            for path in [GemmPath::Direct, GemmPath::Packed] {
                let got = gemm_forced(&a, &b, m, k, n, path);
                for (x, y) in got.iter().zip(&want) {
                    assert!(
                        (x - y).abs() < 1e-9 * (1.0 + y.abs()),
                        "{m}x{k}x{n} {path:?}: {x} vs {y}"
                    );
                }
            }
        }
    }

    #[test]
    fn direct_packed_and_reference_are_bitwise_identical() {
        let fma = kernel_isa().uses_fma();
        for &(m, k, n) in SHAPES {
            let a = fill(m * k, 3);
            let b = fill(k * n, 5);
            let d = gemm_forced(&a, &b, m, k, n, GemmPath::Direct);
            let p = gemm_forced(&a, &b, m, k, n, GemmPath::Packed);
            let r = gemm_reference(&a, &b, m, k, n, fma);
            assert_eq!(d, p, "direct vs packed at {m}x{k}x{n}");
            assert_eq!(d, r, "kernel vs reference at {m}x{k}x{n}");
        }
    }

    #[test]
    fn transposed_paths_are_bitwise_identical() {
        let fma = kernel_isa().uses_fma();
        for &(k, m, n) in &[
            (1usize, 1usize, 1usize),
            (16, 300, 43),
            (53, 96, 71),
            (300, 11, 8),
        ] {
            let a = fill(k * m, 13);
            let b = fill(k * n, 17);
            let d = gemm_at_forced(&a, &b, k, m, n, GemmPath::Direct);
            let p = gemm_at_forced(&a, &b, k, m, n, GemmPath::Packed);
            let r = gemm_at_reference(&a, &b, k, m, n, fma);
            assert_eq!(d, p, "direct vs packed at k={k} m={m} n={n}");
            assert_eq!(d, r, "kernel vs reference at k={k} m={m} n={n}");
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn prepacked_matches_reference_bitwise_on_layer_shapes() {
        // Every row count of the weight-stationary path and the first one
        // past it, on the paper network's layer widths and on depths either
        // side of a `KC` boundary. Rows of the reference are independent,
        // so one 17-row reference serves every `m`.
        let fma = kernel_isa().uses_fma();
        for k in [11, 255, 257, 1500] {
            for n in [43, 250, 750, 1500] {
                let a = fill(17 * k, 19);
                let b = fill(k * n, 23);
                let want = bits(&gemm_reference(&a, &b, 17, k, n, fma));
                let pb = PackedGemmB::pack(&b, k, n);
                let mut c = Matrix::zeros(0, n);
                for m in 1..=17 {
                    let am = Matrix::from_vec(m, k, a[..m * k].to_vec());
                    c.resize(m, n);
                    let opts = MatmulOptions {
                        threads: 1,
                        ..Default::default()
                    };
                    crate::matmul_prepacked_into(&am, &pb, &mut c, opts).unwrap();
                    assert_eq!(bits(c.as_slice()), want[..m * n], "{m}x{k}x{n}");
                }
            }
        }
    }

    #[test]
    fn prepacked_is_bitwise_equal_at_any_thread_budget() {
        // 17 rows split into stationary stripes; 70 rows into packed ones.
        let fma = kernel_isa().uses_fma();
        for (m, k, n) in [(17, 300, 250), (70, 257, 43)] {
            let a = fill(m * k, 29);
            let b = fill(k * n, 31);
            let want = bits(&gemm_reference(&a, &b, m, k, n, fma));
            for threads in [1, 2, 3] {
                let got = gemm_prepacked(&a, &b, m, k, n, threads);
                assert_eq!(bits(&got), want, "{m}x{k}x{n} at {threads} threads");
            }
        }
    }

    #[test]
    fn prepacked_empty_dims_are_noops() {
        assert!(gemm_prepacked(&[], &[1.0; 12], 0, 3, 4, 1).is_empty());
        assert_eq!(gemm_prepacked(&[], &[], 2, 0, 2, 1), vec![0.0; 4]);
        assert!(gemm_prepacked(&[1.0, 2.0], &[], 2, 1, 0, 1).is_empty());
    }

    #[test]
    fn empty_dims_are_noops() {
        for path in [GemmPath::Direct, GemmPath::Packed] {
            assert!(gemm_forced(&[], &[], 0, 3, 4, path).is_empty());
            assert_eq!(gemm_forced(&[], &[], 2, 0, 2, path), vec![0.0; 4]);
            assert!(gemm_forced(&[1.0, 2.0], &[], 2, 1, 0, path).is_empty());
        }
    }

    #[test]
    fn path_choice_depends_only_on_shape() {
        let isa = kernel_isa();
        // Small B is always direct, and a given shape always maps to one path.
        assert_eq!(choose_path(isa, 1, 11, 43), GemmPath::Direct);
        assert_eq!(choose_path(isa, 4096, 11, 43), GemmPath::Direct);
        let p1 = choose_path(isa, 128, 1500, 1500);
        let p2 = choose_path(isa, 128, 1500, 1500);
        assert_eq!(p1, p2);
        // The paper network's layers (11→1500→1500→750→250→250→43), marked
        // with whether they take the packed path from 64 rows on: only the
        // two largest weight matrices do. Scalar has a single code path.
        let layers = [
            (11, 1500, false),
            (1500, 1500, true),
            (1500, 750, true),
            (750, 250, false),
            (250, 250, false),
            (250, 43, false),
        ];
        for m in [1, 63, 64, 172] {
            for (k, n, packed_from_64) in layers {
                let want = if packed_from_64 && m >= 64 && isa != KernelIsa::Scalar {
                    GemmPath::Packed
                } else {
                    GemmPath::Direct
                };
                assert_eq!(choose_path(isa, m, k, n), want, "{m}x{k}x{n}");
            }
        }
    }
}
