//! Quantized int8 GEMM for the serve-side inference fast path.
//!
//! The right operand (a layer's weight matrix) is packed **once** at
//! quantization time into a layout picked for the CPU ([`QuantizedGemmB`])
//! and then reused for every forward pass. The layout is chosen at pack
//! time and fixes the kernel; nothing is re-detected per call.
//!
//! * **`Quad16`** (AVX512-VNNI): 16-column panels with 4 consecutive `k`
//!   interleaved per column (`k` zero-padded to a multiple of 4), plus the
//!   per-column sums `colsum[j] = Σₖ B[k,j]` computed at pack time.
//!   `vpdpbusd` multiplies *unsigned* bytes by signed ones, so the kernel
//!   offsets `A` by +128 into `u8` — a packed quad word is the row's 4
//!   bytes XOR `0x80808080` — and adds 4 products per 32-bit lane per
//!   instruction. The epilogue subtracts `128 · colsum[j]`:
//!   `Σ (a + 128)·b − 128·Σ b = Σ a·b`.
//! * **`Panel16` / `Panel8`** (AVX-512BW without VNNI / AVX2): 16- or
//!   8-column panels with pairs of consecutive `k` interleaved. Each `i8`
//!   pair is sign-extended to `i16` and `madd_epi16` adds the pair product
//!   into `i32` accumulators (the classic `pmaddwd` pattern).
//!
//! Without AVX2, a plain row-major copy feeds a scalar loop.
//!
//! Integer arithmetic is exact, so every ISA and layout produces
//! bit-identical results by construction.
//!
//! # Overflow
//!
//! A `madd` lane adds at most `2 · 128 · 128 = 2^15` per pair, so the pair
//! layouts are exact for `k < 2^17`. A `vpdpbusd` lane adds at most
//! `4 · 255 · 128 = 130,560` per quad (quantized weights stay within ±127:
//! `4 · 255 · 127 = 129,540`), so the biased accumulator never wraps for
//! `k ≤ 65,792` (`2^31 / (255 · 128)`); the paper's deepest layer, `k =
//! 1500`, peaks at ~49 M. Past that the lane wraps, but `vpdpbusd` and the
//! epilogue subtraction are both exact modulo `2^32`, so `Quad16` stays
//! exact up to the same `k < 2^17` limit as the pair layouts.

// As in `kernel.rs`, register-tile arrays are indexed by row on purpose: the
// loop index mirrors the 8-row blocking.
#![allow(clippy::needless_range_loop)]

use crate::kernel::{kernel_isa, KernelIsa};

/// A right-hand operand (`k x n`, row-major `i8`) packed for [`gemm_i8`].
#[derive(Debug, Clone)]
pub struct QuantizedGemmB {
    data: Vec<i8>,
    /// `Quad16` only: per-column sums of `B`, zero-padded to whole panels.
    colsum: Vec<i32>,
    k: usize,
    n: usize,
    /// `k` rounded up to whole depth groups (pairs or quads).
    kp: usize,
    layout: Int8Layout,
}

/// Packed layout of a [`QuantizedGemmB`]; each has its own kernel.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Int8Layout {
    /// 16-column panels, k-quads interleaved, column sums (AVX512-VNNI).
    Quad16,
    /// 16-column panels, k-pairs interleaved (AVX-512BW kernel).
    Panel16,
    /// 8-column panels, k-pairs interleaved (AVX2 kernel).
    Panel8,
    /// Plain row-major copy (scalar kernel).
    Raw,
}

impl Int8Layout {
    /// The fastest layout this CPU runs.
    fn native() -> Int8Layout {
        match kernel_isa() {
            KernelIsa::Avx512 if Int8Layout::Quad16.supported() => Int8Layout::Quad16,
            KernelIsa::Avx512 => Int8Layout::Panel16,
            KernelIsa::Avx2 => Int8Layout::Panel8,
            KernelIsa::Scalar => Int8Layout::Raw,
        }
    }

    /// Whether this CPU can run the layout's kernel (the standard library
    /// caches the CPUID probe).
    fn supported(self) -> bool {
        #[cfg(target_arch = "x86_64")]
        let (avx2, avx512bw, vnni) = (
            is_x86_feature_detected!("avx2"),
            is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512bw"),
            is_x86_feature_detected!("avx512vnni"),
        );
        #[cfg(not(target_arch = "x86_64"))]
        let (avx2, avx512bw, vnni) = (false, false, false);
        match self {
            Int8Layout::Quad16 => avx512bw && vnni,
            Int8Layout::Panel16 => avx512bw,
            Int8Layout::Panel8 => avx2,
            Int8Layout::Raw => true,
        }
    }

    /// Panel width and the number of consecutive `k` interleaved per column.
    fn geometry(self) -> (usize, usize) {
        match self {
            Int8Layout::Quad16 => (16, 4),
            Int8Layout::Panel16 => (16, 2),
            Int8Layout::Panel8 => (8, 2),
            Int8Layout::Raw => (0, 1),
        }
    }
}

impl QuantizedGemmB {
    /// Packs a `k x n` row-major `i8` matrix for the active ISA.
    pub fn pack(b: &[i8], k: usize, n: usize) -> QuantizedGemmB {
        Self::pack_as(b, k, n, Int8Layout::native())
    }

    fn pack_as(b: &[i8], k: usize, n: usize, layout: Int8Layout) -> QuantizedGemmB {
        assert_eq!(b.len(), k * n, "QuantizedGemmB::pack: shape mismatch");
        let (nr, kg) = layout.geometry();
        let kp = k.div_ceil(kg) * kg;
        let data = if layout == Int8Layout::Raw {
            b.to_vec()
        } else {
            // Panel `jp`, depth group `g`, column `j`, slot `t` holds
            // `B[g * kg + t, jp * nr + j]`.
            let np = n.div_ceil(nr);
            let mut out = vec![0i8; np * kp * nr];
            for jp in 0..np {
                for g in 0..kp / kg {
                    for j in 0..nr {
                        let col = jp * nr + j;
                        for t in 0..kg {
                            let kk = g * kg + t;
                            if col < n && kk < k {
                                out[(jp * kp + g * kg) * nr + j * kg + t] = b[kk * n + col];
                            }
                        }
                    }
                }
            }
            out
        };
        let colsum = if layout == Int8Layout::Quad16 {
            let mut sums = vec![0i32; n.div_ceil(nr) * nr];
            for row in b.chunks_exact(n.max(1)) {
                for (s, &v) in sums.iter_mut().zip(row) {
                    *s += v as i32;
                }
            }
            sums
        } else {
            Vec::new()
        };
        QuantizedGemmB {
            data,
            colsum,
            k,
            n,
            kp,
            layout,
        }
    }

    /// Shared (`k`) dimension of the packed matrix.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Column count of the packed matrix.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Bytes held by the packed representation.
    pub fn bytes(&self) -> usize {
        self.data.len() + self.colsum.len() * std::mem::size_of::<i32>()
    }
}

/// `C = A * B` over `i8` inputs with exact `i32` accumulation.
///
/// `a` is `m x k` row-major; `c` must be `m * n` long and is overwritten.
pub fn gemm_i8(a: &[i8], m: usize, k: usize, b: &QuantizedGemmB, c: &mut [i32]) {
    assert_eq!(k, b.k, "gemm_i8: inner dimension mismatch");
    assert_eq!(a.len(), m * k, "gemm_i8: lhs shape mismatch");
    assert_eq!(c.len(), m * b.n, "gemm_i8: output shape mismatch");
    if m == 0 || b.n == 0 {
        return;
    }
    if k == 0 {
        c.fill(0);
        return;
    }
    match b.layout {
        Int8Layout::Raw => gemm_i8_scalar(a, m, k, b, c),
        #[cfg(target_arch = "x86_64")]
        Int8Layout::Quad16 => x86::gemm_i8_quad16(a, m, k, b, c),
        #[cfg(target_arch = "x86_64")]
        Int8Layout::Panel16 => x86::gemm_i8_avx512(a, m, k, b, c),
        #[cfg(target_arch = "x86_64")]
        Int8Layout::Panel8 => x86::gemm_i8_avx2(a, m, k, b, c),
        #[cfg(not(target_arch = "x86_64"))]
        _ => unreachable!("SIMD layouts are only packed on x86_64"),
    }
}

fn gemm_i8_scalar(a: &[i8], m: usize, k: usize, b: &QuantizedGemmB, c: &mut [i32]) {
    let n = b.n;
    for r in 0..m {
        let ar = &a[r * k..(r + 1) * k];
        let cr = &mut c[r * n..(r + 1) * n];
        cr.fill(0);
        for (kk, &av) in ar.iter().enumerate() {
            if av == 0 {
                continue;
            }
            let av = av as i32;
            let br = &b.data[kk * n..(kk + 1) * n];
            for (cv, &bv) in cr.iter_mut().zip(br.iter()) {
                *cv += av * bv as i32;
            }
        }
    }
}

/// Packs 8 rows of `A` as ready-to-broadcast `i32` words: slot
/// `kk2 * 8 + i` holds row `i`'s depths `2*kk2` and `2*kk2 + 1` as two
/// sign-extended `i16` halves (low word = even depth). The kernels then
/// broadcast straight from memory — `vpbroadcastd (mem)` is a load-port
/// micro-op, keeping the shuffle port free for the `madd` chain.
/// Missing rows and the odd `k` tail are zero-padded.
fn pack_a8(a: &[i8], k: usize, row0: usize, mr: usize, out: &mut [i32]) {
    out.fill(0);
    for i in 0..mr {
        let ar = &a[(row0 + i) * k..(row0 + i + 1) * k];
        for kk2 in 0..k.div_ceil(2) {
            let lo = ar[kk2 * 2] as i16 as u16 as u32;
            let hi = if kk2 * 2 + 1 < k {
                ar[kk2 * 2 + 1] as i16 as u16 as u32
            } else {
                0
            };
            out[kk2 * 8 + i] = (lo | (hi << 16)) as i32;
        }
    }
}

/// `A` value 0 in the +128 offset domain of the `Quad16` kernel, per byte.
const U8_BIAS: u32 = 0x8080_8080;

/// Packs 8 rows of `A` for the `Quad16` kernel: slot `q * 8 + i` holds row
/// `i`'s depths `4q..4q + 4` as little-endian bytes offset by +128 into
/// `u8` (XOR `0x80` per byte). Missing rows and the `k` tail hold the
/// offset zero, `0x80`.
fn pack_a8_quads(a: &[i8], k: usize, row0: usize, mr: usize, out: &mut [u32]) {
    out.fill(U8_BIAS);
    for i in 0..mr {
        let ar = &a[(row0 + i) * k..(row0 + i + 1) * k];
        for (q, quad) in ar.chunks(4).enumerate() {
            let mut bytes = [0u8; 4];
            for (d, &s) in bytes.iter_mut().zip(quad) {
                *d = s as u8;
            }
            out[q * 8 + i] = u32::from_le_bytes(bytes) ^ U8_BIAS;
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{pack_a8, pack_a8_quads, QuantizedGemmB};
    use std::arch::x86_64::*;

    /// Column-panel outer loop: up to three 16-column panels of `B` (72 KB
    /// at `k = 1500`) stay in cache while every 8-row block of the
    /// pre-packed `A` runs against them, so `B` streams from memory once
    /// per call instead of once per row block. Three panels per tile make
    /// 24 accumulators and cut the `A` broadcasts per `vpdpbusd` to a third.
    pub(super) fn gemm_i8_quad16(a: &[i8], m: usize, k: usize, b: &QuantizedGemmB, c: &mut [i32]) {
        let n = b.n;
        let kq = b.kp / 4;
        let np = n.div_ceil(16);
        let mb = m.div_ceil(8);
        let mut ap = vec![0u32; mb * kq * 8];
        for (ib, block) in ap.chunks_exact_mut(kq * 8).enumerate() {
            pack_a8_quads(a, k, ib * 8, 8.min(m - ib * 8), block);
        }
        let mut acc = [0i32; 384];
        let mut jp = 0;
        while jp < np {
            let panels = 3.min(np - jp);
            let jr = jp * 16;
            let nr = (16 * panels).min(n - jr);
            let bp = b.data[jp * kq * 64..].as_ptr();
            let colsum = b.colsum[jr..jr + 16 * panels].as_ptr();
            for (ib, block) in ap.chunks_exact(kq * 8).enumerate() {
                let ir = ib * 8;
                let mr = 8.min(m - ir);
                // Full tiles store straight into `C` (row stride `n`);
                // ragged edges go through the bounce buffer.
                let bounce = mr != 8 || nr != 16 * panels;
                let (cp, ldc) = if bounce {
                    (acc.as_mut_ptr(), 16 * panels)
                } else {
                    (unsafe { c.as_mut_ptr().add(ir * n + jr) }, n)
                };
                // SAFETY: `Quad16` is only packed when the CPU reported
                // AVX512-VNNI; `block` holds `kq` quads of 8 rows, each of
                // the `panels` panels `kq` quads of 16 columns, and
                // `colsum` 16 sums per panel.
                unsafe {
                    match panels {
                        3 => k_u8s8_8x16n::<3>(block.as_ptr(), bp, kq, colsum, cp, ldc),
                        2 => k_u8s8_8x16n::<2>(block.as_ptr(), bp, kq, colsum, cp, ldc),
                        _ => k_u8s8_8x16n::<1>(block.as_ptr(), bp, kq, colsum, cp, ldc),
                    }
                };
                if bounce {
                    for i in 0..mr {
                        let crow = &mut c[(ir + i) * n + jr..(ir + i) * n + jr + nr];
                        crow.copy_from_slice(&acc[i * ldc..i * ldc + nr]);
                    }
                }
            }
            jp += panels;
        }
    }

    /// 8 rows x `NP` 16-column panels over `kq` depth quads: one
    /// `vpdpbusd` per row, panel and quad (offset `u8` row word broadcast
    /// against 16 columns x 4 signed depths), then `C = acc - 128 *
    /// colsum`. The depth loop is unrolled 2x.
    ///
    /// # Safety
    /// The CPU has AVX512-VNNI; `ap` holds `8 * kq` words, `bp` `NP`
    /// consecutive panels of `64 * kq` bytes, `colsum` `16 * NP` sums, and
    /// `cp` 8 rows of `16 * NP` writable `i32` at row stride `ldc`.
    #[target_feature(enable = "avx512f", enable = "avx512bw", enable = "avx512vnni")]
    unsafe fn k_u8s8_8x16n<const NP: usize>(
        ap: *const u32,
        bp: *const i8,
        kq: usize,
        colsum: *const i32,
        cp: *mut i32,
        ldc: usize,
    ) {
        let mut acc = [[_mm512_setzero_si512(); NP]; 8];
        macro_rules! step {
            ($q:expr) => {
                let mut bv = [_mm512_setzero_si512(); NP];
                for p in 0..NP {
                    bv[p] = _mm512_loadu_si512(bp.add(p * kq * 64 + $q * 64) as *const _);
                }
                let aw = ap.add($q * 8);
                for i in 0..8 {
                    let r = _mm512_set1_epi32(*aw.add(i) as i32);
                    for p in 0..NP {
                        acc[i][p] = _mm512_dpbusd_epi32(acc[i][p], r, bv[p]);
                    }
                }
            };
        }
        let mut q = 0usize;
        while q + 2 <= kq {
            step!(q);
            step!(q + 1);
            q += 2;
        }
        if q < kq {
            step!(q);
        }
        for p in 0..NP {
            let bias = _mm512_slli_epi32::<7>(_mm512_loadu_si512(colsum.add(p * 16) as *const _));
            for i in 0..8 {
                _mm512_storeu_si512(
                    cp.add(i * ldc + p * 16) as *mut _,
                    _mm512_sub_epi32(acc[i][p], bias),
                );
            }
        }
    }

    pub(super) fn gemm_i8_avx512(a: &[i8], m: usize, k: usize, b: &QuantizedGemmB, c: &mut [i32]) {
        let n = b.n;
        let kp = b.kp;
        let np = n.div_ceil(16);
        let mut ap = vec![0i32; (kp / 2) * 8];
        let mut acc = [0i32; 128];
        let mut ir = 0;
        while ir < m {
            let mr = 8.min(m - ir);
            pack_a8(a, k, ir, mr, &mut ap);
            for jp in 0..np {
                let jr = jp * 16;
                let nr = 16.min(n - jr);
                let bp = b.data[jp * kp * 16..].as_ptr();
                let bounce = mr != 8 || nr != 16;
                let (cp, ldc) = if bounce {
                    (acc.as_mut_ptr(), 16)
                } else {
                    (unsafe { c.as_mut_ptr().add(ir * n + jr) }, n)
                };
                unsafe {
                    k_i8_8x16(ap.as_ptr(), bp, kp / 2, cp, ldc);
                }
                if bounce {
                    for i in 0..mr {
                        let crow = &mut c[(ir + i) * n + jr..(ir + i) * n + jr + nr];
                        crow.copy_from_slice(&acc[i * 16..i * 16 + nr]);
                    }
                }
            }
            ir += 8;
        }
    }

    /// 8 rows x 16 cols, full-`k` accumulation via `madd_epi16 + add`.
    #[target_feature(enable = "avx512bw")]
    unsafe fn k_i8_8x16(ap: *const i32, bp: *const i8, kc2: usize, cp: *mut i32, ldc: usize) {
        let mut acc = [_mm512_setzero_si512(); 8];
        let mut kk = 0usize;
        macro_rules! step {
            ($idx:expr) => {
                // 16 columns x 2 consecutive k -> 32 i8 -> i16.
                let braw = _mm256_loadu_si256(bp.add($idx * 32) as *const _);
                let b16 = _mm512_cvtepi8_epi16(braw);
                let aw = ap.add($idx * 8);
                for i in 0..8 {
                    let r = _mm512_set1_epi32(*aw.add(i));
                    acc[i] = _mm512_add_epi32(acc[i], _mm512_madd_epi16(r, b16));
                }
            };
        }
        while kk + 2 <= kc2 {
            step!(kk);
            step!(kk + 1);
            kk += 2;
        }
        if kk < kc2 {
            step!(kk);
        }
        for i in 0..8 {
            _mm512_storeu_si512(cp.add(i * ldc) as *mut _, acc[i]);
        }
    }

    pub(super) fn gemm_i8_avx2(a: &[i8], m: usize, k: usize, b: &QuantizedGemmB, c: &mut [i32]) {
        let n = b.n;
        let kp = b.kp;
        let np = n.div_ceil(8);
        let mut ap = vec![0i32; (kp / 2) * 8];
        let mut acc = [0i32; 64];
        let mut ir = 0;
        while ir < m {
            let mr = 8.min(m - ir);
            pack_a8(a, k, ir, mr, &mut ap);
            for jp in 0..np {
                let jr = jp * 8;
                let nr = 8.min(n - jr);
                let bp = b.data[jp * kp * 8..].as_ptr();
                let bounce = mr != 8 || nr != 8;
                let (cp, ldc) = if bounce {
                    (acc.as_mut_ptr(), 8)
                } else {
                    (unsafe { c.as_mut_ptr().add(ir * n + jr) }, n)
                };
                unsafe {
                    k_i8_8x8(ap.as_ptr(), bp, kp / 2, cp, ldc);
                }
                if bounce {
                    for i in 0..mr {
                        let crow = &mut c[(ir + i) * n + jr..(ir + i) * n + jr + nr];
                        crow.copy_from_slice(&acc[i * 8..i * 8 + nr]);
                    }
                }
            }
            ir += 8;
        }
    }

    /// 8 rows x 8 cols, full-`k` accumulation via `madd_epi16`.
    #[target_feature(enable = "avx2")]
    unsafe fn k_i8_8x8(ap: *const i32, bp: *const i8, kc2: usize, cp: *mut i32, ldc: usize) {
        let mut acc = [_mm256_setzero_si256(); 8];
        let mut kk = 0usize;
        macro_rules! step {
            ($idx:expr) => {
                // 8 columns x 2 consecutive k -> 16 i8 -> i16.
                let braw = _mm_loadu_si128(bp.add($idx * 16) as *const _);
                let b16 = _mm256_cvtepi8_epi16(braw);
                let aw = ap.add($idx * 8);
                for i in 0..8 {
                    let r = _mm256_set1_epi32(*aw.add(i));
                    acc[i] = _mm256_add_epi32(acc[i], _mm256_madd_epi16(r, b16));
                }
            };
        }
        while kk + 2 <= kc2 {
            step!(kk);
            step!(kk + 1);
            kk += 2;
        }
        if kk < kc2 {
            step!(kk);
        }
        for i in 0..8 {
            _mm256_storeu_si256(cp.add(i * ldc) as *mut _, acc[i]);
        }
    }
}

/// Test/bench hooks: pack for an explicit layout, independent of the CPU's
/// native choice.
#[doc(hidden)]
pub mod testing {
    pub use super::Int8Layout;
    use super::QuantizedGemmB;

    /// Every layout whose kernel this CPU can run, fastest first.
    pub fn supported_layouts() -> Vec<Int8Layout> {
        [
            Int8Layout::Quad16,
            Int8Layout::Panel16,
            Int8Layout::Panel8,
            Int8Layout::Raw,
        ]
        .into_iter()
        .filter(|l| l.supported())
        .collect()
    }

    /// Packs `b` (`k x n`, row-major) in `layout`.
    ///
    /// # Panics
    /// If this CPU cannot run `layout`'s kernel.
    pub fn pack_forced(b: &[i8], k: usize, n: usize, layout: Int8Layout) -> QuantizedGemmB {
        assert!(
            layout.supported(),
            "{layout:?} is not supported on this CPU"
        );
        QuantizedGemmB::pack_as(b, k, n, layout)
    }
}

#[cfg(test)]
mod tests {
    use super::testing::*;
    use super::*;

    fn fill_i8(len: usize, seed: u64) -> Vec<i8> {
        let mut s = seed | 1;
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s % 255) as i8
            })
            .collect()
    }

    fn naive_i8(a: &[i8], b: &[i8], m: usize, k: usize, n: usize) -> Vec<i32> {
        let mut c = vec![0i32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut s = 0i32;
                for kk in 0..k {
                    s += a[i * k + kk] as i32 * b[kk * n + j] as i32;
                }
                c[i * n + j] = s;
            }
        }
        c
    }

    fn gemm_as(a: &[i8], b: &[i8], m: usize, k: usize, n: usize, layout: Int8Layout) -> Vec<i32> {
        let packed = pack_forced(b, k, n, layout);
        let mut c = vec![i32::MIN; m * n];
        gemm_i8(a, m, k, &packed, &mut c);
        c
    }

    /// Ragged `m` (not a multiple of 8), every `k mod 4` (quad padding),
    /// `n` off the 8/16-column panel widths, and the paper's deepest `k`.
    const SHAPES: &[(usize, usize, usize)] = &[
        (1, 1, 1),
        (1, 11, 43),
        (4, 16, 16),
        (5, 17, 9),
        (3, 11, 256),
        (9, 18, 33),
        (7, 301, 13),
        (16, 64, 43),
        (11, 250, 17),
        (2, 1500, 5),
        (17, 1500, 47),
    ];

    #[test]
    fn native_layout_is_the_fastest_supported() {
        let layouts = supported_layouts();
        assert_eq!(layouts.last(), Some(&Int8Layout::Raw));
        let native = QuantizedGemmB::pack(&[1, 2], 1, 2).layout;
        assert!(layouts.contains(&native));
        if kernel_isa() == KernelIsa::Avx512 {
            assert_eq!(native, layouts[0]);
        }
    }

    #[test]
    fn every_layout_matches_naive_across_ragged_shapes() {
        for &(m, k, n) in SHAPES {
            let a = fill_i8(m * k, 7);
            let b = fill_i8(k * n, 11);
            let want = naive_i8(&a, &b, m, k, n);
            for layout in supported_layouts() {
                assert_eq!(
                    gemm_as(&a, &b, m, k, n, layout),
                    want,
                    "{layout:?} at {m}x{k}x{n}"
                );
            }
        }
    }

    #[test]
    fn every_layout_is_exact_at_the_i8_extremes() {
        let (m, k, n) = (9usize, 1500usize, 19usize);
        for (av, bv) in [
            (i8::MIN, i8::MAX),
            (i8::MAX, i8::MIN),
            (i8::MIN, i8::MIN),
            (i8::MAX, i8::MAX),
        ] {
            let a = vec![av; m * k];
            let b = vec![bv; k * n];
            let want = av as i32 * bv as i32 * k as i32;
            for layout in supported_layouts() {
                let c = gemm_as(&a, &b, m, k, n, layout);
                assert!(c.iter().all(|&v| v == want), "{layout:?} at {av}x{bv}");
            }
        }
        // Alternating signs along k, so partial sums swing both ways.
        let a: Vec<i8> = (0..m * k)
            .map(|i| if i % 3 == 0 { i8::MIN } else { i8::MAX })
            .collect();
        let b: Vec<i8> = (0..k * n)
            .map(|i| if i % 2 == 0 { i8::MAX } else { i8::MIN })
            .collect();
        let want = naive_i8(&a, &b, m, k, n);
        for layout in supported_layouts() {
            assert_eq!(gemm_as(&a, &b, m, k, n, layout), want, "{layout:?}");
        }
    }

    #[test]
    fn empty_dims_are_handled() {
        for layout in supported_layouts() {
            let packed = pack_forced(&[], 0, 4, layout);
            let mut c = vec![9i32; 8];
            gemm_i8(&[], 2, 0, &packed, &mut c);
            assert_eq!(c, vec![0; 8]);
            let packed = pack_forced(&[], 3, 0, layout);
            let mut c = vec![];
            gemm_i8(&[1, 2, 3], 1, 3, &packed, &mut c);
        }
    }
}
