//! Cache-blocked, register-tiled GEMM with panel packing.
//!
//! One kernel serves `matmul`, `matmul_tn` and `matmul_nt`: the operand
//! layout is abstracted as a [`MatRef`] (base slice plus row/column
//! strides), so a transposed operand is handled by the packing routine
//! rather than by a materialized transpose.
//!
//! Blocking follows the classic three-loop structure (Goto/BLIS): the
//! output is swept in `NC`-wide column slabs; for each slab, `KC`-deep
//! panels of B are packed once into a contiguous `NR`-lane layout; `MC`-row
//! panels of A are packed into `MR`-row micro-panels; and an `MR × NR`
//! register-tile micro-kernel accumulates over the packed panels with
//! unit-stride loads the auto-vectorizer turns into packed FMAs.
//!
//! # Thread-count invariance
//!
//! Parallelism splits only the output rows into contiguous bands (sized
//! with `div_ceil` so the last band is never larger than the others). The
//! value of output element `(i, j)` is accumulated in `pc`-block order and,
//! within a block, in ascending `k` order — neither depends on which band
//! `i` landed in, so results are bitwise identical for any thread count.
//! `tests/properties.rs` pins this contract.

use super::tune::{KC, MC, MR, NC, NR};
use rayon::prelude::*;

/// A strided view of an `f32` matrix: element `(i, j)` lives at
/// `data[i * rs + j * cs]`. A row-major `[m, k]` matrix is
/// `rs = k, cs = 1`; its transpose is viewed with `rs = 1, cs = k` —
/// no data movement.
#[derive(Clone, Copy)]
pub struct MatRef<'a> {
    pub data: &'a [f32],
    pub rs: usize,
    pub cs: usize,
}

impl<'a> MatRef<'a> {
    /// Row-major view of a `[rows, cols]` matrix.
    pub fn row_major(data: &'a [f32], cols: usize) -> Self {
        MatRef { data, rs: cols, cs: 1 }
    }

    /// Transposed view of a row-major `[rows, cols]` matrix (logical shape
    /// `[cols, rows]`).
    pub fn transposed(data: &'a [f32], cols: usize) -> Self {
        MatRef { data, rs: 1, cs: cols }
    }

    #[inline(always)]
    fn at(&self, i: usize, j: usize) -> f32 {
        self.data[i * self.rs + j * self.cs]
    }

    /// View advanced by `rows` logical rows.
    fn offset_rows(&self, rows: usize) -> MatRef<'a> {
        MatRef { data: &self.data[rows * self.rs..], rs: self.rs, cs: self.cs }
    }
}

/// Packs `B[pc..pc+kc, jc..jc+nc]` into `NR`-lane panels: panel `p` holds
/// columns `jc + p·NR ..`, laid out k-major (`kc` rows of `NR` lanes each),
/// zero-padded past `nc` so the micro-kernel never branches on tails.
fn pack_b_strided(dst: &mut [f32], b: MatRef<'_>, pc: usize, kc: usize, jc: usize, nc: usize) {
    let panels = nc.div_ceil(NR);
    for p in 0..panels {
        let j0 = jc + p * NR;
        let lanes = NR.min(jc + nc - j0);
        let panel = &mut dst[p * kc * NR..(p + 1) * kc * NR];
        for l in 0..kc {
            let row = &mut panel[l * NR..l * NR + NR];
            for (lane, r) in row.iter_mut().enumerate().take(lanes) {
                *r = b.at(pc + l, j0 + lane);
            }
            row[lanes..].fill(0.0);
        }
    }
}

/// Packs `A[ic..ic+mc, pc..pc+kc]` into `MR`-row micro-panels: panel `q`
/// holds rows `ic + q·MR ..`, laid out k-major (`kc` columns of `MR` rows
/// each), zero-padded past `mc`.
fn pack_a_strided(dst: &mut [f32], a: MatRef<'_>, ic: usize, mc: usize, pc: usize, kc: usize) {
    let panels = mc.div_ceil(MR);
    for q in 0..panels {
        let i0 = ic + q * MR;
        let rows = MR.min(ic + mc - i0);
        let panel = &mut dst[q * kc * MR..(q + 1) * kc * MR];
        for l in 0..kc {
            let col = &mut panel[l * MR..l * MR + MR];
            for (r, c) in col.iter_mut().enumerate().take(rows) {
                *c = a.at(i0 + r, pc + l);
            }
            col[rows..].fill(0.0);
        }
    }
}

/// The register-tile micro-kernel: `acc[r][c] += Σ_l ap[l][r] · bp[l][c]`
/// over one packed A micro-panel (`kc × MR`, k-major) and one packed B
/// panel (`kc × NR`, k-major). The whole accumulator block stays in
/// registers; the `NR`-wide inner loop is a unit-stride FMA the
/// auto-vectorizer packs into SIMD.
#[inline(always)]
fn micro_kernel(ap: &[f32], bp: &[f32], kc: usize, acc: &mut [[f32; NR]; MR]) {
    // Const-size array refs (not slices) so every lane access is
    // bounds-check-free and the r/c loops fully unroll.
    for l in 0..kc {
        let av: &[f32; MR] = ap[l * MR..l * MR + MR].try_into().unwrap();
        let bv: &[f32; NR] = bp[l * NR..l * NR + NR].try_into().unwrap();
        for r in 0..MR {
            let a = av[r];
            for c in 0..NR {
                acc[r][c] += a * bv[c];
            }
        }
    }
}

/// AVX2+FMA build of the same micro-kernel, selected at runtime and written
/// with explicit intrinsics: under thin LTO the surrounding loop nest is
/// cloned into every caller and the autovectorizer's choices vary per clone
/// (measured 2× swings between binaries); intrinsics pin the codegen. The
/// accumulator block is `MR × NR/8 = 8` `ymm` registers — enough
/// independent chains to cover FMA latency at two issues per cycle.
///
/// Each output element still accumulates in ascending-`l` order, one
/// `fmadd` per step, so results are bitwise identical across thread counts
/// (and across this kernel vs. any scalar `mul_add` formulation). Numerics
/// differ from the portable non-FMA kernel by the fused multiply's skipped
/// intermediate rounding — a per-*machine* property, constant within a
/// process, so thread-count invariance is unaffected.
///
/// # Safety
/// Caller must ensure the host supports AVX2 and FMA (see
/// [`cpu_has_fma`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn micro_kernel_avx2(ap: &[f32], bp: &[f32], kc: usize, acc: &mut [[f32; NR]; MR]) {
    use std::arch::x86_64::*;
    const { assert!(MR == 4 && NR == 16, "intrinsic kernel is tiled for MR=4, NR=16") };
    debug_assert!(ap.len() >= kc * MR && bp.len() >= kc * NR);
    // SAFETY: panel extents checked above; lane offsets stay within one
    // kc-row of the packed panels.
    unsafe {
        let mut accv = [[_mm256_setzero_ps(); 2]; MR];
        for (r, row) in acc.iter().enumerate() {
            accv[r][0] = _mm256_loadu_ps(row.as_ptr());
            accv[r][1] = _mm256_loadu_ps(row.as_ptr().add(8));
        }
        for l in 0..kc {
            let bptr = bp.as_ptr().add(l * NR);
            let b0 = _mm256_loadu_ps(bptr);
            let b1 = _mm256_loadu_ps(bptr.add(8));
            let aptr = ap.as_ptr().add(l * MR);
            for (r, accr) in accv.iter_mut().enumerate() {
                let av = _mm256_set1_ps(*aptr.add(r));
                accr[0] = _mm256_fmadd_ps(av, b0, accr[0]);
                accr[1] = _mm256_fmadd_ps(av, b1, accr[1]);
            }
        }
        for (r, row) in acc.iter_mut().enumerate() {
            _mm256_storeu_ps(row.as_mut_ptr(), accv[r][0]);
            _mm256_storeu_ps(row.as_mut_ptr().add(8), accv[r][1]);
        }
    }
}

#[cfg(test)]
thread_local! {
    static FORCE_PORTABLE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Runs `f` with the portable kernels selected on the current thread, so
/// tests cover them on AVX2 hosts too. The choice is made once per kernel
/// call by the calling thread, so fan-outs inside `f` follow it.
#[cfg(test)]
pub(crate) fn with_portable_kernels<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            FORCE_PORTABLE.with(|c| c.set(self.0));
        }
    }
    let _guard = Restore(FORCE_PORTABLE.with(|c| c.replace(true)));
    f()
}

/// Whether the AVX2+FMA kernels (GEMM micro-kernel and direct conv) run.
/// A process-global constant outside tests: every thread sees the same
/// answer, so kernel selection can never vary across a parallel split.
pub(crate) fn fma_available() -> bool {
    #[cfg(test)]
    if FORCE_PORTABLE.with(|c| c.get()) {
        return false;
    }
    cpu_has_fma()
}

/// One-time CPUID probe: whether the AVX2+FMA kernels may run at all.
#[cfg(target_arch = "x86_64")]
pub(crate) fn cpu_has_fma() -> bool {
    use std::sync::OnceLock;
    static AVAIL: OnceLock<bool> = OnceLock::new();
    *AVAIL.get_or_init(|| {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    })
}

#[cfg(not(target_arch = "x86_64"))]
pub(crate) fn cpu_has_fma() -> bool {
    false
}

#[inline(always)]
fn micro_kernel_dispatch(fma: bool, ap: &[f32], bp: &[f32], kc: usize, acc: &mut [[f32; NR]; MR]) {
    #[cfg(target_arch = "x86_64")]
    if fma && cpu_has_fma() {
        // SAFETY: the CPUID probe found AVX2 and FMA.
        unsafe { micro_kernel_avx2(ap, bp, kc, acc) };
        return;
    }
    let _ = fma;
    micro_kernel(ap, bp, kc, acc)
}

/// Serial blocked GEMM over a band of output rows:
/// `c[0..rows, 0..n] += A[0..rows, 0..k] · B[0..k, 0..n]`.
fn gemm_band(
    fma: bool,
    c: &mut [f32],
    rows: usize,
    n: usize,
    k: usize,
    a: MatRef<'_>,
    b: MatRef<'_>,
) {
    debug_assert_eq!(c.len(), rows * n);
    // Size the packing buffers to the problem (capped at one full block) so
    // small GEMMs don't pay for a 320 KB allocation they won't use.
    let kc_max = KC.min(k).max(1);
    let nc_max = NC.min(n.div_ceil(NR) * NR).max(NR);
    let mc_max = MC.min(rows.div_ceil(MR) * MR).max(MR);
    let mut apack = vec![0.0f32; mc_max * kc_max];
    let mut bpack = vec![0.0f32; kc_max * nc_max];
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        let jpanels = nc.div_ceil(NR);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            pack_b_strided(&mut bpack, b, pc, kc, jc, nc);
            for ic in (0..rows).step_by(MC) {
                let mc = MC.min(rows - ic);
                pack_a_strided(&mut apack, a, ic, mc, pc, kc);
                let ipanels = mc.div_ceil(MR);
                for p in 0..jpanels {
                    let bp = &bpack[p * kc * NR..(p + 1) * kc * NR];
                    let j0 = jc + p * NR;
                    let lanes = NR.min(jc + nc - j0);
                    for q in 0..ipanels {
                        let ap = &apack[q * kc * MR..(q + 1) * kc * MR];
                        let i0 = ic + q * MR;
                        let tile_rows = MR.min(ic + mc - i0);
                        let mut acc = [[0.0f32; NR]; MR];
                        micro_kernel_dispatch(fma, ap, bp, kc, &mut acc);
                        for (r, acc_row) in acc.iter().enumerate().take(tile_rows) {
                            let out = &mut c[(i0 + r) * n + j0..(i0 + r) * n + j0 + lanes];
                            for (o, &v) in out.iter_mut().zip(acc_row) {
                                *o += v;
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Packed, blocked, optionally banded GEMM:
/// `c[0..m, 0..n] += A · B` with both operands as strided views.
///
/// `threads` > 1 splits the output rows into `div_ceil`-sized contiguous
/// bands, one per thread; each band packs its own panels, so no
/// synchronization (and no cross-band floating-point reassociation)
/// occurs.
pub(crate) fn gemm(
    c: &mut [f32],
    m: usize,
    n: usize,
    k: usize,
    a: MatRef<'_>,
    b: MatRef<'_>,
    threads: usize,
) {
    let fma = fma_available();
    if threads <= 1 || m < 2 {
        gemm_band(fma, c, m, n, k, a, b);
        return;
    }
    // Round the band size *up* so the last band can only be smaller than
    // the others, never (nearly) twice as large.
    let band = m.div_ceil(threads.min(m));
    c.par_chunks_mut(band * n).enumerate().for_each(|(bi, c_band)| {
        let rows = c_band.len() / n;
        gemm_band(fma, c_band, rows, n, k, a.offset_rows(bi * band), b);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(m: usize, n: usize, k: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for l in 0..k {
                    acc += a[i * k + l] * b[l * n + j];
                }
                c[i * n + j] = acc;
            }
        }
        c
    }

    fn filled(len: usize, seed: u64) -> Vec<f32> {
        let mut rng = crate::Rng::seed_from_u64(seed);
        (0..len).map(|_| rng.normal() as f32).collect()
    }

    fn check(m: usize, n: usize, k: usize, threads: usize) {
        let a = filled(m * k, 7 + m as u64);
        let b = filled(k * n, 11 + n as u64);
        let mut c = vec![0.0f32; m * n];
        gemm(&mut c, m, n, k, MatRef::row_major(&a, k), MatRef::row_major(&b, n), threads);
        let want = naive(m, n, k, &a, &b);
        for (i, (x, y)) in c.iter().zip(&want).enumerate() {
            assert!((x - y).abs() <= 1e-4 * (1.0 + y.abs()), "({m},{n},{k}) idx {i}: {x} vs {y}");
        }
    }

    #[test]
    fn matches_naive_across_tail_shapes() {
        // Hit every blocking edge: tails < MR/NR, single row/col, k=1,
        // shapes straddling the MC/KC/NC block boundaries.
        for &(m, n, k) in &[
            (1, 1, 1),
            (1, 9, 5),
            (3, 7, 1),
            (4, 8, 16),
            (5, 9, 3),
            (7, 17, 33),
            (63, 65, 31),
            (64, 8, 257),
            (65, 9, 256),
            (130, 20, 70),
        ] {
            check(m, n, k, 1);
        }
    }

    #[test]
    fn banded_matches_serial_bitwise() {
        let (m, n, k) = (37, 19, 23);
        let a = filled(m * k, 3);
        let b = filled(k * n, 5);
        let mut serial = vec![0.0f32; m * n];
        gemm(&mut serial, m, n, k, MatRef::row_major(&a, k), MatRef::row_major(&b, n), 1);
        for threads in [2, 3, 5, 8] {
            let mut banded = vec![0.0f32; m * n];
            gemm(&mut banded, m, n, k, MatRef::row_major(&a, k), MatRef::row_major(&b, n), threads);
            assert_eq!(serial, banded, "threads={threads}");
        }
    }

    #[test]
    fn transposed_views_match_explicit_transpose() {
        let (m, n, k) = (13, 21, 17);
        let a_t = filled(k * m, 9); // stored [k, m]
        let b = filled(k * n, 10);
        let mut c = vec![0.0f32; m * n];
        gemm(&mut c, m, n, k, MatRef::transposed(&a_t, m), MatRef::row_major(&b, n), 1);
        // Explicitly transpose A and compare.
        let mut a = vec![0.0f32; m * k];
        for i in 0..m {
            for l in 0..k {
                a[i * k + l] = a_t[l * m + i];
            }
        }
        let want = naive(m, n, k, &a, &b);
        for (x, y) in c.iter().zip(&want) {
            assert!((x - y).abs() <= 1e-4 * (1.0 + y.abs()));
        }
    }

    #[test]
    fn accumulates_into_existing_c() {
        let (m, n, k) = (6, 10, 4);
        let a = filled(m * k, 21);
        let b = filled(k * n, 22);
        let mut c = vec![1.0f32; m * n];
        gemm(&mut c, m, n, k, MatRef::row_major(&a, k), MatRef::row_major(&b, n), 1);
        let want = naive(m, n, k, &a, &b);
        for (x, y) in c.iter().zip(&want) {
            assert!((x - (y + 1.0)).abs() <= 1e-4 * (1.0 + y.abs()));
        }
    }
}
