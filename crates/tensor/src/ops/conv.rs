//! Convolution kernels: direct forward/backward plus im2col / col2im
//! helpers.
//!
//! The three kernels ([`conv2d`], [`conv2d_dw`], [`conv2d_dx`]) are direct
//! convolutions: each image is copied once into a zero-padded,
//! channel-last buffer, so the input value under patch index `l` of output
//! pixel `p` is
//! `padded[base[p] + offset[l]]` with both tables precomputed per call and
//! no bounds test anywhere in the inner loops. All three reduce to one
//! register-tiled primitive ([`accumulate`]):
//!
//! ```text
//! dst[i][lane] += Σ_r x[a[i] + b[r]] · m[r][lane]      (r ascending, KC-blocked)
//! ```
//!
//! * forward: `i` = output pixel, `r` = patch index, lanes = output
//!   channels, `m` = the weights transposed once per call;
//! * dW: `i` = patch index, `r` = output pixel, lanes = output channels,
//!   `m` = the image's `dY` transposed, images added in order;
//! * dX: `i` = output pixel, `r` = output channel, lanes = patch index,
//!   `m` = the weights; each strip of pixels' patch gradients is folded
//!   onto a padded input-gradient buffer in pixel order.
//!
//! Every output element is accumulated in exactly the order the packed
//! GEMM formulation (`gemm` over the `im2col`/`col2im` operands) uses —
//! `KC` blocks that each start from zero, ascending inside a block, one
//! multiply-add (fused on the AVX2+FMA build) per step — so the results are
//! bitwise identical to it and to any thread count. The unit tests pin
//! that parity.
//!
//! `im2col`/`col2im` are public as the materializing reference
//! formulation for tests and external users.

use super::gemm::{cpu_has_fma, fma_available};
use super::tune::{conv_threads, KC};
use crate::tensor::Tensor;
use rayon::prelude::*;

/// Static description of a 2-D convolution's geometry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Conv2dSpec {
    pub in_channels: usize,
    pub out_channels: usize,
    pub kernel: usize,
    pub stride: usize,
    pub padding: usize,
}

impl Conv2dSpec {
    /// Output spatial size for an input of `h × w`. Panics when the kernel
    /// does not fit (misconfigured network).
    pub fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        let oh = (h + 2 * self.padding)
            .checked_sub(self.kernel)
            .expect("kernel larger than padded input")
            / self.stride
            + 1;
        let ow = (w + 2 * self.padding)
            .checked_sub(self.kernel)
            .expect("kernel larger than padded input")
            / self.stride
            + 1;
        (oh, ow)
    }

    /// Number of columns of the im2col matrix (`cin·kh·kw`).
    pub fn patch_len(&self) -> usize {
        self.in_channels * self.kernel * self.kernel
    }
}

/// Unfolds `input` (NCHW) into patch rows: output is
/// `[n·oh·ow, cin·k·k]`, where row `(img, oy, ox)` holds the receptive
/// field of output pixel `(oy, ox)` of image `img`, zero-padded.
pub fn im2col(input: &Tensor, spec: &Conv2dSpec) -> Tensor {
    let dims = input.dims();
    assert_eq!(dims.len(), 4, "im2col expects NCHW, got {:?}", input.shape());
    let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
    assert_eq!(c, spec.in_channels, "im2col channel mismatch");
    let (oh, ow) = spec.out_hw(h, w);
    let k = spec.kernel;
    let plen = spec.patch_len();
    let mut out = Tensor::zeros(&[n * oh * ow, plen]);
    let src = input.data();
    let img_stride = c * h * w;
    let rows_per_img = oh * ow;

    out.data_mut().par_chunks_mut(rows_per_img * plen).enumerate().for_each(|(img, img_rows)| {
        let base = img * img_stride;
        for oy in 0..oh {
            for ox in 0..ow {
                let row = &mut img_rows[(oy * ow + ox) * plen..(oy * ow + ox + 1) * plen];
                let iy0 = (oy * spec.stride) as isize - spec.padding as isize;
                let ix0 = (ox * spec.stride) as isize - spec.padding as isize;
                for ch in 0..c {
                    for ky in 0..k {
                        let iy = iy0 + ky as isize;
                        let dst = &mut row[(ch * k + ky) * k..(ch * k + ky + 1) * k];
                        if iy < 0 || iy >= h as isize {
                            dst.fill(0.0);
                            continue;
                        }
                        let src_row = base + ch * h * w + iy as usize * w;
                        for (kx, d) in dst.iter_mut().enumerate() {
                            let ix = ix0 + kx as isize;
                            *d = if ix < 0 || ix >= w as isize {
                                0.0
                            } else {
                                src[src_row + ix as usize]
                            };
                        }
                    }
                }
            }
        }
    });
    out
}

/// Folds one image's patch-row gradients (`[oh·ow, plen]`) onto that
/// image's input gradient (`[c·h·w]`). Overlapping patches accumulate.
fn col2im_image(dst: &mut [f32], img_rows: &[f32], spec: &Conv2dSpec, h: usize, w: usize) {
    let (oh, ow) = spec.out_hw(h, w);
    let k = spec.kernel;
    let plen = spec.patch_len();
    for oy in 0..oh {
        for ox in 0..ow {
            let row = &img_rows[(oy * ow + ox) * plen..(oy * ow + ox + 1) * plen];
            let iy0 = (oy * spec.stride) as isize - spec.padding as isize;
            let ix0 = (ox * spec.stride) as isize - spec.padding as isize;
            for ch in 0..spec.in_channels {
                for ky in 0..k {
                    let iy = iy0 + ky as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    let dst_row = ch * h * w + iy as usize * w;
                    let srow = &row[(ch * k + ky) * k..(ch * k + ky + 1) * k];
                    for (kx, &v) in srow.iter().enumerate() {
                        let ix = ix0 + kx as isize;
                        if ix >= 0 && ix < w as isize {
                            dst[dst_row + ix as usize] += v;
                        }
                    }
                }
            }
        }
    }
}

/// Folds patch-row gradients back onto the input: the adjoint of
/// [`im2col`]. `cols` is `[n·oh·ow, cin·k·k]`; the result is NCHW with the
/// given spatial size. Overlapping patches accumulate.
pub fn col2im(cols: &Tensor, spec: &Conv2dSpec, n: usize, h: usize, w: usize) -> Tensor {
    let (oh, ow) = spec.out_hw(h, w);
    let plen = spec.patch_len();
    assert_eq!(cols.dims(), &[n * oh * ow, plen], "col2im shape");
    let mut out = Tensor::zeros(&[n, spec.in_channels, h, w]);
    let img_stride = spec.in_channels * h * w;
    let rows_per_img = oh * ow;
    let src = cols.data();

    out.data_mut().par_chunks_mut(img_stride).enumerate().for_each(|(img, dst)| {
        let img_rows = &src[img * rows_per_img * plen..(img + 1) * rows_per_img * plen];
        col2im_image(dst, img_rows, spec, h, w);
    });
    out
}

/// f32 lanes per vector: one AVX `ymm` register.
const LANES: usize = 8;

/// Output pixels whose patch gradients [`conv2d_dx`] computes before
/// folding them; a multiple of both register-tile heights.
const STRIP: usize = 12;

/// Eight f32 lanes: the vector the direct kernels are written against.
///
/// `mul_add` rounds exactly like the GEMM micro-kernel of the same build —
/// fused on AVX2+FMA, multiply-then-add otherwise — which is what keeps the
/// direct kernels bitwise identical to the GEMM formulation.
trait Lanes: Copy {
    fn zero() -> Self;
    fn splat(v: f32) -> Self;
    /// # Safety
    /// `p` must be valid for `LANES` reads.
    unsafe fn load(p: *const f32) -> Self;
    /// # Safety
    /// `p` must be valid for `LANES` writes.
    unsafe fn store(self, p: *mut f32);
    /// `self + x·m`.
    fn mul_add(self, x: Self, m: Self) -> Self;
    fn add(self, o: Self) -> Self;
}

#[derive(Clone, Copy)]
struct Portable([f32; LANES]);

impl Lanes for Portable {
    #[inline(always)]
    fn zero() -> Self {
        Portable([0.0; LANES])
    }
    #[inline(always)]
    fn splat(v: f32) -> Self {
        Portable([v; LANES])
    }
    #[inline(always)]
    unsafe fn load(p: *const f32) -> Self {
        // SAFETY: the caller guarantees `LANES` readable floats.
        Portable(unsafe { p.cast::<[f32; LANES]>().read_unaligned() })
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut f32) {
        // SAFETY: the caller guarantees `LANES` writable floats.
        unsafe { p.cast::<[f32; LANES]>().write_unaligned(self.0) }
    }
    #[inline(always)]
    fn mul_add(self, x: Self, m: Self) -> Self {
        Portable(std::array::from_fn(|j| self.0[j] + x.0[j] * m.0[j]))
    }
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        Portable(std::array::from_fn(|j| self.0[j] + o.0[j]))
    }
}

/// One `ymm` register. Values of this type exist only inside
/// [`accumulate_avx2`], which runs only after the CPUID probe said yes —
/// that is what makes the intrinsic calls below sound.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct Avx2(std::arch::x86_64::__m256);

#[cfg(target_arch = "x86_64")]
impl Lanes for Avx2 {
    #[inline(always)]
    fn zero() -> Self {
        // SAFETY: AVX is present (see the type's docs).
        Avx2(unsafe { std::arch::x86_64::_mm256_setzero_ps() })
    }
    #[inline(always)]
    fn splat(v: f32) -> Self {
        // SAFETY: AVX is present.
        Avx2(unsafe { std::arch::x86_64::_mm256_set1_ps(v) })
    }
    #[inline(always)]
    unsafe fn load(p: *const f32) -> Self {
        // SAFETY: AVX is present; the caller guarantees the extent.
        Avx2(unsafe { std::arch::x86_64::_mm256_loadu_ps(p) })
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut f32) {
        // SAFETY: AVX is present; the caller guarantees the extent.
        unsafe { std::arch::x86_64::_mm256_storeu_ps(p, self.0) }
    }
    #[inline(always)]
    fn mul_add(self, x: Self, m: Self) -> Self {
        // SAFETY: FMA is present.
        Avx2(unsafe { std::arch::x86_64::_mm256_fmadd_ps(x.0, m.0, self.0) })
    }
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        // SAFETY: AVX is present.
        Avx2(unsafe { std::arch::x86_64::_mm256_add_ps(self.0, o.0) })
    }
}

/// Operands of one [`accumulate`] call:
/// `dst[i][lane] += Σ_r x[a[i] + b[r]] · m[r·lanes + lane]`.
#[derive(Clone, Copy)]
struct Operands<'a> {
    x: &'a [f32],
    a: &'a [usize],
    b: &'a [usize],
    m: &'a [f32],
    lanes: usize,
}

/// The register-tile micro-kernel: `acc[i][v] = Σ_r x[a[i] + b[r]] · m[r]`
/// over `V` vectors of lanes, ascending `r`, one `mul_add` per step,
/// starting from zero.
///
/// # Safety
/// `x` must be valid at every `a[i] + b[r]`, and `m` for
/// `(b.len() - 1)·lanes + V·LANES` reads.
#[inline(always)]
unsafe fn tile<S: Lanes, const P: usize, const V: usize>(
    x: *const f32,
    a: &[usize; P],
    b: &[usize],
    m: *const f32,
    lanes: usize,
) -> [[S; V]; P] {
    let mut acc = [[S::zero(); V]; P];
    for (r, &br) in b.iter().enumerate() {
        // SAFETY: within the extents the caller guarantees.
        let mv: [S; V] = std::array::from_fn(|v| unsafe { S::load(m.add(r * lanes + v * LANES)) });
        for (acc_i, &ai) in acc.iter_mut().zip(a) {
            // SAFETY: within the extents the caller guarantees.
            let xv = S::splat(unsafe { *x.add(ai + br) });
            for (acc_iv, &mv_v) in acc_i.iter_mut().zip(&mv) {
                *acc_iv = acc_iv.mul_add(xv, mv_v);
            }
        }
    }
    acc
}

/// Sweeps `P × V` tiles over every row of `op.a` for lanes
/// `v0..v0 + V·LANES`, adding each `KC` block of `op.b` into `dst`
/// separately — the GEMM's block order.
///
/// # Safety
/// The extents [`accumulate`] checks, and `v0 + V·LANES <= op.lanes`.
#[inline(always)]
unsafe fn rows<S: Lanes, const P: usize, const V: usize>(
    op: &Operands<'_>,
    v0: usize,
    dst: &mut [f32],
) {
    let Operands { x, a, b, m, lanes } = *op;
    for i0 in (0..a.len()).step_by(P) {
        let n = P.min(a.len() - i0);
        // A short last tile repeats its last row; those results are dropped.
        let ai: [usize; P] = std::array::from_fn(|i| a[i0 + i.min(n - 1)]);
        for (kb, bk) in b.chunks(KC).enumerate() {
            // SAFETY: `kb·KC + bk.len() <= b.len()` rows of `m` exist.
            let acc: [[S; V]; P] =
                unsafe { tile(x.as_ptr(), &ai, bk, m.as_ptr().add(kb * KC * lanes + v0), lanes) };
            for (i, acc_i) in acc.iter().enumerate().take(n) {
                let d = dst[(i0 + i) * lanes + v0..][..V * LANES].as_mut_ptr();
                for (v, &s) in acc_i.iter().enumerate() {
                    // SAFETY: `d` spans `V·LANES` floats (sliced above).
                    unsafe {
                        let p = d.add(v * LANES);
                        S::load(p).add(s).store(p);
                    }
                }
            }
        }
    }
}

/// Covers all lanes: pairs of vectors on a 6-row tile, a last odd vector
/// on a 12-row tile — 12 accumulators either way.
///
/// # Safety
/// The extents [`accumulate`] checks.
#[inline(always)]
unsafe fn accumulate_lanes<S: Lanes>(op: &Operands<'_>, dst: &mut [f32]) {
    let mut v0 = 0;
    while v0 < op.lanes {
        if op.lanes - v0 >= 2 * LANES {
            // SAFETY: forwarded; two vectors fit below `lanes`.
            unsafe { rows::<S, 6, 2>(op, v0, dst) };
            v0 += 2 * LANES;
        } else {
            // SAFETY: forwarded; one vector fits below `lanes`.
            unsafe { rows::<S, 12, 1>(op, v0, dst) };
            v0 += LANES;
        }
    }
}

/// # Safety
/// The host supports AVX2 and FMA, plus the extents [`accumulate`] checks.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn accumulate_avx2(op: &Operands<'_>, dst: &mut [f32]) {
    // SAFETY: forwarded.
    unsafe { accumulate_lanes::<Avx2>(op, dst) }
}

/// `dst[i][lane] += Σ_r x[a[i] + b[r]] · m[r][lane]` for every row `i` of
/// `op.a` and every lane, `r` ascending in `KC` blocks that each start from
/// zero. `fma` comes from [`fma_available`], read once per kernel call so
/// that every image and band of the call uses the same build.
fn accumulate(fma: bool, op: &Operands<'_>, dst: &mut [f32]) {
    let Operands { x, a, b, m, lanes } = *op;
    let (Some(&amax), Some(&bmax)) = (a.iter().max(), b.iter().max()) else { return };
    assert!(
        lanes.is_multiple_of(LANES)
            && amax + bmax < x.len()
            && m.len() >= b.len() * lanes
            && dst.len() >= a.len() * lanes,
        "conv operands out of range"
    );
    #[cfg(target_arch = "x86_64")]
    if fma && cpu_has_fma() {
        // SAFETY: the CPUID probe found AVX2 and FMA; extents checked above.
        unsafe { accumulate_avx2(op, dst) };
        return;
    }
    let _ = fma;
    // SAFETY: extents checked above.
    unsafe { accumulate_lanes::<Portable>(op, dst) }
}

/// `dst[j·ds + i] = src[i·ss + j]` for `i < rows`, `j < cols`, sixteen
/// `dst` rows at a time: those rows stay cache-resident while `i` sweeps,
/// where a whole-row sweep with a power-of-two stride keeps hitting the
/// same few L1 sets.
fn transpose(src: &[f32], rows: usize, cols: usize, ss: usize, dst: &mut [f32], ds: usize) {
    const B: usize = 16;
    for j0 in (0..cols).step_by(B) {
        let width = B.min(cols - j0);
        for i in 0..rows {
            let run = &src[i * ss + j0..][..width];
            for (d, &v) in dst[j0 * ds + i..].iter_mut().step_by(ds).zip(run) {
                *d = v;
            }
        }
    }
}

/// Runs `f(index, chunk)` over `chunk`-sized pieces of `dst`, fanned out
/// over the thread pool when `parallel`.
fn for_each_chunk(
    dst: &mut [f32],
    chunk: usize,
    parallel: bool,
    f: impl Fn(usize, &mut [f32]) + Sync,
) {
    if dst.is_empty() {
        return;
    }
    if parallel {
        dst.par_chunks_mut(chunk).enumerate().for_each(|(i, c)| f(i, c));
    } else {
        dst.chunks_mut(chunk).enumerate().for_each(|(i, c)| f(i, c));
    }
}

/// Per-call geometry of the direct kernels: a zero-padded, channel-last
/// (`[hp, wp, cin]`) image layout and the two offset tables into it.
/// Channel-last keeps one pixel's receptive field in a few cache lines
/// whatever the plane size.
struct Geometry {
    c: usize,
    h: usize,
    w: usize,
    hp: usize,
    wp: usize,
    pad: usize,
    /// `bases[p]`: padded offset of output pixel `p`'s receptive-field origin.
    bases: Vec<usize>,
    /// `offsets[l]`: offset of patch index `l = (ch, ky, kx)` from an origin.
    offsets: Vec<usize>,
}

impl Geometry {
    fn new(spec: &Conv2dSpec, h: usize, w: usize) -> Self {
        let (oh, ow) = spec.out_hw(h, w);
        let (c, k, s, pad) = (spec.in_channels, spec.kernel, spec.stride, spec.padding);
        let (hp, wp) = (h + 2 * pad, w + 2 * pad);
        let bases = (0..oh).flat_map(|oy| (0..ow).map(move |ox| (oy * wp + ox) * s * c)).collect();
        let offsets = (0..c)
            .flat_map(|ch| (0..k).flat_map(move |ky| (0..k).map(move |kx| (ky * wp + kx) * c + ch)))
            .collect();
        Geometry { c, h, w, hp, wp, pad, bases, offsets }
    }

    fn padded_len(&self) -> usize {
        self.hp * self.wp * self.c
    }

    /// Copies one NCHW image into the interior of a zeroed padded buffer.
    fn pad(&self, img: &[f32], padded: &mut [f32]) {
        let (c, h, w, wp, pad) = (self.c, self.h, self.w, self.wp, self.pad);
        for y in 0..h {
            transpose(&img[y * w..], c, w, h * w, &mut padded[((y + pad) * wp + pad) * c..], c);
        }
    }

    /// Copies the interior of a padded buffer out as an NCHW image.
    fn unpad(&self, padded: &[f32], img: &mut [f32]) {
        let (c, h, w, wp, pad) = (self.c, self.h, self.w, self.wp, self.pad);
        for y in 0..h {
            transpose(&padded[((y + pad) * wp + pad) * c..], w, c, c, &mut img[y * w..], h * w);
        }
    }
}

/// Direct convolution forward pass. `input` is NCHW, `weight` is
/// `[cout, cin, k, k]`; returns `[n, cout, oh, ow]`. Images fan out over
/// the thread pool above [`conv_threads`]'s work threshold.
pub fn conv2d(input: &Tensor, weight: &Tensor, spec: &Conv2dSpec) -> Tensor {
    let dims = input.dims();
    let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
    assert_eq!(c, spec.in_channels, "conv2d input channel mismatch");
    assert_eq!(
        weight.dims(),
        &[spec.out_channels, spec.in_channels, spec.kernel, spec.kernel],
        "conv2d weight shape"
    );
    let (oh, ow) = spec.out_hw(h, w);
    let (cout, ohw, plen) = (spec.out_channels, oh * ow, spec.patch_len());
    let geo = Geometry::new(spec, h, w);
    let cpad = cout.next_multiple_of(LANES);
    let mut wt = vec![0.0f32; plen * cpad]; // [plen, cpad]
    transpose(weight.data(), cout, plen, plen, &mut wt, cpad);
    let fma = fma_available();
    let src = input.data();
    let img_len = c * h * w;
    let mut out = Tensor::zeros(&[n, cout, oh, ow]);
    let parallel = conv_threads(n * cout * ohw * plen) > 1;
    for_each_chunk(out.data_mut(), cout * ohw, parallel, |img, dst| {
        let mut padded = vec![0.0f32; geo.padded_len()];
        geo.pad(&src[img * img_len..][..img_len], &mut padded);
        let mut acc = vec![0.0f32; ohw * cpad]; // [ohw, cpad]
        let op = Operands { x: &padded, a: &geo.bases, b: &geo.offsets, m: &wt, lanes: cpad };
        accumulate(fma, &op, &mut acc);
        transpose(&acc, ohw, cout, cpad, dst, ohw);
    });
    out
}

/// Direct convolution weight gradient:
/// `dW[co, l] = Σ_img Σ_pixel dY[img, co, pixel] · patch(img, pixel, l)`,
/// images added in order. `dy` is `[n, cout, oh, ow]`; returns
/// `[cout, cin, k, k]`. Above the work threshold the patch indices (not the
/// images) fan out, so each element's order is unchanged.
pub fn conv2d_dw(dy: &Tensor, input: &Tensor, spec: &Conv2dSpec) -> Tensor {
    let dims = input.dims();
    let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
    let (oh, ow) = spec.out_hw(h, w);
    let (cout, ohw, plen) = (spec.out_channels, oh * ow, spec.patch_len());
    assert_eq!(dy.dims(), &[n, cout, oh, ow], "conv2d_dw dy shape");
    let geo = Geometry::new(spec, h, w);
    let cpad = cout.next_multiple_of(LANES);
    let (img_len, pad_len, dy_len) = (c * h * w, geo.padded_len(), ohw * cpad);
    // Every image is padded and every dY transposed once, up front: each
    // fan-out band reads all of them.
    let mut padded = vec![0.0f32; n * pad_len];
    let mut dyt = vec![0.0f32; n * dy_len]; // [n, ohw, cpad]
    let (src, dyd) = (input.data(), dy.data());
    for img in 0..n {
        geo.pad(&src[img * img_len..][..img_len], &mut padded[img * pad_len..][..pad_len]);
        let dy_img = &dyd[img * cout * ohw..][..cout * ohw];
        transpose(dy_img, cout, ohw, ohw, &mut dyt[img * dy_len..][..dy_len], cpad);
    }
    let fma = fma_available();
    let threads = conv_threads(n * cout * ohw * plen);
    let band = plen.div_ceil(threads).max(1);
    let mut dwt = vec![0.0f32; plen * cpad]; // [plen, cpad]
    for_each_chunk(&mut dwt, band * cpad, threads > 1, |bi, rows| {
        let offsets = &geo.offsets[bi * band..][..rows.len() / cpad];
        for img in 0..n {
            let op = Operands {
                x: &padded[img * pad_len..][..pad_len],
                a: offsets,
                b: &geo.bases,
                m: &dyt[img * dy_len..][..dy_len],
                lanes: cpad,
            };
            accumulate(fma, &op, rows);
        }
    });
    let mut dw = Tensor::zeros(&[cout, spec.in_channels, spec.kernel, spec.kernel]);
    transpose(&dwt, plen, cout, cpad, dw.data_mut(), plen);
    dw
}

/// Direct convolution input gradient: per image, each strip of output
/// pixels' patch gradients `dY[:, pixel]ᵀ · W` is folded onto a padded
/// input-gradient buffer in pixel order — `col2im`'s order, since one
/// pixel adds to each input element at most once; the padding takes the
/// out-of-bounds adds. `dy` is `[n, cout, oh, ow]`; returns
/// `[n, cin, h, w]`.
pub fn conv2d_dx(dy: &Tensor, weight: &Tensor, spec: &Conv2dSpec, h: usize, w: usize) -> Tensor {
    let n = dy.dims()[0];
    let (oh, ow) = spec.out_hw(h, w);
    let (cin, cout, k) = (spec.in_channels, spec.out_channels, spec.kernel);
    let (ohw, plen, kk) = (oh * ow, spec.patch_len(), k * k);
    assert_eq!(dy.dims(), &[n, cout, oh, ow], "conv2d_dx dy shape");
    assert_eq!(weight.dims(), &[cout, cin, k, k], "conv2d_dx weight shape");
    let geo = Geometry::new(spec, h, w);
    // Patch indices reordered to (ky, kx, ci), so one pixel's fold is k²
    // contiguous runs of `cin` channels.
    let lpad = plen.next_multiple_of(LANES);
    let mut wpad = vec![0.0f32; cout * lpad]; // [cout, lpad]
    for (dst, row) in wpad.chunks_exact_mut(lpad).zip(weight.data().chunks_exact(plen)) {
        transpose(row, cin, kk, kk, dst, cin);
    }
    let taps = &geo.offsets[..kk];
    let channels: Vec<usize> = (0..cout).collect();
    let pixel_rows: Vec<usize> = (0..ohw).map(|p| p * cout).collect();
    let fma = fma_available();
    let dyd = dy.data();
    let mut dx = Tensor::zeros(&[n, cin, h, w]);
    let parallel = conv_threads(n * cout * ohw * plen) > 1;
    for_each_chunk(dx.data_mut(), cin * h * w, parallel, |img, dst| {
        let mut dyt = vec![0.0f32; ohw * cout]; // [ohw, cout]
        transpose(&dyd[img * cout * ohw..][..cout * ohw], cout, ohw, ohw, &mut dyt, cout);
        let mut padded = vec![0.0f32; geo.padded_len()];
        let mut strip = vec![0.0f32; STRIP * lpad]; // [STRIP, lpad]
        for p0 in (0..ohw).step_by(STRIP) {
            let pixels = &pixel_rows[p0..ohw.min(p0 + STRIP)];
            strip[..pixels.len() * lpad].fill(0.0);
            let op = Operands { x: &dyt, a: pixels, b: &channels, m: &wpad, lanes: lpad };
            accumulate(fma, &op, &mut strip);
            for (row, &base) in strip.chunks_exact(lpad).zip(&geo.bases[p0..]) {
                for (&tap, grads) in taps.iter().zip(row.chunks_exact(cin)) {
                    let at = base + tap;
                    for (d, &g) in padded[at..at + cin].iter_mut().zip(grads) {
                        *d += g;
                    }
                }
            }
        }
        geo.unpad(&padded, dst);
    });
    dx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::gemm::{gemm, with_portable_kernels, MatRef};
    use crate::ops::reference;
    use crate::{assert_close, Rng};

    fn random(dims: &[usize], rng: &mut Rng) -> Tensor {
        let n: usize = dims.iter().product();
        Tensor::from_vec((0..n).map(|_| rng.normal() as f32).collect(), dims)
    }

    #[test]
    fn out_hw_formula() {
        let spec = Conv2dSpec { in_channels: 1, out_channels: 1, kernel: 3, stride: 1, padding: 1 };
        assert_eq!(spec.out_hw(8, 8), (8, 8)); // same-padding 3x3
        let spec2 = Conv2dSpec { kernel: 3, stride: 2, padding: 1, ..spec };
        assert_eq!(spec2.out_hw(8, 8), (4, 4));
        let spec3 = Conv2dSpec { kernel: 1, stride: 1, padding: 0, ..spec };
        assert_eq!(spec3.out_hw(5, 7), (5, 7));
    }

    #[test]
    fn conv_matches_naive_3x3_pad1() {
        let mut rng = Rng::seed_from_u64(11);
        let spec = Conv2dSpec { in_channels: 3, out_channels: 4, kernel: 3, stride: 1, padding: 1 };
        let x = random(&[2, 3, 6, 6], &mut rng);
        let w = random(&[4, 3, 3, 3], &mut rng);
        assert_close(&conv2d(&x, &w, &spec), &reference::conv2d_ref(&x, &w, &spec), 1e-4);
    }

    #[test]
    fn conv_matches_naive_strided() {
        let mut rng = Rng::seed_from_u64(12);
        let spec = Conv2dSpec { in_channels: 2, out_channels: 3, kernel: 3, stride: 2, padding: 1 };
        let x = random(&[1, 2, 7, 7], &mut rng);
        let w = random(&[3, 2, 3, 3], &mut rng);
        assert_close(&conv2d(&x, &w, &spec), &reference::conv2d_ref(&x, &w, &spec), 1e-4);
    }

    #[test]
    fn conv_matches_naive_1x1() {
        let mut rng = Rng::seed_from_u64(13);
        let spec = Conv2dSpec { in_channels: 4, out_channels: 2, kernel: 1, stride: 1, padding: 0 };
        let x = random(&[2, 4, 5, 5], &mut rng);
        let w = random(&[2, 4, 1, 1], &mut rng);
        assert_close(&conv2d(&x, &w, &spec), &reference::conv2d_ref(&x, &w, &spec), 1e-4);
    }

    #[test]
    fn conv_matches_naive_nonsquare_blocksized() {
        // Non-square input, oh·ow and plen straddling the NC/KC boundaries.
        let mut rng = Rng::seed_from_u64(15);
        let spec = Conv2dSpec { in_channels: 5, out_channels: 6, kernel: 3, stride: 1, padding: 1 };
        let x = random(&[1, 5, 9, 13], &mut rng);
        let w = random(&[6, 5, 3, 3], &mut rng);
        assert_close(&conv2d(&x, &w, &spec), &reference::conv2d_ref(&x, &w, &spec), 1e-4);
    }

    #[test]
    fn dw_matches_naive() {
        let mut rng = Rng::seed_from_u64(16);
        let spec = Conv2dSpec { in_channels: 2, out_channels: 3, kernel: 3, stride: 2, padding: 1 };
        let x = random(&[2, 2, 7, 6], &mut rng);
        let (oh, ow) = spec.out_hw(7, 6);
        let dy = random(&[2, 3, oh, ow], &mut rng);
        assert_close(&conv2d_dw(&dy, &x, &spec), &reference::conv2d_dw_ref(&dy, &x, &spec), 1e-4);
    }

    #[test]
    fn dx_matches_naive() {
        let mut rng = Rng::seed_from_u64(17);
        let spec = Conv2dSpec { in_channels: 3, out_channels: 2, kernel: 3, stride: 1, padding: 1 };
        let w = random(&[2, 3, 3, 3], &mut rng);
        let (oh, ow) = spec.out_hw(5, 8);
        let dy = random(&[2, 2, oh, ow], &mut rng);
        assert_close(
            &conv2d_dx(&dy, &w, &spec, 5, 8),
            &reference::conv2d_dx_ref(&dy, &w, &spec, 5, 8),
            1e-4,
        );
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> — the defining adjoint property,
        // checked with random tensors.
        let mut rng = Rng::seed_from_u64(14);
        let spec = Conv2dSpec { in_channels: 2, out_channels: 1, kernel: 3, stride: 2, padding: 1 };
        let x = random(&[2, 2, 5, 5], &mut rng);
        let cols = im2col(&x, &spec);
        let y = random(cols.dims(), &mut rng);
        let lhs: f32 = cols.data().iter().zip(y.data()).map(|(a, b)| a * b).sum();
        let back = col2im(&y, &spec, 2, 5, 5);
        let rhs: f32 = x.data().iter().zip(back.data()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3 * lhs.abs().max(1.0), "{lhs} vs {rhs}");
    }

    #[test]
    fn im2col_identity_kernel1() {
        // kernel 1, stride 1, no padding: im2col rows are just the pixels
        // in channel-major order.
        let x = Tensor::from_vec((0..8).map(|v| v as f32).collect(), &[1, 2, 2, 2]);
        let spec = Conv2dSpec { in_channels: 2, out_channels: 1, kernel: 1, stride: 1, padding: 0 };
        let cols = im2col(&x, &spec);
        assert_eq!(cols.dims(), &[4, 2]);
        // pixel (0,0): channels (0, 4); pixel (0,1): (1, 5)...
        assert_eq!(cols.data(), &[0., 4., 1., 5., 2., 6., 3., 7.]);
    }

    /// The formulation the direct kernels replace: per-image packed GEMMs
    /// over the materialized `im2col` operand, folded back with `col2im`.
    fn gemm_conv2d(x: &Tensor, wt: &Tensor, spec: &Conv2dSpec) -> Tensor {
        let d = x.dims();
        let (n, h, w) = (d[0], d[2], d[3]);
        let (oh, ow) = spec.out_hw(h, w);
        let (cout, ohw, plen) = (spec.out_channels, oh * ow, spec.patch_len());
        let cols = im2col(x, spec);
        let mut out = Tensor::zeros(&[n, cout, oh, ow]);
        for (img, dst) in out.data_mut().chunks_mut(cout * ohw).enumerate() {
            let cols_img = &cols.data()[img * ohw * plen..][..ohw * plen];
            let (a, b) = (MatRef::row_major(wt.data(), plen), MatRef::transposed(cols_img, plen));
            gemm(dst, cout, ohw, plen, a, b, 1);
        }
        out
    }

    fn gemm_conv2d_dw(dy: &Tensor, x: &Tensor, spec: &Conv2dSpec) -> Tensor {
        let d = x.dims();
        let (n, h, w) = (d[0], d[2], d[3]);
        let (oh, ow) = spec.out_hw(h, w);
        let (cout, ohw, plen) = (spec.out_channels, oh * ow, spec.patch_len());
        let cols = im2col(x, spec);
        let mut dw = Tensor::zeros(&[cout, spec.in_channels, spec.kernel, spec.kernel]);
        for img in 0..n {
            let dy_img = &dy.data()[img * cout * ohw..][..cout * ohw];
            let cols_img = &cols.data()[img * ohw * plen..][..ohw * plen];
            let (a, b) = (MatRef::row_major(dy_img, ohw), MatRef::row_major(cols_img, plen));
            gemm(dw.data_mut(), cout, plen, ohw, a, b, 1);
        }
        dw
    }

    fn gemm_conv2d_dx(dy: &Tensor, wt: &Tensor, spec: &Conv2dSpec, h: usize, w: usize) -> Tensor {
        let n = dy.dims()[0];
        let (oh, ow) = spec.out_hw(h, w);
        let (cout, ohw, plen) = (spec.out_channels, oh * ow, spec.patch_len());
        let mut dcols = Tensor::zeros(&[n * ohw, plen]);
        for (img, dst) in dcols.data_mut().chunks_mut(ohw * plen).enumerate() {
            let dy_img = &dy.data()[img * cout * ohw..][..cout * ohw];
            let (a, b) = (MatRef::transposed(dy_img, ohw), MatRef::row_major(wt.data(), plen));
            gemm(dst, ohw, plen, cout, a, b, 1);
        }
        col2im(&dcols, spec, n, h, w)
    }

    fn assert_bitwise(got: &Tensor, want: &Tensor, what: &str) {
        assert_eq!(got.dims(), want.dims(), "{what} shape");
        for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what} differs at flat index {i}: {g} vs {w}");
        }
    }

    /// All three direct kernels against the GEMM formulation, bit for bit.
    fn check_parity(n: usize, spec: Conv2dSpec, h: usize, w: usize, seed: u64) {
        let mut rng = Rng::seed_from_u64(seed);
        let x = random(&[n, spec.in_channels, h, w], &mut rng);
        let wt = random(&[spec.out_channels, spec.in_channels, spec.kernel, spec.kernel], &mut rng);
        let (oh, ow) = spec.out_hw(h, w);
        let dy = random(&[n, spec.out_channels, oh, ow], &mut rng);
        let what = |k: &str| format!("{k} {spec:?} on {n}x{h}x{w}");
        assert_bitwise(&conv2d(&x, &wt, &spec), &gemm_conv2d(&x, &wt, &spec), &what("conv2d"));
        assert_bitwise(
            &conv2d_dw(&dy, &x, &spec),
            &gemm_conv2d_dw(&dy, &x, &spec),
            &what("conv2d_dw"),
        );
        assert_bitwise(
            &conv2d_dx(&dy, &wt, &spec, h, w),
            &gemm_conv2d_dx(&dy, &wt, &spec, h, w),
            &what("conv2d_dx"),
        );
    }

    /// Kernel sizes, strides, paddings and channel counts around the vector
    /// width on odd maps, plus shapes whose reductions span several `KC`
    /// blocks: plen > 256 (forward), oh·ow > 256 (dW), cout > 256 (dX).
    fn parity_cases() {
        let mut seed = 100;
        for (kernel, stride, padding) in
            [(1, 1, 0), (1, 1, 1), (1, 2, 0), (1, 2, 1), (3, 1, 0), (3, 1, 1), (3, 2, 0), (3, 2, 1)]
        {
            for out_channels in [5, 8, 16, 32, 64] {
                for hw in [3, 7] {
                    let spec = Conv2dSpec { in_channels: 3, out_channels, kernel, stride, padding };
                    seed += 1;
                    check_parity(2, spec, hw, hw, seed);
                }
            }
        }
        let big = |cin, cout| Conv2dSpec {
            in_channels: cin,
            out_channels: cout,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        check_parity(2, big(40, 16), 7, 7, 1); // plen 360
        check_parity(1, big(64, 64), 17, 17, 2); // plen 576, oh·ow 289
        check_parity(2, big(32, 300), 3, 3, 3); // cout 300
        check_parity(2, big(3, 13), 9, 13, 4); // non-square
    }

    #[test]
    fn direct_kernels_match_the_gemm_formulation_bitwise() {
        parity_cases();
    }

    #[test]
    fn portable_kernels_match_the_portable_gemm_bitwise() {
        with_portable_kernels(parity_cases);
    }
}
