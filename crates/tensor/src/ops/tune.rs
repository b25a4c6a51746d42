//! Central tuning knobs for kernel dispatch and cache blocking.
//!
//! Every size threshold that decides *how* a kernel runs (serial fast path
//! vs packed/blocked vs rayon-parallel) lives here, so the matmul, conv and
//! elementwise kernels agree on one set of numbers instead of each carrying
//! a private copy. The values are sized for a generic x86-64 cache
//! hierarchy (32 KiB L1d, 256 KiB–1 MiB L2) and for this workspace's two
//! extremes: the LSTM predictors' tiny `[1, h] × [h, 4h]` products, which
//! must never pay packing or thread-dispatch overhead, and the large
//! products where cache misses dominate.
//!
//! Changing a blocking parameter cannot change results across thread
//! counts: parallel kernels split only the output-row dimension, and a
//! single output element is always accumulated in the same order (see
//! DESIGN.md §8).

/// Minimum element count before an elementwise op dispatches to rayon.
/// Below this, the rayon fork/join overhead dwarfs the arithmetic (the LSTM
/// predictors operate on vectors of 64–128 floats).
pub const PAR_THRESHOLD: usize = 16 * 1024;

/// Rows-of-output threshold before a matmul dispatches to the thread pool.
/// A single LSTM predictor step multiplies `[1, h] × [h, 4h]`; those must
/// stay serial.
pub const PAR_ROWS: usize = 8;

/// Minimum total FLOPs (`m·n·k`) before a matmul parallelizes.
pub const PAR_FLOPS: usize = 1 << 18;

/// Minimum total FLOPs before a matmul takes the packed/blocked GEMM path.
/// Below this the panel-packing overhead is not amortized and the simple
/// serial kernel wins.
pub const GEMM_PACK_FLOPS: usize = 1 << 15;

/// Micro-kernel register tile height (rows of A per micro-panel). The
/// micro-kernel keeps an `MR × NR` f32 accumulator block in registers.
pub const MR: usize = 4;

/// Micro-kernel register tile width (columns of B per micro-panel).
/// Sixteen f32 lanes — two AVX `ymm` vectors per accumulator row, giving
/// the AVX2+FMA micro-kernel `MR × NR/8 = 8` independent accumulator
/// chains, enough to cover FMA latency at two issues per cycle. (With one
/// vector per row the kernel is latency-bound at half peak.)
pub const NR: usize = 16;

/// Rows of A packed per cache block (`MC × KC` panel, L2-resident).
/// Must be a multiple of [`MR`].
pub const MC: usize = 64;

/// Depth of one packed panel pair (shared k-extent of the A and B panels,
/// L1-friendly inner loop length).
pub const KC: usize = 256;

/// Columns of B packed per cache block (`KC × NC` panel). Must be a
/// multiple of [`NR`].
pub const NC: usize = 256;

const _: () = assert!(MC.is_multiple_of(MR), "MC must be a multiple of MR");
const _: () = assert!(NC.is_multiple_of(NR), "NC must be a multiple of NR");

/// Whether an `m × k · k × n` product should take the packed/blocked GEMM
/// path. Depends only on the shape — never on the thread count — so the
/// dispatch decision itself cannot break thread-count invariance.
pub fn use_packed_gemm(m: usize, n: usize, k: usize) -> bool {
    m >= MR && n >= NR && m * n * k >= GEMM_PACK_FLOPS
}

/// Number of threads an `m`-row GEMM should fan out to (1 = stay serial).
pub fn gemm_threads(m: usize, n: usize, k: usize) -> usize {
    if m >= PAR_ROWS && m * n * k >= PAR_FLOPS {
        rayon::current_num_threads().max(1)
    } else {
        1
    }
}

/// Minimum multiply-adds (`n·cout·oh·ow·cin·k²`) in one direct conv call
/// before it fans out. Every fan-out of the rayon shim spawns OS threads
/// (about 50 µs per dispatch on a 2-vCPU VM), while a tiny-ResNet conv call
/// does 15–90 µs of work; below this size the dispatch costs more than the
/// split saves.
pub const CONV_PAR_MACS: usize = 1 << 23;

/// Number of threads a direct conv call with `macs` multiply-adds should
/// fan out to (1 = stay serial). Shape-only, like [`gemm_threads`].
pub fn conv_threads(macs: usize) -> usize {
    if macs >= CONV_PAR_MACS {
        rayon::current_num_threads().max(1)
    } else {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predictor_matmuls_stay_serial_and_unpacked() {
        // The largest LSTM predictor gate product is [1, 128] × [128, 512];
        // it must never pay packing or thread-dispatch overhead.
        assert!(!use_packed_gemm(1, 512, 128));
        assert_eq!(gemm_threads(1, 512, 128), 1);
    }

    #[test]
    fn resnet_gemms_take_the_packed_path() {
        assert!(use_packed_gemm(64, 1024, 576));
    }

    #[test]
    fn tiny_resnet_convs_stay_serial() {
        // The widest tiny-ResNet conv, 32->32 3x3 on 3x3 maps, at the
        // evaluation batch of 64; training batches are 16.
        assert_eq!(conv_threads(64 * 32 * 9 * 32 * 9), 1);
    }

    #[test]
    fn blocking_fits_reasonable_caches() {
        // A panel (MC×KC) + B panel (KC×NC) in f32 stay under 1 MiB.
        const { assert!((MC * KC + KC * NC) * 4 <= 1 << 20) };
    }
}
