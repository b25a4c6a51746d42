//! Differentiable batch normalization (training mode) and constant-stats
//! normalization (inference mode).
//!
//! The training-mode ops also *return* the batch mean/variance so the
//! caller can maintain running statistics — that hook is exactly where the
//! paper's Async-BN plugs in: workers report batch statistics to the
//! parameter server (Algorithm 1 lines 6–7), which accumulates them with
//! Formulas 6–7 instead of keeping purely local running averages.

use crate::graph::{BackwardOp, Ctx, Var};
use crate::Graph;
use lcasgd_tensor::Tensor;
use std::ops::Range;

/// Batch statistics computed by a training-mode BN op.
#[derive(Clone, Debug)]
pub struct BnBatchStats {
    /// Per-channel batch mean.
    pub mean: Tensor,
    /// Per-channel biased batch variance.
    pub var: Tensor,
}

/// Shared backward math: given per-channel reductions, produce dx for one
/// element. All tensors are walked as a sequence of per-channel planes.
struct BnBack {
    x: Var,
    gamma: Var,
    beta: Var,
    /// Normalized activations x̂ from the forward pass.
    xhat: Tensor,
    /// Per-channel 1/√(σ²+ε).
    inv_std: Tensor,
    /// Elements per channel (N·H·W for 2d, batch for 1d).
    m: usize,
    layout: Layout,
}

enum Layout {
    /// `[b, n]`: channel = column.
    Rows { n: usize },
    /// `[n, c, h, w]`: channel = feature map.
    Nchw { c: usize, hw: usize },
}

impl Layout {
    /// `(channels, elements per channel plane)`: a flat buffer is a
    /// sequence of `channels` planes, repeated per row/image.
    fn dims(&self) -> (usize, usize) {
        match *self {
            Layout::Rows { n } => (n, 1),
            Layout::Nchw { c, hw } => (c, hw),
        }
    }

    fn channels(&self) -> usize {
        self.dims().0
    }

    /// `(channel, flat range)` of every plane of a `len`-element buffer, in
    /// flat order — no per-element channel arithmetic.
    fn planes(&self, len: usize) -> impl Iterator<Item = (usize, Range<usize>)> {
        let (c, plane) = self.dims();
        (0..c).cycle().zip((0..len).step_by(plane)).map(move |(ch, at)| (ch, at..at + plane))
    }
}

impl BackwardOp for BnBack {
    fn backward(&self, ctx: &mut Ctx<'_>) {
        let c = self.layout.channels();
        let dy = ctx.grad.data();
        let xhat = self.xhat.data();

        // Per-channel reductions: dbeta = Σdy, dgamma = Σ dy·x̂ (flat order).
        let mut dbeta = vec![0.0f64; c];
        let mut dgamma = vec![0.0f64; c];
        for (ch, r) in self.layout.planes(dy.len()) {
            let (mut db, mut dg) = (dbeta[ch], dgamma[ch]);
            for (&g, &xh) in dy[r.clone()].iter().zip(&xhat[r]) {
                db += g as f64;
                dg += (g * xh) as f64;
            }
            (dbeta[ch], dgamma[ch]) = (db, dg);
        }

        // dx = γ·inv_std/m · (m·dy − dbeta − x̂·dgamma)
        let gamma = ctx.value(self.gamma).data();
        let inv_std = self.inv_std.data();
        let m = self.m as f32;
        let mut dx = Tensor::zeros_like(&self.xhat);
        let out = dx.data_mut();
        for (ch, r) in self.layout.planes(out.len()) {
            let scale = gamma[ch] * inv_std[ch] / m;
            let (db, dg) = (dbeta[ch] as f32, dgamma[ch] as f32);
            for ((o, &g), &xh) in out[r.clone()].iter_mut().zip(&dy[r.clone()]).zip(&xhat[r]) {
                *o = scale * (m * g - db - xh * dg);
            }
        }

        ctx.accumulate(self.x, dx);
        ctx.accumulate(
            self.gamma,
            Tensor::from_vec(dgamma.into_iter().map(|v| v as f32).collect(), &[c]),
        );
        ctx.accumulate(
            self.beta,
            Tensor::from_vec(dbeta.into_iter().map(|v| v as f32).collect(), &[c]),
        );
    }
}

/// Per-channel `1/√(σ²+ε)`.
fn inv_std(var: &Tensor, eps: f32) -> Tensor {
    Tensor::from_vec(var.data().iter().map(|&v| 1.0 / (v + eps).sqrt()).collect(), var.dims())
}

/// The channel layout of a rank-2 (`[b, n]`) or rank-4 (NCHW) activation.
fn inference_layout(x: &Tensor) -> Layout {
    match x.shape().rank() {
        2 => Layout::Rows { n: x.dims()[1] },
        4 => Layout::Nchw { c: x.dims()[1], hw: x.dims()[2] * x.dims()[3] },
        r => panic!("batch_norm_inference on rank {r}"),
    }
}

/// Inference-mode BatchNorm in place, with fixed (running) statistics:
/// `x ← (x − μ)·(1/√(σ²+ε))·γ + β` per channel, for NCHW (rank 4) and
/// `[b, n]` (rank 2) inputs. The per-element arithmetic is that of the
/// training-mode normalization; [`Graph::batch_norm_inference`] computes
/// its value with this function too.
pub fn batch_norm_inference_inplace(
    x: &mut Tensor,
    gamma: &Tensor,
    beta: &Tensor,
    mean: &Tensor,
    var: &Tensor,
    eps: f32,
) {
    let layout = inference_layout(x);
    let inv_std = inv_std(var, eps);
    let (md, isd) = (mean.data(), inv_std.data());
    let (gd, bd) = (gamma.data(), beta.data());
    let xd = x.data_mut();
    for (ch, r) in layout.planes(xd.len()) {
        let (m, s, g, b) = (md[ch], isd[ch], gd[ch], bd[ch]);
        for v in &mut xd[r] {
            *v = (*v - m) * s * g + b;
        }
    }
}

fn normalize(
    x: &Tensor,
    mean: &Tensor,
    var: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
    eps: f32,
    layout: &Layout,
) -> (Tensor, Tensor, Tensor) {
    let inv_std = inv_std(var, eps);
    let mut xhat = x.clone();
    let mut y = Tensor::zeros_like(x);
    let (md, isd) = (mean.data(), inv_std.data());
    let (gd, bd) = (gamma.data(), beta.data());
    let (xd, yd) = (xhat.data_mut(), y.data_mut());
    for (ch, r) in layout.planes(xd.len()) {
        let (m, s, g, b) = (md[ch], isd[ch], gd[ch], bd[ch]);
        for (v, o) in xd[r.clone()].iter_mut().zip(&mut yd[r]) {
            *v = (*v - m) * s;
            *o = *v * g + b;
        }
    }
    (y, xhat, inv_std)
}

impl Graph {
    /// Training-mode BatchNorm over an NCHW activation. Normalizes with the
    /// *batch* statistics and returns them for running-average maintenance.
    pub fn batch_norm2d(&mut self, x: Var, gamma: Var, beta: Var, eps: f32) -> (Var, BnBatchStats) {
        let xt = self.value(x);
        assert_eq!(xt.shape().rank(), 4, "batch_norm2d expects NCHW");
        let d = xt.dims();
        let (n, c, hw) = (d[0], d[1], d[2] * d[3]);
        let mean = xt.channel_mean();
        let var = xt.channel_var(&mean);
        let layout = Layout::Nchw { c, hw };
        let (y, xhat, inv_std) =
            normalize(xt, &mean, &var, self.value(gamma), self.value(beta), eps, &layout);
        let back = BnBack { x, gamma, beta, xhat, inv_std, m: n * hw, layout };
        let out = self.push(y, Some(Box::new(back)));
        (out, BnBatchStats { mean, var })
    }

    /// Training-mode BatchNorm over a `[b, features]` activation.
    pub fn batch_norm1d(&mut self, x: Var, gamma: Var, beta: Var, eps: f32) -> (Var, BnBatchStats) {
        let xt = self.value(x);
        assert_eq!(xt.shape().rank(), 2, "batch_norm1d expects [b, n]");
        let (b, n) = (xt.dims()[0], xt.dims()[1]);
        let mean = xt.column_mean();
        let var = xt.column_var(&mean);
        let layout = Layout::Rows { n };
        let (y, xhat, inv_std) =
            normalize(xt, &mean, &var, self.value(gamma), self.value(beta), eps, &layout);
        let back = BnBack { x, gamma, beta, xhat, inv_std, m: b, layout };
        let out = self.push(y, Some(Box::new(back)));
        (out, BnBatchStats { mean, var })
    }

    /// Inference-mode normalization with fixed (running) statistics. The
    /// statistics are constants: gradients flow to `x`, `gamma`, `beta`
    /// only. Works for both NCHW (rank 4) and `[b, n]` (rank 2) inputs.
    ///
    /// Graph-free inference (`lcasgd_nn::Network::infer`) calls
    /// [`batch_norm_inference_inplace`] directly; this op is its tape
    /// oracle in the tests.
    pub fn batch_norm_inference(
        &mut self,
        x: Var,
        gamma: Var,
        beta: Var,
        mean: &Tensor,
        var: &Tensor,
        eps: f32,
    ) -> Var {
        let xt = self.value(x);
        let layout = inference_layout(xt);
        let mut y = xt.clone();
        batch_norm_inference_inplace(&mut y, self.value(gamma), self.value(beta), mean, var, eps);
        // Fixed stats ⇒ x̂ is an affine function of x alone: dx = dy·γ·inv_std.
        struct InferenceBack {
            x: Var,
            gamma: Var,
            beta: Var,
            mean: Tensor,
            inv_std: Tensor,
            layout: Layout,
        }
        impl BackwardOp for InferenceBack {
            fn backward(&self, ctx: &mut Ctx<'_>) {
                let c = self.layout.channels();
                let dy = ctx.grad.data();
                let gd = ctx.value(self.gamma).data();
                let (md, isd) = (self.mean.data(), self.inv_std.data());
                let xd = ctx.value(self.x).data();
                let mut dx = Tensor::zeros_like(ctx.value(self.x));
                let mut dgamma = vec![0.0f64; c];
                let mut dbeta = vec![0.0f64; c];
                let out = dx.data_mut();
                for (ch, r) in self.layout.planes(out.len()) {
                    let (g, m, s) = (gd[ch], md[ch], isd[ch]);
                    let (mut dg, mut db) = (dgamma[ch], dbeta[ch]);
                    for ((o, &d), &xv) in out[r.clone()].iter_mut().zip(&dy[r.clone()]).zip(&xd[r])
                    {
                        *o = d * g * s;
                        dg += (d * ((xv - m) * s)) as f64;
                        db += d as f64;
                    }
                    (dgamma[ch], dbeta[ch]) = (dg, db);
                }
                ctx.accumulate(self.x, dx);
                ctx.accumulate(
                    self.gamma,
                    Tensor::from_vec(dgamma.into_iter().map(|v| v as f32).collect(), &[c]),
                );
                ctx.accumulate(
                    self.beta,
                    Tensor::from_vec(dbeta.into_iter().map(|v| v as f32).collect(), &[c]),
                );
            }
        }
        let back = InferenceBack {
            x,
            gamma,
            beta,
            mean: mean.clone(),
            inv_std: inv_std(var, eps),
            layout,
        };
        self.push(y, Some(Box::new(back)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcasgd_tensor::{assert_close, Rng};

    #[test]
    fn bn1d_output_is_normalized() {
        let mut rng = Rng::seed_from_u64(51);
        let xt = Tensor::randn(&[64, 8], 3.0, &mut rng).add_scalar(5.0);
        let mut g = Graph::new();
        let x = g.leaf(xt);
        let gamma = g.leaf(Tensor::ones(&[8]));
        let beta = g.leaf(Tensor::zeros(&[8]));
        let (y, stats) = g.batch_norm1d(x, gamma, beta, 1e-5);
        let out = g.value(y);
        let m = out.column_mean();
        let v = out.column_var(&m);
        for &mv in m.data() {
            assert!(mv.abs() < 1e-4, "mean {mv}");
        }
        for &vv in v.data() {
            assert!((vv - 1.0).abs() < 1e-2, "var {vv}");
        }
        // Reported stats describe the *input* batch.
        assert!(stats.mean.data().iter().all(|&x| (x - 5.0).abs() < 2.0));
    }

    #[test]
    fn bn2d_output_is_normalized_per_channel() {
        let mut rng = Rng::seed_from_u64(52);
        let xt = Tensor::randn(&[8, 3, 4, 4], 2.0, &mut rng);
        let mut g = Graph::new();
        let x = g.leaf(xt);
        let gamma = g.leaf(Tensor::ones(&[3]));
        let beta = g.leaf(Tensor::zeros(&[3]));
        let (y, _) = g.batch_norm2d(x, gamma, beta, 1e-5);
        let out = g.value(y);
        let m = out.channel_mean();
        let v = out.channel_var(&m);
        for &mv in m.data() {
            assert!(mv.abs() < 1e-4);
        }
        for &vv in v.data() {
            assert!((vv - 1.0).abs() < 1e-2);
        }
    }

    #[test]
    fn gamma_beta_affine_transform() {
        let mut rng = Rng::seed_from_u64(53);
        let xt = Tensor::randn(&[32, 4], 1.0, &mut rng);
        let mut g = Graph::new();
        let x = g.leaf(xt);
        let gamma = g.leaf(Tensor::full(&[4], 2.0));
        let beta = g.leaf(Tensor::full(&[4], -1.0));
        let (y, _) = g.batch_norm1d(x, gamma, beta, 1e-5);
        let out = g.value(y);
        let m = out.column_mean();
        let v = out.column_var(&m);
        for &mv in m.data() {
            assert!((mv + 1.0).abs() < 1e-4, "mean should be beta, got {mv}");
        }
        for &vv in v.data() {
            assert!((vv - 4.0).abs() < 0.05, "var should be gamma², got {vv}");
        }
    }

    #[test]
    fn bn_grad_sums_to_zero_per_channel() {
        // The BN input gradient is mean-free per channel by construction.
        let mut rng = Rng::seed_from_u64(54);
        let xt = Tensor::randn(&[16, 3], 1.0, &mut rng);
        let mut g = Graph::new();
        let x = g.leaf(xt);
        let gamma = g.leaf(Tensor::ones(&[3]));
        let beta = g.leaf(Tensor::zeros(&[3]));
        let (y, _) = g.batch_norm1d(x, gamma, beta, 1e-5);
        // Arbitrary downstream: sum of squares.
        let y2 = g.mul(y, y);
        let s = g.sum(y2);
        g.backward(s);
        let gx = g.grad(x).unwrap();
        let col_sums = gx.sum_rows();
        for &cs in col_sums.data() {
            assert!(cs.abs() < 1e-3, "per-channel grad sum {cs}");
        }
    }

    #[test]
    fn inference_mode_uses_given_stats() {
        let xt = Tensor::from_vec(vec![1., 2., 3., 4.], &[2, 2]);
        let mean = Tensor::from_vec(vec![2.0, 3.0], &[2]);
        let var = Tensor::from_vec(vec![1.0, 1.0], &[2]);
        let mut g = Graph::new();
        let x = g.leaf(xt);
        let gamma = g.leaf(Tensor::ones(&[2]));
        let beta = g.leaf(Tensor::zeros(&[2]));
        let y = g.batch_norm_inference(x, gamma, beta, &mean, &var, 0.0);
        assert_close(g.value(y), &Tensor::from_vec(vec![-1., -1., 1., 1.], &[2, 2]), 1e-5);
    }
}
