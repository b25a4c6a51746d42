//! Pooling ops: max pooling and global average pooling.

use crate::graph::{BackwardOp, Ctx, Var};
use crate::Graph;
use lcasgd_tensor::Tensor;

struct MaxPoolBack {
    x: Var,
    /// Flat input index of each output element's argmax.
    argmax: Vec<u32>,
    in_dims: [usize; 4],
}
impl BackwardOp for MaxPoolBack {
    fn backward(&self, ctx: &mut Ctx<'_>) {
        let mut dx = Tensor::zeros(&self.in_dims);
        let d = dx.data_mut();
        for (&idx, &g) in self.argmax.iter().zip(ctx.grad.data()) {
            d[idx as usize] += g;
        }
        ctx.accumulate(self.x, dx);
    }
}

struct GlobalAvgPoolBack {
    x: Var,
    in_dims: [usize; 4],
}
impl BackwardOp for GlobalAvgPoolBack {
    fn backward(&self, ctx: &mut Ctx<'_>) {
        let [n, c, h, w] = self.in_dims;
        let hw = h * w;
        let scale = 1.0 / hw as f32;
        let mut dx = Tensor::zeros(&self.in_dims);
        let dst = dx.data_mut();
        let src = ctx.grad.data();
        for img in 0..n {
            for ch in 0..c {
                let g = src[img * c + ch] * scale;
                dst[(img * c + ch) * hw..(img * c + ch + 1) * hw].fill(g);
            }
        }
        ctx.accumulate(self.x, dx);
    }
}

/// `k×k` max pooling with stride `stride` over an NCHW input (no padding).
/// `pick` is told the flat input index of each output element's maximum,
/// in output order.
fn max_pool(xt: &Tensor, k: usize, stride: usize, mut pick: impl FnMut(usize)) -> Tensor {
    assert_eq!(xt.shape().rank(), 4, "max_pool2d expects NCHW");
    let d = xt.dims();
    let (n, c, h, w) = (d[0], d[1], d[2], d[3]);
    assert!(h >= k && w >= k, "pool window larger than input");
    let oh = (h - k) / stride + 1;
    let ow = (w - k) / stride + 1;
    let mut out = Tensor::zeros(&[n, c, oh, ow]);
    let src = xt.data();
    let dst = out.data_mut();
    let mut o = 0usize;
    for img in 0..n {
        for ch in 0..c {
            let plane = (img * c + ch) * h * w;
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_i = 0usize;
                    for ky in 0..k {
                        for kx in 0..k {
                            let i = plane + (oy * stride + ky) * w + ox * stride + kx;
                            if src[i] > best {
                                best = src[i];
                                best_i = i;
                            }
                        }
                    }
                    dst[o] = best;
                    pick(best_i);
                    o += 1;
                }
            }
        }
    }
    out
}

/// Inference-mode `k×k` max pooling: the values of
/// [`Graph::max_pool2d`] without the argmax bookkeeping.
pub fn max_pool2d_inference(x: &Tensor, k: usize, stride: usize) -> Tensor {
    max_pool(x, k, stride, |_| {})
}

/// Global average pooling `[n, c, h, w] -> [n, c]`, the value of
/// [`Graph::global_avg_pool`].
pub fn global_avg_pool_inference(xt: &Tensor) -> Tensor {
    assert_eq!(xt.shape().rank(), 4, "global_avg_pool expects NCHW");
    let d = xt.dims();
    let (n, c, hw) = (d[0], d[1], d[2] * d[3]);
    let mut out = Tensor::zeros(&[n, c]);
    let src = xt.data();
    for (i, o) in out.data_mut().iter_mut().enumerate() {
        let plane = &src[i * hw..(i + 1) * hw];
        *o = plane.iter().sum::<f32>() / hw as f32;
    }
    out
}

impl Graph {
    /// `k×k` max pooling with stride `stride` over an NCHW input. The input
    /// spatial size must be divisible by the window (no padding), matching
    /// how ResNet's pools are configured.
    pub fn max_pool2d(&mut self, x: Var, k: usize, stride: usize) -> Var {
        let xt = self.value(x);
        let d = xt.dims();
        let in_dims = [d[0], d[1], d[2], d[3]];
        let mut argmax = Vec::new();
        let out = max_pool(xt, k, stride, |i| argmax.push(i as u32));
        self.push(out, Some(Box::new(MaxPoolBack { x, argmax, in_dims })))
    }

    /// Global average pooling: `[n, c, h, w] -> [n, c]`. ResNet's final
    /// spatial reduction before the classifier head.
    pub fn global_avg_pool(&mut self, x: Var) -> Var {
        let xt = self.value(x);
        let out = global_avg_pool_inference(xt);
        let d = xt.dims();
        self.push(out, Some(Box::new(GlobalAvgPoolBack { x, in_dims: [d[0], d[1], d[2], d[3]] })))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_pool_values() {
        // 1 image, 1 channel, 4x4 -> 2x2 with k=2, s=2
        let xt = Tensor::from_vec(
            vec![1., 2., 5., 6., 3., 4., 7., 8., 9., 10., 13., 14., 11., 12., 15., 16.],
            &[1, 1, 4, 4],
        );
        let mut g = Graph::new();
        let x = g.leaf(xt);
        let y = g.max_pool2d(x, 2, 2);
        assert_eq!(g.value(y).data(), &[4., 8., 12., 16.]);
    }

    #[test]
    fn max_pool_grad_routes_to_argmax() {
        let xt = Tensor::from_vec(vec![1., 2., 3., 4.], &[1, 1, 2, 2]);
        let mut g = Graph::new();
        let x = g.leaf(xt);
        let y = g.max_pool2d(x, 2, 2);
        let s = g.sum(y);
        g.backward(s);
        assert_eq!(g.grad(x).unwrap().data(), &[0., 0., 0., 1.]);
    }

    #[test]
    fn overlapping_pool_accumulates() {
        // k=2, stride=1 on 3x3: center pixel may win several windows.
        let xt = Tensor::from_vec(vec![0., 0., 0., 0., 9., 0., 0., 0., 0.], &[1, 1, 3, 3]);
        let mut g = Graph::new();
        let x = g.leaf(xt);
        let y = g.max_pool2d(x, 2, 1);
        let s = g.sum(y);
        g.backward(s);
        // Center wins all 4 windows.
        assert_eq!(g.grad(x).unwrap().data()[4], 4.0);
    }

    #[test]
    fn global_avg_pool_value_and_grad() {
        let xt = Tensor::from_vec(vec![1., 2., 3., 4., 10., 20., 30., 40.], &[1, 2, 2, 2]);
        let mut g = Graph::new();
        let x = g.leaf(xt);
        let y = g.global_avg_pool(x);
        assert_eq!(g.value(y).data(), &[2.5, 25.0]);
        let s = g.sum(y);
        g.backward(s);
        assert_eq!(g.grad(x).unwrap().data(), &[0.25; 8]);
    }
}
