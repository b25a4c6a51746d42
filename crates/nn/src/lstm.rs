//! Multi-layer LSTM with an affine head — the architecture of both LC-ASGD
//! predictors ("two LSTM layers in the front of the network and a linear
//! layer at the end", paper §4.3–4.4).
//!
//! The predictors are trained *online*, one `(input, label)` pair at a
//! time (truncated BPTT of length 1): the recurrent state is carried
//! across steps as plain tensors (detached), and each [`Lstm::train_step`]
//! runs one forward step, backpropagates an MSE loss, and applies a
//! clipped SGD update.
//!
//! # Graph-free, bitwise identical to the autograd formulation
//!
//! One batch-1 step is a handful of matrix–vector products, so forward and
//! backward are written out directly over the weight tensors rather than
//! recorded on an autograd tape. A tape per call cloned every weight into
//! a leaf (≈800 KB per step-predictor call) and cost more than the
//! arithmetic. Every float is produced by the same expression, in the same
//! order, as the `lcasgd-autograd` ops the cell is defined by (`linear`,
//! `sigmoid`, `tanh`, `mul`, `add`, `mse` and their backward ops at these
//! shapes), so results are bitwise identical to that formulation. The
//! test-only `reference` module keeps it as the oracle the equivalence
//! tests compare against; DESIGN.md §2 spells out the contract.

use crate::layer::Linear;
use lcasgd_tensor::{init, Rng, Tensor};

/// One LSTM layer's weights, packed as `W: [4h, in+h]`, `b: [4h]` with the
/// gate order `i, f, g, o`.
pub struct LstmCell {
    pub weight: Tensor,
    pub bias: Tensor,
    hidden: usize,
}

/// One layer's step: the row its gate product consumed and the
/// activations its backward pass reads.
struct CellTape {
    /// `[x, h_prev]`.
    xh: Vec<f32>,
    /// Activated gates `i, f, g, o`, `hidden` entries each.
    act: Vec<f32>,
    /// New cell state `c'`.
    c: Vec<f32>,
    /// `tanh(c')`.
    c_act: Vec<f32>,
    /// New hidden state `h' = o · tanh(c')`.
    h: Vec<f32>,
}

fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Rows of `W` whose dot products advance together in [`affine`].
const ROW_BLOCK: usize = 8;

/// `out[j] = (Σ_k x[k]·w[j, k]) + b[j]` for a row-major
/// `w: [out.len(), x.len()]` — the serial `matmul_nt` then `add_rows` of
/// `Graph::linear`: each row's sum starts at 0.0 and runs over ascending
/// `k`. [`ROW_BLOCK`] rows advance together so their independent add
/// chains overlap instead of each waiting on its own latency.
fn affine(w: &[f32], b: &[f32], x: &[f32], out: &mut [f32]) {
    let k = x.len();
    debug_assert_eq!(w.len(), out.len() * k);
    let blocked = out.len() / ROW_BLOCK * ROW_BLOCK;
    let (out_blocks, out_tail) = out.split_at_mut(blocked);
    let (w_blocks, w_tail) = w.split_at(blocked * k);
    for ((o, rows), bias) in out_blocks
        .chunks_exact_mut(ROW_BLOCK)
        .zip(w_blocks.chunks_exact(ROW_BLOCK * k))
        .zip(b.chunks_exact(ROW_BLOCK))
    {
        let rows: [&[f32]; ROW_BLOCK] = std::array::from_fn(|r| &rows[r * k..(r + 1) * k]);
        let mut acc = [0.0f32; ROW_BLOCK];
        for (kk, &xv) in x.iter().enumerate() {
            for (a, row) in acc.iter_mut().zip(&rows) {
                *a += xv * row[kk];
            }
        }
        for ((o, a), &bv) in o.iter_mut().zip(acc).zip(bias) {
            *o = a + bv;
        }
    }
    for ((o, row), &bv) in out_tail.iter_mut().zip(w_tail.chunks_exact(k)).zip(&b[blocked..]) {
        let mut acc = 0.0f32;
        for (&xv, &wv) in x.iter().zip(row) {
            acc += xv * wv;
        }
        *o = acc + bv;
    }
}

/// The first `dx.len()` entries of `dg·W` for a row-major `w` with rows of
/// length `k`: `LinearBack`'s input gradient from the serial `matmul`,
/// which starts at 0.0, skips zero `dg[j]` and adds rows in ascending `j`.
fn input_grad(w: &[f32], k: usize, dg: &[f32], dx: &mut [f32]) {
    dx.fill(0.0);
    for (row, &d) in w.chunks_exact(k).zip(dg) {
        if d == 0.0 {
            continue;
        }
        for (o, &wv) in dx.iter_mut().zip(row) {
            *o += d * wv;
        }
    }
}

/// One weight-gradient entry `dW[j, k]` from row gradient `d = dg[j]` and
/// input `x = xh[k]`, as `LinearBack`'s `matmul_tn` leaves it: the product
/// added to a zeroed accumulator, or 0.0 for a zero row (the serial kernel
/// skips it; the packed one computes `0·x + 0.0`, the same for finite `x`).
#[inline(always)]
fn weight_grad(d: f32, x: f32) -> f32 {
    if d == 0.0 {
        0.0
    } else {
        d * x + 0.0
    }
}

/// One gradient entry's contribution to the clip norm.
#[inline(always)]
fn sq(v: f32) -> f64 {
    (v as f64) * (v as f64)
}

/// `Σ dW[j, k]²` in f64 over `dW = dgᵀ·x`, row-major: one tensor's term
/// of the clip norm, summed in the order `.sum::<f64>()` walks a
/// materialized gradient.
fn weight_grad_sq_sum(dg: &[f32], x: &[f32]) -> f64 {
    dg.iter().flat_map(|&d| x.iter().map(move |&v| sq(weight_grad(d, v)))).sum()
}

/// [`weight_grad_sq_sum`]'s terms in eight interleaved partial sums.
fn weight_grad_sq_sum_lanes(dg: &[f32], x: &[f32]) -> f64 {
    const LANES: usize = 8;
    let mut acc = [0.0f64; LANES];
    let (body, tail) = x.split_at(x.len() / LANES * LANES);
    for &d in dg {
        for chunk in body.chunks_exact(LANES) {
            for (a, &v) in acc.iter_mut().zip(chunk) {
                *a += sq(d * v);
            }
        }
        for (a, &v) in acc.iter_mut().zip(tail) {
            *a += sq(d * v);
        }
    }
    acc.iter().sum()
}

/// The SGD step's clip factor: `clip/‖∇‖` when the global gradient norm
/// exceeds `clip`, else 1.0. `grads` holds each (weight, bias) pair's row
/// gradient `dg` and input `x` in registration order: `dW = dgᵀ·x`,
/// `db = dg + 0.0`.
///
/// The reference norm is the f64 sum of squared entries, tensor by tensor
/// in registration order and each in element order: serial add chains
/// that cost one add latency per weight (about a third of a step-predictor
/// training step, 198 K weights, on a 2-vCPU x86-64 VM), whose value
/// matters only near the clip. Summing the
/// same `n` non-negative, exactly squared terms in any order lands within
/// `γ = (n−1)u/(1−(n−1)u)`, `u = 2⁻⁵³`, of the exact sum (Higham,
/// *Accuracy and Stability of Numerical Algorithms*, §4.2). So for
/// `n < 2³⁰`, a lane-parallel sum with `sum·(1 + 2⁻²⁰) ≤ clip²` proves
/// the ordered sum is at most `clip²`: its norm rounds to at most `clip`,
/// and the scale is 1.0 either way. Only otherwise do the ordered chains
/// run.
fn clip_scale(grads: &[(&[f32], &[f32])], clip: f32) -> f32 {
    let terms: usize = grads.iter().map(|(dg, x)| dg.len() * (x.len() + 1)).sum();
    if clip >= 0.0 && terms < 1 << 30 {
        let lanes: f64 = grads
            .iter()
            .map(|&(dg, x)| {
                weight_grad_sq_sum_lanes(dg, x) + dg.iter().map(|&d| sq(d)).sum::<f64>()
            })
            .sum();
        if lanes * (1.0 + 2f64.powi(-20)) <= clip as f64 * clip as f64 {
            return 1.0;
        }
    }
    let total_sq: f64 = grads
        .iter()
        .flat_map(|&(dg, x)| {
            [weight_grad_sq_sum(dg, x), dg.iter().map(|&d| sq(d + 0.0)).sum::<f64>()]
        })
        .sum();
    let norm = total_sq.sqrt() as f32;
    if norm > clip {
        clip / norm
    } else {
        1.0
    }
}

/// `w += alpha · dW` over `dW = dgᵀ·x`, row by row.
fn apply_weight_grad(w: &mut [f32], alpha: f32, dg: &[f32], x: &[f32]) {
    for (row, &d) in w.chunks_exact_mut(x.len()).zip(dg) {
        if d == 0.0 {
            let step = alpha * 0.0;
            row.iter_mut().for_each(|v| *v += step);
        } else {
            for (v, &xv) in row.iter_mut().zip(x) {
                *v += alpha * (d * xv + 0.0);
            }
        }
    }
}

impl LstmCell {
    fn new(input: usize, hidden: usize, rng: &mut Rng) -> Self {
        let mut bias = Tensor::zeros(&[4 * hidden]);
        // Forget-gate bias of 1: the standard trick so a fresh LSTM starts
        // by remembering rather than forgetting.
        for v in &mut bias.data_mut()[hidden..2 * hidden] {
            *v = 1.0;
        }
        LstmCell {
            weight: init::xavier_uniform(
                &[4 * hidden, input + hidden],
                input + hidden,
                4 * hidden,
                rng,
            ),
            bias,
            hidden,
        }
    }

    /// One recurrence step on `xh = [x, h_prev]` from cell state `c_prev`:
    /// gates `σ(i), σ(f), tanh(g), σ(o)` of `xh·Wᵀ + b`, then
    /// `c' = f·c + i·g` and `h' = o·tanh(c')`.
    fn forward(&self, xh: Vec<f32>, c_prev: &[f32]) -> CellTape {
        let hsz = self.hidden;
        let mut act = vec![0.0f32; 4 * hsz];
        affine(self.weight.data(), self.bias.data(), &xh, &mut act);
        let (ifg, o) = act.split_at_mut(3 * hsz);
        let (i_f, g) = ifg.split_at_mut(2 * hsz);
        i_f.iter_mut().chain(o.iter_mut()).for_each(|v| *v = sigmoid(*v));
        g.iter_mut().for_each(|v| *v = v.tanh());
        let mut tape =
            CellTape { xh, act, c: vec![0.0; hsz], c_act: vec![0.0; hsz], h: vec![0.0; hsz] };
        for (j, &c0) in c_prev.iter().enumerate() {
            let (i, f, g, o) = gates(&tape.act, hsz, j);
            let c = f * c0 + i * g;
            let c_act = c.tanh();
            tape.c[j] = c;
            tape.c_act[j] = c_act;
            tape.h[j] = o * c_act;
        }
        tape
    }

    /// Gate pre-activation gradients `dg: [4h]` from `dh = ∂L/∂h'`: the
    /// `MulBack`/`AddBack`/`TanhBack`/`SigmoidBack` chain of
    /// [`forward`](Self::forward), each gate's gradient passing through
    /// the `+ 0.0` of its zero-padded slice accumulating into the packed
    /// gate row.
    fn gate_grads(&self, tape: &CellTape, c_prev: &[f32], dh: &[f32], dg: &mut [f32]) {
        let hsz = self.hidden;
        for j in 0..hsz {
            let (i, f, g, o) = gates(&tape.act, hsz, j);
            let c_act = tape.c_act[j];
            let d_o = dh[j] * c_act;
            let dc = dh[j] * o * (1.0 - c_act * c_act);
            let (di, dcand, df) = (dc * g, dc * i, dc * c_prev[j]);
            dg[j] = di * (i * (1.0 - i)) + 0.0;
            dg[hsz + j] = df * (f * (1.0 - f)) + 0.0;
            dg[2 * hsz + j] = dcand * (1.0 - g * g) + 0.0;
            dg[3 * hsz + j] = d_o * (o * (1.0 - o)) + 0.0;
        }
    }
}

/// Unit `j`'s activated gates `(i, f, g, o)`.
#[inline(always)]
fn gates(act: &[f32], hsz: usize, j: usize) -> (f32, f32, f32, f32) {
    (act[j], act[hsz + j], act[2 * hsz + j], act[3 * hsz + j])
}

/// A `[1, n]` tensor over `v`.
fn row(v: Vec<f32>) -> Tensor {
    let n = v.len();
    Tensor::from_vec(v, &[1, n])
}

/// Recurrent state: one `(h, c)` pair per layer, batch 1.
#[derive(Clone, Debug)]
pub struct LstmState {
    pub layers: Vec<(Tensor, Tensor)>,
}

impl LstmState {
    /// All-zero initial state.
    pub fn zeros(hidden: usize, num_layers: usize) -> Self {
        LstmState {
            layers: (0..num_layers)
                .map(|_| (Tensor::zeros(&[1, hidden]), Tensor::zeros(&[1, hidden])))
                .collect(),
        }
    }
}

/// Stacked LSTM + linear head, batch size 1.
pub struct Lstm {
    cells: Vec<LstmCell>,
    head: Linear,
    input_dim: usize,
    hidden: usize,
    /// Gradient-norm clip applied in [`train_step`](Self::train_step);
    /// online training on raw loss series occasionally sees spikes.
    pub grad_clip: f32,
}

impl Lstm {
    /// `input_dim -> [hidden × num_layers] -> out_dim`.
    pub fn new(
        input_dim: usize,
        hidden: usize,
        num_layers: usize,
        out_dim: usize,
        rng: &mut Rng,
    ) -> Self {
        assert!(num_layers >= 1);
        let mut cells = Vec::with_capacity(num_layers);
        cells.push(LstmCell::new(input_dim, hidden, rng));
        for _ in 1..num_layers {
            cells.push(LstmCell::new(hidden, hidden, rng));
        }
        Lstm {
            cells,
            head: Linear::new_xavier(hidden, out_dim, rng),
            input_dim,
            hidden,
            grad_clip: 5.0,
        }
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Hidden width (the paper uses 64 for the loss predictor, 128 for the
    /// step predictor).
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Number of stacked LSTM layers.
    pub fn num_layers(&self) -> usize {
        self.cells.len()
    }

    /// Fresh zero state.
    pub fn zero_state(&self) -> LstmState {
        LstmState::zeros(self.hidden, self.cells.len())
    }

    /// One step from `state` on `x`: each layer's tape, bottom first, and
    /// the head's output.
    fn forward(&self, x: &[f32], state: &LstmState) -> (Vec<CellTape>, Vec<f32>) {
        assert_eq!(x.len(), self.input_dim, "LSTM input width");
        assert_eq!(state.layers.len(), self.cells.len(), "LSTM state layer count");
        let mut tapes: Vec<CellTape> = Vec::with_capacity(self.cells.len());
        for (cell, (h, c)) in self.cells.iter().zip(&state.layers) {
            assert!(
                h.numel() == self.hidden && c.numel() == self.hidden,
                "LSTM state width: h {}, c {}, hidden {}",
                h.numel(),
                c.numel(),
                self.hidden
            );
            let input = tapes.last().map_or(x, |t| &t.h);
            let mut xh = Vec::with_capacity(input.len() + self.hidden);
            xh.extend_from_slice(input);
            xh.extend_from_slice(h.data());
            tapes.push(cell.forward(xh, c.data()));
        }
        let top = &tapes.last().expect("at least one layer").h;
        let mut out = vec![0.0f32; self.head.bias.numel()];
        affine(self.head.weight.data(), self.head.bias.data(), top, &mut out);
        (tapes, out)
    }

    /// The state a step left behind.
    fn state_after(&self, tapes: Vec<CellTape>) -> LstmState {
        let dims = [1, self.hidden];
        LstmState {
            layers: tapes
                .into_iter()
                .map(|t| (Tensor::from_vec(t.h, &dims), Tensor::from_vec(t.c, &dims)))
                .collect(),
        }
    }

    /// Forward-only step: consumes `x: [1, input_dim]`, returns the output
    /// `[1, out_dim]` and the advanced state.
    pub fn predict(&self, x: &Tensor, state: &LstmState) -> (Tensor, LstmState) {
        let (tapes, out) = self.forward(x.data(), state);
        (row(out), self.state_after(tapes))
    }

    /// One online training step: forward from `state` on `x`, MSE against
    /// `target: [1, out_dim]`, backward, clipped SGD update with rate `lr`.
    /// Returns the loss and the advanced (detached) state.
    pub fn train_step(
        &mut self,
        x: &Tensor,
        target: &Tensor,
        state: &LstmState,
        lr: f32,
    ) -> (f32, LstmState) {
        let (tapes, out) = self.forward(x.data(), state);
        let target = target.data();
        assert_eq!(target.len(), out.len(), "mse shape mismatch");
        let n = out.len();
        // MSE as `Tensor::mean` of the squared difference; its gradient
        // `(out − target)·2/numel` (`MseBack`).
        let loss_val = out
            .iter()
            .zip(target)
            .map(|(&o, &t)| {
                let d = o - t;
                (d * d) as f64
            })
            .sum::<f64>() as f32
            / n as f32;
        let mse_scale = 2.0 / n as f32;
        let dout: Vec<f32> = out.iter().zip(target).map(|(&o, &t)| (o - t) * mse_scale).collect();

        // Backward, top layer first: each layer's gate gradients, and the
        // part of its input gradient that reaches the layer below (layer
        // 0's input and every layer's `h_prev` are detached leaves).
        let hsz = self.hidden;
        let mut dh = vec![0.0f32; hsz];
        input_grad(self.head.weight.data(), hsz, &dout, &mut dh);
        let mut dgs = vec![Vec::new(); self.cells.len()];
        for (l, cell) in self.cells.iter().enumerate().rev() {
            let mut dg = vec![0.0f32; 4 * hsz];
            cell.gate_grads(&tapes[l], state.layers[l].1.data(), &dh, &mut dg);
            if l > 0 {
                input_grad(cell.weight.data(), tapes[l].xh.len(), &dg, &mut dh);
            }
            dgs[l] = dg;
        }
        let top = &tapes.last().expect("at least one layer").h;

        // Each weight tensor's gradient is `dgᵀ·x` for its row gradient
        // `dg` and input `x`, recomputed entry by entry rather than
        // materialized; its bias gradient is `dg` (`sum_rows` of one row).
        let mut grads: Vec<(&[f32], &[f32])> =
            tapes.iter().zip(&dgs).map(|(t, dg)| (&dg[..], &t.xh[..])).collect();
        grads.push((&dout, top));
        let scale = clip_scale(&grads, self.grad_clip);

        let alpha = -lr * scale;
        for ((cell, tape), dg) in self.cells.iter_mut().zip(&tapes).zip(&dgs) {
            apply_weight_grad(cell.weight.data_mut(), alpha, dg, &tape.xh);
            for (b, &d) in cell.bias.data_mut().iter_mut().zip(dg) {
                *b += alpha * (d + 0.0);
            }
        }
        apply_weight_grad(self.head.weight.data_mut(), alpha, &dout, top);
        for (b, &d) in self.head.bias.data_mut().iter_mut().zip(&dout) {
            *b += alpha * (d + 0.0);
        }

        (loss_val, self.state_after(tapes))
    }

    /// Rolls the model forward `k` steps feeding each prediction back as
    /// the next input (requires `out_dim == input_dim`, true for the loss
    /// predictor). Returns the `k` predicted outputs. The entry state is
    /// not mutated.
    pub fn rollout(&self, x0: &Tensor, state: &LstmState, k: usize) -> Vec<Tensor> {
        let mut out = Vec::with_capacity(k);
        let mut x = x0.data().to_vec();
        let mut st = state.clone();
        for _ in 0..k {
            let (tapes, y) = self.forward(&x, &st);
            st = self.state_after(tapes);
            x.clone_from(&y);
            out.push(row(y));
        }
        out
    }

    /// Visits parameters in the fixed registration order: per-cell
    /// (weight, bias), then head (weight, bias).
    pub fn visit_params_mut(&mut self, f: &mut impl FnMut(&mut Tensor)) {
        for cell in &mut self.cells {
            f(&mut cell.weight);
            f(&mut cell.bias);
        }
        f(&mut self.head.weight);
        f(&mut self.head.bias);
    }

    /// Read-only parameter visit in the same fixed order as
    /// [`Lstm::visit_params_mut`].
    pub fn visit_params(&self, f: &mut impl FnMut(&Tensor)) {
        for cell in &self.cells {
            f(&cell.weight);
            f(&cell.bias);
        }
        f(&self.head.weight);
        f(&self.head.bias);
    }

    /// All parameters flattened in visit order — the predictor half of a
    /// full training checkpoint.
    pub fn flat_params(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.num_params());
        self.visit_params(&mut |t| out.extend_from_slice(t.data()));
        out
    }

    /// Installs a flat parameter vector captured by
    /// [`Lstm::flat_params`] from an identically shaped model. Panics on a
    /// length mismatch (an architecture incompatibility, not a recoverable
    /// condition).
    pub fn set_flat_params(&mut self, flat: &[f32]) {
        assert_eq!(flat.len(), self.num_params(), "flat parameter length mismatch");
        let mut off = 0;
        self.visit_params_mut(&mut |t| {
            let n = t.numel();
            t.data_mut().copy_from_slice(&flat[off..off + n]);
            off += n;
        });
    }

    /// Total parameter count (for overhead accounting).
    pub fn num_params(&self) -> usize {
        let mut n = 0;
        for cell in &self.cells {
            n += cell.weight.numel() + cell.bias.numel();
        }
        n + self.head.weight.numel() + self.head.bias.numel()
    }
}

/// The autograd formulation the graph-free [`Lstm`] replaced: one `Graph`
/// per call, every weight cloned into a leaf, gradients from
/// `Graph::backward`. The oracle of the bitwise equivalence tests.
#[cfg(test)]
mod reference {
    use super::*;
    use lcasgd_autograd::{Graph, Var};

    /// One recurrence step. `x: [1, in]`, `h`/`c`: `[1, hidden]` graph
    /// vars. Returns `(h', c')` vars.
    fn cell_step(
        cell: &LstmCell,
        g: &mut Graph,
        x: Var,
        h: Var,
        c: Var,
        params: &mut Vec<Var>,
    ) -> (Var, Var) {
        let w = g.leaf(cell.weight.clone());
        let b = g.leaf(cell.bias.clone());
        params.push(w);
        params.push(b);
        let xh = g.concat_cols(x, h);
        let gates = g.linear(xh, w, b); // [1, 4h]
        let hsz = cell.hidden;
        let i_pre = g.slice_cols(gates, 0, hsz);
        let f_pre = g.slice_cols(gates, hsz, hsz);
        let g_pre = g.slice_cols(gates, 2 * hsz, hsz);
        let o_pre = g.slice_cols(gates, 3 * hsz, hsz);
        let i = g.sigmoid(i_pre);
        let f = g.sigmoid(f_pre);
        let cand = g.tanh(g_pre);
        let o = g.sigmoid(o_pre);
        let fc = g.mul(f, c);
        let ig = g.mul(i, cand);
        let c_new = g.add(fc, ig);
        let c_act = g.tanh(c_new);
        let h_new = g.mul(o, c_act);
        (h_new, c_new)
    }

    /// The head as a graph node, registering its params.
    fn head_forward(head: &Linear, g: &mut Graph, x: Var, params: &mut Vec<Var>) -> Var {
        let w = g.leaf(head.weight.clone());
        let b = g.leaf(head.bias.clone());
        params.push(w);
        params.push(b);
        g.linear(x, w, b)
    }

    /// Builds the one-step graph. Returns the output var, the new state
    /// vars per layer, and pushes parameter vars in registration order.
    fn build_step(
        lstm: &Lstm,
        g: &mut Graph,
        x: Var,
        state: &LstmState,
        params: &mut Vec<Var>,
    ) -> (Var, Vec<(Var, Var)>) {
        let mut cur = x;
        let mut new_state = Vec::with_capacity(lstm.cells.len());
        for (cell, (h, c)) in lstm.cells.iter().zip(&state.layers) {
            let hv = g.leaf(h.clone());
            let cv = g.leaf(c.clone());
            let (h2, c2) = cell_step(cell, g, cur, hv, cv, params);
            new_state.push((h2, c2));
            cur = h2;
        }
        let out = head_forward(&lstm.head, g, cur, params);
        (out, new_state)
    }

    fn state_of(g: &Graph, vars: &[(Var, Var)]) -> LstmState {
        LstmState {
            layers: vars.iter().map(|&(h, c)| (g.value(h).clone(), g.value(c).clone())).collect(),
        }
    }

    pub fn predict(lstm: &Lstm, x: &Tensor, state: &LstmState) -> (Tensor, LstmState) {
        let mut g = Graph::new();
        let xv = g.leaf(x.clone());
        let mut params = Vec::new();
        let (out, new_state) = build_step(lstm, &mut g, xv, state, &mut params);
        (g.value(out).clone(), state_of(&g, &new_state))
    }

    /// The global gradient norm one training step clips against.
    pub fn grad_norm(lstm: &Lstm, x: &Tensor, target: &Tensor, state: &LstmState) -> f32 {
        norm(&backward(lstm, x, target, state).1)
    }

    /// Forward, MSE and backward: the loss, each parameter's gradient in
    /// registration order, and the new state.
    fn backward(
        lstm: &Lstm,
        x: &Tensor,
        target: &Tensor,
        state: &LstmState,
    ) -> (f32, Vec<Option<Tensor>>, LstmState) {
        let mut g = Graph::new();
        let xv = g.leaf(x.clone());
        let mut params = Vec::new();
        let (out, new_state) = build_step(lstm, &mut g, xv, state, &mut params);
        let loss = g.mse(out, target.clone());
        g.backward(loss);
        let grads = params.iter().map(|&p| g.take_grad(p)).collect();
        (g.value(loss).item(), grads, state_of(&g, &new_state))
    }

    fn norm(grads: &[Option<Tensor>]) -> f32 {
        let total_sq: f64 = grads
            .iter()
            .flatten()
            .map(|t| t.data().iter().map(|&v| (v as f64) * (v as f64)).sum::<f64>())
            .sum();
        total_sq.sqrt() as f32
    }

    pub fn train_step(
        lstm: &mut Lstm,
        x: &Tensor,
        target: &Tensor,
        state: &LstmState,
        lr: f32,
    ) -> (f32, LstmState) {
        let (loss_val, grads, new_state) = backward(lstm, x, target, state);
        // Global-norm clipped SGD over the gradients in registration order.
        let norm = norm(&grads);
        let scale = if norm > lstm.grad_clip { lstm.grad_clip / norm } else { 1.0 };
        let mut it = grads.into_iter();
        lstm.visit_params_mut(&mut |t| {
            if let Some(Some(grad)) = it.next() {
                t.add_assign_scaled(&grad, -lr * scale);
            }
        });
        (loss_val, new_state)
    }

    pub fn rollout(lstm: &Lstm, x0: &Tensor, state: &LstmState, k: usize) -> Vec<Tensor> {
        let mut out = Vec::with_capacity(k);
        let mut x = x0.clone();
        let mut st = state.clone();
        for _ in 0..k {
            let (y, next) = predict(lstm, &x, &st);
            st = next;
            x = y.clone();
            out.push(y);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_and_state_advance() {
        let mut rng = Rng::seed_from_u64(111);
        let lstm = Lstm::new(3, 8, 2, 1, &mut rng);
        let st = lstm.zero_state();
        let x = Tensor::from_vec(vec![0.1, 0.2, 0.3], &[1, 3]);
        let (y, st2) = lstm.predict(&x, &st);
        assert_eq!(y.dims(), &[1, 1]);
        assert_eq!(st2.layers.len(), 2);
        assert_eq!(st2.layers[0].0.dims(), &[1, 8]);
        // State must actually change.
        assert_ne!(st2.layers[0].0.data(), st.layers[0].0.data());
    }

    #[test]
    fn prediction_is_deterministic() {
        let mut rng = Rng::seed_from_u64(112);
        let lstm = Lstm::new(1, 4, 2, 1, &mut rng);
        let st = lstm.zero_state();
        let x = Tensor::from_vec(vec![0.5], &[1, 1]);
        let (a, _) = lstm.predict(&x, &st);
        let (b, _) = lstm.predict(&x, &st);
        assert_eq!(a, b);
    }

    #[test]
    fn online_training_learns_constant_series() {
        // Feeding a constant series, the predictor should converge to
        // predicting that constant.
        let mut rng = Rng::seed_from_u64(113);
        let mut lstm = Lstm::new(1, 8, 2, 1, &mut rng);
        let mut st = lstm.zero_state();
        let x = Tensor::from_vec(vec![0.7], &[1, 1]);
        let target = Tensor::from_vec(vec![0.7], &[1, 1]);
        let mut last = f32::INFINITY;
        for i in 0..400 {
            let (loss, next) = lstm.train_step(&x, &target, &st, 0.05);
            st = next;
            if i >= 399 {
                last = loss;
            }
        }
        assert!(last < 1e-3, "final loss {last}");
    }

    #[test]
    fn online_training_tracks_slowly_decaying_series() {
        // A geometric decay mimics a loss curve; after online training the
        // one-step-ahead prediction error should be small.
        let mut rng = Rng::seed_from_u64(114);
        let mut lstm = Lstm::new(1, 16, 2, 1, &mut rng);
        let mut st = lstm.zero_state();
        let series: Vec<f32> = (0..300).map(|i| 2.0 * (0.99f32).powi(i) + 0.5).collect();
        let mut errs = Vec::new();
        for w in series.windows(2) {
            let x = Tensor::from_vec(vec![w[0]], &[1, 1]);
            let t = Tensor::from_vec(vec![w[1]], &[1, 1]);
            let (loss, next) = lstm.train_step(&x, &t, &st, 0.02);
            st = next;
            errs.push(loss);
        }
        let late: f32 = errs[250..].iter().sum::<f32>() / 49.0;
        assert!(late < 5e-3, "late avg one-step MSE {late}");
    }

    #[test]
    fn rollout_does_not_mutate_entry_state() {
        let mut rng = Rng::seed_from_u64(115);
        let lstm = Lstm::new(1, 4, 1, 1, &mut rng);
        let st = lstm.zero_state();
        let x = Tensor::from_vec(vec![1.0], &[1, 1]);
        let k = 5;
        let preds = lstm.rollout(&x, &st, k);
        assert_eq!(preds.len(), k);
        // Same call again gives identical results (state untouched).
        let preds2 = lstm.rollout(&x, &st, k);
        for (a, b) in preds.iter().zip(&preds2) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn grad_clip_bounds_update() {
        let mut rng = Rng::seed_from_u64(116);
        let mut lstm = Lstm::new(1, 4, 1, 1, &mut rng);
        lstm.grad_clip = 1e-6; // essentially freeze
        let st = lstm.zero_state();
        let before: Vec<f32> = {
            let mut v = Vec::new();
            lstm.visit_params_mut(&mut |t| v.extend_from_slice(t.data()));
            v
        };
        let x = Tensor::from_vec(vec![10.0], &[1, 1]);
        let t = Tensor::from_vec(vec![-10.0], &[1, 1]);
        let _ = lstm.train_step(&x, &t, &st, 1.0);
        let mut after = Vec::new();
        lstm.visit_params_mut(&mut |t| after.extend_from_slice(t.data()));
        let delta: f32 = before.iter().zip(&after).map(|(a, b)| (a - b).abs()).sum();
        assert!(delta < 1e-4, "clip failed, total delta {delta}");
    }
}

#[cfg(test)]
mod sensitivity_tests {
    use super::*;

    #[test]
    fn output_depends_on_input() {
        let mut rng = Rng::seed_from_u64(301);
        let lstm = Lstm::new(2, 8, 2, 1, &mut rng);
        let st = lstm.zero_state();
        let (a, _) = lstm.predict(&Tensor::from_vec(vec![0.1, 0.0], &[1, 2]), &st);
        let (b, _) = lstm.predict(&Tensor::from_vec(vec![0.9, 0.5], &[1, 2]), &st);
        assert_ne!(a, b, "LSTM must react to its input");
    }

    #[test]
    fn output_depends_on_state_history() {
        // Same input, different histories → different outputs (memory).
        let mut rng = Rng::seed_from_u64(302);
        let lstm = Lstm::new(1, 8, 1, 1, &mut rng);
        let x = Tensor::from_vec(vec![0.3], &[1, 1]);
        let fresh = lstm.zero_state();
        let (_, warmed) = lstm.predict(&Tensor::from_vec(vec![5.0], &[1, 1]), &fresh);
        let (from_fresh, _) = lstm.predict(&x, &fresh);
        let (from_warmed, _) = lstm.predict(&x, &warmed);
        assert_ne!(from_fresh, from_warmed);
    }

    #[test]
    fn num_params_matches_visit() {
        let mut rng = Rng::seed_from_u64(303);
        let mut lstm = Lstm::new(3, 16, 2, 1, &mut rng);
        let mut visited = 0;
        lstm.visit_params_mut(&mut |t| visited += t.numel());
        assert_eq!(visited, lstm.num_params());
        // 2×LSTM + head = 5 weight/bias pairs... (per-cell W/b + head W/b)
        let mut count = 0;
        lstm.visit_params_mut(&mut |_| count += 1);
        assert_eq!(count, 2 * 2 + 2);
    }
}

#[cfg(test)]
mod equivalence_tests {
    //! The graph-free [`Lstm`] against the autograd [`reference`], compared
    //! by bits over long interleaved streams of every public entry point.
    use super::*;

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn state_bits(s: &LstmState) -> Vec<u32> {
        s.layers
            .iter()
            .flat_map(|(h, c)| bits(h.data()).into_iter().chain(bits(c.data())))
            .collect()
    }

    /// `steps` training steps on a seeded series, interleaved with
    /// `predict` and `rollout` calls; every loss, output, state and the
    /// parameters after each step must match the reference bit for bit.
    /// Every seventh target is the model's own prediction, so the output
    /// gradient is exactly zero and the zero-row paths run too.
    fn assert_equivalent(layers: usize, input: usize, out: usize, hidden: usize, clip: f32) {
        let case =
            format!("layers {layers}, input {input}, out {out}, hidden {hidden}, clip {clip}");
        let seed = (layers * 1000 + input * 100 + out * 10) as u64 + hidden as u64 * 7;
        let mut rng = Rng::seed_from_u64(seed);
        let mut fast = Lstm::new(input, hidden, layers, out, &mut rng);
        fast.grad_clip = clip;
        let mut slow = Lstm::new(input, hidden, layers, out, &mut Rng::seed_from_u64(seed));
        slow.grad_clip = clip;
        assert_eq!(bits(&fast.flat_params()), bits(&slow.flat_params()));
        let mut data = Rng::seed_from_u64(seed ^ 0x5eed);
        let mut draw = |n: usize, spike: bool| {
            let scale = if spike { 8.0 } else { 1.0 };
            let v: Vec<f32> = (0..n).map(|_| scale * data.normal() as f32).collect();
            Tensor::from_vec(v, &[1, n])
        };
        let mut st_fast = fast.zero_state();
        let mut st_slow = slow.zero_state();
        for step in 0..300 {
            let x = draw(input, step % 37 == 11);
            let target = if step % 7 == 3 {
                fast.predict(&x, &st_fast).0
            } else {
                draw(out, step % 53 == 29)
            };
            let lr = if step % 2 == 0 { 0.05 } else { 0.02 };
            let (loss_f, next_f) = fast.train_step(&x, &target, &st_fast, lr);
            let (loss_s, next_s) = reference::train_step(&mut slow, &x, &target, &st_slow, lr);
            assert_eq!(loss_f.to_bits(), loss_s.to_bits(), "{case}: loss at step {step}");
            assert_eq!(state_bits(&next_f), state_bits(&next_s), "{case}: state at step {step}");
            assert_eq!(
                bits(&fast.flat_params()),
                bits(&slow.flat_params()),
                "{case}: params after step {step}"
            );
            st_fast = next_f;
            st_slow = next_s;

            if step % 3 == 1 {
                let probe = draw(input, false);
                let (y_f, s_f) = fast.predict(&probe, &st_fast);
                let (y_s, s_s) = reference::predict(&slow, &probe, &st_slow);
                assert_eq!(y_f.dims(), y_s.dims(), "{case}: predict shape at step {step}");
                assert_eq!(bits(y_f.data()), bits(y_s.data()), "{case}: predict at step {step}");
                assert_eq!(state_bits(&s_f), state_bits(&s_s), "{case}: predict state {step}");
            }
            if out == input && step % 5 == 2 {
                let k = 1 + step % 4;
                let r_f = fast.rollout(&x, &st_fast, k);
                let r_s = reference::rollout(&slow, &x, &st_slow, k);
                assert_eq!(r_f.len(), r_s.len());
                for (a, b) in r_f.iter().zip(&r_s) {
                    assert_eq!(bits(a.data()), bits(b.data()), "{case}: rollout at step {step}");
                }
            }
        }
    }

    fn sweep(clip: f32) {
        for layers in [1, 2, 3] {
            for (input, out) in [(1, 1), (3, 3), (3, 1)] {
                for hidden in [8, 64, 128] {
                    assert_equivalent(layers, input, out, hidden, clip);
                }
            }
        }
    }

    #[test]
    fn graph_free_lstm_matches_autograd_reference_unclipped() {
        sweep(5.0);
    }

    #[test]
    fn graph_free_lstm_matches_autograd_reference_clipped() {
        sweep(0.01);
    }

    /// The clip decision at and around the exact norm, where the
    /// lane-parallel screen must defer to the ordered sum.
    #[test]
    fn clip_decision_matches_reference_at_the_boundary() {
        for hidden in [8, 64, 128] {
            let seed = 900 + hidden as u64;
            let fresh = || Lstm::new(3, hidden, 2, 1, &mut Rng::seed_from_u64(seed));
            let probe = fresh();
            let x = Tensor::from_vec(vec![0.9, -1.7, 2.3], &[1, 3]);
            let target = Tensor::from_vec(vec![4.0], &[1, 1]);
            let (_, state) = probe.predict(&x, &probe.zero_state());
            let norm = reference::grad_norm(&probe, &x, &target, &state);
            assert!(norm.is_finite() && norm > 0.0);
            let below = f32::from_bits(norm.to_bits() - 1);
            let above = f32::from_bits(norm.to_bits() + 1);
            for clip in [below, norm, above, norm * 0.999_999, norm * 1.000_001, 0.0, f32::INFINITY]
            {
                let (mut fast, mut slow) = (fresh(), fresh());
                fast.grad_clip = clip;
                slow.grad_clip = clip;
                let (loss_f, st_f) = fast.train_step(&x, &target, &state, 0.1);
                let (loss_s, st_s) = reference::train_step(&mut slow, &x, &target, &state, 0.1);
                let case = format!("hidden {hidden}, clip {clip} vs norm {norm}");
                assert_eq!(loss_f.to_bits(), loss_s.to_bits(), "{case}");
                assert_eq!(state_bits(&st_f), state_bits(&st_s), "{case}");
                assert_eq!(bits(&fast.flat_params()), bits(&slow.flat_params()), "{case}");
            }
        }
    }
}
