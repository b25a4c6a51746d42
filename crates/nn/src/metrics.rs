//! Classification metrics: error rate (the paper's y-axis everywhere).

use crate::network::Network;
use lcasgd_autograd::ops::loss::softmax_cross_entropy_value;
use lcasgd_tensor::rayon::prelude::*;
use lcasgd_tensor::Tensor;

/// Fraction of rows whose argmax logit disagrees with the label.
pub fn error_rate(logits: &Tensor, labels: &[usize]) -> f32 {
    assert_eq!(logits.dims()[0], labels.len(), "batch/label mismatch");
    if labels.is_empty() {
        return 0.0;
    }
    let preds = logits.argmax_rows();
    let wrong = preds.iter().zip(labels).filter(|(p, l)| p != l).count();
    wrong as f32 / labels.len() as f32
}

/// Evaluates a network on `(inputs, labels)` in inference mode, in
/// mini-batches of `batch` rows, returning `(error rate, mean per-batch
/// loss)`; an empty set gives `(0.0, 0.0)`, as [`error_rate`] does.
///
/// The batches run graph-free ([`Network::infer`]) and fan out once per
/// call, one band of whole batches per thread; the kernels inside a batch
/// then run serially. Per-batch results are summed in batch order, so the
/// output is bitwise independent of the thread count.
///
/// # Panics
/// If `batch` is 0, or `inputs` and `labels` disagree on the row count.
pub fn evaluate(net: &Network, inputs: &Tensor, labels: &[usize], batch: usize) -> (f32, f32) {
    assert!(batch > 0, "evaluate: the evaluation batch size must be positive, got 0");
    let n = labels.len();
    assert_eq!(inputs.dims()[0], n, "evaluate: input rows vs labels");
    if n == 0 {
        return (0.0, 0.0);
    }
    // (wrong predictions, mean loss) of each batch.
    let mut per_batch = vec![(0usize, 0.0f32); n.div_ceil(batch)];
    per_batch.par_iter_mut().enumerate().for_each(|(i, out)| {
        let (start, end) = (i * batch, ((i + 1) * batch).min(n));
        let rows: Vec<usize> = (start..end).collect();
        let logits = net.infer(inputs.gather_rows(&rows));
        let yb = &labels[start..end];
        let (loss, _) = softmax_cross_entropy_value(&logits, yb);
        let wrong = logits.argmax_rows().iter().zip(yb).filter(|(p, l)| p != l).count();
        *out = (wrong, loss);
    });
    let wrong: usize = per_batch.iter().map(|&(w, _)| w).sum();
    let loss_sum = per_batch.iter().fold(0.0f64, |acc, &(_, loss)| acc + loss as f64);
    (wrong as f32 / n as f32, (loss_sum / per_batch.len() as f64) as f32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mlp::mlp;
    use lcasgd_tensor::Rng;

    #[test]
    fn error_rate_counts_mismatches() {
        let logits = Tensor::from_vec(vec![1., 0., 0., 1., 1., 0.], &[3, 2]);
        // preds: 0, 1, 0
        assert!((error_rate(&logits, &[0, 1, 1]) - 1.0 / 3.0).abs() < 1e-6);
        assert_eq!(error_rate(&logits, &[0, 1, 0]), 0.0);
        assert_eq!(error_rate(&logits, &[1, 0, 1]), 1.0);
    }

    #[test]
    fn evaluate_of_an_empty_set_agrees_with_error_rate() {
        let mut rng = Rng::seed_from_u64(142);
        let net = mlp(&[3, 8, 2], true, &mut rng);
        let x = Tensor::zeros(&[0, 3]);
        assert_eq!(error_rate(&Tensor::zeros(&[0, 2]), &[]), 0.0);
        assert_eq!(evaluate(&net, &x, &[], 4), (0.0, 0.0));
    }

    #[test]
    #[should_panic(expected = "evaluation batch size must be positive")]
    fn evaluate_rejects_a_zero_batch() {
        let mut rng = Rng::seed_from_u64(143);
        let net = mlp(&[3, 8, 2], true, &mut rng);
        evaluate(&net, &Tensor::zeros(&[4, 3]), &[0, 1, 0, 1], 0);
    }

    #[test]
    fn evaluate_runs_batched() {
        let mut rng = Rng::seed_from_u64(141);
        let net = mlp(&[3, 8, 2], true, &mut rng);
        let x = Tensor::randn(&[10, 3], 1.0, &mut rng);
        let labels: Vec<usize> = (0..10).map(|i| i % 2).collect();
        let (err_small_batch, loss1) = evaluate(&net, &x, &labels, 3);
        let (err_full_batch, _) = evaluate(&net, &x, &labels, 10);
        assert!((err_small_batch - err_full_batch).abs() < 1e-6, "batching must not change error");
        assert!(loss1.is_finite());
    }
}

/// `evaluate` against the tape-based evaluation it replaced, by `to_bits`.
#[cfg(test)]
mod infer_equivalence_tests {
    use super::*;
    use crate::network::infer_equivalence_tests::{cases, randomize};
    use lcasgd_autograd::Graph;
    use lcasgd_tensor::{rayon, Rng};

    /// The tape oracle: one inference-mode `Graph` per batch, serial.
    fn tape_evaluate(net: &Network, inputs: &Tensor, labels: &[usize], batch: usize) -> (f32, f32) {
        let n = labels.len();
        let mut wrong = 0usize;
        let mut loss_sum = 0.0f64;
        let mut batches = 0usize;
        let mut start = 0;
        while start < n {
            let end = (start + batch).min(n);
            let rows: Vec<usize> = (start..end).collect();
            let yb = &labels[start..end];
            let mut g = Graph::new();
            let (logits, _) = net.forward(&mut g, inputs.gather_rows(&rows), false);
            let loss = g.softmax_cross_entropy(logits, yb);
            loss_sum += g.value(loss).item() as f64;
            batches += 1;
            let preds = g.value(logits).argmax_rows();
            wrong += preds.iter().zip(yb).filter(|(p, l)| p != l).count();
            start = end;
        }
        (wrong as f32 / n as f32, (loss_sum / batches as f64) as f32)
    }

    #[test]
    fn evaluate_is_bitwise_the_tape_evaluation() {
        for (k, (name, mut net, item_dims)) in cases().into_iter().enumerate() {
            randomize(&mut net, 200 + k as u64);
            let mut rng = Rng::seed_from_u64(210 + k as u64);
            // 3 full batches of 16 and a partial one of 7.
            let n = 55;
            let dims: Vec<usize> = std::iter::once(n).chain(item_dims).collect();
            let x = Tensor::randn(&dims, 1.0, &mut rng);
            let classes = net.infer(x.gather_rows(&[0])).dims()[1];
            let labels: Vec<usize> = (0..n).map(|i| (i * 7 + k) % classes).collect();
            let want = tape_evaluate(&net, &x, &labels, 16);
            for threads in [1, 3, 8] {
                let got = rayon::with_num_threads(threads, || evaluate(&net, &x, &labels, 16));
                assert_eq!(
                    (got.0.to_bits(), got.1.to_bits()),
                    (want.0.to_bits(), want.1.to_bits()),
                    "{name} at {threads} threads: {got:?} vs {want:?}"
                );
            }
        }
    }
}
