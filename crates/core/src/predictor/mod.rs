//! LC-ASGD's two online predictors (the models that "reside in the
//! parameter server and predict the loss to compensate for the delay").

pub mod loss_predictor;
pub mod step_predictor;

pub use loss_predictor::{LossPrediction, LossPredictor, LossPredictorSnapshot};
pub use step_predictor::{StepPredictor, StepPredictorSnapshot};

use lcasgd_nn::lstm::{Lstm, LstmState};
use lcasgd_tensor::Tensor;

/// Checks a snapshot's flat parameter vector against `lstm`'s size.
fn check_params(lstm: &Lstm, params: &[f32]) -> Result<(), String> {
    if params.len() != lstm.num_params() {
        return Err(format!(
            "snapshot holds {} predictor parameters but the model has {}",
            params.len(),
            lstm.num_params()
        ));
    }
    Ok(())
}

/// Rebuilds a recurrent state from its snapshot, checking the layer count
/// and every `h`/`c` width against `lstm`.
fn state_from_snapshot(lstm: &Lstm, layers: &[(Vec<f32>, Vec<f32>)]) -> Result<LstmState, String> {
    let hidden = lstm.hidden();
    if layers.len() != lstm.num_layers() {
        return Err(format!(
            "snapshot holds {} LSTM layers but the model has {}",
            layers.len(),
            lstm.num_layers()
        ));
    }
    let layers = layers
        .iter()
        .enumerate()
        .map(|(l, (h, c))| {
            if h.len() != hidden || c.len() != hidden {
                return Err(format!(
                    "snapshot LSTM layer {l} has {}-entry h, {}-entry c; hidden width {hidden}",
                    h.len(),
                    c.len()
                ));
            }
            let row = |v: &[f32]| Tensor::from_vec(v.to_vec(), &[1, hidden]);
            Ok((row(h), row(c)))
        })
        .collect::<Result<_, String>>()?;
    Ok(LstmState { layers })
}
