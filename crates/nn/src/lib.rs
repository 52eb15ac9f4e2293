//! # nv-nn — from-scratch neural substrate
//!
//! Everything the seq2vis translator needs, with no ML framework:
//!
//! * [`matrix`] — dense f32 matrices with one kernel per product the model
//!   computes (matvec, transposed matvec, outer product, and their
//!   register-tiled forms over a stack of timesteps) and a bit-identical
//!   naive [`matrix::reference`] oracle, all sharing one canonical
//!   fixed-order reduction;
//! * [`autograd`] — a tape-based reverse-mode autograd whose op set is
//!   exactly the seq2seq working set (fused LSTM gate step, attention,
//!   softmax, pointer-copy scatter), with numerically-checked gradients,
//!   one fresh tape per sample, and a [`autograd::KernelPolicy`] selecting
//!   the fast fused path or the unfused naive-oracle twin (bit-identical);
//! * [`seq2seq`] — bi-LSTM encoder / LSTM decoder with three variants
//!   (basic, +attention, +copying), Adam, clipping, teacher forcing,
//!   early stopping and greedy decoding; teacher-forced training batches
//!   every product off the recurrence over time, batch members fan out
//!   over `nv-core::par` and gradients merge through a fixed-order tree
//!   sum, so training is bit-identical across thread counts.

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod autograd;
pub mod matrix;
pub mod seq2seq;

pub use autograd::{GradSet, KernelPolicy, ParamId, ParamStore, Tape};
pub use matrix::Matrix;
pub use seq2seq::{fit, ModelVariant, Sample, Seq2Seq, Seq2SeqConfig, TrainReport};
