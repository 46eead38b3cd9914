//! # scrutinizer-learn
//!
//! Classifiers and active learning (§3.1, §5.2).
//!
//! Four multi-class classifiers predict the elements of the verifying query:
//! relations, primary-key values (rows), attribute labels, and formulas.
//! Each is a multinomial logistic regression over the sparse claim features
//! of `scrutinizer-text`, trained with AdaGrad ([`SoftmaxClassifier`]).
//!
//! [`PropertyClassifier`] wraps a classifier with its string label space and
//! supports the active-learning loop of Algorithm 1: it can be retrained
//! from scratch on the accumulated verified claims (`Retrain(N, A)`), emits
//! ranked top-k predictions with probabilities (the answer options of §5.1),
//! and exposes the prediction entropy used as training utility
//! (Definition 7).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod active;
pub mod classifier;
pub mod fused;
pub mod labels;
pub mod metrics;
pub mod softmax;
pub mod split;

pub use active::training_utility;
pub use classifier::{ClassifierState, PropertyClassifier};
pub use fused::FusedEntropy;
pub use labels::LabelDict;
pub use metrics::{accuracy, entropy, top_k_accuracy};
pub use softmax::{
    entropy_from_scores, SoftmaxClassifier, SoftmaxState, SoftmaxTraining, TrainConfig,
};
