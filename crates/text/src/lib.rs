//! # scrutinizer-text
//!
//! Claim preprocessing (§4.1, Figure 4).
//!
//! Textual claims are turned into feature vectors for the four property
//! classifiers:
//!
//! 1. the **sentence embedding** — the mean of the word embeddings of the
//!    surrounding sentence,
//! 2. **TF-IDF scores of unigrams and bigrams** of the claim,
//! 3. **TF-IDF scores of character trigrams** of the claim.
//!
//! The paper uses pre-trained GloVe vectors; with no network access we train
//! embeddings on the corpus itself (PPMI co-occurrence + power iteration,
//! see [`embed`]) — same interface, same role (documented in DESIGN.md §3).
//!
//! The crate also extracts **explicit parameters** from claim text
//! ([`numbers`]): `3%`, `nine-fold`, `22 200 TWh` — the `p` of Definition 2.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod embed;
pub mod features;
pub mod matrix;
pub mod ngram;
pub mod numbers;
pub mod sparse;
pub mod tfidf;
pub mod tokenize;

pub use embed::EmbeddingModel;
pub use features::{ClaimFeaturizer, FeaturizerConfig};
pub use matrix::{FeatureMatrix, ROW_ALIGN};
pub use numbers::{extract_parameters, ExtractedParameter, ParameterKind};
pub use sparse::{SparseVector, SparseView};
pub use tfidf::TfIdfVectorizer;
pub use tokenize::{sentences, tokenize};
