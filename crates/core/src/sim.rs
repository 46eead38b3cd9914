//! Top-k accuracy of the classifiers (Figure 10). The paper's other
//! experiments run on the engine (`scrutinizer_engine::experiments`).

pub mod topk;
