//! The model zoo: the nine models of the paper's Table 1, characterised by
//! capability parameters.
//!
//! Parameters are *calibrated data* (see DESIGN.md): they set mechanism
//! strengths — how often arithmetic slips, how deeply source is analysed,
//! whether cache reuse is anticipated — and the evaluation measures
//! whatever accuracy emerges. Costs are the paper's April-2025 prices.

use pce_roofline::Boundedness;
use serde::{Deserialize, Serialize};

/// Mechanism strengths of one surrogate model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Capability {
    /// Probability of an arithmetic slip on a borderline RQ1 item
    /// (margin below [`Capability::SLIP_MARGIN_DECADES`]).
    pub arith_slip: f64,
    /// Same, when chain-of-thought examples are present in the prompt.
    pub arith_slip_cot: f64,
    /// Source-analysis depth in `[0, 1]`: scales classification noise on
    /// borderline kernels (1 = reads code perfectly).
    pub insight: f64,
    /// Whether the model anticipates cache reuse when estimating AI from
    /// source (reasoning models reason about data locality; pattern-matching
    /// models do not).
    pub reuse_aware: f64,
    /// Class-prior bias: probability of emitting the biased class
    /// regardless of analysis (captures gpt-4o's skewed F1).
    pub bias_strength: f64,
    /// Biased class is Bandwidth when true (the majority class in GPU
    /// folklore), Compute when false.
    pub bias_bandwidth: bool,
}

impl Capability {
    /// Items closer to the balance point than this many decades are
    /// vulnerable to arithmetic slips.
    pub const SLIP_MARGIN_DECADES: f64 = 0.30;

    /// The class the model answers from its prior alone.
    pub fn prior(&self) -> Boundedness {
        if self.bias_bandwidth {
            Boundedness::Bandwidth
        } else {
            Boundedness::Compute
        }
    }
}

/// One zoo entry: identity, pricing, and capability.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelSpec {
    /// Model name as it appears in Table 1.
    pub name: String,
    /// Reasoning-capable (o-series style)?
    pub reasoning: bool,
    /// $ per 1M input tokens (April 2025).
    pub input_cost: f64,
    /// $ per 1M output tokens.
    pub output_cost: f64,
    /// Mechanism strengths.
    pub caps: Capability,
    /// Hidden reasoning tokens billed per query (o-series bills thinking
    /// tokens as output; 0 for standard models).
    pub reasoning_tokens: u64,
}

/// The nine Table-1 models, in the paper's row order.
///
/// Built once and memoized: the engine resolves a model on every
/// completion, and a suite issues hundreds of thousands of completions —
/// re-allocating nine spec structs per request was measurable against the
/// cached hot path.
pub fn model_zoo() -> &'static [ModelSpec] {
    static ZOO: std::sync::OnceLock<Vec<ModelSpec>> = std::sync::OnceLock::new();
    ZOO.get_or_init(build_model_zoo)
}

fn build_model_zoo() -> Vec<ModelSpec> {
    let reasoning = |name: &str, input: f64, output: f64, insight: f64, tokens: u64| ModelSpec {
        name: name.into(),
        reasoning: true,
        input_cost: input,
        output_cost: output,
        caps: Capability {
            arith_slip: 0.0,
            arith_slip_cot: 0.0,
            insight,
            reuse_aware: insight * 0.9,
            bias_strength: 0.0,
            bias_bandwidth: true,
        },
        reasoning_tokens: tokens,
    };
    let standard = |name: &str,
                    input: f64,
                    output: f64,
                    slip: f64,
                    slip_cot: f64,
                    insight: f64,
                    bias: f64,
                    bias_bw: bool| ModelSpec {
        name: name.into(),
        reasoning: false,
        input_cost: input,
        output_cost: output,
        caps: Capability {
            arith_slip: slip,
            arith_slip_cot: slip_cot,
            insight,
            reuse_aware: 0.0,
            bias_strength: bias,
            bias_bandwidth: bias_bw,
        },
        reasoning_tokens: 0,
    };
    vec![
        reasoning("o3-mini-high", 1.1, 4.4, 0.93, 2400),
        reasoning("o1", 15.0, 60.0, 0.92, 1800),
        reasoning("o3-mini", 1.1, 4.4, 0.82, 900),
        standard("gpt-4.5-preview", 75.0, 150.0, 0.20, 0.05, 0.68, 0.05, true),
        reasoning("o1-mini-2024-09-12", 1.1, 4.4, 0.62, 600),
        standard(
            "gemini-2.0-flash-001",
            0.1,
            0.4,
            0.39,
            0.33,
            0.42,
            0.10,
            true,
        ),
        standard("gpt-4o-2024-11-20", 2.5, 10.0, 0.39, 0.17, 0.30, 0.55, true),
        standard("gpt-4o-mini", 0.15, 0.6, 0.45, 0.02, 0.08, 0.15, true),
        standard(
            "gpt-4o-mini-2024-07-18",
            0.15,
            0.6,
            0.45,
            0.02,
            0.06,
            0.15,
            true,
        ),
    ]
}

/// Look up a model by exact name.
pub fn model(name: &str) -> Option<&'static ModelSpec> {
    model_zoo().iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zoo_has_nine_table1_models() {
        let zoo = model_zoo();
        assert_eq!(zoo.len(), 9);
        let names: Vec<_> = zoo.iter().map(|m| m.name.as_str()).collect();
        for expected in [
            "o3-mini-high",
            "o1",
            "o3-mini",
            "gpt-4.5-preview",
            "o1-mini-2024-09-12",
            "gemini-2.0-flash-001",
            "gpt-4o-2024-11-20",
            "gpt-4o-mini",
            "gpt-4o-mini-2024-07-18",
        ] {
            assert!(names.contains(&expected), "missing {expected}");
        }
    }

    #[test]
    fn four_reasoning_five_standard_as_in_table1() {
        let zoo = model_zoo();
        assert_eq!(zoo.iter().filter(|m| m.reasoning).count(), 4);
        assert_eq!(zoo.iter().filter(|m| !m.reasoning).count(), 5);
    }

    #[test]
    fn reasoning_models_never_slip_and_anticipate_reuse() {
        for m in model_zoo().iter().filter(|m| m.reasoning) {
            assert_eq!(m.caps.arith_slip, 0.0, "{}", m.name);
            assert!(m.caps.reuse_aware > 0.0, "{}", m.name);
            assert!(m.reasoning_tokens > 0, "{}", m.name);
        }
    }

    #[test]
    fn cot_never_hurts_standard_models() {
        for m in model_zoo() {
            assert!(
                m.caps.arith_slip_cot <= m.caps.arith_slip,
                "{}: CoT must not increase slips",
                m.name
            );
        }
    }

    #[test]
    fn costs_match_paper_table1() {
        assert_eq!(model("o1").unwrap().input_cost, 15.0);
        assert_eq!(model("o1").unwrap().output_cost, 60.0);
        assert_eq!(model("gpt-4.5-preview").unwrap().input_cost, 75.0);
        assert_eq!(model("gpt-4o-mini").unwrap().input_cost, 0.15);
        assert_eq!(model("gemini-2.0-flash-001").unwrap().output_cost, 0.4);
    }

    #[test]
    fn reasoning_insight_orders_like_table1() {
        // o3-mini-high and o1 lead; o1-mini trails the o3 family.
        let insight = |n: &str| model(n).unwrap().caps.insight;
        assert!(insight("o3-mini-high") >= insight("o3-mini"));
        assert!(insight("o3-mini") > insight("o1-mini-2024-09-12"));
        assert!(insight("gpt-4.5-preview") > insight("gpt-4o-2024-11-20"));
        assert!(insight("gpt-4o-2024-11-20") > insight("gpt-4o-mini"));
    }

    #[test]
    fn unknown_model_lookup_fails() {
        assert!(model("gpt-5-ultra").is_none());
    }
}
