//! # llm-client — language models for LSM-KVS tuning
//!
//! The ELMo-Tune paper drives GPT-4 through the OpenAI chat API. This
//! crate provides that interface three ways:
//!
//! - [`ExpertModel`] — a deterministic rule-based *GPT-4 tuning-expert
//!   simulator* that reads the framework's natural-language prompt and
//!   answers in prose + ini code blocks, with configurable
//!   hallucination/deprecation/invalid-value quirks ([`QuirkConfig`]).
//!   This is the substitution used for every reproduced experiment.
//! - [`ScriptedModel`] — canned-transcript replay for tests.
//! - [`HttpChatModel`] — a real OpenAI-compatible client (plain HTTP,
//!   for local inference servers or an https-terminating proxy).
//!
//! All three implement [`LanguageModel`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod api;
pub mod expert;
mod scripted;
mod transport;

pub use api::{ChatMessage, ChatRequest, ChatResponse, LanguageModel, LlmError, Role, Usage};
pub use expert::{ExpertModel, PromptFacts, QuirkConfig, WorkloadClass};
pub use scripted::ScriptedModel;
pub use transport::HttpChatModel;
