//! Physical operators.

pub mod acc;
pub mod aggregate;
pub mod distinct;
pub mod divide;
pub mod filter;
pub mod insert;
pub mod join;
pub mod partial;
pub mod pivot;
pub mod project;
pub mod sort;
pub mod update;
pub mod window;
