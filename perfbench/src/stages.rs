//! Timing the stages of one pool build from outside, through the
//! `PoolStage` callbacks of `RisPipeline::generate_pool_observed`.

use comic_ris::{PoolStage, RisPipeline, RrSampler, SketchPool};
use std::cell::RefCell;
use std::time::Instant;

/// Wall time of each stage of one pool build, and the pool it produced.
#[derive(Debug)]
pub struct Stages {
    /// KPT* estimation, milliseconds.
    pub kpt_ms: f64,
    /// θ derivation, milliseconds.
    pub theta_ms: f64,
    /// Sharded generation with the fused index build, milliseconds.
    pub generate_ms: f64,
    /// The built pool.
    pub pool: SketchPool,
}

impl Stages {
    /// Sum of the three stages, milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.kpt_ms + self.theta_ms + self.generate_ms
    }
}

/// Build a pool with `pipe`, timing each stage.
pub fn generate_timed<S, F>(pipe: &RisPipeline, factory: F) -> Result<Stages, String>
where
    S: RrSampler,
    F: Fn() -> S + Sync,
{
    let marks: RefCell<Vec<(PoolStage, Instant)>> = RefCell::new(Vec::with_capacity(3));
    let pool = pipe
        .generate_pool_observed(factory, |stage| {
            marks.borrow_mut().push((stage, Instant::now()))
        })
        .map_err(|e| format!("pool build: {e}"))?;
    let end = Instant::now();
    let marks = marks.into_inner();
    let at = |stage: PoolStage| {
        marks
            .iter()
            .find(|(s, _)| *s == stage)
            .map(|&(_, t)| t)
            .ok_or("a pool stage was never reported")
    };
    let (kpt, theta, generate) = (
        at(PoolStage::Kpt)?,
        at(PoolStage::Theta)?,
        at(PoolStage::Generate)?,
    );
    Ok(Stages {
        kpt_ms: (theta - kpt).as_secs_f64() * 1e3,
        theta_ms: (generate - theta).as_secs_f64() * 1e3,
        generate_ms: (end - generate).as_secs_f64() * 1e3,
        pool,
    })
}
