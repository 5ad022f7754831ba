//! [`CrowdScheduler`]: sizes and builds the crowd crew — one crowd per
//! worker thread, `crowd_size` slot engines each — that `qmc_drivers`'
//! `run_vmc` / `run_dmc` run over.

use crate::crowd::Crowd;
use qmc_containers::Real;
use qmc_drivers::QmcEngine;

/// Builds the crowds of a thread crew.
#[derive(Clone, Copy, Debug)]
pub struct CrowdScheduler {
    threads: usize,
    crowd_size: usize,
    fused_refresh: bool,
}

impl CrowdScheduler {
    /// A scheduler for `threads` crowds of `crowd_size` walkers each
    /// (both floored at 1).
    pub fn new(threads: usize, crowd_size: usize) -> Self {
        Self {
            threads: threads.max(1),
            crowd_size: crowd_size.max(1),
            fused_refresh: false,
        }
    }

    /// Routes block-boundary refreshes through the fused batched
    /// wavefunction path (`Crowd::refresh_block` with fusion on), driving
    /// the multi-walker SPO kernel. Off by default: the fused spline
    /// kernel regroups floating point, so enabling it gives up bitwise
    /// parity with the per-walker drivers.
    pub fn with_fused_refresh(mut self, fused: bool) -> Self {
        self.fused_refresh = fused;
        self
    }

    /// Worker threads (one crowd each).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Walkers per lock-step block.
    pub fn crowd_size(&self) -> usize {
        self.crowd_size
    }

    /// Total engines the crew will own.
    pub fn num_engines(&self) -> usize {
        self.threads * self.crowd_size
    }

    /// Instantiates one crowd per thread from an engine factory.
    pub fn build_crowds<T: Real>(
        &self,
        mut factory: impl FnMut() -> QmcEngine<T>,
    ) -> Vec<Crowd<T>> {
        (0..self.threads)
            .map(|_| {
                let mut crowd = Crowd::new((0..self.crowd_size).map(|_| factory()).collect());
                crowd.set_fused_refresh(self.fused_refresh);
                crowd
            })
            .collect()
    }
}
