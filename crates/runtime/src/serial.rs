//! The serial backend: the net's own round, node callbacks in ID order
//! on the calling thread.
//!
//! This is [`CliqueNet::step`] with each node's [`Ctx`] built around the
//! [`cc_net::Outbox`] it hands out — the fused, allocation-free round the
//! paper's algorithms run on, and the faster choice whenever
//! `n · per-node-work` is too small for thread fan-out to pay.

use crate::backend::{run_node, Backend, Ctx, Phase, Program};
use cc_net::{CliqueNet, NetError};

/// Single-threaded engine; the reference implementation.
#[derive(Clone, Copy, Debug, Default)]
pub struct SerialBackend;

impl Backend for SerialBackend {
    fn name(&self) -> &'static str {
        "serial"
    }

    fn step<P: Program>(
        &mut self,
        net: &mut CliqueNet<P::Msg>,
        phase: Phase,
        programs: &mut [P],
        done: &mut [bool],
    ) -> Result<(), NetError> {
        let (n, seed, round) = (net.n(), net.config().seed, net.cost().rounds);
        net.step(|node, inbox, out| {
            let mut ctx = Ctx::new(node, n, round, seed, out);
            run_node(&mut programs[node], phase, &mut ctx, inbox, &mut done[node]);
        })
    }
}
