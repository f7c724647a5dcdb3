//! Property test: for *arbitrary* node programs, the `cc-runtime` serial
//! and parallel engines deliver bit-identical inboxes and meter identical
//! cost under every node-to-machine mapping.
//!
//! The generated program is adversarial on purpose: every node sends a
//! pseudo-random (but budget-respecting) pattern of variable-width
//! messages each round and logs every envelope it receives, so any
//! ordering, metering, or budget divergence between engines shows up as a
//! log or cost mismatch.

use cc_net::{Envelope, Mapping, ModelSpec, NetConfig};
use cc_runtime::{Ctx, Program, Runtime};
use proptest::prelude::*;

/// SplitMix64 finalizer — gives every (instance, node, round, slot) an
/// independent pseudo-random draw without any shared state.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A node that chats pseudo-randomly for a fixed number of rounds and logs
/// everything it hears. The full observable state is `log`.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Chatter {
    instance: u64,
    rounds: u64,
    attempts: u64,
    elapsed: u64,
    log: Vec<(u64, usize, Vec<u64>)>,
}

impl Chatter {
    fn new(instance: u64, rounds: u64, attempts: u64) -> Self {
        Chatter {
            instance,
            rounds,
            attempts,
            elapsed: 0,
            log: Vec::new(),
        }
    }

    fn chat(&self, ctx: &mut Ctx<'_, '_, Vec<u64>>) {
        let (me, n) = (ctx.me(), ctx.n());
        for slot in 0..self.attempts {
            let h = mix(self
                .instance
                .wrapping_mul(0x517C_C1B7_2722_0A95)
                .wrapping_add(mix((me as u64) << 32 | self.elapsed))
                .wrapping_add(slot));
            let dst = (h % n as u64) as usize;
            let words = 1 + (h >> 8) % 3;
            if dst == me || ctx.budget_left(dst) < words {
                continue;
            }
            let payload: Vec<u64> = (0..words).map(|i| mix(h.wrapping_add(i))).collect();
            ctx.send(dst, payload).expect("send fits the budget");
        }
    }
}

impl Program for Chatter {
    type Msg = Vec<u64>;

    fn start(&mut self, ctx: &mut Ctx<'_, '_, Vec<u64>>) {
        self.chat(ctx);
    }

    fn round(&mut self, ctx: &mut Ctx<'_, '_, Vec<u64>>, inbox: &[Envelope<Vec<u64>>]) -> bool {
        for env in inbox {
            self.log.push((self.elapsed, env.src, env.msg.clone()));
        }
        self.elapsed += 1;
        if self.elapsed < self.rounds {
            self.chat(ctx);
            false
        } else {
            true
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn backends_are_bit_identical(
        n in 2usize..24,
        rounds in 1u64..6,
        attempts in 0u64..12,
        instance in 0u64..u64::MAX,
        k_seed in 0u64..u64::MAX,
    ) {
        let cfg = NetConfig::kt1(n);
        let fresh = || -> Vec<Chatter> {
            (0..n).map(|_| Chatter::new(instance, rounds, attempts)).collect()
        };

        let mut serial = Runtime::serial(cfg.clone());
        let s = serial.run(fresh(), 1000).unwrap();

        let mut parallel = Runtime::parallel_with_threads(cfg.clone(), 3);
        let p = parallel.run(fresh(), 1000).unwrap();

        let logs = |states: &[Chatter]| -> Vec<_> { states.iter().map(|c| c.log.clone()).collect() };
        let ref_logs = logs(&s);
        prop_assert_eq!(&logs(&p), &ref_logs);
        prop_assert_eq!(parallel.cost(), serial.cost());

        // A k-machine mapping at the extremes (k = n recovers the clique,
        // k = 1 co-locates everything) and one random k in between: the
        // mapping must change no log and no logical cost. Its machine
        // price is a fold over the send trace (`cc-lens`), not an engine.
        let k_mid = 1 + (k_seed % n as u64) as usize;
        for k in [n, 1, k_mid] {
            let spec = ModelSpec { mapping: Mapping::KMachine(k), ..cfg.model() };
            let mut km = Runtime::serial(cfg.clone().with_model(&spec));
            let out = km.run(fresh(), 1000).unwrap();
            prop_assert_eq!(&logs(&out), &ref_logs, "k={} logs drifted", k);
            prop_assert_eq!(km.cost(), serial.cost(), "k={} cost drifted", k);
        }
    }
}
