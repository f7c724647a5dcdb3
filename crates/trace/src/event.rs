//! Typed trace events.
//!
//! Events split into two families:
//!
//! * **Model events** — functions of the Congested Clique execution alone
//!   (rounds, scopes, message batches, fast-forward jumps). Every engine —
//!   the `cc-net` simulator, the serial runtime backend, the parallel
//!   runtime backend — must emit *identical* model-event streams for the
//!   same protocol and seed; the determinism test suites hold them to it.
//! * **Timing events** — wall-clock attribution (per-node compute spans,
//!   per-worker round spans). These legitimately differ run to run and are
//!   excluded from equivalence checks via [`Event::is_model`].

use crate::cost::Cost;
use crate::json::Json;

/// A per-worker compute span for one executed round, reported by the
/// parallel runtime backend. Handed back to the net out-of-band so worker
/// threads never touch the tracer; the net turns these into
/// [`Event::WorkerSpan`] events.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanTiming {
    /// Worker index.
    pub worker: u32,
    /// First node of the worker's contiguous chunk.
    pub node_lo: u32,
    /// One past the last node of the chunk.
    pub node_hi: u32,
    /// Wall-clock nanoseconds the chunk's compute took.
    pub nanos: u64,
}

/// The kind of an injected fault (see `cc_net::fault`). Model-level: a
/// fault decision is a pure function of the fault plan, its seed, and
/// the `(round, src, dst, send-index)` coordinates, so fault events are
/// part of the model-event stream every engine must reproduce
/// identically.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The message was discarded in flight.
    Drop,
    /// The message was delivered twice.
    Duplicate,
    /// One payload bit was flipped (the `info` field carries the raw bit
    /// index before reduction modulo the payload size).
    Corrupt,
    /// Delivery was deferred by `info` extra rounds.
    Defer,
    /// The per-link word budget was squeezed to `info` words this round
    /// (a per-round event; `src`/`dst`/`index` are 0).
    Squeeze,
}

impl FaultKind {
    /// Stable tag (the `kind` field of the JSONL form).
    pub fn as_str(&self) -> &'static str {
        match self {
            FaultKind::Drop => "drop",
            FaultKind::Duplicate => "duplicate",
            FaultKind::Corrupt => "corrupt",
            FaultKind::Defer => "defer",
            FaultKind::Squeeze => "squeeze",
        }
    }

    /// Inverse of [`FaultKind::as_str`].
    ///
    /// # Errors
    ///
    /// Names the unknown tag.
    pub fn parse(tag: &str) -> Result<FaultKind, String> {
        match tag {
            "drop" => Ok(FaultKind::Drop),
            "duplicate" => Ok(FaultKind::Duplicate),
            "corrupt" => Ok(FaultKind::Corrupt),
            "defer" => Ok(FaultKind::Defer),
            "squeeze" => Ok(FaultKind::Squeeze),
            other => Err(format!("fault: unknown kind `{other}`")),
        }
    }
}

/// One structured trace event.
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// A synchronous round is about to execute. `round` is 0-based.
    RoundStart {
        /// Rounds completed before this one.
        round: u64,
    },
    /// The round finished; deltas are this round's traffic.
    RoundEnd {
        /// The round that just completed (same index as its start event).
        round: u64,
        /// Messages sent this round.
        messages: u64,
        /// Words sent this round.
        words: u64,
    },
    /// A named cost scope (algorithm phase) opened.
    ScopeEnter {
        /// Scope name (e.g. `phase1`, `exact-mst:lotker`).
        name: String,
        /// Rounds completed when the scope opened.
        round: u64,
    },
    /// The innermost scope closed.
    ScopeExit {
        /// Scope name.
        name: String,
        /// Cost accrued inside the scope.
        delta: Cost,
    },
    /// All same-destination messages one node sent in one round.
    MessageBatch {
        /// The 0-based round of the send.
        round: u64,
        /// Sender.
        src: u32,
        /// Receiver.
        dst: u32,
        /// Message count in the batch.
        count: u32,
        /// Word total of the batch.
        words: u64,
    },
    /// A silent-stretch jump (`CliqueNet::fast_forward`).
    FastForward {
        /// Rounds completed before the jump.
        from_round: u64,
        /// Rounds skipped.
        rounds: u64,
    },
    /// An injected fault fired (model event; see [`FaultKind`]).
    Fault {
        /// The 0-based round the fault applied in.
        round: u64,
        /// What happened.
        kind: FaultKind,
        /// Sender of the affected message (0 for [`FaultKind::Squeeze`]).
        src: u32,
        /// Receiver of the affected message (0 for [`FaultKind::Squeeze`]).
        dst: u32,
        /// The sender's 0-based send index within the round (0 for
        /// [`FaultKind::Squeeze`]).
        index: u32,
        /// Kind-specific detail: deferred rounds, corrupt bit index,
        /// squeezed word budget; 0 otherwise.
        info: u64,
    },
    /// A node fail-stopped (model event): it executes nothing and reads no
    /// inbox from this round on. Emitted once, in the first crashed round.
    NodeCrash {
        /// The first round the node is dead in.
        round: u64,
        /// The crashed node.
        node: u32,
    },
    /// Wall-clock time one node's callback took (timing event).
    NodeCompute {
        /// The 0-based round.
        round: u64,
        /// The node.
        node: u32,
        /// Wall-clock nanoseconds.
        nanos: u64,
    },
    /// Wall-clock time one runtime worker's chunk took (timing event).
    WorkerSpan {
        /// The 0-based round.
        round: u64,
        /// Worker index.
        worker: u32,
        /// First node of the chunk.
        node_lo: u32,
        /// One past the last node of the chunk.
        node_hi: u32,
        /// Wall-clock nanoseconds.
        nanos: u64,
    },
    /// Wall-clock time one full executed round took, measured by the
    /// engine driving the round (timing event). The gap between this and
    /// the round's compute spans ([`Event::NodeCompute`] /
    /// [`Event::WorkerSpan`]) is *simulator overhead* — routing,
    /// metering, fault injection — which `cc-profile` attributes
    /// separately from node-program time.
    RoundWall {
        /// The 0-based round.
        round: u64,
        /// Wall-clock nanoseconds of the whole round.
        nanos: u64,
    },
}

impl Event {
    /// Whether this event is deterministic given the protocol and seed
    /// (see the module docs). Timing events return `false`.
    pub fn is_model(&self) -> bool {
        !matches!(
            self,
            Event::NodeCompute { .. } | Event::WorkerSpan { .. } | Event::RoundWall { .. }
        )
    }

    /// Stable kind tag (the `"ev"` field of the JSONL form).
    pub fn kind(&self) -> &'static str {
        match self {
            Event::RoundStart { .. } => "round_start",
            Event::RoundEnd { .. } => "round_end",
            Event::ScopeEnter { .. } => "scope_enter",
            Event::ScopeExit { .. } => "scope_exit",
            Event::MessageBatch { .. } => "message_batch",
            Event::FastForward { .. } => "fast_forward",
            Event::Fault { .. } => "fault",
            Event::NodeCrash { .. } => "node_crash",
            Event::NodeCompute { .. } => "node_compute",
            Event::WorkerSpan { .. } => "worker_span",
            Event::RoundWall { .. } => "round_wall",
        }
    }

    /// JSON object form (one JSONL line when emitted compactly).
    pub fn to_json(&self) -> Json {
        let tag = ("ev", Json::Str(self.kind().into()));
        match self {
            Event::RoundStart { round } => Json::obj(vec![tag, ("round", Json::UInt(*round))]),
            Event::RoundEnd {
                round,
                messages,
                words,
            } => Json::obj(vec![
                tag,
                ("round", Json::UInt(*round)),
                ("messages", Json::UInt(*messages)),
                ("words", Json::UInt(*words)),
            ]),
            Event::ScopeEnter { name, round } => Json::obj(vec![
                tag,
                ("name", Json::Str(name.clone())),
                ("round", Json::UInt(*round)),
            ]),
            Event::ScopeExit { name, delta } => Json::obj(vec![
                tag,
                ("name", Json::Str(name.clone())),
                ("delta", delta.to_json()),
            ]),
            Event::MessageBatch {
                round,
                src,
                dst,
                count,
                words,
            } => Json::obj(vec![
                tag,
                ("round", Json::UInt(*round)),
                ("src", Json::UInt(*src as u64)),
                ("dst", Json::UInt(*dst as u64)),
                ("count", Json::UInt(*count as u64)),
                ("words", Json::UInt(*words)),
            ]),
            Event::FastForward { from_round, rounds } => Json::obj(vec![
                tag,
                ("from_round", Json::UInt(*from_round)),
                ("rounds", Json::UInt(*rounds)),
            ]),
            Event::Fault {
                round,
                kind,
                src,
                dst,
                index,
                info,
            } => Json::obj(vec![
                tag,
                ("round", Json::UInt(*round)),
                ("kind", Json::Str(kind.as_str().into())),
                ("src", Json::UInt(*src as u64)),
                ("dst", Json::UInt(*dst as u64)),
                ("index", Json::UInt(*index as u64)),
                ("info", Json::UInt(*info)),
            ]),
            Event::NodeCrash { round, node } => Json::obj(vec![
                tag,
                ("round", Json::UInt(*round)),
                ("node", Json::UInt(*node as u64)),
            ]),
            Event::NodeCompute { round, node, nanos } => Json::obj(vec![
                tag,
                ("round", Json::UInt(*round)),
                ("node", Json::UInt(*node as u64)),
                ("nanos", Json::UInt(*nanos)),
            ]),
            Event::WorkerSpan {
                round,
                worker,
                node_lo,
                node_hi,
                nanos,
            } => Json::obj(vec![
                tag,
                ("round", Json::UInt(*round)),
                ("worker", Json::UInt(*worker as u64)),
                ("node_lo", Json::UInt(*node_lo as u64)),
                ("node_hi", Json::UInt(*node_hi as u64)),
                ("nanos", Json::UInt(*nanos)),
            ]),
            Event::RoundWall { round, nanos } => Json::obj(vec![
                tag,
                ("round", Json::UInt(*round)),
                ("nanos", Json::UInt(*nanos)),
            ]),
        }
    }

    /// Parses the object form emitted by [`Event::to_json`] (one JSONL
    /// line) — the inverse used by `trace_report diff` and the profile
    /// tooling to reload saved traces.
    ///
    /// # Errors
    ///
    /// Names the missing/ill-typed field or the unknown `ev` tag.
    pub fn from_json(v: &Json) -> Result<Event, String> {
        let kind = v
            .get("ev")
            .and_then(Json::as_str)
            .ok_or("event: missing `ev` tag")?;
        let u = |name: &str| -> Result<u64, String> {
            v.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("event `{kind}`: missing u64 field `{name}`"))
        };
        let u32_of = |name: &str| -> Result<u32, String> {
            u(name).and_then(|x| {
                u32::try_from(x)
                    .map_err(|_| format!("event `{kind}`: field `{name}` overflows u32"))
            })
        };
        let s = |name: &str| -> Result<String, String> {
            v.get(name)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("event `{kind}`: missing string field `{name}`"))
        };
        match kind {
            "round_start" => Ok(Event::RoundStart { round: u("round")? }),
            "round_end" => Ok(Event::RoundEnd {
                round: u("round")?,
                messages: u("messages")?,
                words: u("words")?,
            }),
            "scope_enter" => Ok(Event::ScopeEnter {
                name: s("name")?,
                round: u("round")?,
            }),
            "scope_exit" => Ok(Event::ScopeExit {
                name: s("name")?,
                delta: Cost::from_json(
                    v.get("delta")
                        .ok_or("event `scope_exit`: missing `delta`")?,
                )?,
            }),
            "message_batch" => Ok(Event::MessageBatch {
                round: u("round")?,
                src: u32_of("src")?,
                dst: u32_of("dst")?,
                count: u32_of("count")?,
                words: u("words")?,
            }),
            "fast_forward" => Ok(Event::FastForward {
                from_round: u("from_round")?,
                rounds: u("rounds")?,
            }),
            "fault" => Ok(Event::Fault {
                round: u("round")?,
                kind: FaultKind::parse(&s("kind")?)?,
                src: u32_of("src")?,
                dst: u32_of("dst")?,
                index: u32_of("index")?,
                info: u("info")?,
            }),
            "node_crash" => Ok(Event::NodeCrash {
                round: u("round")?,
                node: u32_of("node")?,
            }),
            "node_compute" => Ok(Event::NodeCompute {
                round: u("round")?,
                node: u32_of("node")?,
                nanos: u("nanos")?,
            }),
            "worker_span" => Ok(Event::WorkerSpan {
                round: u("round")?,
                worker: u32_of("worker")?,
                node_lo: u32_of("node_lo")?,
                node_hi: u32_of("node_hi")?,
                nanos: u("nanos")?,
            }),
            "round_wall" => Ok(Event::RoundWall {
                round: u("round")?,
                nanos: u("nanos")?,
            }),
            other => Err(format!("event: unknown kind `{other}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_vs_timing_split() {
        assert!(Event::RoundStart { round: 0 }.is_model());
        assert!(Event::MessageBatch {
            round: 1,
            src: 0,
            dst: 2,
            count: 3,
            words: 4
        }
        .is_model());
        assert!(!Event::NodeCompute {
            round: 0,
            node: 1,
            nanos: 5
        }
        .is_model());
        assert!(!Event::WorkerSpan {
            round: 0,
            worker: 0,
            node_lo: 0,
            node_hi: 4,
            nanos: 5
        }
        .is_model());
    }

    #[test]
    fn json_form_carries_kind_and_fields() {
        let ev = Event::ScopeExit {
            name: "phase1".into(),
            delta: Cost {
                rounds: 2,
                messages: 3,
                words: 4,
                bits: 40,
            },
        };
        let j = ev.to_json();
        assert_eq!(j.get("ev").unwrap().as_str(), Some("scope_exit"));
        let delta = Cost::from_json(j.get("delta").unwrap()).unwrap();
        assert_eq!(delta.messages, 3);
    }

    #[test]
    fn fault_events_are_model_events_with_stable_kinds() {
        let fault = Event::Fault {
            round: 3,
            kind: FaultKind::Defer,
            src: 1,
            dst: 2,
            index: 0,
            info: 4,
        };
        assert!(fault.is_model(), "fault decisions are deterministic");
        assert_eq!(fault.kind(), "fault");
        let j = fault.to_json();
        assert_eq!(j.get("kind").unwrap().as_str(), Some("defer"));
        assert_eq!(j.get("info").unwrap().as_u64(), Some(4));

        let crash = Event::NodeCrash { round: 5, node: 7 };
        assert!(crash.is_model());
        assert_eq!(crash.kind(), "node_crash");
        assert_eq!(crash.to_json().get("node").unwrap().as_u64(), Some(7));

        let kinds: Vec<&str> = [
            FaultKind::Drop,
            FaultKind::Duplicate,
            FaultKind::Corrupt,
            FaultKind::Defer,
            FaultKind::Squeeze,
        ]
        .iter()
        .map(FaultKind::as_str)
        .collect();
        assert_eq!(kinds, ["drop", "duplicate", "corrupt", "defer", "squeeze"]);
    }

    #[test]
    fn every_event_kind_round_trips_through_json() {
        let all = vec![
            Event::RoundStart { round: 0 },
            Event::RoundEnd {
                round: 0,
                messages: 3,
                words: 7,
            },
            Event::ScopeEnter {
                name: "phase1".into(),
                round: 1,
            },
            Event::ScopeExit {
                name: "phase1".into(),
                delta: Cost {
                    rounds: 1,
                    messages: 2,
                    words: 3,
                    bits: 18,
                },
            },
            Event::MessageBatch {
                round: 2,
                src: 4,
                dst: 5,
                count: 6,
                words: 7,
            },
            Event::FastForward {
                from_round: 3,
                rounds: 100,
            },
            Event::Fault {
                round: 4,
                kind: FaultKind::Corrupt,
                src: 1,
                dst: 2,
                index: 3,
                info: 11,
            },
            Event::NodeCrash { round: 5, node: 9 },
            Event::NodeCompute {
                round: 6,
                node: 1,
                nanos: 0,
            },
            Event::WorkerSpan {
                round: 7,
                worker: 0,
                node_lo: 0,
                node_hi: 8,
                nanos: 12345,
            },
            Event::RoundWall {
                round: 8,
                nanos: 99,
            },
        ];
        for ev in all {
            let parsed = Event::from_json(&ev.to_json()).unwrap();
            assert_eq!(parsed, ev);
        }
        assert!(Event::from_json(&Json::Null).is_err());
        assert!(Event::from_json(&Json::obj(vec![("ev", Json::Str("mystery".into()))])).is_err());
    }

    #[test]
    fn round_wall_is_a_timing_event() {
        let ev = Event::RoundWall { round: 3, nanos: 5 };
        assert!(!ev.is_model());
        assert_eq!(ev.kind(), "round_wall");
    }
}
