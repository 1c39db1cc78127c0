//! RTAD's ML Computing Module (MCM).
//!
//! The MCM (paper §III-B, Fig. 3) bridges the IGM's vector stream to the
//! ML-MIAOW engine:
//!
//! * an **internal FIFO** absorbs vectors while an inference is in
//!   flight — and, when the engine cannot keep up for an extended
//!   period, overflows and loses events (the paper's `471.omnetpp`
//!   observation with the original MIAOW engine);
//! * a **control FSM** sequences each event:
//!   `WAIT_INPUT → READ_INPUT → WRITE_INPUT → WAIT_DONE → READ_RESULT`;
//! * the **TX engine** and **protocol converter** drive the vector into
//!   the engine's memory over its AXI interface and set the per-CU
//!   control registers;
//! * the **RX engine** reads back the score/flag words;
//! * the **interrupt manager** raises the host interrupt when the result
//!   flags an anomaly.
//!
//! The engine itself is abstracted behind [`InferenceEngine`] so the
//! same MCM model drives the full MIAOW, the trimmed ML-MIAOW, or a
//! calibrated timing stub.
//!
//! # Examples
//!
//! A fixed-latency backend shows the queueing behaviour:
//!
//! ```
//! use rtad_igm::VectorPayload;
//! use rtad_mcm::{InferenceEngine, InferenceResult, Mcm, McmConfig};
//! use rtad_sim::{ClockDomain, Picos};
//!
//! struct Stub;
//! impl InferenceEngine for Stub {
//!     fn infer_event(&mut self, _p: &VectorPayload, _at: Picos) -> InferenceResult {
//!         InferenceResult { score: 0.1, flagged: false, engine_cycles: 500 }
//!     }
//!     fn engine_clock(&self) -> ClockDomain {
//!         ClockDomain::rtad_miaow()
//!     }
//! }
//!
//! let mut mcm = Mcm::new(McmConfig::rtad(), Stub);
//! let vectors = vec![
//!     rtad_igm::TimedVector {
//!         at: Picos::from_micros(1),
//!         target: rtad_trace_addr(),
//!         context_id: 1,
//!         payload: VectorPayload::Token(3),
//!     };
//!     4
//! ];
//! let run = mcm.run(&vectors);
//! assert_eq!(run.events.len(), 4);
//! // Back-to-back arrivals queue behind the 10us inference.
//! assert!(run.events[1].queue_wait() > Picos::ZERO);
//! # fn rtad_trace_addr() -> rtad_trace::VirtAddr { rtad_trace::VirtAddr::new(0x40) }
//! ```

use serde::{Deserialize, Serialize};

use rtad_igm::{TimedVector, VectorPayload};
use rtad_sim::{
    AreaEstimate, AxiBus, AxiBusConfig, BurstKind, ClockDomain, FifoStats, HwFifo, OverflowPolicy,
    Picos,
};

/// Result of one inference event from the engine backend.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InferenceResult {
    /// The anomaly score.
    pub score: f64,
    /// Whether the engine's threshold compare flagged an anomaly.
    pub flagged: bool,
    /// Engine cycles the event took (in the backend's clock domain).
    pub engine_cycles: u64,
}

/// The engine abstraction the MCM drives.
pub trait InferenceEngine {
    /// Runs one inference event on the delivered payload. `at` is the
    /// vector's arrival time at the MCM (burst detectors use it).
    fn infer_event(&mut self, payload: &VectorPayload, at: Picos) -> InferenceResult;
    /// The engine's clock domain (converts cycles to time).
    fn engine_clock(&self) -> ClockDomain;
    /// Load-time verification of whatever the backend has staged
    /// (statically proving its kernels run trap-free on its engine,
    /// say), so a bad configuration is rejected before the stream
    /// starts rather than mid-event. The default backend has nothing to
    /// verify. The error is the backend's human-readable report.
    fn preflight(&self) -> Result<(), String> {
        Ok(())
    }
    /// One-time host-side warm-up before the stream starts: backends
    /// that drive a simulated engine use this to predecode their
    /// kernels, so the first event is not charged the lowering cost.
    /// Purely a wall-clock optimization — simulated results are
    /// unaffected. The default backend has nothing to warm.
    fn warmup(&mut self) {}
}

/// The control-FSM states of Fig. 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FsmState {
    /// Idle, waiting for the IGM.
    WaitInput,
    /// Popping the internal FIFO.
    ReadInput,
    /// TX engine driving the vector and control registers.
    WriteInput,
    /// Engine computing.
    WaitDone,
    /// RX engine reading the result.
    ReadResult,
}

impl FsmState {
    /// Legal successor states (the FSM is a simple cycle).
    pub fn successors(self) -> &'static [FsmState] {
        match self {
            FsmState::WaitInput => &[FsmState::ReadInput],
            FsmState::ReadInput => &[FsmState::WriteInput],
            FsmState::WriteInput => &[FsmState::WaitDone],
            FsmState::WaitDone => &[FsmState::ReadResult],
            FsmState::ReadResult => &[FsmState::WaitInput, FsmState::ReadInput],
        }
    }
}

/// Static configuration of the MCM.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct McmConfig {
    /// Internal FIFO depth in vectors.
    pub fifo_depth: usize,
    /// MCM logic clock (125 MHz on the prototype).
    pub clock: ClockDomain,
    /// Cycles for READ_INPUT (FIFO pop + protocol conversion).
    pub read_input_cycles: u64,
    /// Control-register writes per launch — "control registers for each
    /// CU such as starting addresses of register files and local memory
    /// are also set" (§III-B): four registers for each of the five CUs.
    pub control_writes: usize,
    /// Cycles for READ_RESULT (RX engine reads score + flag words).
    pub read_result_cycles: u64,
    /// The AXI interface to the engine.
    pub bus: AxiBusConfig,
}

impl McmConfig {
    /// The RTAD prototype configuration.
    pub fn rtad() -> Self {
        McmConfig {
            fifo_depth: 64,
            clock: ClockDomain::rtad_mlpu(),
            read_input_cycles: 1,
            control_writes: 20,
            read_result_cycles: 10,
            bus: AxiBusConfig::nic301_gp(),
        }
    }
}

impl Default for McmConfig {
    fn default() -> Self {
        McmConfig::rtad()
    }
}

/// One completed inference event with its full timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct McmEvent {
    /// When the vector arrived from the IGM.
    pub arrived: Picos,
    /// When the FSM left WAIT_INPUT for it.
    pub started: Picos,
    /// When the TX engine finished driving the engine (inference start).
    pub compute_started: Picos,
    /// When READ_RESULT completed.
    pub done: Picos,
    /// The engine's score.
    pub score: f64,
    /// Whether the event raised the anomaly flag.
    pub flagged: bool,
    /// Engine cycles of the inference itself.
    pub engine_cycles: u64,
}

impl McmEvent {
    /// Time spent queued in the internal FIFO.
    pub fn queue_wait(&self) -> Picos {
        self.started.saturating_sub(self.arrived)
    }

    /// End-to-end MCM latency (arrival to result).
    pub fn total_latency(&self) -> Picos {
        self.done.saturating_sub(self.arrived)
    }
}

/// Result of processing a vector stream.
#[derive(Debug, Clone, Default)]
pub struct McmRunResult {
    /// Completed events in service order.
    pub events: Vec<McmEvent>,
    /// Host interrupts raised (time of each).
    pub interrupts: Vec<Picos>,
    /// Internal FIFO statistics (drops = events lost to overflow).
    pub fifo: FifoStats,
    /// FSM transition count (sanity/diagnostics).
    pub fsm_transitions: u64,
}

impl McmRunResult {
    /// The first interrupt, if any — the detection instant.
    pub fn first_interrupt(&self) -> Option<Picos> {
        self.interrupts.first().copied()
    }
}

/// The ML Computing Module.
#[derive(Debug)]
pub struct Mcm<B> {
    config: McmConfig,
    backend: B,
    bus: AxiBus,
    state: FsmState,
    fsm_transitions: u64,
}

impl<B: InferenceEngine> Mcm<B> {
    /// Creates an MCM over an engine backend.
    pub fn new(config: McmConfig, backend: B) -> Self {
        let bus = AxiBus::new(config.bus.clone(), config.clock.clone());
        Mcm {
            config,
            backend,
            bus,
            state: FsmState::WaitInput,
            fsm_transitions: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &McmConfig {
        &self.config
    }

    /// The backend (e.g. to inspect accumulated engine state).
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Runs the backend's load-time verification
    /// ([`InferenceEngine::preflight`]) — call once after construction,
    /// before streaming vectors.
    ///
    /// # Errors
    ///
    /// Propagates the backend's verification report.
    pub fn preflight(&self) -> Result<(), String> {
        self.backend.preflight()
    }

    /// Table I synthesis results for the MCM's own logic (FIFO, driver,
    /// FSM, interrupt manager — the engine is accounted separately).
    pub fn area() -> AreaEstimate {
        internal_fifo_area() + driver_area() + control_fsm_area() + interrupt_manager_area()
    }

    /// Processes a complete, time-ordered vector stream through the
    /// FIFO + FSM + engine, producing per-event timelines and interrupts.
    ///
    /// # Panics
    ///
    /// Panics if `vectors` is not sorted by arrival time.
    pub fn run(&mut self, vectors: &[TimedVector]) -> McmRunResult {
        assert!(
            vectors.windows(2).all(|w| w[0].at <= w[1].at),
            "vector stream must be time-ordered"
        );
        self.backend.warmup();
        let mut fifo: HwFifo<TimedVector> =
            HwFifo::new(self.config.fifo_depth, OverflowPolicy::DropNewest);
        let mut out = McmRunResult::default();
        let mut next_arrival = 0usize;
        let mut server_free = Picos::ZERO;

        loop {
            if fifo.is_empty() {
                // WAIT_INPUT: jump to the next arrival, if any.
                self.transition(FsmState::WaitInput, &mut out);
                match vectors.get(next_arrival) {
                    None => break,
                    Some(v) => {
                        fifo.push(v.clone());
                        next_arrival += 1;
                    }
                }
            }
            let item = fifo.pop().expect("fifo non-empty by construction");

            // READ_INPUT at the first MLPU edge after both the vector's
            // arrival and the server being free.
            self.transition(FsmState::ReadInput, &mut out);
            let started = self
                .config
                .clock
                .next_edge_at_or_after(server_free.max(item.at));
            let t_read = self
                .config
                .clock
                .cycles_to_picos(self.config.read_input_cycles);

            // WRITE_INPUT: payload + control registers over the AXI bus.
            self.transition(FsmState::WriteInput, &mut out);
            let payload_bytes = item.payload.wire_bytes();
            let t_payload = self.bus.transfer_time(payload_bytes, BurstKind::Incr);
            let t_control =
                self.bus.transfer_time(4, BurstKind::Fixed) * self.config.control_writes as u64;
            let compute_started = started + t_read + t_payload + t_control;

            // WAIT_DONE: the engine computes.
            self.transition(FsmState::WaitDone, &mut out);
            let result = self.backend.infer_event(&item.payload, item.at);
            let t_compute = self
                .backend
                .engine_clock()
                .cycles_to_picos(result.engine_cycles);

            // READ_RESULT: RX engine pulls score + flag.
            self.transition(FsmState::ReadResult, &mut out);
            let t_result = self
                .config
                .clock
                .cycles_to_picos(self.config.read_result_cycles);
            let done = compute_started + t_compute + t_result;
            server_free = done;

            if result.flagged {
                // Interrupt one MLPU cycle after the result lands.
                out.interrupts
                    .push(done + self.config.clock.cycles_to_picos(1));
            }
            out.events.push(McmEvent {
                arrived: item.at,
                started,
                compute_started,
                done,
                score: result.score,
                flagged: result.flagged,
                engine_cycles: result.engine_cycles,
            });

            // Enqueue everything that arrived while we were busy.
            while let Some(v) = vectors.get(next_arrival) {
                if v.at <= server_free {
                    fifo.push(v.clone());
                    next_arrival += 1;
                } else {
                    break;
                }
            }
        }

        out.fifo = fifo.stats();
        out.fsm_transitions = self.fsm_transitions;
        out
    }

    fn transition(&mut self, to: FsmState, _out: &mut McmRunResult) {
        debug_assert!(
            self.state.successors().contains(&to) || self.state == to,
            "illegal FSM transition {:?} -> {to:?}",
            self.state
        );
        if self.state != to {
            self.fsm_transitions += 1;
            self.state = to;
        }
    }
}

/// Table I: the MCM internal FIFO (13 LUTs, 33 FFs, 10 BRAMs, 262 GE).
pub fn internal_fifo_area() -> AreaEstimate {
    AreaEstimate::new(13, 33, 10, 262)
}

/// Table I: the ML-MIAOW driver (489 LUTs, 265 FFs, 5,971 GE).
pub fn driver_area() -> AreaEstimate {
    AreaEstimate::new(489, 265, 0, 5_971)
}

/// Table I: the control FSM (1,609 LUTs, 1,698 FFs, 16,977 GE).
pub fn control_fsm_area() -> AreaEstimate {
    AreaEstimate::new(1_609, 1_698, 0, 16_977)
}

/// Table I: the interrupt manager (42 LUTs, 91 FFs, 927 GE).
pub fn interrupt_manager_area() -> AreaEstimate {
    AreaEstimate::new(42, 91, 0, 927)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtad_trace::VirtAddr;

    struct FixedBackend {
        cycles: u64,
        flag_above: f64,
        scores: Vec<f64>,
        next: usize,
    }

    impl FixedBackend {
        fn new(cycles: u64, scores: Vec<f64>, flag_above: f64) -> Self {
            FixedBackend {
                cycles,
                flag_above,
                scores,
                next: 0,
            }
        }
    }

    impl InferenceEngine for FixedBackend {
        fn infer_event(&mut self, _p: &VectorPayload, _at: Picos) -> InferenceResult {
            let score = self.scores.get(self.next).copied().unwrap_or(0.0);
            self.next += 1;
            InferenceResult {
                score,
                flagged: score > self.flag_above,
                engine_cycles: self.cycles,
            }
        }
        fn engine_clock(&self) -> ClockDomain {
            ClockDomain::rtad_miaow()
        }
    }

    fn vectors(times_us: &[u64]) -> Vec<TimedVector> {
        times_us
            .iter()
            .map(|&t| TimedVector {
                at: Picos::from_micros(t),
                target: VirtAddr::new(0x40),
                context_id: 1,
                payload: VectorPayload::Token(1),
            })
            .collect()
    }

    #[test]
    fn sparse_arrivals_have_no_queue_wait() {
        // 500 engine cycles at 50MHz = 10us; arrivals every 100us.
        let mut mcm = Mcm::new(McmConfig::rtad(), FixedBackend::new(500, vec![0.0; 4], 1.0));
        let run = mcm.run(&vectors(&[100, 200, 300, 400]));
        assert_eq!(run.events.len(), 4);
        for e in &run.events {
            assert_eq!(e.queue_wait(), Picos::ZERO);
            assert!(e.total_latency() > Picos::from_micros(10));
            assert!(e.total_latency() < Picos::from_micros(12));
        }
        assert!(run.interrupts.is_empty());
        assert_eq!(run.fifo.dropped, 0);
    }

    #[test]
    fn burst_arrivals_queue_and_latency_grows() {
        let mut mcm = Mcm::new(McmConfig::rtad(), FixedBackend::new(500, vec![0.0; 5], 1.0));
        // All five arrive at t=10us; service is ~10us each.
        let run = mcm.run(&vectors(&[10, 10, 10, 10, 10]));
        assert_eq!(run.events.len(), 5);
        let waits: Vec<_> = run.events.iter().map(super::McmEvent::queue_wait).collect();
        assert!(
            waits.windows(2).all(|w| w[1] > w[0]),
            "waits grow: {waits:?}"
        );
        assert!(run.events[4].total_latency() > Picos::from_micros(40));
    }

    #[test]
    fn tiny_fifo_overflows_under_sustained_pressure() {
        let mut cfg = McmConfig::rtad();
        cfg.fifo_depth = 2;
        let mut mcm = Mcm::new(cfg, FixedBackend::new(5_000, vec![0.0; 64], 1.0));
        // 64 arrivals 1us apart; service 100us each: FIFO must overflow.
        let times: Vec<u64> = (0..64).collect();
        let run = mcm.run(&vectors(&times));
        assert!(run.fifo.dropped > 0, "{}", run.fifo);
        assert!(run.events.len() < 64);
    }

    #[test]
    fn flagged_event_raises_interrupt_after_done() {
        let mut mcm = Mcm::new(
            McmConfig::rtad(),
            FixedBackend::new(500, vec![0.1, 9.0, 0.1], 1.0),
        );
        let run = mcm.run(&vectors(&[10, 100, 200]));
        assert_eq!(run.interrupts.len(), 1);
        let flagged = &run.events[1];
        assert!(flagged.flagged);
        assert_eq!(
            run.first_interrupt().unwrap(),
            flagged.done + ClockDomain::rtad_mlpu().cycles_to_picos(1)
        );
    }

    #[test]
    fn fsm_cycles_are_legal() {
        for s in [
            FsmState::WaitInput,
            FsmState::ReadInput,
            FsmState::WriteInput,
            FsmState::WaitDone,
            FsmState::ReadResult,
        ] {
            assert!(!s.successors().is_empty());
        }
        // ReadResult may loop straight to ReadInput (FIFO non-empty).
        assert!(FsmState::ReadResult
            .successors()
            .contains(&FsmState::ReadInput));
    }

    #[test]
    fn dense_payload_takes_longer_to_transfer_than_token() {
        let token_run = {
            let mut mcm = Mcm::new(McmConfig::rtad(), FixedBackend::new(100, vec![0.0], 1.0));
            mcm.run(&vectors(&[10]))
        };
        let dense_run = {
            let mut mcm = Mcm::new(McmConfig::rtad(), FixedBackend::new(100, vec![0.0], 1.0));
            let mut v = vectors(&[10]);
            v[0].payload = VectorPayload::Dense(vec![0.0; 64]);
            mcm.run(&v)
        };
        let t_tx = |r: &McmRunResult| r.events[0].compute_started - r.events[0].started;
        assert!(t_tx(&dense_run) > t_tx(&token_run));
    }

    #[test]
    fn area_matches_table_i_rows() {
        assert_eq!(internal_fifo_area().brams, 10);
        let total = Mcm::<FixedBackend>::area();
        assert_eq!(total.luts, 13 + 489 + 1_609 + 42);
        assert_eq!(total.ffs, 33 + 265 + 1_698 + 91);
        assert_eq!(total.gates, 262 + 5_971 + 16_977 + 927);
    }

    #[test]
    fn preflight_defaults_to_ok_and_propagates_rejections() {
        let mcm = Mcm::new(McmConfig::rtad(), FixedBackend::new(1, vec![], 1.0));
        assert_eq!(mcm.preflight(), Ok(()));

        struct Rejecting;
        impl InferenceEngine for Rejecting {
            fn infer_event(&mut self, _p: &VectorPayload, _at: Picos) -> InferenceResult {
                unreachable!("preflight must reject before any event")
            }
            fn engine_clock(&self) -> ClockDomain {
                ClockDomain::rtad_miaow()
            }
            fn preflight(&self) -> Result<(), String> {
                Err("kernel uses trimmed feature".into())
            }
        }
        let mcm = Mcm::new(McmConfig::rtad(), Rejecting);
        assert!(mcm.preflight().unwrap_err().contains("trimmed"));
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn unsorted_stream_panics() {
        let mut mcm = Mcm::new(McmConfig::rtad(), FixedBackend::new(1, vec![0.0; 2], 1.0));
        let mut v = vectors(&[20, 10]);
        v[1].at = Picos::from_micros(5);
        mcm.run(&v);
    }
}
