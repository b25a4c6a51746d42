//! A transparent [`ClusterBackend`] decorator for the traced run.
//!
//! [`Timed`] wraps any backend and forwards every trait method to it. The
//! only thing it adds is timestamps: the duration of every `server_fn`
//! call (the parameter server's handler for one message), the blocking
//! wait of every [`WorkerLink::request`], and the span from the start of
//! `run` to the first `server_fn` call (thread spawn, TCP connect and
//! Hello). Messages, replies and their order are untouched, so a
//! decorated run trains exactly like an undecorated one.

use lcasgd_simcluster::{
    ClockDomain, ClusterBackend, ClusterError, ReplicaDuplexPair, ServerCtx, TraceHook,
    TransportStats, WireCodec, WireMsg, WorkerLink,
};
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub const POISONED: &str = "timings lock poisoned by a panicking worker";

/// What one decorated run observed. Durations are wall-clock seconds.
#[derive(Debug, Default, Clone)]
pub struct Timings {
    /// One entry per `server_fn` call.
    pub handler_s: Vec<f64>,
    /// One entry per `WorkerLink::request` round trip, all workers.
    pub request_wait_s: Vec<f64>,
    /// From `run` start to the first `server_fn` call.
    pub startup_s: f64,
    /// From `run` start to `run` return.
    pub run_s: f64,
}

/// The decorator. Read the timings back through the handle returned by
/// [`Timed::new`] once `run` has returned.
pub struct Timed<B> {
    inner: B,
    timings: Arc<Mutex<Timings>>,
}

impl<B: ClusterBackend> Timed<B> {
    pub fn new(inner: B) -> (Self, Arc<Mutex<Timings>>) {
        let timings = Arc::new(Mutex::new(Timings::default()));
        (Timed { inner, timings: Arc::clone(&timings) }, timings)
    }
}

struct TimedLink<'a, Req, Resp> {
    inner: &'a mut dyn WorkerLink<Req, Resp>,
    timings: &'a Mutex<Timings>,
}

impl<Req, Resp> WorkerLink<Req, Resp> for TimedLink<'_, Req, Resp> {
    fn worker(&self) -> usize {
        self.inner.worker()
    }

    fn request(&mut self, req: Req) -> Result<Resp, ClusterError> {
        let t0 = Instant::now();
        let resp = self.inner.request(req);
        let waited = t0.elapsed().as_secs_f64();
        self.timings.lock().expect(POISONED).request_wait_s.push(waited);
        resp
    }

    fn send(&mut self, req: Req) -> Result<(), ClusterError> {
        self.inner.send(req)
    }
}

impl<B: ClusterBackend> ClusterBackend for Timed<B> {
    fn workers(&self) -> usize {
        self.inner.workers()
    }

    fn clock_domain(&self) -> ClockDomain {
        self.inner.clock_domain()
    }

    fn wire_codec(&self) -> WireCodec {
        self.inner.wire_codec()
    }

    fn attach_trace_hook(&mut self, hook: Arc<dyn TraceHook>) {
        self.inner.attach_trace_hook(hook)
    }

    fn replica_duplex(&mut self) -> Result<ReplicaDuplexPair, ClusterError> {
        self.inner.replica_duplex()
    }

    fn run<Req, Resp, S, W>(
        self,
        mut server_fn: S,
        worker_fn: W,
    ) -> Result<TransportStats, ClusterError>
    where
        Req: WireMsg + Send + 'static,
        Resp: WireMsg + Send + 'static,
        S: FnMut(usize, Req, &mut ServerCtx<Resp>),
        W: Fn(usize, &mut dyn WorkerLink<Req, Resp>) + Send + Sync,
    {
        let start = Instant::now();
        let server_timings = Arc::clone(&self.timings);
        let mut first_call = true;
        let timed_server = move |w: usize, req: Req, ctx: &mut ServerCtx<Resp>| {
            let t0 = Instant::now();
            server_fn(w, req, ctx);
            let took = t0.elapsed().as_secs_f64();
            let mut t = server_timings.lock().expect(POISONED);
            if first_call {
                first_call = false;
                t.startup_s = t0.duration_since(start).as_secs_f64();
            }
            t.handler_s.push(took);
        };
        let worker_timings = Arc::clone(&self.timings);
        let timed_worker = move |w: usize, link: &mut dyn WorkerLink<Req, Resp>| {
            let mut link = TimedLink { inner: link, timings: &worker_timings };
            worker_fn(w, &mut link)
        };
        let out = self.inner.run(timed_server, timed_worker);
        self.timings.lock().expect(POISONED).run_s = start.elapsed().as_secs_f64();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcasgd_core::algorithms::Algorithm;
    use lcasgd_core::config::{ExperimentConfig, Scale};
    use lcasgd_core::metrics::RunResult;
    use lcasgd_core::trainer::{run_cluster_with, RunOptions};
    use lcasgd_nn::optimizer::LrSchedule;
    use lcasgd_simcluster::{ClusterSim, SimPayload};
    use lcasgd_tensor::Rng;

    fn asgd_on_sim(decorate: bool) -> (RunResult, Option<Timings>) {
        let (train, test) = lcasgd_data::synth::blobs_split(4, 6, 30, 12, 0.5, 33);
        let mut cfg = ExperimentConfig::new(Algorithm::Asgd, 4, Scale::Tiny, 23);
        cfg.epochs = 6;
        cfg.batch_size = 10;
        cfg.lr = LrSchedule::constant(0.1);
        let build = |rng: &mut Rng| lcasgd_nn::mlp::mlp(&[6, 16, 4], false, rng);
        let sim: ClusterSim<SimPayload> = ClusterSim::new(cfg.cluster.clone());
        // Traced, so the simulator's virtual-clock spans show whether the
        // trace hook reaches the wrapped backend.
        let opts = || RunOptions { trace: true, ..RunOptions::default() };
        if decorate {
            let (timed, timings) = Timed::new(sim);
            let r = run_cluster_with(timed, &cfg, &build, &train, &test, opts())
                .expect("decorated run");
            let t = timings.lock().expect(POISONED).clone();
            (r, Some(t))
        } else {
            let r = run_cluster_with(sim, &cfg, &build, &train, &test, opts()).expect("plain run");
            (r, None)
        }
    }

    #[test]
    fn decorator_is_transparent_on_the_simulator() {
        let (plain, _) = asgd_on_sim(false);
        let (timed, timings) = asgd_on_sim(true);
        let losses =
            |r: &RunResult| r.epochs.iter().map(|e| e.train_loss.to_bits()).collect::<Vec<_>>();
        assert_eq!(losses(&plain), losses(&timed), "per-epoch losses differ");
        assert_eq!(plain.staleness, timed.staleness, "staleness samples differ");
        assert_eq!(plain.iterations, timed.iterations);
        assert_eq!(plain.clock, timed.clock, "clock domain must pass through");
        let spans = |r: &RunResult| {
            let log = r.timeline.as_ref().expect("traced run returns a timeline");
            log.phases(ClockDomain::Virtual)
                .into_iter()
                .map(|p| (p, log.phase_total(p, ClockDomain::Virtual).to_bits()))
                .collect::<Vec<_>>()
        };
        assert!(!spans(&plain).is_empty(), "the simulator reports virtual spans");
        assert_eq!(spans(&plain), spans(&timed), "virtual-clock spans differ");
        let t = timings.unwrap();
        // ASGD: every applied update is one Pull request plus one Grad push,
        // and the server handles both.
        assert!(t.request_wait_s.len() as u64 >= plain.iterations);
        assert!(t.handler_s.len() as u64 >= 2 * plain.iterations);
        assert!(t.run_s > 0.0 && t.startup_s <= t.run_s);
    }
}
