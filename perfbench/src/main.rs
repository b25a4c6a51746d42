//! Benchmark runner: one process runs one training run or one set of layer
//! probes and prints its raw measurements as a single JSON line.
//!
//! ```text
//! lcasgd-perfbench train --backend sim|tcp --workers M --seed S
//!     [--codec f32|bf16|int8] [--traced]
//! lcasgd-perfbench probe --backend ... (same workload flags)
//! ```
//!
//! `perfbench/run.py` drives this binary once per repetition, under a
//! wall-clock deadline, and turns the raw numbers into the benchmark's
//! metrics. The task is the CIFAR-like `Scale::Small` preset: 10×10
//! images, 960 train and 640 test examples, batch 16, `ResNetConfig::tiny`,
//! trained with LC-ASGD for 6 epochs. Every input is generated from `--seed`.

mod timed;

use lcasgd_core::algorithms::Algorithm;
use lcasgd_core::bnmode::BnMode;
use lcasgd_core::comm::Compression;
use lcasgd_core::config::{ExperimentConfig, Scale};
use lcasgd_core::predictor::{LossPredictor, StepPredictor};
use lcasgd_core::server::ParameterServer;
use lcasgd_core::trace::phase;
use lcasgd_core::trainer::{run_cluster, run_cluster_with, run_experiment, RunOptions};
use lcasgd_core::worker::WorkerNode;
use lcasgd_data::{Dataset, SyntheticImageSpec};
use lcasgd_netcluster::{NetCluster, NetConfig};
use lcasgd_nn::metrics::evaluate;
use lcasgd_nn::optimizer::LrSchedule;
use lcasgd_nn::resnet::ResNetConfig;
use lcasgd_simcluster::{ClockDomain, PackedF32, WireCodec};
use lcasgd_tensor::Rng;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;
use timed::{Timed, POISONED};

const SCALE: Scale = Scale::Small;
/// The Small preset's 16 epochs shortened so a benchmark run holds enough
/// training runs; the learning rate still drops twice (after epochs 3 and 4).
const EPOCHS: usize = 6;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Backend {
    Sim,
    Tcp,
}

struct Args {
    mode: String,
    backend: Backend,
    workers: usize,
    seed: u64,
    codec: WireCodec,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mode = raw.first().cloned().ok_or("missing mode (train|probe)")?;
    if mode != "train" && mode != "probe" {
        return Err(format!("unknown mode {mode:?}"));
    }
    let value = |flag: &str| -> Option<&str> {
        raw.iter().position(|a| a == flag).and_then(|i| raw.get(i + 1)).map(String::as_str)
    };
    let number = |flag: &str| -> Result<u64, String> {
        let v = value(flag).ok_or(format!("missing {flag}"))?;
        v.parse().map_err(|_| format!("bad {flag} value {v:?}"))
    };
    let backend = match value("--backend") {
        Some("sim") => Backend::Sim,
        Some("tcp") => Backend::Tcp,
        other => return Err(format!("bad --backend {other:?}")),
    };
    let codec = match value("--codec") {
        None => WireCodec::F32,
        Some(c) => WireCodec::parse(c).ok_or(format!("bad --codec {c:?}"))?,
    };
    Ok(Args {
        mode,
        backend,
        workers: number("--workers")? as usize,
        seed: number("--seed")?,
        codec,
        traced: raw.iter().any(|a| a == "--traced"),
    })
}

/// The generated inputs of one workload.
struct Task {
    train: Dataset,
    test: Dataset,
    resnet: ResNetConfig,
    cfg: ExperimentConfig,
}

/// The CIFAR-like `Scale::Small` dataset, generated from `seed`.
fn data_spec(seed: u64) -> SyntheticImageSpec {
    let hw = SCALE.cifar_hw();
    SyntheticImageSpec {
        seed,
        ..SyntheticImageSpec::cifar10_like(
            hw,
            hw,
            SCALE.cifar_train_per_class(),
            SCALE.cifar_test_per_class(),
        )
    }
}

/// Generates the dataset and builds the model and config: everything
/// before the training call.
fn setup(a: &Args) -> Task {
    let (train, test) = data_spec(a.seed).generate();
    let resnet = ResNetConfig::tiny(3, 10);
    black_box(resnet.build(&mut Rng::seed_from_u64(a.seed)).num_params());
    let mut cfg = ExperimentConfig::new(Algorithm::LcAsgd, a.workers, SCALE, a.seed);
    cfg.epochs = EPOCHS;
    cfg.lr = LrSchedule::paper_step(SCALE.cifar_lr(), EPOCHS);
    Task { train, test, resnet, cfg }
}

/// Peak resident set of this process, in KiB (`VmHWM`).
fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|v| v.parse().ok()))
        })
        .unwrap_or(0)
}

fn json_list(xs: &[f64]) -> String {
    let items: Vec<String> = xs.iter().map(|x| json_num(*x)).collect();
    format!("[{}]", items.join(","))
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:e}")
    } else {
        "null".to_string()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn train(a: &Args) -> String {
    // One cold set-up per process, as a user's first run sees it; the
    // benchmark takes the median over its training processes.
    let t0 = Instant::now();
    let Task { train, test, resnet, cfg } = setup(a);
    let setup_s = t0.elapsed().as_secs_f64();
    let build = |rng: &mut Rng| resnet.build(rng);
    let planned = cfg.epochs * train.len().div_ceil(cfg.batch_size);

    let mut timings = None;
    let t0 = Instant::now();
    let result = match a.backend {
        Backend::Sim => Ok(run_experiment(&cfg, &build, &train, &test)),
        Backend::Tcp => {
            let net = NetConfig { wire_codec: a.codec, ..NetConfig::default() };
            let backend = NetCluster::new(a.workers).with_config(net);
            if a.traced {
                // Same backend, config and seed; only the observation changes.
                let (timed, handle) = Timed::new(backend);
                let opts = RunOptions { trace: true, ..RunOptions::default() };
                let r = run_cluster_with(timed, &cfg, &build, &train, &test, opts);
                timings = Some(handle.lock().expect(POISONED).clone());
                r
            } else {
                run_cluster(backend, &cfg, &build, &train, &test)
            }
        }
    };
    let train_wall_s = t0.elapsed().as_secs_f64();

    let mut o = String::from("{");
    let _ = write!(o, "\"setup_s\":{},", json_num(setup_s));
    let _ = write!(o, "\"train_wall_s\":{},", json_num(train_wall_s));
    let _ = write!(o, "\"planned_updates\":{planned},");
    let _ = write!(o, "\"batch_size\":{},", cfg.batch_size);
    let r = match result {
        Err(e) => {
            let _ = write!(o, "\"ok\":false,\"error\":{},", json_str(&e.to_string()));
            let _ = write!(o, "\"peak_rss_kib\":{}}}", peak_rss_kib());
            return o;
        }
        Ok(r) => r,
    };
    let _ = write!(o, "\"ok\":true,\"iterations\":{},", r.iterations);
    let _ = write!(o, "\"clock\":\"{}\",", r.clock);
    let epochs: Vec<String> = r
        .epochs
        .iter()
        .map(|e| {
            format!(
                "[{},{},{}]",
                json_num(e.time),
                json_num(e.test_error as f64),
                json_num(e.train_loss as f64)
            )
        })
        .collect();
    let _ = write!(o, "\"epochs\":[{}],", epochs.join(","));
    let _ = write!(
        o,
        "\"staleness_mean\":{},\"staleness_p99\":{},",
        json_num(r.mean_staleness()),
        r.staleness_quantile(0.99)
    );
    if let Some(ov) = &r.overhead {
        let _ = write!(
            o,
            "\"loss_ms_per_update\":{},\"step_ms_per_update\":{},",
            json_num(ov.avg_loss_pred_ms()),
            json_num(ov.avg_step_pred_ms())
        );
    }
    if let Some(t) = &r.transport {
        let _ = write!(
            o,
            "\"transport\":{{\"bytes\":{},\"requests\":{},\"oneways\":{},\"serialize_s\":{},\"rtt_mean_s\":{}}},",
            t.bytes_sent + t.bytes_received,
            t.requests,
            t.oneways,
            json_num(t.serialize_seconds),
            json_num(t.rtt.mean_seconds())
        );
    }
    if let Some(log) = &r.timeline {
        let totals: Vec<String> = log
            .phases(ClockDomain::Wall)
            .iter()
            .map(|p| format!("\"{p}\":{}", json_num(log.phase_total(p, ClockDomain::Wall))))
            .collect();
        let coalesced = log.events.iter().filter(|e| e.phase == phase::COALESCE).count();
        let _ = write!(o, "\"phases\":{{{}}},\"coalesce_n\":{coalesced},", totals.join(","));
    }
    if let Some(t) = &timings {
        let _ = write!(
            o,
            "\"handler_s\":{},\"request_wait_s\":{},\"startup_s\":{},\"run_s\":{},",
            json_list(&t.handler_s),
            json_list(&t.request_wait_s),
            json_num(t.startup_s),
            json_num(t.run_s)
        );
    }
    let _ = write!(o, "\"peak_rss_kib\":{}}}", peak_rss_kib());
    o
}

/// Median wall time of `f` in milliseconds over `n` calls, after `warm`
/// untimed calls.
fn probe_ms(warm: usize, n: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..warm {
        f();
    }
    let mut xs: Vec<f64> = (0..n)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    xs.sort_by(|a, b| a.total_cmp(b));
    xs[n / 2]
}

/// Times each layer's public entry point on the workload's own shapes.
fn probe(a: &Args) -> String {
    let Task { train, test, resnet, cfg } = setup(a);
    let mut rng = Rng::seed_from_u64(a.seed);
    let net = resnet.build(&mut rng);
    let weights = net.flat_params();
    let m = a.workers;

    // Worker forward/backward, one mini-batch each.
    let mut worker = WorkerNode::new(resnet.build(&mut rng), train.len(), cfg.batch_size, a.seed);
    let mut fwd = Vec::new();
    let mut bwd = Vec::new();
    let mut grads = Vec::new();
    for i in 0..45 {
        let t0 = Instant::now();
        black_box(worker.forward_phase(&weights, &train));
        let t1 = Instant::now();
        grads = worker.backward_phase(1.0);
        if i >= 5 {
            fwd.push((t1 - t0).as_secs_f64() * 1e3);
            bwd.push(t1.elapsed().as_secs_f64() * 1e3);
        }
    }
    let median = |xs: &mut Vec<f64>| {
        xs.sort_by(|a, b| a.total_cmp(b));
        xs[xs.len() / 2]
    };

    // One epoch's evaluation: the train subset plus the whole test set.
    let n_eval = train.len().min(cfg.max_eval_train);
    let (eval_x, eval_y) = train.batch(&(0..n_eval).collect::<Vec<_>>());
    let evaluate_ms = probe_ms(1, 7, || {
        black_box(evaluate(&net, &eval_x, &eval_y, cfg.eval_batch));
        black_box(evaluate(&net, &test.inputs, &test.labels, cfg.eval_batch));
    });

    // Predictors at the workload's M, fed a plausible decaying loss stream.
    let mut loss_pred = LossPredictor::new(&mut rng);
    let mut step_pred = StepPredictor::new(m, &mut rng);
    let mut i = 0usize;
    let loss_ms = probe_ms(50, 400, || {
        i += 1;
        let loss = 2.3 / (1.0 + 0.01 * i as f32);
        black_box(loss_pred.observe_and_predict(loss, m.saturating_sub(1)));
    });
    let mut j = 0usize;
    let step_ms = probe_ms(50, 400, || {
        j += 1;
        let w = j % m;
        black_box(step_pred.observe_and_predict(w, (m - 1) as f32, 1e-3, 9e-3));
    });

    // Parameter-server apply (Formula 8) on the full flat gradient.
    let mut server = ParameterServer::new(&net, m, BnMode::Async, cfg.bn_momentum);
    let apply_ms = probe_ms(20, 500, || server.apply_grad(&grads, 1e-6));

    // Wire codec and uplink compression on the flat weights/gradient.
    let codec = if a.codec == WireCodec::F32 { WireCodec::Int8 } else { a.codec };
    let packed = PackedF32::pack(codec, &weights).expect("quantized codec packs");
    let pack_ms = probe_ms(20, 200, || {
        black_box(PackedF32::pack(codec, &weights));
    });
    let unpack_ms = probe_ms(20, 200, || {
        black_box(packed.unpack());
    });
    let compression = Compression::for_codec(codec);
    let mut residual = vec![0.0f32; grads.len()];
    let compress_ms = probe_ms(20, 200, || {
        black_box(compression.compress(&grads, Some(&mut residual)));
    });

    // Dataset generation (the bulk of set-up).
    let spec = data_spec(a.seed);
    let generate_ms = probe_ms(1, 9, || {
        black_box(spec.generate());
    });

    format!(
        "{{\"forward_ms\":{},\"backward_ms\":{},\"evaluate_ms\":{},\"loss_ms\":{},\"step_ms\":{},\
         \"apply_ms\":{},\"pack_ms\":{},\"unpack_ms\":{},\"compress_ms\":{},\"generate_ms\":{},\
         \"num_params\":{}}}",
        json_num(median(&mut fwd)),
        json_num(median(&mut bwd)),
        json_num(evaluate_ms),
        json_num(loss_ms),
        json_num(step_ms),
        json_num(apply_ms),
        json_num(pack_ms),
        json_num(unpack_ms),
        json_num(compress_ms),
        json_num(generate_ms),
        weights.len()
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lcasgd-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let line = if args.mode == "train" { train(&args) } else { probe(&args) };
    println!("{line}");
}
