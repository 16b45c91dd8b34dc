//! Closed-loop end-to-end benchmark of the generational on-the-fly
//! collector.
//!
//! ```text
//! cargo run --release --manifest-path gcbench/Cargo.toml -- \
//!     --workload young_churn|old_writes|large_index \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! One mutator thread (the main thread) runs operations through the
//! public `Gc`/`Mutator` API against the library's default generational
//! configuration, pinned to one collector thread and no collector
//! restarts; mutator and collector share one CPU.  `--trace 0` prints
//! the end-to-end metrics; `--trace 1` runs the same workload twice,
//! untraced and then traced, and prints the per-layer metrics.  The last line of standard output is the
//! result object; the line before it records the run's provenance.
//! See `README.md` beside this file.

mod probe;
mod workloads;

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use otf_gc::{CycleStats, EventKind, Gc, GcConfig, GcEvent, GcStats};
use otf_support::rand::{SeedableRng, StdRng};

use probe::Timed;
use workloads::{Check, LargeIndex, OldWrites, Workload, YoungChurn};

/// Operations between two looks at the clock.  Every run attempts whole
/// rounds.
const ROUND_OPS: u64 = 64;
/// Untimed operations before the window, so heap growth and the first
/// collections of a fresh heap fall outside it.
const WARMUP: Duration = Duration::from_millis(500);
/// Sessions per end-to-end run.  Each sets up a fresh heap and measures
/// an equal share of the run.  The end-to-end metrics are medians over
/// the sessions, so one slow stretch of a shared host does not move a
/// run's figures, except `heap_peak_mb`, which is their mean: the
/// committed heap takes one of a few sizes, depending on whether the
/// collector's growth rule fired in the window, and a mean moves by one
/// session's share where a median would jump between sizes.
const SESSIONS: usize = 16;
const MB: f64 = (1u64 << 20) as f64;

/// What distinguishes the workloads outside their code.
struct Spec {
    name: &'static str,
    /// Heap ceiling (`GcConfig::max_heap`).
    max_heap: usize,
}

/// The fixed amount of work CPU time and the per-layer counts are quoted
/// for: `cpu_s` is the CPU of all threads per `REF_OPS` operations, and a
/// count such as `heap.lab_refills` is per `REF_OPS` operations too.  A
/// window of fixed length keeps the mutator busy throughout, so its raw
/// CPU would read the same however fast the program got, and its raw
/// counts would grow with the speed of the program.
///
/// With both threads on one CPU that is busy throughout, `cpu_s` is
/// `REF_OPS / throughput_ops_s` times the share of the window the CPU
/// was busy.  It departs from throughput only when both threads wait at
/// once, so it makes no claim of its own beside `throughput_ops_s`.
const REF_OPS: f64 = 1e6;

const SPECS: [Spec; 3] = [
    Spec {
        name: "young_churn",
        max_heap: 32 << 20,
    },
    Spec {
        name: "old_writes",
        max_heap: 32 << 20,
    },
    Spec {
        name: "large_index",
        max_heap: 64 << 20,
    },
];

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// The CPU the run is pinned to.
    cpu: usize,
    /// CPUs the process could use before it pinned itself.
    nproc: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.clamp(1, 120)),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let spec = SPECS
        .iter()
        .find(|s| s.name == workload)
        .ok_or_else(|| format!("unknown workload {workload}"))?;
    Ok(Args {
        spec,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        cpu: 0,
        nproc: std::thread::available_parallelism().map_or(0, |n| n.get()),
    })
}

/// The library's default generational configuration, with the heap
/// ceiling of the workload, one collector thread, no collector restarts
/// and event tracing only in the traced run.  The `OTF_GC_*` variables
/// the constructors read are cleared in `main` before this runs.
fn config(spec: &Spec, traced: bool) -> GcConfig {
    GcConfig::generational()
        .with_max_heap(spec.max_heap)
        .with_gc_threads(1)
        .with_max_collector_restarts(0)
        .with_event_trace(traced)
}

/// A heap with its workload built, ready for operations.
struct Session<W> {
    gc: Gc,
    t: Timed,
    w: W,
    rng: StdRng,
    /// `used_bytes` of the fresh heap, before the first allocation.
    fresh_used: usize,
}

/// Counts of operations attempted and failed over a whole run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

/// What one session measured in its timed window.
struct Window {
    setup: Duration,
    /// Allocation stalls during set-up: full collections the mutator
    /// waited for before the heap could grow.
    setup_stalls: u64,
    ops: u64,
    wall: Duration,
    /// Latency of every operation in the window, in ns, sorted.
    lat_ns: Vec<u32>,
    cpu: probe::CpuUse,
    peak_committed: usize,
    peak_used: usize,
    allocs: u64,
    write_refs: u64,
    /// Mean ns per `alloc`, `write_ref`, `read_ref` and `cooperate` call
    /// (traced sessions only).
    call_ns: [f64; 4],
    before: GcStats,
    after: GcStats,
    /// The collector's event ring at the end of the window (traced
    /// sessions only).
    events: Vec<GcEvent>,
}

impl Window {
    fn throughput(&self) -> f64 {
        self.ops as f64 / self.wall.as_secs_f64()
    }
}

fn setup<W: Workload>(args: &Args, traced: bool) -> (Session<W>, Duration) {
    let t0 = Instant::now();
    let gc = Gc::new(config(args.spec, traced));
    let fresh_used = gc.used_bytes();
    let mut t = Timed::new(gc.mutator(), traced);
    let mut rng = StdRng::seed_from_u64(args.seed);
    let w = W::build(&mut t, &mut rng).unwrap_or_else(|e| {
        eprintln!("gcbench: building {} failed: {e}", args.spec.name);
        std::process::exit(1)
    });
    let took = t0.elapsed();
    let session = Session {
        gc,
        t,
        w,
        rng,
        fresh_used,
    };
    (session, took)
}

/// Runs whole rounds of operations until `dur` has passed; returns the
/// operations run.  With `lat` it records each operation's latency.
fn drive<W: Workload>(
    s: &mut Session<W>,
    dur: Duration,
    check: &mut Check,
    tally: &mut Tally,
    mut lat: Option<&mut Vec<u32>>,
    peaks: &mut (usize, usize),
) -> u64 {
    let t0 = Instant::now();
    let mut ops = 0;
    loop {
        for _ in 0..ROUND_OPS {
            let op0 = Instant::now();
            if s.w.op(&mut s.t, &mut s.rng, check).is_err() {
                tally.failed += 1;
            }
            if let Some(lat) = lat.as_deref_mut() {
                lat.push(u32::try_from(op0.elapsed().as_nanos()).unwrap_or(u32::MAX));
            }
        }
        ops += ROUND_OPS;
        tally.attempted += ROUND_OPS;
        peaks.0 = peaks.0.max(s.gc.committed_bytes());
        peaks.1 = peaks.1.max(s.gc.used_bytes());
        if t0.elapsed() >= dur {
            return ops;
        }
    }
}

/// One session: a fresh heap is set up, warmed up, measured for `dur`
/// and checked.
fn session<W: Workload>(
    args: &Args,
    traced: bool,
    dur: Duration,
    check: &mut Check,
    tally: &mut Tally,
) -> Window {
    let (mut s, setup) = setup::<W>(args, traced);
    let setup_stalls = s.gc.stats().alloc_stall.count();
    drive(&mut s, WARMUP, check, tally, None, &mut (0, 0));
    s.t.reset_histograms();
    let (allocs0, writes0) = (s.t.allocs, s.t.write_refs);
    let mut lat_ns = Vec::with_capacity(1 << 20);
    let mut peaks = (s.gc.committed_bytes(), s.gc.used_bytes());
    let before = s.gc.stats();
    let cpu0 = probe::thread_cpu();
    let t0 = Instant::now();
    let ops = drive(&mut s, dur, check, tally, Some(&mut lat_ns), &mut peaks);
    let wall = t0.elapsed();
    let cpu1 = probe::thread_cpu();
    let after = s.gc.stats();
    let events = s.gc.events();
    lat_ns.sort_unstable();
    let t = &s.t;
    let call_ns = [
        &t.alloc_ns,
        &t.write_ref_ns,
        &t.read_ref_ns,
        &t.cooperate_ns,
    ]
    .map(|h| h.mean());
    let win = Window {
        setup,
        setup_stalls,
        ops,
        wall,
        lat_ns,
        cpu: probe::cpu_between(&cpu0, &cpu1),
        peak_committed: peaks.0,
        peak_used: peaks.1,
        allocs: t.allocs - allocs0,
        write_refs: t.write_refs - writes0,
        call_ns,
        before,
        after,
        events,
    };
    finish(s, check);
    win
}

/// The end-of-session checks: every shadowed slot, the allocation count,
/// and after the roots are dropped and two full collections settle the
/// heap, used bytes back at a fresh heap's and a clean heap walk.
fn finish<W: Workload>(s: Session<W>, check: &mut Check) {
    let Session {
        mut gc,
        t,
        w,
        fresh_used,
        ..
    } = s;
    w.check_all(&t, check);
    let allocated = gc.objects_allocated();
    check.expect(allocated == t.allocs, || {
        format!(
            "collector counted {allocated} objects, the benchmark {} allocs",
            t.allocs
        )
    });
    check.expect(!gc.is_poisoned(), || "collector poisoned".into());
    drop(t);
    gc.collect_full_blocking();
    gc.collect_full_blocking();
    let used = gc.used_bytes();
    check.expect(used == fresh_used, || {
        format!("settled heap uses {used} bytes, a fresh heap {fresh_used}")
    });
    gc.stop_collector();
    let violations = gc.verify_heap();
    check.expect(violations.is_empty(), || {
        format!(
            "verify_heap: {} violations, first {:?}",
            violations.len(),
            violations[0]
        )
    });
}

/// The metrics object of the result line.
#[derive(Default)]
struct Metrics(String);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &str) {
        let value = if value.is_finite() { value } else { 0.0 };
        if !self.0.is_empty() {
            self.0.push_str(", ");
        }
        let _ = write!(
            self.0,
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn end_to_end<W: Workload>(args: &Args, check: &mut Check, tally: &mut Tally) -> Metrics {
    let host = probe::Host::measure();
    let dur = Duration::from_secs_f64(args.seconds as f64 / SESSIONS as f64);
    let wins: Vec<Window> = (0..SESSIONS)
        .map(|_| session::<W>(args, false, dur, check, tally))
        .collect();
    provenance(args, &wins, &host);
    let med = |f: &dyn Fn(&Window) -> f64| median(wins.iter().map(f).collect());
    let mut m = Metrics::default();
    m.put("setup_s", med(&|w| w.setup.as_secs_f64()), "s");
    m.put("throughput_ops_s", med(&Window::throughput), "ops/s");
    m.put(
        "op_p50_us",
        med(&|w| probe::quantile_ns(&w.lat_ns, 0.5) / 1e3),
        "us",
    );
    m.put(
        "cpu_s",
        med(&|w| w.cpu.all.as_secs_f64() * REF_OPS / w.ops as f64),
        "s",
    );
    let heap_sum: f64 = wins.iter().map(|w| w.peak_committed as f64 / MB).sum();
    m.put("heap_peak_mb", heap_sum / wins.len() as f64, "MB");
    m
}

fn per_layer<W: Workload>(args: &Args, check: &mut Check, tally: &mut Tally) -> Metrics {
    let host = probe::Host::measure();
    let dur = Duration::from_secs_f64(args.seconds as f64 / 2.0);
    let plain = session::<W>(args, false, dur, check, tally);
    let win = session::<W>(args, true, dur, check, tally);
    provenance(args, std::slice::from_ref(&win), &host);
    let mut m = Metrics::default();
    // Window totals, per `REF_OPS` operations.
    let per_ref = |x: f64| x * REF_OPS / win.ops as f64;

    let (lo, hi) = (win.before.elapsed, win.after.elapsed);
    let mut acks: Vec<u32> = win
        .events
        .iter()
        .filter(|e| e.kind == EventKind::HandshakeAck)
        .filter(|e| (lo..hi).contains(&Duration::from_nanos(e.t_ns)))
        .map(|e| u32::try_from(e.b).unwrap_or(u32::MAX))
        .collect();
    acks.sort_unstable();
    let stall_sum_ms = |st: &GcStats| st.alloc_stall.mean() * st.alloc_stall.count() as f64 / 1e6;

    let [alloc_ns, write_ref_ns, read_ref_ns, cooperate_ns] = win.call_ns;
    m.put("mutator.alloc_ns", alloc_ns, "ns");
    m.put("mutator.write_ref_ns", write_ref_ns, "ns");
    m.put("mutator.read_ref_ns", read_ref_ns, "ns");
    m.put("mutator.cooperate_ns", cooperate_ns, "ns");
    m.put(
        "mutator.alloc_calls",
        per_ref(win.allocs as f64),
        "count/Mop",
    );
    m.put(
        "mutator.write_ref_calls",
        per_ref(win.write_refs as f64),
        "count/Mop",
    );
    m.put(
        "mutator.barrier_slow_hits",
        per_ref((win.after.barrier_slow_hits - win.before.barrier_slow_hits) as f64),
        "count/Mop",
    );
    m.put(
        "mutator.alloc_stalls",
        per_ref((win.after.alloc_stall.count() - win.before.alloc_stall.count()) as f64),
        "count/Mop",
    );
    m.put(
        "mutator.alloc_stall_ms",
        per_ref(stall_sum_ms(&win.after) - stall_sum_ms(&win.before)),
        "ms/Mop",
    );
    m.put(
        "mutator.handshake_p99_us",
        probe::quantile_ns(&acks, 0.99) / 1e3,
        "us",
    );
    m.put(
        "mutator.thread_cpu_s",
        per_ref(win.cpu.main.as_secs_f64()),
        "s/Mop",
    );
    m.put(
        "mutator.op_p99_us",
        probe::quantile_ns(&win.lat_ns, 0.99) / 1e3,
        "us",
    );
    m.put(
        "mutator.op_p999_us",
        probe::quantile_ns(&win.lat_ns, 0.999) / 1e3,
        "us",
    );

    let refill = &win.after.lab_refill;
    m.put(
        "heap.lab_refills",
        per_ref((refill.count() - win.before.lab_refill.count()) as f64),
        "count/Mop",
    );
    m.put(
        "heap.lab_refill_p50_us",
        refill.quantile(0.5) as f64 / 1e3,
        "us",
    );
    m.put(
        "heap.lab_refill_p99_us",
        refill.quantile(0.99) as f64 / 1e3,
        "us",
    );
    m.put("heap.used_peak_mb", win.peak_used as f64 / MB, "MB");

    let cycles = &win.after.cycles[win.before.cycles.len()..];
    let sum = |f: &dyn Fn(&CycleStats) -> f64| cycles.iter().map(f).sum::<f64>();
    let secs = |f: fn(&CycleStats) -> Duration| sum(&|c| f(c).as_secs_f64());
    let count = |f: fn(&CycleStats) -> u64| sum(&|c| f(c) as f64);
    let (partials, fulls): (Vec<_>, Vec<_>) = cycles
        .iter()
        .partition(|c| c.kind == otf_gc::CycleKind::Partial);
    let mean_ms = |v: &[&CycleStats]| {
        let total: f64 = v.iter().map(|c| c.duration.as_secs_f64() * 1e3).sum();
        if v.is_empty() {
            0.0
        } else {
            total / v.len() as f64
        }
    };
    m.put(
        "collector.partial_cycles",
        per_ref(partials.len() as f64),
        "count/Mop",
    );
    m.put(
        "collector.full_cycles",
        per_ref(fulls.len() as f64),
        "count/Mop",
    );
    m.put("collector.partial_ms", mean_ms(&partials), "ms");
    m.put("collector.full_ms", mean_ms(&fulls), "ms");
    m.put("collector.active_s", per_ref(secs(|c| c.duration)), "s/Mop");
    m.put(
        "collector.handshake_s",
        per_ref(secs(|c| c.phases.handshakes)),
        "s/Mop",
    );
    m.put(
        "collector.thread_cpu_s",
        per_ref(win.cpu.collector.as_secs_f64()),
        "s/Mop",
    );
    m.put(
        "collector.dropped_events",
        per_ref((win.after.dropped_events - win.before.dropped_events) as f64),
        "count/Mop",
    );

    m.put("cards.scan_s", per_ref(secs(|c| c.phases.cards)), "s/Mop");
    m.put(
        "cards.dirty",
        per_ref(count(|c| c.dirty_cards)),
        "count/Mop",
    );
    m.put(
        "cards.intergen_objects",
        per_ref(count(|c| c.intergen_objects)),
        "count/Mop",
    );

    let mark_s = secs(|c| c.phases.trace);
    let traced = count(|c| c.objects_traced);
    m.put("trace.roots_s", per_ref(secs(|c| c.phases.roots)), "s/Mop");
    m.put("trace.mark_s", per_ref(mark_s), "s/Mop");
    m.put("trace.objects", per_ref(traced), "count/Mop");
    m.put("trace.objects_per_ms", traced / (mark_s * 1e3), "1/ms");

    m.put("sweep.sweep_s", per_ref(secs(|c| c.phases.sweep)), "s/Mop");
    m.put(
        "sweep.bytes_freed",
        per_ref(count(|c| c.bytes_freed)),
        "B/Mop",
    );
    m.put(
        "sweep.pages_touched",
        per_ref(count(|c| c.pages_touched)),
        "count/Mop",
    );

    // The generational signature of the workload, from the untraced
    // session, in the terms of the paper's Figures 10-12.
    let sig = signature(&plain);
    m.put("signature.gc_active_pct", sig.gc_active_pct, "%");
    m.put("signature.gc_cpu_pct", sig.gc_cpu_pct, "%");
    m.put("signature.partial_freed_pct", sig.partial_freed_pct, "%");
    m.put("signature.full_freed_pct", sig.full_freed_pct, "%");
    m.put(
        "signature.intergen_per_partial",
        sig.intergen_per_partial,
        "count",
    );

    m.put("host.spin_ms", host.spin_ms, "ms");
    m.put("host.mem_ns", host.mem_ns, "ns");
    m.put(
        "bench.traced_throughput_ratio",
        win.throughput() / plain.throughput(),
        "ratio",
    );
    m.put("bench.timer_ns", probe::timer_ns(), "ns");
    m
}

/// A window's generational signature, as the paper's Figures 10-12 give
/// it for each program.
struct Signature {
    /// Share of the window's wall time a collection cycle was running
    /// (Figure 10, "% time GC active").
    gc_active_pct: f64,
    /// Share of the window's CPU, over all threads, that the collector
    /// thread used.  With both threads on one CPU a cycle's wall time
    /// includes the mutator's turns, so this is the collector's cost.
    gc_cpu_pct: f64,
    /// Mean share of the objects a partial cycle found that it freed
    /// (Figure 12, "% objs freed partial").
    partial_freed_pct: f64,
    /// The same over full cycles (Figure 12, "% objs freed full"); 0
    /// when the window holds no full cycle.
    full_freed_pct: f64,
    /// Mean old objects scanned as inter-generational per partial cycle
    /// (Figure 11, "Avg old objs scanned").
    intergen_per_partial: f64,
}

fn signature(win: &Window) -> Signature {
    let cycles = &win.after.cycles[win.before.cycles.len()..];
    let mean = |kind: otf_gc::CycleKind, f: &dyn Fn(&CycleStats) -> f64| {
        let v: Vec<f64> = cycles.iter().filter(|c| c.kind == kind).map(f).collect();
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    let active: f64 = cycles.iter().map(|c| c.duration.as_secs_f64()).sum();
    Signature {
        gc_active_pct: 100.0 * active / win.wall.as_secs_f64(),
        gc_cpu_pct: 100.0 * win.cpu.collector.as_secs_f64() / win.cpu.all.as_secs_f64(),
        partial_freed_pct: mean(otf_gc::CycleKind::Partial, &|c| c.percent_objects_freed()),
        full_freed_pct: mean(otf_gc::CycleKind::Full, &|c| c.percent_objects_freed()),
        intergen_per_partial: mean(otf_gc::CycleKind::Partial, &|c| c.intergen_objects as f64),
    }
}

/// Prints the run's provenance line: where and how it ran, and what each
/// session measured.
fn provenance(args: &Args, wins: &[Window], host: &probe::Host) {
    let cfg = config(args.spec, args.trace);
    let list = |f: &dyn Fn(&Window) -> String| wins.iter().map(f).collect::<Vec<_>>().join(", ");
    println!(
        "{{\"provenance\": {{\"git_rev\": \"{}\", \"nproc\": {}, \"pinned_cpu\": {}, \
         \"workload\": \"{}\", \
         \"seed\": {}, \"run_seconds\": {}, \"traced\": {}, \"ref_ops\": {REF_OPS}, \
         \"host_spin_ms\": {:?}, \"host_mem_ns\": {:?}, \"plan_name\": \"{}\", \"config\": \"{:?}\", \
         \"session_ops\": [{}], \"session_window_s\": [{}], \"session_setup_s\": [{}], \
         \"session_throughput\": [{}], \"session_p50_us\": [{}], \"session_cpu_s\": [{}], \
         \"session_heap_mb\": [{}], \"session_cpu_per_wall\": [{}], \
         \"session_setup_stalls\": [{}]}}}}",
        probe::git_rev(),
        args.nproc,
        args.cpu,
        args.spec.name,
        args.seed,
        args.seconds,
        args.trace,
        host.spin_ms,
        host.mem_ns,
        cfg.plan_name(),
        cfg,
        list(&|w| w.ops.to_string()),
        list(&|w| format!("{:?}", w.wall.as_secs_f64())),
        list(&|w| format!("{:?}", w.setup.as_secs_f64())),
        list(&|w| format!("{:?}", w.throughput())),
        list(&|w| format!("{:?}", probe::quantile_ns(&w.lat_ns, 0.5) / 1e3)),
        list(&|w| format!("{:?}", w.cpu.all.as_secs_f64() * REF_OPS / w.ops as f64)),
        list(&|w| format!("{:?}", w.peak_committed as f64 / MB)),
        list(&|w| format!("{:?}", w.cpu.all.as_secs_f64() / w.wall.as_secs_f64())),
        list(&|w| w.setup_stalls.to_string()),
    );
}

fn run<W: Workload>(args: &Args) {
    let mut check = Check::default();
    let mut tally = Tally::default();
    let metrics = if args.trace {
        per_layer::<W>(args, &mut check, &mut tally)
    } else {
        end_to_end::<W>(args, &mut check, &mut tally)
    };
    for what in &check.first {
        eprintln!("gcbench: MISMATCH {what}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        check.mismatches == 0,
        tally.attempted,
        tally.failed,
        metrics.0
    );
}

fn main() {
    // The configuration is built explicitly: nothing in the environment
    // may change it (the constructors read `OTF_GC_*` as defaults, and
    // `OTF_GC_TRACE` would also write a file at shutdown).  Cleared
    // before any other thread exists.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("OTF_GC_") {
            std::env::remove_var(key);
        }
    }
    let mut args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gcbench: {e}");
            std::process::exit(2);
        }
    };
    if config(args.spec, false).plan_name() != "gen-eager" {
        eprintln!("gcbench: the default configuration is not the gen-eager plan");
        std::process::exit(2);
    }
    // One processor for the mutator and the collector: the paper's
    // elapsed-time measure.  With the two threads on two vCPUs of a
    // shared host, the sessions of one young_churn run scattered about
    // ±30% in throughput, against about ±6% on one (see README.md).
    args.cpu = probe::pin_to_one_cpu().unwrap_or_else(|e| {
        eprintln!("gcbench: cannot pin to one CPU: {e}");
        std::process::exit(2)
    });
    match args.spec.name {
        "young_churn" => run::<YoungChurn>(&args),
        "old_writes" => run::<OldWrites>(&args),
        _ => run::<LargeIndex>(&args),
    }
}
