//! The traced run's span recorder and the timing adapters that feed it.
//!
//! Spans are recorded from this package only, around calls into each
//! layer's public functions: the `Node` callbacks (through
//! [`TimedNode`]), the `App`/`MultiApp` polls (through [`TimedApp`] and
//! [`TimedMultiApp`]) and the datapath, worker and endpoint entry points
//! (through [`Probe::span`] at the call sites of the datapath and churn
//! workloads). Each span keeps a layer, a start, an end and the span that
//! was open when it began; all of them stay in memory until the run ends.
//!
//! The untraced runs never install a recorder and never wrap anything,
//! so the end-to-end numbers carry no tracing cost.

use std::any::Any;
use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use acdc_core::{MultiApp, MultiConnAccess};
use acdc_netsim::{Ctx, Node, PortId};
use acdc_packet::Segment;
use acdc_stats::time::Nanos;
use acdc_telemetry::Telemetry;
use acdc_workloads::{App, AppConn, FctRecorder};

/// A layer boundary a span is recorded at (`CkptRestore` is last).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// `Network::run_until`: the engine plus every callback it makes.
    EngineRun,
    /// `SwitchNode` as a `Node`: packet arrivals.
    SwitchPacket,
    /// `SwitchNode` as a `Node`: transmit starts.
    SwitchTxStart,
    /// `SwitchNode` as a `Node`: timers.
    SwitchTimer,
    /// `HostNode` as a `Node`: packet arrivals.
    HostPacket,
    /// `HostNode` as a `Node`: transmit starts.
    HostTxStart,
    /// `HostNode` as a `Node`: timers.
    HostTimer,
    /// `App::poll` and `MultiApp::poll`.
    AppPoll,
    /// `Endpoint::on_segment`, `poll_transmit` and `on_timer`.
    Endpoint,
    /// `AcdcDatapath::egress`.
    VswEgress,
    /// `AcdcDatapath::ingress`.
    VswIngress,
    /// `WorkerEngine::dispatch`.
    Dispatch,
    /// `AcdcDatapath::tick` plus `gc`.
    Maint,
    /// `AcdcDatapath::checkpoint`.
    CkptCapture,
    /// `DatapathCheckpoint::to_json`.
    CkptToJson,
    /// `DatapathCheckpoint::from_json`.
    CkptFromJson,
    /// `AcdcDatapath::restore` into a fresh datapath.
    CkptRestore,
}

impl Layer {
    /// The span name written to the span file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::EngineRun => "netsim.run_until",
            Layer::SwitchPacket => "netsim.switch.on_packet",
            Layer::SwitchTxStart => "netsim.switch.on_tx_start",
            Layer::SwitchTimer => "netsim.switch.on_timer",
            Layer::HostPacket => "core.host.on_packet",
            Layer::HostTxStart => "core.host.on_tx_start",
            Layer::HostTimer => "core.host.on_timer",
            Layer::AppPoll => "apps.poll",
            Layer::Endpoint => "tcp.endpoint",
            Layer::VswEgress => "vswitch.egress",
            Layer::VswIngress => "vswitch.ingress",
            Layer::Dispatch => "workers.dispatch",
            Layer::Maint => "vswitch.maint",
            Layer::CkptCapture => "vswitch.checkpoint.capture",
            Layer::CkptToJson => "vswitch.checkpoint.to_json",
            Layer::CkptFromJson => "vswitch.checkpoint.from_json",
            Layer::CkptRestore => "vswitch.checkpoint.restore",
        }
    }
}

/// Marks a span that began with no other span open.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span; times are nanoseconds since the recorder started.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The layer boundary.
    pub layer: Layer,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// Start, ns since the recorder started.
    pub start: u64,
    /// End, ns since the recorder started.
    pub end: u64,
}

impl Span {
    /// Wall duration in ns.
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// Everything a finished recorder holds.
pub struct Trace {
    /// Spans in start order.
    pub spans: Vec<Span>,
    /// Wall ns from start to finish.
    pub wall_ns: u64,
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

thread_local! {
    // The simulator is single-threaded, so one recorder per thread is one
    // recorder per run; the adapters reach it without threading a handle
    // through `Node`/`App` (which must stay `Send` and `'static`).
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

#[allow(clippy::disallowed_methods)] // wall-clock is the measurement here
fn now_since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// Install a fresh recorder on this thread.
#[allow(clippy::disallowed_methods)] // wall-clock is the measurement here
pub fn start(expected_spans: usize) {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            epoch: Instant::now(),
            spans: Vec::with_capacity(expected_spans),
            open: Vec::with_capacity(16),
        });
    });
}

/// Remove this thread's recorder and return what it recorded.
pub fn finish() -> Trace {
    RECORDER.with(|r| {
        let rec = r.borrow_mut().take().expect("trace::start before finish");
        assert!(rec.open.is_empty(), "a span was left open");
        Trace {
            wall_ns: now_since(rec.epoch),
            spans: rec.spans,
        }
    })
}

/// Open a span at `layer`, nested in whatever span is open. A no-op when
/// no recorder is installed.
pub fn enter(layer: Layer) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            let parent = rec.open.last().copied().unwrap_or(NO_PARENT);
            let idx = rec.spans.len() as u32;
            rec.spans.push(Span {
                layer,
                parent,
                start: now_since(rec.epoch),
                end: 0,
            });
            rec.open.push(idx);
        }
    });
}

/// Close the innermost open span.
pub fn exit() {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            let end = now_since(rec.epoch);
            let idx = rec.open.pop().expect("exit without enter");
            rec.spans[idx as usize].end = end;
        }
    });
}

/// Run `f` inside a span at `layer`.
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    enter(layer);
    let out = f();
    exit();
    out
}

/// Static choice between the traced and untraced variant of a workload
/// loop: the untraced variant compiles to the bare calls.
pub trait Probe {
    /// Run `f`, recording a span at `layer` if this probe traces.
    fn span<R>(&self, layer: Layer, f: impl FnOnce() -> R) -> R;
}

/// Records nothing.
pub struct Untraced;

impl Probe for Untraced {
    #[inline(always)]
    fn span<R>(&self, _layer: Layer, f: impl FnOnce() -> R) -> R {
        f()
    }
}

/// Records into this thread's recorder.
pub struct Traced;

impl Probe for Traced {
    #[inline]
    fn span<R>(&self, layer: Layer, f: impl FnOnce() -> R) -> R {
        span(layer, f)
    }
}

/// Per-layer totals derived from a trace.
#[derive(Debug, Clone, Default)]
pub struct LayerTotals {
    /// Spans recorded.
    pub count: u64,
    /// Sum of span durations, ns.
    pub total_ns: u64,
    /// Sum of self time (duration minus child spans), ns.
    pub self_ns: u64,
    /// Span durations, ns (kept for the layers whose tail is reported).
    pub durs: Vec<u64>,
}

/// Aggregate a trace by layer. Also returns the wall time covered by
/// top-level spans.
pub fn totals(trace: &Trace) -> (Vec<LayerTotals>, u64) {
    let mut out = vec![LayerTotals::default(); Layer::CkptRestore as usize + 1];
    let mut child_ns = vec![0u64; trace.spans.len()];
    let mut covered = 0u64;
    for s in &trace.spans {
        if s.parent == NO_PARENT {
            covered += s.dur();
        } else {
            child_ns[s.parent as usize] += s.dur();
        }
    }
    for (s, child) in trace.spans.iter().zip(&child_ns) {
        let t = &mut out[s.layer as usize];
        t.count += 1;
        t.total_ns += s.dur();
        t.self_ns += s.dur().saturating_sub(*child);
        if matches!(s.layer, Layer::VswEgress | Layer::VswIngress) {
            t.durs.push(s.dur());
        }
    }
    (out, covered)
}

/// Write every span as one tab-separated line:
/// `index parent layer start_ns end_ns` (parent `-` for top-level spans).
pub fn write_spans(path: &Path, trace: &Trace) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "# index\tparent\tlayer\tstart_ns\tend_ns")?;
    for (i, s) in trace.spans.iter().enumerate() {
        if s.parent == NO_PARENT {
            writeln!(w, "{i}\t-\t{}\t{}\t{}", s.layer.name(), s.start, s.end)?;
        } else {
            writeln!(
                w,
                "{i}\t{}\t{}\t{}\t{}",
                s.parent,
                s.layer.name(),
                s.start,
                s.end
            )?;
        }
    }
    w.flush()
}

/// A `Node` wrapped so each callback records a span. Downcasts and
/// metric registration pass through to the wrapped node, so
/// `Network::node_mut::<N>` still finds it.
pub struct TimedNode<N> {
    inner: N,
    on_packet: Layer,
    on_tx_start: Layer,
    on_timer: Layer,
}

impl<N: Node> TimedNode<N> {
    /// Wrap `inner`, recording its callbacks at the three given layers
    /// (packet, transmit start, timer).
    pub fn new(inner: N, layers: [Layer; 3]) -> TimedNode<N> {
        TimedNode {
            inner,
            on_packet: layers[0],
            on_tx_start: layers[1],
            on_timer: layers[2],
        }
    }
}

impl<N: Node> Node for TimedNode<N> {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, port: PortId, seg: Segment) {
        span(self.on_packet, || self.inner.on_packet(ctx, port, seg));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        span(self.on_timer, || self.inner.on_timer(ctx, token));
    }

    fn on_tx_start(&mut self, ctx: &mut Ctx<'_>, port: PortId, seg: &Segment) {
        span(self.on_tx_start, || self.inner.on_tx_start(ctx, port, seg));
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }

    fn register_metrics(&self, telemetry: &Telemetry, node: usize) {
        self.inner.register_metrics(telemetry, node);
    }
}

/// A per-connection `App` whose polls record spans.
pub struct TimedApp(pub Box<dyn App>);

impl App for TimedApp {
    fn poll(&mut self, now: Nanos, conn: &mut dyn AppConn) -> Option<Nanos> {
        span(Layer::AppPoll, || self.0.poll(now, conn))
    }

    fn is_done(&self) -> bool {
        self.0.is_done()
    }

    fn fct(&self) -> Option<&FctRecorder> {
        self.0.fct()
    }

    fn rtt_samples_ms(&self) -> Option<&[f64]> {
        self.0.rtt_samples_ms()
    }
}

/// A host-level `MultiApp` whose polls record spans.
pub struct TimedMultiApp(pub Box<dyn MultiApp>);

impl MultiApp for TimedMultiApp {
    fn poll(&mut self, now: Nanos, conns: &mut dyn MultiConnAccess) -> Option<Nanos> {
        span(Layer::AppPoll, || self.0.poll(now, conns))
    }

    fn fct(&self) -> Option<&FctRecorder> {
        self.0.fct()
    }
}
