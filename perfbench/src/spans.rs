//! Span recording for the traced run: an `omnisim-obs` [`Tracer`] that
//! keeps every trace, a hook that collects the finished spans in memory,
//! per-name self times, and a Chrome-trace export written when the run
//! ends.

use omnisim_obs::to_chrome_trace;
use omnisim_obs::trace::{SpanRecord, TraceConfig, Tracer};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Duration;

pub struct SpanLog {
    pub tracer: Tracer,
    spans: Arc<Mutex<Vec<SpanRecord>>>,
}

impl SpanLog {
    pub fn new() -> SpanLog {
        let tracer = Tracer::new(TraceConfig {
            // Every trace is kept and handed to the hook; the tracer's own
            // ring and kept buffers only need to be non-empty.
            ring_capacity: 64,
            keep_capacity: 1,
            max_spans_per_trace: 64,
            max_pending_traces: 4,
            sample_ratio: 1.0,
            slow_threshold: Duration::ZERO,
        });
        let spans = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&spans);
        tracer.set_keep_hook(move |trace| {
            sink.lock()
                .expect("span sink poisoned")
                .extend(trace.spans.iter().cloned());
        });
        SpanLog { tracer, spans }
    }

    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans.lock().expect("span sink poisoned").clone()
    }

    /// Total self time per span name, in seconds: each span's duration
    /// minus the durations of its direct children. The benchmark's spans
    /// nest sequentially on one thread, so children never overlap.
    pub fn self_seconds(&self) -> BTreeMap<String, f64> {
        let spans = self.spans();
        let mut child_nanos: HashMap<u64, u64> = HashMap::new();
        for span in &spans {
            if let Some(parent) = span.parent {
                *child_nanos.entry(parent.raw()).or_default() += span.duration_nanos();
            }
        }
        let mut out: BTreeMap<String, f64> = BTreeMap::new();
        for span in &spans {
            let children = child_nanos.get(&span.span_id.raw()).copied().unwrap_or(0);
            let own = span.duration_nanos().saturating_sub(children);
            *out.entry(span.name.to_string()).or_default() += own as f64 * 1e-9;
        }
        out
    }

    /// Total duration per span name, in seconds.
    pub fn total_seconds(&self, name: &str) -> f64 {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_nanos() as f64 * 1e-9)
            .sum()
    }

    /// Writes every recorded span as Chrome trace-event JSON (viewable in
    /// Perfetto).
    pub fn export(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, to_chrome_trace(&self.spans()))
    }
}
