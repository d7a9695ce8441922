//! Optional execution tracing with pluggable sinks.
//!
//! The figure experiments (E1–E3) print step-by-step protocol behaviour; the
//! determinism integration test asserts that two runs with the same seed
//! produce byte-identical traces. Tracing is off by default and costs one
//! branch per event when disabled.
//!
//! Two recording backends are available:
//!
//! * [`TraceSink::memory`] — unbounded in-memory buffer (tests, short
//!   figure runs);
//! * [`TraceSink::jsonl_file`] — streaming JSON-Lines file sink with a
//!   stable, hand-rolled schema (see [`event_to_jsonl`]) for offline
//!   analysis with the `obs` CLI.
//!
//! The in-memory sink is read by draining it with [`TraceSink::take`],
//! which moves the buffer out instead of cloning it.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use crate::event::Provenance;
use crate::time::Time;

/// One traced simulator event.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// A message was handed to the link layer.
    Send {
        /// Send time.
        at: Time,
        /// Sender.
        from: usize,
        /// Receiver (physical neighbor).
        to: usize,
        /// Protocol-reported message kind.
        kind: &'static str,
        /// Causal provenance of the transmitted copy.
        prov: Provenance,
    },
    /// A message arrived and was delivered to the protocol.
    Deliver {
        /// Delivery time.
        at: Time,
        /// Sender.
        from: usize,
        /// Receiver.
        to: usize,
        /// Protocol-reported message kind.
        kind: &'static str,
        /// Causal provenance (same `pid` as the matching `Send`).
        prov: Provenance,
    },
    /// A message was lost (link drop, dead endpoint, vanished link).
    Lost {
        /// Time of loss.
        at: Time,
        /// Sender.
        from: usize,
        /// Intended receiver.
        to: usize,
        /// Why it was lost.
        reason: &'static str,
        /// Causal provenance (same `pid` as the matching `Send`).
        prov: Provenance,
    },
    /// A protocol timer fired (whether or not the node was alive to
    /// handle it) — recorded so `obs causes` can resolve timer links in
    /// a causal chain.
    TimerFired {
        /// Firing time.
        at: Time,
        /// Node whose timer fired.
        node: usize,
        /// Token the node passed to `Ctx::set_timer`.
        token: u64,
        /// Causal provenance of the timer event.
        prov: Provenance,
    },
    /// A fault was applied.
    Fault {
        /// Application time.
        at: Time,
        /// Human-readable description.
        desc: String,
        /// Causal provenance (faults are lineage roots).
        prov: Provenance,
    },
    /// A structured diagnosis from an observer (e.g. the freeze watchdog
    /// or an invariant checker) — network-global, not tied to one node.
    Diag {
        /// Emission time.
        at: Time,
        /// Which observer produced the diagnosis (e.g. `"watchdog"`).
        source: &'static str,
        /// Diagnosis text.
        text: String,
    },
}

/// Serializes one event as a JSON-Lines record (no trailing newline).
///
/// The field names are a stable contract consumed by `obs trace`:
/// every record has `"ev"` (`send` / `deliver` / `lost` / `timer` /
/// `fault` / `diag`) and `"at"`; message events add `"from"`, `"to"` and
/// `"kind"` or `"reason"`; timers add `"node"` and `"token"`; faults add
/// `"desc"`; diagnoses add `"source"` and `"text"`. Simulator events
/// (everything but `diag`) also carry provenance: `"pid"`, `"parent"` (omitted for
/// lineage roots), `"depth"` and `"cause"` — the fields `obs causes`
/// walks and `obs flame` folds.
pub fn event_to_jsonl(ev: &TraceEvent) -> String {
    match ev {
        TraceEvent::Send {
            at,
            from,
            to,
            kind,
            prov,
        } => format!(
            "{{\"ev\":\"send\",\"at\":{},\"from\":{from},\"to\":{to},\"kind\":\"{kind}\"{}}}",
            at.ticks(),
            prov_fields(prov)
        ),
        TraceEvent::Deliver {
            at,
            from,
            to,
            kind,
            prov,
        } => format!(
            "{{\"ev\":\"deliver\",\"at\":{},\"from\":{from},\"to\":{to},\"kind\":\"{kind}\"{}}}",
            at.ticks(),
            prov_fields(prov)
        ),
        TraceEvent::Lost {
            at,
            from,
            to,
            reason,
            prov,
        } => format!(
            "{{\"ev\":\"lost\",\"at\":{},\"from\":{from},\"to\":{to},\"reason\":\"{reason}\"{}}}",
            at.ticks(),
            prov_fields(prov)
        ),
        TraceEvent::TimerFired {
            at,
            node,
            token,
            prov,
        } => format!(
            "{{\"ev\":\"timer\",\"at\":{},\"node\":{node},\"token\":{token}{}}}",
            at.ticks(),
            prov_fields(prov)
        ),
        TraceEvent::Fault { at, desc, prov } => format!(
            "{{\"ev\":\"fault\",\"at\":{},\"desc\":\"{}\"{}}}",
            at.ticks(),
            escape_json(desc),
            prov_fields(prov)
        ),
        TraceEvent::Diag { at, source, text } => format!(
            "{{\"ev\":\"diag\",\"at\":{},\"source\":\"{source}\",\"text\":\"{}\"}}",
            at.ticks(),
            escape_json(text)
        ),
    }
}

/// The provenance tail shared by simulator-event records: `,"pid":N`,
/// then `,"parent":M` unless the event is a lineage root, then
/// `,"depth":D,"cause":"<label>"`.
fn prov_fields(prov: &Provenance) -> String {
    let parent = match prov.parent {
        Some(id) => format!(",\"parent\":{id}"),
        None => String::new(),
    };
    format!(
        ",\"pid\":{}{parent},\"depth\":{},\"cause\":\"{}\"",
        prov.id,
        prov.depth,
        prov.cause.label()
    )
}

/// Escapes a string for inclusion in a JSON string literal.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

enum Backend {
    Memory(Vec<TraceEvent>),
    Jsonl {
        out: BufWriter<File>,
        path: PathBuf,
        written: u64,
    },
}

/// Where trace events go.
#[derive(Clone, Default)]
pub struct TraceSink {
    backend: Option<Arc<Mutex<Backend>>>,
}

impl TraceSink {
    /// A sink that discards everything (the default).
    pub fn disabled() -> Self {
        TraceSink { backend: None }
    }

    /// A sink that records into a shared, unbounded in-memory buffer.
    pub fn memory() -> Self {
        TraceSink {
            backend: Some(Arc::new(Mutex::new(Backend::Memory(Vec::new())))),
        }
    }

    /// A sink that streams events to `path` as JSON Lines, one event per
    /// line (see [`event_to_jsonl`] for the schema). Events are buffered;
    /// call [`TraceSink::flush`] (or drop the last clone) to sync.
    pub fn jsonl_file(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = File::create(&path)?;
        Ok(TraceSink {
            backend: Some(Arc::new(Mutex::new(Backend::Jsonl {
                out: BufWriter::new(file),
                path,
                written: 0,
            }))),
        })
    }

    /// `true` if events are being recorded.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.backend.is_some()
    }

    /// Records an event (no-op when disabled).
    #[inline]
    pub fn record(&self, ev: TraceEvent) {
        let Some(backend) = &self.backend else { return };
        match &mut *backend.lock().unwrap() {
            Backend::Memory(buf) => buf.push(ev),
            Backend::Jsonl { out, path, written } => {
                let line = event_to_jsonl(&ev);
                writeln!(out, "{line}")
                    .unwrap_or_else(|e| panic!("trace write to {} failed: {e}", path.display()));
                *written += 1;
            }
        }
    }

    /// Drains the buffered events, leaving the sink empty: the buffer is
    /// moved out, not cloned. The JSONL backend buffers nothing and returns
    /// an empty vec.
    pub fn take(&self) -> Vec<TraceEvent> {
        match &self.backend {
            None => Vec::new(),
            Some(backend) => match &mut *backend.lock().unwrap() {
                Backend::Memory(buf) => std::mem::take(buf),
                Backend::Jsonl { .. } => Vec::new(),
            },
        }
    }

    /// Number of recorded (JSONL: written) events currently accounted for.
    pub fn len(&self) -> usize {
        match &self.backend {
            None => 0,
            Some(backend) => match &*backend.lock().unwrap() {
                Backend::Memory(buf) => buf.len(),
                Backend::Jsonl { written, .. } => *written as usize,
            },
        }
    }

    /// `true` when no events have been recorded (or recording is off).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Flushes a JSONL backend to disk (no-op for the others).
    pub fn flush(&self) -> io::Result<()> {
        if let Some(backend) = &self.backend {
            if let Backend::Jsonl { out, .. } = &mut *backend.lock().unwrap() {
                out.flush()?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::CauseClass;

    fn prov(id: u64) -> Provenance {
        Provenance::root(id, CauseClass::Bootstrap)
    }

    #[test]
    fn disabled_sink_discards() {
        let sink = TraceSink::disabled();
        assert!(!sink.enabled());
        sink.record(TraceEvent::Diag {
            at: Time(1),
            source: "test",
            text: "x".into(),
        });
        assert!(sink.is_empty());
    }

    #[test]
    fn memory_sink_records_in_order() {
        let sink = TraceSink::memory();
        assert!(sink.enabled());
        for i in 0..3 {
            sink.record(TraceEvent::Diag {
                at: Time(i),
                source: "test",
                text: format!("{i}"),
            });
        }
        let taken = sink.take();
        assert_eq!(taken.len(), 3);
        match &taken[2] {
            TraceEvent::Diag { at, text, .. } => {
                assert_eq!(*at, Time(2));
                assert_eq!(text, "2");
            }
            _ => panic!(),
        }
    }

    #[test]
    fn clones_share_the_buffer() {
        let sink = TraceSink::memory();
        let clone = sink.clone();
        clone.record(TraceEvent::Fault {
            at: Time(0),
            desc: "crash".into(),
            prov: prov(0),
        });
        assert_eq!(sink.len(), 1);
    }

    #[test]
    fn take_drains_the_buffer() {
        let sink = TraceSink::memory();
        for i in 0..4 {
            sink.record(TraceEvent::Diag {
                at: Time(i),
                source: "test",
                text: String::new(),
            });
        }
        assert_eq!(sink.len(), 4);
        let taken = sink.take();
        assert_eq!(taken.len(), 4);
        assert!(sink.is_empty(), "take must drain");
        assert!(sink.take().is_empty());
    }

    #[test]
    fn jsonl_sink_streams_stable_lines() {
        let dir = std::env::temp_dir().join("ssr_sim_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace_test.jsonl");
        let sink = TraceSink::jsonl_file(&path).unwrap();
        sink.record(TraceEvent::Send {
            at: Time(3),
            from: 1,
            to: 2,
            kind: "notify",
            prov: Provenance {
                id: 7,
                parent: std::num::NonZeroU64::new(3),
                root: 3,
                depth: 2,
                cause: CauseClass::LinearizationStep,
            },
        });
        sink.record(TraceEvent::Diag {
            at: Time(4),
            source: "watchdog",
            text: "say \"hi\"\n".into(),
        });
        assert_eq!(sink.len(), 2);
        sink.flush().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            text,
            "{\"ev\":\"send\",\"at\":3,\"from\":1,\"to\":2,\"kind\":\"notify\",\
             \"pid\":7,\"parent\":3,\"depth\":2,\"cause\":\"linearization-step\"}\n\
             {\"ev\":\"diag\",\"at\":4,\"source\":\"watchdog\",\"text\":\"say \\\"hi\\\"\\n\"}\n"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn jsonl_schema_covers_every_variant() {
        let evs = [
            TraceEvent::Send {
                at: Time(1),
                from: 0,
                to: 1,
                kind: "k",
                prov: prov(0),
            },
            TraceEvent::Deliver {
                at: Time(2),
                from: 0,
                to: 1,
                kind: "k",
                prov: prov(0),
            },
            TraceEvent::Lost {
                at: Time(3),
                from: 0,
                to: 1,
                reason: "r",
                prov: prov(0),
            },
            TraceEvent::TimerFired {
                at: Time(4),
                node: 7,
                token: 260,
                prov: prov(1),
            },
            TraceEvent::Fault {
                at: Time(4),
                desc: "d".into(),
                prov: prov(2),
            },
            TraceEvent::Diag {
                at: Time(6),
                source: "watchdog",
                text: "frozen".into(),
            },
        ];
        let kinds: Vec<String> = evs
            .iter()
            .map(|e| {
                let line = event_to_jsonl(e);
                assert!(line.starts_with("{\"ev\":\""), "{line}");
                assert!(line.contains("\"at\":"), "{line}");
                line
            })
            .collect();
        assert!(kinds[2].contains("\"reason\":\"r\""));
        assert!(kinds[3].contains("\"ev\":\"timer\""));
        assert!(kinds[3].contains("\"token\":260"));
        assert!(kinds[4].contains("\"desc\":\"d\""));
        assert!(kinds[5].contains("\"source\":\"watchdog\""));
        assert!(kinds[5].contains("\"text\":\"frozen\""));
        // simulator events carry provenance; roots omit "parent"
        for line in &kinds[..5] {
            assert!(line.contains("\"pid\":"), "{line}");
            assert!(line.contains("\"cause\":\"bootstrap\""), "{line}");
            assert!(!line.contains("\"parent\":"), "{line}");
            assert!(line.contains("\"depth\":0"), "{line}");
        }
        // diagnoses carry none
        for line in &kinds[5..] {
            assert!(!line.contains("\"pid\":"), "{line}");
        }
    }
}
