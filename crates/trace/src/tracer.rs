//! The [`Tracer`] handle threaded through the sim, engine and net layers.

use std::sync::Arc;
use std::time::Instant;

use crate::event::{Event, Timestamp};
use crate::sink::Sink;

/// A cheap, clonable handle on an optional event sink, with the epoch of
/// its wall-clock timestamps.
///
/// The disabled tracer (the default everywhere) has no sink: emission
/// sites guard on [`Tracer::enabled`] (the [`crate::trace_event!`] macro
/// does this for you), so a disabled tracer costs one branch per site and
/// never constructs an event.
#[derive(Clone)]
pub struct Tracer {
    sink: Option<Arc<dyn Sink>>,
    epoch: Instant,
}

impl core::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.enabled())
            .finish_non_exhaustive()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::disabled()
    }
}

impl Tracer {
    /// A tracer that emits nothing (the default).
    pub fn disabled() -> Self {
        Tracer {
            sink: None,
            epoch: Instant::now(),
        }
    }

    /// A tracer emitting into `sink`.
    pub fn new(sink: Arc<dyn Sink>) -> Self {
        Tracer {
            sink: Some(sink),
            epoch: Instant::now(),
        }
    }

    /// Whether a sink is attached. Check this before building fields for
    /// [`Tracer::emit`] on hot paths.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Sends one event to the sink (no-op when disabled).
    #[inline]
    pub fn emit(&self, event: Event) {
        if let Some(sink) = &self.sink {
            sink.record(event);
        }
    }

    /// Flushes the sink, if any.
    pub fn flush(&self) {
        if let Some(sink) = &self.sink {
            sink.flush();
        }
    }

    /// Wall-clock timestamp: microseconds since this tracer was created.
    pub fn wall_now(&self) -> Timestamp {
        Timestamp::WallMicros(self.epoch.elapsed().as_micros() as u64)
    }
}

/// Emits an event through a [`Tracer`] only when it is enabled, building
/// the fields lazily behind the `enabled` check:
///
/// ```
/// use drum_trace::{trace_event, Timestamp, Tracer};
///
/// let tracer = Tracer::disabled();
/// let round = 4u64;
/// trace_event!(tracer, "engine", "round.begin", Timestamp::Round(round),
///              me = 7u64, pull = 2usize);
/// ```
#[macro_export]
macro_rules! trace_event {
    ($tracer:expr, $target:expr, $name:expr, $time:expr
     $(, $key:ident = $value:expr)* $(,)?) => {
        if $tracer.enabled() {
            $tracer.emit($crate::Event {
                target: $target,
                name: $name,
                time: $time,
                fields: vec![$($crate::Field {
                    key: stringify!($key),
                    value: $crate::Value::from($value),
                }),*],
            });
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::MemorySink;

    #[test]
    fn disabled_tracer_emits_nothing() {
        let tracer = Tracer::disabled();
        assert!(!tracer.enabled());
        trace_event!(tracer, "t", "e", Timestamp::Round(1), k = 2u64);
        tracer.emit(Event::new("t", "e", Timestamp::None));
        tracer.flush();
    }

    #[test]
    fn enabled_tracer_records_macro_events() {
        let sink = Arc::new(MemorySink::new());
        let tracer = Tracer::new(sink.clone());
        assert!(tracer.enabled());
        trace_event!(
            tracer,
            "engine",
            "round.begin",
            Timestamp::Round(3),
            me = 1u64,
            pull = 2usize
        );
        let events = sink.take();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "round.begin");
        assert_eq!(events[0].field("pull"), Some(&crate::Value::U64(2)));
    }
}
