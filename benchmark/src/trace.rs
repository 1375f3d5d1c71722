//! Spans recorded from outside the program, around the benchmark's calls
//! into it. Sums are kept for every span timed; the first [`FILE_CAP`]
//! spans of the traced windows are also kept whole and written out when the
//! run ends.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One iteration of the virtual-time loop; parent of everything below.
    Vround,
    /// `NodeCore::round_tick`.
    Tick,
    /// `NodeCore::drain_class`.
    Drain,
    /// `Epoll::wait_tagged`.
    Epoll,
    /// The benchmark injecting its flood (not stack time).
    Flood,
    /// The benchmark collecting and checking deliveries (not stack time).
    Collect,
    /// The benchmark generating and publishing payloads (not stack time).
    Publish,
}

const KINDS: usize = 7;

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Vround => "bench.vround",
            Kind::Tick => "net.runtime.tick",
            Kind::Drain => "net.runtime.drain",
            Kind::Epoll => "net.sys.epoll",
            Kind::Flood => "bench.flood_inject",
            Kind::Collect => "bench.collect",
            Kind::Publish => "bench.publish",
        }
    }

    /// The benchmark's own work: always timed, because stack time is wall
    /// time minus these.
    fn is_bench(self) -> bool {
        matches!(self, Kind::Flood | Kind::Collect | Kind::Publish)
    }
}

/// Spans kept whole for the trace file (preallocated).
const FILE_CAP: usize = 100_000;

#[derive(Debug, Clone, Copy)]
struct Span {
    kind: Kind,
    node: u16,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

const NO_PARENT: u32 = u32::MAX;

pub struct Spans {
    origin: Instant,
    /// Whether stage spans (everything but the benchmark's own work) are
    /// being recorded: the traced run turns this on for alternate windows.
    pub stages: bool,
    sums_ns: [u64; KINDS],
    kept: Vec<Span>,
    dropped: u64,
    /// The open vround: its index in `kept`, and when it started.
    parent: u32,
    vround_start_ns: u64,
}

impl Spans {
    pub fn new(keep_file: bool) -> Self {
        Spans {
            origin: Instant::now(),
            stages: false,
            sums_ns: [0; KINDS],
            kept: Vec::with_capacity(if keep_file { FILE_CAP } else { 0 }),
            dropped: 0,
            parent: NO_PARENT,
            vround_start_ns: 0,
        }
    }

    /// Total time spent in spans of `kind` so far.
    pub fn sum_ns(&self, kind: Kind) -> u64 {
        self.sums_ns[kind as usize]
    }

    /// Time that is the benchmark's, not the stack's.
    pub fn bench_ns(&self) -> u64 {
        self.sum_ns(Kind::Flood) + self.sum_ns(Kind::Collect) + self.sum_ns(Kind::Publish)
    }

    /// Runs `f` inside a span of `kind`.
    #[inline]
    pub fn time<T>(&mut self, kind: Kind, node: usize, f: impl FnOnce() -> T) -> T {
        if !self.stages && !kind.is_bench() {
            return f();
        }
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.sums_ns[kind as usize] += end_ns - start_ns;
        // The file holds traced windows only, not the warm-up before them.
        if self.stages {
            self.keep(Span {
                kind,
                node: node as u16,
                parent: self.parent,
                start_ns,
                end_ns,
            });
        }
        out
    }

    /// Opens the enclosing span of one loop iteration; the spans timed
    /// until it is closed name it as their parent.
    #[inline]
    pub fn open_vround(&mut self) {
        if self.stages {
            let start_ns = self.now_ns();
            self.parent = self.keep(Span {
                kind: Kind::Vround,
                node: 0,
                parent: NO_PARENT,
                start_ns,
                end_ns: start_ns,
            });
            self.vround_start_ns = start_ns;
        }
    }

    /// Closes it, now that the node that ticked is known.
    #[inline]
    pub fn close_vround(&mut self, node: usize) {
        if self.stages {
            let end_ns = self.now_ns();
            self.sums_ns[Kind::Vround as usize] += end_ns - self.vround_start_ns;
            if let Some(span) = self.kept.get_mut(self.parent as usize) {
                span.node = node as u16;
                span.end_ns = end_ns;
            }
            self.parent = NO_PARENT;
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Keeps `span` for the file while there is room; returns its index.
    fn keep(&mut self, span: Span) -> u32 {
        if self.kept.len() < self.kept.capacity() {
            self.kept.push(span);
            self.kept.len() as u32 - 1
        } else {
            self.dropped += u64::from(self.kept.capacity() > 0);
            NO_PARENT
        }
    }

    /// Writes the kept spans as JSON: name, start, end (ns since the first
    /// span's clock origin), parent (index into `spans`, or null), node.
    pub fn write(&self, path: &Path, workload: &str) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        write!(
            out,
            "{{\"workload\":\"{workload}\",\"not_kept\":{},\"spans\":[",
            self.dropped
        )?;
        for (i, s) in self.kept.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            write!(
                out,
                "{sep}\n{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":",
                s.kind.name(),
                s.start_ns,
                s.end_ns
            )?;
            match s.parent {
                NO_PARENT => write!(out, "null")?,
                p => write!(out, "{p}")?,
            }
            write!(out, ",\"node\":{}}}", s.node)?;
        }
        writeln!(out, "\n]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_spans_only_when_on_and_children_name_their_vround() {
        let mut s = Spans::new(true);
        s.time(Kind::Tick, 1, || ());
        s.time(Kind::Collect, 0, || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        assert!(s.bench_ns() >= 1_000_000, "bench spans are always timed");
        assert!(s.kept.is_empty(), "and kept only inside traced windows");
        s.stages = true;
        s.open_vround();
        s.time(Kind::Tick, 3, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        s.close_vround(3);
        assert_eq!(s.kept[1].parent, 0);
        assert_eq!(s.kept[0].node, 3);
        assert!(s.kept[0].end_ns >= s.kept[1].end_ns);
        assert!(s.sum_ns(Kind::Tick) >= 2_000_000);
        assert!(s.sum_ns(Kind::Vround) >= s.sum_ns(Kind::Tick));

        let path = crate::out_dir().join("spans.selftest.json");
        s.write(&path, "t").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let json = drum_metrics::json::Json::parse(&text).unwrap();
        assert_eq!(json.field_array("spans").unwrap().len(), 2);
    }
}
