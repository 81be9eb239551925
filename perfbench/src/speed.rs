//! The host's speed, measured during a run with a fixed piece of work
//! that shares no code with the program under test, and the scaling of a
//! run's timed figures to a reference speed.
//!
//! On the shared virtual machines this benchmark runs on, the host's speed
//! moves by up to 2× within a quarter of an hour, on both CPUs at once and
//! in CPU time as much as in wall time: of ten launches of `coordinate`,
//! the first four read 1774–2124 steps per second after 2.2–2.8 s
//! set-ups, the last six, minutes later, 2347–2895 after 1.6–2.4 s
//! (README, Hazards). No window inside one launch outlasts that drift, so
//! every timed end-to-end figure is divided by the slowdown the probe
//! measured in the same launch, on the same CPUs, at points where the
//! workload was idle. The program does not run the probe's code, so a
//! change to the program moves a scaled figure in the same proportion as
//! the measured one; the measured figures are printed too.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

use crate::stats::{median, Metrics};

/// The probe's time at the reference speed, in seconds: its median on
/// the machine the benchmark was sized on (a two-vCPU Intel Xeon virtual
/// machine), at a time that machine ran fast.
const REFERENCE_S: f64 = 0.0017;

/// How often the workloads sample the probe while they run.
const INTERVAL: Duration = Duration::from_secs(1);

/// Words of the pointer-chase buffer: 8 MiB, beyond a core's own caches.
const CHASE_WORDS: usize = 2 << 20;

/// Probe samples of one run.
pub struct HostSpeed {
    chase: Vec<u32>,
    keys: Vec<u64>,
    pair: (UnixStream, UnixStream),
    times: Vec<f64>,
    last: Instant,
}

impl HostSpeed {
    /// Builds the probe's inputs and takes a first sample.
    pub fn new() -> Self {
        let mut rng = XorShift(0x9E37_79B9_7F4A_7C15);
        // Sattolo's shuffle: one cycle through every word, so the chase
        // never settles into a short loop that stays in cache.
        let mut chase: Vec<u32> = (0..CHASE_WORDS as u32).collect();
        for i in (1..CHASE_WORDS).rev() {
            let j = (rng.next() % i as u64) as usize;
            chase.swap(i, j);
        }
        let pair = UnixStream::pair().expect("a socket pair");
        let mut speed = HostSpeed {
            chase,
            keys: Vec::with_capacity(KEYS),
            pair,
            times: Vec::new(),
            last: Instant::now(),
        };
        speed.sample();
        speed
    }

    /// Whether a sample is due.
    pub fn due(&self) -> bool {
        self.last.elapsed() >= INTERVAL
    }

    /// Runs the probe once; returns the time it took, which the caller
    /// leaves out of its measured window.
    pub fn sample(&mut self) -> Duration {
        let d = self.probe();
        self.times.push(d.as_secs_f64());
        self.last = Instant::now();
        d
    }

    /// Samples if one is due; returns the time spent.
    pub fn tick(&mut self) -> Duration {
        if self.due() {
            self.sample()
        } else {
            Duration::ZERO
        }
    }

    /// The median probe time over its reference time: above 1 when the
    /// host ran slower than the reference.
    fn slowdown(&self) -> f64 {
        median(&self.times) / REFERENCE_S
    }

    /// Divides every timed figure of `m` by the slowdown (multiplies a
    /// rate), after copying the measured figures to `extra` as
    /// `wall.<name>`, next to the probe's own figures.
    pub fn scale(&self, m: &mut Metrics, extra: &mut Metrics) {
        let f = self.slowdown();
        for x in &mut m.0 {
            let scaled = match x.unit {
                "s" | "us" => x.value / f,
                "1/s" => x.value * f,
                _ => continue,
            };
            extra.0.push(crate::stats::Metric {
                name: format!("wall.{}", x.name),
                ..x.clone()
            });
            x.value = scaled;
        }
        extra.put_n(
            "host.probe_ms",
            median(&self.times) * 1e3,
            "ms",
            self.times.len(),
        );
        extra.put("host.slowdown", f, "ratio");
    }

    /// Hashing, allocation and sorting within a core's caches, a chase
    /// through memory beyond them, and socket writes and reads through the
    /// kernel: the kinds of work the workloads do, in fixed amounts.
    fn probe(&mut self) -> Duration {
        let t0 = Instant::now();
        let mut rng = XorShift(0x2545_F491_4F6C_DD1D);
        self.keys.clear();
        self.keys.extend((0..KEYS).map(|_| rng.next()));
        let map: HashMap<u64, usize> = self.keys.iter().enumerate().map(|(i, &k)| (k, i)).collect();
        let mut acc = self.keys.iter().map(|k| map[k]).sum::<usize>();
        self.keys.sort_unstable();
        let mut j = 0u32;
        for _ in 0..CHASE_STEPS {
            j = self.chase[j as usize];
        }
        let mut buf = [0u8; 256];
        for _ in 0..ROUND_TRIPS {
            self.pair.0.write_all(&buf).expect("socket pair write");
            self.pair.1.read_exact(&mut buf).expect("socket pair read");
            acc += usize::from(buf[0]);
        }
        std::hint::black_box((acc, j, self.keys[0]));
        t0.elapsed()
    }
}

/// Keys hashed and sorted per probe.
const KEYS: usize = 16384;
/// Steps of the pointer chase per probe.
const CHASE_STEPS: usize = 4096;
/// Socket writes and reads per probe.
const ROUND_TRIPS: usize = 256;

/// A fixed-seed xorshift64 generator: the probe's inputs never change.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}
