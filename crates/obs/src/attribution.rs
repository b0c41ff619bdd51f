//! Roofline bottleneck attribution.
//!
//! [`Attribution::classify`] tiles a run's modeled time `[0, total)` into
//! fixed-width windows and labels each one with the resource that bound
//! it, generalizing the paper's Fig. 14 phase totals to "which resource
//! bound the run, *when*". Windows are built contiguously — each window's
//! start is the previous window's end and the last end is exactly
//! `total` — so coverage of modeled time is 100% by construction.
//!
//! Classification of a window `[a, b)`:
//!
//! 1. Overlap-weight the profile's phase intervals against the window:
//!    `Compute` time counts toward compute, `Dma` toward bandwidth, and
//!    `Plan`/`Encode`/`Verify`/`Flush`/`Drain` toward overhead.
//! 2. If DRAM timelines place enough traffic in the window that achieved
//!    bandwidth exceeds [`BANDWIDTH_SATURATION`] of the roofline peak,
//!    the window is bandwidth-bound outright.
//! 3. Otherwise the largest of the three occupancy buckets wins
//!    (bandwidth > compute > overhead on ties).
//! 4. A window whose occupancy is below [`IDLE_OCCUPANCY`] of its width
//!    is idle.

use mealib_types::{BytesPerSec, Seconds};

use crate::json::{array, Object};
use crate::profile::Profile;
use crate::Phase;

/// A window is bandwidth-bound outright when achieved DRAM bandwidth
/// exceeds this fraction of the roofline peak.
pub const BANDWIDTH_SATURATION: f64 = 0.5;

/// A window is idle when phase intervals occupy less than this fraction
/// of it.
pub const IDLE_OCCUPANCY: f64 = 0.05;

/// The resource that bound one window of modeled time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Bound {
    /// Memory traffic dominated (DMA/streaming phases, or achieved
    /// bandwidth near the roofline peak).
    Bandwidth,
    /// PE/host arithmetic dominated.
    Compute,
    /// Control phases dominated: plan, verify, flush, drain.
    Overhead,
    /// Nothing was modeled as running.
    Idle,
}

impl Bound {
    /// All variants, in display order.
    pub const ALL: [Bound; 4] = [
        Bound::Bandwidth,
        Bound::Compute,
        Bound::Overhead,
        Bound::Idle,
    ];

    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Bound::Bandwidth => "bandwidth",
            Bound::Compute => "compute",
            Bound::Overhead => "overhead",
            Bound::Idle => "idle",
        }
    }
}

/// The platform roofline a run is classified against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Roofline {
    /// Peak memory bandwidth.
    pub peak_bandwidth: BytesPerSec,
    /// Peak arithmetic throughput, FLOP/s.
    pub peak_flops: f64,
}

impl Roofline {
    /// Builds a roofline from its two peaks.
    pub fn new(peak_bandwidth: BytesPerSec, peak_flops: f64) -> Self {
        Self {
            peak_bandwidth,
            peak_flops,
        }
    }

    /// Arithmetic intensity (FLOP/byte) at the ridge point.
    pub fn ridge_intensity(&self) -> f64 {
        if self.peak_bandwidth.get() > 0.0 {
            self.peak_flops / self.peak_bandwidth.get()
        } else {
            f64::INFINITY
        }
    }
}

/// One classified window of modeled time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundWindow {
    /// Window start, modeled seconds.
    pub start: Seconds,
    /// Window end, modeled seconds.
    pub end: Seconds,
    /// The winning resource.
    pub bound: Bound,
    /// Achieved DRAM bandwidth in the window as a fraction of the
    /// roofline peak (0 when no timeline covers the window).
    pub bandwidth_utilization: f64,
}

impl BoundWindow {
    /// Window duration.
    pub fn duration(&self) -> Seconds {
        Seconds::new(self.end.get() - self.start.get())
    }
}

/// A per-run bottleneck attribution: every window of modeled time,
/// classified.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Attribution {
    /// Classified windows, contiguous and ascending; empty only for a
    /// zero-length run.
    pub windows: Vec<BoundWindow>,
    /// Total modeled time covered.
    pub total: Seconds,
}

impl Attribution {
    /// Classifies `profile` against `roofline` using windows of width
    /// `window` (clamped to at least `total / 4096` to bound the window
    /// count; a non-positive `window` yields a single window).
    pub fn classify(profile: &Profile, roofline: &Roofline, window: Seconds) -> Attribution {
        let total = profile.end_time();
        if total.get() <= 0.0 {
            return Attribution {
                windows: Vec::new(),
                total: Seconds::new(0.0),
            };
        }
        let width = if window.get() > 0.0 {
            window.get().max(total.get() / 4096.0)
        } else {
            total.get()
        };

        let mut windows = Vec::new();
        let mut start = 0.0f64;
        while start < total.get() {
            let end = (start + width).min(total.get());
            windows.push(Self::classify_window(profile, roofline, start, end));
            start = end;
        }
        // Contiguity is structural (each start is the previous end), and
        // the loop's exit condition pins the last end to `total`.
        if let Some(last) = windows.last_mut() {
            last.end = total;
        }
        Attribution { windows, total }
    }

    fn classify_window(profile: &Profile, roofline: &Roofline, a: f64, b: f64) -> BoundWindow {
        let overlap = |s: f64, e: f64| -> f64 { (e.min(b) - s.max(a)).max(0.0) };

        let (mut bw_t, mut compute_t, mut overhead_t) = (0.0f64, 0.0f64, 0.0f64);
        for iv in &profile.intervals {
            let t = overlap(iv.start.get(), iv.end.get());
            if t <= 0.0 {
                continue;
            }
            match iv.phase {
                Phase::Dma => bw_t += t,
                Phase::Compute => compute_t += t,
                Phase::Plan | Phase::Verify | Phase::Flush | Phase::Drain => {
                    overhead_t += t;
                }
            }
        }

        // Pro-rate windowed DRAM traffic into [a, b) by interval overlap.
        let mut bytes = 0.0f64;
        for tl in &profile.timelines {
            let wdur = tl.window_duration().get();
            if wdur <= 0.0 {
                continue;
            }
            for (w, _, c) in tl.timeline.iter() {
                let ws = tl.window_start(w).get();
                let frac = overlap(ws, ws + wdur) / wdur;
                if frac > 0.0 {
                    bytes += frac * c.bytes_moved() as f64;
                }
            }
        }
        let width = b - a;
        let peak = roofline.peak_bandwidth.get();
        let bw_util = if peak > 0.0 && width > 0.0 {
            bytes / (peak * width)
        } else {
            0.0
        };

        let busy = bw_t + compute_t + overhead_t;
        let bound = if busy < IDLE_OCCUPANCY * width && bw_util < IDLE_OCCUPANCY {
            Bound::Idle
        } else if bw_util >= BANDWIDTH_SATURATION || (bw_t >= compute_t && bw_t >= overhead_t) {
            Bound::Bandwidth
        } else if compute_t >= overhead_t {
            Bound::Compute
        } else {
            Bound::Overhead
        };

        BoundWindow {
            start: Seconds::new(a),
            end: Seconds::new(b),
            bound,
            bandwidth_utilization: bw_util,
        }
    }

    /// Fraction of modeled time attributed to `bound`.
    pub fn share(&self, bound: Bound) -> f64 {
        if self.total.get() <= 0.0 {
            return 0.0;
        }
        let t: f64 = self
            .windows
            .iter()
            .filter(|w| w.bound == bound)
            .map(|w| w.duration().get())
            .sum();
        t / self.total.get()
    }

    /// The bound with the largest time share (`Idle` for an empty run).
    pub fn dominant(&self) -> Bound {
        Bound::ALL
            .into_iter()
            .max_by(|x, y| {
                self.share(*x)
                    .partial_cmp(&self.share(*y))
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .unwrap_or(Bound::Idle)
    }

    /// Fraction of `[0, total)` covered by windows. Windows are
    /// contiguous from zero, so this is exactly 1.0 for any nonzero run
    /// (and 1.0 by convention for a zero-length run).
    pub fn coverage(&self) -> f64 {
        if self.total.get() <= 0.0 {
            return 1.0;
        }
        match (self.windows.first(), self.windows.last()) {
            (Some(first), Some(last)) => (last.end.get() - first.start.get()) / self.total.get(),
            _ => 0.0,
        }
    }

    /// Renders the attribution summary as a JSON object.
    pub fn to_json(&self) -> String {
        let mut shares = Object::new();
        for b in Bound::ALL {
            shares.num(b.name(), self.share(b));
        }
        let windows: Vec<String> = self
            .windows
            .iter()
            .map(|w| {
                let mut o = Object::new();
                o.num("start_s", w.start.get());
                o.num("end_s", w.end.get());
                o.str("bound", w.bound.name());
                o.num("bw_util", w.bandwidth_utilization);
                o.render()
            })
            .collect();
        let mut o = Object::new();
        o.num("total_s", self.total.get());
        o.str("dominant", self.dominant().name());
        o.raw("shares", shares.render());
        o.raw("windows", array(&windows));
        o.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::{Timeline, WindowCounters};

    fn roofline() -> Roofline {
        // 25.6 GB/s, 112 GFLOP/s: the paper's Haswell host.
        Roofline::new(BytesPerSec::new(25.6e9), 112e9)
    }

    fn s(x: f64) -> Seconds {
        Seconds::new(x)
    }

    #[test]
    fn empty_profile_has_full_coverage_by_convention() {
        let a = Attribution::classify(&Profile::new(), &roofline(), s(1e-6));
        assert!(a.windows.is_empty());
        assert_eq!(a.coverage(), 1.0);
        assert_eq!(a.dominant(), Bound::Idle);
    }

    #[test]
    fn windows_tile_modeled_time_exactly() {
        let mut p = Profile::new();
        p.interval("t", Phase::Compute, "c", s(0.0), s(10e-6));
        // A window width that does not divide the total.
        let a = Attribution::classify(&p, &roofline(), s(3e-6));
        assert_eq!(a.windows.len(), 4);
        assert_eq!(a.coverage(), 1.0);
        assert_eq!(a.windows[0].start.get(), 0.0);
        assert_eq!(a.windows.last().unwrap().end.get(), a.total.get());
        for pair in a.windows.windows(2) {
            assert_eq!(pair[0].end, pair[1].start, "windows must be contiguous");
        }
        assert_eq!(a.dominant(), Bound::Compute);
        assert!((a.share(Bound::Compute) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn phase_mix_classifies_per_window() {
        let mut p = Profile::new();
        let c = p.interval("t", Phase::Dma, "stream", s(0.0), s(4e-6));
        let c = p.interval("t", Phase::Compute, "fft", c, s(4e-6));
        p.interval("t", Phase::Flush, "flush", c, s(4e-6));
        let a = Attribution::classify(&p, &roofline(), s(4e-6));
        let bounds: Vec<Bound> = a.windows.iter().map(|w| w.bound).collect();
        assert_eq!(
            bounds,
            vec![Bound::Bandwidth, Bound::Compute, Bound::Overhead]
        );
    }

    #[test]
    fn saturated_traffic_promotes_to_bandwidth_bound() {
        let mut p = Profile::new();
        // Nominally compute-labeled, but the timeline shows the DRAM
        // pinned at ~78% of the 25.6 GB/s peak.
        p.interval("t", Phase::Compute, "c", s(0.0), s(1e-6));
        let mut tl = Timeline::new(1000);
        tl.record(
            500,
            0,
            &WindowCounters {
                bytes_read: 20_000,
                ..WindowCounters::default()
            },
        );
        p.push_timeline("dram", tl, Seconds::from_nanos(1.0), s(0.0));
        let a = Attribution::classify(&p, &roofline(), s(1e-6));
        assert_eq!(a.windows[0].bound, Bound::Bandwidth);
        assert!(a.windows[0].bandwidth_utilization > BANDWIDTH_SATURATION);
    }

    #[test]
    fn gaps_between_intervals_are_idle() {
        let mut p = Profile::new();
        p.interval("t", Phase::Compute, "c", s(0.0), s(1e-6));
        p.intervals.push(crate::profile::IntervalEvent {
            track: "t".into(),
            phase: Phase::Compute,
            label: "late".into(),
            start: s(9e-6),
            end: s(10e-6),
        });
        let a = Attribution::classify(&p, &roofline(), s(1e-6));
        assert_eq!(a.windows.len(), 10);
        assert_eq!(a.windows[5].bound, Bound::Idle);
        assert!(a.share(Bound::Idle) > 0.7);
    }

    #[test]
    fn json_summary_parses() {
        let mut p = Profile::new();
        p.interval("t", Phase::Dma, "d", s(0.0), s(2e-6));
        let a = Attribution::classify(&p, &roofline(), s(1e-6));
        let v = crate::json::parse(&a.to_json()).expect("valid JSON");
        let o = v.as_object().expect("object");
        assert_eq!(o["dominant"].as_str(), Some("bandwidth"));
        assert_eq!(o["windows"].as_array().unwrap().len(), 2);
    }
}
