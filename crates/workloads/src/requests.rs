//! Open-loop request workloads: diurnal rate curves × Poisson/burst
//! arrivals × heavy-tailed service demands.
//!
//! This is the production-serving workload family of ROADMAP item 2: a
//! [`RequestWorkload`] is a seeded, deterministic arrival process that
//! implements [`WorkloadSource`], so a session (or a fleet cohort) can run
//! it exactly like a batch program — except the machine is built in serve
//! mode and work arrives continuously instead of being fixed up front.
//!
//! The generator composes three classical ingredients:
//!
//! * a **diurnal rate curve** — a raised-cosine day between `base_rps`
//!   (midnight trough at `t = 0`) and `peak_rps` (midday), cyclic in the
//!   configured day length so multi-day runs repeat the pattern;
//! * **burst windows** — multiplicative rate spikes (the `serve`
//!   experiment's lunchtime burst) layered on the curve;
//! * **heavy-tailed service demands** — bounded-Pareto instruction counts
//!   (shape `alpha`, scale `mean_instructions`, cap `tail_cap × xmin`),
//!   the textbook model for web-request service times.
//!
//! Arrivals are drawn by *thinning*: candidate gaps are exponential at the
//! envelope rate, `peak_rps` times the largest product of overlapping
//! burst multipliers, and accepted with probability `rate(t) / envelope`,
//! which samples the nonhomogeneous Poisson process exactly. Everything
//! flows from one [`NoiseSource`], so the stream is a pure function of the
//! seed and the window sequence — byte-identical across runs and pool
//! widths.

use aapm_platform::config::MachineConfig;
use aapm_platform::error::{PlatformError, Result};
use aapm_platform::machine::Machine;
use aapm_platform::noise::NoiseSource;
use aapm_platform::phase::PhaseDescriptor;
use aapm_platform::requests::Request;
use aapm_platform::units::Seconds;
use aapm_platform::workload::WorkloadSource;

/// A multiplicative rate spike over `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Burst {
    /// Spike start (simulated seconds).
    pub start: Seconds,
    /// Spike end (exclusive).
    pub end: Seconds,
    /// Rate multiplier (≥ 1 for a spike; < 1 models a partial outage).
    pub multiplier: f64,
}

/// Configuration for a [`RequestWorkload`]. Construct with
/// [`RequestWorkload::builder`].
#[derive(Debug, Clone)]
pub struct RequestWorkloadBuilder {
    name: String,
    seed: u64,
    day: Seconds,
    base_rps: f64,
    peak_rps: f64,
    bursts: Vec<Burst>,
    mean_instructions: f64,
    tail_alpha: f64,
    tail_cap: f64,
    service: Option<PhaseDescriptor>,
}

impl RequestWorkloadBuilder {
    /// Seed for the arrival/demand stream (default 0).
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.seed = seed;
        self
    }

    /// Length of one diurnal cycle (default 86.4 s — a 1000× compressed
    /// day, so a full day simulates in minutes of machine time).
    pub fn day(&mut self, day: Seconds) -> &mut Self {
        self.day = day;
        self
    }

    /// Trough and peak arrival rates in requests per second (defaults
    /// 40 / 160).
    pub fn rates(&mut self, base_rps: f64, peak_rps: f64) -> &mut Self {
        self.base_rps = base_rps;
        self.peak_rps = peak_rps;
        self
    }

    /// Adds a burst window on top of the diurnal curve.
    pub fn burst(&mut self, start: Seconds, end: Seconds, multiplier: f64) -> &mut Self {
        self.bursts.push(Burst { start, end, multiplier });
        self
    }

    /// Service-demand distribution: mean instructions per request, Pareto
    /// tail shape, and the tail cap as a multiple of the minimum demand
    /// (defaults 2e6 instructions, α = 1.5, cap 50×).
    pub fn demand(&mut self, mean_instructions: f64, alpha: f64, cap: f64) -> &mut Self {
        self.mean_instructions = mean_instructions;
        self.tail_alpha = alpha;
        self.tail_cap = cap;
        self
    }

    /// Overrides the per-request instruction mix (default: a web-serving
    /// blend — moderate CPI, some memory traffic, branchy).
    pub fn service(&mut self, service: PhaseDescriptor) -> &mut Self {
        self.service = Some(service);
        self
    }

    /// Validates and builds the workload.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::InvalidConfig`] for non-finite or
    /// non-positive rates/day/demand parameters, `peak < base`, or burst
    /// windows with `end <= start` or a non-positive multiplier.
    pub fn build(&self) -> Result<RequestWorkload> {
        let invalid = |parameter: &'static str, reason: String| PlatformError::InvalidConfig {
            parameter,
            reason,
        };
        if !(self.day.seconds().is_finite() && self.day.is_positive()) {
            return Err(invalid("day", format!("day length {} must be positive", self.day)));
        }
        if !(self.base_rps.is_finite() && self.base_rps > 0.0) {
            return Err(invalid("base_rps", format!("base rate {} must be positive", self.base_rps)));
        }
        if !(self.peak_rps.is_finite() && self.peak_rps >= self.base_rps) {
            return Err(invalid(
                "peak_rps",
                format!("peak rate {} must be ≥ base rate {}", self.peak_rps, self.base_rps),
            ));
        }
        for b in &self.bursts {
            if !(b.start.seconds().is_finite() && b.end.seconds().is_finite() && b.end > b.start) {
                return Err(invalid(
                    "bursts",
                    format!("burst window [{}, {}) must be non-empty", b.start, b.end),
                ));
            }
            if !(b.multiplier.is_finite() && b.multiplier > 0.0) {
                return Err(invalid(
                    "bursts",
                    format!("burst multiplier {} must be positive", b.multiplier),
                ));
            }
        }
        if !(self.mean_instructions.is_finite() && self.mean_instructions >= 1.0) {
            return Err(invalid(
                "mean_instructions",
                format!("mean demand {} must be ≥ 1 instruction", self.mean_instructions),
            ));
        }
        if !(self.tail_alpha.is_finite() && self.tail_alpha > 1.0) {
            return Err(invalid(
                "tail_alpha",
                format!("Pareto shape {} must exceed 1 (finite mean)", self.tail_alpha),
            ));
        }
        if !(self.tail_cap.is_finite() && self.tail_cap > 1.0) {
            return Err(invalid(
                "tail_cap",
                format!("tail cap {} must exceed 1", self.tail_cap),
            ));
        }
        let service = match &self.service {
            Some(phase) => phase.clone(),
            None => default_service_phase()?,
        };
        // Envelope for thinning: the diurnal peak times the strongest
        // burst amplification. `rate_at` multiplies overlapping bursts, and
        // the set of bursts covering `t` is largest at some burst's start,
        // so the bound is the largest product over the bursts covering a
        // start (multipliers < 1 cannot raise the rate).
        let amplification = self
            .bursts
            .iter()
            .map(|at| {
                self.bursts
                    .iter()
                    .filter(|b| b.start <= at.start && at.start < b.end)
                    .map(|b| b.multiplier.max(1.0))
                    .product::<f64>()
            })
            .fold(1.0f64, f64::max);
        // Bounded Pareto with mean `mean_instructions`: solve for xmin
        // from E[X] = xmin × α/(α−1) × (1 − r^(α−1)) / (1 − r^α) with
        // r = 1/cap.
        let a = self.tail_alpha;
        let r = 1.0 / self.tail_cap;
        let mean_over_xmin = a / (a - 1.0) * (1.0 - r.powf(a - 1.0)) / (1.0 - r.powf(a));
        let xmin = (self.mean_instructions / mean_over_xmin).max(1.0);
        let xmax = xmin * self.tail_cap;
        Ok(RequestWorkload {
            name: self.name.clone(),
            seed: self.seed,
            day: self.day,
            base_rps: self.base_rps,
            peak_rps: self.peak_rps,
            bursts: self.bursts.clone(),
            envelope_rps: self.peak_rps * amplification,
            xmin,
            xmax,
            tail_ratio: (xmin / xmax).powf(a),
            inv_alpha: 1.0 / a,
            service,
            rng: NoiseSource::seeded(self.seed ^ 0x005E_27EA_FF1C),
            cursor: Seconds::ZERO,
            staged: None,
        })
    }
}

/// The default per-request instruction mix: a web-serving blend.
fn default_service_phase() -> Result<PhaseDescriptor> {
    PhaseDescriptor::builder("serve-request")
        .instructions(1) // demand comes from each request
        .core_cpi(1.1)
        .decode_ratio(1.2)
        .mem_fraction(0.3)
        .l1_mpi(0.02)
        .l2_mpi(0.004)
        .branch_fraction(0.18)
        .mispredict_rate(0.01)
        .activity(0.85)
        .build()
}

/// A seeded open-loop request workload (see the module docs).
///
/// # Examples
///
/// ```
/// use aapm_platform::units::Seconds;
/// use aapm_platform::workload::WorkloadSource;
/// use aapm_workloads::requests::RequestWorkload;
///
/// let mut load = RequestWorkload::builder("front-end")
///     .seed(7)
///     .rates(50.0, 200.0)
///     .burst(Seconds::new(40.0), Seconds::new(50.0), 3.0)
///     .build()?;
/// let mut out = Vec::new();
/// load.arrivals_into(Seconds::ZERO, Seconds::new(10.0), &mut out);
/// assert!(!out.is_empty());
/// # Ok::<(), aapm_platform::error::PlatformError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RequestWorkload {
    name: String,
    seed: u64,
    day: Seconds,
    base_rps: f64,
    peak_rps: f64,
    bursts: Vec<Burst>,
    envelope_rps: f64,
    xmin: f64,
    xmax: f64,
    /// `(xmin / xmax)^alpha`, the bounded-Pareto CDF's tail mass term.
    tail_ratio: f64,
    /// `1 / alpha`, the inverse CDF's exponent.
    inv_alpha: f64,
    service: PhaseDescriptor,
    rng: NoiseSource,
    /// Last candidate arrival time drawn (the thinning clock).
    cursor: Seconds,
    /// An accepted arrival beyond the last window's end, carried into the
    /// next window so no draw is ever discarded.
    staged: Option<Request>,
}

impl RequestWorkload {
    /// Starts configuring a request workload named `name`.
    pub fn builder(name: impl Into<String>) -> RequestWorkloadBuilder {
        RequestWorkloadBuilder {
            name: name.into(),
            seed: 0,
            day: Seconds::new(86.4),
            base_rps: 40.0,
            peak_rps: 160.0,
            bursts: Vec::new(),
            mean_instructions: 2e6,
            tail_alpha: 1.5,
            tail_cap: 50.0,
            service: None,
        }
    }

    /// The instantaneous arrival rate at simulated time `t`: the diurnal
    /// raised cosine (trough at `t = 0`, peak at half a day, cyclic) times
    /// any burst multipliers covering `t`.
    pub fn rate_at(&self, t: Seconds) -> f64 {
        let phase = (t.seconds() / self.day.seconds()).rem_euclid(1.0);
        let diurnal = self.base_rps
            + (self.peak_rps - self.base_rps)
                * 0.5
                * (1.0 - (2.0 * std::f64::consts::PI * phase).cos());
        let burst: f64 = self
            .bursts
            .iter()
            .filter(|b| b.start <= t && t < b.end)
            .map(|b| b.multiplier)
            .product();
        diurnal * burst
    }

    /// The seed this workload draws from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// A copy of this workload with a different seed and a reset stream
    /// (for per-lane fleet cohorts drawing independent traffic).
    pub fn reseeded(&self, seed: u64) -> RequestWorkload {
        let mut copy = self.clone();
        copy.seed = seed;
        copy.rng = NoiseSource::seeded(seed ^ 0x005E_27EA_FF1C);
        copy.cursor = Seconds::ZERO;
        copy.staged = None;
        copy
    }

    /// Draws the next accepted arrival strictly after the cursor.
    fn next_request(&mut self) -> Request {
        loop {
            // Exponential gap at the envelope rate.
            let u = self.rng.uniform(f64::MIN_POSITIVE, 1.0);
            self.cursor += Seconds::new(-u.ln() / self.envelope_rps);
            let accept = self.rate_at(self.cursor) / self.envelope_rps;
            if self.rng.chance(accept.clamp(0.0, 1.0)) {
                let demand = self.draw_demand();
                return Request::new(self.cursor, demand);
            }
        }
    }

    /// Bounded-Pareto demand by inverse-CDF.
    fn draw_demand(&mut self) -> f64 {
        let u = self.rng.uniform(0.0, 1.0);
        let x = self.xmin / (1.0 - u * (1.0 - self.tail_ratio)).powf(self.inv_alpha);
        x.clamp(self.xmin, self.xmax)
    }
}

impl WorkloadSource for RequestWorkload {
    fn name(&self) -> &str {
        &self.name
    }

    fn machine(&self, config: MachineConfig) -> Machine {
        Machine::server(config, self.service.clone())
    }

    fn arrivals_into(&mut self, _start: Seconds, end: Seconds, out: &mut Vec<Request>) {
        loop {
            let staged = match self.staged.take() {
                Some(r) => r,
                None => self.next_request(),
            };
            if staged.arrival >= end {
                self.staged = Some(staged);
                return;
            }
            out.push(staged);
        }
    }

    fn open_loop(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workload(seed: u64) -> RequestWorkload {
        RequestWorkload::builder("t").seed(seed).build().unwrap()
    }

    fn drain(load: &mut RequestWorkload, start: f64, end: f64) -> Vec<Request> {
        let mut out = Vec::new();
        load.arrivals_into(Seconds::new(start), Seconds::new(end), &mut out);
        out
    }

    #[test]
    fn same_seed_same_stream_across_window_splits() {
        let mut whole = workload(9);
        let mut split = workload(9);
        let all = drain(&mut whole, 0.0, 30.0);
        let mut stitched = Vec::new();
        for w in 0..30 {
            stitched.extend(drain(&mut split, w as f64, (w + 1) as f64));
        }
        assert_eq!(all, stitched, "window boundaries must not perturb the stream");
        assert!(!all.is_empty());
    }

    /// The exact bits of the first 64 `(arrival, instructions)` pairs of a
    /// fixed-seed stream: any change to the thinning or the demand draw,
    /// down to the last ulp, fails here.
    #[test]
    fn first_arrivals_are_pinned_to_the_bit() {
        const GOLDEN: [(u64, u64); 64] = [
            (0x3f8114c87b483985, 0x4150f5ad1a00c86b), (0x3fae32ba84eae412, 0x4146780291dfeb54),
            (0x3fb34debda705bc1, 0x41332ba1e6e0dc3a), (0x3fb9a9da0beaeb0a, 0x4136dac7c3c19319),
            (0x3fba84342b990475, 0x41283bab61e85f33), (0x3fbb480caa0535e0, 0x412a87b2da33ee35),
            (0x3fc6f6bdf220dbdf, 0x4130553e221b9f4e), (0x3fc790e2d471b62a, 0x413278d8cc8ce74d),
            (0x3fcf4eb44d796507, 0x412a4816e4bb8996), (0x3fd2e3ee93bfa26c, 0x41377d8f81c66f3e),
            (0x3fd425e635e403cc, 0x4134ae9667b9ccce), (0x3fd49adf3ff1cd99, 0x413345bf4cb2a937),
            (0x3fd6cfd65e2f213b, 0x413ad03cc4fd9d59), (0x3fda3f3affca1265, 0x413672f080f1e954),
            (0x3fdde1aec1cc5401, 0x412daefaae8f5750), (0x3fddf49b0589c100, 0x413d907f006d34c6),
            (0x3fde01223c2f4c9e, 0x412f79b9d0349ef7), (0x3fe0a20ed935f455, 0x413183134926b880),
            (0x3fe0ac175e2ea875, 0x412c4a2f50afc050), (0x3fe1592f01583196, 0x412b553ca0e891c2),
            (0x3fe465b268cbc6c1, 0x4128606cbdbd6a5f), (0x3fe4daf27fb2a4a7, 0x4139bcb15b0c8bca),
            (0x3fe4f9947c0ad633, 0x4143a6e7f2dbafed), (0x3fe707764c02afa3, 0x412ec7223792bc93),
            (0x3fe7bf1d89507b32, 0x4141830de9f80adf), (0x3fe82457d519b486, 0x412a1040d1cbe646),
            (0x3fe8640f28c5a25f, 0x414336acda66185e), (0x3fe99443b9411f6a, 0x413a549af6f5db64),
            (0x3fe9da10c3c8b132, 0x4143893efbfdce5c), (0x3fea58cb34b4ba5c, 0x4128279b20e05175),
            (0x3feca989268613ea, 0x41444cd6d2de9e71), (0x3ff0401df6fc04fa, 0x413d47fea5508ccd),
            (0x3ff05ec00c0f9cae, 0x4130d637d3a3ba10), (0x3ff064c0347de4a4, 0x413216f732394bf3),
            (0x3ff088c2c88ca55d, 0x4140b7146ad98764), (0x3ff09524f59d5e75, 0x4128e070ecf04aa9),
            (0x3ff0af2b5df855ad, 0x412a27760d1f91e6), (0x3ff0bf4e4a9af69f, 0x412d488845cdad2b),
            (0x3ff0fa6d8feb5f4d, 0x412cfb45cc8fe70c), (0x3ff129b11fd5049f, 0x4141d474bfe75669),
            (0x3ff1d7b1f5df6904, 0x412916f3f35fd08c), (0x3ff2047393dc52ea, 0x415efbac2b08c1db),
            (0x3ff27c09015d5767, 0x412d84e03254a6fe), (0x3ff27c6f7425ae15, 0x414f269ac3da9340),
            (0x3ff2bb2a24c112f5, 0x4157fa137c3a2dbb), (0x3ff3949b556f39b2, 0x41405a79030b2cd4),
            (0x3ff3c1392e9454f7, 0x412c5d3ed1c853a6), (0x3ff3dd13ab394ceb, 0x41336466abe1b319),
            (0x3ff3f10aaa2636c2, 0x4140f1bf41c5f0ba), (0x3ff41673ed8c2095, 0x4128150319a30a89),
            (0x3ff4711128a94c2f, 0x4131b3906accc3d3), (0x3ff50d026059a776, 0x414cbe1bd6cfb4a4),
            (0x3ff517f982be7581, 0x41306eb6555433e4), (0x3ff55c37e33ddf5f, 0x4129b8cb89ef0bf1),
            (0x3ff5a59a849365a1, 0x414025136be8cc25), (0x3ff63024846b29c0, 0x413270ee53dfac39),
            (0x3ff71f667b7daf49, 0x4162d7b3e14f7a24), (0x3ff7210acd5f6335, 0x4129542ebe07ad5d),
            (0x3ff7cb1fa01e6fa6, 0x412a6fb0aff8f135), (0x3ff98f5925209a01, 0x4130ec8c7a670147),
            (0x3ff9dcdad4f9609d, 0x412f734098c34242), (0x3ffa08241fda3e94, 0x412aba81e2d9dabb),
            (0x3ffaa50968f11acf, 0x413239a5c52c6a73), (0x3ffb68507ec775ff, 0x412c18269721ea92),
        ];
        let out = drain(&mut workload(2026), 0.0, 10.0);
        let bits: Vec<(u64, u64)> = out[..64]
            .iter()
            .map(|r| (r.arrival.seconds().to_bits(), r.instructions.to_bits()))
            .collect();
        assert_eq!(bits, GOLDEN);
    }

    #[test]
    fn different_seeds_differ() {
        let a = drain(&mut workload(1), 0.0, 10.0);
        let b = drain(&mut workload(2), 0.0, 10.0);
        assert_ne!(a, b);
    }

    #[test]
    fn arrivals_are_ordered_and_in_window() {
        let mut load = workload(3);
        let out = drain(&mut load, 0.0, 20.0);
        for pair in out.windows(2) {
            assert!(pair[0].arrival <= pair[1].arrival);
        }
        assert!(out.iter().all(|r| r.arrival < Seconds::new(20.0)));
        assert!(out.iter().all(|r| r.instructions >= 1.0));
    }

    #[test]
    fn diurnal_curve_peaks_mid_day_and_wraps() {
        let load = workload(0);
        let trough = load.rate_at(Seconds::ZERO);
        let peak = load.rate_at(Seconds::new(43.2));
        assert!((trough - 40.0).abs() < 1e-9);
        assert!((peak - 160.0).abs() < 1e-9);
        assert!((load.rate_at(Seconds::new(86.4)) - trough).abs() < 1e-9, "cyclic");
    }

    #[test]
    fn burst_multiplies_the_rate_inside_its_window() {
        let mut b = RequestWorkload::builder("b");
        b.burst(Seconds::new(10.0), Seconds::new(20.0), 3.0);
        let load = b.build().unwrap();
        let plain = workload(0);
        let inside = Seconds::new(15.0);
        assert!((load.rate_at(inside) - 3.0 * plain.rate_at(inside)).abs() < 1e-9);
        let outside = Seconds::new(25.0);
        assert!((load.rate_at(outside) - plain.rate_at(outside)).abs() < 1e-9);
    }

    /// Overlapping bursts multiply in `rate_at`, so the thinning envelope
    /// must cover their product: a 2× and a 3× burst over a flat 100 rps
    /// draw 600 rps where they overlap, not the 300 rps a single-burst
    /// envelope clamps to.
    #[test]
    fn overlapping_bursts_draw_their_product_rate() {
        let mut b = RequestWorkload::builder("overlap");
        b.seed(4)
            .rates(100.0, 100.0)
            .burst(Seconds::new(10.0), Seconds::new(30.0), 2.0)
            .burst(Seconds::new(20.0), Seconds::new(40.0), 3.0);
        let mut load = b.build().unwrap();
        let expected = load.rate_at(Seconds::new(25.0));
        assert_eq!(expected, 600.0);
        let all = drain(&mut load, 0.0, 50.0);
        let count = |from: f64, to: f64| {
            all.iter().filter(|r| (from..to).contains(&r.arrival.seconds())).count() as f64
        };
        // 6 000 expected arrivals: a Poisson count's standard deviation is
        // ~77, so 5 % is more than 3.8 sigma either way.
        let overlap = count(20.0, 30.0) / 10.0;
        assert!(
            (overlap / expected - 1.0).abs() < 0.05,
            "overlap drew {overlap} rps, rate_at says {expected}"
        );
        let single = count(30.0, 40.0) / 10.0;
        assert!((single / 300.0 - 1.0).abs() < 0.07, "3x burst drew {single} rps");
    }

    #[test]
    fn empirical_rate_tracks_the_curve() {
        // Count arrivals over the peak hour vs the trough hour of one
        // compressed day; the ratio should approximate peak/base = 4.
        let mut load = workload(11);
        let all = drain(&mut load, 0.0, 86.4);
        let near_trough =
            all.iter().filter(|r| r.arrival.seconds() < 8.0).count() as f64;
        let near_peak = all
            .iter()
            .filter(|r| (39.0..47.0).contains(&r.arrival.seconds()))
            .count() as f64;
        assert!(near_peak > 2.0 * near_trough, "peak {near_peak} vs trough {near_trough}");
    }

    #[test]
    fn demands_are_heavy_tailed_with_the_configured_mean() {
        let mut load = workload(5);
        let all = drain(&mut load, 0.0, 86.4);
        assert!(all.len() > 1000, "one day yields thousands of requests");
        let mean = all.iter().map(|r| r.instructions).sum::<f64>() / all.len() as f64;
        assert!((mean / 2e6 - 1.0).abs() < 0.25, "mean demand {mean} ≈ 2e6");
        let max = all.iter().map(|r| r.instructions).fold(0.0, f64::max);
        assert!(max > 5.0 * mean, "tail requests dwarf the mean: {max} vs {mean}");
        assert!(max <= load.xmax, "bounded tail");
    }

    #[test]
    fn reseeded_stream_is_independent_but_reproducible() {
        let proto = workload(1);
        let a = drain(&mut proto.reseeded(77), 0.0, 10.0);
        let b = drain(&mut proto.reseeded(77), 0.0, 10.0);
        let c = drain(&mut proto.reseeded(78), 0.0, 10.0);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn source_builds_a_serving_machine() {
        let load = workload(0);
        assert!(load.open_loop());
        let machine = load.machine(MachineConfig::default());
        assert!(machine.is_serving());
    }

    #[test]
    fn builder_rejects_bad_parameters() {
        assert!(RequestWorkload::builder("x").rates(0.0, 10.0).build().is_err());
        assert!(RequestWorkload::builder("x").rates(10.0, 5.0).build().is_err());
        assert!(RequestWorkload::builder("x").day(Seconds::ZERO).build().is_err());
        assert!(RequestWorkload::builder("x").demand(2e6, 1.0, 50.0).build().is_err());
        assert!(RequestWorkload::builder("x").demand(2e6, 1.5, 0.5).build().is_err());
        let mut b = RequestWorkload::builder("x");
        b.burst(Seconds::new(5.0), Seconds::new(5.0), 2.0);
        assert!(b.build().is_err());
    }
}
