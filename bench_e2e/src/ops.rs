//! One operation of a workload: the options the real entry points use, the
//! solve itself, and the answer it produced.

use std::time::Duration;

use flowrel_core::{
    fnet, Budget, CalcOptions, CancelToken, Outcome, ReliabilityCalculator, Strategy,
};
use montecarlo::{EstimatorKind, McSettings, StopTarget};

use crate::catalog::{derive, Workload};

/// Relative-error target of the `mc-mesh` estimations.
pub const MC_REL_ERR: f64 = 0.02;

/// Sample cap of the `mc-mesh` estimations, so one very reliable subscriber
/// cannot dominate a run.
pub const MC_MAX_SAMPLES: u64 = 1 << 19;

/// Configuration allowance of every `overlay-serve` request: the outcome
/// (complete or partial) then depends on the query alone, not on timing.
/// At 2^19 an interrupted query computes for about 10–25 ms, inside the
/// server's first 30 ms polling step, so the served tail does not jump
/// between steps with the machine's speed.
pub const SERVE_MAX_CONFIGS: u64 = 1 << 19;

/// The server's deadline for requests that set none.
pub const SERVE_TIMEOUT: Duration = Duration::from_secs(30);

/// What an operation answered.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Answer {
    /// A finished value (not a budget-interrupted interval).
    pub complete: bool,
    /// No statistical estimate contributed.
    pub certified: bool,
    /// The value; NaN for a partial answer.
    pub value: f64,
    /// Lower end of the certified or confidence interval.
    pub lo: f64,
    /// Upper end of the certified or confidence interval.
    pub hi: f64,
}

impl Answer {
    /// The answer an outcome of [`ReliabilityCalculator::run`] carries.
    pub fn of(out: &Outcome) -> Answer {
        match out {
            Outcome::Complete(r) => Answer {
                complete: true,
                certified: r.certified,
                value: r.reliability,
                lo: r.interval.0,
                hi: r.interval.1,
            },
            Outcome::Partial(p) => Answer::partial(p.certified, p.r_low, p.r_high),
        }
    }

    /// A budget-interrupted answer.
    pub fn partial(certified: bool, lo: f64, hi: f64) -> Answer {
        Answer {
            complete: false,
            certified,
            value: f64::NAN,
            lo,
            hi,
        }
    }

    /// Bit-for-bit equality (NaN equals NaN).
    pub fn same(&self, other: &Answer) -> bool {
        self.complete == other.complete
            && self.certified == other.certified
            && self.value.to_bits() == other.value.to_bits()
            && self.lo.to_bits() == other.lo.to_bits()
            && self.hi.to_bits() == other.hi.to_bits()
    }

    /// Why the answer is malformed on its face, if it is.
    pub fn defect(&self) -> Option<String> {
        let ordered = 0.0 <= self.lo && self.lo <= self.hi && self.hi <= 1.0;
        let inside = !self.complete || (self.lo <= self.value && self.value <= self.hi);
        let exact = !(self.complete && self.certified) || (self.lo == self.hi);
        (!(ordered && inside && exact)).then(|| format!("malformed answer {self:?}"))
    }
}

/// Options as `flowrel compute` builds them: serial, with an unlimited
/// budget that carries a cancel token. The token matters: without one the
/// auto strategy falls back to factoring instead of the naive sweep.
pub fn library_options() -> CalcOptions {
    CalcOptions {
        budget: Budget {
            cancel: Some(CancelToken::new()),
            ..Budget::default()
        },
        ..CalcOptions::default()
    }
}

/// Options as `flowrel-server` builds them for the benchmark's requests:
/// serial, the default deadline, the request's configuration allowance and
/// its own cancel token.
pub fn server_options() -> CalcOptions {
    CalcOptions {
        parallel: false,
        budget: Budget {
            time_limit: Some(SERVE_TIMEOUT),
            max_configs: Some(SERVE_MAX_CONFIGS),
            cancel: Some(CancelToken::new()),
        },
        ..CalcOptions::default()
    }
}

/// The strategy of operation `index` in pass `pass` of a run seeded `seed`.
pub fn strategy(w: Workload, seed: u64, pass: u64, index: usize) -> Strategy {
    match w {
        Workload::McMesh => {
            Strategy::MonteCarlo(mc_settings(derive(seed, (pass << 32) | index as u64)))
        }
        _ => Strategy::Auto,
    }
}

/// The `mc-mesh` estimator settings with RNG seed `rng_seed`.
pub fn mc_settings(rng_seed: u64) -> McSettings {
    McSettings {
        seed: rng_seed,
        estimator: EstimatorKind::Auto,
        target: StopTarget {
            rel_err: Some(MC_REL_ERR),
            ci_half: None,
            max_samples: MC_MAX_SAMPLES,
        },
        ..McSettings::default()
    }
}

/// Parses `text` and runs the calculator on it, as a caller of the library
/// does.
pub fn solve(text: &str, strategy: &Strategy, opts: &CalcOptions) -> Result<Answer, String> {
    let file = fnet::parse(text).map_err(|e| format!("parse: {e}"))?;
    let demand = file.demand.ok_or("the text has no demand line")?;
    let calc = ReliabilityCalculator {
        strategy: strategy.clone(),
        options: opts.clone(),
    };
    calc.run(&file.net, demand)
        .map(|out| Answer::of(&out))
        .map_err(|e| e.to_string())
}
