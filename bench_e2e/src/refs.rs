//! Pinned answers for the default seed, and the rule that checks an answer
//! against them.
//!
//! One line per operation: `<workload> <key> <kind> <value> <lo> <hi>`, the
//! three numbers as the hex bits of their `f64`, so a reference is exact.
//! The kind is `C` for a certified complete answer, `S` for a statistical
//! one (a Monte-Carlo estimate) and `P` for a budget-interrupted partial.

use std::collections::BTreeMap;

use crate::ops::Answer;

/// Tolerance for exact values and interval ends.
pub const EXACT_TOL: f64 = 1e-12;

/// Why `got` disagrees with the reference `want`, if it does.
///
/// Two certified complete values must agree within [`EXACT_TOL`]. Otherwise
/// the intervals must intersect: a certified interval, partial or complete,
/// contains the true value, so a plan that finishes more requests still
/// passes; two Monte-Carlo confidence intervals must overlap.
pub fn disagreement(got: &Answer, want: &Answer) -> Option<String> {
    let exact = |a: &Answer| a.complete && a.certified;
    if exact(got) && exact(want) {
        return ((got.value - want.value).abs() > EXACT_TOL)
            .then(|| format!("value {} differs from reference {}", got.value, want.value));
    }
    let meet = got.lo <= want.hi + EXACT_TOL && want.lo <= got.hi + EXACT_TOL;
    (!meet).then(|| {
        format!(
            "[{}, {}] misses reference [{}, {}]",
            got.lo, got.hi, want.lo, want.hi
        )
    })
}

/// References keyed by `(workload, key)`.
#[derive(Default)]
pub struct Refs(BTreeMap<(String, String), Answer>);

impl Refs {
    /// Parses the reference file format.
    pub fn parse(text: &str) -> Result<Refs, String> {
        let mut map = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let bad = || format!("refs line {}: expected 6 fields", n + 1);
            let f: Vec<&str> = line.split_whitespace().collect();
            let [workload, key, kind, value, lo, hi] = f[..] else {
                return Err(bad());
            };
            let num = |s: &str| {
                u64::from_str_radix(s, 16)
                    .map(f64::from_bits)
                    .map_err(|_| format!("refs line {}: bad hex '{s}'", n + 1))
            };
            let (complete, certified) = match kind {
                "C" => (true, true),
                "S" => (true, false),
                "P" => (false, true),
                _ => return Err(bad()),
            };
            let answer = Answer {
                complete,
                certified,
                value: num(value)?,
                lo: num(lo)?,
                hi: num(hi)?,
            };
            map.insert((workload.to_string(), key.to_string()), answer);
        }
        Ok(Refs(map))
    }

    /// Renders the reference file.
    pub fn render(&self, header: &str) -> String {
        let mut out = String::from(header);
        for ((workload, key), a) in &self.0 {
            out.push_str(&format!(
                "{workload} {key} {} {:016x} {:016x} {:016x}\n",
                match (a.complete, a.certified) {
                    (true, true) => "C",
                    (true, false) => "S",
                    (false, _) => "P",
                },
                a.value.to_bits(),
                a.lo.to_bits(),
                a.hi.to_bits()
            ));
        }
        out
    }

    /// Records a reference.
    pub fn insert(&mut self, workload: &str, key: &str, answer: Answer) {
        self.0
            .insert((workload.to_string(), key.to_string()), answer);
    }

    /// The reference for `(workload, key)`.
    pub fn get(&self, workload: &str, key: &str) -> Option<&Answer> {
        self.0.get(&(workload.to_string(), key.to_string()))
    }

    /// Number of references for `workload`.
    pub fn count(&self, workload: &str) -> usize {
        self.0.keys().filter(|(w, _)| w == workload).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact(v: f64) -> Answer {
        Answer {
            complete: true,
            certified: true,
            value: v,
            lo: v,
            hi: v,
        }
    }

    fn ci(lo: f64, hi: f64) -> Answer {
        Answer {
            complete: true,
            certified: false,
            value: (lo + hi) / 2.0,
            lo,
            hi,
        }
    }

    #[test]
    fn exact_values_must_agree_to_tolerance() {
        assert!(disagreement(&exact(0.5), &exact(0.5 + 1e-13)).is_none());
        assert!(disagreement(&exact(0.5), &exact(0.5 + 1e-11)).is_some());
    }

    #[test]
    fn certified_intervals_must_intersect() {
        let partial = Answer::partial(true, 0.2, 0.6);
        // a later plan that finishes the request lands inside the interval
        assert!(disagreement(&exact(0.4), &partial).is_none());
        assert!(disagreement(&partial, &exact(0.4)).is_none());
        assert!(disagreement(&Answer::partial(true, 0.5, 0.9), &partial).is_none());
        assert!(disagreement(&exact(0.7), &partial).is_some());
        assert!(disagreement(&Answer::partial(true, 0.61, 0.9), &partial).is_some());
    }

    #[test]
    fn confidence_intervals_must_overlap() {
        assert!(disagreement(&ci(0.90, 0.92), &ci(0.915, 0.93)).is_none());
        assert!(disagreement(&ci(0.90, 0.91), &ci(0.915, 0.93)).is_some());
    }

    #[test]
    fn references_round_trip_bit_for_bit() {
        let mut refs = Refs::default();
        refs.insert("alpha-sweep", "p0/a", exact(0.1 + 0.2));
        refs.insert("overlay-serve", "q", Answer::partial(true, 0.25, 0.75));
        refs.insert("mc-mesh", "p0/m", ci(0.9, 0.95));
        let back = Refs::parse(&refs.render("# header\n")).expect("parses");
        for (w, k) in [
            ("alpha-sweep", "p0/a"),
            ("overlay-serve", "q"),
            ("mc-mesh", "p0/m"),
        ] {
            let (a, b) = (refs.get(w, k).unwrap(), back.get(w, k).unwrap());
            assert!(a.same(b), "{w} {k}: {a:?} vs {b:?}");
        }
        assert_eq!(back.count("alpha-sweep"), 1);
        assert!(Refs::parse("alpha-sweep k C 0 0").is_err());
    }
}
