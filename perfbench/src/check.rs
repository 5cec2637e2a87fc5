//! Output checkers that share no code with the program they check.
//!
//! Each checker restates a property from the paper or from the
//! program's documented contract in a few lines of its own: dominance,
//! the `P = f·C_L·V²` law, and the Monte-Carlo mean. The workloads run
//! every checker twice through [`self_tested`]: on the real outputs,
//! where it must pass, and on a copy with one value corrupted, where it
//! must fail. A checker that accepts the corrupted copy is blind, and
//! the run is reported incorrect.

use std::collections::BTreeMap;

/// Objectives of one design point: power (mW), area (λ²), latency (ns).
pub type Obj = [f64; 3];

/// Design points keyed by their identity.
pub type Keyed = Vec<(String, Obj)>;

/// `a` dominates `b`: no worse in every objective, better in one.
pub fn dominates(a: &Obj, b: &Obj) -> bool {
    a.iter().zip(b).all(|(x, y)| x <= y) && a.iter().zip(b).any(|(x, y)| x < y)
}

/// No frontier point dominates another.
pub fn frontier_nondominated(front: &[Obj]) -> Result<(), String> {
    for (i, a) in front.iter().enumerate() {
        for (j, b) in front.iter().enumerate() {
            if i != j && dominates(a, b) {
                return Err(format!(
                    "frontier point {i} {a:?} dominates point {j} {b:?}"
                ));
            }
        }
    }
    Ok(())
}

/// Every independently evaluated sample is either on the frontier with
/// the same objectives (matched by its identity key) or no better than
/// some frontier point in every objective.
pub fn sample_covered(samples: &[(String, Obj)], front: &[(String, Obj)]) -> Result<(), String> {
    for (key, s) in samples {
        if let Some((_, f)) = front.iter().find(|(k, _)| k == key) {
            if f != s {
                return Err(format!(
                    "{key}: frontier reports {f:?}, fresh evaluation gives {s:?}"
                ));
            }
        } else if !front
            .iter()
            .any(|(_, f)| f.iter().zip(s).all(|(x, y)| x <= y))
        {
            return Err(format!(
                "{key}: fresh evaluation {s:?} is neither on nor behind the frontier"
            ));
        }
    }
    Ok(())
}

/// A design point evaluated at one supply voltage; `group` names
/// everything else about the point.
#[derive(Debug, Clone)]
pub struct VoltagePoint {
    pub group: String,
    pub volts: f64,
    pub obj: Obj,
}

/// Points that differ only in supply voltage obey `P ∝ V²` to 1e-9
/// relative, have equal area, and get no slower as the voltage rises.
pub fn v_squared_law(points: &[VoltagePoint]) -> Result<(), String> {
    let mut groups: BTreeMap<&str, Vec<&VoltagePoint>> = BTreeMap::new();
    for p in points {
        groups.entry(&p.group).or_default().push(p);
    }
    let mut pairs = 0;
    for (group, mut ps) in groups {
        ps.sort_by(|a, b| a.volts.total_cmp(&b.volts));
        for w in ps.windows(2) {
            let (lo, hi) = (w[0], w[1]);
            pairs += 1;
            let want = (hi.volts / lo.volts).powi(2);
            let got = hi.obj[0] / lo.obj[0];
            if ((got - want) / want).abs() > 1e-9 {
                return Err(format!(
                    "{group}: power ratio {got} between {} V and {} V, V² predicts {want}",
                    hi.volts, lo.volts
                ));
            }
            if hi.obj[1] != lo.obj[1] {
                return Err(format!(
                    "{group}: area {} at {} V but {} at {} V",
                    hi.obj[1], hi.volts, lo.obj[1], lo.volts
                ));
            }
            if hi.obj[2] > lo.obj[2] {
                return Err(format!(
                    "{group}: latency rises from {} ns at {} V to {} ns at {} V",
                    lo.obj[2], lo.volts, hi.obj[2], hi.volts
                ));
            }
        }
    }
    if pairs == 0 {
        return Err("no two points differ only in voltage".to_owned());
    }
    Ok(())
}

/// The mean of per-seed totals, summed in seed order, matches the
/// reported Monte-Carlo mean to 1e-9 relative.
pub fn monte_carlo_mean(per_seed_mw: &[f64], reported_mw: f64) -> Result<(), String> {
    if per_seed_mw.is_empty() {
        return Err("no per-seed totals".to_owned());
    }
    let mean = per_seed_mw.iter().sum::<f64>() / per_seed_mw.len() as f64;
    if ((mean - reported_mw) / reported_mw).abs() > 1e-9 {
        return Err(format!(
            "scalar re-pricing of {} seeds gives {mean} mW, the report says {reported_mw} mW",
            per_seed_mw.len()
        ));
    }
    Ok(())
}

/// Runs `check` on `data`, which must pass, and on a copy that
/// `corrupt` changed in one value, which must fail.
pub fn self_tested<T: Clone>(
    name: &str,
    data: &T,
    corrupt: impl FnOnce(&mut T),
    check: impl Fn(&T) -> Result<(), String>,
) -> Result<(), String> {
    check(data).map_err(|e| format!("{name}: {e}"))?;
    let mut bad = data.clone();
    corrupt(&mut bad);
    match check(&bad) {
        Ok(()) => Err(format!("{name}: checker accepted a corrupted value")),
        Err(_) => Ok(()),
    }
}

/// Corruptions used by the self-tests, one value each.
pub mod corrupt {
    use super::{Keyed, Obj, VoltagePoint};

    /// Makes point 1 a copy of point 0 that is cheaper in power, so it
    /// dominates point 0.
    pub fn frontier(front: &mut Vec<Obj>) {
        if front.len() < 2 {
            front.push(front.first().copied().unwrap_or([1.0; 3]));
        }
        front[1] = front[0];
        front[1][0] *= 0.5;
    }

    /// Gives the first sample a power below every frontier point's.
    pub fn sample(data: &mut (Keyed, Keyed)) {
        let min = data
            .1
            .iter()
            .map(|(_, o)| o[0])
            .fold(f64::INFINITY, f64::min);
        if let Some((_, s)) = data.0.first_mut() {
            s[0] = min * 0.5;
        }
    }

    /// Nudges one point's power by a part per million.
    pub fn voltage(points: &mut [VoltagePoint]) {
        if let Some(p) = points.first_mut() {
            p.obj[0] *= 1.0 + 1e-6;
        }
    }

    /// Nudges the reported mean by a part in ten million.
    pub fn mean(data: &mut (Vec<f64>, f64)) {
        data.1 *= 1.0 + 1e-7;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn front() -> Vec<Obj> {
        vec![[1.0, 9.0, 5.0], [2.0, 3.0, 5.0], [3.0, 1.0, 4.0]]
    }

    #[test]
    fn frontier_checker_rejects_a_dominating_point() {
        let data = front();
        self_tested("frontier", &data, corrupt::frontier, |f| {
            frontier_nondominated(f)
        })
        .unwrap();
    }

    #[test]
    fn sample_checker_rejects_a_point_beyond_the_frontier() {
        let keyed: Keyed = front()
            .into_iter()
            .enumerate()
            .map(|(i, o)| (format!("p{i}"), o))
            .collect();
        // One sample on the frontier, one dominated by it.
        let samples = vec![keyed[1].clone(), ("q".to_owned(), [2.5, 3.0, 6.0])];
        let data = (samples, keyed);
        self_tested("sample", &data, corrupt::sample, |(s, f)| {
            sample_covered(s, f)
        })
        .unwrap();
        // A frontier member whose objectives disagree is caught too.
        let (mut s, f) = data;
        s[0].1[2] += 1.0;
        assert!(sample_covered(&s, &f).is_err());
    }

    #[test]
    fn voltage_checker_rejects_a_power_off_the_v_squared_law() {
        let at = |v: f64, lat: f64| VoltagePoint {
            group: "g".to_owned(),
            volts: v,
            obj: [2.0 * v * v, 100.0, lat],
        };
        let data = vec![at(4.65, 10.0), at(3.3, 12.0), at(2.5, 20.0)];
        self_tested("v2", &data, |d| corrupt::voltage(d), |d| v_squared_law(d)).unwrap();
        let mut slower = data.clone();
        slower[0].obj[2] = 30.0;
        assert!(v_squared_law(&slower).is_err(), "latency rising with V");
        let mut wider = data;
        wider[1].obj[1] = 101.0;
        assert!(v_squared_law(&wider).is_err(), "area changing with V");
        assert!(v_squared_law(&[]).is_err(), "no evidence is not a pass");
    }

    #[test]
    fn mean_checker_rejects_a_shifted_mean() {
        let seeds = vec![1.25, 1.5, 1.75, 2.0];
        let data = (seeds, 1.625);
        self_tested("mean", &data, corrupt::mean, |(s, m)| {
            monte_carlo_mean(s, *m)
        })
        .unwrap();
    }

    #[test]
    fn self_test_reports_a_blind_checker() {
        let err = self_tested("blind", &1.0, |x| *x = 2.0, |_| Ok(())).unwrap_err();
        assert!(err.contains("accepted a corrupted value"));
    }
}
