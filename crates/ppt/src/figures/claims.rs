//! The paper's claims as data, and their verdicts.
//!
//! A [`Claim`] is the percent change of one row of an FCT table against
//! another row — or against the best or the worst other row — in one of
//! the four FCT columns, with what the paper says of that change. Its band
//! comes from the paper's value by one rule, [`Band::of`] (DESIGN.md §5),
//! and [`verdict`] places the measured change against it. `run_fct` prints
//! one [`ClaimLine`] per claim under every table the claim applies to, and
//! [`ClaimLine::parse`] reads it back, so EXPERIMENTS.md's marks can be
//! checked against the recorded results without running anything.

use std::fmt;

use dcn_stats::FctSummary;

/// A change under this many percent counts as no effect.
pub const FLOOR_PCT: f64 = 1.0;

/// One of the four FCT columns of a figure table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Column {
    /// Mean FCT of all flows.
    Overall,
    /// Mean FCT of small flows.
    SmallAvg,
    /// 99th-percentile FCT of small flows.
    SmallP99,
    /// Mean FCT of large flows.
    LargeAvg,
}

impl Column {
    const ALL: [Column; 4] =
        [Column::Overall, Column::SmallAvg, Column::SmallP99, Column::LargeAvg];

    /// The column's name in a claim line.
    pub fn name(self) -> &'static str {
        match self {
            Column::Overall => "overall",
            Column::SmallAvg => "small avg",
            Column::SmallP99 => "small p99",
            Column::LargeAvg => "large avg",
        }
    }

    /// The column's value in `s`, µs; `NaN` for an empty bin.
    pub fn of(self, s: &FctSummary) -> f64 {
        match self {
            Column::Overall => s.overall_avg_us,
            Column::SmallAvg => s.small_avg_us,
            Column::SmallP99 => s.small_p99_us,
            Column::LargeAvg => s.large_avg_us,
        }
    }
}

/// What the paper says of a change.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Paper {
    /// The paper's number, percent; `0.0` where it reports no change.
    Pct(f64),
    /// Only an ordering: the row is lower than the one it is set against.
    Lower,
    /// Only an ordering: the row is higher.
    Higher,
}

/// The changes, percent, that a claim accepts: `lo..=hi`, or `lo..hi`
/// when `open`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Band {
    /// Lower edge (may be `-inf`).
    pub lo: f64,
    /// Upper edge (may be `inf`).
    pub hi: f64,
    /// Whether both edges are excluded.
    pub open: bool,
}

impl Band {
    /// The band of a paper claim, by the one rule of DESIGN.md §5: a
    /// number gets ½–2× of itself, never nearer zero than [`FLOOR_PCT`]; a
    /// number under the floor means "no change", the open band ±1 %; an
    /// ordering accepts every change of at least the floor on its side.
    pub const fn of(paper: Paper) -> Band {
        const INF: f64 = f64::INFINITY;
        match paper {
            Paper::Lower => Band { lo: -INF, hi: -FLOOR_PCT, open: false },
            Paper::Higher => Band { lo: FLOOR_PCT, hi: INF, open: false },
            Paper::Pct(p) if p.abs() < FLOOR_PCT => {
                Band { lo: -FLOOR_PCT, hi: FLOOR_PCT, open: true }
            }
            Paper::Pct(p) if p < 0.0 => {
                Band { lo: 2.0 * p, hi: (p / 2.0).min(-FLOOR_PCT), open: false }
            }
            Paper::Pct(p) => Band { lo: (p / 2.0).max(FLOOR_PCT), hi: 2.0 * p, open: false },
        }
    }

    fn contains(self, change: f64) -> bool {
        if self.open {
            self.lo < change && change < self.hi
        } else {
            self.lo <= change && change <= self.hi
        }
    }

    /// The side of zero every change in the band lies on (0: both sides).
    fn side(self) -> f64 {
        if self.hi <= 0.0 {
            -1.0
        } else if self.lo >= 0.0 {
            1.0
        } else {
            0.0
        }
    }
}

/// How a measured change stands against a claim's band, worst first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    /// No change to measure (an empty bin): `n/a`.
    NoData,
    /// Opposite sign, or an effect under the floor: ❌.
    Fails,
    /// Same sign, outside the band: 🟡.
    Weak,
    /// Inside the band: ✅.
    Holds,
}

impl Verdict {
    const ALL: [Verdict; 4] = [Verdict::NoData, Verdict::Fails, Verdict::Weak, Verdict::Holds];

    /// The mark EXPERIMENTS.md and the claim lines print.
    pub fn mark(self) -> &'static str {
        match self {
            Verdict::NoData => "n/a",
            Verdict::Fails => "❌",
            Verdict::Weak => "🟡",
            Verdict::Holds => "✅",
        }
    }

    /// The verdict `mark` prints as.
    fn from_mark(mark: &str) -> Option<Verdict> {
        Verdict::ALL.into_iter().find(|v| v.mark() == mark)
    }
}

/// Percent change of `new` against `base`.
pub fn change(new: f64, base: f64) -> f64 {
    (new / base - 1.0) * 100.0
}

/// Place a change, percent, against a band: inside is [`Verdict::Holds`];
/// outside on the band's side of zero, by at least [`FLOOR_PCT`], is
/// [`Verdict::Weak`]; anything else [`Verdict::Fails`]. A change that is
/// not a number (an empty bin) is [`Verdict::NoData`].
pub fn verdict(change: f64, band: Band) -> Verdict {
    if !change.is_finite() {
        Verdict::NoData
    } else if band.contains(change) {
        Verdict::Holds
    } else if change.abs() >= FLOOR_PCT && change.signum() == band.side() {
        Verdict::Weak
    } else {
        Verdict::Fails
    }
}

/// What a claim's row is set against.
#[derive(Clone, Copy, Debug)]
pub(super) enum Vs {
    /// Another row, by index.
    Row(usize),
    /// The other row lowest in the claim's column ("the row is lowest").
    Best,
    /// The other row highest in the column ("up to x % better").
    Worst,
}

/// One comparative claim of the paper about an FCT figure.
#[derive(Clone, Copy, Debug)]
pub(super) struct Claim {
    /// The row whose change is measured, by index.
    row: usize,
    vs: Vs,
    column: Column,
    paper: Paper,
    /// Only under this panel's tables (`None`: under every table). No
    /// claim the paper makes is about one load of several.
    panel: Option<usize>,
}

pub(super) const fn claim(row: usize, vs: Vs, column: Column, paper: Paper) -> Claim {
    Claim { row, vs, column, paper, panel: None }
}

impl Claim {
    /// The same claim, made of panel `panel` only.
    pub(super) const fn only(self, panel: usize) -> Claim {
        Claim { panel: Some(panel), ..self }
    }

    /// Whether the claim is printed under panel `panel`'s tables.
    pub(super) fn applies_to(&self, panel: usize) -> bool {
        self.panel.is_none_or(|p| p == panel)
    }

    /// The claim's line for one table: `labels` and `rows` in row order.
    pub(super) fn evaluate(&self, labels: &[&str], rows: &[FctSummary]) -> ClaimLine {
        let value = |i: usize| rows.get(i).map_or(f64::NAN, |s| self.column.of(s));
        let label = |i: usize| labels.get(i).copied().unwrap_or("?");
        // The other row lowest (or highest) in the column; empty bins and
        // ties never displace an earlier row.
        let extreme = |lowest: bool| {
            let others = (0..rows.len()).filter(|&i| i != self.row && !value(i).is_nan());
            let beats = |b: f64, a: f64| if lowest { b < a } else { b > a };
            others.reduce(|a, b| if beats(value(b), value(a)) { b } else { a })
        };
        let (base, against) = match self.vs {
            Vs::Row(i) => (Some(i), label(i).to_string()),
            Vs::Best => (extreme(true), "best".to_string()),
            Vs::Worst => (extreme(false), "worst".to_string()),
        };
        let against = match (self.vs, base) {
            (Vs::Row(_), _) | (_, None) => against,
            (_, Some(i)) => format!("{against} {}", label(i)),
        };
        let pct = base.map_or(f64::NAN, |i| change(value(self.row), value(i)));
        ClaimLine {
            verdict: verdict(pct, Band::of(self.paper)),
            column: self.column,
            row: label(self.row).to_string(),
            against,
            change: pct.is_finite().then_some(pct),
            paper: self.paper,
        }
    }
}

/// One printed claim, `claim: <mark> <column>, <row> vs <against>: <change>
/// (paper <number | lower | higher>)`; `<against>` is a row label, or
/// `best <label>` / `worst <label>`, and `<change>` is `n/a` for an empty
/// bin.
#[derive(Clone, Debug, PartialEq)]
pub(super) struct ClaimLine {
    /// The claim's verdict on this table.
    verdict: Verdict,
    column: Column,
    /// The label of the row whose change is measured.
    row: String,
    /// What it is set against, as printed.
    against: String,
    /// The change, percent (`None`: an empty bin).
    change: Option<f64>,
    paper: Paper,
}

const PREFIX: &str = "claim: ";

impl fmt::Display for ClaimLine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mark = self.verdict.mark();
        write!(f, "{PREFIX}{mark} {}, {} vs {}: ", self.column.name(), self.row, self.against)?;
        match self.change {
            Some(pct) => write!(f, "{pct:+.1}%")?,
            None => write!(f, "n/a")?,
        }
        match self.paper {
            Paper::Pct(p) => write!(f, " (paper {p:+.1}%)"),
            Paper::Lower => write!(f, " (paper lower)"),
            Paper::Higher => write!(f, " (paper higher)"),
        }
    }
}

impl ClaimLine {
    /// Read back a line [`ClaimLine`]'s `Display` printed; `None` for any
    /// other line.
    fn parse(line: &str) -> Option<ClaimLine> {
        let pct = |s: &str| s.strip_suffix('%')?.parse::<f64>().ok();
        let (mark, rest) = line.strip_prefix(PREFIX)?.split_once(' ')?;
        let (column, rest) = rest.split_once(", ")?;
        let (rest, paper) = rest.strip_suffix(')')?.rsplit_once(" (paper ")?;
        let (rows, change) = rest.rsplit_once(": ")?;
        let (row, against) = rows.split_once(" vs ")?;
        Some(ClaimLine {
            verdict: Verdict::from_mark(mark)?,
            column: Column::ALL.into_iter().find(|c| c.name() == column)?,
            row: row.to_string(),
            against: against.to_string(),
            change: if change == "n/a" { None } else { Some(pct(change)?) },
            paper: match paper {
                "lower" => Paper::Lower,
                "higher" => Paper::Higher,
                p => Paper::Pct(pct(p)?),
            },
        })
    }
}

/// The verdict of every panel with claims in a figure's printed output,
/// in panel order: the worst of the claim lines under its tables, keyed by
/// the label its banner starts with (`"Fig 12"`). A line that starts like
/// a claim but does not parse is an error.
pub fn panel_verdicts(text: &str) -> Result<Vec<(String, Verdict)>, String> {
    let lines: Vec<&str> = text.lines().collect();
    let mut panels: Vec<(String, Option<Verdict>)> = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        if lines.get(i + 1).is_some_and(|next| next.starts_with("setup: ")) {
            let label = line.split_once(": ").map_or(*line, |(label, _)| label);
            panels.push((label.to_string(), None));
        } else if line.starts_with(PREFIX) {
            let claim = ClaimLine::parse(line).ok_or_else(|| format!("bad claim line: {line}"))?;
            let (_, worst) = panels.last_mut().ok_or_else(|| format!("no banner: {line}"))?;
            *worst = Some(worst.map_or(claim.verdict, |w| w.min(claim.verdict)));
        }
    }
    Ok(panels.into_iter().filter_map(|(label, v)| Some((label, v?))).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn holds(paper: Paper, change: f64) -> Verdict {
        verdict(change, Band::of(paper))
    }

    #[test]
    fn a_number_holds_from_half_to_twice_itself() {
        let p = Paper::Pct(-20.0);
        assert_eq!(Band::of(p), Band { lo: -40.0, hi: -10.0, open: false });
        for (change, want) in [
            (-10.0, Verdict::Holds),
            (-9.9, Verdict::Weak),
            (-40.0, Verdict::Holds),
            (-40.1, Verdict::Weak),
            (-25.0, Verdict::Holds),
        ] {
            assert_eq!(holds(p, change), want, "{change}");
        }
        assert_eq!(holds(Paper::Pct(30.0), 15.0), Verdict::Holds);
        assert_eq!(holds(Paper::Pct(30.0), 60.1), Verdict::Weak);
    }

    #[test]
    fn the_opposite_sign_fails() {
        assert_eq!(holds(Paper::Pct(-33.0), 13.8), Verdict::Fails);
        assert_eq!(holds(Paper::Pct(18.9), -1.4), Verdict::Fails);
    }

    #[test]
    fn an_effect_under_one_percent_is_none() {
        // Same sign as the paper's +20 %, but too small to count.
        assert_eq!(holds(Paper::Pct(20.0), 0.9), Verdict::Fails);
        assert_eq!(holds(Paper::Pct(20.0), 1.0), Verdict::Weak);
        // The paper's "no change": inside ±1 %, exclusive.
        assert_eq!(holds(Paper::Pct(0.0), 0.9), Verdict::Holds);
        assert_eq!(holds(Paper::Pct(0.0), -0.9), Verdict::Holds);
        assert_eq!(holds(Paper::Pct(0.0), 1.0), Verdict::Fails);
        // A small number keeps its band clear of the floor.
        assert_eq!(Band::of(Paper::Pct(-1.5)), Band { lo: -3.0, hi: -1.0, open: false });
    }

    #[test]
    fn an_ordering_holds_or_fails() {
        assert_eq!(holds(Paper::Lower, -1.0), Verdict::Holds);
        assert_eq!(holds(Paper::Lower, -90.0), Verdict::Holds);
        assert_eq!(holds(Paper::Lower, -0.9), Verdict::Fails);
        assert_eq!(holds(Paper::Lower, 5.0), Verdict::Fails);
        assert_eq!(holds(Paper::Higher, 43.7), Verdict::Holds);
        assert_eq!(holds(Paper::Higher, -43.7), Verdict::Fails);
    }

    #[test]
    fn an_empty_bin_prints_na() {
        assert_eq!(holds(Paper::Lower, f64::NAN), Verdict::NoData);
        assert_eq!(holds(Paper::Pct(10.0), f64::INFINITY), Verdict::NoData);
        let empty = FctSummary {
            overall_avg_us: 10.0,
            small_avg_us: 5.0,
            small_p99_us: 9.0,
            large_avg_us: f64::NAN,
            counts: (2, 2, 0),
        };
        let rows = [empty, empty];
        let c = claim(0, Vs::Best, Column::LargeAvg, Paper::Lower);
        let line = c.evaluate(&["A", "B"], &rows);
        assert_eq!(line.to_string(), "claim: n/a large avg, A vs best: n/a (paper lower)");
        // A table with no rows at all still prints a line.
        let line = claim(1, Vs::Row(0), Column::Overall, Paper::Pct(-5.0)).evaluate(&[], &[]);
        assert_eq!(line.to_string(), "claim: n/a overall, ? vs ?: n/a (paper -5.0%)");
    }

    #[test]
    fn best_and_worst_pick_the_extreme_other_row() {
        let row = |overall_avg_us| FctSummary {
            overall_avg_us,
            small_avg_us: 1.0,
            small_p99_us: 1.0,
            large_avg_us: 1.0,
            counts: (1, 1, 0),
        };
        let rows = [row(100.0), row(50.0), row(200.0), row(80.0)];
        let labels = ["PPT", "NDP", "RC3", "Homa"];
        let best = claim(0, Vs::Best, Column::Overall, Paper::Lower).evaluate(&labels, &rows);
        assert_eq!(best.to_string(), "claim: ❌ overall, PPT vs best NDP: +100.0% (paper lower)");
        let worst = claim(0, Vs::Worst, Column::Overall, Paper::Pct(-71.0));
        assert_eq!(
            worst.evaluate(&labels, &rows).to_string(),
            "claim: ✅ overall, PPT vs worst RC3: -50.0% (paper -71.0%)"
        );
    }

    #[test]
    fn a_claim_line_reads_back_as_printed() {
        let line = ClaimLine {
            verdict: Verdict::Weak,
            column: Column::SmallP99,
            row: "hypothetical DCTCP (100%×MW)".to_string(),
            against: "worst RC3 lp-buf 80%".to_string(),
            change: Some(-12.5),
            paper: Paper::Pct(-71.0),
        };
        let text = line.to_string();
        assert_eq!(
            text,
            "claim: 🟡 small p99, hypothetical DCTCP (100%×MW) vs worst RC3 lp-buf 80%: -12.5% \
             (paper -71.0%)"
        );
        assert_eq!(ClaimLine::parse(&text), Some(line));
        for text in [
            "claim: ✅ overall, PPT vs best RC3 lp-buf 40%: -10.6% (paper lower)",
            "claim: ❌ large avg, PPT sndbuf=128KB vs PPT sndbuf=2MB: -0.7% (paper higher)",
            "claim: n/a small avg, PPT vs best: n/a (paper +0.0%)",
        ] {
            let parsed = ClaimLine::parse(text).expect(text);
            assert_eq!(parsed.to_string(), text);
        }
        assert_eq!(ClaimLine::parse("claim: ✅ overall, PPT vs Homa: fast (paper lower)"), None);
        assert_eq!(ClaimLine::parse("PPT  761.1  15.4"), None);
    }

    #[test]
    fn panels_take_their_worst_claim() {
        let text = "====\nFig 12: six schemes\nsetup: s\n====\nscheme …\n\n\
                    claim: ✅ overall, PPT vs best RC3: -3.5% (paper lower)\n\
                    claim: 🟡 overall, PPT vs Homa: -5.0% (paper -46.3%)\n\n\
                    ====\nFig 13: six schemes\nsetup: s\n====\nscheme …\n\n\
                    claim: ✅ overall, PPT vs best RC3: -3.5% (paper lower)\n\
                    ====\nExt: no claims\nsetup: s\n====\nscheme …\n";
        let panels = panel_verdicts(text).unwrap();
        let want = [("Fig 12".to_string(), Verdict::Weak), ("Fig 13".to_string(), Verdict::Holds)];
        assert_eq!(panels, want);
        assert!(panel_verdicts("claim: ✅ nonsense").is_err());
    }

    /// Every paper FCT figure carries claims, and every claim names rows
    /// and panels its figure has.
    #[test]
    fn every_paper_fct_figure_has_claims_that_fit_it() {
        for fig in super::super::FIGURES {
            let super::super::Kind::Fct(fct) = &fig.kind else { continue };
            if fig.id.starts_with("fig") {
                assert!(!fct.claims.is_empty(), "{}: no claims", fig.id);
            }
            for c in fct.claims {
                let others = match c.vs {
                    Vs::Row(i) => i != c.row && i < fct.rows.len(),
                    Vs::Best | Vs::Worst => fct.rows.len() > 1,
                };
                assert!(c.row < fct.rows.len() && others, "{}: {c:?}", fig.id);
                assert!(c.panel.is_none_or(|p| p < fct.panels.len()), "{}: {c:?}", fig.id);
            }
        }
    }
}
