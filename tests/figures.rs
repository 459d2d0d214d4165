//! The figure table behind `pptlab figure`: every row runs, the job count
//! never shows in the output, the table and `results/` name the same set
//! of figures, and EXPERIMENTS.md marks each figure with claims as its
//! recorded claim lines do, and names why any other figure has none.

use ppt::figures::{find, panel_verdicts, Figure, FigureOpts, FIGURES};

const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

fn run(fig: &Figure, flows: usize, jobs: usize) -> String {
    let mut out = Vec::new();
    fig.run(&FigureOpts { flows: Some(flows), seed: 42, jobs }, &mut out)
        .unwrap_or_else(|e| panic!("{} failed at --flows {flows} --jobs {jobs}: {e}", fig.id));
    String::from_utf8(out).expect("figures print UTF-8")
}

/// The lengths of the runs of consecutive `claim:` lines in `text`: one
/// run per table with claims, in print order.
fn claim_runs(text: &str) -> Vec<usize> {
    let mut runs = Vec::new();
    let mut run = 0;
    for line in text.lines().chain([""]) {
        if line.starts_with("claim: ") {
            run += 1;
        } else if run > 0 {
            runs.push(run);
            run = 0;
        }
    }
    runs
}

/// Every figure runs at a tiny scale, prints its banner and at least one
/// line under it, one `claim:` line per claim under each table with claims
/// (most bins are empty at this scale: those print `n/a`), and the same
/// bytes on one worker and on two. Fig 19 is the exception to the last
/// part: its columns are wall-clock.
fn runs_and_ignores_the_job_count(figures: impl Iterator<Item = &'static Figure>) {
    for fig in figures {
        let serial = run(fig, 8, 1);
        let lines: Vec<&str> = serial.lines().collect();
        assert!(
            lines.len() >= 6 && lines[0].starts_with("====") && lines[2].starts_with("setup: "),
            "{}: no banner or no rows:\n{serial}",
            fig.id
        );
        let want: Vec<usize> = fig.claims_per_table().into_iter().filter(|&n| n > 0).collect();
        assert_eq!(claim_runs(&serial), want, "{}: claim lines per table", fig.id);
        if fig.id != "fig19_cpu_overhead" {
            assert_eq!(serial, run(fig, 8, 2), "{}: --jobs 2 changed the output", fig.id);
        }
    }
}

// The table in two halves, so the suite's two test threads share the work.
#[test]
fn even_rows_run_and_ignore_the_job_count() {
    runs_and_ignores_the_job_count(FIGURES.iter().step_by(2));
}

#[test]
fn odd_rows_run_and_ignore_the_job_count() {
    runs_and_ignores_the_job_count(FIGURES.iter().skip(1).step_by(2));
}

/// With one flow no utilisation sample survives the 2 ms warm-up / 5 %
/// busy filter; the busy-period statistics print `n/a` (the figure
/// binaries indexed the empty vector and panicked).
#[test]
fn utilisation_figures_print_na_for_an_empty_busy_set() {
    for id in ["fig01_dctcp_util", "fig20_ppt_util"] {
        let text = run(find(id).expect("id is in the table"), 1, 1);
        assert!(text.contains("n/a"), "{id}: expected n/a statistics:\n{text}");
    }
}

/// A figure cannot exist without a recorded result, nor a result without
/// a figure: the table's ids are unique and are exactly the stems of
/// `results/*.txt`.
#[test]
fn table_ids_are_the_results_file_stems() {
    let mut ids: Vec<String> = FIGURES.iter().map(|f| f.id.to_string()).collect();
    ids.sort();
    let listed = ids.len();
    ids.dedup();
    assert_eq!(ids.len(), listed, "two figures share an id");

    let dir = format!("{ROOT}/results");
    let mut stems: Vec<String> = std::fs::read_dir(dir)
        .expect("results/ exists")
        .map(|entry| entry.expect("readable entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "txt"))
        .map(|path| path.file_stem().expect("has a stem").to_string_lossy().into_owned())
        .collect();
    stems.sort();
    assert_eq!(ids, stems, "figure table and results/*.txt disagree");
}

/// The marks EXPERIMENTS.md's headings give figures: `## Fig 2 — … (🟡)`
/// marks Fig 2, `## Figs 8/9 — … (Fig 8 ❌, Fig 9 ✅)` each figure it names.
fn heading_marks(doc: &str) -> Vec<(String, String)> {
    let mut marks = Vec::new();
    for title in doc.lines().filter_map(|line| line.strip_prefix("## Fig")) {
        let Some((_, tail)) = title.rsplit_once(" (") else { continue };
        // "## Fig 2 — …" names one figure; "## Figs 8/9 — …" names each.
        let single = title.strip_prefix(' ').and_then(|t| t.split(' ').next());
        for part in tail.trim_end_matches(')').split(", ") {
            let (label, rest) = match part.strip_prefix("Fig ").and_then(|p| p.split_once(' ')) {
                Some((n, rest)) => (format!("Fig {n}"), rest),
                None => match single {
                    Some(n) => (format!("Fig {n}"), part),
                    None => continue,
                },
            };
            let mark = rest.split(' ').next().unwrap_or_default();
            marks.push((label, mark.to_string()));
        }
    }
    marks
}

/// The figures whose EXPERIMENTS.md mark is prose, not a verdict, each
/// with its reason; they print no `claim:` line.
const PROSE: &[(&str, &str)] = &[
    (
        "Fig 1",
        "one row, nothing to set it against; the claim is an absolute range over a window not yet settled",
    ),
    ("Fig 19", "its columns are wall-clock time, which no recorded file can pin"),
];

/// Each figure's status in EXPERIMENTS.md is the verdict its recorded
/// claim lines give: per panel, the worst of them (DESIGN.md §5). Every
/// other figure heading is named in [`PROSE`], so no mark is prose by
/// accident. Reads `results/` and the document only; runs no simulation.
#[test]
fn experiments_md_marks_match_the_recorded_claims() {
    let doc = std::fs::read_to_string(format!("{ROOT}/EXPERIMENTS.md")).expect("EXPERIMENTS.md");
    let marks = heading_marks(&doc);
    let mut checked = Vec::new();
    for fig in FIGURES.iter().filter(|f| f.claims_per_table().iter().any(|&n| n > 0)) {
        let path = format!("{ROOT}/results/{}.txt", fig.id);
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let panels = panel_verdicts(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
        assert!(!panels.is_empty(), "{path}: no claim lines; re-record it");
        for (label, verdict) in panels {
            let given: Vec<&str> =
                marks.iter().filter(|(l, _)| *l == label).map(|(_, m)| m.as_str()).collect();
            assert_eq!(
                given,
                [verdict.mark()],
                "EXPERIMENTS.md's heading for {label} disagrees with the claims in {path}"
            );
            assert!(!PROSE.iter().any(|(l, _)| *l == label), "{label} has claims and is in PROSE");
            checked.push(label);
        }
    }
    // Seventeen FCT figures with twenty panels, and Figs 20, 28 and 29.
    assert_eq!(checked.len(), 23, "panels checked");
    for (label, mark) in &marks {
        assert!(
            checked.contains(label) || PROSE.iter().any(|(l, _)| l == label),
            "EXPERIMENTS.md marks {label} {mark}, but no claim line checks it and PROSE does not name it"
        );
    }
}
